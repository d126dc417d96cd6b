"""The one rule for a numeric input field.

Every check raises :class:`ValueError` naming the field, in one format:
``"{name} must be {rule}, got {value!r}"``.  NaN fails every check.
``inf`` passes only with ``allow_inf=True``, where the field reads it as
"never" (no cap, no deadline, no refresh); otherwise it fails as "must
be finite".  A few per-call checks on hot paths stay inline, each with a
comment naming this module (docs/ARCHITECTURE.md, "Input validation").
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "positive", "nonnegative", "finite", "fraction", "in_range",
    "nonnegative_array",
]  # fmt: skip

_INF = math.inf


def _fail(name: str, rule: str, value: float, allow_inf: bool) -> None:
    """Raise for ``value`` outside ``rule`` unless it is an allowed inf."""
    if value == _INF:
        if allow_inf:
            return
        rule = "finite"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def positive(name: str, value: float, *, allow_inf: bool = False) -> None:
    if not 0 < value < _INF:
        _fail(name, "positive", value, allow_inf)


def nonnegative(name: str, value: float, *, allow_inf: bool = False) -> None:
    if not 0 <= value < _INF:
        _fail(name, "non-negative", value, allow_inf)


def finite(name: str, value: float, *, allow_inf: bool = False) -> None:
    """Any real (with ``allow_inf``: anything but NaN and ``-inf``)."""
    if not -_INF < value < _INF:
        _fail(name, "finite", value, allow_inf)


def in_range(
    name: str, value: float, lo: float, hi: float, ends: str = "[]", *,
    allow_inf: bool = False,
) -> None:  # fmt: skip
    """``lo`` to ``hi``; ``ends`` is ``"[]"``, ``"[)"``, ``"(]"`` or ``"()"``
    (``inf`` fails without ``allow_inf`` even where ``hi`` is ``inf``)."""
    above = lo < value if ends[0] == "(" else lo <= value
    below = value < hi if ends[1] == ")" else value <= hi
    if not (above and below and value != _INF):
        _fail(name, f"in {ends[0]}{lo:g}, {hi:g}{ends[1]}", value, allow_inf)


def fraction(name: str, value: float, *, allow_inf: bool = False) -> None:
    in_range(name, value, 0.0, 1.0, allow_inf=allow_inf)


def nonnegative_array(name: str, values: np.ndarray) -> None:
    """Every entry ``>= 0`` in one pass, like ``np.any(values < 0)`` but
    NaN fails too (``inf`` passes: the array rule has no upper bound)."""
    ok = values >= 0
    if not ok.all():
        bad = values[~ok].flat[0].item()
        raise ValueError(f"{name} must be non-negative, got {bad!r}")
