"""Worker-count specs for the process-sharded second stage.

The second-stage SSPs of different site pairs are independent (§4.2: "the
MaxEndpointFlow problem with different site pairs can be solved in
parallel").  :mod:`repro.core.sharded` runs them in worker processes;
this module owns the one grammar every worker-count spec (constructor
argument, ``REPRO_SHARD_WORKERS``, ``--shard-workers``) is parsed with.
"""

from __future__ import annotations

import os

__all__ = ["resolve_workers"]


def resolve_workers(
    workers: int | str | None, env: str | None = None
) -> int | None:
    """Normalize a worker spec to ``None`` (serial) or an int ``>= 2``.

    Accepted specs: ``None`` (consult the ``env`` variable when one is
    named, default serial), ``"auto"`` (``os.cpu_count()``), a
    non-negative int (``0`` and ``1`` both mean serial and normalize to
    ``None``), or a string of digits.  Negative counts and any other string raise
    ``ValueError`` — historically ``-1`` slipped through as "serial"
    because callers only checked ``<= 1``, while ``0`` and ``1``
    resolved to *different* values meaning the same thing; both
    inconsistencies are now rejected/canonicalized here.

    Args:
        workers: The spec to normalize.
        env: Name of the environment variable consulted when
            ``workers`` is ``None`` (same grammar, including
            ``"auto"``); ``None`` means no env default.

    Returns:
        ``None`` for serial execution, else a worker count ``>= 2``.
    """
    if workers is None:
        if env is None:
            return None
        spec = os.environ.get(env, "").strip()
        if not spec:
            return None
        # Re-resolve the env value through the same grammar, but never
        # recurse into the environment again.
        try:
            return resolve_workers(spec, env=None)
        except ValueError as exc:
            raise ValueError(f"{env}: {exc}") from exc
    if isinstance(workers, str):
        if workers == "auto":
            count = os.cpu_count() or 1
        elif workers.isdigit():
            count = int(workers)
        else:
            raise ValueError(
                "workers must be an int >= 0, None or 'auto', "
                f"got {workers!r}"
            )
    elif isinstance(workers, bool):
        raise ValueError(
            f"workers must be an int >= 0, None or 'auto', got {workers!r}"
        )
    elif isinstance(workers, int):
        if workers < 0:
            raise ValueError(
                f"workers must be >= 0, got {workers}"
            )
        count = workers
    else:
        raise ValueError(
            "workers must be an int >= 0, None or 'auto', "
            f"got {workers!r}"
        )
    return count if count >= 2 else None
