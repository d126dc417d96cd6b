"""The benchmark's own span recorder.

One in-memory span per call into a layer, recorded from outside the
program: ``name, start_ns, end_ns, parent, epoch`` plus a ``count`` when
the span wraps a loop of per-item calls.  Spans stay in memory until the
run ends; :func:`write_trace` then writes them as JSON lines.

Spans opened with ``always=True`` (the epoch and the solve inside it) are
timed on every epoch, because the end-to-end metrics need them; every
other span reads the clock only while :attr:`Recorder.tracing` is set.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = ["Span", "Recorder", "write_trace"]


@dataclass
class Span:
    name: str
    epoch: int
    parent: int | None
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Recorder:
    """Collects spans; the open-span stack gives each its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tracing = False
        self.epoch = -1
        self._open: list[int] = []

    @contextmanager
    def span(
        self, name: str, always: bool = False, **attrs
    ) -> Iterator[Span | None]:
        if not (always or self.tracing):
            yield None
            return
        index = len(self.spans)
        span = Span(
            name=name,
            epoch=self.epoch,
            parent=self._open[-1] if self._open else None,
            start_ns=0,
            attrs=attrs,
        )
        self.spans.append(span)
        self._open.append(index)
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def add(self, name: str, start_ns: int, end_ns: int, **attrs) -> None:
        """Record a span whose boundaries were read by the caller."""
        self.spans.append(
            Span(
                name=name,
                epoch=self.epoch,
                parent=self._open[-1] if self._open else None,
                start_ns=start_ns,
                end_ns=end_ns,
                attrs=attrs,
            )
        )


def write_trace(
    path: Path, spans: list[Span], program_spans: list[dict]
) -> None:
    """Write harness spans, then the program's own spans, as JSON lines.

    ``program_spans`` are ``repro.obs`` span dicts (already carrying an
    ``epoch`` the caller assigned by time containment); they are tagged
    ``"source": "repro.obs"`` so a reader can tell the two apart.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        for index, span in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "source": "bench",
                        "id": index,
                        "name": span.name,
                        "start_ns": span.start_ns,
                        "end_ns": span.end_ns,
                        "parent": span.parent,
                        "epoch": span.epoch,
                        **span.attrs,
                    }
                )
                + "\n"
            )
        for event in program_spans:
            handle.write(json.dumps({"source": "repro.obs", **event}) + "\n")
