"""An in-process model of the eBPF machinery MegaTE's host stack uses.

eBPF programs are small functions attached to kernel hooks and allowed to
touch only eBPF maps (§5.1).  This module models exactly that contract:

* :class:`EBPFMap` — a bounded key-value store (the kernel rejects updates
  beyond ``max_entries`` with E2BIG, reproduced here).
* :class:`EBPFProgram` — a named function bound to a :class:`Hook`.
* :class:`Kernel` — the event bus: simulated syscalls, conntrack events and
  TC-egress packets fire the programs attached to the matching hook.

The actual MegaTE programs (instance identification, flow collection,
SR insertion) live in :mod:`repro.dataplane.host_stack`; they run on this
substrate and communicate only through the maps, as real eBPF must.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Hashable, Iterator

from .. import checks

__all__ = ["Hook", "EBPFMap", "EBPFProgram", "Kernel", "MapFullError"]


class Hook(Enum):
    """Kernel hooks MegaTE attaches to (§5.1, Figure 6)."""

    #: ``tracepoint/syscalls/sys_enter_execve`` — fires when an instance
    #: starts a process; used to learn (pid -> instance id).
    SYS_ENTER_EXECVE = "tracepoint/syscalls/sys_enter_execve"
    #: ``kprobe/ctnetlink_conntrack_event`` — fires on new connections;
    #: used to learn (five tuple -> pid).
    CTNETLINK_CONNTRACK_EVENT = "kprobe/ctnetlink_conntrack_event"
    #: Traffic-control egress — fires per outgoing packet; used for flow
    #: accounting and SR insertion.
    TC_EGRESS = "tc/egress"


#: What :meth:`EBPFMap.delete` pops when the key is absent; any stored
#: value, ``None`` included, differs from it.
_MISSING = object()


class MapFullError(RuntimeError):
    """Raised when an insert would exceed a map's ``max_entries`` (E2BIG)."""


class EBPFMap:
    """A bounded kernel key-value store.

    Args:
        name: Map name (as it would appear in bpffs).
        max_entries: Capacity; inserts beyond it raise
            :class:`MapFullError`, updates of existing keys always succeed.
    """

    def __init__(self, name: str, max_entries: int = 65536) -> None:
        checks.in_range("max_entries", max_entries, 1, math.inf, "[)")
        self.name = name
        self.max_entries = max_entries
        self._entries: dict[Hashable, Any] = {}

    def lookup(self, key: Hashable) -> Any | None:
        """Return the value for ``key`` or ``None`` (eBPF semantics)."""
        return self._entries.get(key)

    def update(self, key: Hashable, value: Any) -> None:
        """Insert or overwrite; raises :class:`MapFullError` when full."""
        # The size test first: below capacity the key is hashed once.
        if len(self._entries) >= self.max_entries and key not in self._entries:
            raise MapFullError(
                f"map {self.name!r} full ({self.max_entries} entries)"
            )
        self._entries[key] = value

    def delete(self, key: Hashable) -> bool:
        """Remove a key; returns whether it existed."""
        return self._entries.pop(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        self._entries.clear()

    def items(self) -> Iterator[tuple[Hashable, Any]]:
        """Iterate entries — the user-space read path (bpf map dump)."""
        return iter(list(self._entries.items()))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EBPFMap(name={self.name!r}, entries={len(self._entries)}/"
            f"{self.max_entries})"
        )


@dataclass
class EBPFProgram:
    """A program attached to a hook.

    Attributes:
        name: Program name.
        hook: Where it is attached.
        fn: ``fn(ctx, maps) -> Any`` — receives the event context and the
            kernel's map registry; its return value is surfaced to the
            emitter (a TC program returns the possibly rewritten packet).
    """

    name: str
    hook: Hook
    fn: Callable[[Any, dict[str, EBPFMap]], Any]


class Kernel:
    """The event bus dispatching kernel events to attached programs."""

    def __init__(self) -> None:
        self.maps: dict[str, EBPFMap] = {}
        self._programs: dict[Hook, list[EBPFProgram]] = {
            hook: [] for hook in Hook
        }

    def create_map(self, name: str, max_entries: int = 65536) -> EBPFMap:
        """Create and register a named map.

        Raises:
            ValueError: on duplicate names.
        """
        if name in self.maps:
            raise ValueError(f"map {name!r} already exists")
        new_map = EBPFMap(name, max_entries=max_entries)
        self.maps[name] = new_map
        return new_map

    def attach(self, program: EBPFProgram) -> None:
        """Attach a program to its hook (multiple per hook allowed)."""
        self._programs[program.hook].append(program)

    def programs_on(self, hook: Hook) -> list[EBPFProgram]:
        return list(self._programs[hook])

    def emit(self, hook: Hook, ctx: Any) -> list[Any]:
        """Fire an event: run every program on the hook, in attach order.

        Returns:
            Each program's return value.
        """
        return [prog.fn(ctx, self.maps) for prog in self._programs[hook]]
