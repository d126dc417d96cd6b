"""The TE controller: computes allocations and publishes them to the DB.

In MegaTE's bottom-up loop (§3.2, Figure 4(b)) the controller never talks
to endpoints.  It runs the optimizer each TE interval (or upon failure),
writes each changed endpoint's segment-routing configuration into the TE
database, commits the incremented version on every shard, and lets agents
pull at their own pace.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

import numpy as np

from ..core.flowtable import concat_ranges, csr_offsets
from ..core.twostage import MegaTEOptimizer
from .database import SyncError, TEDatabase

if TYPE_CHECKING:
    from ..core.types import TEResult
    from ..topology.contraction import TwoLayerTopology
    from ..topology.tunnels import CatalogArrays, TunnelCatalog
    from ..traffic.demand import DemandMatrix

__all__ = ["EndpointConfig", "TEController"]


@dataclass(frozen=True, slots=True)
class EndpointConfig:
    """One endpoint's TE configuration, as stored in the database.

    A stored config is immutable, ``paths`` included: the database hands
    the same object to every agent that pulls it, and agents keep
    ``paths`` as installed rather than copying it.

    Attributes:
        endpoint_id: The endpoint this config belongs to.
        version: TE configuration version it was published under.
        paths: Mapping from destination endpoint id to the site-level path
            (tuple of sites) its flows must ride — the input to the host's
            SR header insertion.  :meth:`TEController.publish` stores a
            read-only view over packed rows; any mapping that compares
            equal is the same config.
    """

    endpoint_id: int
    version: int
    paths: Mapping[int, tuple[str, ...]]


class _RowPaths(Mapping[int, tuple[str, ...]]):
    """Read-only ``{dst: site path}`` view over one endpoint's packed rows.

    ``rows`` holds native int64 ``(dst, path id)`` pairs, ``dst``
    ascending; ids index ``table``, the controller's append-only list of
    interned site paths.  Each endpoint owns its ``rows`` slice, so a
    config pins nothing of any other endpoint's publish.
    """

    __slots__ = ("_rows", "_table")

    def __init__(self, rows: bytes, table: list[tuple[str, ...]]) -> None:
        self._rows = rows
        self._table = table

    def _ids(self) -> memoryview:
        return memoryview(self._rows).cast("q")

    def __len__(self) -> int:
        return len(self._rows) // 16

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids()[::2].tolist())

    def __getitem__(self, dst: int) -> tuple[str, ...]:
        # A binary search of the ascending dst column: one lookup reads
        # O(log n) rows, not all of them.
        ids = self._ids()
        dsts = ids[::2]
        try:
            i = bisect_left(dsts, dst)
            if i < len(dsts) and dsts[i] == dst:
                return self._table[ids[2 * i + 1]]
        except TypeError:  # not comparable with an int: not a key
            pass
        raise KeyError(dst)

    def _as_dict(self) -> dict[int, tuple[str, ...]]:
        ids = self._ids().tolist()
        return dict(zip(ids[::2], map(self._table.__getitem__, ids[1::2])))

    # One pass over the rows, not one lookup per key (an install walks
    # every destination of a config that may have thousands).
    def items(self) -> ItemsView[int, tuple[str, ...]]:
        return self._as_dict().items()

    def values(self) -> ValuesView[tuple[str, ...]]:
        return self._as_dict().values()

    def __repr__(self) -> str:
        return repr(self._as_dict())


def config_key(endpoint_id: int) -> str:
    """Database key of one endpoint's configuration."""
    return f"te:cfg:{endpoint_id}"


#: A published row's sort key packs ``(src, dst)`` as ``src << 32 | dst``,
#: so endpoint ids must lie in ``[0, 2**31)``.
_DST_BITS = 32
_DST_MASK = 2**_DST_BITS - 1
_MAX_ENDPOINT_ID = 2 ** (63 - _DST_BITS) - 1


def _packable(src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether every endpoint id lies in ``[0, 2**31)``."""
    return not src.size or (
        0 <= min(src.min(), dst.min())
        and max(src.max(), dst.max()) <= _MAX_ENDPOINT_ID
    )


class TEController:
    """Periodic TE recomputation + versioned publication.

    Args:
        database: The TE database configs are published to.
        optimizer: TE solver; defaults to :class:`MegaTEOptimizer`.
    """

    def __init__(
        self,
        database: TEDatabase,
        optimizer: MegaTEOptimizer | None = None,
        delta_publish: bool = True,
    ) -> None:
        self.database = database
        self.optimizer = optimizer or MegaTEOptimizer()
        self.current_version = 0
        self.last_result: "TEResult | None" = None
        #: Skip database writes for endpoints whose paths did not change
        #: since the last publish (most endpoints, most intervals).
        self.delta_publish = delta_publish
        # The rows last written to the database, one per (src, dst):
        # packed key (ascending) and interned path id.  This is what
        # delta publish diffs the next assignment against.
        self._pub_key = np.empty(0, dtype=np.int64)
        self._pub_path = np.empty(0, dtype=np.int32)
        # Their segment index: each published endpoint (ascending) and
        # the CSR offsets of its rows, so endpoint i's segment is
        # ``_pub_offsets[i]:_pub_offsets[i + 1]``.
        self._pub_endpoints = np.empty(0, dtype=np.int32)
        self._pub_offsets = np.zeros(1, dtype=np.int64)
        # Site paths interned to integer ids (insertion order is id
        # order), so rows compare as integers and an id means the same
        # path under every catalog this controller publishes from —
        # tunnel indices shift between a catalog and its
        # ``with_failures`` projections, paths do not.
        self._path_ids: dict[tuple[str, ...], int] = {}
        # The same paths by id.  Append-only: published configs read
        # their paths through it.
        self._path_table: list[tuple[str, ...]] = []
        self._tunnel_path_ids: WeakKeyDictionary[
            CatalogArrays, np.ndarray
        ] = WeakKeyDictionary()
        #: Endpoint configs written during the most recent publish.
        self.last_publish_writes = 0

    def run_interval(
        self,
        topology: "TwoLayerTopology",
        demands: "DemandMatrix",
        now: float = 0.0,
    ) -> "TEResult":
        """Solve one TE interval and publish the result.

        Returns:
            The optimizer's :class:`~repro.core.types.TEResult`.
        """
        result = self.optimizer.solve(topology, demands)
        self.publish(topology, result, now=now)
        return result

    def publish(
        self,
        topology: "TwoLayerTopology",
        result: "TEResult",
        now: float = 0.0,
    ) -> int:
        """Write per-endpoint configs, then commit the next version.

        Only endpoints that actually source flows get a config entry, and
        with ``delta_publish`` only endpoints whose paths *changed* since
        the last publish are rewritten — the common case in production,
        where successive intervals repin few flows.  An endpoint with no
        publishable flow this interval (every flow unassigned, or none
        reported) is neither rewritten nor forgotten: its last config
        stays in the database.  Configs are written in ascending endpoint
        order, by one :meth:`TEDatabase.put_many`, each as packed rows
        behind a read-only ``paths`` view (no per-destination Python
        objects), and the version is committed **last**, on every shard
        (:meth:`TEDatabase.commit_version`), so an agent whose shard
        reports the new version is guaranteed to find that shard's new
        configs (write ordering is the paper's eventual-consistency
        correctness argument, here per shard).  A publish that raises —
        a config write or part of the commit failed — leaves
        ``current_version`` where it was; calling it again with the same
        result writes what is missing and repeats the commit.

        Raises:
            SyncError: when the store refused a write.
            IndexError: when an assigned tunnel index is not in its site
                pair's tunnel set under ``topology``'s catalog.
            ValueError: for an endpoint id outside ``[0, 2**31)``.
        """
        next_version = self.current_version + 1
        key, path = self._publishable_rows(topology.catalog, result)
        # Endpoints sourcing flows this interval, ascending, and the CSR
        # offsets of each one's rows.
        src = key >> _DST_BITS
        first = np.ones(src.size, dtype=bool)
        np.not_equal(src[1:], src[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        endpoints = np.take(src, starts)
        del src
        offsets = np.append(starts, key.size)
        counts = np.diff(offsets)
        # Each endpoint's published segment: one search per endpoint,
        # not per row.  ``at`` is where the endpoint is or would go.
        at = np.searchsorted(self._pub_endpoints, endpoints)
        known = np.zeros(endpoints.size, dtype=bool)
        if self._pub_endpoints.size:
            known = np.take(self._pub_endpoints, at, mode="clip") == endpoints
        changed = ~known
        if self.delta_publish and known.any():
            # Unchanged: the endpoint has a published segment of as many
            # rows, and they equal its rows now, compared by a gather at
            # the aligned offset: row r of segment i sits at r + shift[i]
            # among the published rows.
            old_start = np.take(self._pub_offsets, at)
            changed |= (
                np.take(self._pub_offsets, at + 1, mode="clip") - old_start
                != counts
            )
            segment = np.cumsum(first, dtype=np.int32)
            segment -= 1
            shift = old_start - starts
            aligned = np.take(shift, segment)
            del shift
            aligned += np.arange(key.size)
            differs = np.take(self._pub_key, aligned, mode="clip") != key
            differs |= np.take(self._pub_path, aligned, mode="clip") != path
            del aligned
            changed[np.take(segment, np.flatnonzero(differs))] = True
            del differs, segment
        elif not self.delta_publish:
            changed[:] = True
        del first

        # The changed endpoints' rows, packed as int64 (dst, path id)
        # pairs; each config gets its own slice of them.
        written = np.flatnonzero(changed)
        rows = concat_ranges(starts[written], counts[written])
        packed = np.column_stack(
            (np.take(key, rows) & _DST_MASK, np.take(path, rows))
        ).tobytes()
        del rows
        bounds = np.append(0, 16 * np.cumsum(counts[written])).tolist()
        endpoint_ids = endpoints[written].tolist()
        table = self._path_table
        configs = [
            EndpointConfig(
                endpoint_id=endpoint_id,
                version=next_version,
                paths=_RowPaths(packed[lo:hi], table),
            )
            for endpoint_id, lo, hi in zip(endpoint_ids, bounds, bounds[1:])
        ]
        del packed
        writes = 0
        try:
            self.database.put_many(
                [config_key(e) for e in endpoint_ids], configs, now=now
            )
            writes = len(configs)
        except SyncError as exc:
            writes = len(exc.stored)
            raise
        finally:
            # What was written is published even if a put raised
            # part-way, so a retry resumes instead of starting over.
            if writes:
                # Unwritten: changed, but its put never landed.
                changed[written[:writes]] = False
                self._record_published(
                    key, path, endpoints, offsets, at, known, ~changed
                )
        self.database.commit_version(next_version, now=now)
        self.current_version = next_version
        self.last_result = result
        self.last_publish_writes = writes
        return next_version

    def _record_published(
        self,
        key: np.ndarray,
        path: np.ndarray,
        endpoints: np.ndarray,
        offsets: np.ndarray,
        at: np.ndarray,
        known: np.ndarray,
        current: np.ndarray,
    ) -> None:
        """Make the published rows what the database now holds.

        That is this publish's segment (``key``, ``path``, ``endpoints``,
        ``offsets``) of every endpoint in ``current`` — written, or
        unchanged, whose rows are the published ones — and the published
        segment of every other endpoint: absent from this publish, or
        changed but not written.  Both runs are ascending and disjoint,
        so the kept old segments are inserted into the current ones, by
        position, in time linear in the rows.  ``at`` and ``known`` are
        the endpoints' segment search.
        """
        counts = np.diff(offsets)
        if not current.all():
            rows = np.repeat(current, counts)
            key, path = key[rows], path[rows]
            endpoints, counts = endpoints[current], counts[current]
            offsets = csr_offsets(counts)
        # Old segments no current segment replaces.
        kept = np.ones(self._pub_endpoints.size, dtype=bool)
        kept[at[current & known]] = False
        kept = np.flatnonzero(kept)
        if kept.size:
            old_start = self._pub_offsets[kept]
            old_count = self._pub_offsets[kept + 1] - old_start
            old_endpoints = self._pub_endpoints[kept]
            place = np.searchsorted(endpoints, old_endpoints)
            before = np.repeat(np.take(offsets, place), old_count)
            rows = concat_ranges(old_start, old_count)
            key = np.insert(key, before, np.take(self._pub_key, rows))
            path = np.insert(path, before, np.take(self._pub_path, rows))
            endpoints = np.insert(endpoints, place, old_endpoints)
            counts = np.insert(counts, place, old_count)
            offsets = csr_offsets(counts)
        self._pub_key = key
        self._pub_path = path
        self._pub_endpoints = endpoints.astype(np.int32)
        self._pub_offsets = offsets

    def _publishable_rows(
        self, catalog: "TunnelCatalog", result: "TEResult"
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(packed key, path id)`` of the flows a publish can act on.

        Those are the flows with a tunnel whose pair carries endpoint
        ids.  One row per ``(src, dst)``, ascending; on a duplicate pair
        the last flow wins.
        """
        arrays = catalog.columnar()
        table = result.demands.table
        assigned = result.assignment.assigned_tunnel
        counts = table.counts
        nonempty = table.offsets[:-1][counts > 0]
        if nonempty.size:
            # A pair's largest assigned index, against its tunnel count.
            largest = np.maximum.reduceat(assigned, nonempty)
            pairs = counts > 0
            if (
                (largest >= arrays.tunnels_per_pair()[pairs])
                & table.has_endpoints[pairs]
            ).any():
                raise IndexError("assigned tunnel index outside the catalog")
        # Every flow's global tunnel id (meaningless where unassigned).
        tunnel = np.repeat(arrays.tunnel_offsets[:-1], counts)
        tunnel += assigned
        usable = assigned >= 0
        if not table.has_endpoints.all():
            usable &= np.repeat(table.has_endpoints, counts)
        src, dst = table.src_endpoints, table.dst_endpoints
        if not _packable(src, dst) and not _packable(
            src[usable], dst[usable]
        ):
            raise ValueError("endpoint id outside [0, 2**31)")
        key = src << _DST_BITS
        key |= dst
        # Flows a publish cannot act on sort first, under key -1, and are
        # cut off after the sort.
        unusable = key.size - np.count_nonzero(usable)
        if unusable:
            np.putmask(key, ~usable, -1)
        del usable
        order = np.argsort(key, kind="stable")[unusable:]
        key = np.take(key, order)
        last = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=last[:-1])
        if not last.all():
            key, order = key[last], order[last]
        return key, np.take(
            self._path_ids_of(catalog), np.take(tunnel, order)
        )

    def _path_ids_of(self, catalog: "TunnelCatalog") -> np.ndarray:
        """Interned path id of every tunnel, by global tunnel id.

        Computed once per columnar view of a catalog (which the catalog
        rebuilds whenever its pairs change).
        """
        arrays = catalog.columnar()
        ids = self._tunnel_path_ids.get(arrays)
        if ids is None:
            intern = self._path_ids
            ids = np.fromiter(
                (
                    intern.setdefault(tunnel.path, len(intern))
                    for _, _, tunnel in catalog.all_tunnels()
                ),
                dtype=np.int32,
                count=arrays.num_tunnels,
            )
            self._path_table.extend(
                islice(intern, len(self._path_table), None)
            )
            self._tunnel_path_ids[arrays] = ids
        return ids
