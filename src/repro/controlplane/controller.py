"""The TE controller: computes allocations and publishes them to the DB.

In MegaTE's bottom-up loop (§3.2, Figure 4(b)) the controller never talks
to endpoints.  It runs the optimizer each TE interval (or upon failure),
writes each changed endpoint's segment-routing configuration into the TE
database, commits the incremented version on every shard, and lets agents
pull at their own pace.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

import numpy as np

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
        return self._as_dict()[dst]

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
        self._pub_path = np.empty(0, dtype=np.int64)
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
        # Endpoints sourcing flows this interval, ascending, with where
        # each one's rows start and how many it has.
        src = key >> _DST_BITS
        first = np.ones(src.size, dtype=bool)
        np.not_equal(src[1:], src[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=src.size)
        endpoints = src[starts]
        changed = np.ones(endpoints.size, dtype=bool)
        if self.delta_publish and endpoints.size and self._pub_key.size:
            # Unchanged: every row is among the published rows with the
            # same path, and the endpoint has no other published row.
            at = np.searchsorted(self._pub_key, key)
            at[at == self._pub_key.size] = 0
            same = (self._pub_key[at] == key) & (self._pub_path[at] == path)
            low = endpoints << _DST_BITS
            published = np.searchsorted(
                self._pub_key, low | _DST_MASK, side="right"
            ) - np.searchsorted(self._pub_key, low)
            changed = ~np.logical_and.reduceat(same, starts) | (
                published != counts
            )

        # The changed endpoints' rows, packed as int64 (dst, path id)
        # pairs; each config gets its own slice of them.
        rows = np.repeat(changed, counts)
        packed = np.column_stack((key[rows] & _DST_MASK, path[rows])).tobytes()
        bounds = np.append(0, 16 * np.cumsum(counts[changed])).tolist()
        to_write = endpoints[changed]
        endpoint_ids = to_write.tolist()
        table = self._path_table
        configs = [
            EndpointConfig(
                endpoint_id=endpoint_id,
                version=next_version,
                paths=_RowPaths(packed[lo:hi], table),
            )
            for endpoint_id, lo, hi in zip(endpoint_ids, bounds, bounds[1:])
        ]
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
                self._record_published(to_write[:writes], key, path)
        self.database.commit_version(next_version, now=now)
        self.current_version = next_version
        self.last_result = result
        self.last_publish_writes = writes
        return next_version

    def _record_published(
        self, written: np.ndarray, key: np.ndarray, path: np.ndarray
    ) -> None:
        """Replace the ``written`` endpoints' published rows by theirs
        among ``(key, path)``; other endpoints' rows stay."""
        stale = np.isin(self._pub_key >> _DST_BITS, written)
        fresh = np.isin(key >> _DST_BITS, written)
        merged = np.concatenate((self._pub_key[~stale], key[fresh]))
        order = np.argsort(merged, kind="stable")
        self._pub_key = merged[order]
        self._pub_path = np.concatenate(
            (self._pub_path[~stale], path[fresh])
        )[order]

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
        pair = table.pair_ids()
        flows = np.flatnonzero((assigned >= 0) & table.has_endpoints[pair])
        pair = pair[flows]
        tunnel = assigned[flows].astype(np.int64)
        if (tunnel >= arrays.tunnels_per_pair()[pair]).any():
            raise IndexError("assigned tunnel index outside the catalog")
        tunnel += arrays.tunnel_offsets[pair]
        src = table.src_endpoints[flows]
        dst = table.dst_endpoints[flows]
        if flows.size and not (
            0 <= min(src.min(), dst.min())
            and max(src.max(), dst.max()) <= _MAX_ENDPOINT_ID
        ):
            raise ValueError("endpoint id outside [0, 2**31)")
        key = (src << _DST_BITS) | dst
        order = np.argsort(key, kind="stable")
        key = key[order]
        last = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=last[:-1])
        return key[last], self._path_ids_of(catalog)[tunnel[order[last]]]

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
                dtype=np.int64,
                count=arrays.num_tunnels,
            )
            self._path_table.extend(
                islice(intern, len(self._path_table), None)
            )
            self._tunnel_path_ids[arrays] = ids
        return ids
