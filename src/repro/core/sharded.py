"""Process-parallel second stage over shared-memory CSR columns.

The paper solves the per-site-pair MaxEndpointFlow problems in parallel
(§4.2: "the MaxEndpointFlow problem with different site pairs can be
solved in parallel") on a 24-thread Xeon; at the million-endpoint scale
of Table 2 the contended residue of stage 2 is the last serial Python
loop in the interval hot path.  This module shards that residue across
*worker processes* without pickling any per-flow data:

* The interval's CSR columns — the demand table's ``offsets`` /
  ``volumes`` / ``qos``, the catalog's ``tunnel_offsets`` and per
  attribute fill-order permutations, the per-class ``F_{k,t}``
  allocation, and the write-back columns (``assigned`` int32 per flow,
  ``placed`` float64 per tunnel) — live in one
  :mod:`multiprocessing.shared_memory` segment (:class:`SharedArena`).
* Workers attach once at pool start; a task message is just
  ``(qos, attribute, epsilon, pair-index range)`` — zero-copy slices
  replace a pickled hand-off of per-pair arrays.
* Each worker reconstructs a pair's class segment exactly the way the
  in-process path does and runs the *same*
  :func:`repro.core.pairfill.fill_pairs` code, so the sharded
  assignment is bit-identical to the serial one (digest-pinned and
  property-tested).
* Workers run their own :mod:`repro.obs` registry; every task returns a
  metrics snapshot that the parent folds back with
  ``MetricsRegistry.merge`` — per-shard phase timings survive into the
  bench history.

Lifecycle: segments are created by the parent (sized to the current
topology + flow population), revalidated each solve, and unlinked on
every exit path — explicit ``close()``, optimizer teardown, garbage
collection (``weakref.finalize``), interpreter exit (``atexit``), and
worker crashes (the parent owns the segment; a ``BrokenProcessPool``
degrades the solve to the in-process path and tears the context down).
A crashed *parent* is covered by the stdlib resource tracker, which
unlinks segments the creating process registered.

Selection follows the LP-backend pattern: an explicit ``shard_workers``
argument beats the ``REPRO_SHARD_WORKERS`` environment variable, which
beats the serial default (:meth:`ShardedConfig.resolve`).

The optimizer sees none of this: :class:`ShardedFill` is the stage-2
fill strategy it holds, and :meth:`ShardedFill.for_class` hands it a
callable shaped like :func:`repro.core.pairfill.fill_pairs`.
"""

from __future__ import annotations

import atexit
import os
import uuid
import weakref
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
import multiprocessing as mp
from multiprocessing import shared_memory

import numpy as np

from ..obs import get_registry, get_tracer, monotonic
from .pairfill import fill_pairs
from .parallel import resolve_workers

__all__ = [
    "SHARD_WORKERS_ENV",
    "SHARD_FAILPOINT_ENV",
    "SEGMENT_PREFIX",
    "ShardedConfig",
    "ShardOutcome",
    "SharedArena",
    "ShardContext",
    "ShardedFill",
    "plan_shards",
    "live_segment_names",
]

#: Environment variable consulted when no explicit worker spec is given.
SHARD_WORKERS_ENV = "REPRO_SHARD_WORKERS"

#: Test failpoint: a worker whose shard index matches this env value
#: hard-exits (``os._exit``) at task entry — the deterministic stand-in
#: for a worker OOM-kill.  Inherited at fork, so it must be set before
#: the pool is built and cleared afterwards.  Never set in production.
SHARD_FAILPOINT_ENV = "REPRO_SHARD_FAILPOINT"

#: Prefix of every shared-memory segment this module creates; the leak
#: check scans ``/dev/shm`` for it.
SEGMENT_PREFIX = "repro-shard"

#: Alignment (bytes) of each column within an arena segment.
_ALIGN = 64

#: Valid shard-boundary strategies.
_STRATEGIES = ("contiguous", "balanced")


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class ShardedConfig:
    """Knobs of the process-parallel sharded second stage.

    Attributes:
        workers: Worker-process count (>= 2; a resolved value, not a
            spec — use :meth:`resolve` to normalize ``"auto"``/env).
        strategy: How contiguous shard boundaries are chosen:
            ``"contiguous"`` splits the contended pair list into
            equal-count ranges, ``"balanced"`` places the boundaries so
            each range carries roughly equal *flow* count (better when
            the Weibull tail concentrates flows in a few pairs).  Both
            keep each shard a contiguous site-pair range.
        min_pairs_per_shard: Serial cutoff — a class whose contended
            residue cannot give every shard at least this many pairs
            runs in-process instead (process dispatch has a fixed cost
            that a handful of microsecond solves never amortizes).
    """

    workers: int
    strategy: str = "contiguous"
    min_pairs_per_shard: int = 2

    def __post_init__(self) -> None:
        if self.workers < 2:
            raise ValueError("workers must be >= 2 (serial is None)")
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"strategy must be one of {_STRATEGIES}, "
                f"got {self.strategy!r}"
            )
        if self.min_pairs_per_shard < 1:
            raise ValueError("min_pairs_per_shard must be >= 1")

    @classmethod
    def resolve(
        cls,
        spec: "int | str | ShardedConfig | None",
        strategy: str = "contiguous",
        min_pairs_per_shard: int = 2,
    ) -> "ShardedConfig | None":
        """Normalize a worker spec into a config (``None`` = serial).

        Selection order matches the LP-backend pattern: an explicit
        ``spec`` wins, an unset one (``None``) consults
        ``REPRO_SHARD_WORKERS``, and an absent/serial value means the
        in-process path.  ``0``/``1`` are explicit "serial" — they beat
        the environment.
        """
        if isinstance(spec, ShardedConfig):
            return spec
        workers = resolve_workers(spec, env=SHARD_WORKERS_ENV)
        if workers is None:
            return None
        return cls(
            workers=workers,
            strategy=strategy,
            min_pairs_per_shard=min_pairs_per_shard,
        )


def plan_shards(
    ks: np.ndarray,
    weights: np.ndarray,
    config: ShardedConfig,
) -> list[np.ndarray] | None:
    """Split contended pair indices into contiguous shard ranges.

    Args:
        ks: Contended site-pair indices, ascending.
        weights: Per-entry work estimate (class flow count of each
            pair), aligned with ``ks``; used by the ``"balanced"``
            strategy.

    Returns:
        One ascending index array per shard (>= 2 shards, every shard
        non-empty and >= ``min_pairs_per_shard`` pairs), or ``None``
        when the residue is below the serial cutoff.
    """
    n = int(ks.size)
    num_shards = min(config.workers, n // config.min_pairs_per_shard)
    if num_shards < 2:
        return None
    if config.strategy == "contiguous":
        parts = np.array_split(ks, num_shards)
    else:
        cum = np.cumsum(np.asarray(weights, dtype=np.float64))
        targets = cum[-1] * np.arange(1, num_shards) / num_shards
        bounds = np.searchsorted(cum, targets, side="left") + 1
        # Keep every shard non-empty even under degenerate weights.
        bounds = np.maximum(bounds, np.arange(1, num_shards))
        bounds = np.minimum(bounds, n - (num_shards - np.arange(1, num_shards)))
        parts = np.split(ks, bounds)
    return [p for p in parts if p.size]


# ---------------------------------------------------------------------------
# Shared-memory arena

#: Segments created by this process that are still linked, by name.
#: The atexit hook unlinks whatever is left — the backstop behind
#: explicit ``close()`` and the per-context finalizers.
_LIVE_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_ATEXIT_REGISTERED = False


def live_segment_names() -> list[str]:
    """Names of arena segments this process has created and not unlinked."""
    return sorted(_LIVE_SEGMENTS)


def _unlink_segment(name: str) -> None:
    shm = _LIVE_SEGMENTS.pop(name, None)
    if shm is None:
        return
    try:
        shm.close()
    except BufferError:  # pragma: no cover - stray exported views
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _unlink_all_segments() -> None:
    for name in list(_LIVE_SEGMENTS):
        _unlink_segment(name)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration.

    Python 3.11's ``SharedMemory`` registers the segment with the
    resource tracker even on attach (the ``track=`` opt-out arrived in
    3.13).  Under fork the workers share the *parent's* tracker process,
    so a worker-side ``unregister`` after attach would clobber the
    creator's registration — the crash backstop — and double
    registration makes the tracker warn and unlink twice.  Suppressing
    registration during the attach keeps exactly one registration: the
    parent's.
    """
    from multiprocessing import resource_tracker

    orig_register = resource_tracker.register

    def _skip_shm(name_, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            orig_register(name_, rtype)

    resource_tracker.register = _skip_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


class SharedArena:
    """Several named ndarrays packed into one shared-memory segment.

    The parent creates the segment (``create=True``) and registers it
    for unlink-at-exit; workers attach by name *without* registering
    with the stdlib resource tracker (see :func:`_attach_untracked` —
    the parent owns cleanup).
    """

    def __init__(
        self,
        specs: list[tuple[str, tuple[int, ...], str]],
        name: str | None = None,
        create: bool = True,
    ) -> None:
        global _ATEXIT_REGISTERED
        self.specs = [
            (key, tuple(int(d) for d in shape), str(dtype))
            for key, shape, dtype in specs
        ]
        offsets: dict[str, int] = {}
        pos = 0
        for key, shape, dtype in self.specs:
            pos = (pos + _ALIGN - 1) // _ALIGN * _ALIGN
            offsets[key] = pos
            pos += int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        self._offsets = offsets
        self.size = max(pos, 1)
        self.created = create
        if create:
            if name is None:
                name = (
                    f"{SEGMENT_PREFIX}-{os.getpid()}-"
                    f"{uuid.uuid4().hex[:12]}"
                )
            self.shm = shared_memory.SharedMemory(
                name=name, create=True, size=self.size
            )
            _LIVE_SEGMENTS[self.shm.name] = self.shm
            if not _ATEXIT_REGISTERED:
                atexit.register(_unlink_all_segments)
                _ATEXIT_REGISTERED = True
        else:
            assert name is not None
            self.shm = _attach_untracked(name)
        self.name = self.shm.name
        self.arrays: dict[str, np.ndarray] = {}
        for key, shape, dtype in self.specs:
            self.arrays[key] = np.ndarray(
                shape,
                dtype=np.dtype(dtype),
                buffer=self.shm.buf,
                offset=offsets[key],
            )

    def __getitem__(self, key: str) -> np.ndarray:
        return self.arrays[key]

    def close(self) -> None:
        """Release the mapping; the creator also unlinks the segment."""
        self.arrays.clear()
        if self.created:
            _unlink_segment(self.name)
        else:
            try:
                self.shm.close()
            except BufferError:  # pragma: no cover
                pass


# ---------------------------------------------------------------------------
# Worker side

#: Per-worker-process attachment state, set by the pool initializer.
_WORKER: dict | None = None


def _worker_init(
    arena_name: str,
    specs: list[tuple[str, tuple[int, ...], str]],
    obs_enabled: bool,
) -> None:
    """Pool initializer: attach the arena, reset worker telemetry."""
    global _WORKER
    arena = SharedArena(specs, name=arena_name, create=False)
    # The worker's registry starts empty (fork inherits the parent's
    # series; counting them again on merge would double every metric)
    # and records iff the parent was recording at pool start.  Spans
    # are never collected worker-side — nothing exports them.
    registry = get_registry()
    registry.reset()
    registry.enabled = obs_enabled
    get_tracer().enabled = False
    _WORKER = {"arena": arena, "obs": obs_enabled}


def _class_flows(arena: SharedArena, k: int, qos_value: int) -> np.ndarray:
    """Global flow indices of pair ``k``'s flows in one QoS class.

    The one definition of "a pair's class segment" in arena terms —
    the workers, the warm-state staging and the parent's read-back all
    use it, so they address the same ``assigned`` / ``prev`` slots.
    """
    d_offsets = arena["d_offsets"]
    lo, hi = int(d_offsets[k]), int(d_offsets[k + 1])
    return lo + np.flatnonzero(arena["qos"][lo:hi] == qos_value)


def _worker_solve_range(
    shard_index: int,
    qos_value: int,
    attribute: str,
    epsilon: float,
    ks: tuple[int, ...],
    warm_enabled: bool,
    ssp_backend: str = "scalar",
) -> dict:
    """Solve one contiguous range of contended site pairs in-place.

    Reads the class segment of every pair straight from the shared CSR
    columns, runs the shared fill (warm reuse per pair, cold pairs one
    by one through the FastSSP kernel unless ``ssp_backend`` is
    ``"scalar"``), and writes the results back into the shared
    ``assigned`` (per flow) and ``placed`` (per tunnel) columns — both
    writes land in segments owned exclusively by this shard's pairs, so
    no synchronization is needed.
    """
    if os.environ.get(SHARD_FAILPOINT_ENV) == str(shard_index):
        os._exit(1)  # injected worker crash (see SHARD_FAILPOINT_ENV)
    state = _WORKER
    assert state is not None, "worker used before initialization"
    arena: SharedArena = state["arena"]
    t_start = monotonic()
    volumes = arena["volumes"]
    assigned = arena["assigned"]
    prev_col = arena["prev"]
    prev_flag = arena["prev_flag"]
    t_offsets = arena["tunnel_offsets"]
    alloc = arena["alloc"]
    placed = arena["placed"]
    ordered_cols = arena[f"ordered_cols:{attribute}"]

    pair_vols: list[np.ndarray] = []
    pair_allocs: list[np.ndarray] = []
    pair_orders: list[np.ndarray] = []
    pair_prev: list[np.ndarray | None] = []
    pair_gidx: list[np.ndarray] = []
    pair_cols: list[tuple[int, int]] = []
    for k in ks:
        gidx = _class_flows(arena, k, qos_value)
        o0, o1 = int(t_offsets[k]), int(t_offsets[k + 1])
        pair_vols.append(volumes[gidx])
        pair_allocs.append(alloc[o0:o1])
        pair_orders.append(ordered_cols[o0:o1] - o0)
        pair_prev.append(
            prev_col[gidx]
            if warm_enabled and prev_flag[k]
            else None
        )
        pair_gidx.append(gidx)
        pair_cols.append((o0, o1))

    t0 = monotonic()
    filled = fill_pairs(
        pair_vols,
        pair_allocs,
        pair_orders,
        epsilon,
        prev_assigned=pair_prev,
        ssp_backend=ssp_backend,
    )
    t1 = monotonic()
    for j in range(len(ks)):
        assigned_k, placed_k, _ = filled[j]
        assigned[pair_gidx[j]] = assigned_k
        o0, o1 = pair_cols[j]
        placed[o0:o1] = placed_k
    warm = [bool(f[2]) for f in filled]
    warm_reused = sum(warm)
    fill_s = t1 - t0
    write_s = monotonic() - t1

    total_s = monotonic() - t_start
    snapshot = None
    registry = get_registry()
    if registry.enabled:
        shard = str(shard_index)
        registry.counter(
            "megate_shard_pairs_total",
            "Contended site pairs solved by shard workers",
            labelnames=("shard",),
        ).labels(shard=shard).inc(len(ks))
        if warm_reused:
            registry.counter(
                "megate_shard_warm_reuse_total",
                "Shard-worker pair solves served by carried state",
                labelnames=("shard",),
            ).labels(shard=shard).inc(warm_reused)
        phase_hist = registry.histogram(
            "megate_shard_phase_seconds",
            "Per-task shard worker phase durations",
            labelnames=("shard", "phase"),
        )
        phase_hist.labels(shard=shard, phase="fill").observe(fill_s)
        phase_hist.labels(shard=shard, phase="writeback").observe(write_s)
        registry.histogram(
            "megate_shard_task_seconds",
            "Whole shard-task durations",
            labelnames=("shard",),
        ).labels(shard=shard).observe(total_s)
        snapshot = registry.snapshot()
        registry.reset()
    return {
        "shard": shard_index,
        "pid": os.getpid(),
        "pairs": len(ks),
        "warm_reused": warm_reused,
        "warm": warm,
        "seconds": total_s,
        "phase_s": {"fill": fill_s, "writeback": write_s},
        "snapshot": snapshot,
    }


# ---------------------------------------------------------------------------
# Parent side


@dataclass
class ShardOutcome:
    """Result of one sharded class dispatch (data is in the arena).

    Attributes:
        ks: The contended pair indices that were solved in workers.
            On a partial salvage (a worker died mid-dispatch) this is
            only the completed shards' pairs — the caller must fill
            the rest in-process.  The lost shards' arena slots hold
            garbage; their telemetry snapshots never existed, so
            completed shards' ``megate_shard_*`` series merge exactly
            once and crashed shards contribute nothing.
        warm: Per entry of ``ks``, whether the carried warm state
            served the pair (no FastSSP solve).
        num_shards: Shards dispatched.
        timings: One entry per completed shard task (pairs, seconds,
            phase_s).
    """

    ks: np.ndarray
    warm: np.ndarray
    num_shards: int = 0
    timings: list[dict] = field(default_factory=list)


def _mp_context():
    """Fork where available (zero-cost attach), spawn otherwise."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class ShardContext:
    """Shared arena + worker pool for one (topology, flow population).

    Built lazily by :class:`ShardedFill` on the first sharded solve,
    revalidated every interval (same topology object, same CSR
    offsets, same telemetry enablement), and rebuilt when any of those
    change.  ``close()`` is idempotent and runs on every exit path —
    see the module docstring for the full lifecycle.
    """

    def __init__(
        self,
        config: ShardedConfig,
        solver,
        table,
        attributes: tuple[str, ...],
    ) -> None:
        self.config = config
        self.broken = False
        self._solver_ref = weakref.ref(solver)
        self._offsets_fingerprint = np.asarray(
            table.offsets, dtype=np.int64
        ).copy()
        self.obs_enabled = get_registry().enabled
        self.attributes = tuple(sorted(set(attributes)))
        num_flows = int(table.volumes.size)
        num_pairs = int(table.num_pairs)
        num_vars = int(solver.num_tunnel_vars)
        specs: list[tuple[str, tuple[int, ...], str]] = [
            ("d_offsets", (num_pairs + 1,), "int64"),
            ("volumes", (num_flows,), "float64"),
            ("qos", (num_flows,), "int8"),
            ("assigned", (num_flows,), "int32"),
            ("prev", (num_flows,), "int32"),
            ("prev_flag", (num_pairs,), "uint8"),
            ("tunnel_offsets", (num_pairs + 1,), "int64"),
            ("alloc", (num_vars,), "float64"),
            ("placed", (num_vars,), "float64"),
        ]
        for attribute in self.attributes:
            specs.append(
                (f"ordered_cols:{attribute}", (num_vars,), "int64")
            )
        self.arena = SharedArena(specs)
        self.arena["d_offsets"][:] = table.offsets
        self.arena["tunnel_offsets"][:] = solver.tunnel_offsets
        self.arena["prev_flag"][:] = 0
        for attribute in self.attributes:
            _, ordered_cols = solver.fill_orders(attribute)
            self.arena[f"ordered_cols:{attribute}"][:] = ordered_cols
        self._pool = ProcessPoolExecutor(
            max_workers=config.workers,
            mp_context=_mp_context(),
            initializer=_worker_init,
            initargs=(self.arena.name, self.arena.specs, self.obs_enabled),
        )
        # GC safety net: contexts dropped without close() still unlink.
        self._finalizer = weakref.finalize(
            self, _close_leftovers, self._pool, self.arena.name
        )

    # -- lifecycle ------------------------------------------------------

    def matches(self, solver, table) -> bool:
        """Usable for this interval without rebuilding?"""
        return (
            not self.broken
            and self._solver_ref() is solver
            and self.obs_enabled == get_registry().enabled
            and np.array_equal(self._offsets_fingerprint, table.offsets)
        )

    def close(self) -> None:
        """Shut the pool down and unlink the arena (idempotent)."""
        self._finalizer.detach()
        try:
            self._pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools
            pass
        self.arena.close()

    # -- per-interval / per-class entry points --------------------------

    def load_interval(self, table) -> None:
        """Copy the interval's demand columns into the arena."""
        self.arena["volumes"][:] = table.volumes
        self.arena["qos"][:] = table.qos

    def solve_class(
        self,
        qos_value: int,
        attribute: str,
        epsilon: float,
        contended_ks: np.ndarray,
        pair_weights: np.ndarray,
        alloc_flat: np.ndarray,
        warm_prev: dict[int, np.ndarray] | None = None,
        ssp_backend: str = "scalar",
    ) -> ShardOutcome | None:
        """Dispatch one class's contended residue to the shard workers.

        Returns ``None`` (caller fills the whole class in-process) when
        the residue is below the serial cutoff or the pool was already
        broken at submit time.  When a worker dies *mid-dispatch*, the
        shards that completed are salvaged: their arena results and
        telemetry snapshots are kept (merged exactly once — the crashed
        shard recorded nothing, so no ``megate_shard_*`` series can be
        double-counted), the lost pairs are simply absent from
        :attr:`ShardOutcome.ks` for the caller to fill in-process, and
        the context is marked broken so
        :class:`ShardedFill` tears it down after the class.
        """
        if self.broken or attribute not in set(self.attributes):
            return None
        shards = plan_shards(contended_ks, pair_weights, self.config)
        if shards is None:
            return None
        arena = self.arena
        arena["alloc"][:] = alloc_flat
        warm_enabled = bool(warm_prev)
        if warm_enabled:
            flags = arena["prev_flag"]
            flags[contended_ks] = 0
            prev_col = arena["prev"]
            for k, prev in warm_prev.items():
                gidx = _class_flows(arena, k, qos_value)
                if prev.size != gidx.size:
                    continue  # population changed; cold solve
                prev_col[gidx] = prev
                flags[k] = 1
        with get_tracer().span(
            "te.shard.dispatch",
            qos=qos_value,
            num_shards=len(shards),
            num_pairs=int(contended_ks.size),
        ):
            # A dead worker surfaces as BrokenProcessPool from submit()
            # (pool already broken — nothing dispatched, degrade whole)
            # or on individual futures (it broke mid-dispatch — salvage
            # the shards that completed, leave the rest to the caller).
            try:
                futures = [
                    self._pool.submit(
                        _worker_solve_range,
                        i,
                        qos_value,
                        attribute,
                        epsilon,
                        tuple(int(k) for k in part),
                        warm_enabled,
                        ssp_backend,
                    )
                    for i, part in enumerate(shards)
                ]
            except BrokenProcessPool:
                self.broken = True
                return None
            wait(futures)
        results: list[dict] = []
        solved_parts: list[np.ndarray] = []
        for part, future in zip(shards, futures):
            exc = future.exception()
            if exc is None:
                results.append(future.result())
                solved_parts.append(np.asarray(part))
            elif isinstance(exc, BrokenProcessPool):
                self.broken = True
            else:
                raise exc
        if not results:
            return None
        # Shards are contiguous ascending ranges of contended_ks, so
        # concatenating the surviving parts preserves pair order.
        outcome = ShardOutcome(
            ks=np.concatenate(solved_parts),
            warm=np.array(
                [w for res in results for w in res.pop("warm")], dtype=bool
            ),
            num_shards=len(shards),
        )
        registry = get_registry()
        for res in results:
            snapshot = res.pop("snapshot", None)
            if snapshot is not None and registry.enabled:
                registry.merge(snapshot)
            outcome.timings.append(res)
        return outcome


def _close_leftovers(pool: ProcessPoolExecutor, arena_name: str) -> None:
    """``weakref.finalize`` target: tear down a GC'd context's resources."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover
        pass
    _unlink_segment(arena_name)


class ShardedFill:
    """The process-sharded stage-2 fill strategy of one optimizer.

    Owns everything about sharding the optimizer used to inline: the
    :class:`ShardContext` across intervals (build, revalidate, rebuild,
    close), reading the workers' results back out of the arena, the
    in-process re-fill of whatever the workers did not solve (serial
    cutoff, or the pairs of shards lost to a worker crash), and
    switching sharding off for good once a pool broke.  The optimizer
    only calls :meth:`begin_interval` once per solve and then asks
    :meth:`for_class` for a fill callable per QoS class.

    Attributes:
        ctx: The live shard context (``None`` = filling in-process).
        disabled: Set when a worker died; every later interval fills
            in-process.
        num_pairs: Pairs the workers solved this interval.
        timings: One entry per completed shard task this interval.
    """

    def __init__(self, attributes: tuple[str, ...]) -> None:
        self.attributes = attributes
        self.ctx: ShardContext | None = None
        self.disabled = False
        self.num_pairs = 0
        self.timings: list[dict] = []

    def close(self) -> None:
        """Shut the worker pool down and unlink the arena (idempotent)."""
        if self.ctx is not None:
            self.ctx.close()
            self.ctx = None

    def begin_interval(
        self, spec: "int | str | ShardedConfig | None", solver, table
    ) -> int:
        """Resolve the worker spec and publish the interval's demands.

        Resolved per solve so ``REPRO_SHARD_WORKERS`` is consulted like
        the LP backend's variable.  Reuses the cached context or
        rebuilds it when the config, topology or flow population
        changed.  Returns the worker count (0 = in-process).
        """
        self.num_pairs = 0
        self.timings = []
        config = None if self.disabled else ShardedConfig.resolve(spec)
        if config is None:
            self.close()
            return 0
        ctx = self.ctx
        if ctx is not None and (
            ctx.config != config or not ctx.matches(solver, table)
        ):
            ctx.close()
            ctx = None
        if ctx is None:
            ctx = ShardContext(config, solver, table, self.attributes)
        self.ctx = ctx
        ctx.load_interval(table)
        return config.workers

    def for_class(
        self,
        qos_value: int,
        attribute: str,
        ks: np.ndarray,
        alloc_flat: np.ndarray,
    ):
        """The fill callable for one class's contended pairs ``ks``.

        Shaped like :func:`repro.core.pairfill.fill_pairs` — which it
        *is* whenever this interval fills in-process.  ``ks`` (ascending)
        and ``alloc_flat`` say where the pairs live in the arena; the
        per-pair lists the callable is then given must align with
        ``ks``.
        """
        if self.ctx is None or ks.size == 0:
            return fill_pairs
        return partial(self._fill_class, qos_value, attribute, ks, alloc_flat)

    def _fill_class(
        self,
        qos_value: int,
        attribute: str,
        ks: np.ndarray,
        alloc_flat: np.ndarray,
        pair_volumes: list[np.ndarray],
        pair_allocs: list[np.ndarray],
        pair_orders: list[np.ndarray],
        epsilon: float,
        prev_assigned: list[np.ndarray | None] | None = None,
        ssp_backend: str | None = None,
        phase_out: dict[str, float] | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray, bool]]:
        ctx = self.ctx
        warm_prev = None
        if prev_assigned is not None:
            warm_prev = {
                int(k): prev
                for k, prev in zip(ks, prev_assigned)
                if prev is not None
            } or None
        weights = np.array([v.size for v in pair_volumes], dtype=np.float64)
        out = ctx.solve_class(
            qos_value,
            attribute,
            epsilon,
            ks,
            weights,
            alloc_flat,
            warm_prev,
            ssp_backend=ssp_backend,
        )
        filled: list = [None] * int(ks.size)
        if out is not None:
            # Read back owned copies, never views into the arena — the
            # segment outlives no solve.  Only the completed shards'
            # pairs have valid slots.
            arena = ctx.arena
            t_offsets = arena["tunnel_offsets"]
            for p, k, warm in zip(
                np.searchsorted(ks, out.ks).tolist(),
                out.ks.tolist(),
                out.warm.tolist(),
            ):
                filled[p] = (
                    arena["assigned"][_class_flows(arena, k, qos_value)],
                    arena["placed"][t_offsets[k] : t_offsets[k + 1]].copy(),
                    warm,
                )
            self.num_pairs += int(out.ks.size)
            self.timings.extend(out.timings)
        if ctx.broken:
            # A worker died: tear the context down and fill the rest of
            # this (and every later) interval in-process.
            self.close()
            self.disabled = True
        # Whatever the workers did not solve — the whole class below the
        # serial cutoff, the pairs of crashed shards — fills in-process
        # through the same function the workers run, carried
        # assignments included, so it lands where the in-process path
        # would have.
        lost = [p for p, f in enumerate(filled) if f is None]
        if lost:
            rescued = fill_pairs(
                [pair_volumes[p] for p in lost],
                [pair_allocs[p] for p in lost],
                [pair_orders[p] for p in lost],
                epsilon,
                prev_assigned=(
                    None
                    if prev_assigned is None
                    else [prev_assigned[p] for p in lost]
                ),
                ssp_backend=ssp_backend,
                phase_out=phase_out,
            )
            for p, f in zip(lost, rescued):
                filled[p] = f
        return filled
