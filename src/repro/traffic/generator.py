"""Synthetic production-style traffic generation.

The paper drives its simulations with instance-level flow data collected
from TWAN over a day (§6.1).  Those traces are proprietary, so this module
generates demand matrices matching their published statistics:

* endpoint pairs per site pair scale with the Weibull endpoint counts of
  the two sites (Fig. 8's heavy tail propagates into the demand matrix);
* per-pair demand volumes are log-normal — a small share of "elephant"
  pairs carries most traffic, as §8 notes ("a small part of the flows
  account for most of the network traffic");
* each pair gets one of three QoS classes; class 3 (bulk) pairs are fewer
  but individually heavier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import checks
from ..core.flowtable import FlowTable, csr_offsets
from ..core.qos import QoSClass
from ..obs import get_tracer
from ..topology.contraction import TwoLayerTopology
from .demand import DemandMatrix, PairDemands

__all__ = [
    "TraceStyleGenerator",
    "FlatTraceGenerator",
    "generate_demands",
    "scale_to_load",
]


@dataclass(frozen=True)
class TraceStyleGenerator:
    """Parameters of the synthetic trace model.

    Attributes:
        pairs_per_endpoint: Expected endpoint pairs per (src-site endpoint);
            controls ``|I_k|`` relative to topology scale.
        max_pairs_per_site_pair: Hard cap on ``|I_k|`` to bound memory.
        volume_mu: Log-normal ``mu`` of per-pair demand volume (ln Gbps).
        volume_sigma: Log-normal ``sigma`` — heavier tail with larger sigma.
        qos_mix: Probability of each QoS class per endpoint pair, ordered
            (class1, class2, class3).
        bulk_multiplier: Volume multiplier applied to class-3 (bulk) pairs.
    """

    pairs_per_endpoint: float = 1.0
    max_pairs_per_site_pair: int = 200_000
    volume_mu: float = -4.0
    volume_sigma: float = 1.2
    qos_mix: tuple[float, float, float] = (0.15, 0.6, 0.25)
    bulk_multiplier: float = 4.0

    def __post_init__(self) -> None:
        if abs(sum(self.qos_mix) - 1.0) > 1e-9:
            raise ValueError("qos_mix must sum to 1")
        checks.positive("pairs_per_endpoint", self.pairs_per_endpoint)

    def generate(
        self, topology: TwoLayerTopology, seed: int = 0
    ) -> DemandMatrix:
        """One TE interval's endpoint-granular demand matrix.

        For each site pair in the topology's tunnel catalog, draws the
        number of endpoint pairs from the sites' endpoint counts, assigns
        random endpoints on either side, log-normal volumes and QoS labels.
        """
        rng = np.random.default_rng(seed)
        layout = topology.layout
        per_pair: list[PairDemands] = []
        qos_values = np.array(
            [QoSClass.CLASS1.value, QoSClass.CLASS2.value, QoSClass.CLASS3.value],
            dtype=np.int8,
        )
        for src_site, dst_site in topology.catalog.pairs:
            src_eps = layout.endpoint_ids(src_site)
            dst_eps = layout.endpoint_ids(dst_site)
            # Geometric mean of the two endpoint counts: robust to the
            # Weibull tail (min would starve pairs touching small sites).
            expected = self.pairs_per_endpoint * float(
                np.sqrt(len(src_eps) * len(dst_eps))
            )
            count = int(
                min(
                    self.max_pairs_per_site_pair,
                    max(1, rng.poisson(max(expected, 1.0))),
                )
            )
            volumes = rng.lognormal(
                self.volume_mu, self.volume_sigma, size=count
            )
            qos = rng.choice(qos_values, size=count, p=self.qos_mix)
            volumes[qos == QoSClass.CLASS3.value] *= self.bulk_multiplier
            per_pair.append(
                PairDemands(
                    volumes=volumes,
                    qos=qos,
                    src_endpoints=rng.integers(
                        src_eps.start, src_eps.stop, size=count
                    ),
                    dst_endpoints=rng.integers(
                        dst_eps.start, dst_eps.stop, size=count
                    ),
                )
            )
        return DemandMatrix(per_pair)


@dataclass(frozen=True)
class FlatTraceGenerator(TraceStyleGenerator):
    """Columnar variant of :class:`TraceStyleGenerator` for huge matrices.

    Same statistical model (geometric-mean pair counts, log-normal
    volumes, three-class QoS mix, heavier bulk pairs) but every draw is a
    single vectorized call over the flat flow axis instead of a Python
    loop over site pairs.  At a million endpoints the per-pair loop spends
    most of its time in ndarray bookkeeping; building the CSR columns
    directly makes generation proportional to the flow count alone.

    The draw *order* differs from :class:`TraceStyleGenerator` (one flat
    stream versus one stream segment per pair), so the two generators are
    not bit-compatible for the same seed.  Use this one for new large
    configs; existing pinned digests keep the per-pair generator.  The
    parameters, and their checks, are the parent's.
    """

    def generate(
        self, topology: TwoLayerTopology, seed: int = 0
    ) -> DemandMatrix:
        """One interval's demand matrix, built column-by-column."""
        rng = np.random.default_rng(seed)
        layout = topology.layout
        pairs = topology.catalog.pairs
        src_ranges = [layout.endpoint_ids(s) for s, _ in pairs]
        dst_ranges = [layout.endpoint_ids(d) for _, d in pairs]
        src_sizes = np.array([len(r) for r in src_ranges], dtype=np.float64)
        dst_sizes = np.array([len(r) for r in dst_ranges], dtype=np.float64)
        expected = np.maximum(
            self.pairs_per_endpoint * np.sqrt(src_sizes * dst_sizes), 1.0
        )
        counts = np.clip(
            rng.poisson(expected), 1, self.max_pairs_per_site_pair
        ).astype(np.int64)
        offsets = csr_offsets(counts)
        total = int(offsets[-1])

        volumes = rng.lognormal(
            self.volume_mu, self.volume_sigma, size=total
        )
        qos_values = np.array(
            [QoSClass.CLASS1.value, QoSClass.CLASS2.value, QoSClass.CLASS3.value],
            dtype=np.int8,
        )
        qos = rng.choice(qos_values, size=total, p=self.qos_mix)
        volumes[qos == QoSClass.CLASS3.value] *= self.bulk_multiplier

        src_lo = np.repeat(
            np.array([r.start for r in src_ranges], dtype=np.int64), counts
        )
        src_hi = np.repeat(
            np.array([r.stop for r in src_ranges], dtype=np.int64), counts
        )
        dst_lo = np.repeat(
            np.array([r.start for r in dst_ranges], dtype=np.int64), counts
        )
        dst_hi = np.repeat(
            np.array([r.stop for r in dst_ranges], dtype=np.int64), counts
        )
        src_endpoints = rng.integers(src_lo, src_hi)
        dst_endpoints = rng.integers(dst_lo, dst_hi)
        table = FlowTable(
            offsets=offsets,
            volumes=volumes,
            qos=qos,
            src_endpoints=src_endpoints,
            dst_endpoints=dst_endpoints,
        )
        return DemandMatrix.from_table(table)


def generate_demands(
    topology: TwoLayerTopology,
    seed: int = 0,
    target_load: float | None = None,
    flat: bool = False,
    **kwargs,
) -> DemandMatrix:
    """Generate a demand matrix, optionally normalized to a network load.

    Args:
        topology: The contracted two-layer topology.
        seed: RNG seed.
        target_load: If given, rescale volumes so total offered traffic is
            this multiple of the network's aggregate link capacity divided
            by the mean shortest-tunnel hop count (an estimate of carriage
            capacity).  ``target_load`` slightly above 1.0 produces the
            ~88-97% satisfied-demand regime of Figure 10.
        flat: Use the vectorized :class:`FlatTraceGenerator` (same model,
            different draw order — not digest-compatible with the
            default per-pair generator).
        **kwargs: Forwarded to the selected generator class.
    """
    cls = FlatTraceGenerator if flat else TraceStyleGenerator
    matrix = cls(**kwargs).generate(topology, seed=seed)
    if target_load is not None:
        matrix = scale_to_load(matrix, topology, target_load)
    return matrix


def scale_to_load(
    matrix: DemandMatrix, topology: TwoLayerTopology, target_load: float
) -> DemandMatrix:
    """Rescale all volumes so offered load matches ``target_load``.

    Carriage capacity is measured, not estimated: a maximum concurrent
    flow LP finds the largest ``α*`` such that ``α* ×`` (this matrix) is
    fully satisfiable over the pre-established tunnels.  Volumes are then
    multiplied by ``target_load · α*``, so ``target_load = 1`` is exactly
    satisfiable and values slightly above 1.0 land in Figure 10's 88-97%
    satisfied regime.
    """
    # Imported here: repro.traffic must not import repro.core at module
    # load (the type-only core <-> traffic cycle).
    from ..core.formulation import MaxAllFlowProblem
    from ..core.siteflow import max_concurrent_scale

    checks.positive("target_load", target_load)
    total = matrix.total_demand
    if total <= 0:
        return matrix
    with get_tracer().span("traffic.scale_to_load") as span:
        problem = MaxAllFlowProblem(topology, matrix)
        alpha = max_concurrent_scale(problem, matrix.site_demands())
        span.set_attribute("alpha", alpha)
    if not np.isfinite(alpha) or alpha <= 0:
        return matrix
    factor = target_load * alpha
    # Scale on the flat column rather than pair-by-pair: one multiply
    # over the flow axis, no per-pair rebuild at million-flow scale.
    return matrix.with_volumes(matrix.table.volumes * factor)
