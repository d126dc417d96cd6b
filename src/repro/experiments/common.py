"""Shared experiment scaffolding: scenario construction, scheme registry.

Every evaluation figure draws on the same ingredients (§6.1): a topology
from Table 2, Weibull-attached endpoints, trace-style endpoint demands
generated on TWAN and mapped onto the target topology, and the four TE
schemes.  This module builds those once so figure modules stay declarative.

Scale note: absolute endpoint counts are divided by a configurable factor
relative to the paper's testbed (Table 2's hundreds of thousands to
millions) because this harness runs on one CPU core; each figure's module
documents the scale used and EXPERIMENTS.md compares shapes, not absolute
wall-clock numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..baselines import ConventionalMCF, LPAllTE, NCFlowTE, TealTE
from ..core import MegaTEOptimizer
from ..topology import (
    SiteNetwork,
    TwoLayerTopology,
    WeibullEndpointModel,
    contract,
    topology_by_name,
)
from ..traffic import DemandMatrix, generate_demands, scale_to_load

__all__ = [
    "Scenario",
    "build_scenario",
    "study_config",
    "scale_label",
    "default_schemes",
    "sample_site_pairs",
    "PAPER_ENDPOINTS",
]

#: Table 2's full-scale endpoint counts, for reference and for reporting
#: the scale factor actually used.
PAPER_ENDPOINTS = {
    "B4": 120_000,
    "Deltacom": 1_130_000,
    "Cogentco": 1_970_000,
    "TWAN": 1_000_000,
}


def study_config(
    kind: str, defaults: dict, scenario: str, overrides: dict
) -> dict:
    """A study's config: ``defaults`` with ``overrides`` and ``scenario``."""
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {kind} config keys: {sorted(unknown)}")
    return {**defaults, **overrides, "scenario": scenario}


def scale_label(endpoints: int) -> str:
    """An endpoint count as a config-name label (``20k``, ``1m``)."""
    if endpoints and endpoints % 1_000_000 == 0:
        return f"{endpoints // 1_000_000}m"
    if endpoints and endpoints % 1_000 == 0:
        return f"{endpoints // 1_000}k"
    return str(endpoints)


@dataclass
class Scenario:
    """A ready-to-solve experiment instance.

    Attributes:
        name: Topology name.
        topology: Contracted two-layer topology.
        demands: Endpoint-granular demand matrix.
        num_endpoints: Endpoints attached in the layout.
    """

    name: str
    topology: TwoLayerTopology
    demands: DemandMatrix

    @property
    def num_endpoints(self) -> int:
        return self.topology.num_endpoints

    @property
    def num_flows(self) -> int:
        return self.demands.num_endpoint_pairs


def endpoint_sites_of(network: SiteNetwork) -> list[str]:
    """Sites eligible to host endpoints (transit-only relays excluded).

    TWAN's economy relays (``*-eco``) are pure transit; every other
    topology's sites all host endpoints.
    """
    return [s for s in network.sites if not s.endswith("-eco")]


def sample_site_pairs(
    network: SiteNetwork, num_pairs: int, seed: int = 0
) -> list[tuple[str, str]]:
    """Sample distinct ordered endpoint-site pairs (all when few enough)."""
    sites = endpoint_sites_of(network)
    all_pairs = [(a, b) for a in sites for b in sites if a != b]
    if num_pairs >= len(all_pairs):
        return all_pairs
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(all_pairs), size=num_pairs, replace=False)
    return [all_pairs[i] for i in sorted(idx)]


def build_scenario(
    topology_name: str,
    total_endpoints: int,
    num_site_pairs: int = 60,
    tunnels_per_pair: int = 3,
    flows_per_endpoint: float = 3.0,
    target_load: float = 1.0,
    seed: int = 0,
    flat: bool = False,
) -> Scenario:
    """Build a scenario the way §6.1 describes.

    Demands are generated trace-style on the topology itself with the same
    statistical model fit to TWAN (Weibull endpoint counts, log-normal
    volumes, 3-class QoS mix), then normalized to the requested network
    load.  The endpoint-pair count per site pair scales with the endpoint
    layer, so sweeping ``total_endpoints`` grows the demand matrix while
    per-flow volumes shrink (load normalization keeps the total fixed) —
    the paper's "small demands, many endpoint pairs" regime where
    FastSSP's approximation shines.

    Args:
        topology_name: ``b4``, ``deltacom``, ``cogentco`` or ``twan``.
        total_endpoints: Endpoint-layer size (the Fig. 9/10 x-axis).
        num_site_pairs: Demand-carrying site pairs to sample.
        tunnels_per_pair: Pre-established tunnels per pair.
        flows_per_endpoint: Mean endpoint pairs each (smaller-side)
            endpoint contributes on a site pair.
        target_load: Offered load relative to the matrix's measured
            carriage capacity (max concurrent flow).
        seed: Master seed.
        flat: Generate demands with the vectorized columnar
            :class:`~repro.traffic.generator.FlatTraceGenerator` — the
            only practical option at million-endpoint scale (different
            draw order, so not digest-compatible with the default).
    """
    network = topology_by_name(topology_name)
    pairs = sample_site_pairs(network, num_site_pairs, seed=seed)
    eligible = endpoint_sites_of(network)
    topology = contract(
        network,
        site_pairs=pairs,
        tunnels_per_pair=tunnels_per_pair,
        endpoint_model=WeibullEndpointModel(),
        total_endpoints=max(total_endpoints, len(eligible)),
        endpoint_sites=eligible,
        seed=seed,
    )
    demands = generate_demands(
        topology,
        seed=seed + 1,
        pairs_per_endpoint=flows_per_endpoint,
        max_pairs_per_site_pair=500_000,
        flat=flat,
    )
    demands = scale_to_load(demands, topology, target_load)
    return Scenario(name=network.name, topology=topology, demands=demands)


def default_schemes(
    include_conventional: bool = False,
) -> dict[str, Callable[[], object]]:
    """Factories for the §6 comparison schemes (fresh instance per run)."""
    schemes: dict[str, Callable[[], object]] = {
        "LP-all": LPAllTE,
        "NCFlow": NCFlowTE,
        "TEAL": TealTE,
        "MegaTE": MegaTEOptimizer,
    }
    if include_conventional:
        schemes["Conventional-MCF"] = ConventionalMCF
    return schemes
