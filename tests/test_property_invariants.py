"""Property-based system invariants on randomized topologies.

Hypothesis generates small random WANs and demand matrices; the
invariants the paper's formulation guarantees must hold on all of them:

* MegaTE's allocation is always feasible (constraints 1a-1c);
* satisfied volume never exceeds the LP-all fractional optimum;
* higher-priority classes never lose admission to lower ones;
* degraded (failure) topologies still yield feasible allocations.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import (
    MegaTEOptimizer,
    check_feasibility,
    solve_max_all_flow,
)
from repro.core.formulation import MaxAllFlowProblem
from repro.topology import SiteNetwork, TwoLayerTopology, build_tunnels
from repro.topology.endpoints import EndpointLayout
from repro.traffic import DemandMatrix, PairDemands


@st.composite
def random_network(draw):
    """A random connected WAN: ``(network, sites)``."""
    num_sites = draw(st.integers(4, 8))
    sites = [f"s{i}" for i in range(num_sites)]
    net = SiteNetwork(name="random")
    # Ring for connectivity...
    for i in range(num_sites):
        cap = draw(st.floats(5.0, 50.0))
        latency = draw(st.floats(1.0, 20.0))
        net.add_duplex_link(
            sites[i], sites[(i + 1) % num_sites], cap, latency_ms=latency
        )
    # ...plus a few random chords.
    num_chords = draw(st.integers(0, 3))
    for _ in range(num_chords):
        a = draw(st.integers(0, num_sites - 1))
        b = draw(st.integers(0, num_sites - 1))
        if a != b and not net.has_link(sites[a], sites[b]):
            net.add_duplex_link(
                sites[a],
                sites[b],
                draw(st.floats(5.0, 50.0)),
                latency_ms=draw(st.floats(1.0, 20.0)),
            )
    return net, sites


@st.composite
def random_scenario(draw):
    """A random connected WAN with tunnels and a demand matrix."""
    net, sites = draw(random_network())
    num_sites = len(sites)
    # Demand-carrying site pairs.
    num_pairs = draw(st.integers(1, 4))
    pairs = []
    for _ in range(num_pairs):
        a = draw(st.integers(0, num_sites - 1))
        b = draw(st.integers(0, num_sites - 1))
        if a != b and (sites[a], sites[b]) not in pairs:
            pairs.append((sites[a], sites[b]))
    if not pairs:
        pairs = [(sites[0], sites[1])]
    catalog = build_tunnels(net, pairs, tunnels_per_pair=3)
    layout = EndpointLayout({s: 4 for s in sites})
    topology = TwoLayerTopology(
        network=net, catalog=catalog, layout=layout
    )
    matrices = []
    for _ in pairs:
        n = draw(st.integers(1, 12))
        volumes = [draw(st.floats(0.1, 15.0)) for _ in range(n)]
        qos = [draw(st.integers(1, 3)) for _ in range(n)]
        matrices.append(
            PairDemands(
                volumes=np.array(volumes),
                qos=np.array(qos, dtype=np.int8),
            )
        )
    return topology, DemandMatrix(matrices)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=random_scenario())
def test_megate_always_feasible(scenario):
    topology, demands = scenario
    result = MegaTEOptimizer().solve(topology, demands)
    report = check_feasibility(topology, result)
    assert report.feasible, report.violations[:3]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=random_scenario())
def test_megate_below_lp_optimum(scenario):
    topology, demands = scenario
    result = MegaTEOptimizer().solve(topology, demands)
    problem = MaxAllFlowProblem(topology, demands)
    lp = solve_max_all_flow(problem, relaxed=True)
    assert result.satisfied_volume <= lp.satisfied_volume + 1e-6


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=random_scenario())
def test_priority_classes_never_lose_to_lower(scenario):
    """Removing lower classes never reduces what class 1 is served."""
    topology, demands = scenario
    full = MegaTEOptimizer().solve(topology, demands)
    from repro.core import QoSClass

    class1_only = demands.for_qos(QoSClass.CLASS1)
    if class1_only.total_demand == 0:
        return
    alone = MegaTEOptimizer().solve(topology, class1_only)
    served_with_competition = full.stats["satisfied_by_class"].get(
        1, 0.0
    )
    # Class 1 with competition gets what it gets alone (priority order
    # means lower classes only consume the residual).
    assert served_with_competition >= alone.satisfied_volume - 1e-6


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=random_scenario(), data=st.data())
def test_feasible_after_failures(scenario, data):
    topology, demands = scenario
    links = topology.network.links
    victim = data.draw(st.sampled_from(links))
    degraded = topology.with_failures(
        [(victim.src, victim.dst), (victim.dst, victim.src)]
    )
    result = MegaTEOptimizer().solve(degraded, demands)
    report = check_feasibility(degraded, result)
    assert report.feasible, report.violations[:3]
