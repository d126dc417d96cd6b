"""Price-guided stage 1 is exact: hint in, an optimum of the whole LP out.

Whatever the hint — none, the true previous prices, stale, wrong or
malformed ones — :meth:`SiteFlowSolver.solve_priced` must return an
optimum of the *whole* MaxSiteFlow LP, and the prices it returns must
certify that by KKT.  The property drives the reduction on random small
WANs (with its engagement floor lowered so it runs at all there); the
TWAN tests drive it through the optimizer at 6 000 site pairs, where
every class carries far more than the 512 demand-carrying pairs the
guided path needs, and check that the 60-pair scenarios the benchmark
runs never reach it.  A hint whose own decisions already pass that
check is returned ``"certified"`` without an LP; :func:`_hint_certifies`
is the test's independent oracle of when.
"""

from __future__ import annotations

import hashlib
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.core import LPSolveError, MegaTEOptimizer, check_feasibility
from repro.core import siteflow
from repro.core.siteflow import LinkPrices, SiteFlowSolver
from repro.topology import TwoLayerTopology, build_tunnels
from repro.topology.endpoints import EndpointLayout
from repro.topology.failures import sample_failure_scenarios
from repro.traffic import DiurnalSequence

from test_property_invariants import random_network

HINT_KINDS = (
    "none", "true", "zeros", "random", "scaled", "zeroed", "malformed"
)  # fmt: skip


@st.composite
def class_instance(draw):
    """A random WAN's solver plus one class's LP data and a hint recipe."""
    net, sites = draw(random_network())
    pairs = [(a, b) for a in sites for b in sites if a != b]
    pairs = draw(
        st.lists(st.sampled_from(pairs), min_size=6, max_size=20, unique=True)
    )
    topology = TwoLayerTopology(
        network=net,
        catalog=build_tunnels(net, pairs, tunnels_per_pair=3),
        layout=EndpointLayout({s: 1 for s in sites}),
    )
    solver = SiteFlowSolver(topology)
    demands = np.array(
        [
            draw(st.sampled_from([0.0, 1.0, 1.0, 1.0])) * draw(st.floats(0.1, 40.0))
            for _ in pairs
        ]
    )
    residual = solver.capacities * np.array(
        [
            # Exhausted, or a share well above HiGHS's 1e-7 tolerances.
            draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
            for _ in range(solver.capacities.size)
        ]
    )
    # Latency weights, or all-equal ones (every tunnel of a pair ties:
    # the degenerate face the bulk class's cost weights produce).
    weights = (
        solver.tunnel_weights
        if draw(st.booleans())
        else np.ones(solver.num_tunnel_vars)
    )
    return topology, solver, demands, residual, weights


def _make_hint(kind, rng, solver, demands, residual, weights, eps):
    def prices_of(d):
        return solver.solve_priced(d, residual, weights, eps).prices

    own = weakref.ref(solver)
    size = solver.capacities.size
    if kind == "none":
        return None
    if kind == "true":
        return prices_of(demands)
    if kind == "zeros":
        return LinkPrices(np.zeros(size), own)
    if kind == "random":
        return LinkPrices(rng.uniform(0.0, 1.5, size), own)
    if kind == "scaled":
        return prices_of(demands * rng.uniform(0.3, 3.0))
    if kind == "zeroed":
        values = prices_of(demands).values.copy()
        priced = np.flatnonzero(values > 0)
        if priced.size:
            values[rng.choice(priced)] = 0.0
        return LinkPrices(values, own)
    good = prices_of(demands).values
    return [
        LinkPrices(good[:-1], own),
        LinkPrices(np.append(good[:-1], np.nan), own),
        LinkPrices(np.append(good[:-1], np.inf), own),
        LinkPrices(np.append(good[:-1], -1.0), own),
        LinkPrices(good, weakref.ref(SiteFlowSolver.__new__(SiteFlowSolver))),
        LinkPrices([[1.0, 2.0], [3.0]], own),
        good,
    ][rng.integers(7)]


def _assert_optimal(solver, sol, ref, demands, residual, profit):
    """Feasible, same objective as the whole LP, and KKT-certified by
    the returned ``(x, λ)`` alone."""
    x, lam = sol.x, sol.prices.values
    scale = max(1.0, float(demands.sum()))
    offsets = solver.tunnel_offsets[:-1]
    carried = np.add.reduceat(x, offsets)
    load = solver.link_tunnel_matrix @ x
    assert np.all(x >= 0)
    assert np.all(carried <= demands + 1e-9 * scale)
    assert np.all(load <= residual + 1e-9 * scale)
    assert profit @ x == pytest.approx(profit @ ref.x, rel=1e-9, abs=1e-9)
    # Dual feasibility holds by construction of μ; λ must be a price.
    assert np.all(lam >= 0)
    rho = profit - solver.link_tunnel_matrix.T @ lam
    mu = np.maximum(np.maximum.reduceat(rho, offsets), 0.0)
    pair_of_col = np.repeat(
        np.arange(solver.num_pairs), np.diff(solver.tunnel_offsets)
    )
    # Complementary slackness, all three families.
    used = x > 1e-7 * scale
    assert np.all(rho[used] >= mu[pair_of_col[used]] - 1e-7)
    assert np.all(np.abs(carried - demands)[mu > 1e-7] <= 1e-7 * scale)
    assert np.all(np.abs(load - residual)[lam > 1e-7] <= 1e-7 * scale)


def _hinted_decisions(solver, lam, demands, profit):
    """Pair by pair: the flat ``x`` of the hint's own decisions, and
    whether every demand-carrying pair's decision is clear-cut (one best
    tunnel, its reduced profit away from 0)."""
    rho = profit - solver.link_tunnel_matrix.T.tocsr() @ lam
    offsets = solver.tunnel_offsets
    x = np.zeros(solver.num_tunnel_vars)
    clear = True
    for k in range(solver.num_pairs):
        lo, hi = offsets[k], offsets[k + 1]
        if demands[k] <= 0 or hi == lo:
            continue
        ranked = np.sort(rho[lo:hi])[::-1]
        clear &= abs(ranked[0]) > 1e-6 and (
            ranked.size == 1 or ranked[1] < ranked[0] - 1e-6
        )
        if ranked[0] > 0:
            x[lo + int(np.argmax(rho[lo:hi]))] = demands[k]
    return x, clear


def _hint_certifies(solver, lam, demands, caps, profit) -> bool:
    """The certificate's condition, computed apart from the solver: the
    hinted decisions overload no link and fill every priced link."""
    x, _ = _hinted_decisions(solver, lam, demands, profit)
    left = np.maximum(caps, 0.0) - solver.link_tunnel_matrix @ x
    return bool(np.all(left >= 0) and np.all(left[lam > 0] == 0))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    instance=class_instance(),
    kind=st.sampled_from(HINT_KINDS),
    floor=st.integers(1, 3),
    seed=st.integers(0, 2**31),
)
def test_any_hint_yields_a_certified_optimum(instance, kind, floor, seed):
    _, solver, demands, residual, weights = instance
    rng = np.random.default_rng(seed)
    eps = 0.1 / float(weights.max())
    profit = 1.0 - eps * weights
    ref = solver.solve_priced(demands, residual, weights, eps)
    assert ref.outcome == "whole" and not ref.warm_start
    hint = _make_hint(kind, rng, solver, demands, residual, weights, eps)
    # Engage the reduction at this size: "too small" only below a few
    # active pairs, never "too many free".
    with mock.patch.multiple(
        siteflow, _MIN_ACTIVE_PAIRS=floor, _WHOLE_LP_ABOVE=1.0
    ):
        sol = solver.solve_priced(demands, residual, weights, eps, hint=hint)
    if kind in ("none", "malformed"):
        assert sol.outcome == "whole"
        assert np.array_equal(sol.x, ref.x)
    event(sol.outcome.partition(":")[0])
    assert sol.warm_start == (sol.outcome in ("guided", "certified"))
    assert 0 <= sol.pairs_moved <= sol.pairs_free
    _assert_optimal(solver, sol, ref, demands, residual, profit)
    _assert_optimal(solver, ref, ref, demands, residual, profit)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    instance=class_instance(),
    kind=st.sampled_from(HINT_KINDS[1:-1]),
    ample=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_a_hint_certifies_exactly_when_its_decisions_are_optimal(
    instance, kind, ample, seed
):
    """``"certified"`` iff the hinted decisions overload nothing and
    fill every priced link; then no LP runs, the objective is the whole
    LP's, and ``x`` is the whole LP's own when every decision is
    clear-cut (the whole LP then has that one optimum).  ``ample``
    instances (full capacities, a twentieth of the demand) are the
    uncongested classes where certificates are common."""
    _, solver, demands, residual, weights = instance
    if ample:
        residual, demands = solver.capacities.copy(), demands / 20.0
    rng = np.random.default_rng(seed)
    eps = 0.1 / float(weights.max())
    profit = 1.0 - eps * weights
    ref = solver.solve_priced(demands, residual, weights, eps)
    hint = _make_hint(kind, rng, solver, demands, residual, weights, eps)
    calls = []
    solve_lp = siteflow.solve_lp

    def counted(*args):
        calls.append(args)
        return solve_lp(*args)

    with mock.patch.multiple(
        siteflow, _MIN_ACTIVE_PAIRS=1, _WHOLE_LP_ABOVE=1.0, solve_lp=counted
    ):
        sol = solver.solve_priced(demands, residual, weights, eps, hint=hint)
    num_active = int(
        np.count_nonzero((demands > 0) & (np.diff(solver.tunnel_offsets) > 0))
    )
    if num_active == 0:
        assert sol.outcome == "whole"
        return
    certifies = _hint_certifies(solver, hint.values, demands, residual, profit)
    event(f"{kind}: {'certified' if certifies else 'not certified'}")
    assert (sol.outcome == "certified") == certifies
    _assert_optimal(solver, sol, ref, demands, residual, profit)
    if not certifies:
        return
    assert calls == []
    assert (sol.pairs_fixed, sol.pairs_free, sol.pairs_moved, sol.rounds) == (
        num_active, 0, 0, 0
    )
    assert sol.warm_start
    assert np.array_equal(sol.prices.values, hint.values)
    x, clear = _hinted_decisions(solver, hint.values, demands, profit)
    assert np.array_equal(sol.x, x)
    if clear:
        event("clear-cut")
        assert np.array_equal(sol.x, ref.x)


def test_failures_are_typed(tiny_topology, monkeypatch):
    """A restricted LP HiGHS does not solve falls back to the whole LP
    with the reason recorded; a whole-LP failure raises ``LPSolveError``
    (a ``RuntimeError``) carrying HiGHS's status and message.  The demand
    overloads the short tunnel, so its hint cannot certify."""
    solver = SiteFlowSolver(tiny_topology)
    demands = np.array([16.0])
    ref = solver.solve_priced(demands)
    solve_lp = siteflow.solve_lp

    def failing(cost, a_ub, b_ub):
        if a_ub is solver.constraint_matrix:
            return solve_lp(cost, a_ub, b_ub)  # the whole LP still solves
        raise LPSolveError(4, "numerical difficulties")

    monkeypatch.setattr(siteflow, "solve_lp", failing)
    with mock.patch.multiple(
        siteflow, _MIN_ACTIVE_PAIRS=1, _WHOLE_LP_ABOVE=1.0
    ):
        sol = solver.solve_priced(demands, hint=ref.prices)
    assert sol.outcome == "fallback:lp_status_4"
    assert np.array_equal(sol.x, ref.x)

    from repro.core import lp_backend

    def unsolved(*args, **kwargs):
        return mock.Mock(success=False, status=2, message="infeasible")

    monkeypatch.setattr(lp_backend, "linprog", unsolved)
    with pytest.raises(RuntimeError) as caught:
        solver.solve_priced(demands)
    assert isinstance(caught.value, LPSolveError)
    assert (caught.value.status, caught.value.message) == (2, "infeasible")


@pytest.mark.parametrize(
    "hint_demand", [None, 16.0, 6.0], ids=["whole", "guided", "certified"]
)
@pytest.mark.parametrize(
    "demand, capacity, weight, epsilon, argument",
    [
        (np.nan, 10.0, 5.0, None, "site_demands"),
        (np.inf, 10.0, 5.0, None, "site_demands"),
        (-np.inf, 10.0, 5.0, None, "site_demands"),
        (6.0, np.nan, 5.0, None, "capacities"),
        (6.0, np.inf, 5.0, None, "capacities"),
        (6.0, 10.0, np.nan, None, "tunnel_weights"),
        (6.0, 10.0, np.inf, None, "tunnel_weights"),
        (6.0, 10.0, 5.0, np.nan, "epsilon"),
    ],
    ids=[
        "nan-demand", "inf-demand", "neg-inf-demand", "nan-capacity",
        "inf-capacity", "nan-weight", "inf-weight", "nan-epsilon",
    ],
)  # fmt: skip
def test_non_finite_inputs_are_typed(
    tiny_topology,
    monkeypatch,
    hint_demand,
    demand,
    capacity,
    weight,
    epsilon,
    argument,
):
    """A NaN or infinite demand, capacity or tunnel weight, or a NaN ε,
    is a ``ValueError`` naming the argument on every stage-1 path —
    whole, guided (the hint's priced link is not full) and certified
    (all-zero prices the demand fits) — before any LP runs."""
    solver = SiteFlowSolver(tiny_topology)
    hint = (
        None
        if hint_demand is None
        else solver.solve_priced(np.array([hint_demand])).prices
    )
    caps = solver.capacities.copy()
    caps[0] = capacity
    weights = solver.tunnel_weights.copy()
    weights[0] = weight

    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran on non-finite input")

    monkeypatch.setattr(siteflow, "solve_lp", no_lp)
    with mock.patch.multiple(
        siteflow, _MIN_ACTIVE_PAIRS=1, _WHOLE_LP_ABOVE=1.0
    ):
        with pytest.raises(ValueError, match=argument):
            solver.solve_priced(
                np.array([demand]), caps, weights, epsilon, hint=hint
            )


def test_the_tiny_hints_take_their_paths(tiny_topology):
    """The three hints of the test above, fed valid input, do take the
    path each is named for."""
    solver = SiteFlowSolver(tiny_topology)
    with mock.patch.multiple(
        siteflow, _MIN_ACTIVE_PAIRS=1, _WHOLE_LP_ABOVE=1.0
    ):
        for hint_demand, outcome in ((16.0, "guided"), (6.0, "certified")):
            hint = solver.solve_priced(np.array([hint_demand])).prices
            sol = solver.solve_priced(np.array([6.0]), hint=hint)
            assert sol.outcome == outcome
            assert np.array_equal(
                sol.x, solver.solve_priced(np.array([6.0])).x
            )


# -- through the optimizer, where the shipped thresholds engage -------------


def _digest(results) -> str:
    sha = hashlib.sha256()
    for result in results:
        sha.update(
            np.ascontiguousarray(result.assignment.assigned_tunnel).tobytes()
        )
    return sha.hexdigest()


def _record_class_solves(monkeypatch, shadow: bool) -> list[dict]:
    """Log every class-solve with whether it had a usable hint, whether
    that hint certifies (decided by :func:`_hint_certifies` when the
    solve is made: the optimizer reuses the residual array), the columns
    its restricted LPs were handed and, when ``shadow``, a hint-less
    solve of the same LP."""
    log: list[dict] = []
    real = SiteFlowSolver.solve_priced
    columns: list[int] = []
    solve_lp = siteflow.solve_lp

    def counted(cost, a_ub, b_ub):
        columns.append(a_ub.shape[1])
        return solve_lp(cost, a_ub, b_ub)

    def record(
        self, demands, capacities=None, tunnel_weights=None, epsilon=None,
        hint=None,
    ):  # fmt: skip
        weights = (
            self.tunnel_weights if tunnel_weights is None else tunnel_weights
        )
        if epsilon is None:
            epsilon = 0.1 / float(weights.max())
        caps = self.capacities if capacities is None else capacities
        profit = 1.0 - epsilon * weights
        # Another solver's prices are no hint at all.
        hinted = isinstance(hint, LinkPrices) and hint.owner() is self
        certifies = hinted and _hint_certifies(
            self, hint.values, demands, caps, profit
        )
        columns.clear()
        sol = real(self, demands, capacities, tunnel_weights, epsilon, hint=hint)
        handed = sum(columns)
        ref = (
            real(self, demands, capacities, tunnel_weights, epsilon)
            if shadow
            else None
        )
        log.append(
            dict(sol=sol, ref=ref, profit=profit, hinted=hinted,
                 certifies=certifies, handed=handed,
                 whole_columns=self.num_tunnel_vars)
        )  # fmt: skip
        return sol

    monkeypatch.setattr(siteflow, "solve_lp", counted)
    monkeypatch.setattr(SiteFlowSolver, "solve_priced", record)
    return log


@pytest.fixture()
def shadowed(monkeypatch):
    """Every class-solve, beside a hint-less solve of the same LP."""
    return _record_class_solves(monkeypatch, shadow=True)


@pytest.fixture()
def class_solves(monkeypatch):
    """Every class-solve, with whether its hint certifies."""
    return _record_class_solves(monkeypatch, shadow=False)


def _assert_outcome(entry) -> None:
    """Hint-less: whole.  Hinted: certified exactly where the hint's
    decisions pass the check (no LP, nothing free), else guided — within
    the cost bound: the restricted LPs are handed at most the whole LP's
    columns, and only a free pair can end off its hinted decision."""
    sol = entry["sol"]
    if not entry["hinted"]:
        assert sol.outcome == "whole"
    elif entry["certifies"]:
        assert (sol.outcome, sol.rounds, sol.pairs_free) == ("certified", 0, 0)
        assert sol.pairs_moved == entry["handed"] == 0
    else:
        assert sol.outcome == "guided"
        assert sol.pairs_fixed >= sol.pairs_free
        assert sol.rounds >= 1
        assert 0 < entry["handed"] <= entry["whole_columns"]
        assert 0 <= sol.pairs_moved <= sol.pairs_free


def test_diurnal_intervals_take_the_guided_path(twan_6000_scenario, shadowed):
    topology, base = twan_6000_scenario
    sequence = DiurnalSequence(base=base, seed=5)
    optimizer = MegaTEOptimizer()
    for interval in range(4):
        result = optimizer.solve(topology, sequence.matrix(interval))
        assert check_feasibility(topology, result).feasible
        records = result.stats["stage1"]
        assert sorted(records) == [1, 2, 3]
        assert result.stats["lp_solves"] == 3
        assert result.stats["lp_warm_start"] == (3 if interval else 0)
        for record in records.values():
            if interval == 0:
                assert record["outcome"] == "whole"
                assert record["pairs_fixed"] == 0
            else:
                assert record["outcome"] in ("certified", "guided")
    assert len(shadowed) == 12
    for entry in shadowed:
        _assert_outcome(entry)
        sol, ref, profit = entry["sol"], entry["ref"], entry["profit"]
        assert profit @ sol.x == pytest.approx(profit @ ref.x, rel=1e-9)
    # Both warm paths ran: the uncongested QoS1 certifies every warm
    # interval, the congested classes need their restricted LPs.
    outcomes = [entry["sol"].outcome for entry in shadowed[3:]]
    assert outcomes == ["certified", "guided", "guided"] * 3


def test_two_optimizers_fed_the_same_sequence_agree(twan_6000_scenario):
    """The prices live on the optimizer: a second optimizer sharing the
    cached solver neither sees nor disturbs the first one's."""
    topology, base = twan_6000_scenario
    sequence = DiurnalSequence(base=base, seed=9)
    first, second = MegaTEOptimizer(), MegaTEOptimizer()
    a, b = [], []
    for interval in range(3):
        demands = sequence.matrix(interval)
        a.append(first.solve(topology, demands))
        b.append(second.solve(topology, demands))
    assert a[0].stats["stage1"][2]["outcome"] == "whole"
    assert b[0].stats["stage1"][2]["outcome"] == "whole"
    assert a[2].stats["stage1"][2]["outcome"] == "guided"
    assert _digest(a) == _digest(b)
    # Dropping the carried state makes the next solve a fresh first one.
    first.reset_incremental_state()
    again = first.solve(topology, sequence.matrix(0))
    assert again.stats["stage1"][2]["outcome"] == "whole"
    assert _digest([again]) == _digest(a[:1])


def test_topology_swap_never_crosses_prices(twan_6000_scenario, class_solves):
    """healthy → cut → healthy: the cut topology's solver starts from no
    hint, and the healthy one resumes from its own prices."""
    healthy, base = twan_6000_scenario
    (cut_links,) = sample_failure_scenarios(
        healthy.network, 2, num_scenarios=1, seed=42
    )
    cut = healthy.with_failures(cut_links.failed_links)
    sequence = DiurnalSequence(base=base, seed=5)
    optimizer = MegaTEOptimizer()
    outcomes = [
        {
            record["outcome"]
            for record in optimizer.solve(topology, sequence.matrix(interval))
            .stats["stage1"]
            .values()
        }
        for interval, topology in enumerate((healthy, cut, healthy, cut))
    ]
    assert outcomes[0] == outcomes[1] == {"whole"}
    assert outcomes[2] == outcomes[3] == {"certified", "guided"}
    assert len(class_solves) == 12
    for entry in class_solves:
        _assert_outcome(entry)
    # And at the solver's own door: another solver's prices are ignored.
    demands = np.full(healthy.catalog.num_pairs, 0.01)
    theirs = SiteFlowSolver.for_topology(healthy).solve_priced(demands).prices
    sol = SiteFlowSolver.for_topology(cut).solve_priced(demands, hint=theirs)
    assert sol.outcome == "whole"


def test_outcomes_are_exported(twan_6000_scenario, class_solves):
    """Spans and the registry say what each class-solve did."""
    from repro import obs

    topology, base = twan_6000_scenario
    sequence = DiurnalSequence(base=base, seed=5)
    was = obs.telemetry_enabled()
    try:
        obs.set_enabled(True)
        obs.reset()
        optimizer = MegaTEOptimizer()
        for interval in range(2):
            optimizer.solve(topology, sequence.matrix(interval))
        spans = [
            span
            for span in obs.get_tracer().finished_spans()
            if span.name == "siteflow.lp_solve"
        ]
        counter = obs.get_registry().counter(
            "megate_lp_guided_total", labelnames=("outcome",)
        )
        counts = {
            labels: series.value for labels, series in counter.series()
        }
    finally:
        obs.set_enabled(was)
        obs.reset()
    assert [span.attributes["outcome"] for span in spans] == (
        ["whole"] * 3 + ["certified", "guided", "guided"]
    )
    for span, entry in zip(spans, class_solves, strict=True):
        _assert_outcome(entry)
        sol = entry["sol"]
        for key in (
            "outcome", "pairs_fixed", "pairs_free", "pairs_moved", "rounds"
        ):  # fmt: skip
            assert span.attributes[key] == getattr(sol, key)
    assert counts == {("whole",): 3.0, ("certified",): 1.0, ("guided",): 2.0}


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 2**31), start=st.integers(0, 40))
def test_guided_objectives_equal_the_whole_lps(
    twan_6000_scenario, seed, start
):
    """Any diurnal sequence, any hour: a guided class-solve reaches the
    whole LP's objective (to 1e-9, relative) inside the cost bound, and
    only its free pairs end off their hinted decisions."""
    topology, base = twan_6000_scenario
    sequence = DiurnalSequence(base=base, seed=seed)
    optimizer = MegaTEOptimizer()
    with pytest.MonkeyPatch.context() as patch:
        log = _record_class_solves(patch, shadow=True)
        for interval in range(start, start + 2):
            optimizer.solve(topology, sequence.matrix(interval))
    assert [entry["hinted"] for entry in log] == [False] * 3 + [True] * 3
    event(" ".join(entry["sol"].outcome for entry in log[3:]))
    for entry in log:
        _assert_outcome(entry)
        sol, ref, profit = entry["sol"], entry["ref"], entry["profit"]
        assert profit @ sol.x == pytest.approx(profit @ ref.x, rel=1e-9)


@pytest.mark.parametrize(
    "incremental", [False, True], ids=["twan-1m", "twan-200k-churn"]
)
def test_sixty_pair_workloads_stay_whole(incremental):
    """The benchmark's 60-pair workloads, carried prices and all, never
    reach the guided path: every class is solved whole, so their
    assignments stay the whole LP's.  The churn shape swaps in two cut
    topologies and patches deltas, as ``twan-200k-churn`` does."""
    from repro.experiments.common import build_scenario

    scenario = build_scenario(
        "twan",
        total_endpoints=20_000,
        num_site_pairs=60,
        target_load=1.6,
        seed=42,
        flat=True,
    )
    healthy = scenario.topology
    topologies = [healthy]
    # healthy, cut A, healthy, cut B — three intervals each.
    variants = (0,)
    if incremental:
        topologies += [
            healthy.with_failures(cut.failed_links)
            for cut in sample_failure_scenarios(
                healthy.network, 2, num_scenarios=2, seed=42
            )
        ]
        variants = (0, 1, 0, 2)
    optimizer = MegaTEOptimizer(
        incremental=incremental,
        delta_threshold=1.5 if incremental else 0.0,
        lp_backend="scipy",
        ssp_backend="numpy",
        shard_workers=0,
    )
    sequence = DiurnalSequence(base=scenario.demands, seed=7)
    outcomes = []
    for interval in range(12):
        topology = topologies[variants[interval // 3 % len(variants)]]
        result = optimizer.solve(topology, sequence.matrix(interval))
        assert result.stats["lp_warm_start"] == 0
        outcomes += [r["outcome"] for r in result.stats["stage1"].values()]
    assert outcomes and set(outcomes) == {"whole"}
