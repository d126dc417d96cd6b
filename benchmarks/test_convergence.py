"""Eventual-consistency convergence (§3.2): how fast configs propagate.

After a publish, pull-based agents converge within one poll period, with
mean delay of half a period.  This bench measures the distribution over a
simulated fleet against a real database, plus the analytic model.
"""

from __future__ import annotations

import numpy as np

from repro.controlplane import (
    EndpointAgent,
    EndpointConfig,
    TEDatabase,
    analytic_convergence,
    config_key,
    simulate_convergence,
    spread_offsets,
)


def test_convergence_distribution(benchmark):
    def run():
        rows = []
        for period in (5.0, 10.0, 30.0):
            offsets = spread_offsets(5_000, window_s=period, seed=1)
            report = analytic_convergence(
                publish_time=100.0, offsets=offsets, poll_period_s=period
            )
            rows.append(
                (
                    period,
                    report.mean_delay_s,
                    report.convergence_time_s,
                    report.fraction_converged_by(period / 2),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\nConvergence vs poll period (5,000 agents):")
    print(f"  {'period':>7s} {'mean delay':>11s} {'full conv.':>11s} "
          f"{'by half-period':>15s}")
    for period, mean_delay, full, by_half in rows:
        print(
            f"  {period:6.0f}s {mean_delay:10.2f}s {full:10.2f}s "
            f"{by_half:15.2f}"
        )
        benchmark.extra_info[f"mean_delay_p{period:.0f}"] = mean_delay
    for period, mean_delay, full, by_half in rows:
        assert mean_delay <= period / 2 + 0.5
        assert full <= period + 1e-9
        assert 0.4 <= by_half <= 0.6


def test_convergence_against_real_database(benchmark):
    """Event simulation over real agents and a real TE database."""
    database = TEDatabase(num_shards=2, enforce_capacity=False)
    for i in range(300):
        database.put(
            config_key(i),
            EndpointConfig(
                endpoint_id=i, version=1, paths={0: ("a", "b")}
            ),
            now=0.0,
        )
    database.commit_version(1, now=0.0)
    offsets = spread_offsets(300, window_s=10.0, seed=2)

    def run():
        agents = [
            EndpointAgent(
                endpoint_id=i,
                poll_period_s=10.0,
                poll_offset_s=float(off),
            )
            for i, off in enumerate(offsets)
        ]
        return simulate_convergence(
            agents, database, publish_time=0.0, tick_s=0.5
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nSimulated fleet of {len(offsets)}: mean delay "
        f"{report.mean_delay_s:.2f}s, converged in "
        f"{report.convergence_time_s:.2f}s, "
        f"{database.total_queries()} DB queries"
    )
    assert np.isfinite(report.update_delays_s).all()
    assert report.convergence_time_s <= 10.0 + 0.5
