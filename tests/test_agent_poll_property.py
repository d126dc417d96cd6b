"""Property test: the one-query agent against the two-query agent it
replaced.

``EndpointAgent`` polls with one ``check_version`` to its config key's
shard and pulls only when a new TE version was committed *and* its own
key moved.  :class:`TwoQueryAgent` below is the protocol that replaced —
read the global version key, pull the config whenever it moved — kept
here as the oracle.  Over random publish sequences on a fault-free store
(healthy and cut catalogs, delta publish on and off, endpoints losing
every flow and getting one back, an endpoint that never sources any,
polls landing between a publish's config writes and its commit) both
fleets must hold the same ``paths`` and ``local_version`` after every
pass, and the new one must never ask the store for more.  It runs with
the metrics registry on and off and with a finite and an infinite
staleness bound: a poll notes its outcome only when one of those can
record it, and that must not change what the agent does.

The scheduled chaos CI lane raises the example budget through
``CHAOS_EXAMPLES``.
"""

from __future__ import annotations

import math
import os

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.controlplane import (
    EndpointAgent,
    TEController,
    TEDatabase,
    VERSION_KEY,
    config_key,
)
from test_publish_property import TOPOLOGIES, _interval, _result

EXAMPLES = int(os.environ.get("CHAOS_EXAMPLES", "100"))

#: The drawn flows' sources are 0..4; endpoint 5 never has a config.
FLEET = range(6)


class TwoQueryAgent:
    """The agent protocol the one-query poll replaced."""

    def __init__(self, endpoint_id: int) -> None:
        self.key = config_key(endpoint_id)
        self.local_version = 0
        self.paths: dict[int, tuple[str, ...]] = {}
        self.installs = 0

    def poll(self, database: TEDatabase, now: float) -> bool:
        remote = database.get_version(VERSION_KEY, now=now)
        if remote == self.local_version:
            return False
        try:
            config, _ = database.get(self.key, now=now)
        except KeyError:
            self.local_version = remote
            return False
        self.paths = dict(config.paths)
        self.local_version = remote
        self.installs += 1
        return True


class PollingMidPublish(TEDatabase):
    """A TE database that lets callers in between a publish's config
    writes and its commit."""

    def __init__(self) -> None:
        super().__init__(num_shards=3, enforce_capacity=False)
        self.before_commit = lambda: None

    def commit_version(self, version, now=0.0):
        self.before_commit()
        super().commit_version(version, now=now)


@settings(max_examples=EXAMPLES, deadline=None)
@given(
    st.lists(
        st.tuples(_interval, st.sets(st.sampled_from(FLEET))),
        min_size=1,
        max_size=8,
    ),
    st.booleans(),
    st.booleans(),
    st.sampled_from([math.inf, 100.0]),
)
def test_one_query_agent_matches_two_query_agent(
    epochs, delta_publish, registry_enabled, max_staleness_s
):
    was = obs.telemetry_enabled()
    obs.set_enabled(registry_enabled)
    obs.reset()
    try:
        _check_against_two_query_agents(
            epochs, delta_publish, registry_enabled, max_staleness_s
        )
    finally:
        obs.set_enabled(was)
        obs.reset()


def _check_against_two_query_agents(
    epochs, delta_publish, registry_enabled, max_staleness_s
):
    database = PollingMidPublish()
    controller = TEController(database, delta_publish=delta_publish)
    fleet = [
        EndpointAgent(endpoint_id=e, max_staleness_s=max_staleness_s)
        for e in FLEET
    ]
    reference = [TwoQueryAgent(e) for e in FLEET]
    queries = {"new": 0, "reference": 0}
    installs = polls = 0

    def poll(endpoints, now: float) -> None:
        nonlocal installs, polls
        for e in endpoints:
            before = database.total_queries()
            installs += fleet[e].poll(database, now)
            polls += 1
            queries["new"] += database.total_queries() - before
            before = database.total_queries()
            reference[e].poll(database, now)
            queries["reference"] += database.total_queries() - before
        for agent, ref in zip(fleet, reference):
            assert agent.paths == ref.paths
            assert agent.local_version == ref.local_version

    for n, ((variant, flows, has_endpoints), early) in enumerate(epochs):
        now = 300.0 * n
        database.before_commit = lambda: poll(sorted(early), now + 0.5)
        version = controller.publish(
            TOPOLOGIES[variant], _result(variant, flows, has_endpoints), now=now
        )
        poll(FLEET, now + 1.0)
        assert all(agent.local_version == version for agent in fleet)
        for agent in fleet:
            try:
                stored = database.get(config_key(agent.endpoint_id))[0].paths
            except KeyError:
                stored = {}
            assert agent.paths == stored
    assert queries["new"] <= queries["reference"]
    assert installs <= sum(ref.installs for ref in reference)
    assert not any(agent.version_regressions for agent in fleet)
    series = obs.get_registry().snapshot().get("megate_agent_polls_total")
    noted = sum(e["state"]["value"] for e in series["series"]) if series else 0
    assert noted == (polls if registry_enabled else 0)
