"""Batched fact lookups: monitor ``status`` and broker ``performance``.

Matchmaking and scheduling read every candidate's facts in one request
per service edge.  The batched replies must equal the single-name form
entry by entry, a decision must send a fixed number of lookups whatever
its candidate count, and the scheduler's fact cache must stay exact
per container.
"""

from collections import Counter

import pytest

from repro.errors import ServiceError
from repro.grid.messages import Performative
from repro.services import standard_environment
from tests.services.conftest import drive, synthetic_services


def requests_by_action(env, sender: str) -> Counter:
    return Counter(
        e.message.action
        for e in env.trace.events()
        if e.message.sender == sender
        and e.message.performative is Performative.REQUEST
    )


def request_contents(env, sender: str, action: str) -> list[dict]:
    return [
        e.message.content
        for e in env.trace.events()
        if e.message.sender == sender
        and e.message.action == action
        and e.message.performative is Performative.REQUEST
    ]


class TestBatchedStatus:
    def test_entries_equal_single_form(self, grid):
        env, services, fleet = grid
        # A crashed container whose node is down.
        fleet[0].crash()
        fleet[0].node.up = False
        names = ["ac2", "brokerage", "zz", "ac1"]
        user = services.coordination

        def run():
            batch = yield from user.call("monitoring", "status", {"agents": names})
            singles = []
            for name in names:
                single = yield from user.call("monitoring", "status", {"agent": name})
                singles.append(single)
            return batch, singles

        batch, singles = drive(env, user, run)
        assert list(batch) == ["statuses"]
        assert batch["statuses"] == singles
        container, core, unknown, crashed = singles
        assert container["known"] and container["alive"]
        assert container["node"] == "node2"
        assert core["known"] and "node" not in core
        assert unknown == {"known": False, "alive": False}
        assert crashed["alive"] is False and crashed["node_up"] is False

    def test_empty_batch(self, grid):
        env, services, fleet = grid
        user = services.coordination
        reply = drive(
            env, user, lambda: user.call("monitoring", "status", {"agents": []})
        )
        assert reply == {"statuses": []}


class TestBatchedPerformance:
    def test_entries_equal_single_form(self, grid):
        env, services, fleet = grid
        services.brokerage.record("POD", "ac3", 4.0, success=True)
        services.brokerage.record("POD", "ac3", 0.0, success=False)
        user = services.coordination
        containers = ["ac3", "ac1"]  # recorded pair, unrecorded pair

        def run():
            batch = yield from user.call(
                "brokerage",
                "performance",
                {"service": "POD", "containers": containers},
            )
            singles = []
            for container in containers:
                single = yield from user.call(
                    "brokerage",
                    "performance",
                    {"service": "POD", "container": container},
                )
                singles.append(single)
            return batch, singles

        batch, singles = drive(env, user, run)
        assert batch == {"performances": singles}
        recorded, unrecorded = singles
        assert recorded["runs"] == 2 and recorded["success_rate"] == 0.5
        assert unrecorded == {"runs": 0, "success_rate": 1.0, "mean_duration": 0.0}


class TestLookupsPerDecision:
    @pytest.mark.parametrize("count", [2, 8])
    def test_schedule_sends_one_status_and_one_performance(self, count):
        env, services, fleet = standard_environment(
            synthetic_services(), containers=8
        )
        user = services.coordination
        candidates = [ac.name for ac in fleet[:count]]
        result = drive(
            env,
            user,
            lambda: user.call(
                "scheduling",
                "schedule",
                {"service": "POD", "candidates": candidates},
            ),
        )
        assert result["container"] in candidates
        assert len(result["alternatives"]) == count - 1
        assert requests_by_action(env, "scheduling") == {
            "status": 1,
            "performance": 1,
        }
        (status,) = request_contents(env, "scheduling", "status")
        assert status == {"agents": candidates}
        (perf,) = request_contents(env, "scheduling", "performance")
        assert perf == {"service": "POD", "containers": candidates}

    def test_schedule_skips_performance_when_none_alive(self, grid):
        env, services, fleet = grid
        for ac in fleet:
            ac.crash()
        user = services.coordination
        with pytest.raises(ServiceError):
            drive(
                env,
                user,
                lambda: user.call(
                    "scheduling",
                    "schedule",
                    {"service": "POD", "candidates": ["ac1", "ac2", "ac3"]},
                ),
            )
        assert requests_by_action(env, "scheduling") == {"status": 1}

    def test_performance_asks_for_live_candidates_only(self, grid):
        env, services, fleet = grid
        fleet[1].crash()
        user = services.coordination
        drive(
            env,
            user,
            lambda: user.call(
                "scheduling",
                "schedule",
                {"service": "POD", "candidates": ["ac1", "ac2", "ac3"]},
            ),
        )
        (perf,) = request_contents(env, "scheduling", "performance")
        assert perf == {"service": "POD", "containers": ["ac1", "ac3"]}

    def test_match_sends_one_find_containers_and_one_status(self):
        env, services, fleet = standard_environment(
            synthetic_services(), containers=8
        )
        user = services.coordination
        result = drive(
            env, user, lambda: user.call("matchmaking", "match", {"service": "POD"})
        )
        assert len(result["candidates"]) > 2
        assert requests_by_action(env, "matchmaking") == {
            "find-containers": 1,
            "status": 1,
        }


class TestFactCacheInvalidation:
    def test_registry_push_drops_only_the_named_container(self, grid):
        env, services, fleet = grid
        scheduler = services.scheduling
        broker = services.brokerage
        scheduler.enable_fact_cache(1e9, broker=broker)
        user = services.coordination
        candidates = ["ac1", "ac2", "ac3"]

        def schedule():
            return user.call(
                "scheduling",
                "schedule",
                {"service": "POD", "candidates": candidates},
            )

        drive(env, user, schedule)
        warm = set(scheduler._fact_cache)
        assert warm == {("status", c) for c in candidates} | {
            ("perf", "POD", c) for c in candidates
        }
        broker.advertise(broker._ads["ac2"])  # re-registration pushes ac2
        env.run()
        assert set(scheduler._fact_cache) == {
            key for key in warm if key[-1] != "ac2"
        }

        sent = requests_by_action(env, "scheduling")
        drive(env, user, schedule)
        statuses = request_contents(env, "scheduling", "status")[sent["status"]:]
        perfs = request_contents(env, "scheduling", "performance")[
            sent["performance"]:
        ]
        assert statuses == [{"agents": ["ac2"]}]
        assert perfs == [{"service": "POD", "containers": ["ac2"]}]
        assert set(scheduler._fact_cache) == warm
