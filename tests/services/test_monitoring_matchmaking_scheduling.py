"""Monitoring, matchmaking and scheduling services."""

import heapq
import random

import pytest

from repro.errors import ServiceError
from tests.services.conftest import drive


class TestMonitoring:
    def test_container_status(self, grid):
        env, services, fleet = grid
        user = services.coordination
        status = drive(env, user, lambda: user.call("monitoring", "status", {"agent": "ac3"}))
        assert status["known"] and status["alive"]
        assert status["node"] == "node3"
        assert status["speed"] == 4.0
        assert status["node_up"] is True

    def test_unknown_agent(self, grid):
        env, services, fleet = grid
        user = services.coordination
        status = drive(env, user, lambda: user.call("monitoring", "status", {"agent": "zz"}))
        assert status == {"known": False, "alive": False}

    def test_crash_visible(self, grid):
        env, services, fleet = grid
        fleet[0].crash()
        user = services.coordination
        status = drive(env, user, lambda: user.call("monitoring", "status", {"agent": "ac1"}))
        assert status["alive"] is False

    def test_node_status(self, grid):
        env, services, fleet = grid
        user = services.coordination
        status = drive(env, user, lambda: user.call("monitoring", "node-status", {"node": "node2"}))
        assert status["up"] and status["slots"] == 4

    def test_census(self, grid):
        env, services, fleet = grid
        user = services.coordination
        census = drive(env, user, lambda: user.call("monitoring", "census", {}))
        assert census["agents"] == 11 + 3
        assert census["nodes"] == 3


class TestMatchmaking:
    def test_match_ranks_by_load_then_speed(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(env, user, lambda: user.call("matchmaking", "match", {"service": "POD"}))
        # all idle -> fastest first
        assert [c["container"] for c in result["candidates"]] == ["ac3", "ac2", "ac1"]

    def test_min_speed_filter(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(
            env,
            user,
            lambda: user.call("matchmaking", "match", {"service": "POD", "min_speed": 3.0}),
        )
        assert [c["container"] for c in result["candidates"]] == ["ac3"]

    def test_site_filter(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(
            env,
            user,
            lambda: user.call("matchmaking", "match", {"service": "POD", "site": "siteB"}),
        )
        assert [c["container"] for c in result["candidates"]] == ["ac2"]

    def test_dead_containers_excluded(self, grid):
        env, services, fleet = grid
        fleet[2].crash()
        user = services.coordination
        result = drive(env, user, lambda: user.call("matchmaking", "match", {"service": "POD"}))
        assert "ac3" not in [c["container"] for c in result["candidates"]]

    def test_unknown_service_empty(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(env, user, lambda: user.call("matchmaking", "match", {"service": "NOPE"}))
        assert result["candidates"] == []


class TestScheduling:
    def test_prefers_fast_idle_container(self, grid):
        env, services, fleet = grid
        user = services.coordination
        result = drive(
            env,
            user,
            lambda: user.call(
                "scheduling",
                "schedule",
                {"service": "POD", "candidates": ["ac1", "ac2", "ac3"], "work": 10.0},
            ),
        )
        assert result["container"] == "ac3"
        assert result["estimate"] == pytest.approx(10.0 / 4.0)
        assert result["alternatives"] == ["ac2", "ac1"]

    def test_reliability_penalty(self, grid):
        env, services, fleet = grid
        user = services.coordination
        # Make ac3 look unreliable: estimate doubles, ac2 wins (2.5*2 = 5 = work/2).
        for _ in range(10):
            services.brokerage.record("POD", "ac3", 0.0, success=False)
        result = drive(
            env,
            user,
            lambda: user.call(
                "scheduling",
                "schedule",
                {"service": "POD", "candidates": ["ac2", "ac3"], "work": 10.0},
            ),
        )
        assert result["container"] == "ac2"

    def test_no_candidates_rejected(self, grid):
        env, services, fleet = grid
        user = services.coordination
        with pytest.raises(ServiceError):
            drive(
                env,
                user,
                lambda: user.call(
                    "scheduling", "schedule", {"service": "POD", "candidates": []}
                ),
            )

    def test_all_dead_rejected(self, grid):
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


class TestPendingLoadHeap:
    def test_heap_matches_naive_filter(self, grid):
        # The per-container heap must count exactly the entries the old
        # list filter kept (expiry > now), ties at expiry == now included.
        env, services, fleet = grid
        scheduler = services.scheduling
        rng = random.Random(13)
        naive: dict[str, list[float]] = {}
        containers = ["ac1", "ac2", "ac3"]
        now = 0.0
        ties = 0
        for step in range(2000):
            container = rng.choice(containers)
            if rng.random() < 0.5:
                # Integer-valued times make expiry == now frequent.
                expiry = now + rng.randint(0, 6)
                heapq.heappush(scheduler._pending.setdefault(container, []), expiry)
                naive.setdefault(container, []).append(expiry)
            else:
                now += rng.choice([0.0, 0.0, 1.0, 2.0])
                env.engine.now = now
                ties += now in naive.get(container, ())
                expected = sum(1 for e in naive.get(container, ()) if e > now)
                assert scheduler._pending_load(container) == expected, step
        assert ties > 0

    def test_expiry_equal_to_now_is_expired(self, grid):
        env, services, fleet = grid
        scheduler = services.scheduling
        for expiry in (5.0, 5.0, 6.0, 4.0):
            heapq.heappush(scheduler._pending.setdefault("ac1", []), expiry)
        env.engine.now = 5.0
        assert scheduler._pending_load("ac1") == 1
        env.engine.now = 6.0
        assert scheduler._pending_load("ac1") == 0
        assert scheduler._pending_load("ac2") == 0
