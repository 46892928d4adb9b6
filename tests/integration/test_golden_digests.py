"""Golden digests: the grid's observable behaviour pinned to committed values.

Each digest is a 16-byte blake2b over ``repr(trace_rows(env)) +
repr(outcomes)`` — every delivered message (time, endpoints, performative,
action, ids, content) followed by the per-case replies.  Engine event
counts are left out: they are kernel-internal, and a kernel change that
keeps every message and reply identical is not a behaviour change.  The
``gp_virolab`` digest covers one GP run instead: best plan, fitness,
evaluation and cache counts, and each generation's best fitness.

Re-baseline rule: a digest changes only together with an entry in
CHANGES.md that names the flow and the reason.  On a mismatch the failing
assertion prints the new digest, so the re-baseline is a one-line edit.
"""

from __future__ import annotations

import hashlib

import pytest

from benchmarks.bench_util import trace_rows
from repro.experiments.figures import _synthetic_services
from repro.planner import GPConfig, GPPlanner
from repro.services.bootstrap import standard_environment
from repro.virolab import planning_problem
from repro.workloads.many_cases import run_many_cases

#: flow -> (digest, delivered messages).  The message count makes a
#: mismatch easier to read: a changed count means messages were added or
#: lost, an equal count means content, timing or ordering moved.
GOLDEN = {
    "fig2": ("7f61bd9e09b4306c01b01b920fec5022", 2),
    "fig3": ("5bc159bb12a02e14b7c7c6b559849659", 22),
    "many_cases_8": ("f143141c95dcf5fe80095841d4d65f1e", 1040),
    "many_cases_8_spans_journal": ("46c6d38a30b19e375c34e9cafb15dcf5", 1056),
    "many_cases_64": ("6b1b376f5008c3a9391f70502b8835f8", 8320),
}

#: The Table-1 GP run on the case-study problem -> (digest, evaluations).
#: It pins the planner itself: plan simulation, fitness, the genetic
#: operators' RNG use and the fitness cache.
GOLDEN_GP = ("9270c3982119404c28c65b6645f880dc", 2570)


def digest(env, outcomes) -> tuple[str, int]:
    rows = trace_rows(env)
    text = repr(rows) + repr(outcomes)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest(), len(rows)


def check(flow: str, env, outcomes) -> None:
    got = digest(env, outcomes)
    assert got == GOLDEN[flow], (
        f"golden digest of {flow!r} moved: {GOLDEN[flow]} -> {got}; "
        "re-baseline only with a CHANGES.md entry naming the reason"
    )


def _planning_flow(action: str, content: dict) -> tuple:
    """The grid ``fig2_planning_protocol``/``fig3_replanning_protocol``
    build, driven by one coordination -> planning request."""
    env, services, _ = standard_environment(
        _synthetic_services(),
        containers=2,
        planner_config=GPConfig(population_size=20, generations=3),
    )
    outcome: dict = {}

    def run():
        reply = yield from services.coordination.call(
            "planning", action, {"problem": planning_problem(), **content}
        )
        outcome.update(reply)

    env.engine.spawn(run(), action)
    env.run(max_events=200_000)
    return env, outcome


class TestFigureFlows:
    def test_fig2_planning_protocol(self):
        env, outcome = _planning_flow("plan", {})
        check("fig2", env, outcome)

    def test_fig3_replanning_protocol(self):
        env, outcome = _planning_flow(
            "replan",
            {
                "data": {"D1": {"Classification": "POD-Parameter"}},
                "failed_activities": ["POR"],
            },
        )
        check("fig3", env, outcome)


class TestManyCases:
    @pytest.mark.parametrize(
        "config",
        [{}, {"shards": 1}, {"journal": "record"}],
        ids=["default", "shards1", "journal_record"],
    )
    def test_eight_cases(self, config):
        # shards=1 (the single-shard bootstrap) and journal="record" (the
        # record-only flight recorder) must not move one byte of the grid.
        result = run_many_cases(cases=8, containers=4, **config)
        check("many_cases_8", result["env"], result["outcomes"])

    def test_eight_cases_spans_journal(self):
        result = run_many_cases(cases=8, containers=4, spans=True, journal=True)
        check("many_cases_8_spans_journal", result["env"], result["outcomes"])

    def test_sixty_four_cases(self):
        result = run_many_cases(cases=64, containers=8)
        check("many_cases_64", result["env"], result["outcomes"])


class TestPlanner:
    def test_gp_virolab(self):
        result = GPPlanner(rng=0).plan(planning_problem())
        payload = (
            result.best_plan.struct_key(),
            result.best_fitness,
            result.evaluations,
            result.cache_hits,
            result.cache_misses,
            tuple(stats.best_fitness for stats in result.history),
        )
        got = (
            hashlib.blake2b(repr(payload).encode(), digest_size=16).hexdigest(),
            result.evaluations,
        )
        assert got == GOLDEN_GP, (
            f"golden digest of 'gp_virolab' moved: {GOLDEN_GP} -> {got}; "
            "re-baseline only with a CHANGES.md entry naming the reason"
        )
