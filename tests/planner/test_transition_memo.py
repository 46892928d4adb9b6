"""The per-problem transition memo behind plan simulation.

``PlanningProblem.step`` memoizes terminal execution on interned world
states.  These tests pin that the memo is invisible: a warm memo gives the
same reports as a cold one, problems that share a state object never share
transitions, a full or unusable table falls back to direct execution, and
pickles carry no memo.
"""

import pickle

import numpy as np
import pytest

from repro.plan import concurrent, iterative, random_tree, selective, sequential
from repro.planner import (
    ActivitySpec,
    PlanningProblem,
    SimulationOptions,
    WorldState,
    simulate_plan,
)
from repro.planner.simulate import simulate_with_attribution
from repro.process.conditions import Atom, Relation
from repro.virolab import planning_problem

OPTIONS = {
    "default": SimulationOptions(),
    "three_unrollings": SimulationOptions(iteration_counts=(1, 2, 3)),
    "concurrent_orders": SimulationOptions(concurrent_orders=3),
    "tiny_max_flows": SimulationOptions(max_flows=2),
    "tiny_max_executions": SimulationOptions(max_executions=25),
}

#: T of the case-study problem plus names outside it.
NAMES = list(planning_problem().activity_names) + ["Unknown", "P3DR9"]

NESTED = [
    iterative(selective("POD", "P3DR1"), sequential("POR", "Unknown")),
    sequential(
        "POD",
        concurrent("P3DR2", "P3DR3", iterative("P3DR1", "POR")),
        selective("PSF", sequential("P3DR4", "PSF")),
    ),
    selective(iterative(iterative("POD", "P3DR9")), concurrent("POD", "P3DR1")),
]


def _trees(seed, count):
    rng = np.random.default_rng(seed)
    return [random_tree(NAMES, max_size=40, rng=rng) for _ in range(count)]


@pytest.mark.parametrize("options", OPTIONS.values(), ids=OPTIONS.keys())
def test_warm_memo_reports_equal_cold(options):
    warm = planning_problem()
    for tree in _trees(1, 40):
        simulate_plan(tree, warm, options)
    assert warm._interned, "warming trees reached no state"
    for tree in NESTED + _trees(2, 40):
        cold = simulate_with_attribution(tree, planning_problem(), options)
        assert simulate_with_attribution(tree, warm, options) == cold
        assert simulate_plan(tree, warm, options) == cold[0]


def test_memo_rows_match_direct_execution():
    problem = planning_problem()
    for tree in NESTED + _trees(3, 60):
        simulate_plan(tree, problem)
    assert problem._rows
    for state in problem._interned.values():
        row = problem._rows[id(state)]
        assert set(row) <= set(problem.activities)
        for name, (valid, successor) in row.items():
            spec = problem.spec(name)
            assert valid == spec.applicable(state)
            assert successor == (spec.apply(state) if valid else state)


def _ready(name):
    return Atom(name, "Status", Relation.EQ, "ready")


def test_problems_sharing_a_state_simulate_independently():
    shared = WorldState({"d0": {"Status": "ready"}})
    goal = (_ready("d1"),)
    enabled = PlanningProblem(
        shared, goal,
        {"a": ActivitySpec("a", _ready("d0"), {"d1": {"Status": "ready"}})},
    )
    blocked = PlanningProblem(
        shared, goal,
        {"a": ActivitySpec("a", _ready("missing"), {"d1": {"Status": "ready"}})},
    )
    other_effect = PlanningProblem(
        shared, goal,
        {"a": ActivitySpec("a", _ready("d0"), {"d1": {"Status": "stale"}})},
    )
    tree = sequential("a", iterative("a"))
    for _ in range(2):  # second round runs on warm memos
        for problem, validity, goal_fit in (
            (enabled, 1.0, 1.0),
            (blocked, 0.0, 0.0),
            (other_effect, 1.0, 0.0),
        ):
            report = simulate_plan(tree, problem)
            assert report.validity_fitness() == validity
            assert report.goal_fitness(problem) == goal_fit
    assert enabled.step(shared, "a")[1].properties("d1") == {"Status": "ready"}
    assert other_effect.step(shared, "a")[1].properties("d1") == {"Status": "stale"}


def test_replan_problem_does_not_reuse_the_original_memo():
    """The planning service's replan builds a problem over the original's
    initial state with a smaller T."""
    original = planning_problem()
    restricted = PlanningProblem(
        original.initial_state,
        original.goals,
        {n: s for n, s in original.activities.items() if n != "POD"},
    )
    tree = sequential("POD", "P3DR1", "POR")
    simulate_plan(tree, original)
    assert simulate_plan(tree, restricted) == simulate_plan(
        tree, PlanningProblem(
            original.initial_state, original.goals, restricted.activities
        )
    )
    assert simulate_plan(tree, restricted).validity_fitness() == 0.0


def test_full_table_still_simulates_correctly(monkeypatch):
    trees = NESTED + _trees(4, 30)
    expected = [
        simulate_with_attribution(tree, planning_problem()) for tree in trees
    ]
    monkeypatch.setattr(PlanningProblem, "_STATE_TABLE_MAX", 2)
    capped = planning_problem()
    for tree, want in zip(trees, expected):
        assert simulate_with_attribution(tree, capped) == want
    assert len(capped._interned) == 2


def test_unhashable_states_skip_the_memo():
    problem = PlanningProblem.build(
        "lists",
        {"d0": {"Status": "ready", "tags": ["x"]}},
        (_ready("d2"),),
        [
            ActivitySpec("a1", _ready("d0"), {"d1": {"Status": "ready"}}),
            ActivitySpec("a2", _ready("d1"), {"d2": {"Status": "ready"}}),
        ],
    )
    report = simulate_plan(sequential("a2", "a1", "a2"), problem)
    assert report.validity_fitness() == pytest.approx(2 / 3)
    assert report.goal_fitness(problem) == 1.0
    assert not problem._interned and not problem._rows


def test_pickling_drops_the_memo():
    problem = planning_problem()
    for tree in NESTED:
        simulate_plan(tree, problem)
    assert problem._interned and problem._rows
    state = problem.__getstate__()
    assert "_interned" not in state and "_rows" not in state
    clone = pickle.loads(pickle.dumps(problem))
    assert clone._interned == {} and clone._rows == {}
    for tree in NESTED:
        assert simulate_plan(tree, clone) == simulate_plan(tree, problem)
