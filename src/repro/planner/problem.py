"""Planning problems: ``P = {Sinit, G, T}`` (Section 3.2).

* ``Sinit`` — a :class:`~repro.planner.state.WorldState` with the user's
  initial data and specifications;
* ``G`` — the goal, a tuple of goal *specifications* (conditions); Eq. 2
  scores the fraction satisfied in the final state;
* ``T`` — the complete set of end-user activities available on the grid,
  each an :class:`ActivitySpec` with preconditions (a condition over data
  items that must hold before execution) and effects (data items
  created/modified by execution — the postconditions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Any

from repro.errors import PlanningError
from repro.planner.state import WorldState
from repro.process.conditions import TRUE, Condition, compile_condition
from repro.process.model import Activity, ActivityKind

__all__ = ["ActivitySpec", "PlanningProblem"]


@dataclass(frozen=True)
class ActivitySpec:
    """One end-user activity in T.

    *precondition* must hold in the current state for the activity to be
    valid (Section 3.1: "The preconditions of an activity specify the set
    of necessary data and their specifications").  *effects* maps output
    data names to the properties their execution establishes ("The new
    system state will include all new and modified data resulting from the
    execution").  *inputs* / *outputs* list the data names for
    documentation and case-description binding; inputs default to the data
    referenced by the precondition.
    """

    name: str
    precondition: Condition = TRUE
    effects: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    service: str | None = None
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    cost: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise PlanningError("activity spec needs a name")
        object.__setattr__(
            self, "effects", {k: dict(v) for k, v in dict(self.effects).items()}
        )
        if not self.inputs:
            object.__setattr__(
                self, "inputs", tuple(sorted(self.precondition.data_names()))
            )
        if not self.outputs:
            object.__setattr__(self, "outputs", tuple(self.effects))
        if self.service is None:
            object.__setattr__(self, "service", self.name)
        object.__setattr__(
            self, "_compiled_pre", compile_condition(self.precondition)
        )

    def __getstate__(self) -> dict[str, Any]:
        # Compiled precondition closures are not picklable; drop them and
        # recompile on the other side (process-pool workers receive specs
        # through here).
        state = dict(self.__dict__)
        state.pop("_compiled_pre", None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        object.__setattr__(
            self, "_compiled_pre", compile_condition(self.precondition)
        )

    def applicable(self, state: WorldState) -> bool:
        return self._compiled_pre(state)  # type: ignore[attr-defined]

    def apply(self, state: WorldState) -> WorldState:
        """The successor state (caller checks applicability for validity
        accounting; applying an inapplicable activity is a planner-level
        decision, the simulation never does it)."""
        return state.updated(self.effects)

    def as_activity(self, name: str | None = None) -> Activity:
        """The graph-level :class:`Activity` for this spec."""
        return Activity(
            name or self.name,
            ActivityKind.END_USER,
            self.service,
            self.inputs,
            self.outputs,
        )


@dataclass(frozen=True)
class PlanningProblem:
    """``P = {Sinit, G, T}`` plus a display name."""

    initial_state: WorldState
    goals: tuple[Condition, ...]
    activities: Mapping[str, ActivitySpec]
    name: str = "problem"

    def __post_init__(self) -> None:
        object.__setattr__(self, "goals", tuple(self.goals))
        if not self.goals:
            raise PlanningError("a planning problem needs at least one goal")
        specs = dict(self.activities)
        for key, spec in specs.items():
            if key != spec.name:
                raise PlanningError(
                    f"activity map key {key!r} != spec name {spec.name!r}"
                )
        if not specs:
            raise PlanningError("a planning problem needs a non-empty T")
        object.__setattr__(self, "activities", specs)
        self._compile()

    def _compile(self) -> None:
        """Pre-compile goals and the per-activity execution table, and
        start empty memo tables (goal scores, interned states, transitions).

        The simulator executes terminals hundreds of thousands of times
        per GP run; indexing ``name -> (compiled precondition, effects)``
        once here keeps condition-AST traversal, ``spec()`` lookups and
        bound-method creation out of :meth:`step`'s memo misses.
        """
        object.__setattr__(
            self, "_compiled_goals", tuple(compile_condition(g) for g in self.goals)
        )
        object.__setattr__(
            self,
            "_exec_table",
            {
                name: (spec._compiled_pre, spec.effects)  # type: ignore[attr-defined]
                for name, spec in self.activities.items()
            },
        )
        object.__setattr__(self, "_goal_cache", {})
        object.__setattr__(self, "_interned", {})
        object.__setattr__(self, "_rows", {})

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        for key in (
            "_compiled_goals", "_exec_table", "_goal_cache", "_interned", "_rows"
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._compile()

    #: Bound on the states one problem interns for its transition memo
    #: (the Table-1 GP run on the case-study problem reaches 16); states
    #: past the cap are executed without the memo.
    _STATE_TABLE_MAX = 4096

    def step(self, state: WorldState, activity: str) -> tuple[bool, WorldState]:
        """Execute *activity* in *state*: ``(valid, successor state)``.

        A valid execution applies the activity's effects; an invalid one,
        or a name outside T, leaves the state unchanged.  The result is a
        pure function of the state's data, so it is memoized per problem:
        states are interned by :meth:`WorldState.merge_key` (``_interned``)
        and each interned state has a row ``activity -> (valid,
        successor)`` in ``_rows``, keyed by the interned object's id (the
        interned object is kept alive by ``_interned``, so its id cannot be
        reused while the row exists).  Successors are interned too, so a
        simulation that starts from an interned state stays on the
        id-keyed fast path.
        """
        rows: dict = self._rows  # type: ignore[attr-defined]
        row = rows.get(id(state))
        if row is None:
            canonical = self._intern(state)
            row = rows.get(id(canonical))
            if row is None:  # unhashable state, or the table is full
                return self._execute(state, activity)
            state = canonical
        hit = row.get(activity)
        if hit is None:
            valid, successor = self._execute(state, activity)
            hit = (valid, self._intern(successor) if valid else state)
            if activity in self._exec_table:  # type: ignore[attr-defined]
                row[activity] = hit  # names outside T stay out: rows are <= |T|
        return hit

    def _execute(self, state: WorldState, activity: str) -> tuple[bool, WorldState]:
        """Un-memoized terminal execution (the memo's source of truth)."""
        entry = self._exec_table.get(activity)  # type: ignore[attr-defined]
        if entry is None:
            return False, state
        applicable, effects = entry
        if applicable(state):
            return True, state.updated(effects)
        return False, state

    def _intern(self, state: WorldState) -> WorldState:
        """The canonical state equal to *state* under ``merge_key``;
        *state* itself becomes canonical when it is new and there is room."""
        key = state.merge_key()
        if key is None:
            return state
        table: dict = self._interned  # type: ignore[attr-defined]
        interned = table.get(key)
        if interned is not None:
            return interned
        if len(table) >= self._STATE_TABLE_MAX:
            return state
        table[key] = state
        self._rows[id(state)] = {}  # type: ignore[attr-defined]
        return state

    @property
    def activity_names(self) -> tuple[str, ...]:
        return tuple(self.activities)

    def spec(self, name: str) -> ActivitySpec | None:
        """The spec for an activity name, or None if not in T.

        Plan trees evolved by GP may reference names outside T only if the
        terminal set is wider than T; the simulator treats unknown names as
        never-valid activities.
        """
        return self.activities.get(name)

    #: Goal-score memo bound; final states repeat heavily across the flows
    #: and trees of one GP run, far beyond this many distinct ones.
    _GOAL_CACHE_MAX = 4096

    def goal_score(self, state: WorldState) -> float:
        """Eq. 2: fraction of goal specifications the state satisfies.

        Memoized on the state's canonical merge key (bounded FIFO):
        distinct plan trees funnel into a small set of reachable final
        states, so most scores are repeat lookups.
        """
        key = state.merge_key() if isinstance(state, WorldState) else None
        cache: dict = self._goal_cache  # type: ignore[attr-defined]
        if key is not None:
            hit = cache.get(key)
            if hit is not None:
                return hit
        compiled = self._compiled_goals  # type: ignore[attr-defined]
        satisfied = sum(1 for check in compiled if check(state))
        score = satisfied / len(compiled)
        if key is not None:
            if len(cache) >= self._GOAL_CACHE_MAX:
                cache.pop(next(iter(cache)))
            cache[key] = score
        return score

    @staticmethod
    def build(
        name: str,
        initial: Mapping[str, Mapping[str, Any]],
        goals: tuple[Condition, ...] | list[Condition],
        activities: list[ActivitySpec] | tuple[ActivitySpec, ...],
    ) -> "PlanningProblem":
        """Convenience constructor from plain literals."""
        return PlanningProblem(
            initial_state=WorldState(initial),
            goals=tuple(goals),
            activities={spec.name: spec for spec in activities},
            name=name,
        )
