"""The four seeded workloads of the grid benchmark.

Each workload is a class with three steps that the runner times apart:

* ``setup()`` builds a fresh grid and stages the round's inputs (timed as
  ``setup_s``);
* ``run(state)`` submits every request and drives the engine to
  completion (the timed region of every throughput and latency metric);
* ``check(state, result)`` verifies every output against what the inputs
  imply (never timed).

Every input comes from the ``seed`` given to the constructor, so one seed
gives one population, and every round of a run repeats it exactly.  The
program under test only ever sees the generated inputs.  All calls go
through the public API: ``standard_environment``/``virolab_grid``, the
coordination, planning and monitoring RPCs, and the storage and
knowledge-base objects those return.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

from repro.analysis import Severity, analyze_process
from repro.errors import ServiceError
from repro.ontology.builtin import SERVICE, builtin_shell
from repro.planner.config import GPConfig
from repro.planner.library import PlanLibrary
from repro.planner.problem import ActivitySpec, PlanningProblem
from repro.process.conditions import Atom, Relation
from repro.services.bootstrap import standard_environment
from repro.workloads.many_cases import many_cases_process, many_cases_services
from repro.workloads.plan_mix import plan_mix_activities, plan_mix_services

__all__ = ["WORKLOADS", "RoundResult", "percentile"]

#: Engine guard for one round: far above any round's real event count.
MAX_EVENTS = 20_000_000


@dataclass
class RoundResult:
    """What one round did, as the runner and the checks see it."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    refused: int = 0
    #: Requests the program lost: an exception escaped the engine while
    #: they were in flight, so they never got a reply.
    crashed: int = 0
    #: Requests that reached their goal (case goal data / solved plan).
    goal_reached: int = 0
    #: Host seconds from each request's submission to its reply.
    host_latency_s: list[float] = field(default_factory=list)
    #: Simulated seconds from each request's submission to its reply.
    sim_latency_s: list[float] = field(default_factory=list)
    #: Exact, seed-determined counts (compared across rounds).
    counts: dict[str, Any] = field(default_factory=dict)
    #: Counters read from the program after the round (per-layer metrics).
    counters: dict[str, float] = field(default_factory=dict)
    #: Output-check failures.
    errors: list[str] = field(default_factory=list)
    #: Workload-specific figures printed next to the metrics.
    info: dict[str, Any] = field(default_factory=dict)


def _is_refusal(exc: ServiceError) -> bool:
    return "refused" in str(exc)


def _grid_counters(env, services) -> dict[str, float]:
    """Program-side counters every workload reports after a round."""
    registry = env.metrics
    total = registry.total
    return {
        "sim.events": env.engine.events_processed,
        "bus.messages": total("messages_sent"),
        "bus.dropped": total("messages_dropped"),
        "bus.retries": total("rpc_retry"),
        "grid.activities_completed": total("activities_completed"),
        "grid.activities_failed": total("activities_failed"),
        "services.coordination.replans": total("replans"),
        "services.coordination.refused": total("cases_refused"),
        "process.program_cache_hit": total("program_cache_hit"),
        "process.program_cache_miss": total("program_cache_miss"),
        "obs.spans_closed": env.spans.total_closed,
        "obs.spans_evicted": env.spans.evicted,
        "obs.journal_events": env.journal.stats()["appended"],
        "obs.journal_lost": env.journal.stats()["events_lost"],
    }


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile of *values* by nearest rank (0 when empty)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- enactment family -------------------------------------------------------- #
#: Loop-round counts the enactment populations mix (one process per count).
ROUND_CHOICES = (1, 2, 3, 4)
#: The ``out`` properties each publishing route must leave behind.
ROUTE_OUT = {
    "fast": {"Status": "ready"},
    "full": {"Status": "ready", "Archived": True},
}


def _case_population(rng: random.Random, cases: int) -> list[tuple[int, str]]:
    """*cases* (loop rounds, route) pairs: every combination equally often
    (the remainder drawn at random), in a seeded order.  Equal shares keep
    the work per round the same from seed to seed."""
    combos = [(rounds, mode) for rounds in ROUND_CHOICES for mode in ROUTE_OUT]
    population = combos * (cases // len(combos))
    population += rng.sample(combos, cases % len(combos))
    rng.shuffle(population)
    return population


def _check_case(index: int, rounds: int, mode: str, reply: dict) -> list[str]:
    data = reply.get("data", {})
    errors = []
    got_round = data.get("model", {}).get("Round")
    if got_round != rounds:
        errors.append(f"case-{index}: model.Round {got_round} != {rounds}")
    if data.get("out") != ROUTE_OUT[mode]:
        errors.append(f"case-{index}: out {data.get('out')} != {ROUTE_OUT[mode]}")
    return errors


class _Enactment:
    """Shared shape of the two ``many_cases`` workloads: a seeded population
    of (loop rounds, route) cases, each enacted through coordination's
    ``execute-task`` by its own user process."""

    name = ""
    cases = 0
    containers = 8
    #: Observability switches handed to ``standard_environment``.
    spans = False
    journal = False

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.population = _case_population(self.rng, self.cases)

    def describe(self) -> dict[str, Any]:
        return {"cases_per_round": self.cases, "containers": self.containers}

    def setup(self) -> dict[str, Any]:
        env, services, _fleet = standard_environment(
            many_cases_services(),
            containers=self.containers,
            spans=self.spans,
            journal=self.journal,
        )
        processes = {r: many_cases_process(r) for r in ROUND_CHOICES}
        return {"env": env, "services": services, "processes": processes}

    def _enact(self, state: dict[str, Any], result: RoundResult, index: int):
        """One user's case: submit, wait for the reply, record it."""
        engine = state["env"].engine
        rounds, mode = self.population[index]
        sim_start, host_start = engine.now, time.perf_counter()
        try:
            reply = yield from state["services"].coordination.call(
                "coordination",
                "execute-task",
                {
                    "process": state["processes"][rounds],
                    "initial_data": {"src": {"Status": "ready", "Mode": mode}},
                    "task": f"case-{index}",
                },
            )
        except ServiceError as exc:
            state["replies"][index] = exc
            return None
        result.host_latency_s.append(time.perf_counter() - host_start)
        result.sim_latency_s.append(engine.now - sim_start)
        state["replies"][index] = reply
        return reply

    def _finish(self, state: dict[str, Any], result: RoundResult) -> RoundResult:
        _tally(result, state["replies"])
        result.counters = _grid_counters(state["env"], state["services"])
        return result

    def check(self, state: dict[str, Any], result: RoundResult) -> None:
        for index, reply in enumerate(state["replies"]):
            if isinstance(reply, dict):
                rounds, mode = self.population[index]
                errors = _check_case(index, rounds, mode, reply)
                result.errors.extend(errors)
                result.goal_reached += not errors
        _check_accounting(result)
        result.counts.update(_exact_counts(result))


class EnactBurst(_Enactment):
    """Every case of a seeded population submitted at simulated t=0, on a
    grid left at its defaults (message trace and metrics on)."""

    name = "enact_burst"
    cases = 240

    def run(self, state: dict[str, Any]) -> RoundResult:
        result = RoundResult(submitted=self.cases)
        state["replies"] = [None] * self.cases
        engine = state["env"].engine
        for index in range(self.cases):
            engine.spawn(self._enact(state, result, index), name=f"user-{index}")
        state["env"].run(max_events=MAX_EVENTS)
        return self._finish(state, result)


class EnactStream(_Enactment):
    """Seeded Poisson arrivals in simulated time, spans and journal on; a
    seeded share of users read their finished case back from monitoring."""

    name = "enact_stream"
    cases = 240
    spans = True
    journal = True
    #: Mean arrivals per simulated second (below the fleet's capacity).
    rate = 1.0
    #: Share of completed cases whose journal, provenance and profile the
    #: user reads back through the monitoring service.
    read_share = 0.25

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # Exponential inter-arrival gaps, stratified: one gap from each of
        # ``cases`` equal-probability slices of the distribution, in a
        # seeded order.  Every seed keeps the same mean rate and span; the
        # order sets how bursty each stretch of the stream is.
        self.gaps = [
            -math.log(1.0 - (slot + 0.5) / self.cases) / self.rate
            for slot in range(self.cases)
        ]
        self.rng.shuffle(self.gaps)
        self.reads = [self.rng.random() < self.read_share for _ in range(self.cases)]

    def describe(self) -> dict[str, Any]:
        return {
            **super().describe(),
            "arrival_rate_per_sim_s": self.rate,
            "read_share": self.read_share,
        }

    def run(self, state: dict[str, Any]) -> RoundResult:
        env, services = state["env"], state["services"]
        result = RoundResult(submitted=self.cases)
        state["replies"] = [None] * self.cases
        reads: dict[int, dict[str, Any]] = {}
        state["reads"] = reads
        in_flight = [0, 0]  # current, peak

        def user(index: int):
            in_flight[0] += 1
            in_flight[1] = max(in_flight[1], in_flight[0])
            reply = yield from self._enact(state, result, index)
            in_flight[0] -= 1
            if reply is None or not self.reads[index]:
                return
            query = {"case": f"case-{index}"}
            monitoring = services.monitoring.name
            call = services.coordination.call
            reads[index] = {
                "journal": (yield from call(monitoring, "journal", query)),
                "provenance": (yield from call(monitoring, "provenance", query)),
                "profile": (yield from call(monitoring, "case-profile", query)),
            }

        def arrivals():
            for index in range(self.cases):
                yield self.gaps[index]
                env.engine.spawn(user(index), name=f"user-{index}")

        env.engine.spawn(arrivals(), name="arrivals")
        env.run(max_events=MAX_EVENTS)
        self._finish(state, result)
        storage = services.storage
        result.counters["obs.mirror_bytes"] = sum(
            len(storage.get(key)) for key in storage.keys() if key.startswith("journal/")
        )
        result.info["peak_in_flight"] = in_flight[1]
        return result

    def check(self, state: dict[str, Any], result: RoundResult) -> None:
        super().check(state, result)
        expected_reads = sum(
            1
            for index, reply in enumerate(state["replies"])
            if isinstance(reply, dict) and self.reads[index]
        )
        if len(state["reads"]) != expected_reads:
            result.errors.append(
                f"{len(state['reads'])} monitoring reads, expected {expected_reads}"
            )
        for index, read in state["reads"].items():
            kinds = [event["kind"] for event in read["journal"].get("events", [])]
            if not kinds or kinds[0] != "case-intake" or kinds[-1] != "case-complete":
                result.errors.append(f"case-{index}: journal timeline {kinds[:1]}..{kinds[-1:]}")
            if read["provenance"].get("events") != len(kinds):
                result.errors.append(f"case-{index}: provenance/journal event mismatch")
            if read["profile"].get("coverage", 0.0) < 0.95:
                result.errors.append(
                    f"case-{index}: profile coverage {read['profile'].get('coverage')}"
                )
        if state["env"].spans.open_count:
            result.errors.append(f"{state['env'].spans.open_count} spans left open")
        result.counts["obs.journal_events"] = result.counters["obs.journal_events"]
        result.counts["peak_in_flight"] = result.info["peak_in_flight"]


def _tally(result: RoundResult, replies: list[Any]) -> None:
    for reply in replies:
        if isinstance(reply, dict):
            result.completed += 1
        elif isinstance(reply, ServiceError):
            if _is_refusal(reply):
                result.refused += 1
            else:
                result.failed += 1


def _check_accounting(result: RoundResult) -> None:
    accounted = result.completed + result.failed + result.refused + result.crashed
    if accounted != result.submitted:
        result.errors.append(
            f"{result.submitted - accounted} of {result.submitted} "
            "requests unaccounted for"
        )


def _exact_counts(result: RoundResult) -> dict[str, Any]:
    return {
        "completed": result.completed,
        "failed": result.failed,
        "refused": result.refused,
        "crashed": result.crashed,
        "sim.events": result.counters.get("sim.events"),
        "bus.messages": result.counters.get("bus.messages"),
        "sim_latency_p50_s": percentile(result.sim_latency_s, 0.5),
        "sim_latency_p90_s": percentile(result.sim_latency_s, 0.9),
    }


# -- planning ------------------------------------------------------------------ #
def _has(data: str) -> Atom:
    return Atom(data, "Status", Relation.EQ, "ready")


def _ready(*names: str) -> dict[str, dict]:
    return {name: {"Status": "ready"} for name in names}


#: The milestone chain of the plan-mix activity set (src -> ... -> archived).
MILESTONES = ("raw", "tidy", "insight", "report", "archived")


def _second_activity_set() -> list[ActivitySpec]:
    """A second activity set T' with the same shape as plan_mix's T but its
    own activities and data, so its problems get their own digest."""
    renamed = {name: f"s2_{name}" for name in ("src",) + MILESTONES}

    def rename_condition(atom: Atom) -> Atom:
        return Atom(renamed[atom.data], atom.property, atom.relation, atom.value)

    return [
        ActivitySpec(
            f"s2_{spec.name}",
            precondition=rename_condition(spec.precondition),
            effects={renamed[key]: dict(value) for key, value in spec.effects.items()},
        )
        for spec in plan_mix_activities()
    ]


class PlanStream:
    """Sequential planning RPCs over a seeded mix of repeated and novel goals."""

    name = "plan_stream"
    requests = 150
    #: Goal sets introduced per round from each activity set (each set has
    #: 15); every other request repeats a goal set already planned.
    novel = 15
    library_capacity = 64
    gp = {"population_size": 40, "generations": 8, "smax": 12}

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        # The goal sets are introduced in one fixed order, alternating the
        # two activity sets, so every seed asks GP for the same plans in
        # the same order.  The seed places the introductions among the
        # repeats and picks what each repeat asks for.
        keys = {
            tag: [(tag, goals) for target in range(len(MILESTONES)) for goals in _goal_sets(target)]
            for tag in ("T", "T2")
        }
        fixed = random.Random(0)
        for pool in keys.values():
            fixed.shuffle(pool)
        novel = [
            key
            for pair in zip(keys["T"][: self.novel], keys["T2"][: self.novel])
            for key in pair
        ]
        firsts = {0, *rng.sample(range(1, self.requests), len(novel) - 1)}
        schedule: list[tuple[str, tuple[str, ...]]] = []
        seen: list[tuple[str, tuple[str, ...]]] = []
        for index in range(self.requests):
            if index in firsts:
                seen.append(novel[len(seen)])
                schedule.append(seen[-1])
            else:
                schedule.append(rng.choice(seen))
        self.schedule = schedule
        self.distinct = len(seen)
        #: The service removed from the registry halfway through.
        self.kill_at = self.requests // 2

    def describe(self) -> dict[str, Any]:
        return {
            "requests_per_round": self.requests,
            "distinct_goal_sets": self.distinct,
            "library_capacity": self.library_capacity,
            "distinct_to_capacity": round(self.distinct / self.library_capacity, 3),
            "novel_requests": 2 * self.novel,
            "kill_after_request": self.kill_at,
        }

    def setup(self) -> dict[str, Any]:
        first, second = plan_mix_activities(), _second_activity_set()
        kb = builtin_shell("plan-stream-ontology")
        for spec in first + second:
            kb.new_instance(
                SERVICE, {"Name": spec.name, "Type": "End-user"}, id=f"SVC-{spec.name}"
            )
        library = PlanLibrary(max_entries=self.library_capacity)
        env, services, _fleet = standard_environment(
            plan_mix_services(),
            containers=2,
            planner_config=GPConfig(library="on", **self.gp),
            plan_library=library,
            knowledge_base=kb,
        )
        sets = {"T": first, "T2": second}
        problems = {
            key: PlanningProblem.build(
                f"plan-stream-{key[0]}-{'-'.join(key[1])}",
                _ready("src" if key[0] == "T" else "s2_src"),
                tuple(_has(g if key[0] == "T" else f"s2_{g}") for g in key[1]),
                sets[key[0]],
            )
            for key in set(self.schedule)
        }
        return {
            "env": env,
            "services": services,
            "library": library,
            "kb": kb,
            "problems": problems,
        }

    def run(self, state: dict[str, Any]) -> RoundResult:
        env, services = state["env"], state["services"]
        library, kb, problems = state["library"], state["kb"], state["problems"]
        coordination = services.coordination
        engine = env.engine
        result = RoundResult(submitted=len(self.schedule))
        replies: list[Any] = [None] * len(self.schedule)
        killed: list[str] = []

        def drive():
            for index, key in enumerate(self.schedule):
                if index == self.kill_at:
                    killed.extend(_remove_used_service(library, kb))
                sim_start, host_start = engine.now, time.perf_counter()
                try:
                    reply = yield from coordination.call(
                        coordination.planner_name, "plan", {"problem": problems[key]}
                    )
                except ServiceError as exc:
                    replies[index] = exc
                    continue
                result.host_latency_s.append(time.perf_counter() - host_start)
                result.sim_latency_s.append(engine.now - sim_start)
                replies[index] = reply

        engine.spawn(drive(), name="plan-stream-client")
        env.run(max_events=MAX_EVENTS)
        state["replies"] = replies
        state["killed"] = killed
        _tally(result, replies)
        result.counters = _grid_counters(env, services)
        for kind, count in library.stats().counters.items():
            result.counters[f"planner.library.{kind}"] = count
        return result

    def check(self, state: dict[str, Any], result: RoundResult) -> None:
        sources: dict[str, int] = {}
        #: Error findings of the plan GP last produced for each goal set.
        produced: dict[tuple[str, tuple[str, ...]], Counter] = {}
        flawed_reuse = 0
        for index, reply in enumerate(state["replies"]):
            if not isinstance(reply, dict):
                continue
            source = reply.get("source", "none")
            sources[source] = sources.get(source, 0) + 1
            result.goal_reached += bool(reply.get("solved"))
            key = self.schedule[index]
            errors = Counter(
                finding.code
                for finding in analyze_process(reply["process"], kb=state["kb"])
                if finding.severity is Severity.ERROR
            )
            if source in ("miss", "seed"):
                produced[key] = errors
                continue
            if not reply.get("verified"):
                result.errors.append(f"request {index}: unverified {source}")
            # A reused plan may carry no error finding that the plan GP
            # produced for this goal set did not already carry: the
            # library returns it unchanged, and a repair may only swap
            # the flagged terminals.
            added = errors - produced.get(key, Counter())
            if added:
                result.errors.append(
                    f"request {index}: {source} plan adds analyzer errors {dict(added)}"
                )
            flawed_reuse += bool(errors)
        if not state["killed"]:
            result.errors.append("no stored plan used a service to remove")
        _check_accounting(result)
        result.counts.update(_exact_counts(result))
        result.counts.update({f"source.{k}": v for k, v in sorted(sources.items())})
        result.counts["source_sequence"] = "".join(
            reply.get("source", "-")[0] if isinstance(reply, dict) else "x"
            for reply in state["replies"]
        )
        result.counts["solved"] = result.goal_reached
        result.info.update(
            sources=sources,
            killed=state["killed"],
            reused_plans_with_analyzer_errors=flawed_reuse,
        )


def _goal_sets(target: int) -> list[tuple[str, ...]]:
    """The goal sets ending at milestone *target*: every contiguous window
    of the milestone chain that ends there.  Intermediate milestones stay
    explicit subgoals, which gives the GP a gradient toward the chain (the
    shape ``plan_mix`` uses)."""
    return [MILESTONES[first : target + 1] for first in range(target + 1)]


#: Activities with a same-effect substitute in their set, so a plan that
#: loses one can be repaired by a terminal swap.
SUBSTITUTABLE = tuple(
    f"{prefix}{name}"
    for prefix in ("", "s2_")
    for name in ("analyze_a", "analyze_b", "publish", "publish_backup")
)


def _remove_used_service(library: PlanLibrary, kb) -> list[str]:
    """Remove from the registry the substitutable service that most stored
    plans use, so later hits on those plans re-verify stale and get
    repaired."""
    users: Counter = Counter()
    for entry in library.entries():
        used = entry.plan.activities()
        users.update(name for name in SUBSTITUTABLE if name in used)
    if not users:
        return []
    service = min(users, key=lambda name: (-users[name], name))
    kb.remove_instance(f"SVC-{service}")
    return [service]


# -- the Section-4 case study ------------------------------------------------------ #
class VirolabFaulty:
    """Figure-10 reconstruction cases with container failures injected.

    ``repro.virolab`` (and scipy) is imported inside the methods, so the
    other workloads' ``peak_rss_mb`` does not carry it.
    """

    name = "virolab_faulty"
    cases = 6
    containers = 3
    failure_probability = 0.3
    size = 16
    #: The case study's own image count; fewer images leave some volumes
    #: short of the 8-angstrom goal at this size.
    images = 40
    pod_directions = 64
    goal_resolution = 8.0

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.data_seeds = [rng.randrange(1 << 30) for _ in range(self.cases)]
        #: Reference-pipeline resolution per case index (see check()).
        self._pipeline: dict[int, float] = {}

    def describe(self) -> dict[str, Any]:
        return {
            "cases_per_round": self.cases,
            "containers": self.containers,
            "failure_probability": self.failure_probability,
            "volume_size": self.size,
            "images": self.images,
        }

    def setup(self) -> dict[str, Any]:
        from repro.virolab import setup_virolab_case

        env, services, _fleet = self._grid()
        staged = []
        for index, data_seed in enumerate(self.data_seeds):
            case = setup_virolab_case(
                services.storage,
                size=self.size,
                count=self.images,
                seed=data_seed,
                goal_resolution=self.goal_resolution,
            )
            case["payloads"] = {
                name: services.storage.get(key)
                for name, key in case["payload_keys"].items()
            }
            case["payloads"]["D1"] = dict(
                case["payloads"]["D1"], directions=self.pod_directions
            )
            staged.append(case)
        for index, case in enumerate(staged):
            self._stage(services.storage, index, case)
        return {"env": env, "services": services, "cases": staged}

    def _grid(self):
        from repro.virolab import virolab_grid

        return virolab_grid(
            containers=self.containers,
            failure_probability=self.failure_probability,
        )

    @staticmethod
    def _stage(storage, index: int, case: dict[str, Any]) -> None:
        """Stage case *index* under its own keys, each payload carrying the
        format metadata that makes the containers plan a transfer."""
        keys = {}
        for name, payload in case["payloads"].items():
            key = f"case-{index}/{name}"
            nbytes = float(getattr(payload, "nbytes", 4096))
            storage.put(key, payload, format={"size": nbytes, "compressed": name == "D7"})
            keys[name] = key
        case["payload_keys"] = keys

    def run(self, state: dict[str, Any]) -> RoundResult:
        from repro.virolab import planning_problem, process_description

        cases = state["cases"]
        result = RoundResult(submitted=0)
        replies: list[Any] = [None] * len(cases)
        position = [0]

        def drive(env, services):
            engine = env.engine
            coordination = services.coordination
            while position[0] < len(cases):
                index = position[0]
                case = cases[index]
                result.submitted += 1
                sim_start, host_start = engine.now, time.perf_counter()
                try:
                    reply = yield from coordination.call(
                        "coordination",
                        "execute-task",
                        {
                            "process": process_description(),
                            "initial_data": case["initial_data"],
                            "payload_keys": case["payload_keys"],
                            "work": case["work"],
                            "problem": planning_problem(),
                            "task": f"case-{index}",
                        },
                    )
                except ServiceError as exc:
                    replies[index] = exc
                else:
                    result.host_latency_s.append(time.perf_counter() - host_start)
                    result.sim_latency_s.append(engine.now - sim_start)
                    replies[index] = reply
                position[0] += 1

        env, services = state["env"], state["services"]
        counters: dict[str, float] = {}
        while True:
            env.engine.spawn(drive(env, services), name="virolab-user")
            try:
                env.run(max_events=MAX_EVENTS)
                lost = None
            except Exception as exc:  # noqa: BLE001 - the program crashed
                lost = f"{type(exc).__name__}: {exc}"
            _add_counters(counters, _grid_counters(env, services))
            if position[0] >= len(cases):
                break
            # The in-flight case never got a reply: an exception escaped
            # the engine, or the engine drained with the case parked.
            # Count it as lost, then carry on with a fresh grid so the
            # remaining cases are still enacted.
            result.crashed += 1
            state.setdefault("crashes", []).append(
                f"case-{position[0]}: {lost or 'engine drained without a reply'}"
            )
            position[0] += 1
            if position[0] >= len(cases):
                break
            env, services, _fleet = self._grid()
            for index in range(position[0], len(cases)):
                self._stage(services.storage, index, cases[index])
        state["replies"] = replies
        _tally(result, replies)
        result.counters = counters
        return result

    def check(self, state: dict[str, Any], result: RoundResult) -> None:
        for index, reply in enumerate(state["replies"]):
            if not isinstance(reply, dict):
                continue
            d12 = reply["data"].get("D12", {})
            # Cons1 ends the Figure-10 loop once the resolution reaches the
            # goal.  A replanned case enacts a planner-built process whose
            # goal is the planning problem's: D12 exists as a resolution file.
            reached = d12.get("Classification") == "Resolution File" and (
                reply["replans"] > 0 or d12.get("Value", float("inf")) <= self.goal_resolution
            )
            if reached:
                result.goal_reached += 1
            else:
                result.errors.append(f"case-{index}: D12 {d12} misses the goal")
        reference = next(
            (
                index
                for index, reply in enumerate(state["replies"])
                if isinstance(reply, dict)
                and reply["replans"] == 0
                and reply["activities_run"] == 7
            ),
            None,
        )
        if reference is not None:
            expected = self._pipeline_resolution(state["cases"][reference], reference)
            got = state["replies"][reference]["data"]["D12"]["Value"]
            if abs(got - expected) > 1e-9 * max(1.0, abs(expected)):
                result.errors.append(
                    f"case-{reference}: grid resolution {got} != pipeline {expected}"
                )
        result.counts["resolutions"] = [
            reply["data"]["D12"].get("Value") if isinstance(reply, dict) else None
            for reply in state["replies"]
        ]
        _check_accounting(result)
        result.counts.update(_exact_counts(result))
        result.counts["replans"] = result.counters.get("services.coordination.replans")
        result.info["crashes"] = state.get("crashes", [])

    def _pipeline_resolution(self, case: dict[str, Any], index: int) -> float:
        """First-iteration resolution of the in-process reference pipeline
        on case *index*'s data (every round enacts the same cases, so it is
        computed once per run)."""
        from repro.virolab import run_pipeline

        if index not in self._pipeline:
            self._pipeline[index] = run_pipeline(
                case["dataset"],
                case["initial_model"],
                goal_resolution=self.goal_resolution,
                max_iterations=1,
                pod_directions=self.pod_directions,
                seed=self.data_seeds[index],
            ).history[0].resolution
        return self._pipeline[index]


def _add_counters(into: dict[str, float], more: dict[str, float]) -> None:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value


WORKLOADS = {
    workload.name: workload
    for workload in (EnactBurst, EnactStream, PlanStream, VirolabFaulty)
}
