"""Host-time tracing of the grid's layers, installed from outside the program.

:class:`Tracer` patches the public entry points of every layer (the
:data:`ENTRY_POINTS` table) with wrappers that record one host-time span
per call, and restores the originals on :meth:`Tracer.uninstall`.  Nothing
under ``src/`` knows about it, and an untraced round runs the unpatched
program.

Rules the wrappers follow:

* A name is patched where its caller looks it up: a class attribute for
  methods, the importing module's global for functions bound at import
  (``repro.virolab.services.pod``, ``repro.services.coordination.
  analyze_process``, ...).
* Handlers and scoped processes are generators.  Their host time is
  charged per resumption (each ``send``), never from creation to
  exhaustion, so a handler parked on an RPC is not charged for the other
  cases' work that runs meanwhile.
* Spans nest through one stack.  A span's self time is its duration minus
  the time its child spans cover; the root is ``Engine.run``, so its self
  time is the engine's own dispatch plus anything left unattributed.
* Spans stay in memory; :func:`write_spans` writes them out after the run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter
from types import GeneratorType
from typing import Any

__all__ = ["Tracer", "HostSpan", "write_spans", "layer_of"]


@dataclass
class HostSpan:
    """One recorded call, shaped for :func:`repro.obs.export.chrome_trace`."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    kind: str = "host"
    trace_id: str | None = None
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def agent(self) -> str:
        return layer_of(self.name)

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(span_name: str) -> str:
    """``"services.scheduling/handle_schedule"`` -> ``"services"``."""
    return span_name.split("/", 1)[0].split(".", 1)[0]


#: Service classes whose ``handle_*`` methods are charged to
#: ``services.<key>``; every other agent's handlers go to ``services.other``.
SERVICE_CLASSES = {
    "repro.services.coordination.CoordinationService": "coordination",
    "repro.services.scheduling.SchedulingService": "scheduling",
    "repro.services.matchmaking.MatchmakingService": "matchmaking",
    "repro.services.brokerage.BrokerageService": "brokerage",
    "repro.services.monitoring.MonitoringService": "monitoring",
    "repro.services.planning.PlanningService": "planning",
    "repro.services.storage.PersistentStorageService": "storage",
    "repro.services.information.InformationService": "other",
    "repro.services.ontology_service.OntologyService": "other",
    "repro.services.authentication.AuthenticationService": "other",
    "repro.services.simulation_service.SimulationService": "other",
}

#: Monitoring reads a user makes about a finished case (``obs.query_s``).
OBS_QUERIES = ("handle_journal", "handle_provenance", "handle_case_profile")

#: (where the name is looked up, attribute, span name).  Plain calls:
#: one span per call.
ENTRY_POINTS = (
    ("repro.sim.engine.Engine", "run", "sim/run"),
    ("repro.bus.router.Router", "route", "bus.route/route"),
    ("repro.bus.router.Router", "route_many", "bus.route/route_many"),
    ("repro.bus.router.Router", "_deliver", "bus.deliver/_deliver"),
    ("repro.bus.tracing.MessageTrace", "record", "bus.trace_record/record"),
    ("repro.bus.metrics.MetricsRegistry", "inc", "bus.metrics_inc/inc"),
    ("repro.bus.metrics.MetricsRegistry", "observe", "bus.metrics_observe/observe"),
    ("repro.grid.container.EndUserService", "run", "grid.payload_compute/run"),
    ("repro.grid.container", "plan_transfer", "grid.transfer/plan_transfer"),
    ("repro.ontology.query.Query", "run", "ontology.query/run"),
    ("repro.process.program.EnactmentProgram", "__init__", "process.compile/EnactmentProgram"),
    ("repro.services.coordination", "analyze_process", "analysis/analyze_process"),
    ("repro.services.planning", "verify_reusable", "analysis/verify_reusable"),
    ("repro.planner.engine.EvaluationEngine", "evaluate_many", "planner.evaluate/evaluate_many"),
    ("repro.planner.library.PlanLibrary", "get", "planner.library/get"),
    ("repro.planner.library.PlanLibrary", "related", "planner.library/related"),
    ("repro.planner.library.PlanLibrary", "put", "planner.library/put"),
    ("repro.obs.spans.SpanRecorder", "start", "obs.span/start"),
    ("repro.obs.journal.CaseJournal", "append", "obs.journal/append"),
    ("repro.obs.journal.CaseJournal", "append_traced", "obs.journal/append_traced"),
    ("repro.virolab.services", "pod", "virolab.pod/pod"),
    ("repro.virolab.services", "p3dr", "virolab.p3dr/p3dr"),
    ("repro.virolab.services", "por", "virolab.por/por"),
    ("repro.virolab.services", "psf", "virolab.psf/psf"),
)


def _resolve(path: str) -> Any:
    """Import ``pkg.module`` or ``pkg.module.Class``."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Records host-time spans while installed.

    ``stats[name] = [spans, total_s, self_s]``; ``calls[name]`` counts
    invocations (a generator handler is one call but one span per
    resumption); ``counts`` holds values read off return values (GP run
    telemetry, transfer bytes).  With ``keep`` > 0 the first ``keep``
    spans are kept as :class:`HostSpan` records for the dump.
    """

    def __init__(self, keep: int = 0) -> None:
        self.keep = keep
        self.spans: list[HostSpan] = []
        self.stats: dict[str, list[float]] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list[Any]] = []
        self._next_id = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------ #
    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        row = self.stats.get(name)
        if row is None:
            row = self.stats[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        stack = self._stack
        if stack:
            stack[-1][2] += duration
        if len(self.spans) < self.keep:
            parent = stack[-1][3] if stack else None
            self.spans.append(HostSpan(span_id, parent, name, start, end))

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- wrappers -------------------------------------------------------- #
    def _call(self, fn, name: str):
        tracer = self
        calls = self.calls
        calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            calls[name] += 1
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def _steps(self, gen, name: str):
        """Drive *gen*, charging each resumption to a span named *name*."""
        enter, exit_ = self.enter, self.exit
        value: Any = None
        error: BaseException | None = None
        while True:
            enter(name)
            try:
                if error is None:
                    yielded = gen.send(value)
                else:
                    yielded = gen.throw(error)
            except StopIteration as stop:
                exit_()
                return stop.value
            except BaseException:
                exit_()
                raise
            exit_()
            error = None
            try:
                value = yield yielded
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the handler
                error, value = exc, None

    def _handler(self, fn, name: str):
        tracer = self
        calls = self.calls
        calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            calls[name] += 1
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if isinstance(result, GeneratorType):
                return tracer._steps(result, name)
            return result

        return traced

    def _span_end(self, fn):
        """``SpanRecorder.end``: a ``None`` span (recording off) is a no-op
        the caller pays for, not span work."""
        traced = self._call(fn, "obs.span/end")

        def end(recorder, span, *args, **kwargs):
            if span is None:
                return fn(recorder, span, *args, **kwargs)
            return traced(recorder, span, *args, **kwargs)

        return end

    def _gp_plan(self, fn):
        tracer = self
        traced = self._call(fn, "planner.gp/plan")

        def plan(*args, **kwargs):
            result = traced(*args, **kwargs)
            tracer.count("planner.evaluations", result.evaluations)
            tracer.count("planner.cache_hits", result.cache_hits)
            tracer.count("planner.cache_misses", result.cache_misses)
            tracer.count("planner.analysis_rejected", result.analysis_rejected)
            return result

        return plan

    def _execute_plan(self, fn):
        tracer = self
        traced = self._call(fn, "grid.transfer/execute_plan")

        def execute_plan(plan, *args, **kwargs):
            result = traced(plan, *args, **kwargs)
            tracer.count("grid.transfer.bytes", result[0])
            return result

        return execute_plan

    def _spawn_scoped(self, fn):
        """Fork branches run as scoped processes of their agent: charge
        their resumptions to the agent's layer, like its handlers."""
        tracer = self

        def spawn_scoped(agent, gen, name=None):
            return fn(agent, tracer._steps(gen, _agent_span(agent, "spawn_scoped")), name)

        return spawn_scoped

    def _run_handler(self, fn):
        """The agent's request dispatch: one span per handler resumption
        (the handler's own span nests inside it)."""
        tracer = self

        def run_handler(agent, message):
            return tracer._steps(fn(agent, message), "grid.agent/_run_handler")

        return run_handler

    # -- installation ---------------------------------------------------- #
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attr, name in ENTRY_POINTS:
            owner = _resolve(path)
            self._patch(owner, attr, self._call(getattr(owner, attr), name))
        spans = _resolve("repro.obs.spans.SpanRecorder")
        self._patch(spans, "end", self._span_end(spans.end))
        gp = _resolve("repro.planner.gp.GPPlanner")
        self._patch(gp, "plan", self._gp_plan(gp.plan))
        container_module = _resolve("repro.grid.container")
        self._patch(
            container_module,
            "execute_plan",
            self._execute_plan(container_module.execute_plan),
        )
        agent = _resolve("repro.grid.agent.Agent")
        self._patch(agent, "spawn_scoped", self._spawn_scoped(agent.spawn_scoped))
        self._patch(agent, "_run_handler", self._run_handler(agent._run_handler))
        container = _resolve("repro.grid.container.ApplicationContainer")
        handler_classes = [(container, "grid.container")] + [
            (_resolve(path), f"services.{key}") for path, key in SERVICE_CLASSES.items()
        ]
        for cls, layer in handler_classes:
            for attr in sorted(vars(cls)):
                if attr.startswith("handle_"):
                    name = f"{layer}/{attr}"
                    if layer == "services.monitoring" and attr in OBS_QUERIES:
                        name = f"{layer}/query/{attr}"
                    self._patch(cls, attr, self._handler(getattr(cls, attr), name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------- #
    def total(self, prefix: str, column: int = 1) -> float:
        """Sum of a stats column over span names starting with *prefix*."""
        return sum(row[column] for name, row in self.stats.items() if name.startswith(prefix))

    def invocations(self, prefix: str) -> int:
        return sum(count for name, count in self.calls.items() if name.startswith(prefix))

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per top-level layer (``sim``, ``bus``, ...)."""
        layers: dict[str, float] = {}
        for name, row in self.stats.items():
            layer = layer_of(name)
            layers[layer] = layers.get(layer, 0.0) + row[2]
        return layers


def _agent_span(agent: Any, attr: str) -> str:
    from repro.grid.container import ApplicationContainer

    if isinstance(agent, ApplicationContainer):
        return f"grid.container/{attr}"
    key = SERVICE_CLASSES.get(f"{type(agent).__module__}.{type(agent).__qualname__}", "other")
    return f"services.{key}/{attr}"


def write_spans(path: str, spans: list[HostSpan], origin: float) -> int:
    """Write *spans* as a Chrome trace-event document (times relative to
    *origin*, in the format :mod:`repro.obs.export` writes sim-time spans)."""
    from repro.obs.export import write_chrome_trace

    shifted = [
        HostSpan(s.span_id, s.parent_id, s.name, s.start - origin, s.end - origin)
        for s in spans
    ]
    return write_chrome_trace(path, shifted)
