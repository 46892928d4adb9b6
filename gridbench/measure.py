"""Round loop, metric reduction and reporting for the grid benchmark."""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from tracer import Tracer, write_spans
from workloads import RoundResult, percentile

__all__ = ["Report", "measure", "END_TO_END", "PER_LAYER"]

#: Minimum rounds of each kind in one run, whatever ``--seconds`` says.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
#: Spans kept from the first traced round for the dump.
SPAN_KEEP = 20_000

#: End-to-end metrics: name -> unit.  Every workload reports every one.
END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SERVICES = (
    "coordination", "scheduling", "matchmaking", "brokerage",
    "monitoring", "planning", "storage",
)

#: Per-layer metrics: name -> unit.  Every workload reports every one.
PER_LAYER: dict[str, str] = {
    "sim.events": "count",
    "sim.events_per_case": "count",
    "sim.self_s": "s",
    "bus.messages": "count",
    "bus.messages_per_case": "count",
    "bus.route_s": "s",
    "bus.trace_record_s": "s",
    "bus.metrics_incs": "count",
    "bus.metrics_inc_s": "s",
    "bus.dropped": "count",
    "bus.retries": "count",
    "grid.handler_steps": "count",
    "grid.container.busy_s": "s",
    "grid.container.failures": "count",
    "grid.activity_success_ratio": "ratio",
    "grid.transfer.count": "count",
    "grid.transfer.mb": "MB",
    "grid.transfer_s": "s",
    **{f"services.{svc}.requests": "count" for svc in SERVICES},
    **{f"services.{svc}.busy_s": "s" for svc in SERVICES},
    "services.scheduling.us_per_decision": "us",
    "services.coordination.replans": "count",
    "services.coordination.refused": "count",
    "ontology.queries": "count",
    "ontology.query_s": "s",
    "process.program_cache_hit_ratio": "ratio",
    "process.compile_s": "s",
    "analysis.calls": "count",
    "analysis.busy_s": "s",
    "analysis.prefilter_rejected_ratio": "ratio",
    "planner.gp_runs": "count",
    "planner.gp_s": "s",
    "planner.evaluations": "count",
    "planner.simulations": "count",
    "planner.fitness_cache_hit_ratio": "ratio",
    "planner.evaluate_s": "s",
    "planner.library.lookups": "count",
    "planner.library.hit_ratio": "ratio",
    "planner.library.repairs": "count",
    "planner.library.stores": "count",
    "planner.library_s": "s",
    "obs.spans_closed": "count",
    "obs.span_s": "s",
    "obs.journal_events": "count",
    "obs.journal_s": "s",
    "obs.mirror_mb": "MB",
    "obs.query_s": "s",
    "obs.evicted": "count",
    "virolab.kernel_calls": "count",
    "virolab.pod_s": "s",
    "virolab.p3dr_s": "s",
    "virolab.por_s": "s",
    "virolab.psf_s": "s",
    "bench.trace_overhead_pct": "%",
}


@dataclass
class Round:
    traced: bool
    setup_s: float
    wall_s: float
    result: RoundResult
    tracer: Tracer | None = None

    @property
    def throughput(self) -> float:
        return self.result.completed / self.wall_s


@dataclass
class Report:
    lines: list[str] = field(default_factory=list)
    result: dict[str, Any] = field(default_factory=dict)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _beyond(values: list[float], cut: float) -> int:
    return sum(1 for value in values if value > cut)


def _run_round(workload, traced: bool, keep: int) -> Round:
    # Collect the previous round's grid now, untimed: each round stands for
    # a fresh grid.  The collector stays enabled inside the timed regions.
    gc.collect()
    started = perf_counter()
    state = workload.setup()
    setup_s = perf_counter() - started
    tracer = Tracer(keep=keep) if traced else None
    if tracer is not None:
        tracer.install()
    started = perf_counter()
    try:
        result = workload.run(state)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = perf_counter() - started
    workload.check(state, result)
    return Round(traced, setup_s, wall_s, result, tracer)


def measure(workload, seconds: float, traced: bool, out_dir: Path, seed: int) -> Report:
    """Repeat rounds for *seconds* and reduce them to the metrics."""
    rounds: list[Round] = []
    started = perf_counter()
    deadline = started + seconds
    while True:
        # Traced runs alternate untraced and traced rounds, so the overhead
        # compares rounds taken under the same machine conditions.
        want_traced = traced and len(rounds) % 2 == 1
        first_traced = want_traced and not any(r.traced for r in rounds)
        rounds.append(_run_round(workload, want_traced, SPAN_KEEP if first_traced else 0))
        plain = sum(1 for r in rounds if not r.traced)
        traced_done = len(rounds) - plain
        now = perf_counter()
        # Stop once another round would end nearer past the deadline than
        # before it, so a run lasts about ``seconds`` whatever a round costs.
        per_round = (now - started) / len(rounds)
        if (
            now + per_round / 2 >= deadline
            and plain >= (MIN_TRACED_ROUNDS if traced else MIN_ROUNDS)
            and (not traced or traced_done >= MIN_TRACED_ROUNDS)
        ):
            break
    report = Report()
    errors = _check_rounds(rounds)
    submitted = sum(r.result.submitted for r in rounds)
    failed = sum(r.result.failed + r.result.refused + r.result.crashed for r in rounds)
    report.lines.extend(_describe(workload, rounds))
    report.lines.extend(_named_metrics(workload, rounds))
    if traced:
        metrics = _per_layer(rounds)
        report.lines.extend(_write_artefacts(workload, rounds, metrics, out_dir, seed))
    else:
        metrics = _end_to_end(rounds)
    for name, (value, unit) in metrics.items():
        report.lines.append(f"{name} = {value:.6g} {unit}")
    for error in errors[:20]:
        report.lines.append(f"CHECK FAILED: {error}")
    report.result = {
        "correct": not errors,
        "attempted": submitted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return report


def _check_rounds(rounds: list[Round]) -> list[str]:
    """Every round's output checks, plus exact repetition of the counts."""
    errors: list[str] = []
    reference = rounds[0].result.counts
    for index, r in enumerate(rounds):
        errors.extend(f"round {index}: {e}" for e in r.result.errors)
        if r.result.counts != reference:
            differing = sorted(
                key
                for key in set(reference) | set(r.result.counts)
                if reference.get(key) != r.result.counts.get(key)
            )
            errors.append(
                f"round {index} ({'traced' if r.traced else 'untraced'}) "
                f"counts differ from round 0: {differing}"
            )
    return errors


def _end_to_end(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    latencies = [s for r in rounds for s in r.result.host_latency_s]
    values = {
        "throughput_per_s": statistics.median(r.throughput for r in rounds),
        "latency_p50_ms": statistics.median(latencies) * 1e3 if latencies else 0.0,
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _named_metrics(workload, rounds: list[Round]) -> list[str]:
    """The workload's metrics under their own names (cases or plans),
    with the sample counts behind each percentile."""
    plain = [r for r in rounds if not r.traced]
    first = rounds[0].result
    submitted = sum(r.result.submitted for r in rounds)
    lost = sum(r.result.failed + r.result.refused + r.result.crashed for r in rounds)
    lines = []
    rate = statistics.median(r.throughput for r in plain)
    host = [s * 1e3 for r in plain for s in r.result.host_latency_s]
    if workload.name == "plan_stream":
        lines.append(f"plans_per_s = {rate:.6g} plans/s")
        for q in (0.5, 0.9):
            cut = percentile(host, q)
            if q == 0.5 or _beyond(host, cut) >= 10:
                lines.append(
                    f"plan_latency_p{int(q * 100)}_ms = {cut:.6g} ms "
                    f"({len(host)} requests, {_beyond(host, cut)} beyond)"
                )
        solved = sum(r.result.goal_reached for r in rounds)
        lines.append(f"plans_solved_frac = {_ratio(solved, submitted):.6g}")
    else:
        lines.append(f"cases_per_s = {rate:.6g} cases/s")
        sim = first.sim_latency_s
        for q in (0.5, 0.9):
            if not sim:
                break
            cut = percentile(sim, q)
            if q == 0.5 or _beyond(sim, cut) >= 10:
                lines.append(
                    f"case_sim_latency_p{int(q * 100)}_s = {cut:.6g} s "
                    f"(simulated, {len(sim)} cases per round, {_beyond(sim, cut)} beyond)"
                )
    lines.append(f"failed_frac = {_ratio(lost, submitted):.6g}")
    return lines


def _describe(workload, rounds: list[Round]) -> list[str]:
    plain = sum(1 for r in rounds if not r.traced)
    lines = [
        f"workload {workload.name}: {json.dumps(workload.describe(), sort_keys=True)}",
        f"rounds: {plain} untraced, {len(rounds) - plain} traced; throughput per round: "
        + " ".join(f"{r.throughput:.4g}{'T' if r.traced else ''}" for r in rounds),
    ]
    counts = json.dumps(rounds[0].result.counts, sort_keys=True, default=str)
    lines.append(f"exact counts: {hashlib.blake2b(counts.encode(), digest_size=8).hexdigest()}")
    info = rounds[0].result.info
    if info:
        lines.append(f"round info: {json.dumps(info, sort_keys=True, default=str)}")
    return lines


# -- per-layer metrics ------------------------------------------------------ #
def _layer_values(r: Round) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    t = r.tracer
    assert t is not None
    c = r.result.counters
    cases = r.result.submitted
    values: dict[str, float] = {
        "sim.events": c["sim.events"],
        "sim.events_per_case": _ratio(c["sim.events"], cases),
        "sim.self_s": t.total("sim/", 2),
        "bus.messages": c["bus.messages"],
        "bus.messages_per_case": _ratio(c["bus.messages"], cases),
        "bus.route_s": t.total("bus.route/"),
        "bus.trace_record_s": t.total("bus.trace_record/"),
        "bus.metrics_incs": t.invocations("bus.metrics_inc/"),
        "bus.metrics_inc_s": t.total("bus.metrics_inc/"),
        "bus.dropped": c["bus.dropped"],
        "bus.retries": c["bus.retries"],
        "grid.handler_steps": t.total("grid.agent/_run_handler", 0),
        "grid.container.busy_s": t.total("grid.container/") - t.total("grid.payload_compute/"),
        "grid.container.failures": c["grid.activities_failed"],
        "grid.activity_success_ratio": _ratio(
            c["grid.activities_completed"],
            c["grid.activities_completed"] + c["grid.activities_failed"],
        ),
        "grid.transfer.count": t.invocations("grid.transfer/execute_plan"),
        "grid.transfer.mb": t.counts.get("grid.transfer.bytes", 0.0) / 1e6,
        "grid.transfer_s": t.total("grid.transfer/"),
    }
    for svc in SERVICES:
        values[f"services.{svc}.requests"] = t.invocations(f"services.{svc}/")
        values[f"services.{svc}.busy_s"] = t.total(f"services.{svc}/")
    values["services.scheduling.us_per_decision"] = 1e6 * _ratio(
        t.total("services.scheduling/handle_schedule"),
        t.invocations("services.scheduling/handle_schedule"),
    )
    values["services.coordination.replans"] = c["services.coordination.replans"]
    values["services.coordination.refused"] = c["services.coordination.refused"]
    values["ontology.queries"] = t.invocations("ontology.query/")
    values["ontology.query_s"] = t.total("ontology.query/")
    values["process.program_cache_hit_ratio"] = _ratio(
        c["process.program_cache_hit"],
        c["process.program_cache_hit"] + c["process.program_cache_miss"],
    )
    values["process.compile_s"] = t.total("process.compile/")
    values["analysis.calls"] = t.invocations("analysis/")
    values["analysis.busy_s"] = t.total("analysis/")
    evaluations = t.counts.get("planner.evaluations", 0)
    values["analysis.prefilter_rejected_ratio"] = _ratio(
        t.counts.get("planner.analysis_rejected", 0), evaluations
    )
    hits = t.counts.get("planner.cache_hits", 0)
    misses = t.counts.get("planner.cache_misses", 0)
    values["planner.gp_runs"] = t.invocations("planner.gp/")
    values["planner.gp_s"] = t.total("planner.gp/")
    values["planner.evaluations"] = evaluations
    values["planner.simulations"] = misses - t.counts.get("planner.analysis_rejected", 0)
    values["planner.fitness_cache_hit_ratio"] = _ratio(hits, hits + misses)
    values["planner.evaluate_s"] = t.total("planner.evaluate/")
    lookups = t.invocations("planner.library/get")
    values["planner.library.lookups"] = lookups
    values["planner.library.hit_ratio"] = _ratio(
        c.get("planner.library.hit", 0) + c.get("planner.library.repair", 0), lookups
    )
    values["planner.library.repairs"] = c.get("planner.library.repair", 0)
    values["planner.library.stores"] = c.get("planner.library.store", 0)
    values["planner.library_s"] = t.total("planner.library/")
    values["obs.spans_closed"] = c["obs.spans_closed"]
    values["obs.span_s"] = t.total("obs.span/")
    values["obs.journal_events"] = c["obs.journal_events"]
    values["obs.journal_s"] = t.total("obs.journal/")
    values["obs.mirror_mb"] = c.get("obs.mirror_bytes", 0) / 1e6
    values["obs.query_s"] = t.total("services.monitoring/query/")
    values["obs.evicted"] = c["obs.spans_evicted"] + c["obs.journal_lost"]
    values["virolab.kernel_calls"] = t.invocations("virolab.")
    for kernel in ("pod", "p3dr", "por", "psf"):
        values[f"virolab.{kernel}_s"] = t.total(f"virolab.{kernel}/")
    return values


#: Per-layer metrics that are host times (reduced by the median over the
#: traced rounds); every other one is a count that repeats exactly.
_TIMED_UNITS = ("s", "us")


def _per_layer(rounds: list[Round]) -> dict[str, tuple[float, str]]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round = [_layer_values(r) for r in traced]
    values: dict[str, tuple[float, str]] = {}
    for name, unit in PER_LAYER.items():
        if name == "bench.trace_overhead_pct":
            untraced = statistics.median(r.throughput for r in plain)
            with_tracing = statistics.median(r.throughput for r in traced)
            values[name] = (100.0 * (untraced / with_tracing - 1.0), unit)
        elif unit in _TIMED_UNITS:
            values[name] = (statistics.median(v[name] for v in per_round), unit)
        else:
            values[name] = (per_round[0][name], unit)
    return values


def _layer_table(tracer: Tracer) -> list[str]:
    root = tracer.total("sim/")
    layers = tracer.layer_self_times()
    lines = [f"{'layer':<12} {'self_s':>10} {'share':>8}"]
    for layer, self_s in sorted(layers.items(), key=lambda item: -item[1]):
        lines.append(f"{layer:<12} {self_s:>10.4f} {100 * _ratio(self_s, root):>7.2f}%")
    lines.append(f"{'(root)':<12} {root:>10.4f} {'100.00%':>8}")
    lines.append("")
    lines.append(f"{'span':<52} {'spans':>9} {'total_s':>9} {'self_s':>9}")
    ranked = sorted(tracer.stats.items(), key=lambda item: -item[1][2])
    for name, (count, total, self_s) in ranked[:30]:
        lines.append(f"{name:<52} {int(count):>9} {total:>9.4f} {self_s:>9.4f}")
    return lines


def _write_artefacts(workload, rounds, metrics, out_dir: Path, seed: int) -> list[str]:
    """Span dump, layer-share table and metrics of the first traced round."""
    first = next(r for r in rounds if r.traced)
    tracer = first.tracer
    assert tracer is not None
    table = _layer_table(tracer)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{workload.name}-seed{seed}"
    origin = tracer.spans[0].start if tracer.spans else 0.0
    dumped = write_spans(f"{stem}.trace.json", tracer.spans, origin)
    Path(f"{stem}.layers.txt").write_text("\n".join(table) + "\n")
    with open(f"{stem}.metrics.json", "w") as fh:
        json.dump(
            {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            fh, indent=1, sort_keys=True,
        )
        fh.write("\n")
    shares = [f"layer shares of the first traced round ({workload.name}):"] + table
    shares.append(
        f"span dump: {stem}.trace.json ({dumped} events; first {SPAN_KEEP} spans kept)"
    )
    return shares

