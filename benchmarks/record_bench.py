"""Record performance numbers (planner, bus, analysis, shard).

Run from the repo root::

    PYTHONPATH=src python benchmarks/record_bench.py \\
        [--suite all|planner|bus|analysis|shard]

End-to-end throughput, latency, set-up time and memory of the grid are
measured by ``gridbench/`` (``BENCHMARK.json``), and
``tools/bench_gate.py`` gates them against a base revision.  The suites
here record the numbers gridbench does not report.

The **planner** suite (BENCH_planner.json) measures, on the Section-5
case-study problem:

* ``evaluate_many`` on a population-60 batch — serial backend vs. the
  process-pool backend (pool started outside timing, worker-side caching
  off so every round simulates); every timed round (here and in the GP
  rows) runs on a fresh ``planning_problem()``, so no round inherits
  another's transition memo;
* the same batch with only 12 unique structures (in-batch dedup);
* a seeded GP run with the shared fitness cache vs. the identical run
  with caching disabled (unique-simulation counts);
* one full Table-1-budget GP generation sequence at population 60.

The **bus** suite (BENCH_bus.json) measures message-fabric throughput:

* one-way fire-and-forget routing (router + mailbox + trace + metrics),
  at the default trace capacity and at a tiny bounded capacity (eviction
  on the hot path);
* sequential RPC round trips through ``Agent.call`` (request, handler
  dispatch, reply, latency histogram).

The **shard** suite (BENCH_shard.json) measures the sharded
multi-coordinator grid on a 10k-case ``many_cases`` population: one row
per shard count in {1, 2, 4, 8} (fast-path knobs, cases assigned to
shards by consistent hash of the case id, one process per shard), and the
scaling table relative to the single-shard row.  The table is a record,
not a gate: a population small enough for CI cannot amortise process
start-up.

The **analysis** suite (BENCH_analysis.json) measures the semantic
workflow verifier:

* full-pass analyzer throughput (structure + conditions + dataflow +
  resolvability) on the Figure-10 case-study process against the
  case-study knowledge base — and asserts it stays finding-free;
* a seeded GP run with the static pre-filter off vs. on (the ``exact``
  default): best fitness, plan and per-generation history must be
  identical, while ``analysis_rejected`` records how many candidate
  simulations the filter made unnecessary.

Each PR can re-run this and diff against the committed JSON to keep a
perf trajectory.  Timings are medians of --rounds repetitions; the host
block records the CPU budget the numbers were taken under (a single-core
host cannot show a parallel win — the dispatch overhead is then the
honest number).
"""


from __future__ import annotations

import argparse
import os

import numpy as np

from bench_util import (
    host_fingerprint as _host,
    time_fn as _time,
    write_record as _write,
)
from repro.plan import random_tree, terminal
from repro.planner import EvaluationEngine, GPConfig, GPPlanner, PlanEvaluator
from repro.virolab import planning_problem


def _population(problem, count, seed=0):
    rng = np.random.default_rng(seed)
    activities = list(problem.activity_names)
    return [
        random_tree(activities, max_size=40, rng=rng, max_branch=4)
        for _ in range(count)
    ]


def bench_evaluate_many(rounds, workers):
    """Population-60 batches.  Every timed round gets a fresh engine over a
    fresh ``planning_problem()``: an empty fitness cache and a cold
    transition memo, as at the start of a GP run."""
    trees = _population(planning_problem(), 60)
    out = {}

    def evaluate(engine):
        engine.evaluate_many(trees)

    out["serial_60"] = _time(
        evaluate, rounds, setup=lambda: EvaluationEngine(planning_problem())
    )

    engines = []

    def pooled_engine():
        if engines:
            engines[-1].close()  # the previous round's pool
        engine = EvaluationEngine(
            planning_problem(), workers=workers, worker_cache_size=0
        )
        engines.append(engine)
        # Start the workers outside timing on names outside T, which
        # leave the workers' transition memos cold.
        engine.evaluate_many([terminal("warm-up-a"), terminal("warm-up-b")])
        return engine

    try:
        out[f"parallel_60_workers{workers}"] = _time(
            evaluate, rounds, setup=pooled_engine
        )
    finally:
        if engines:
            engines[-1].close()
    out["pool_error"] = next((e.pool_error for e in engines if e.pool_error), None)

    unique = _population(planning_problem(), 12)
    dup_trees = [unique[i % 12] for i in range(60)]
    out["dedup_60_of_12_unique"] = _time(
        lambda engine: engine.evaluate_many(dup_trees),
        rounds,
        setup=lambda: EvaluationEngine(planning_problem()),
    )
    return out


def bench_cache_effect():
    """One seeded GP run with the shared fitness cache and one without,
    each on its own fresh problem."""
    cfg = GPConfig(population_size=60, generations=10)
    cached = GPPlanner(cfg, rng=0).plan(planning_problem())
    uncached_problem = planning_problem()
    uncached = GPPlanner(cfg, rng=0).plan(
        uncached_problem, evaluator=PlanEvaluator(uncached_problem, cache_size=0)
    )
    assert cached.best_fitness == uncached.best_fitness
    return {
        "evaluator_calls": uncached.cache_hits + uncached.cache_misses,
        "simulations_in_batch_dedup_only": uncached.evaluations,
        "simulations_with_shared_cache": cached.evaluations,
        "cache_hit_rate": cached.cache_hit_rate,
        "eval_time_cached_s": cached.eval_time,
        "eval_time_uncached_s": uncached.eval_time,
    }


def bench_gp_run(rounds):
    cfg = GPConfig(population_size=60, generations=10)
    return _time(
        lambda problem: GPPlanner(cfg, rng=1).plan(problem),
        rounds,
        setup=planning_problem,
    )


def _bus_env(trace_capacity=None):
    from repro.grid import Agent, GridEnvironment

    env = GridEnvironment(trace_capacity=trace_capacity)

    class Sink(Agent):
        def handle_ping(self, message):
            return {"pong": True}

    Sink(env, "sink", "core")
    driver = Agent(env, "driver", "core")
    return env, driver


def bench_bus_throughput(rounds, oneway_count=5_000, rpc_count=2_000):
    """Message-fabric throughput: routing, delivery, tracing, metrics."""
    from repro.grid import Message, Performative

    out = {}

    def oneway(trace_capacity):
        def run():
            env, driver = _bus_env(trace_capacity)
            for _ in range(oneway_count):
                driver.send(
                    Message(
                        sender="driver",
                        receiver="sink",
                        performative=Performative.INFORM,
                        action="event",
                    )
                )
            env.run()

        return run

    for label, capacity in (("default_trace", None), ("trace_capacity_256", 256)):
        timing = _time(oneway(capacity), rounds)
        timing["messages_per_s"] = oneway_count / timing["median_s"]
        out[f"oneway_{oneway_count}_{label}"] = timing

    def rpc_run():
        env, driver = _bus_env()

        def main():
            for _ in range(rpc_count):
                yield from driver.call("sink", "ping")

        env.engine.spawn(main(), "main")
        env.run()

    timing = _time(rpc_run, rounds)
    timing["roundtrips_per_s"] = rpc_count / timing["median_s"]
    out[f"rpc_roundtrip_{rpc_count}"] = timing
    return out


#: Every throughput knob at once: tracing off, all three TTL caches
#: effectively run-long, metrics registry off, one-way performance
#: reports, and coalesced same-tick resumption.  The shard suite's rows
#: run on it; each knob is individually opt-in.
FAST_PATH_KNOBS = {
    "tracing": False,
    "match_cache_ttl": 120.0,
    "sched_cache_ttl": 120.0,
    "coord_cache_ttl": 120.0,
    "metrics": False,
    "async_reports": True,
    "coalesce": True,
}


#: Shard counts measured by the shard suite.
SHARD_COUNTS = (1, 2, 4, 8)


def bench_shard(rounds, cases=10_000, containers=8):
    """Sharded-grid scaling: the 10k-case workload at 1/2/4/8 shards."""
    from repro.workloads import run_many_cases, shard_assignment

    out = {"cases": cases, "containers": containers}
    # The big rows cost minutes each; medians over many rounds would not
    # change the scaling story.
    shard_rounds = 1 if rounds <= 3 else 2
    rates = {}
    for shards in SHARD_COUNTS:
        holder = {}

        def run(shards=shards, holder=holder):
            holder["result"] = run_many_cases(
                cases=cases,
                containers=containers,
                shards=shards,
                **FAST_PATH_KNOBS,
            )

        timing = _time(run, shard_rounds)
        result = holder["result"]
        timing["cases_per_s"] = cases / timing["median_s"]
        timing["completed"] = result["completed"]
        if shards > 1:
            timing["pool_error"] = result["pool_error"]
            timing["case_spread"] = {
                entry["shard"]: entry["cases"] for entry in result["shards"]
            }
        rates[shards] = timing["cases_per_s"]
        out[f"shards_{shards}"] = timing

    out["scaling_vs_1_shard"] = {
        f"shards_{shards}": rates[shards] / rates[1] for shards in SHARD_COUNTS
    }
    out["assignment_spread_10k"] = {
        label: len(indices)
        for label, indices in shard_assignment(cases, max(SHARD_COUNTS)).items()
    }
    return out


def bench_analysis(rounds, iterations=200):
    """Semantic-analyzer throughput and the GP pre-filter's effect."""
    from repro.analysis import analyze_process, concurrency_findings
    from repro.virolab import (
        DATA_CLASSIFICATIONS,
        INITIAL_DATA,
        case_study_kb,
        process_description,
    )

    out = {}
    pd = process_description()
    kb = case_study_kb()
    initial = set(INITIAL_DATA)

    def analyze_all():
        for _ in range(iterations):
            analyze_process(
                pd,
                kb=kb,
                initial_data=initial,
                classifications=DATA_CLASSIFICATIONS,
            )

    timing = _time(analyze_all, rounds)
    timing["analyses_per_s"] = iterations / timing["median_s"]
    out[f"full_pass_figure10_x{iterations}"] = timing
    findings = analyze_process(
        pd, kb=kb, initial_data=initial, classifications=DATA_CLASSIFICATIONS
    )
    # Zero-false-positive gate: the shipped case study must stay clean.
    assert not findings, [str(f) for f in findings]
    out["figure10_findings"] = len(findings)

    # Concurrency verifier alone: region recovery + interference +
    # deadlock + critical path over the Figure-10 fork, per process.
    def concurrency_all():
        for _ in range(iterations):
            concurrency_findings(pd)

    timing = _time(concurrency_all, rounds)
    timing["analyses_per_s"] = iterations / timing["median_s"]
    out[f"concurrency_pass_figure10_x{iterations}"] = timing
    assert concurrency_findings(pd) == []

    # GP pre-filter: exact mode must leave the run byte-identical while
    # measurably reducing simulator work.
    runs = {}
    for mode in ("off", "exact"):
        cfg = GPConfig(population_size=60, generations=8, static_filter=mode)
        timing = _time(
            lambda problem, cfg=cfg: GPPlanner(cfg, rng=7).plan(problem),
            rounds,
            setup=planning_problem,
        )
        result = GPPlanner(cfg, rng=7).plan(planning_problem())
        runs[mode] = result
        timing["evaluations"] = result.evaluations
        timing["analysis_rejected"] = result.analysis_rejected
        timing["best_overall"] = result.best_fitness.overall
        out[f"gp_pop60_gen8_filter_{mode}"] = timing
    off, exact = runs["off"], runs["exact"]
    assert exact.best_fitness == off.best_fitness
    assert exact.best_plan.struct_key() == off.best_plan.struct_key()
    assert exact.history == off.history
    assert exact.evaluations == off.evaluations
    assert exact.analysis_rejected > 0 and off.analysis_rejected == 0
    out["traces_identical"] = True
    out["simulations_avoided"] = exact.analysis_rejected
    out["simulations_avoided_pct"] = (
        exact.analysis_rejected / exact.evaluations * 100.0
    )

    # Race filter mode on the plan_mix problem (analyze_a/analyze_b both
    # produce "insight" from distinct services, so CONCURRENT pairings
    # statically interfere): how many extra simulations the fork-
    # interference floor skips on top of the doomed check.  Race mode
    # changes traces by design (floored fitness), so this row reports
    # counts, not identity.
    from repro.workloads.plan_mix import plan_mix_problem

    mix_problem = plan_mix_problem(0)
    mix_runs = {}
    for mode in ("exact", "race"):
        cfg = GPConfig(
            population_size=60, generations=8, smax=12, static_filter=mode
        )
        result = GPPlanner(cfg, rng=7).plan(mix_problem)
        mix_runs[mode] = result
        out[f"gp_plan_mix_filter_{mode}"] = {
            "evaluations": result.evaluations,
            "analysis_rejected": result.analysis_rejected,
            "race_rejected": result.race_rejected,
            "best_overall": result.best_fitness.overall,
        }
    race = mix_runs["race"]
    assert mix_runs["exact"].race_rejected == 0
    assert race.race_rejected > 0
    out["race_simulations_additionally_skipped_pct"] = (
        race.race_rejected / race.evaluations * 100.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        choices=("all", "planner", "bus", "analysis", "shard"),
        default="all",
    )
    parser.add_argument("--out", default="BENCH_planner.json")
    parser.add_argument("--bus-out", default="BENCH_bus.json")
    parser.add_argument("--analysis-out", default="BENCH_analysis.json")
    parser.add_argument("--shard-out", default="BENCH_shard.json")
    parser.add_argument(
        "--shard-cases",
        type=int,
        default=10_000,
        help="population size for the shard suite's scaling rows",
    )
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--workers",
        type=int,
        default=max(2, min(4, os.cpu_count() or 1)),
        help="pool size for the parallel measurement",
    )
    args = parser.parse_args(argv)

    if args.suite in ("all", "planner"):
        record = {
            "benchmark": "GP planner evaluation engine",
            "problem": planning_problem().name,
            "host": _host(),
            "evaluate_many": bench_evaluate_many(args.rounds, args.workers),
            "cache_effect_pop60_gen10": bench_cache_effect(),
            "gp_run_pop60_gen10": bench_gp_run(max(2, args.rounds // 2)),
        }
        _write(args.out, record)

    if args.suite in ("all", "bus"):
        record = {
            "benchmark": "message bus throughput",
            "host": _host(),
            "throughput": bench_bus_throughput(args.rounds),
        }
        _write(args.bus_out, record)

    if args.suite in ("all", "shard"):
        record = {
            "benchmark": "sharded-grid scaling (many_cases workload)",
            "host": _host(),
            "shard": bench_shard(args.rounds, cases=args.shard_cases),
        }
        _write(args.shard_out, record)

    if args.suite in ("all", "analysis"):
        record = {
            "benchmark": "semantic workflow verifier (analysis package)",
            "host": _host(),
            "analysis": bench_analysis(args.rounds),
        }
        _write(args.analysis_out, record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
