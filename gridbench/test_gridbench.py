"""Self-checks of the grid benchmark (run: ``PYTHONPATH=src python3 -m pytest gridbench -q``).

The workloads are shrunk here so one round takes well under a second; the
properties checked do not depend on the size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from measure import PER_LAYER, _layer_values, _run_round  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, EnactBurst, EnactStream, PlanStream, VirolabFaulty  # noqa: E402


@pytest.fixture(autouse=True)
def small(monkeypatch):
    monkeypatch.setattr(EnactBurst, "cases", 24)
    monkeypatch.setattr(EnactStream, "cases", 24)
    monkeypatch.setattr(PlanStream, "requests", 40)
    monkeypatch.setattr(PlanStream, "novel", 4)
    monkeypatch.setattr(VirolabFaulty, "cases", 2)
    monkeypatch.setattr(VirolabFaulty, "size", 12)
    monkeypatch.setattr(VirolabFaulty, "images", 12)
    monkeypatch.setattr(VirolabFaulty, "pod_directions", 16)
    monkeypatch.setattr(VirolabFaulty, "failure_probability", 0.0)


def _round(name: str, seed: int, traced: bool):
    return _run_round(WORKLOADS[name](seed), traced, keep=0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_across_runs_and_tracing(name):
    first = _round(name, 3, traced=False)
    again = _round(name, 3, traced=False)
    traced = _round(name, 3, traced=True)
    assert first.result.errors == []
    assert first.result.completed == first.result.submitted
    assert first.result.counts == again.result.counts == traced.result.counts
    for key in ("sim.events", "bus.messages", "sim_latency_p50_s"):
        assert first.result.counts[key]
    layers = _layer_values(traced)
    assert set(layers) == set(PER_LAYER) - {"bench.trace_overhead_pct"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_gives_other_counts(name):
    assert _round(name, 3, False).result.counts != _round(name, 4, False).result.counts


def test_plan_stream_library_counts_repeat():
    rounds = [_round("plan_stream", 5, traced) for traced in (False, True)]
    counts = [r.result.counts for r in rounds]
    assert counts[0] == counts[1]
    assert any(key.startswith("source.hit") for key in counts[0])
    assert rounds[1].tracer.counts["planner.evaluations"] > 0


def test_virolab_cases_staged_under_their_own_keys():
    workload = VirolabFaulty(1)
    state = workload.setup()
    keys = [set(case["payload_keys"].values()) for case in state["cases"]]
    assert keys[0] and keys[0].isdisjoint(keys[1])
    storage = state["services"].storage
    for case in state["cases"]:
        for key in case["payload_keys"].values():
            assert storage.get(key) is not None


def test_tracer_restores_every_entry_point():
    from repro.bus.router import Router
    from repro.grid.container import ApplicationContainer
    from repro.virolab import services

    before = (Router.route, ApplicationContainer.handle_execute_activity, services.pod)
    tracer = Tracer()
    tracer.install()
    assert Router.route is not before[0]
    tracer.uninstall()
    assert (Router.route, ApplicationContainer.handle_execute_activity, services.pod) == before


def test_tracing_attributes_time_to_layers():
    traced = _round("enact_burst", 2, traced=True)
    layers = traced.tracer.layer_self_times()
    root = traced.tracer.total("sim/")
    assert {"sim", "bus", "services", "grid"} <= set(layers)
    assert sum(layers.values()) == pytest.approx(root, rel=1e-6)


def test_result_line_counts_and_exit_codes(tmp_path):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", "plan_stream", "--seed", "1",
        "--seconds", "0", "--trace", "0", "--out", str(tmp_path),
    ]
    runs = [subprocess.run(command, capture_output=True, text=True, check=True) for _ in "ab"]
    result = json.loads(runs[0].stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    digests = [
        [line for line in run.stdout.splitlines() if line.startswith("exact counts:")]
        for run in runs
    ]
    assert digests[0] and digests[0] == digests[1]  # exact across processes
    # Without the program's source next to it the benchmark must refuse.
    alone = tmp_path / "alone"
    shutil.copytree(HERE, alone / "gridbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    bare = subprocess.run(
        [sys.executable, "gridbench/run.py", "--workload", "plan_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=alone,
    )
    assert bare.returncode != 0
    assert bare.stdout == ""
