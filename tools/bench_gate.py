"""Paired gridbench regression gate: a base revision against this tree.

Run from anywhere inside the repository::

    python3 tools/bench_gate.py BASE_REV

Checks BASE_REV out into a temporary ``git worktree`` and runs
``gridbench/run.py`` for every workload in ``BENCHMARK.json`` on both
trees, ``PAIRS`` times each, alternating which tree runs first.  Each tree
runs its own ``gridbench/`` against its own ``src/``.  The gate fails
(exit 1) when

* any run of this tree is not ``correct: true`` with ``failed: 0``, or
* for any workload and end-to-end metric, the median over this tree's
  runs is worse than the median over the base runs by more than the
  metric's ``bound`` in ``BENCHMARK.json``.

Absolute rates depend on the host; only the ratio of the two medians,
taken on one host in one job, is gated.  Pair count, run length and seed
are fixed here so that every run of the gate measures the same way.  They
were sized from same-tree runs on a shared 2-CPU host: at ``--seconds 2``
``plan_stream`` gets three one-second rounds and single runs ranged from
0.67x to 2.23x their median ``setup_s``; at 8 s single runs stayed within
0.75x-1.27x of the median on every metric, and medians of 7 resampled
pairs crossed a bound in about 1% of draws.  One gate run took 9.5-11.5
minutes there.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Pairs of (base, this tree) runs per workload.
PAIRS = 7
#: ``--seconds`` of every gridbench run.
SECONDS = 8
#: ``--seed`` of every gridbench run; both trees get the same inputs.
SEED = 1


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_gridbench(tree: Path, workload: str) -> dict | None:
    """One ``--trace 0`` gridbench run; its JSON result line, or None when
    the run printed none (a crash, or a workload the tree does not have).
    ``run.py`` puts its own tree's ``src/`` first on the import path."""
    command = [
        sys.executable, str(tree / "gridbench" / "run.py"),
        "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def worse_by(metric: dict, base: float, head: float) -> float:
    """How much worse *head* is than *base*, as a fraction of *base*
    (negative when it is better)."""
    change = (head - base) / base
    return -change if metric["better"] == "higher" else change


def gate(base_tree: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    trees = {"base": base_tree, "head": ROOT}
    runs = {(w["name"], side): [] for w in spec["workloads"] for side in trees}
    failures = []
    for pair in range(PAIRS):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for workload in (w["name"] for w in spec["workloads"]):
            for side in order:
                started = time.perf_counter()
                result = run_gridbench(trees[side], workload)
                took = time.perf_counter() - started
                if result is not None:
                    runs[workload, side].append(result)
                ok = (
                    result is not None
                    and result["correct"] is True
                    and result["failed"] == 0
                )
                if side == "head" and not ok:
                    failures.append(f"{workload} pair {pair + 1}: run not correct/failed=0")
                shown = "no result" if result is None else " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                    for m in metrics
                )
                print(
                    f"pair {pair + 1}/{PAIRS} {workload} {side}: {shown} "
                    f"({'ok' if ok else 'NOT OK'}, {took:.1f} s)",
                    flush=True,
                )

    print(f"\n{'workload':<16}{'metric':<18}{'base':>11}{'head':>11}"
          f"{'head/base':>11}{'worse by':>10}{'bound':>7}")
    for workload in (w["name"] for w in spec["workloads"]):
        base_runs, head_runs = runs[workload, "base"], runs[workload, "head"]
        if not base_runs or not head_runs:
            print(f"{workload:<16}(no {'base' if not base_runs else 'head'} result; "
                  "not compared)")
            continue
        for metric in metrics:
            name = metric["name"]
            base = statistics.median(r["metrics"][name]["value"] for r in base_runs)
            head = statistics.median(r["metrics"][name]["value"] for r in head_runs)
            worse = worse_by(metric, base, head)
            verdict = "FAIL" if worse > metric["bound"] else ""
            print(f"{workload:<16}{name:<18}{base:>11.4g}{head:>11.4g}"
                  f"{head / base:>11.3f}{worse:>+10.1%}{metric['bound']:>7.0%} {verdict}")
            if verdict:
                failures.append(
                    f"{workload} {name}: median worse by {worse:.1%} "
                    f"(bound {metric['bound']:.0%})"
                )
    for failure in failures:
        print(f"FAIL: {failure}")
    print("bench gate:", "FAILED" if failures else "passed")
    return 1 if failures else 0


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    base_rev = _git("rev-parse", "--verify", f"{argv[0]}^{{commit}}")
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench-gate-") as scratch:
        base_tree = Path(scratch) / "base"
        _git("worktree", "add", "--detach", str(base_tree), base_rev)
        try:
            print(f"base {base_rev[:12]} at {base_tree}; head {ROOT}", flush=True)
            status = gate(base_tree)
        finally:
            _git("worktree", "remove", "--force", str(base_tree))
    print(f"bench gate wall time: {time.perf_counter() - started:.0f} s")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
