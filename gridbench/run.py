"""The grid benchmark: one command, four seeded workloads, every output checked.

Run from the repository root::

    python3 gridbench/run.py --workload enact_burst --seed 1 --seconds 15 --trace 0
    python3 gridbench/run.py --workload all --seed 1 --seconds 15 --trace 1

A run repeats *rounds* of the workload until ``--seconds`` have passed.  A
round builds a fresh grid (timed as ``setup_s``), submits the seed's whole
population and drives the engine until every request has its reply (the
timed region), then checks every output (untimed).  Every round of a run
uses the same inputs, so every exact count must repeat round after round.

``--trace 0`` measures the program as it is and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced rounds with rounds traced by
:mod:`tracer`, prints the per-layer metrics and the tracing overhead, and
writes a span dump and a layer-share table under ``gridbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--workload all``
runs each workload in a fresh process and prints one such line per
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use (must run
    before numpy is first imported)."""
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, cpus)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=str(HERE / "out"), help="directory for trace artefacts"
    )
    return parser.parse_args(argv)


def _run_all(args: argparse.Namespace, names: list[str]) -> int:
    status = 0
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", args.out,
        ]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"gridbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    _cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from measure import measure
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(
            f"gridbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)} or all)",
            file=sys.stderr,
        )
        return 2
    report = measure(
        WORKLOADS[args.workload](args.seed),
        seconds=args.seconds,
        traced=bool(args.trace),
        out_dir=Path(args.out),
        seed=args.seed,
    )
    for line in report.lines:
        print(line)
    print(json.dumps(report.result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
