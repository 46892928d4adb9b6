"""Shared scaffolding for the ``record_bench.py`` suites.

Every suite needs the same pieces — gc-frozen median timing, a host
fingerprint for the committed JSON and the write-and-echo JSON record —
so one definition here keeps the planner / bus / analysis / shard suites
measuring the same way.  ``trace_rows`` is the message-trace view the
golden digests and the trace-identity tests hash.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import time

__all__ = [
    "host_fingerprint",
    "time_fn",
    "trace_rows",
    "write_record",
]


def time_fn(fn, rounds, setup=None):
    """Median-of-*rounds* wall time of ``fn()`` with the gc frozen.

    Collect before and freeze the collector during each sample: cyclic-gc
    pauses landing inside a sample were the dominant variance source on
    single-core hosts (spreads of 2x for identical configs).

    With *setup*, each sample times ``fn(setup())`` and ``setup()`` runs
    untimed before it — e.g. a fresh planning problem per round, so no
    round inherits another's memo tables.  ``min_s``/``max_s`` give the
    spread.
    """
    samples = []
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(rounds):
            args = () if setup is None else (setup(),)
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            fn(*args)
            samples.append(time.perf_counter() - t0)
            gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()
        else:
            gc.disable()
    return {
        "median_s": statistics.median(samples),
        "min_s": min(samples),
        "max_s": max(samples),
        "rounds": rounds,
    }


def host_fingerprint():
    """The host block recorded into every committed BENCH_*.json."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def trace_rows(env):
    """Every delivered message of *env* as a comparable tuple row.

    The byte-identity gates compare these rows (plus workload outcomes):
    time, endpoints, performative, action, conversation / message / trace
    / parent ids and the repr of the content.
    """
    return [
        (
            event.time,
            message.sender,
            message.receiver,
            message.performative.value,
            message.action,
            message.conversation,
            message.message_id,
            message.trace_id,
            message.parent_id,
            repr(message.content),
        )
        for event in env.router.trace.events()
        for message in (event.message,)
    ]


def write_record(path, record):
    """Write the suite verdict JSON and echo it to stdout."""
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {path}")
