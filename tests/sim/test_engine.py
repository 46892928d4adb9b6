"""Discrete-event engine: ordering, processes, signals, joins."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Engine
from repro.sim.engine import _POOL_SIZE


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(3.0, log.append, "c")
        engine.schedule(1.0, log.append, "a")
        engine.schedule(2.0, log.append, "b")
        engine.run()
        assert log == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_ties_broken_by_schedule_order(self):
        engine = Engine()
        log = []
        for tag in "abc":
            engine.schedule(1.0, log.append, tag)
        engine.run()
        assert log == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_cancelled_events_skipped(self):
        engine = Engine()
        log = []
        handle = engine.schedule(1.0, log.append, "x")
        engine.cancel(handle)
        assert handle.cancelled
        engine.schedule(2.0, log.append, "y")
        engine.run()
        assert log == ["y"]

    def test_run_until(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, log.append, "a")
        engine.schedule(5.0, log.append, "b")
        engine.run(until=2.0)
        assert log == ["a"]
        assert engine.now == 2.0
        assert engine.pending == 1
        engine.run()
        assert log == ["a", "b"]

    def test_max_events_guard(self):
        engine = Engine()

        def reschedule():
            engine.schedule(1.0, reschedule)

        engine.schedule(0.0, reschedule)
        with pytest.raises(SimulationError):
            engine.run(max_events=10)


class TestProcesses:
    def test_delay_yield(self):
        engine = Engine()
        log = []

        def proc():
            log.append(("start", engine.now))
            yield 2.5
            log.append(("end", engine.now))
            return 42

        handle = engine.spawn(proc())
        engine.run()
        assert log == [("start", 0.0), ("end", 2.5)]
        assert handle.done and handle.result == 42

    def test_join_other_process(self):
        engine = Engine()
        results = []

        def worker():
            yield 5.0
            return "done"

        def main():
            value = yield engine.spawn(worker(), "w")
            results.append((value, engine.now))

        engine.spawn(main(), "m")
        engine.run()
        assert results == [("done", 5.0)]

    def test_join_already_finished_process(self):
        engine = Engine()
        results = []
        worker = engine.spawn(iter([]), "w") if False else None

        def quick():
            return "fast"
            yield  # pragma: no cover

        handle = engine.spawn(quick(), "q")

        def late():
            yield 10.0
            value = yield handle
            results.append(value)

        engine.spawn(late(), "l")
        engine.run()
        assert results == ["fast"]

    def test_signal_wakes_waiters(self):
        engine = Engine()
        signal = engine.signal("evt")
        woken = []

        def waiter(tag):
            payload = yield signal
            woken.append((tag, payload, engine.now))

        engine.spawn(waiter("a"), "a")
        engine.spawn(waiter("b"), "b")
        engine.schedule(3.0, signal.fire, "hello")
        engine.run()
        assert woken == [("a", "hello", 3.0), ("b", "hello", 3.0)]

    def test_signal_fires_once(self):
        engine = Engine()
        signal = engine.signal()
        signal.fire(1)
        with pytest.raises(SimulationError):
            signal.fire(2)

    def test_late_waiter_resumes_immediately(self):
        engine = Engine()
        signal = engine.signal()
        signal.fire("早")
        got = []

        def late():
            value = yield signal
            got.append(value)

        engine.spawn(late(), "late")
        engine.run()
        assert got == ["早"]

    def test_negative_yield_rejected(self):
        engine = Engine()

        def bad():
            yield -1.0

        engine.spawn(bad(), "bad")
        with pytest.raises(SimulationError):
            engine.run()

    def test_unsupported_yield_rejected(self):
        engine = Engine()

        def bad():
            yield "nope"

        engine.spawn(bad(), "bad")
        with pytest.raises(SimulationError):
            engine.run()

    def test_spawn_requires_generator(self):
        with pytest.raises(SimulationError):
            Engine().spawn(lambda: None)  # type: ignore[arg-type]


class TestCancelAndPending:
    def test_cancel_method_skips_event_and_updates_pending(self):
        engine = Engine()
        log = []
        handle = engine.schedule(1.0, log.append, "x")
        engine.schedule(2.0, log.append, "y")
        assert engine.pending == 2
        engine.cancel(handle)
        assert engine.pending == 1
        engine.run()
        assert log == ["y"]
        assert engine.pending == 0

    def test_pending_tracks_mixed_schedule_and_cancel(self):
        engine = Engine()
        handles = [
            engine.schedule(float(i % 3), lambda: None) for i in range(50)
        ]
        for handle in handles[::2]:
            engine.cancel(handle)
        assert engine.pending == 25
        engine.run()
        assert engine.pending == 0

    def test_run_until_advances_clock_past_only_cancelled_events(self):
        # Regression: a queue holding nothing but cancelled events must
        # still advance the clock to `until` instead of stalling at the
        # cancelled head.
        engine = Engine()
        for delay in (1.0, 1.5):
            engine.cancel(engine.schedule(delay, lambda: None))
        engine.run(until=2.0)
        assert engine.now == 2.0
        assert engine.pending == 0

    def test_cancelled_pops_do_not_charge_max_events(self):
        engine = Engine()
        log = []
        for _ in range(10):
            engine.cancel(engine.schedule(1.0, log.append, "dead"))
        engine.schedule(2.0, log.append, "live")
        engine.run(max_events=1)  # ten cancelled pops must cost nothing
        assert log == ["live"]


class TestBatchedVsLegacyKernels:
    """The kernel's ordering rules, checked against explicit expected
    orders: same-time events run in schedule order, work posted during a
    tick runs after the same-tick events already queued, and a signal's
    waiters resume in the order they waited."""

    def test_same_tick_ordering_stable_across_kernels(self):
        engine = Engine()
        log = []

        def worker(tag, delay):
            yield delay
            log.append((tag, engine.now))
            if tag == "a":
                # Same-tick work scheduled mid-dispatch lands after the
                # already-queued same-tick events.
                engine.schedule(0.0, log.append, ("a-extra", engine.now))

        for tag, delay in (("a", 1.0), ("b", 1.0), ("c", 1.0), ("d", 2.0)):
            engine.spawn(worker(tag, delay), tag)
        engine.run()
        assert log == [
            ("a", 1.0), ("b", 1.0), ("c", 1.0), ("a-extra", 1.0), ("d", 2.0),
        ]

    def test_multi_waiter_signal_resumption_order(self):
        engine = Engine()
        signal = engine.signal("s")
        order = []

        def waiter(tag, park_at):
            yield park_at
            yield signal
            order.append((tag, engine.now))

        # Spawn order differs from the order the waiters park in.
        for tag, park_at in (
            ("c", 0.3), ("a", 0.1), ("e", 0.5), ("b", 0.2), ("d", 0.4),
        ):
            engine.spawn(waiter(tag, park_at), tag)
        engine.schedule(1.0, signal.fire, None)
        engine.schedule(1.0, order.append, ("queued-after-fire", 1.0))
        engine.run()
        # The resumes are posted when the signal fires, so an event queued
        # at the same tick before the fire still runs first.
        assert order == [("queued-after-fire", 1.0)] + [
            (tag, 1.0) for tag in "abcde"
        ]

    def test_spawn_inside_step_determinism(self):
        engine = Engine()
        log = []

        def child(i):
            log.append(("child", i, engine.now))
            yield 0.5
            log.append(("child-done", i, engine.now))

        def parent():
            for i in range(3):
                engine.spawn(child(i), f"c{i}")
            yield 0.0
            log.append(("parent", engine.now))

        engine.spawn(parent(), "p")
        engine.run()
        # Children spawned before the parent's zero-delay yield start
        # first; the parent resumes after them at the same tick.
        assert log == [
            ("child", 0, 0.0), ("child", 1, 0.0), ("child", 2, 0.0),
            ("parent", 0.0),
            ("child-done", 0, 0.5), ("child-done", 1, 0.5), ("child-done", 2, 0.5),
        ]

    def test_randomized_schedules_order_equivalent(self):
        # Property-style: seeded random schedules (same-tick bursts,
        # cancellations, dispatch-time rescheduling) execute in the order
        # the ordering rules derive from the ops alone.
        import random

        def run(ops):
            engine = Engine()
            log = []

            def make(tag):
                def action():
                    log.append((tag, engine.now))
                    if tag % 5 == 0:
                        engine.schedule(
                            0.0, lambda: log.append((tag, "nested", engine.now))
                        )
                return action

            cancelled = []
            for delay, tag, cancel in ops:
                handle = engine.schedule(delay, make(tag))
                if cancel:
                    cancelled.append(handle)
            for handle in cancelled:
                engine.cancel(handle)
            engine.run()
            assert engine.pending == 0
            return log

        def expected(ops):
            live = [(delay, tag) for delay, tag, cancel in ops if not cancel]
            order = []
            for time in sorted({delay for delay, _ in live}):
                # Schedule order within the tick, then the work those
                # events posted during it, in the order it was posted.
                tick = [tag for delay, tag in live if delay == time]
                order += [(tag, time) for tag in tick]
                order += [(tag, "nested", time) for tag in tick if tag % 5 == 0]
            return order

        for seed in range(12):
            rng = random.Random(seed)
            ops = [
                (
                    rng.choice((0.0, 0.0, 0.5, 1.0, 2.0)),
                    i,
                    rng.random() < 0.2,
                )
                for i in range(40)
            ]
            assert run(ops) == expected(ops), f"seed {seed}"


class TestMaxEventsResume:
    def test_stop_at_tick_boundary_keeps_time_order(self):
        # Regression: the event that tripped the limit opened a later tick;
        # it must go back to the heap, not run ahead of events scheduled
        # at the current time before the run resumes.
        engine = Engine()
        log = []

        def record(tag):
            log.append((tag, engine.now))

        engine.schedule(1.0, record, "a")
        with pytest.raises(SimulationError):
            engine.run(max_events=0)
        assert engine.now == 0.0 and engine.pending == 1
        engine.schedule(0.5, record, "b")
        engine.schedule(0.0, record, "c")
        engine.run()
        assert log == [("c", 0.0), ("b", 0.5), ("a", 1.0)]
        assert engine.pending == 0

    def test_stop_inside_tick_resumes_the_tick(self):
        engine = Engine()
        log = []
        for tag in "xyz":
            engine.schedule(1.0, log.append, tag)
        with pytest.raises(SimulationError):
            engine.run(max_events=1)
        assert log == ["x"] and engine.now == 1.0
        engine.schedule(0.0, log.append, "w")  # posted later, same tick
        engine.run()
        assert log == ["x", "y", "z", "w"]


class TestEventPool:
    def test_schedule_handle_never_recycled(self):
        engine = Engine()
        log = []
        handle = engine.schedule(1.0, log.append, "held")
        engine.run()
        # Churn the pool: pooled events run and recycle after the handle.
        for _ in range(8):
            engine.schedule_discard(0.0, log.append, "pooled")
        engine.run()
        assert handle.action == log.append and handle.args == ("held",)
        assert all(event is not handle for event in engine._free)
        engine.schedule(1.0, log.append, "live")
        engine.cancel(handle)  # already ran: must not touch the live count
        assert engine.pending == 1
        engine.run()
        assert engine.pending == 0
        assert log == ["held"] + ["pooled"] * 8 + ["live"]

    def test_free_list_capped_after_same_tick_burst(self):
        engine = Engine()
        burst = _POOL_SIZE + 100
        for _ in range(burst):
            engine.schedule_discard(1.0, lambda: None)
        assert engine._free == []
        engine.run()
        assert engine.events_processed == burst
        assert len(engine._free) == _POOL_SIZE


class TestCoalesce:
    def test_opt_in_default_off(self):
        assert Engine().coalesce is False
        assert Engine(coalesce=True).coalesce is True

    def test_fire_resumes_waiters_inline(self):
        engine = Engine(coalesce=True)
        signal = engine.signal("s")
        log = []

        def waiter():
            yield signal
            log.append("waiter")

        def firer():
            log.append("before")
            signal.fire(None)
            log.append("after")
            yield 0.0

        engine.spawn(waiter(), "w")
        engine.spawn(firer(), "f")
        engine.run()
        # Inline resumption: the waiter ran inside fire(), between the
        # firer's two statements (the default kernel would log it last).
        assert log == ["before", "waiter", "after"]

    def test_late_waiter_still_goes_through_queue(self):
        # Parking on an already-fired signal resumes via a queued event,
        # not inline — coalesced recursion stays bounded by agent-chain
        # depth, not queue depth.
        engine = Engine(coalesce=True)
        signal = engine.signal("s")
        signal.fire("v")
        log = []

        def late():
            value = yield signal
            log.append(value)

        engine.spawn(late(), "late")  # first step runs inline at spawn
        assert log == []  # ...but the fired-signal park still queues
        engine.run()
        assert log == ["v"]

    def test_deterministic_across_runs(self):
        def run():
            engine = Engine(coalesce=True)
            log = []
            signals = [engine.signal(f"s{i}") for i in range(3)]

            def producer():
                for i, signal in enumerate(signals):
                    yield 0.5
                    signal.fire(i)

            def consumer(tag):
                for signal in signals:
                    value = yield signal
                    log.append((tag, value, engine.now))

            engine.spawn(consumer("a"), "a")
            engine.spawn(consumer("b"), "b")
            engine.spawn(producer(), "p")
            engine.run()
            return log, engine.now, engine.events_processed

        assert run() == run()


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_completion_times_sorted(delays):
    """Whatever the schedule order, events execute in nondecreasing time."""
    engine = Engine()
    seen = []
    for delay in delays:
        engine.schedule(delay, lambda: seen.append(engine.now))
    engine.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
