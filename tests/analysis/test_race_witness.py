"""The ``race_witness`` checker: static conflicts replayed against journals.

Hand-built :class:`~repro.obs.journal.JournalEvent` sequences pin the
three verdicts — *confirmed* (execution windows overlap on the flagged
key), *refuted* (both ran, windows disjoint), *unobserved* (the journal
cannot decide) — and the evicted-case path proves a conflict is still
checkable after its case's events round-trip through the storage mirror
(``encode_events`` / ``decode_events`` / ``CaseJournal.absorb``).  The
racy-fork specimen enacts a real two-branch race under ``journal=True``
and requires every checkable static conflict to be journal-confirmed.
"""

from types import SimpleNamespace

from repro.analysis import interference_conflicts, race_witness
from repro.analysis.concurrency import Conflict
from repro.grid.container import EndUserService
from repro.obs.journal import CaseJournal, JournalEvent, decode_events, encode_events
from repro.process.builder import WorkflowBuilder
from repro.process.model import Activity
from repro.services.bootstrap import standard_environment

WW = Conflict("write-write", "FORK", "R", "WA", "WB")
RW = Conflict("read-write", "FORK", "Q", "RD", "WR")


def _event(seq, kind, time, **attrs):
    return JournalEvent(seq, "case-0", kind, time, agent="t", attrs=attrs)


def overlapping_events():
    """WA and WB interleave: [1, 5] x [2, 6], both writing R."""
    return [
        _event(0, "dispatch", 1.0, activity="WA", inputs=["D1"]),
        _event(1, "dispatch", 2.0, activity="WB", inputs=["D1"]),
        _event(2, "activity-complete", 5.0, activity="WA", outputs=["R"]),
        _event(3, "activity-complete", 6.0, activity="WB", outputs=["R"]),
    ]


def disjoint_events():
    """WA finishes before WB starts: [1, 2] then [3, 4]."""
    return [
        _event(0, "dispatch", 1.0, activity="WA", inputs=["D1"]),
        _event(1, "activity-complete", 2.0, activity="WA", outputs=["R"]),
        _event(2, "dispatch", 3.0, activity="WB", inputs=["D1"]),
        _event(3, "activity-complete", 4.0, activity="WB", outputs=["R"]),
    ]


class TestVerdicts:
    def test_overlapping_windows_confirm_write_write(self):
        report = race_witness(overlapping_events(), [WW])
        assert [v.status for v in report.verdicts] == ["confirmed"]
        assert report.confirmed == 1 and report.checkable == 1
        assert report.precision == 1.0
        assert "interleave" in report.verdicts[0].detail

    def test_disjoint_windows_refute(self):
        report = race_witness(disjoint_events(), [WW])
        assert [v.status for v in report.verdicts] == ["refuted"]
        assert report.refuted == 1
        assert report.precision == 0.0

    def test_read_write_uses_reader_inputs_and_writer_outputs(self):
        events = [
            _event(0, "dispatch", 1.0, activity="RD", inputs=["Q"]),
            _event(1, "dispatch", 2.0, activity="WR", inputs=["D1"]),
            _event(2, "activity-complete", 5.0, activity="RD", outputs=["X"]),
            _event(3, "activity-complete", 6.0, activity="WR", outputs=["Q"]),
        ]
        report = race_witness(events, [RW])
        assert report.confirmed == 1

    def test_missing_activity_is_unobserved(self):
        events = overlapping_events()[:3]  # WB never completes
        report = race_witness(events, [WW])
        assert [v.status for v in report.verdicts] == ["unobserved"]
        assert report.checkable == 0
        assert report.precision == 1.0  # nothing checkable: vacuous
        assert "'WB'" in report.verdicts[0].detail

    def test_no_runtime_footprint_is_unobserved(self):
        events = [
            _event(0, "dispatch", 1.0, activity="WA", inputs=["D1"]),
            _event(1, "dispatch", 2.0, activity="WB", inputs=["D1"]),
            # Neither completion actually wrote R at runtime.
            _event(2, "activity-complete", 5.0, activity="WA", outputs=["S"]),
            _event(3, "activity-complete", 6.0, activity="WB", outputs=["T"]),
        ]
        report = race_witness(events, [WW])
        assert [v.status for v in report.verdicts] == ["unobserved"]

    def test_redispatch_uses_last_attempt_window(self):
        """A retried activity's window starts at its *last* dispatch."""
        events = [
            _event(0, "dispatch", 0.5, activity="WA", inputs=["D1"]),
            _event(1, "dispatch", 3.0, activity="WA", inputs=["D1"]),
            _event(2, "activity-complete", 4.0, activity="WA", outputs=["R"]),
            _event(3, "dispatch", 1.0, activity="WB", inputs=["D1"]),
            _event(4, "activity-complete", 2.0, activity="WB", outputs=["R"]),
        ]
        report = race_witness(events, [WW])
        assert [v.status for v in report.verdicts] == ["refuted"]

    def test_empty_report_precision_is_vacuous(self):
        report = race_witness([], [])
        assert report.verdicts == ()
        assert report.precision == 1.0


class TestEvictedCaseFallback:
    def test_witness_after_storage_roundtrip(self):
        """An evicted case re-hydrated from its mirror blob stays checkable."""
        engine = SimpleNamespace(now=0.0)
        journal = CaseJournal(engine, enabled=True, max_cases=4)
        for event in overlapping_events():
            engine.now = event.time
            journal.append("case-0", event.kind, agent="t", **event.attrs)
        blob = journal.encode_case("case-0")

        # Evict, then lazy-sync the decoded events back in — the path the
        # monitoring service takes for a non-resident case.
        journal.clear()
        assert not journal.has_case("case-0")
        case_id, events = decode_events(blob)
        journal.absorb(case_id, events)
        assert journal.has_case("case-0")

        report = race_witness(journal.events("case-0"), [WW])
        assert report.confirmed == 1 and report.precision == 1.0

    def test_encode_decode_preserves_witness_fields(self):
        blob = encode_events("case-9", disjoint_events())
        case_id, events = decode_events(blob)
        assert case_id == "case-9"
        report = race_witness(events, [WW])
        assert [v.status for v in report.verdicts] == ["refuted"]


class TestRacyForkSpecimen:
    def test_enacted_race_is_confirmed(self):
        """Both branches of the fork write ``r`` and run at once on two
        containers, so the journal must confirm the static write-write
        conflict.  The intake gate would refuse the specimen on its E601,
        so this one grid tolerates that code."""
        library = {
            "WA": Activity("WA", service="SVA", inputs=("d0",), outputs=("r",)),
            "WB": Activity("WB", service="SVB", inputs=("d0",), outputs=("r",)),
        }
        pd = (
            WorkflowBuilder("racy-fork")
            .fork(lambda b: b.activity("WA"), lambda b: b.activity("WB"))
            .build(library)
        )
        services = [
            EndUserService("SVA", work=3.0, effects={"r": {"Status": "ready"}}),
            EndUserService("SVB", work=5.0, effects={"r": {"Status": "ready"}}),
        ]
        env, core, _ = standard_environment(services, containers=2, journal=True)
        core.coordination.tolerated_findings = (
            core.coordination.tolerated_findings | {"E601", "W602"}
        )
        outcome = {}

        def enact():
            outcome["reply"] = yield from core.coordination.call(
                "coordination",
                "execute-task",
                {
                    "process": pd,
                    "initial_data": {"d0": {"Status": "ready"}},
                    "task": "racy-0",
                },
            )

        env.engine.spawn(enact(), "driver")
        env.run(max_events=2_000_000)
        assert outcome["reply"]["status"] == "completed"
        report = race_witness(env.journal.events("racy-0"), interference_conflicts(pd))
        assert report.checkable >= 1
        assert report.precision == 1.0
