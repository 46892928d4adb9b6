"""End-user compute on the full grid: a raising compute function fails
its own case only, and concurrent executions never share a payload key."""

from __future__ import annotations

from repro.errors import ServiceError
from repro.grid.container import EndUserService
from repro.process.builder import WorkflowBuilder
from repro.process.model import Activity
from repro.services.bootstrap import standard_environment


def _raises_key_error(props, payloads):
    return {"x": {"Status": "ready", "Value": props["src"]["Missing"]}}, {}


def _tagged_payload(props, payloads):
    return {"y": {"Status": "ready"}}, {"y": f"payload-{props['src']['Tag']}"}


LIBRARY = {
    "broken": Activity("broken", inputs=("src",), outputs=("x",)),
    "tagged": Activity("tagged", inputs=("src",), outputs=("y",)),
}


def _run_cases(activities):
    """Enact one single-activity case per entry of *activities*, all
    submitted at t=0 to a one-container grid; returns the grid and each
    case's reply (or the error text of its failure reply)."""
    env, services, fleet = standard_environment(
        [
            EndUserService("broken", work=2.0, compute=_raises_key_error),
            EndUserService("tagged", work=2.0, compute=_tagged_payload),
        ],
        containers=1,
    )
    replies = {}

    def user(index, activity):
        try:
            replies[index] = yield from services.coordination.call(
                "coordination",
                "execute-task",
                {
                    "process": WorkflowBuilder(f"p-{activity}")
                    .activity(activity)
                    .build(LIBRARY),
                    "initial_data": {"src": {"Status": "ready", "Tag": str(index)}},
                    "task": f"case-{index}",
                },
            )
        except ServiceError as exc:
            replies[index] = str(exc)

    for index, activity in enumerate(activities):
        env.engine.spawn(user(index, activity), f"user-{index}")
    env.run(max_events=100_000)
    return env, services, fleet, replies


def test_compute_error_fails_only_its_case():
    env, _, (container,), replies = _run_cases(["broken", "tagged"])
    assert "KeyError" in replies[0] and "broken" in replies[0]
    assert replies[1]["status"] == "completed"
    assert [ok for *_, ok in container.executions].count(False) >= 1
    assert env.metrics.total("activities_failed") >= 1


def test_same_tick_payloads_keep_distinct_keys():
    _, services, (container,), replies = _run_cases(["tagged", "tagged"])
    keys = [replies[index]["payload_keys"]["y"] for index in (0, 1)]
    # Both executions ran on the one container and finished in one tick.
    finished = [time for time, *_ in container.executions]
    assert len(finished) == 2 and finished[0] == finished[1]
    assert keys[0] != keys[1]
    assert [services.storage.get(key) for key in keys] == ["payload-0", "payload-1"]
