import time

import paths  # noqa: F401
from hostspeed import REFERENCE_MS, HostSpeed
from spans import SpanRecorder, self_times


def closed(recorder, name, seconds, parent=None):
    """A finished span of known length, without sleeping for it."""
    record = recorder._open(name, 100.0)
    record["parent"] = parent
    record["end"] = 100.0 + seconds
    record["seconds"] = seconds
    return record


def test_self_time_is_duration_minus_children():
    recorder = SpanRecorder("w")
    root = closed(recorder, "pass", 10.0)
    operators = closed(recorder, "stream.operators", 6.0, parent=root["id"])
    closed(recorder, "stream.incremental", 2.5, parent=operators["id"])
    closed(recorder, "core.lawan", 1.5, parent=operators["id"])
    closed(recorder, "stream.source", 3.0, parent=root["id"])
    own = self_times(recorder.spans)
    assert own["stream.operators"] == 2.0
    assert own["stream.incremental"] == 2.5
    assert own["core.lawan"] == 1.5
    assert own["pass"] == 1.0
    # Self times partition the root: nothing is counted twice or lost.
    assert sum(own.values()) == 10.0


def test_children_longer_than_the_parent_cannot_make_self_time_negative():
    recorder = SpanRecorder("w")
    parent = closed(recorder, "stream.operators", 1.0)
    closed(recorder, "stream.incremental", 1.4, parent=parent["id"])
    assert self_times(recorder.spans)["stream.operators"] == 0.0


def test_same_name_spans_add_up():
    recorder = SpanRecorder("w")
    closed(recorder, "core.overlap", 1.0)
    closed(recorder, "core.overlap", 2.0)
    assert self_times(recorder.spans)["core.overlap"] == 3.0


def test_span_nests_and_add_lays_children_inside():
    recorder = SpanRecorder("w")
    with recorder.span("pass") as root:
        with recorder.span("stream.operators") as operators:
            recorder.add("stream.incremental", 0.25)
    assert operators["parent"] == root["id"]
    child = recorder.spans[-1]
    assert child["parent"] == operators["id"]
    assert child["seconds"] == 0.25
    assert root["seconds"] >= operators["seconds"] >= 0.0
    assert all(span["workload"] == "w" for span in recorder.spans)


def test_calibration_time_is_not_charged_to_open_spans():
    speed = HostSpeed()
    recorder = SpanRecorder("w", speed)
    with recorder.span("pass") as root:
        with recorder.span("layer.a") as inner:
            time.sleep(0.01)
    # Samples taken while the root was open were subtracted from it.
    raw = root["end"] - root["start"]
    assert root["paused"] > 0.0
    assert raw - root["paused"] < raw
    assert inner["paused"] == 0.0
    # seconds are host-normalised: raw net time over the interval's factor.
    factor = speed.factor(root["start"], root["end"])
    assert abs(root["seconds"] - (raw - root["paused"]) / factor) < 1e-12


def test_host_factor_is_mean_reading_over_reference():
    speed = HostSpeed()
    speed.times = [1.0, 2.0, 3.0, 4.0]
    speed.readings = [REFERENCE_MS, 2 * REFERENCE_MS, 2 * REFERENCE_MS, 4 * REFERENCE_MS]
    # Last reading before, every reading inside, first reading after.
    assert speed.factor(2.5, 2.6) == 2.0
    assert speed.factor(1.5, 3.5) == (1 + 2 + 2 + 4) / 4
    assert speed.factor(0.0, 0.5) == 1.0
