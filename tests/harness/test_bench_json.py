"""Machine-readable BENCH_*.json result files."""

from __future__ import annotations

import gc
import json

from repro.core import tp_join
from repro.harness import (
    EXPERIMENTS,
    Measurement,
    bench_payload,
    run_experiment,
    write_bench_json,
)
from repro.harness.__main__ import main as harness_main
from repro.harness.experiments import CollectorMeter


def _tiny_measurements(spec):
    return (
        Measurement(spec.experiment_id, spec.dataset, "NJ", 100, 0.0123, 42),
        Measurement(spec.experiment_id, spec.dataset, "TA", 100, 0.0456, 42),
    )


def test_bench_payload_shape():
    spec = EXPERIMENTS["fig5a"]
    payload = bench_payload(spec, _tiny_measurements(spec))
    assert payload["experiment"] == "fig5a"
    assert payload["dataset"] == "webkit"
    assert [m["series"] for m in payload["measurements"]] == ["NJ", "TA"]
    assert payload["measurements"][0]["seconds"] == 0.0123
    assert "python" in payload["environment"]


def test_bench_payload_records_what_reproduces_it():
    """Every payload carries the workload seed and the CPU count."""
    spec = EXPERIMENTS["fig5a"]
    payload = bench_payload(spec, _tiny_measurements(spec), seed=17)
    assert payload["seed"] == 17
    assert payload["cpu_count"] >= 1


def test_write_bench_json_roundtrip(tmp_path):
    spec = EXPERIMENTS["fig5a"]
    nested = tmp_path / "a" / "b"  # created on demand
    path = write_bench_json(spec, _tiny_measurements(spec), nested)
    assert path == nested / "BENCH_fig5a.json"
    loaded = json.loads(path.read_text())
    assert loaded["measurements"][1]["output_count"] == 42


def test_real_run_produces_valid_json(tmp_path):
    spec = EXPERIMENTS["fig5a"]
    result = run_experiment(spec, sizes=[60], seed=0)
    path = write_bench_json(spec, result.measurements, tmp_path)
    loaded = json.loads(path.read_text())
    assert all(m["seconds"] >= 0 for m in loaded["measurements"])
    assert {m["series"] for m in loaded["measurements"]} == {"NJ", "TA"}


def test_collector_activity_is_recorded_beside_each_runtime(tmp_path, capsys):
    callbacks = list(gc.callbacks)
    exit_code = harness_main(["fig5a", "--sizes", "60", "--json-dir", str(tmp_path)])
    assert exit_code == 0
    assert gc.callbacks == callbacks, "the hook lives for the timed call only"
    assert "NJ gc [ms]" in capsys.readouterr().out
    loaded = json.loads((tmp_path / "BENCH_fig5a.json").read_text())
    for measurement in loaded["measurements"]:
        assert measurement["collector_ms"] >= 0
        assert measurement["gen2_collections"] >= 0


def test_collector_meter_sees_a_full_collection():
    with CollectorMeter() as meter:
        gc.collect()
    assert meter.gen2_collections == 1 and meter.seconds > 0
    assert meter._observe not in gc.callbacks


def test_library_joins_leave_the_collector_alone(
    wants_to_visit, hotel_availability, loc_theta
):
    state = (gc.isenabled(), gc.get_threshold(), list(gc.callbacks), gc.get_freeze_count())
    tp_join("full_outer", wants_to_visit, hotel_availability, loc_theta)
    assert (
        gc.isenabled(), gc.get_threshold(), list(gc.callbacks), gc.get_freeze_count()
    ) == state


def test_harness_cli_writes_bench_files(tmp_path, capsys):
    exit_code = harness_main(
        ["fig5a", "--sizes", "60", "--json-dir", str(tmp_path)]
    )
    assert exit_code == 0
    bench_file = tmp_path / "BENCH_fig5a.json"
    assert bench_file.exists()
    assert "wrote" in capsys.readouterr().out


def test_harness_cli_json_can_be_disabled(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exit_code = harness_main(["fig5a", "--sizes", "60", "--json-dir", ""])
    assert exit_code == 0
    assert not list(tmp_path.rglob("BENCH_*.json"))
