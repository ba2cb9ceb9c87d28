"""What ``run.py`` prints is what ``BENCHMARK.json`` declares, and vice versa."""

import functools
import json
import re
import subprocess
import sys

import paths
import pytest

RUN = [sys.executable, str(paths.TPBENCH / "run.py"), "--quick"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    with open(paths.ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


@functools.lru_cache(maxsize=None)
def results(trace):
    """One result object per workload, from one ``--quick`` suite run."""
    done = subprocess.run(
        RUN + ["--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=paths.ROOT,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    return [json.loads(line) for line in lines], done.stdout


def test_declaration_respects_the_contract(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    names = (
        [workload["name"] for workload in declared["workloads"]]
        + [metric["name"] for metric in declared["end_to_end"]]
        + [metric["name"] for metric in declared["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert max(m["bound"] for m in declared["end_to_end"]) == setup[0]["bound"]


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_are_the_declared_names(declared, trace, key):
    printed, text = results(trace)
    assert len(printed) == len(declared["workloads"])
    units = {metric["name"]: metric["unit"] for metric in declared[key]}
    for workload, result in zip(declared["workloads"], printed):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, workload["name"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == set(units), workload["name"]
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == units[name]
            assert isinstance(metric["value"], (int, float))
            if not trace:
                assert metric["value"] > 0, f"{workload['name']}.{name} is not positive"
        # Every metric also appears by name, with its unit, in the readable part.
        assert f"== {workload['name']}" in text
    for name, unit in units.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}", text, re.M), name


def test_every_layer_metric_is_measured_on_some_workload(declared):
    printed, _text = results(1)
    for metric in declared["per_layer"]:
        name = metric["name"]
        if name in ("serve.hub.drops", "runtime.transport.backpressure_blocks",
                    "lineage.probability.cache_hit_ratio", "serve.hub.blocks",
                    "stream.source.late_dropped"):
            continue  # counts of events that need not occur (at --quick sizes)
        assert any(result["metrics"][name]["value"] for result in printed), name
