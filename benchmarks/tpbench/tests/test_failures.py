"""A wrong result must count as a failed operation, never as a number."""

import paths  # noqa: F401
import pytest
from child import Run
from hostspeed import HostSpeed
from workloads import WORKLOADS

SCALE = 0.05


def run_of(name):
    workload = WORKLOADS[name](seed=11, scale=SCALE)
    workload.setup()
    workload.reference()
    speed = HostSpeed()
    speed.sample()
    return workload, Run(workload, speed)


def test_a_corrupted_stream_result_is_a_failed_operation():
    workload, run = run_of("stream-inorder")
    run.one_pass(timed=True)
    assert (run.attempted, run.failed) == (1, 0)
    assert len(run.pass_seconds) == 1
    # Corrupt the reference: drop one expected row.
    workload.reference_rows = workload.reference_rows[1:]
    run.one_pass(timed=True)
    assert (run.attempted, run.failed) == (2, 1)
    assert run.failed / run.attempted > 0
    # The failed pass contributed no timing.
    assert len(run.pass_seconds) == 1


def test_a_changed_batch_digest_is_a_failed_operation():
    workload, run = run_of("batch-nj")
    run.one_pass(timed=False)  # the warm-up fixes the digests
    key = next(iter(workload.digests))
    workload.digests[key] = "0" * 64
    run.one_pass(timed=True)
    assert (run.attempted, run.failed) == (1, 1)
    assert run.rates == []


def test_a_pass_that_raises_is_a_failed_operation():
    workload, run = run_of("stream-disorder")
    run.one_pass(timed=False)

    def broken():
        raise RuntimeError("worker died")

    workload.run_pass = broken
    run.one_pass(timed=True)
    assert (run.attempted, run.failed) == (1, 1)
    assert "worker died" in run.errors[-1]


def test_a_failing_warm_up_stops_the_run():
    workload, run = run_of("stream-inorder")
    workload.reference_rows = []
    with pytest.raises(AssertionError):
        run.one_pass(timed=False)


def test_counts_that_change_between_passes_fail_the_pass():
    workload, run = run_of("stream-inorder")
    run.one_pass(timed=False)
    run.frozen_counts = dict(run.frozen_counts, outputs=-1)
    run.one_pass(timed=True)
    assert (run.attempted, run.failed) == (1, 1)
