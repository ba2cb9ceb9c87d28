"""A finished run is freed by reference counting, on every transport.

No session, worker or operator may sit in a reference cycle once a run is
done: a run's state would otherwise wait for a full collection — which a
seat defers to the end of its jobs — instead of being freed at once.
"""

from __future__ import annotations

import gc

import pytest

from repro import ExecutionOptions
from repro.stream import StreamQuery

from tests.runtime.test_transports import _register_pair


@pytest.mark.parametrize("materialize", [False, True])
@pytest.mark.parametrize("backend", ["inline", "threads", "processes", "sockets"])
def test_a_finished_run_leaves_no_repro_object_in_a_cycle(backend, materialize):
    catalog, *_ = _register_pair(seed=71, size=60)
    query = StreamQuery(
        catalog,
        "left_outer",
        "l",
        "r",
        [("Key", "Key")],
        config=ExecutionOptions(partitions=2, materialize_probabilities=materialize),
    )
    gc.collect()  # earlier tests' garbage is not this run's
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = query.run(merge_seed=71, backend=backend)
        assert result.relation.tuples
        del result
        gc.collect()
        cyclic = sorted(
            {
                f"{type(thing).__module__}.{type(thing).__qualname__}"
                for thing in gc.garbage
                if type(thing).__module__.startswith("repro.")
            }
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert cyclic == []
