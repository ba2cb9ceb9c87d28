"""Probabilities do not depend on ``PYTHONHASHSEED``.

A lineage's variables live in frozensets, whose iteration order follows
string hashing.  Shannon expansion must still condition on the same
variable under every hash seed, or the last bits of a probability move
with the seed: a sharded run, whose seats are separate processes, would
then disagree with the inline one.  Each seed runs in its own interpreter,
and so does each socket seat a driver spawns.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent.parent

PROBABILITIES = r"""
import json, random
from repro import ExecutionOptions
from repro.dataflow import DataflowQuery, NodeSpec
from repro.datasets import ReplayConfig, generate_relation, meteo_config, stream_def
from repro.engine import Catalog
from repro.lineage import EventSpace, Var, lineage_and, lineage_or, probability

rng = random.Random(7)
events = EventSpace({f"e{i}": rng.uniform(0.05, 0.95) for i in range(8)})
dnf = []
for _ in range(40):
    terms = [lineage_and(*[Var(f"e{j}") for j in rng.sample(range(8), 2)]) for _ in range(4)]
    dnf.append(probability(lineage_or(*terms), events).hex())

catalog = Catalog()
space = EventSpace()
for offset, name in enumerate("rst"):
    relation = generate_relation(meteo_config(60, seed=offset), space, name=name)
    catalog.register_stream(name, stream_def(relation, ReplayConfig(disorder=8, seed=offset)))
on = (("Metric", "Metric"),)
tree = [NodeSpec("n1", "left_outer", "r", "s", on), NodeSpec("n2", "right_outer", "n1", "t", on)]
options = ExecutionOptions(materialize_probabilities=True)
result = DataflowQuery(catalog, tree, options).run(merge_seed=1)
chain = sorted(
    (repr(t.fact), t.start, t.end, t.probability.hex()) for t in result.nodes["n2"].relation
)
print(json.dumps({"dnf": dnf, "chain": chain}))
"""


def _probabilities_under(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = str(PACKAGE_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", PROBABILITIES],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_probabilities_are_bitwise_equal_under_every_hash_seed():
    """Random four-term DNFs over eight shared events, and a two-node chain
    whose second join negates the first one's lineages, each under hash
    seeds 0, 1 and 2."""
    first, *others = [_probabilities_under(seed) for seed in (0, 1, 2)]
    assert len(first["dnf"]) == 40 and first["chain"]
    for other in others:
        assert other["dnf"] == first["dnf"]
        assert other["chain"] == first["chain"]


SPAWNED_SEATS = r"""
import json, multiprocessing, os

import repro.runtime.sockets as sockets
from repro import ExecutionOptions
from repro.dataflow import DataflowQuery, NodeSpec
from repro.datasets import ReplayConfig, generate_relation, meteo_config, stream_def
from repro.engine import Catalog
from repro.lineage import EventSpace


def seat_hash(queue):
    queue.put(hash("seat"))


def chain_rows(result):
    return sorted(
        (repr(t.fact), t.start, t.end, t.probability.hex()) for t in result.nodes["n2"].relation
    )


if __name__ == "__main__":
    # A forked seat shares its driver's hash secret; a spawned interpreter
    # draws it from PYTHONHASHSEED, which the seats now see as 1.
    os.environ["PYTHONHASHSEED"] = "1"
    spawn = multiprocessing.get_context("spawn")
    sockets.preferred_context = lambda: spawn
    queue = spawn.Queue()
    probe = spawn.Process(target=seat_hash, args=(queue,))
    probe.start()
    seat = queue.get(timeout=60)
    probe.join(timeout=60)
    queue.close()
    queue.join_thread()

    catalog = Catalog()
    space = EventSpace()
    for offset, name in enumerate("rst"):
        relation = generate_relation(meteo_config(60, seed=offset), space, name=name)
        catalog.register_stream(name, stream_def(relation, ReplayConfig(disorder=8, seed=offset)))
    on = (("Metric", "Metric"),)
    tree = [
        NodeSpec("n1", "left_outer", "r", "s", on, partitions=2),
        NodeSpec("n2", "right_outer", "n1", "t", on, partitions=2),
    ]
    options = ExecutionOptions(materialize_probabilities=True, transport="sockets")
    inline = DataflowQuery(catalog, tree, options).run(merge_seed=1, backend="inline")
    seated = DataflowQuery(catalog, tree, options).run(merge_seed=1)
    print(json.dumps({
        "hashes": [hash("seat"), seat],
        "backend": seated.backend,
        "inline": chain_rows(inline),
        "seated": chain_rows(seated),
    }))
"""


def test_spawned_seats_settle_bitwise_to_an_inline_run(tmp_path):
    """A two-node chain whose second join negates the first one's derived
    lineages, on two socket seats per node that the driver spawns under
    another hash seed than its own, against the same chain run inline."""
    script = tmp_path / "spawned_seats.py"
    script.write_text(SPAWNED_SEATS)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(PACKAGE_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-X", "dev", str(script)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr, done.stderr
    run = json.loads(done.stdout.splitlines()[-1])
    driver_hash, seat_hash = run["hashes"]
    assert driver_hash != seat_hash, "the seats did not get another hash seed"
    assert run["backend"] == "sockets"
    assert run["inline"] and run["seated"] == run["inline"]
