"""Probabilities do not depend on ``PYTHONHASHSEED``.

A lineage's variables live in frozensets, whose iteration order follows
string hashing.  Shannon expansion must still condition on the same
variable under every hash seed, or the last bits of a probability move
with the seed: a sharded run, whose seats are separate processes, would
then disagree with the inline one.  Each seed runs in its own interpreter.
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
