"""Key-partitioned parallelism: the codecs and the batch name.

The temporal-probabilistic window and probability computations are CPU-bound
pure Python, so thread parallelism is GIL-capped at one core.  Running a
join on K processes is one thing: a K-partition stream query on the runtime
(``StreamQuery(..., ExecutionOptions(partitions=K, transport="sockets"))``).
This package holds what that path and its batch-shaped name share:

* :mod:`repro.parallel.serialize` — compact codecs for tuples, lineages and
  stream elements, which the process and socket transports ship.
* :mod:`repro.parallel.batch` — :func:`parallel_tp_join`: any Table II join
  on relations, serial for one worker and a K-partition stream query for
  more, returned in the canonical order of :func:`canonical_order`.

The degree is the caller's: ``workers=`` here, ``ExecutionOptions.partitions``
for a SQL stream join; nothing sizes it from statistics.

Correctness invariant: with an equi-θ, every window of a tuple derives only
from tuples sharing its join key, so key-disjoint partitions never interact
and their outputs merge without reconciliation.
"""

from .batch import (
    BATCH_JOINS,
    ParallelJoinResult,
    canonical_order,
    parallel_tp_join,
)
from .serialize import (
    decode_lineage,
    decode_tagged,
    decode_tuple,
    decode_tuples,
    encode_lineage,
    encode_tagged,
    encode_tuple,
    encode_tuples,
)

__all__ = [
    "BATCH_JOINS",
    "ParallelJoinResult",
    "canonical_order",
    "decode_lineage",
    "decode_tagged",
    "decode_tuple",
    "decode_tuples",
    "encode_lineage",
    "encode_tagged",
    "encode_tuple",
    "encode_tuples",
    "parallel_tp_join",
]
