"""Reading and writing TP relations as CSV files.

The on-disk format mirrors the paper's tables: one column per fact
attribute, then ``event``, ``ts``, ``te`` and ``p``.  Only base relations
(single-variable lineages) round-trip through CSV.
"""

from __future__ import annotations

import csv
from pathlib import Path

from ..lineage import EventSpace
from .relation import TPRelation
from .schema import Schema

#: Reserved column names appended after the fact attributes.
RESERVED_COLUMNS = ("event", "ts", "te", "p")


def write_relation_csv(relation: TPRelation, path: str | Path) -> None:
    """Write a base relation to ``path`` in the canonical CSV format.

    Raises:
        ValueError: if a tuple's lineage is not a single event variable
            (only base relations can be written).
    """
    from ..lineage import Var

    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    with destination.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([*relation.schema.attributes, *RESERVED_COLUMNS])
        for tp_tuple in relation:
            if not isinstance(tp_tuple.lineage, Var):
                raise ValueError(
                    "only base relations (single-variable lineages) can be written; "
                    f"found lineage {tp_tuple.lineage}"
                )
            probability = tp_tuple.probability
            if probability is None:
                probability = relation.events.probability(tp_tuple.lineage.name)
            writer.writerow(
                [
                    *tp_tuple.fact,
                    tp_tuple.lineage.name,
                    tp_tuple.start,
                    tp_tuple.end,
                    probability,
                ]
            )


def read_relation_csv(
    path: str | Path,
    events: EventSpace | None = None,
    name: str = "",
) -> TPRelation:
    """Read a base relation from a CSV file written by :func:`write_relation_csv`."""
    source = Path(path)
    with source.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if len(header) < len(RESERVED_COLUMNS) or tuple(header[-4:]) != RESERVED_COLUMNS:
            raise ValueError(
                f"CSV header must end with {RESERVED_COLUMNS}, got {header!r}"
            )
        schema = Schema(tuple(header[:-4]))
        rows = []
        for row in reader:
            if not row:
                continue
            fact = row[: len(schema)]
            event, start, end, probability = row[len(schema):]
            rows.append((*fact, event, int(start), int(end), float(probability)))
    return TPRelation.from_rows(schema, rows, events=events, name=name or source.stem)

