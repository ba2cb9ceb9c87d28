"""The oracle comparison's probability check (``tests/conftest.py``)."""

from __future__ import annotations

from repro.lineage import And, Not, Or, Var
from repro.relation import Schema, TPRelation, TPTuple
from repro.temporal import Interval

from tests.conftest import canonical_rows, probabilities_match

#: What NJ and the naive oracle computed for ``l5 ∧ ¬(r0 ∨ r1 ∨ r2 ∨ r3)``:
#: 2 ulp apart, on either side of 0.0921353125, so they round apart at 9
#: decimals.
NJ = float.fromhex("0x1.7962e09fe8680p-4")
ORACLE = float.fromhex("0x1.7962e09fe8684p-4")


def test_two_ulp_across_a_rounding_boundary_match():
    assert round(NJ, 9) != round(ORACLE, 9)
    assert probabilities_match(NJ, ORACLE)


def test_a_gap_of_one_billionth_does_not_match():
    assert not probabilities_match(NJ, NJ + 1e-9)
    assert not probabilities_match(0.5, 0.5 + 1e-9)
    assert not probabilities_match(0.0, 1e-9)


def _relation(probability: float) -> TPRelation:
    lineage = And((Var("l5"), Not(Or(tuple(Var(f"r{i}") for i in range(4))))))
    row = TPTuple(("l5", None), lineage, Interval(3, 7), probability)
    return TPRelation(Schema.of("Key", "Other"), [row], name="j")


def test_rows_match_on_the_other_fields_then_compare_probabilities():
    assert canonical_rows(_relation(NJ)) == canonical_rows(_relation(ORACLE))
    assert canonical_rows(_relation(NJ)) != canonical_rows(_relation(NJ + 1e-9))
    assert canonical_rows(_relation(NJ)) <= canonical_rows(_relation(ORACLE))
