"""``canonical_order`` renders a lineage only to break a tie, and still is
``sorted(tuples, key=TPTuple.key)`` — the order every merge contract names."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Interval, TPTuple, var
from repro.lineage import lineage_and, lineage_not
from repro.parallel import canonical_order

#: Few distinct values, so (fact, interval) ties — padded, ``None`` facts
#: included — are the common case and every tie is broken by lineage text.
facts = st.tuples(
    st.sampled_from(["k0", "k1", 7]), st.sampled_from([None, "x", "y"])
)
intervals = st.builds(
    lambda start, length: Interval(start, start + length),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=2),
)
variables = st.sampled_from(["a", "b", "c", "d"]).map(var)
lineages = st.one_of(
    variables,
    variables.map(lineage_not),
    st.builds(lineage_and, variables, variables),
)
tuples = st.lists(st.builds(TPTuple, facts, lineages, intervals), max_size=40)


@settings(max_examples=200, deadline=None)
@given(tuples)
def test_canonical_order_is_the_sort_by_key(generated):
    ordered = canonical_order(generated)
    expected = sorted(generated, key=TPTuple.key)
    # Same objects in the same places: full-key ties (exact duplicates
    # included) keep their input order under both, as stable sorts do.
    assert [id(t) for t in ordered] == [id(t) for t in expected]


def test_duplicated_fact_and_interval_are_ordered_by_lineage_text():
    interval = Interval(0, 5)
    late, early = (TPTuple(("k", None), var(name), interval) for name in ("z9", "a1"))
    other = TPTuple(("j", None), var("m"), interval)
    assert canonical_order([late, other, early]) == [other, early, late]
    assert canonical_order(()) == []
