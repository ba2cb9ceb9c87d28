"""Temporal-probabilistic join operators built from generalized windows.

This module states the paper's Table II once, as data: which of the window
classes computed by the NJ pipeline ``overlap join → LAWAU → LAWAN`` each TP
join keeps of ``r`` with respect to ``s`` and of ``s`` with respect to ``r``:

===================  =========  =========  =========  =========  =========
operator             WU(r;s,θ)  WN(r;s,θ)  WO(r;s,θ)  WU(s;r,θ)  WN(s;r,θ)
===================  =========  =========  =========  =========  =========
anti join  r ▷ s        ✓          ✓
left outer r ⟕ s        ✓          ✓          ✓
right outer r ⟖ s                             ✓          ✓          ✓
full outer r ⟗ s        ✓          ✓          ✓          ✓          ✓
inner join r ⋈ s                              ✓
===================  =========  =========  =========  =========  =========

:data:`TABLE_II` is that table and :func:`group_tuples` the one place that
reads it: it sweeps overlap groups, keeps the spans of the classes a kind
wants and forms each output tuple once, with the class's
lineage-concatenation function and, when given a probability computer, the
tuple's probability.  A group in the NJ base shape — ``λr`` and every
negative's lineage distinct event variables, the negatives pairwise
disjoint in time — is answered there without the LAWAN sweep: each overlap
record is exactly one negating window, and every lineage it forms is
``λr``, ``λr ∧ λs`` or ``λr ∧ ¬λs``, whose probabilities
:func:`~repro.lineage.and_probability` and
:func:`~repro.lineage.and_not_probability` state from ``p(r)``, looked up
once per group.  Every other group runs the sweep and the
:class:`~repro.lineage.ProbabilityComputer`.  The batch joins
(:func:`tp_join`), the one continuous operator
(:class:`repro.dataflow.RevisionJoin`, also built as
:class:`repro.stream.ContinuousJoin`) and the
engine's NJ operator all derive their tuples through it;
the baselines under :mod:`repro.baselines` and the window-level path
(:func:`~repro.core.concat.window_to_tuple` over :func:`lawan` windows, then
:meth:`~repro.relation.TPRelation.with_probabilities`) keep an independent
class-by-class statement of the same table and are what the tests judge this
one against.

:func:`tp_join` feeds :func:`group_tuples` straight from
:func:`~repro.core.overlap.iter_overlap_join`, so each overlap group is freed
once its outputs are formed, and it builds the result relation without
re-validating the output facts, each formed from facts of two validated
inputs.  Probabilities are computed from the shared event space unless the
caller opts out (Fig. 7 measures the joins without materialising them, like
the paper).
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Iterable, Iterator, Optional

from ..lineage import (
    And,
    LineageExpr,
    Not,
    ProbabilityComputer,
    Var,
    and_not,
    and_not_probability,
    and_probability,
    lineage_and,
)
from ..relation import Schema, TPRelation, TPTuple, ThetaCondition
from .concat import combined_output_schema
from .lawan import lawan, negating_sweep, negating_windows
from .lawau import gap_sweep, lawau
from .overlap import OverlapGroup, OverlapRecord, iter_overlap_join, overlap_spans
from .windows import Window, WindowClass, WindowSet

_U, _N, _O = WindowClass.UNMATCHED, WindowClass.NEGATING, WindowClass.OVERLAPPING

#: The paper's Table II (plus the inner join): join kind → the window classes
#: kept of ``r`` w.r.t. ``s``, then of ``s`` w.r.t. ``r``.  The overlapping
#: windows are shared (``WO(r;s,θ) = WO(s;r,θ)``) and always taken from
#: ``r``'s side, so output lineages keep one operand order.  The kind names
#: are the values of the engine's ``JoinKind``.
TABLE_II: dict[str, tuple[frozenset[WindowClass], frozenset[WindowClass]]] = {
    "anti": (frozenset({_U, _N}), frozenset()),
    "left_outer": (frozenset({_U, _N, _O}), frozenset()),
    "right_outer": (frozenset({_O}), frozenset({_U, _N})),
    "full_outer": (frozenset({_U, _N, _O}), frozenset({_U, _N})),
    "inner": (frozenset({_O}), frozenset()),
}

#: Every join kind, batch or continuous.
JOIN_KINDS = frozenset(TABLE_II)

#: Kinds that also keep windows of ``s`` w.r.t. ``r`` (the reverse windows).
REVERSE_KINDS = frozenset(kind for kind, (_, kept) in TABLE_II.items() if kept)

#: The algebra symbol of each kind (relation names, ``describe()`` lines).
JOIN_SYMBOLS = {
    "anti": "▷",
    "left_outer": "⟕",
    "right_outer": "⟖",
    "full_outer": "⟗",
    "inner": "⋈",
}


# --------------------------------------------------------------------------- #
# window computation
# --------------------------------------------------------------------------- #
def compute_windows(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    include_reverse: bool = False,
) -> WindowSet:
    """Compute the generalized windows of ``positive`` with respect to ``negative``.

    When ``include_reverse`` is set, the unmatched and negating windows of the
    *negative* relation with respect to the positive one are computed as well
    (they are needed by right and full outer joins; the overlapping windows
    are shared since ``WO(r;s,θ) = WO(s;r,θ)``).
    """
    windows = lawan(iter_overlap_join(positive, negative, theta))
    overlapping = tuple(w for w in windows if w.window_class is WindowClass.OVERLAPPING)
    unmatched_r = tuple(w for w in windows if w.window_class is WindowClass.UNMATCHED)
    negating_r = tuple(w for w in windows if w.window_class is WindowClass.NEGATING)
    unmatched_s: tuple[Window, ...] = ()
    negating_s: tuple[Window, ...] = ()
    if include_reverse:
        reverse_theta = _SwappedTheta(theta)
        reverse_windows = lawan(iter_overlap_join(negative, positive, reverse_theta))
        unmatched_s = tuple(
            w for w in reverse_windows if w.window_class is WindowClass.UNMATCHED
        )
        negating_s = tuple(
            w for w in reverse_windows if w.window_class is WindowClass.NEGATING
        )
    return WindowSet(overlapping, unmatched_r, negating_r, unmatched_s, negating_s)


class _SwappedTheta(ThetaCondition):
    """θ with the roles of the two inputs exchanged (for the reverse windows)."""

    def __init__(self, inner: ThetaCondition) -> None:
        self._inner = inner

    def evaluate(self, left: TPTuple, right: TPTuple) -> bool:
        return self._inner.evaluate(right, left)

    def left_key(self, left: TPTuple):
        return self._inner.right_key(left)

    def right_key(self, right: TPTuple):
        return self._inner.left_key(right)

    @property
    def is_equi(self) -> bool:
        return self._inner.is_equi

    def describe(self) -> str:
        return f"swapped({self._inner.describe()})"


def swap_theta(theta: ThetaCondition) -> ThetaCondition:
    """Return θ with its two sides exchanged (public helper for baselines)."""
    return _SwappedTheta(theta)


# --------------------------------------------------------------------------- #
# join operators
# --------------------------------------------------------------------------- #
def group_tuples(
    kind: str,
    groups: Iterable[OverlapGroup],
    left_width: int,
    right_width: int,
    reverse: bool = False,
    computer: Optional[ProbabilityComputer] = None,
) -> Iterator[TPTuple]:
    """The output tuples join ``kind`` forms from completed overlap groups.

    ``groups`` are overlap groups of ``r`` w.r.t. ``s`` — or, with
    ``reverse``, of ``s`` w.r.t. ``r`` (θ swapped), whose facts go into the
    right-hand columns.  Tuples are produced lazily, group by group: a
    group's LAWAU windows first, then its negating windows.  Each is formed
    once, straight from the sweep's span: the class's concatenation
    (``and`` / pass-through / ``andNot``), the padded fact, and — given a
    ``computer`` — the probability of the lineage.

    A group in the NJ base shape (:func:`_base_shape`) skips the LAWAN
    sweep: each of its overlap records is exactly one negating window, whose
    lineage and probability are formed directly, as the builders and the
    computer would form them, bit for bit.
    """
    wanted = TABLE_II[kind][reverse]
    if not wanted:
        return
    keep_u, keep_n, keep_o = _U in wanted, _N in wanted, _O in wanted
    positive_only = kind == "anti"
    pad = (None,) * (left_width if reverse else right_width)
    if computer is None:
        probability = events = marginal = None
    else:
        probability, events = computer.probability, computer.events
        marginal = events.probability
    make = TPTuple.from_bounds
    # One ¬λs per negative event, shared by every record of it in this call.
    negations: dict[str, Not] = {}
    for group in groups:
        r = group.r
        fact_r, lineage_r = tuple(r.fact), r.lineage
        padded = fact_r if positive_only else (pad + fact_r if reverse else fact_r + pad)
        # LAWAN is LAWAU plus the negating sweep and LAWAU the overlap records
        # plus the gaps between them: run no more of the pipeline than is kept.
        spans = gap_sweep(group) if keep_u or keep_n else overlap_spans(group)
        if _base_shape(lineage_r, group.matches) and (
            events is None or lineage_r.name in events
        ):
            # Every window is λr, λr ∧ λs or λr ∧ ¬λs: p(r) is looked up once.
            p_r = None if marginal is None else marginal(lineage_r.name)
            for window_class, start, end, fact_s, lineage_s in spans:
                if window_class is _U:
                    if not keep_u:
                        continue
                    fact, lineage, p = padded, lineage_r, p_r
                elif keep_o:
                    fact, lineage = fact_r + tuple(fact_s), And((lineage_r, lineage_s))
                    p = None if marginal is None else and_probability(p_r, marginal(lineage_s.name))
                else:
                    continue
                if marginal is not None:
                    computer.factorised += 1
                yield make(fact, lineage, start, end, p)
            if keep_n:
                for record in group.matches:
                    lineage_s = record.s.lineage
                    name_s = lineage_s.name
                    p = None
                    if marginal is not None:
                        p = and_not_probability(p_r, marginal(name_s))
                        computer.factorised += 1
                    negated = negations.get(name_s)
                    if negated is None:
                        negated = negations[name_s] = Not(lineage_s)
                    lineage = And((lineage_r, negated))
                    yield make(padded, lineage, record.start, record.end, p)
                # The loop variable would keep this group's last record alive
                # through the next group's build when that one has none.
                record = None
            continue
        if keep_n:
            spans = chain(spans, negating_sweep(group))
        for window_class, start, end, fact_s, lineage_s in spans:
            if window_class is _N:
                fact, lineage = padded, and_not(lineage_r, lineage_s)
            elif window_class is _U:
                if not keep_u:
                    continue
                fact, lineage = padded, lineage_r
            elif keep_o:
                # Only kept of r w.r.t. s, by a kind with the combined schema.
                fact, lineage = fact_r + tuple(fact_s), lineage_and(lineage_r, lineage_s)
            else:
                continue
            yield make(
                fact, lineage, start, end, None if probability is None else probability(lineage)
            )


def _base_shape(lineage_r: LineageExpr, matches: list[OverlapRecord]) -> bool:
    """Whether one overlap group is in the NJ base shape.

    ``λr`` is an event variable, every negative's lineage is another one,
    and the records (sorted by start) are pairwise disjoint: each starts at
    or after the previous one ends.  Then every active set of the LAWAN
    sweep holds exactly one negative, so each record is one negating window
    ``λr ∧ ¬λs``, and every lineage the group forms is one of the shapes
    :func:`~repro.lineage.and_probability` and
    :func:`~repro.lineage.and_not_probability` answer.
    """
    if type(lineage_r) is not Var:
        return False
    name = lineage_r.name
    previous_end = matches[0].start if matches else None
    for record in matches:
        lineage_s = record.s.lineage
        if type(lineage_s) is not Var or lineage_s.name == name or record.start < previous_end:
            return False
        previous_end = record.end
    return True


def join_output_schema(
    kind: str, left_schema: Schema, right_schema: Schema, right_name: str = ""
) -> Schema:
    """The output schema of join ``kind``: ``r``'s for the anti join, else combined.

    ``right_name`` is the right input's name (relation, stream or dataflow
    node); an unnamed input prefixes its clashing attributes with ``s``.
    """
    if kind not in TABLE_II:
        raise ValueError(f"unknown join kind {kind!r}; supported: {sorted(TABLE_II)}")
    if kind == "anti":
        return left_schema
    return combined_output_schema(left_schema, right_schema, right_name)


def tp_join(
    kind: str,
    left: TPRelation,
    right: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """The TP join ``kind`` of ``left`` (``r``, positive) and ``right`` (``s``)."""
    schema = join_output_schema(kind, left.schema, right.schema, right.name)
    events = left.events.merge(right.events)
    widths = len(left.schema), len(right.schema)
    # One computer for both halves, consulted in output order.
    computer = ProbabilityComputer(events) if compute_probabilities else None
    groups = iter_overlap_join(left, right, theta)
    tuples = list(group_tuples(kind, groups, *widths, computer=computer))
    if kind in REVERSE_KINDS:
        reverse_groups = iter_overlap_join(right, left, swap_theta(theta))
        tuples.extend(group_tuples(kind, reverse_groups, *widths, reverse=True, computer=computer))
    name = f"{left.name} {JOIN_SYMBOLS[kind]} {right.name}"
    # Every output fact joins facts of two validated inputs: none is re-checked.
    return TPRelation._trusted(schema, tuples, events, name)


def tp_anti_join(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """TP anti join ``r ▷ s``: unmatched and negating windows of ``r`` w.r.t. ``s``.

    The output schema is the positive relation's schema; at every time point
    the result gives the probability that the positive tuple is true while
    *no* θ-matching negative tuple is true.
    """
    return tp_join("anti", positive, negative, theta, compute_probabilities)


def tp_left_outer_join(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """TP left outer join ``r ⟕ s`` (the paper's running example, Fig. 1b)."""
    return tp_join("left_outer", positive, negative, theta, compute_probabilities)


def tp_right_outer_join(
    left: TPRelation,
    right: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """TP right outer join ``r ⟖ s``: ``s`` is the positive relation."""
    return tp_join("right_outer", left, right, theta, compute_probabilities)


def tp_full_outer_join(
    left: TPRelation,
    right: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """TP full outer join ``r ⟗ s``: all five window sets of Table II."""
    return tp_join("full_outer", left, right, theta, compute_probabilities)


def tp_inner_join(
    left: TPRelation,
    right: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """TP inner join: overlapping windows only (no negation involved).

    Not one of the paper's joins *with negation*, but the natural companion
    operator and the positive part shared by all of them.
    """
    return tp_join("inner", left, right, theta, compute_probabilities)


#: Join-kind name → batch join function, for callers that dispatch on a kind.
BATCH_JOINS = {kind: partial(tp_join, kind) for kind in TABLE_II}


# --------------------------------------------------------------------------- #
# measurement entry points of the figures' series (``repro.harness``)
# --------------------------------------------------------------------------- #
def nj_wuo(positive: TPRelation, negative: TPRelation, theta: ThetaCondition) -> list[Window]:
    """NJ's WUO computation (overlap join + LAWAU) — the Fig. 5 measurement."""
    return lawau(iter_overlap_join(positive, negative, theta))


def nj_wn(positive: TPRelation, negative: TPRelation, theta: ThetaCondition) -> list[Window]:
    """NJ's negating windows only — the Fig. 6 WN series.

    The overlap join plus the negating sweep: no LAWAU gaps, no copy of WUO.
    ``python -m repro.harness fig6`` times this call.
    """
    return negating_windows(iter_overlap_join(positive, negative, theta))


def nj_wuon(positive: TPRelation, negative: TPRelation, theta: ThetaCondition) -> list[Window]:
    """NJ's full window pipeline WUON (WUO + WN) — the Fig. 6 WUON series."""
    return lawan(iter_overlap_join(positive, negative, theta))
