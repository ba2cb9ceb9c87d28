"""Temporal-probabilistic join operators built from generalized windows.

This module assembles the paper's TP joins with negation (Table II) from the
three window classes computed by the NJ pipeline
``overlap join → LAWAU → LAWAN``:

===================  =========  =========  =========  =========  =========
operator             WU(r;s,θ)  WN(r;s,θ)  WO(r;s,θ)  WU(s;r,θ)  WN(s;r,θ)
===================  =========  =========  =========  =========  =========
anti join  r ▷ s        ✓          ✓
left outer r ⟕ s        ✓          ✓          ✓
right outer r ⟖ s                             ✓          ✓          ✓
full outer r ⟗ s        ✓          ✓          ✓          ✓          ✓
===================  =========  =========  =========  =========  =========

Output tuples are formed per window with the class's lineage-concatenation
function; probabilities are computed from the shared event space unless the
caller opts out (benchmarks measure window computation and probability
computation separately, like the paper measures runtimes without final
materialisation cost differences).
"""

from __future__ import annotations

from ..relation import Schema, TPRelation, TPTuple, ThetaCondition
from .concat import combined_output_schema, window_to_positive_tuple, window_to_tuple
from .lawan import lawan, negating_windows
from .lawau import lawau
from .overlap import overlap_join, overlapping_windows
from .windows import Window, WindowClass, WindowSet

#: The window sets required by each TP join with negation (the paper's Table II).
WINDOW_SETS_BY_OPERATOR: dict[str, tuple[str, ...]] = {
    "anti": ("unmatched_r", "negating_r"),
    "left_outer": ("unmatched_r", "negating_r", "overlapping"),
    "right_outer": ("overlapping", "unmatched_s", "negating_s"),
    "full_outer": (
        "unmatched_r",
        "negating_r",
        "overlapping",
        "unmatched_s",
        "negating_s",
    ),
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
    groups = overlap_join(positive, negative, theta)
    windows = lawan(groups)
    overlapping = tuple(w for w in windows if w.window_class is WindowClass.OVERLAPPING)
    unmatched_r = tuple(w for w in windows if w.window_class is WindowClass.UNMATCHED)
    negating_r = tuple(w for w in windows if w.window_class is WindowClass.NEGATING)
    unmatched_s: tuple[Window, ...] = ()
    negating_s: tuple[Window, ...] = ()
    if include_reverse:
        reverse_theta = _SwappedTheta(theta)
        reverse_groups = overlap_join(negative, positive, reverse_theta)
        reverse_windows = lawan(reverse_groups)
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
def _output_schema(left: TPRelation, right: TPRelation) -> Schema:
    """Combined output schema; right-hand attributes are prefixed on clash."""
    return combined_output_schema(left.schema, right.schema, right.name or "s")


def _finalise(
    relation: TPRelation,
    tuples: list[TPTuple],
    schema: Schema,
    name: str,
    compute_probabilities: bool,
) -> TPRelation:
    result = relation.derived(schema, tuples, name=name)
    if compute_probabilities:
        return result.with_probabilities()
    return result


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
    events = positive.events.merge(negative.events)
    merged = TPRelation(
        positive.schema, positive.tuples, events, name=positive.name, check_constraint=False
    )
    windows = compute_windows(merged, negative, theta)
    tuples = [
        window_to_positive_tuple(w) for w in (*windows.unmatched_r, *windows.negating_r)
    ]
    return _finalise(
        merged, tuples, positive.schema, f"{positive.name} ▷ {negative.name}", compute_probabilities
    )


def tp_left_outer_join(
    positive: TPRelation,
    negative: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """TP left outer join ``r ⟕ s`` (the paper's running example, Fig. 1b)."""
    events = positive.events.merge(negative.events)
    merged = TPRelation(
        positive.schema, positive.tuples, events, name=positive.name, check_constraint=False
    )
    windows = compute_windows(merged, negative, theta)
    schema = _output_schema(positive, negative)
    left_width, right_width = len(positive.schema), len(negative.schema)
    tuples = [
        window_to_tuple(w, left_width, right_width, left_is_positive=True)
        for w in (*windows.unmatched_r, *windows.overlapping, *windows.negating_r)
    ]
    return _finalise(
        merged, tuples, schema, f"{positive.name} ⟕ {negative.name}", compute_probabilities
    )


def tp_right_outer_join(
    left: TPRelation,
    right: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """TP right outer join ``r ⟖ s``: ``s`` is the positive relation."""
    events = left.events.merge(right.events)
    merged_left = TPRelation(
        left.schema, left.tuples, events, name=left.name, check_constraint=False
    )
    windows = compute_windows(merged_left, right, theta, include_reverse=True)
    schema = _output_schema(left, right)
    left_width, right_width = len(left.schema), len(right.schema)
    tuples = [
        window_to_tuple(w, left_width, right_width, left_is_positive=True)
        for w in windows.overlapping
    ]
    tuples.extend(
        window_to_tuple(w, left_width, right_width, left_is_positive=False)
        for w in (*windows.unmatched_s, *windows.negating_s)
    )
    return _finalise(
        merged_left, tuples, schema, f"{left.name} ⟖ {right.name}", compute_probabilities
    )


def tp_full_outer_join(
    left: TPRelation,
    right: TPRelation,
    theta: ThetaCondition,
    compute_probabilities: bool = True,
) -> TPRelation:
    """TP full outer join ``r ⟗ s``: all five window sets of Table II."""
    events = left.events.merge(right.events)
    merged_left = TPRelation(
        left.schema, left.tuples, events, name=left.name, check_constraint=False
    )
    windows = compute_windows(merged_left, right, theta, include_reverse=True)
    schema = _output_schema(left, right)
    left_width, right_width = len(left.schema), len(right.schema)
    tuples = [
        window_to_tuple(w, left_width, right_width, left_is_positive=True)
        for w in (*windows.unmatched_r, *windows.overlapping, *windows.negating_r)
    ]
    tuples.extend(
        window_to_tuple(w, left_width, right_width, left_is_positive=False)
        for w in (*windows.unmatched_s, *windows.negating_s)
    )
    return _finalise(
        merged_left, tuples, schema, f"{left.name} ⟗ {right.name}", compute_probabilities
    )


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
    events = left.events.merge(right.events)
    merged_left = TPRelation(
        left.schema, left.tuples, events, name=left.name, check_constraint=False
    )
    windows = overlapping_windows(merged_left, right, theta)
    schema = _output_schema(left, right)
    left_width, right_width = len(left.schema), len(right.schema)
    tuples = [
        window_to_tuple(w, left_width, right_width, left_is_positive=True) for w in windows
    ]
    return _finalise(
        merged_left, tuples, schema, f"{left.name} ⋈ {right.name}", compute_probabilities
    )


#: Join-kind name → batch join function (the paper's Table II operators plus
#: the inner join).  The names are the values of the engine's ``JoinKind``.
BATCH_JOINS = {
    "anti": tp_anti_join,
    "left_outer": tp_left_outer_join,
    "right_outer": tp_right_outer_join,
    "full_outer": tp_full_outer_join,
    "inner": tp_inner_join,
}


# --------------------------------------------------------------------------- #
# measurement entry points used by the figures' benchmarks
# --------------------------------------------------------------------------- #
def nj_wuo(positive: TPRelation, negative: TPRelation, theta: ThetaCondition) -> list[Window]:
    """NJ's WUO computation (overlap join + LAWAU) — the Fig. 5 measurement."""
    return lawau(overlap_join(positive, negative, theta))


def nj_wn(positive: TPRelation, negative: TPRelation, theta: ThetaCondition) -> list[Window]:
    """NJ's negating windows only (LAWAN sweep output) — the Fig. 6 WN series."""
    return negating_windows(overlap_join(positive, negative, theta))


def nj_wuon(positive: TPRelation, negative: TPRelation, theta: ThetaCondition) -> list[Window]:
    """NJ's full window pipeline WUON (WUO + WN) — the Fig. 6 WUON series."""
    return lawan(overlap_join(positive, negative, theta))
