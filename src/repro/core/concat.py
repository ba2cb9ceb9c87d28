"""Lineage-concatenation functions and output-tuple formation.

An output tuple is formed for each generalized window using the facts
``(Fr, Fs)`` and the interval ``T`` in their exact form, while the output
lineage combines ``λr`` and ``λs`` with the concatenation function matched to
the window's class (Section II of the paper):

* overlapping windows use ``and``:     ``λ = λr ∧ λs``
* unmatched windows pass ``λr`` through: ``λ = λr``
* negating windows use ``andNot``:     ``λ = λr ∧ ¬λs``

Output facts are padded with ``None`` on the side a window has no fact for
(rendered as ``-`` in the paper's Fig. 1b); the anti join simply projects the
padded side away.

The NJ joins apply these rules inside :func:`repro.core.joins.group_tuples`,
straight from the sweeps' spans; the window-level functions below state them
class by class for the baselines and the tests that referee those joins.
"""

from __future__ import annotations

from typing import Callable

from ..lineage import LineageExpr, and_not, lineage_and
from ..relation import Schema, TPTuple
from .windows import Window, WindowClass


def combined_output_schema(
    left_schema: Schema, right_schema: Schema, right_name: str = ""
) -> Schema:
    """The combined output schema of an outer join.

    A right-side attribute clashing with a name already taken is prefixed
    with the right input's name (``s`` for an unnamed input); in a join
    *chain* the prefixed name can clash with an earlier join's prefix in
    turn, so it is uniquified (``b2.``, ``b3.``, ...).  This is the one
    definition of the rule: the baselines call it directly, every other
    join — batch, continuous, engine — through
    :func:`repro.core.joins.join_output_schema`.
    """
    prefix = right_name or "s"
    taken = set(left_schema.attributes)
    right_attributes = []
    for name in right_schema.attributes:
        candidate, counter = name, 1
        while candidate in taken:
            candidate = f"{prefix}{counter if counter > 1 else ''}.{name}"
            counter += 1
        taken.add(candidate)
        right_attributes.append(candidate)
    return Schema(left_schema.attributes + tuple(right_attributes))


def concat_and(lineage_r: LineageExpr, lineage_s: LineageExpr | None) -> LineageExpr:
    """The ``and`` concatenation used for overlapping windows."""
    if lineage_s is None:
        raise ValueError("overlapping windows must carry a negative-side lineage")
    return lineage_and(lineage_r, lineage_s)


def concat_pass(lineage_r: LineageExpr, lineage_s: LineageExpr | None) -> LineageExpr:
    """The pass-through concatenation used for unmatched windows."""
    if lineage_s is not None:
        raise ValueError("unmatched windows must not carry a negative-side lineage")
    return lineage_r


def concat_and_not(lineage_r: LineageExpr, lineage_s: LineageExpr | None) -> LineageExpr:
    """The ``andNot`` concatenation used for negating windows."""
    if lineage_s is None:
        raise ValueError("negating windows must carry a negative-side lineage")
    return and_not(lineage_r, lineage_s)


#: Concatenation function per window class (Section II of the paper).
CONCAT_BY_CLASS: dict[WindowClass, Callable[[LineageExpr, LineageExpr | None], LineageExpr]] = {
    WindowClass.OVERLAPPING: concat_and,
    WindowClass.UNMATCHED: concat_pass,
    WindowClass.NEGATING: concat_and_not,
}


def output_lineage(window: Window) -> LineageExpr:
    """The output lineage of a window under its class's concatenation function."""
    return CONCAT_BY_CLASS[window.window_class](window.lineage_r, window.lineage_s)


def window_to_tuple(
    window: Window,
    left_width: int,
    right_width: int,
    left_is_positive: bool = True,
) -> TPTuple:
    """Form the output tuple of a window for a join with a combined schema.

    Args:
        window: the generalized window.
        left_width: number of attributes of the join's left input.
        right_width: number of attributes of the join's right input.
        left_is_positive: ``True`` when the window's positive relation is the
            join's left input (windows of ``r`` w.r.t. ``s``); ``False`` for
            windows of ``s`` w.r.t. ``r`` (the right-hand sets of Table II),
            whose facts must be swapped into the right-hand columns.

    Returns:
        A :class:`TPTuple` with the combined fact (padded with ``None`` on
        the side the window has no fact for), the concatenated lineage and
        the window's interval.  The probability is left unset; callers decide
        when to compute it.
    """
    fact_positive = window.fact_r
    fact_negative = window.fact_s
    if left_is_positive:
        left_fact = fact_positive
        right_fact = fact_negative if fact_negative is not None else (None,) * right_width
    else:
        left_fact = fact_negative if fact_negative is not None else (None,) * left_width
        right_fact = fact_positive
    combined = tuple(left_fact) + tuple(right_fact)
    return TPTuple.from_bounds(combined, output_lineage(window), window.start, window.end)


def window_to_positive_tuple(window: Window) -> TPTuple:
    """Form the output tuple of a window keeping only the positive fact.

    Used by the anti join, whose output schema is the positive relation's
    schema.
    """
    return TPTuple.from_bounds(
        tuple(window.fact_r), output_lineage(window), window.start, window.end
    )
