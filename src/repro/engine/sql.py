"""A small SQL-ish front end for TP queries.

The paper modified PostgreSQL's parser so that temporal-probabilistic joins
can be written in SQL.  This module provides the equivalent surface for the
Python engine: a hand-written recursive-descent parser for a compact dialect
covering exactly the operations the engine supports.

Grammar (case-insensitive keywords)::

    query      :=  SELECT select_list FROM source join_clause*
                   where_clause? during_clause? using_clause?
    select_list:=  '*' | identifier (',' identifier)*
    source     :=  STREAM? relation
    join_clause:=  TP join_kind JOIN source ON condition (AND condition)*
    join_kind  :=  LEFT OUTER | RIGHT OUTER | FULL OUTER | ANTI | INNER
    condition  :=  qualified '=' qualified
    qualified  :=  identifier ('.' identifier)?
    where_clause := WHERE identifier '=' literal (AND identifier '=' literal)*
    during_clause := DURING '[' number ',' number ')'
    using_clause  := USING (NJ | TA | NAIVE)
    literal    :=  number | quoted string

Examples::

    SELECT * FROM a TP LEFT OUTER JOIN b ON a.Loc = b.Loc
    SELECT Name FROM a TP ANTI JOIN b ON a.Loc = b.Loc WHERE Name = 'Ann'
    SELECT * FROM a TP FULL OUTER JOIN b ON a.Loc = b.Loc DURING [4, 8) USING TA
    SELECT * FROM STREAM a TP ANTI JOIN STREAM b ON a.Loc = b.Loc
    SELECT * FROM STREAM a TP ANTI JOIN STREAM b ON a.Loc = b.Loc
                  TP FULL OUTER JOIN STREAM c ON a.Loc = c.Loc

``STREAM name`` targets a registered stream instead of a stored relation;
a TP join between two streams is planned as a continuous, watermark-driven
join.  ``STREAM`` is a *contextual* keyword: it only acts as a marker when
followed by a name, so relations or attributes named ``stream`` keep
working.  Multiple join clauses chain left-deep: each clause joins the
accumulated result with the next source — over streams the planner compiles
the chain into a retractable dataflow graph (:mod:`repro.dataflow`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..temporal import Interval
from .errors import SQLSyntaxError
from .logical import (
    JoinKind,
    JoinStrategy,
    LogicalPlan,
    Project,
    Scan,
    Select,
    StreamScan,
    Timeslice,
    TPJoin,
)

_TOKEN_PATTERN = re.compile(
    r"""
    \s*(
        '(?:[^']*)'            # quoted string
      | [A-Za-z_][A-Za-z_0-9]* # identifier / keyword
      | \d+\.\d+               # float
      | \d+                    # integer
      | [*,().=\[\)]           # punctuation
    )
    """,
    re.VERBOSE,
)

# "stream" is deliberately NOT reserved: it is a contextual keyword that only
# acts as a marker in the source position when followed by a name, so existing
# relations or attributes called "stream" keep parsing.
_KEYWORDS = {
    "select", "from", "tp", "left", "right", "full", "outer", "anti", "inner",
    "join", "on", "and", "where", "during", "using",
}

_JOIN_KINDS = {
    ("left", "outer"): JoinKind.LEFT_OUTER,
    ("right", "outer"): JoinKind.RIGHT_OUTER,
    ("full", "outer"): JoinKind.FULL_OUTER,
    ("anti",): JoinKind.ANTI,
    ("inner",): JoinKind.INNER,
}

_STRATEGIES = {"nj": JoinStrategy.NJ, "ta": JoinStrategy.TA, "naive": JoinStrategy.NAIVE}


@dataclass(frozen=True)
class JoinClause:
    """One parsed ``TP ... JOIN source ON ...`` clause."""

    kind: JoinKind
    relation: str
    is_stream: bool
    on: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ParsedQuery:
    """The outcome of parsing: a logical plan plus surface details.

    ``right_relation`` / ``join_kind`` / ``right_is_stream`` describe the
    *first* join clause (kept for single-join callers); ``joins`` lists
    every clause of a chained query in order.
    """

    plan: LogicalPlan
    select_list: tuple[str, ...]
    left_relation: str
    right_relation: Optional[str]
    join_kind: Optional[JoinKind]
    strategy: JoinStrategy
    left_is_stream: bool = False
    right_is_stream: bool = False
    joins: tuple[JoinClause, ...] = ()


def tokenize(text: str) -> list[str]:
    """Split a query string into tokens; raises on unrecognised characters."""
    tokens: list[str] = []
    position = 0
    stripped = text.strip()
    while position < len(stripped):
        match = _TOKEN_PATTERN.match(stripped, position)
        if match is None:
            raise SQLSyntaxError(
                f"unexpected character {stripped[position]!r} at offset {position}"
            )
        tokens.append(match.group(1))
        position = match.end()
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[str]) -> None:
        self._tokens = tokens
        self._position = 0
        self._base_relation: Optional[str] = None

    # -- token helpers ---------------------------------------------------- #
    def _peek(self) -> Optional[str]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _peek_keyword(self) -> Optional[str]:
        token = self._peek()
        return token.lower() if token is not None else None

    def _advance(self) -> str:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of query")
        self._position += 1
        return token

    def _expect_keyword(self, keyword: str) -> None:
        token = self._advance()
        if token.lower() != keyword:
            raise SQLSyntaxError(f"expected {keyword.upper()!r}, got {token!r}")

    def _expect(self, literal: str) -> None:
        token = self._advance()
        if token != literal:
            raise SQLSyntaxError(f"expected {literal!r}, got {token!r}")

    def _identifier(self) -> str:
        token = self._advance()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", token) or token.lower() in _KEYWORDS:
            raise SQLSyntaxError(f"expected identifier, got {token!r}")
        return token

    # -- grammar ----------------------------------------------------------#
    def parse(self) -> ParsedQuery:
        self._expect_keyword("select")
        select_list = self._select_list()
        self._expect_keyword("from")
        left_is_stream = self._stream_marker()
        left_relation = self._identifier()
        self._base_relation = left_relation

        joins: list[JoinClause] = []
        prior_relations = {left_relation}
        while self._peek_keyword() == "tp":
            self._advance()
            join_kind = self._join_kind()
            self._expect_keyword("join")
            right_is_stream = self._stream_marker()
            right_relation = self._identifier()
            self._expect_keyword("on")
            on_pairs = self._conditions(prior_relations, right_relation)
            joins.append(JoinClause(join_kind, right_relation, right_is_stream, on_pairs))
            prior_relations.add(right_relation)

        filters = self._where_clause()
        during = self._during_clause()
        strategy = self._using_clause()
        if self._peek() is not None:
            raise SQLSyntaxError(f"trailing tokens starting at {self._peek()!r}")

        left_scan: LogicalPlan = (
            StreamScan(left_relation) if left_is_stream else Scan(left_relation)
        )
        plan: LogicalPlan = left_scan
        for clause in joins:
            right_scan: LogicalPlan = (
                StreamScan(clause.relation) if clause.is_stream else Scan(clause.relation)
            )
            plan = TPJoin(plan, right_scan, clause.kind, clause.on, strategy)
        for attribute, value in filters:
            plan = Select(plan, attribute, value)
        if during is not None:
            plan = Timeslice(plan, during)
        if select_list != ("*",):
            plan = Project(plan, select_list)
        first = joins[0] if joins else None
        return ParsedQuery(
            plan=plan,
            select_list=select_list,
            left_relation=left_relation,
            right_relation=first.relation if first else None,
            join_kind=first.kind if first else None,
            strategy=strategy,
            left_is_stream=left_is_stream,
            right_is_stream=first.is_stream if first else False,
            joins=tuple(joins),
        )

    def _stream_marker(self) -> bool:
        # Contextual keyword: STREAM marks a stream source only when the next
        # token is a plain name ("FROM STREAM a").  A lone "stream" followed
        # by a keyword or the end of the query is a relation called "stream".
        if self._peek_keyword() != "stream":
            return False
        following = (
            self._tokens[self._position + 1]
            if self._position + 1 < len(self._tokens)
            else None
        )
        if following is None:
            return False
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", following):
            return False
        if following.lower() in _KEYWORDS:
            return False
        self._advance()
        return True

    def _select_list(self) -> tuple[str, ...]:
        if self._peek() == "*":
            self._advance()
            return ("*",)
        names = [self._identifier()]
        while self._peek() == ",":
            self._advance()
            names.append(self._identifier())
        return tuple(names)

    def _join_kind(self) -> JoinKind:
        first = self._advance().lower()
        if first in ("left", "right", "full"):
            self._expect_keyword("outer")
            return _JOIN_KINDS[(first, "outer")]
        if (first,) in _JOIN_KINDS:
            return _JOIN_KINDS[(first,)]
        raise SQLSyntaxError(f"unknown join kind starting with {first!r}")

    def _conditions(
        self, prior_relations: set[str], right_relation: str
    ) -> tuple[tuple[str, str], ...]:
        pairs = [self._condition(prior_relations, right_relation)]
        while self._peek_keyword() == "and" and self._looks_like_condition():
            self._advance()
            pairs.append(self._condition(prior_relations, right_relation))
        return tuple(pairs)

    def _looks_like_condition(self) -> bool:
        # Distinguish `AND x.a = y.b` (join condition) from a later WHERE AND.
        save = self._position
        try:
            self._advance()  # AND
            self._qualified()
            self._expect("=")
            self._qualified()
            return True
        except SQLSyntaxError:
            return False
        finally:
            self._position = save

    def _condition(
        self, prior_relations: set[str], right_relation: str
    ) -> tuple[str, str]:
        first_relation, first_attribute = self._qualified()
        self._expect("=")
        second_relation, second_attribute = self._qualified()
        if first_relation == right_relation and (
            second_relation is None or second_relation in prior_relations
        ):
            left_relation, left_attribute = second_relation, second_attribute
            right_attribute = first_attribute
        else:
            left_relation, left_attribute = first_relation, first_attribute
            right_attribute = second_attribute
        return (self._left_reference(left_relation, left_attribute), right_attribute)

    def _left_reference(self, relation: Optional[str], attribute: str) -> str:
        """The left-side attribute reference a chained join condition names.

        In a chain, the accumulated left schema prefixes attributes of a
        non-first input when they clash with an earlier name (e.g. ``Loc``
        of ``sb`` becomes ``sb.Loc`` after the first join).  A qualifier
        naming such a relation is therefore *kept* — the planner resolves
        it against the real accumulated schema (exact name when prefixed,
        bare name when it never clashed).  Base-relation qualifiers and
        unqualified names stay bare, which is also the single-join
        behaviour of earlier grammars.
        """
        if relation is None or relation == self._base_relation:
            return attribute
        return f"{relation}.{attribute}"

    def _qualified(self) -> tuple[Optional[str], str]:
        name = self._identifier()
        if self._peek() == ".":
            self._advance()
            attribute = self._identifier()
            return (name, attribute)
        return (None, name)

    def _where_clause(self) -> list[tuple[str, object]]:
        filters: list[tuple[str, object]] = []
        if self._peek_keyword() != "where":
            return filters
        self._advance()
        filters.append(self._where_condition())
        while self._peek_keyword() == "and":
            self._advance()
            filters.append(self._where_condition())
        return filters

    def _where_condition(self) -> tuple[str, object]:
        attribute = self._identifier()
        self._expect("=")
        return (attribute, self._literal())

    def _literal(self) -> object:
        token = self._advance()
        if token.startswith("'") and token.endswith("'"):
            return token[1:-1]
        if re.fullmatch(r"\d+", token):
            return int(token)
        if re.fullmatch(r"\d+\.\d+", token):
            return float(token)
        raise SQLSyntaxError(f"expected literal, got {token!r}")

    def _during_clause(self) -> Optional[Interval]:
        if self._peek_keyword() != "during":
            return None
        self._advance()
        self._expect("[")
        start = self._literal()
        self._expect(",")
        end = self._literal()
        self._expect(")")
        if not isinstance(start, int) or not isinstance(end, int):
            raise SQLSyntaxError("DURING bounds must be integers")
        return Interval(start, end)

    def _using_clause(self) -> JoinStrategy:
        if self._peek_keyword() != "using":
            return JoinStrategy.AUTO
        self._advance()
        token = self._advance().lower()
        if token not in _STRATEGIES:
            raise SQLSyntaxError(f"unknown strategy {token!r}; expected NJ, TA or NAIVE")
        return _STRATEGIES[token]


def parse_query(text: str) -> ParsedQuery:
    """Parse a query string into a :class:`ParsedQuery`."""
    parsed = _Parser(tokenize(text)).parse()
    return parsed
