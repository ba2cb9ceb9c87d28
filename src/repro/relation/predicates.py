"""Join conditions (θ) over the non-temporal attributes.

The paper's joins are parameterised by an arbitrary condition θ between the
non-temporal attributes of the two inputs (the running example uses the
equality ``a.Loc = b.Loc``).  A :class:`ThetaCondition` evaluates such a
condition over a pair of facts; the common equi-join case gets a dedicated
subclass so algorithms and the planner can detect it and use hash
partitioning.
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Hashable, Optional, Sequence

from .schema import Schema
from .tptuple import TPTuple


def stable_key_hash(key: Hashable) -> int:
    """An equality-invariant, run-stable hash of a partition key.

    Two properties matter for shard routing, in this order:

    1. **Equality invariance** — ``a == b`` must imply the same hash, or
       equal join keys land in different shards and the shared-nothing
       invariant breaks.  Numbers are normalised through builtin ``hash``
       (``hash(1) == hash(1.0) == hash(True)``, and numeric hashing is not
       salted), so cross-type equal keys route together exactly as the
       serial join's ``==`` matches them.
    2. **Run stability** — Python's builtin string hash is salted per
       process (``PYTHONHASHSEED``), so strings are hashed via CRC-32 of
       their bytes instead; shard assignment is then reproducible across
       runs for keys built from strings, numbers, ``None`` and tuples
       thereof (every key a :class:`ThetaCondition` produces).  Exotic key
       types fall back to builtin ``hash`` — equality-invariant and
       consistent within the routing process, though not across runs.
    """
    return zlib.crc32(repr(_normalize_key(key)).encode("utf-8", "backslashreplace"))


class StableKeyHashes(dict):
    """:func:`stable_key_hash` of each key, computed once per key.

    A router keeps one per run (or per worker): ``hashes[key]`` is one dict
    lookup after a key's first event.  Keys that compare equal share one
    entry, which is sound because the hash is equality-invariant.
    """

    __slots__ = ()

    def __missing__(self, key: Hashable) -> int:
        value = self[key] = stable_key_hash(key)
        return value


def _normalize_key(value) -> object:
    """Map a key to an address-free form on which ``repr`` is stable."""
    if value is None or isinstance(value, (str, bytes)):
        return value
    if isinstance(value, numbers.Number):
        # Python guarantees hash equality across ==-equal numerics of any
        # registered Number type (int/float/complex/Decimal/Fraction/...).
        return ("num", hash(value))
    if isinstance(value, tuple):
        return tuple(_normalize_key(part) for part in value)
    if isinstance(value, frozenset):
        return ("set", tuple(sorted(repr(_normalize_key(part)) for part in value)))
    return ("obj", hash(value))


def matchable(key: tuple) -> bool:
    """Whether an equi-join key can equal any key under ``==``.

    A dictionary finds a key holding ``nan`` by identity, but ``nan`` equals
    nothing, itself included.  The joins neither index nor probe such a key,
    so hash lookup alone decides an equi-θ.
    """
    for value in key:
        if value != value:
            return False
    return True


class ThetaCondition:
    """A join condition between a tuple of ``r`` and a tuple of ``s``."""

    def evaluate(self, left: TPTuple, right: TPTuple) -> bool:
        """Return ``True`` when the pair satisfies the condition."""
        raise NotImplementedError

    def left_key(self, left: TPTuple) -> Optional[Hashable]:
        """Return a hashable partitioning key for the left tuple, if any.

        ``None`` signals that the condition cannot be evaluated by key
        equality and a nested-loop style pairing must be used.
        """
        return None

    def right_key(self, right: TPTuple) -> Optional[Hashable]:
        """Return a hashable partitioning key for the right tuple, if any."""
        return None

    @property
    def is_equi(self) -> bool:
        """Whether the condition is a conjunction of attribute equalities."""
        return False

    def describe(self) -> str:
        """A human-readable rendering used by EXPLAIN output."""
        return type(self).__name__


@dataclass(frozen=True)
class TrueCondition(ThetaCondition):
    """The always-true condition (a pure temporal join)."""

    def evaluate(self, left: TPTuple, right: TPTuple) -> bool:
        return True

    def left_key(self, left: TPTuple) -> Hashable:
        return ()

    def right_key(self, right: TPTuple) -> Hashable:
        return ()

    @property
    def is_equi(self) -> bool:
        return True

    def describe(self) -> str:
        return "true"


@dataclass(frozen=True)
class EquiJoinCondition(ThetaCondition):
    """Equality of one or more attribute pairs (``r.A = s.B ∧ ...``).

    The attribute names are resolved to fact positions once, at
    construction (which is also where an unknown name raises), and each
    side's key function is built there too: :attr:`left_key` and
    :attr:`right_key` are per-instance callables that form a tuple's key
    with one call.  A condition pickles and copies as its three fields and
    rebuilds the key functions on the way back.
    """

    left_schema: Schema
    right_schema: Schema
    pairs: tuple[tuple[str, str], ...]
    _positions: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False
    )
    left_key: Callable[[TPTuple], tuple] = field(init=False, repr=False, compare=False)
    right_key: Callable[[TPTuple], tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        positions = tuple(
            (self.left_schema.index(left_name), self.right_schema.index(right_name))
            for left_name, right_name in self.pairs
        )
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "left_key", _key_function([i for i, _ in positions]))
        object.__setattr__(self, "right_key", _key_function([i for _, i in positions]))

    def __reduce__(self):
        return type(self), (self.left_schema, self.right_schema, self.pairs)

    @classmethod
    def on(
        cls,
        left_schema: Schema,
        right_schema: Schema,
        *pairs: tuple[str, str],
    ) -> "EquiJoinCondition":
        """Create a condition from ``(left_attr, right_attr)`` pairs."""
        return cls(left_schema, right_schema, tuple(pairs))

    def evaluate(self, left: TPTuple, right: TPTuple) -> bool:
        left_fact, right_fact = left.fact, right.fact
        return all(
            left_fact[left_index] == right_fact[right_index]
            for left_index, right_index in self._positions
        )

    @property
    def is_equi(self) -> bool:
        return True

    def describe(self) -> str:
        return " AND ".join(f"r.{left} = s.{right}" for left, right in self.pairs)


def _key_function(indexes: Sequence[int]) -> Callable[[TPTuple], tuple]:
    """The key of a tuple on its fact positions ``indexes``, as a tuple."""
    if len(indexes) == 1:
        (index,) = indexes

        def key(tp_tuple: TPTuple) -> tuple:
            return (tp_tuple.fact[index],)

    elif indexes:
        getter = itemgetter(*indexes)

        def key(tp_tuple: TPTuple) -> tuple:
            return getter(tp_tuple.fact)

    else:

        def key(tp_tuple: TPTuple) -> tuple:
            return ()

    return key


@dataclass(frozen=True)
class PredicateCondition(ThetaCondition):
    """An arbitrary Python predicate over the two facts (general θ)."""

    predicate: Callable[[tuple, tuple], bool]
    label: str = "predicate"

    def evaluate(self, left: TPTuple, right: TPTuple) -> bool:
        return bool(self.predicate(left.fact, right.fact))

    def describe(self) -> str:
        return self.label


def equi_join_on(
    left_schema: Schema, right_schema: Schema, pairs: Sequence[tuple[str, str]]
) -> EquiJoinCondition:
    """Convenience constructor mirroring the paper's ``θ: a.Loc = b.Loc``."""
    return EquiJoinCondition(left_schema, right_schema, tuple(pairs))


def theta_or_true(
    left_schema: Schema, right_schema: Schema, pairs: Sequence[tuple[str, str]]
) -> ThetaCondition:
    """The θ for equality pairs, or the always-true condition when empty.

    The single definition of the "no ON pairs means a pure temporal join"
    rule shared by the engine's join operators and the stream subsystem.
    """
    if not pairs:
        return TrueCondition()
    return EquiJoinCondition(left_schema, right_schema, tuple(pairs))
