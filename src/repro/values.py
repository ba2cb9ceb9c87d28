"""Frozen value types that are cheap to construct.

The data model's values — :class:`~repro.temporal.Interval`,
:class:`~repro.relation.TPTuple`, the lineage nodes, and the join's
:class:`~repro.core.overlap.OverlapRecord` and
:class:`~repro.core.windows.Window` records — and the runtime's elements —
:class:`~repro.stream.elements.StreamEvent`,
:class:`~repro.stream.elements.Watermark`,
:class:`~repro.stream.elements.Tagged`,
:class:`~repro.dataflow.revision.Revision` and
:class:`~repro.stream.incremental.FinalizedGroup` — are frozen, slotted
dataclasses: immutable, and compared and hashed by value.  The ``__init__``
a frozen dataclass generates has to write every field through
``object.__setattr__``, because the class's own ``__setattr__`` refuses; for
a five-field tuple that is most of the cost of the object.

So none of them uses a generated ``__init__``.  Each has one constructor,
its ``__new__`` (for :class:`~repro.relation.TPTuple`, the factory its
``__new__`` calls), which validates the fields, writes them with plain
attribute stores on an instance of the type's :func:`writer` and hands that
instance out as the frozen type with one ``__class__`` assignment — plus
writer-built instances in the named hot loops, which make the same stores
and the same checks inline, with no call per value: the NJ base shape's
fused loop in :func:`repro.core.joins.group_tuples` (each output
:class:`~repro.relation.TPTuple` and its :class:`~repro.lineage.And`), and
the overlap join's ``_merge_bucket`` and the stream maintainer's
``add_positive``/``add_negative`` (each
:class:`~repro.core.overlap.OverlapRecord`).  ``==``,
``hash`` and ``repr`` stay the dataclass's own, and each type's
``__reduce__`` unpickles and copies through the same constructor.  The
lineage nodes and :class:`~repro.relation.TPTuple`, most of a pickled
worker report's objects, spell theirs out; the other types whose
constructor takes the fields in order share :func:`reduce_fields`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, fields
from operator import attrgetter
from typing import Callable, Dict


def _refuse_assignment(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to {name!r}")


def _refuse_deletion(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete {name!r}")


def writer(frozen: type) -> type:
    """A subclass of ``frozen`` whose instances accept attribute stores.

    It adds no slots, so once its fields are written an instance can take
    ``frozen`` as its class.  ``__delattr__`` is reset too: the two share
    one type slot, which only becomes the plain attribute store when
    neither is overridden.

    ``frozen`` itself is made to refuse every assignment and deletion with
    :class:`~dataclasses.FrozenInstanceError`.  The dataclass's own refusal
    covers only the fields: for any other name, such as a derived
    ``interval`` property, it calls ``super()`` on the class that
    ``slots=True`` replaced and fails with a ``TypeError``.
    """
    frozen.__setattr__ = _refuse_assignment
    frozen.__delattr__ = _refuse_deletion
    namespace = {
        "__slots__": (),
        "__setattr__": object.__setattr__,
        "__delattr__": object.__delattr__,
    }
    return type(f"_{frozen.__name__}Writer", (frozen,), namespace)


def _one_field(name: str) -> Callable[[object], tuple]:
    get = attrgetter(name)

    def getter(value) -> tuple:
        return (get(value),)

    return getter


#: One field getter per type for :func:`reduce_fields`.
_FIELD_GETTERS: Dict[type, Callable[[object], tuple]] = {}


def reduce_fields(value) -> tuple:
    """``__reduce__`` of a value type whose constructor takes its fields in order.

    Pickle calls it once per object, so the getter is built once per type:
    ``dataclasses.fields`` walks the class's field table on every call.
    """
    cls = type(value)
    getter = _FIELD_GETTERS.get(cls)
    if getter is None:
        # attrgetter of two or more names returns their tuple, of one name
        # the bare value (a Watermark's).
        names = [field.name for field in fields(cls)]
        getter = attrgetter(*names) if len(names) > 1 else _one_field(names[0])
        _FIELD_GETTERS[cls] = getter
    return cls, getter(value)
