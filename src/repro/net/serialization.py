"""Canonical encoding and wire-size estimation for protocol payloads.

The distributed auctioneer needs two serialisation services:

* ``canonical_encode`` — a *deterministic* byte encoding of a payload, used to hash
  values for commitments (common coin) and to compare values exchanged by the
  input-validation and data-transfer blocks.  Two structurally equal payloads always
  encode to the same bytes, regardless of dict insertion order.
* ``estimate_size`` — a cheap estimate of the number of bytes a payload would occupy
  on the wire, used by bandwidth-aware latency models and traffic accounting.

Only plain data (numbers, strings, bytes, bools, None, tuples/lists, dicts, and
dataclasses composed of those) is supported; this keeps the encoding portable and
prevents accidentally shipping live objects between nodes.

Both services dispatch through one *compiled codec*: a ``type -> plan`` table
filled the first time a payload class is seen.  Exact builtins and their
subclasses resolve through the category chain once; a dataclass gets a plan
with everything that does not depend on the instance precomputed (tag prefix,
encoded field keys in canonical order, frozen flag).  A round ships hundreds
of thousands of values of a dozen classes, so per-value work is one dict lookup
instead of an ``isinstance`` chain plus ``dataclasses.fields``.

:class:`FrozenMap` is the one payload type defined here: a mapping that cannot
change after construction, so that protocol blocks can keep, forward and echo a
received batch *by reference* instead of copying it, and so that its wire size
is measured once however many messages carry it.
"""

from __future__ import annotations

import dataclasses
import struct
from operator import itemgetter
from typing import Any, Callable, NoReturn, Tuple

from repro.common import memoise

__all__ = [
    "DERIVED_ATTR",
    "FrozenMap",
    "UnsupportedPayloadError",
    "canonical_encode",
    "estimate_size",
]

#: Attributes under which an instance's wire size / canonical bytes are memoised.
_SIZE_ATTR = "_repro_wire_size"
_BYTES_ATTR = "_repro_wire_bytes"
#: The :class:`FrozenMap` slot for what a holder derives from the contents.
DERIVED_ATTR = "_repro_derived"

_pack_double = struct.Struct(">d").pack
_pack_count = struct.Struct(">I").pack
_first = itemgetter(0)


class UnsupportedPayloadError(TypeError):
    """Raised when a payload contains a type that cannot be canonically encoded."""


class FrozenMap(dict):
    """A ``dict`` whose every mutator raises: a mapping payload shared by reference.

    On the wire it *is* the dict it was built from — same canonical bytes, same
    size, ``==`` to it both ways — so swapping one for the other moves no
    commitment and no traffic statistic.  What it adds is that holders need no
    defensive copy, and that the codec may memoise its size on the instance
    (only when every key and value is deep-immutable; a frozen map holding a
    list is re-measured like any dict).  Holders sharing one may likewise keep
    what they derive from its contents in the ``DERIVED_ATTR`` slot (the bid
    agreement keeps the assembled vector there); neither slot is compared,
    encoded or pickled.  Like ``frozen=True`` on a dataclass it guards against
    mutation through the object's own interface, not against
    ``dict.__setitem__(m, ...)`` — which is also all that a memo shared through
    it can promise.
    """

    __slots__ = (_SIZE_ATTR, DERIVED_ATTR)

    def __new__(cls, *args: Any, **kwargs: Any) -> "FrozenMap":
        # Filled here, like a tuple or frozenset, so that calling ``__init__``
        # again cannot change it.
        self = dict.__new__(cls)
        dict.__init__(self, *args, **kwargs)
        return self

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        pass

    def _immutable(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise TypeError("FrozenMap does not support mutation")

    __setitem__ = __delitem__ = __ior__ = _immutable
    update = pop = popitem = setdefault = clear = _immutable

    def __reduce__(self):
        # The default dict-subclass protocol rebuilds through ``__setitem__``.
        return (FrozenMap, (dict(self),))


class _Plan:
    """How values of one exact class are encoded and measured.

    ``encode(value)`` returns the canonical bytes; ``measure(value)`` returns
    ``(size, deep_immutable)``, the latter gating the instance memos.
    ``scalar`` marks classes whose values are always deep-immutable leaves.
    """

    __slots__ = ("encode", "measure", "scalar")

    def __init__(
        self,
        encode: Callable[[Any], bytes],
        measure: Callable[[Any], Tuple[int, bool]],
        scalar: bool = False,
    ) -> None:
        self.encode = encode
        self.measure = measure
        self.scalar = scalar


class _PlanTable(dict):
    """``type -> _Plan``, compiled on first sight of a class."""

    def __missing__(self, cls: type) -> _Plan:
        plan = self[cls] = _compile(cls)
        return plan


_PLANS = _PlanTable()


# -- numbers -------------------------------------------------------------------
# Numbers encode by numeric value, not representation.  Payloads are compared
# structurally with ``==``, under which ``False == 0 == 0.0`` — so numerically
# equal values must encode to the same bytes or the validation blocks would
# flag equal payloads as disagreeing.  Bools collapse to ints; ints exactly
# representable as a double use the float encoding (so ``1 == 1.0`` agrees);
# ``-0.0`` normalises to ``0.0``.  Floats use the canonical IEEE-754 big-endian
# encoding, which avoids repr() instability.
_ENCODED_FALSE = b"f" + _pack_double(0.0)
_ENCODED_TRUE = b"f" + _pack_double(1.0)


def _encode_none(value: None) -> bytes:
    return b"n"


def _encode_bool(value: bool) -> bytes:
    return _ENCODED_TRUE if value else _ENCODED_FALSE


def _encode_int(value: int) -> bytes:
    try:
        as_float = float(value)
    except OverflowError:
        as_float = None
    if as_float is not None and as_float == value:
        return b"f" + _pack_double(as_float)
    data = str(value).encode("ascii")
    return b"i" + _pack_count(len(data)) + data


def _encode_float(value: float) -> bytes:
    if value == 0.0:
        value = 0.0  # collapse -0.0, which compares equal to 0.0
    return b"f" + _pack_double(value)


def _measure_unit(value: Any) -> Tuple[int, bool]:
    return 1, True


def _measure_int(value: int) -> Tuple[int, bool]:
    return max(1, (value.bit_length() + 7) // 8) + 1, True


def _measure_float(value: float) -> Tuple[int, bool]:
    return 8, True


# -- strings and bytes ---------------------------------------------------------
def _encode_str(value: str) -> bytes:
    data = value.encode("utf-8")
    return b"s" + _pack_count(len(data)) + data


def _encode_bytes(value) -> bytes:
    data = bytes(value)
    return b"y" + _pack_count(len(data)) + data


def _measure_str(value: str) -> Tuple[int, bool]:
    return (len(value) if value.isascii() else len(value.encode("utf-8"))) + 4, True


def _measure_bytes(value: bytes) -> Tuple[int, bool]:
    return len(value) + 4, True


def _measure_bytearray(value: bytearray) -> Tuple[int, bool]:
    return len(value) + 4, False


# -- containers ----------------------------------------------------------------
def _encode_sequence(value) -> bytes:
    plans = _PLANS
    parts = [plans[type(item)].encode(item) for item in value]
    return b"l" + _pack_count(len(parts)) + b"".join(parts)


def _encode_set(value) -> bytes:
    plans = _PLANS
    parts = sorted(plans[type(item)].encode(item) for item in value)
    return b"e" + _pack_count(len(parts)) + b"".join(parts)


def _encode_dict(value: dict) -> bytes:
    plans = _PLANS
    items = [
        (plans[type(k)].encode(k), plans[type(v)].encode(v)) for k, v in value.items()
    ]
    items.sort(key=_first)
    return b"d" + _pack_count(len(items)) + b"".join([k + v for k, v in items])


def _measure_frozen_items(value) -> Tuple[int, bool]:
    """Tuples and frozensets: immutable exactly when every item is."""
    plans = _PLANS
    size = 4
    immutable = True
    for item in value:
        item_size, item_immutable = plans[type(item)].measure(item)
        size += item_size
        if not item_immutable:
            immutable = False
    return size, immutable


def _total_size(items) -> int:
    """Summed sizes of ``items``; a run of one class shares one plan lookup."""
    plans = _PLANS
    total = 0
    seen = None
    for item in items:
        cls = type(item)
        if cls is not seen:
            seen = cls
            measure = plans[cls].measure
        total += measure(item)[0]
    return total


def _measure_mutable_items(value) -> Tuple[int, bool]:
    return 4 + _total_size(value), False


def _measure_keys(value: dict) -> Tuple[int, bool]:
    """Summed sizes of a dict's keys, and whether every key is deep-immutable."""
    try:
        # All-``str`` keys, the usual case, are measured in bulk: UTF-8 lengths
        # add up under concatenation.
        return 4 * len(value) + len("".join(value).encode("utf-8")), True
    except TypeError:
        size, immutable = _measure_frozen_items(value)
        return size - 4, immutable


def _measure_dict(value: dict) -> Tuple[int, bool]:
    return 4 + _measure_keys(value)[0] + _total_size(value.values()), False


def _measure_frozen_map(value: FrozenMap) -> Tuple[int, bool]:
    """A dict's size, remembered once every key and value is deep-immutable."""
    cached = getattr(value, _SIZE_ATTR, None)
    if cached is not None:
        return cached, True
    keys, keys_immutable = _measure_keys(value)
    values, values_immutable = _measure_frozen_items(value.values())
    size = keys + values
    immutable = keys_immutable and values_immutable
    if immutable:
        memoise(value, _SIZE_ATTR, size)
    return size, immutable


# -- dataclasses ---------------------------------------------------------------
def _dataclass_plan(cls: type) -> _Plan:
    """Compile the plan of a dataclass: a tagged dict of its fields.

    Both memos live on the instance, behind the deep-immutability gate.
    ``frozen=True`` alone is only shallow, so ``measure`` tracks whether every
    nested value is itself immutable and memoises the size only then (a frozen
    dataclass holding a dict that later grows must keep being re-measured).
    Encoded bytes are memoised on *flat* records only — frozen, every field a
    scalar, hence deep-immutable by construction: the leaf bids are what every
    encoding of a vector is made of, and joining their remembered bytes is
    cheap (0.08 ms for 300 users), so the vector itself — one agreed object per
    round, shared by the providers — does not keep the same bytes a second time.
    """
    plans = _PLANS
    frozen = bool(cls.__dataclass_params__.frozen)
    names = tuple(f.name for f in dataclasses.fields(cls))
    keyed = sorted((_encode_str(name), name) for name in names)
    prefix = b"c" + _encode_str(cls.__name__) + b"d" + _pack_count(len(keyed))

    def encode(value: Any) -> bytes:
        if frozen:
            cached = getattr(value, _BYTES_ATTR, None)
            if cached is not None:
                return cached
        parts = [prefix]
        flat = frozen
        for key, name in keyed:
            item = getattr(value, name)
            plan = plans[type(item)]
            parts.append(key)
            parts.append(plan.encode(item))
            if not plan.scalar:
                flat = False
        data = b"".join(parts)
        if flat:
            memoise(value, _BYTES_ATTR, data)
        return data

    def measure(value: Any) -> Tuple[int, bool]:
        if frozen:
            cached = getattr(value, _SIZE_ATTR, None)
            if cached is not None:
                return cached, True
        size = 4
        immutable = frozen
        for name in names:
            item = getattr(value, name)
            item_size, item_immutable = plans[type(item)].measure(item)
            size += item_size
            if not item_immutable:
                immutable = False
        if immutable:
            memoise(value, _SIZE_ATTR, size)
        return size, immutable

    return _Plan(encode, measure)


# -- everything else -----------------------------------------------------------
def _encode_unsupported(value: Any) -> bytes:
    raise UnsupportedPayloadError(
        f"cannot canonically encode value of type {type(value).__name__!r}"
    )


def _measure_unsupported(value: Any) -> Tuple[int, bool]:
    return len(repr(value)), False


#: Category chain, in the order subclasses of builtins are matched against it.
_BUILTIN_PLANS = (
    (type(None), _Plan(_encode_none, _measure_unit, scalar=True)),
    (bool, _Plan(_encode_bool, _measure_unit, scalar=True)),
    (int, _Plan(_encode_int, _measure_int, scalar=True)),
    (float, _Plan(_encode_float, _measure_float, scalar=True)),
    (str, _Plan(_encode_str, _measure_str, scalar=True)),
    (bytearray, _Plan(_encode_bytes, _measure_bytearray)),
    (bytes, _Plan(_encode_bytes, _measure_bytes, scalar=True)),
    (tuple, _Plan(_encode_sequence, _measure_frozen_items)),
    (frozenset, _Plan(_encode_set, _measure_frozen_items)),
    (list, _Plan(_encode_sequence, _measure_mutable_items)),
    (set, _Plan(_encode_set, _measure_mutable_items)),
    (dict, _Plan(_encode_dict, _measure_dict)),
)
_UNSUPPORTED_PLAN = _Plan(_encode_unsupported, _measure_unsupported)
# The exact class only: a subclass may hand the mutators back, so it compiles
# to the plain dict plan like any other dict subclass.
_PLANS[FrozenMap] = _Plan(_encode_dict, _measure_frozen_map)


def _compile(cls: type) -> _Plan:
    for base, plan in _BUILTIN_PLANS:
        if issubclass(cls, base):
            return plan
    if dataclasses.is_dataclass(cls):
        return _dataclass_plan(cls)
    return _UNSUPPORTED_PLAN


def canonical_encode(value: Any) -> bytes:
    """Return a deterministic byte encoding of ``value``.

    Supported types: None, bool, int, float, str, bytes, list, tuple, dict (with
    sortable keys), sets (sorted), and dataclasses (encoded as a tagged dict of
    their fields).

    Raises:
        UnsupportedPayloadError: if the value (or a nested element) has an
            unsupported type.
    """
    return _PLANS[type(value)].encode(value)


def estimate_size(value: Any) -> int:
    """Estimate the wire size, in bytes, of a payload.

    The estimate mirrors ``canonical_encode`` but never raises: unsupported types
    fall back to the length of their ``repr``.  It is intentionally cheap and
    approximate — it is only used for latency modelling and traffic statistics.

    Sizes of *deep-immutable* frozen dataclass instances and :class:`FrozenMap`
    values are memoised on the instance: protocol payloads (bid vectors,
    agreement batches, allocations, payments) are broadcast and echoed many
    times per round, and re-walking a 100-user vector per message dominated the
    simulator's wall time.
    """
    return _PLANS[type(value)].measure(value)[0]
