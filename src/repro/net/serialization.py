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

:class:`~repro.common.FrozenMap` (re-exported here), :class:`LabelBatch` and
:class:`Digest` are the payload types of the codec's own.  A ``FrozenMap`` is
a mapping that cannot change after construction, so that protocol blocks can
keep and forward a received batch *by reference* instead of copying it, and so
that its wire size is measured once however many messages carry it.  A
``LabelBatch`` is the frozen map an agreement batch is: it encodes as its dict
but travels by position over labels every receiver already holds, so a bid
costs its 128 bits instead of its key and its tagged fields.  A ``Digest``
stands on the wire for the SHA-256 of a value: it is sized and encoded as
those 32 bytes, while the simulator keeps the value by reference and compares
digests by comparing their values.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import struct
from operator import attrgetter, itemgetter
from typing import Any, Callable, Tuple

from repro.common import DERIVED_ATTR, WIRE_SIZE_ATTR, FrozenMap, memoise

__all__ = [
    "DERIVED_ATTR",
    "DIGEST_SIZE",
    "Digest",
    "FROZEN_MAPS",
    "FrozenMap",
    "LABEL_BATCH_HEADER",
    "LabelBatch",
    "UnsupportedPayloadError",
    "canonical_encode",
    "digest_or_self",
    "estimate_size",
]

#: Attribute under which an instance's canonical bytes are memoised (its wire
#: size goes under ``WIRE_SIZE_ATTR``).
_BYTES_ATTR = "_repro_wire_bytes"

_pack_double = struct.Struct(">d").pack
_pack_count = struct.Struct(">I").pack
_first = itemgetter(0)


class UnsupportedPayloadError(TypeError):
    """Raised when a payload contains a type that cannot be canonically encoded."""


class Digest(tuple):
    """The SHA-256 digest of ``value``, as a payload: 32 bytes on the wire.

    The simulator keeps ``value`` by reference instead of hashing it, so a
    digest costs nothing to build and two digests compare as their values do
    (``tuple`` equality, in C, with the identity check first).  Only the codec
    reads the hash: :func:`estimate_size` is :data:`DIGEST_SIZE` and
    :func:`canonical_encode` the SHA-256 of ``value``'s canonical bytes.
    Protocol code compares digests and never opens one.
    """

    __slots__ = ()

    def __new__(cls, value: Any) -> "Digest":
        return tuple.__new__(cls, (value,))

    def __getnewargs__(self) -> Tuple[Any]:
        return (self[0],)

    def __repr__(self) -> str:
        return f"Digest({self[0]!r})"


class LabelBatch(FrozenMap):
    """An agreement batch (label -> value) that travels by position over its labels.

    Every receiver knows the labels a batch must cover before it arrives (the
    bid agreement's sorted expected ids), so the wire does not repeat them.  A
    batch is sent as a digest of its sorted labels (:data:`DIGEST_SIZE` bytes:
    a batch built over another label set fails on it), a 4-byte count, and one
    entry per label in that order.  An entry that is a *record* for its label
    — an instance of one of ``records`` whose first field is the ``str`` after
    the label's first ``:`` and whose other two fields are exactly ``float``
    — is a 1-byte marker naming its class and two float64s: a bid is the 128
    bits §4.1 agrees on.  Anything else (``None``, garbage, a bid naming
    another user, ``int`` fields) is a 0 marker and its canonical bytes, which
    a receiver decodes without knowing their type.

    ``records`` (at most 255 frozen dataclasses of three fields: an id and
    two numbers) is protocol knowledge like the labels: only
    :func:`estimate_size` reads it.  The batch encodes and compares as the
    dict it holds, so a commitment or a digest does not depend on the form a
    batch took, and a deviant's plain dict is the same batch sized as a keyed
    dict.  Keys must be strings.
    """

    __slots__ = ("records",)

    def __new__(cls, items: Any, records: Tuple[type, ...]) -> "LabelBatch":
        self = FrozenMap.__new__(cls, items)
        records = tuple(records)
        if len(records) > 255:
            raise TypeError("a LabelBatch names at most 255 record classes")
        for record in records:
            _record_fields(record)  # checks the class once
        if not {str}.issuperset(map(type, self)):
            raise TypeError("a LabelBatch is keyed by strings")
        self.records = records
        return self

    def __reduce__(self):
        return (LabelBatch, (dict(self), self.records))


#: The mappings protocol blocks keep by reference: exact types only, since a
#: subclass may hand the mutators back.
FROZEN_MAPS = (FrozenMap, LabelBatch)


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


#: Wire size of a :class:`Digest`: 32 raw bytes and their length prefix.
DIGEST_SIZE = _measure_bytes(bytes(32))[0]


def _encode_digest(value: Digest) -> bytes:
    return _encode_bytes(hashlib.sha256(canonical_encode(value[0])).digest())


def _measure_digest(value: Digest) -> Tuple[int, bool]:
    # Immutable when what it stands for is: its encoding derives from it.
    return DIGEST_SIZE, _deep_immutable(value[0])


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
    cached = getattr(value, WIRE_SIZE_ATTR, None)
    if cached is not None:
        return cached, True
    keys, keys_immutable = _measure_keys(value)
    values, values_immutable = _measure_frozen_items(value.values())
    size = keys + values
    immutable = keys_immutable and values_immutable
    if immutable:
        memoise(value, WIRE_SIZE_ATTR, size)
    return size, immutable


#: Wire bytes of a :class:`LabelBatch` before its entries: the label-order
#: digest and the entry count.
LABEL_BATCH_HEADER = DIGEST_SIZE + 4


@functools.lru_cache(maxsize=None)
def _record_fields(record: type) -> Callable[[Any], Tuple[Any, ...]]:
    """A record class's three field values, in field order, as one call."""
    if not (
        dataclasses.is_dataclass(record)
        and record.__dataclass_params__.frozen
        and len(dataclasses.fields(record)) == 3
    ):
        raise TypeError(f"a record must be a frozen dataclass of three fields, got {record!r}")
    return attrgetter(*(f.name for f in dataclasses.fields(record)))


def _measure_label_batch(value: LabelBatch) -> Tuple[int, bool]:
    """The positional wire size, remembered as a ``FrozenMap``'s is.

    Per label: a record for it is its marker and 16 bytes; anything else its
    marker and its canonical bytes (an unencodable value, which no wire
    carries, its estimate).  A record for its label is deep-immutable (a
    frozen class holding a ``str`` and two floats); anything else passes the
    immutability gate through its own plan.  The record test is unrolled for
    the three fields: it runs on every entry of every batch a round builds.
    """
    cached = getattr(value, WIRE_SIZE_ATTR, None)
    if cached is not None:
        return cached, True
    plans = _PLANS
    fields_of = {record: _record_fields(record) for record in value.records}
    size = LABEL_BATCH_HEADER + len(value)
    immutable = True
    for label, entry in value.items():
        fields = fields_of.get(type(entry))
        if fields is not None:
            ident, first, second = fields(entry)
            if (
                type(first) is float is type(second)
                and type(ident) is str
                and ident == label.partition(":")[2]
            ):
                size += 16
                continue
        plan = plans[type(entry)]
        entry_size, entry_immutable = plan.measure(entry)
        try:
            entry_size = len(plan.encode(entry))
        except UnsupportedPayloadError:
            pass
        size += entry_size
        if not entry_immutable:
            immutable = False
    if immutable:
        memoise(value, WIRE_SIZE_ATTR, size)
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
            cached = getattr(value, WIRE_SIZE_ATTR, None)
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
            memoise(value, WIRE_SIZE_ATTR, size)
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
_PLANS[LabelBatch] = _Plan(_encode_dict, _measure_label_batch)
_PLANS[Digest] = _Plan(_encode_digest, _measure_digest)


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


def digest_or_self(value: Any) -> Any:
    """``Digest(value)``, or ``value`` itself when it is no larger on the wire.

    What stands for a value in a message: an agreement echo's batch, or a
    result announcement after the first.  A value of at most
    :data:`DIGEST_SIZE` bytes (⊥, a one-bit batch) costs less than its digest.
    """
    return value if estimate_size(value) <= DIGEST_SIZE else Digest(value)


def _deep_immutable(value: Any) -> bool:
    """True if no part of ``value`` can change: the gate of the codec's size memo.

    What is derived from such a value's contents may be remembered on it; a
    second call on a value whose size is already memoised is one attribute read.
    """
    return _PLANS[type(value)].measure(value)[1]
