"""The recursive ``isinstance``-chain serialisers — the differential oracle.

``canonical_encode`` and ``estimate_size`` below are the walkers that
``repro.net.serialization`` shipped before it compiled a plan per payload class,
kept operation for operation: the 9-way type chain, ``dataclasses.fields`` per
instance, the ``(size, deep_immutable)`` recursion and its instance size memo.
``tests/net/test_serialization_differential.py`` holds the compiled codec to
byte-identical encodings and equal sizes against them.

Two deliberate deviations: ``UnsupportedPayloadError`` is the production class,
so both sides raise the same exception type; and the size memo sits under its
own attribute name, so neither side ever answers from the other's memo.

``encode_label_batch`` / ``decode_label_batch`` write and read the positional
wire form of an agreement batch (``repro.net.serialization.LabelBatch``) as
real bytes, so that a batch's ``estimate_size`` can be held to the length of
an encoding a receiver can actually read back.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Any, Dict, Iterable, Mapping, Sequence, Tuple

from repro.net.serialization import UnsupportedPayloadError

__all__ = ["canonical_encode", "decode_label_batch", "encode_label_batch", "estimate_size"]

#: Per-type cache of (field names, frozen?) — ``dataclasses.fields`` is expensive
#: and payload types are few, while payload *instances* number in the hundreds of
#: thousands per simulated round.
_DATACLASS_INFO: Dict[type, Tuple[Tuple[str, ...], bool]] = {}

#: Attribute under which an instance's computed wire size is memoised.
_SIZE_ATTR = "_reference_wire_size"


def _dataclass_info(cls: type) -> Tuple[Tuple[str, ...], bool]:
    info = _DATACLASS_INFO.get(cls)
    if info is None:
        names = tuple(f.name for f in dataclasses.fields(cls))
        frozen = bool(getattr(cls, "__dataclass_params__").frozen)
        info = (names, frozen)
        _DATACLASS_INFO[cls] = info
    return info


def _encode_float(value: float) -> bytes:
    # Canonical IEEE-754 big-endian encoding; avoids repr() instability.
    return b"f" + struct.pack(">d", float(value))


def _encode_number(value) -> bytes:
    """Encode numbers by numeric value, not representation.

    Payloads are compared structurally with ``==``, under which ``False == 0 ==
    0.0`` — so numerically equal values must encode to the same bytes or the
    validation blocks would flag equal payloads as disagreeing.  Bools collapse
    to ints; ints exactly representable as a double use the float encoding (so
    ``1 == 1.0`` agrees); ``-0.0`` normalises to ``0.0``.
    """
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        try:
            as_float = float(value)
        except OverflowError:
            as_float = None
        if as_float is not None and as_float == value:
            return _encode_float(as_float)
        data = str(value).encode("ascii")
        return b"i" + len(data).to_bytes(4, "big") + data
    if value == 0.0:
        value = 0.0  # collapse -0.0, which compares equal to 0.0
    return _encode_float(value)


def canonical_encode(value: Any) -> bytes:
    """Return a deterministic byte encoding of ``value``.

    Supported types: None, bool, int, float, str, bytes, list, tuple, dict (with
    sortable keys), sets (sorted), and dataclasses (encoded as a tagged dict of
    their fields).

    Raises:
        UnsupportedPayloadError: if the value (or a nested element) has an
            unsupported type.
    """
    if value is None:
        return b"n"
    if isinstance(value, (bool, int, float)):
        return _encode_number(value)
    if isinstance(value, str):
        data = value.encode("utf-8")
        return b"s" + len(data).to_bytes(4, "big") + data
    if isinstance(value, (bytes, bytearray)):
        data = bytes(value)
        return b"y" + len(data).to_bytes(4, "big") + data
    if isinstance(value, (list, tuple)):
        parts = [canonical_encode(item) for item in value]
        body = b"".join(parts)
        return b"l" + len(parts).to_bytes(4, "big") + body
    if isinstance(value, (set, frozenset)):
        encoded = sorted(canonical_encode(item) for item in value)
        body = b"".join(encoded)
        return b"e" + len(encoded).to_bytes(4, "big") + body
    if isinstance(value, dict):
        items = [(canonical_encode(k), canonical_encode(v)) for k, v in value.items()]
        items.sort(key=lambda kv: kv[0])
        body = b"".join(k + v for k, v in items)
        return b"d" + len(items).to_bytes(4, "big") + body
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return b"c" + canonical_encode(name) + canonical_encode(fields)
    raise UnsupportedPayloadError(
        f"cannot canonically encode value of type {type(value).__name__!r}"
    )


def estimate_size(value: Any) -> int:
    """Estimate the wire size, in bytes, of a payload.

    The estimate mirrors ``canonical_encode`` but never raises: unsupported types
    fall back to the length of their ``repr``.  It is intentionally cheap and
    approximate — it is only used for latency modelling and traffic statistics.

    Sizes of *deep-immutable* frozen dataclass instances are memoised on the
    instance: protocol payloads (bid vectors, allocations, payments) are
    broadcast and echoed many times per round, and re-walking a 100-user vector
    per message dominated the simulator's wall time.  ``frozen=True`` alone is
    only shallow, so the recursion tracks whether every nested value is itself
    immutable and skips the memo otherwise (a frozen dataclass holding a dict
    that later grows must keep being re-measured).
    """
    return _estimate(value)[0]


def _estimate(value: Any) -> Tuple[int, bool]:
    """Return ``(size, deep_immutable)`` — the latter gates instance memoisation."""
    # Memoised instances answer before the type dispatch below — payload
    # dataclasses are by far the hottest case in simulated rounds.
    cached = getattr(value, _SIZE_ATTR, None)
    if cached is not None:
        return cached, True
    if value is None or isinstance(value, bool):
        return 1, True
    if isinstance(value, int):
        return max(1, (value.bit_length() + 7) // 8) + 1, True
    if isinstance(value, float):
        return 8, True
    if isinstance(value, str):
        return len(value.encode("utf-8")) + 4, True
    if isinstance(value, bytearray):
        return len(value) + 4, False
    if isinstance(value, bytes):
        return len(value) + 4, True
    if isinstance(value, (tuple, frozenset)):
        size = 4
        immutable = True
        for item in value:
            item_size, item_immutable = _estimate(item)
            size += item_size
            immutable = immutable and item_immutable
        return size, immutable
    if isinstance(value, (list, set)):
        return 4 + sum(_estimate(item)[0] for item in value), False
    if isinstance(value, dict):
        return (
            4 + sum(_estimate(k)[0] + _estimate(v)[0] for k, v in value.items()),
            False,
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        names, frozen = _dataclass_info(type(value))
        size = 4
        immutable = frozen
        for name in names:
            field_size, field_immutable = _estimate(getattr(value, name))
            size += field_size
            immutable = immutable and field_immutable
        if immutable:
            try:
                object.__setattr__(value, _SIZE_ATTR, size)
            except (AttributeError, TypeError):
                pass  # __slots__ without room for the memo
        return size, immutable
    return len(repr(value)), False


# -- the positional wire form of an agreement batch ----------------------------------
def _label_order(labels: Iterable[str]) -> bytes:
    """The header: a length-prefixed SHA-256 of the sorted labels, then their count."""
    ordered = sorted(labels)
    digest = hashlib.sha256(canonical_encode(tuple(ordered))).digest()
    return len(digest).to_bytes(4, "big") + digest + len(ordered).to_bytes(4, "big")


def _label_id(label: str) -> str:
    return label.split(":", 1)[1] if ":" in label else ""


def _record_floats(value: Any, label: str, records: Sequence[type]):
    """The floats ``value`` travels as, if it is a record for ``label``; else ``None``."""
    if type(value) not in records:
        return None
    names = [f.name for f in dataclasses.fields(value)]
    ident, rest = getattr(value, names[0]), [getattr(value, name) for name in names[1:]]
    if type(ident) is not str or ident != _label_id(label):
        return None
    if not all(type(item) is float for item in rest):
        return None
    return rest


def encode_label_batch(batch: Mapping[str, Any], records: Sequence[type]) -> bytes:
    """The bytes a batch over its own labels travels as.

    The label-order header, then per label in sorted order: a record for the
    label as ``1 + records.index(class)`` and its floats (big-endian
    float64s), anything else as ``0`` and its canonical bytes.
    """
    records = list(records)
    parts = [_label_order(batch)]
    for label in sorted(batch):
        value = batch[label]
        floats = _record_floats(value, label, records)
        if floats is None:
            parts.append(b"\x00" + canonical_encode(value))
        else:
            marker = 1 + records.index(type(value))
            parts.append(bytes([marker]) + struct.pack(f">{len(floats)}d", *floats))
    return b"".join(parts)


def decode_label_batch(
    data: bytes,
    labels: Iterable[str],
    records: Sequence[type],
    classes: Iterable[type] = (),
) -> Dict[str, Any]:
    """Read a batch the way a receiver holding ``labels`` does.

    A canonical entry that holds a dataclass is rebuilt from ``records`` and
    ``classes`` by class name.  Raises ``ValueError`` when the header names
    another label set, or the bytes do not end where the last entry does.
    """
    labels = sorted(labels)
    header = _label_order(labels)
    if data[: len(header)] != header:
        raise ValueError("the batch was built over another label set")
    by_name = {cls.__name__: cls for cls in (*records, *classes)}
    batch: Dict[str, Any] = {}
    pos = len(header)
    for label in labels:
        marker = data[pos]
        pos += 1
        if marker:
            record = records[marker - 1]
            count = len(dataclasses.fields(record)) - 1
            floats = struct.unpack_from(f">{count}d", data, pos)
            pos += 8 * count
            batch[label] = record(_label_id(label), *floats)
        else:
            batch[label], pos = _decode(data, pos, by_name)
    if pos != len(data):
        raise ValueError(f"{len(data) - pos} bytes after the last entry")
    return batch


def _decode(data: bytes, pos: int, classes: Mapping[str, type]) -> Tuple[Any, int]:
    """One value of :func:`canonical_encode`'s form, and where it ends.

    The encoding is a normal form: lists and tuples both read as tuples,
    numbers as what they encoded to, so re-encoding gives the same bytes.
    """
    tag = data[pos : pos + 1]
    pos += 1
    if tag == b"n":
        return None, pos
    if tag == b"f":
        return struct.unpack_from(">d", data, pos)[0], pos + 8
    if tag == b"c":
        name, pos = _decode(data, pos, classes)
        fields, pos = _decode(data, pos, classes)
        return classes[name](**fields), pos
    count = int.from_bytes(data[pos : pos + 4], "big")
    pos += 4
    if tag in (b"i", b"s", b"y"):
        raw = data[pos : pos + count]
        pos += count
        if tag == b"i":
            return int(raw.decode("ascii")), pos
        return (raw.decode("utf-8") if tag == b"s" else raw), pos
    if tag not in (b"l", b"e", b"d"):
        raise ValueError(f"unknown tag {tag!r}")
    items = []
    for _ in range(count * (2 if tag == b"d" else 1)):
        item, pos = _decode(data, pos, classes)
        items.append(item)
    if tag == b"l":
        return tuple(items), pos
    if tag == b"e":
        return frozenset(items), pos
    return dict(zip(items[::2], items[1::2])), pos
