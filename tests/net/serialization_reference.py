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
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Dict, Tuple

from repro.net.serialization import UnsupportedPayloadError

__all__ = ["canonical_encode", "estimate_size"]

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
