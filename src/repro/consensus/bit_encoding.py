"""Bid ⇄ bit-stream encoding.

Section 4.1 of the paper implements bid agreement by having each provider generate,
for every bidder, "a stream of bits uniquely determined from the bid" and running one
binary rational-consensus instance per bit.  This module provides that encoding for
bandwidth-auction user bids: a *fixed-width* stream (unit value and demand as 64-bit
IEEE-754 doubles), which is what the per-bit bid-agreement mode uses because every
provider must a-priori know how many consensus instances to run.
"""

from __future__ import annotations

import struct
from typing import List, Sequence

__all__ = ["bid_to_bits", "bits_to_bid", "BID_BIT_LENGTH"]

#: Number of bits in the fixed-width encoding of a user bid (two float64 fields).
BID_BIT_LENGTH = 128


def _bytes_to_bits(data: bytes) -> List[int]:
    bits: List[int] = []
    for byte in data:
        for position in range(7, -1, -1):
            bits.append((byte >> position) & 1)
    return bits


def _bits_to_bytes(bits: Sequence[int]) -> bytes:
    """Pack a bit stream whose length is a multiple of 8 (the caller checks it)."""
    out = bytearray()
    for index in range(0, len(bits), 8):
        byte = 0
        for bit in bits[index : index + 8]:
            if bit not in (0, 1):
                raise ValueError(f"invalid bit {bit!r}")
            byte = (byte << 1) | bit
        out.append(byte)
    return bytes(out)


def bid_to_bits(unit_value: float, demand: float) -> List[int]:
    """Fixed-width (128-bit) encoding of a user bid's two numeric fields."""
    data = struct.pack(">dd", float(unit_value), float(demand))
    bits = _bytes_to_bits(data)
    assert len(bits) == BID_BIT_LENGTH
    return bits


def bits_to_bid(bits: Sequence[int]) -> tuple[float, float]:
    """Decode the fixed-width encoding back into ``(unit_value, demand)``."""
    if len(bits) != BID_BIT_LENGTH:
        raise ValueError(f"expected {BID_BIT_LENGTH} bits, got {len(bits)}")
    unit_value, demand = struct.unpack(">dd", _bits_to_bytes(bits))
    return unit_value, demand
