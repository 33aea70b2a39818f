"""Hash-based commitments.

The common coin of the framework (Section 4.2) requires every provider to *commit* to
a random number before learning anybody else's, and later *reveal* it; a provider that
reveals a value inconsistent with its commitment is detected and the block aborts.
We implement the standard hash commitment: ``digest = H(canonical(value) || nonce)``
with a random nonce to make the commitment hiding for low-entropy values.

SHA-256 is used through :mod:`hashlib`; in the rational (non-cryptographic-adversary)
model of the paper this is more than sufficient — the point is detectability of
deviations, not resistance to unbounded adversaries.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any

from repro.net.serialization import canonical_encode

__all__ = ["Commitment", "CommitmentScheme"]

_NONCE_BYTES = 16


@dataclass(frozen=True)
class Commitment:
    """A binding, hiding commitment to a value.

    Attributes:
        digest: hex-encoded SHA-256 digest of ``canonical(value) || nonce``.
    """

    digest: str

    def verify(self, value: Any, nonce: bytes) -> bool:
        """True if ``(value, nonce)`` opens this commitment."""
        return CommitmentScheme.digest_of(value, nonce) == self.digest


class CommitmentScheme:
    """Factory for commitments."""

    @staticmethod
    def digest_of(value: Any, nonce: bytes) -> str:
        hasher = hashlib.sha256()
        hasher.update(canonical_encode(value))
        hasher.update(bytes(nonce))
        return hasher.hexdigest()

    @staticmethod
    def commit(value: Any, rng: random.Random) -> tuple[Commitment, bytes]:
        """Commit to ``value``; returns the commitment and the nonce to keep secret."""
        nonce = rng.getrandbits(_NONCE_BYTES * 8).to_bytes(_NONCE_BYTES, "big")
        return Commitment(CommitmentScheme.digest_of(value, nonce)), nonce
