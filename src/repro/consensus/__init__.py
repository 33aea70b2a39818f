"""Rational-agent consensus substrate.

The bid-agreement block of the framework is built on the rational consensus protocol
of Afek et al. (PODC 2014): providers agree on a value that was the input of some
provider, and any detectable deviation leads the correct providers to output ⊥, which
(by solution preference) no rational coalition wants.

This package provides:

* :mod:`repro.consensus.commitment` — hash-based commit/reveal commitments, used by
  the common coin and by the committed variants of consensus.
* :mod:`repro.consensus.bit_encoding` — the bid ⇄ bit-stream encoding described in
  Section 4.1 of the paper (each bid is turned into a fixed-length stream of bits and
  each bit is agreed on by one binary consensus instance).
* :mod:`repro.consensus.rational_consensus` — a full-information broadcast/echo
  consensus block with equivocation detection; works for binary inputs (the paper's
  building block) and for values from any finite domain.
* :mod:`repro.consensus.multi_consensus` — a batched variant running many labelled
  instances over shared messages, used by the bid agreement in its efficient mode.
"""

from repro.consensus.bit_encoding import (
    bits_to_bid,
    bits_to_value,
    bid_to_bits,
    value_to_bits,
)
from repro.consensus.commitment import Commitment, CommitmentScheme
from repro.consensus.multi_consensus import BatchedConsensusBlock
from repro.consensus.rational_consensus import BinaryConsensusBlock, RationalConsensusBlock

__all__ = [
    "BatchedConsensusBlock",
    "BinaryConsensusBlock",
    "Commitment",
    "CommitmentScheme",
    "RationalConsensusBlock",
    "bid_to_bits",
    "bits_to_bid",
    "bits_to_value",
    "value_to_bits",
]
