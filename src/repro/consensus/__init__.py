"""Rational-agent consensus substrate.

The bid-agreement block of the framework is built on the rational consensus protocol
of Afek et al. (PODC 2014): providers agree on a value that was the input of some
provider, and any detectable deviation leads the correct providers to output ⊥, which
(by solution preference) no rational coalition wants.

This package provides:

* :mod:`repro.consensus.commitment` — hash-based commit/reveal commitments, used by
  the common coin.
* :mod:`repro.consensus.bit_encoding` — the bid ⇄ bit-stream encoding described in
  Section 4.1 of the paper (each bid is turned into a fixed-length stream of bits and
  each bit is agreed on by one binary consensus instance).
* :mod:`repro.consensus.multi_consensus` — the one consensus protocol: a
  full-information broadcast/echo block with equivocation detection over a
  labelled batch of instances.  Every bid-agreement mode runs on it; the modes
  differ only in how many labels one block carries (all of them, one label, or
  one bid bit).
"""

from repro.consensus.bit_encoding import bits_to_bid, bid_to_bits
from repro.consensus.commitment import Commitment, CommitmentScheme
from repro.consensus.multi_consensus import BatchedConsensusBlock

__all__ = [
    "BatchedConsensusBlock",
    "Commitment",
    "CommitmentScheme",
    "bid_to_bits",
    "bits_to_bid",
]
