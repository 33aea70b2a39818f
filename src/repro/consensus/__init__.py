"""Rational-agent consensus substrate.

The bid-agreement block of the framework is built on the rational consensus protocol
of Afek et al. (PODC 2014): providers agree on a value that was the input of some
provider, and any detectable deviation leads the correct providers to output ⊥, which
(by solution preference) no rational coalition wants.

This package provides:

* :mod:`repro.consensus.commitment` — hash-based commit/reveal commitments, used by
  the common coin.
* :mod:`repro.consensus.multi_consensus` — the one consensus protocol: a
  full-information broadcast/echo block with equivocation detection over a
  labelled batch of instances.  The bid agreement runs one block over every
  label; its batch carries each bid as the fixed 128-bit stream of Section 4.1
  (two float64s), so every binary instance of the paper shares one value/echo
  pair.
"""

from repro.consensus.commitment import Commitment, CommitmentScheme
from repro.consensus.multi_consensus import BatchedConsensusBlock

__all__ = [
    "BatchedConsensusBlock",
    "Commitment",
    "CommitmentScheme",
]
