"""The distributed auctioneer framework (the paper's core contribution).

The framework chains two building blocks at every provider (Figure 1 of the paper):

1. :class:`~repro.core.bid_agreement.BidAgreementBlock` — providers agree on a single
   vector of bids starting from the possibly-inconsistent bids each of them received.
2. an allocator — either :class:`~repro.core.allocator.SequentialAllocatorBlock`
   (every provider runs the allocation algorithm locally after validating that all
   inputs match; used for cheap algorithms such as the double auction) or
   :class:`~repro.core.allocator.ParallelAllocatorBlock` (Algorithm 1 run over
   provider groups, Figure 3, with input validation, data transfer and common coin
   sub-blocks; used for expensive algorithms such as the standard auction).

:class:`~repro.core.framework.DistributedAuctioneer` packages the whole thing behind
one call: give it the bids each provider received and it simulates the protocol on a
:class:`~repro.net.network.SimNetwork`, returning the outcome (the agreed
allocation/payments pair, or ⊥) together with network statistics.
"""

from repro.core.allocator import ParallelAllocatorBlock, SequentialAllocatorBlock
from repro.core.bid_agreement import BidAgreementBlock
from repro.core.common_coin import CommonCoinBlock
from repro.core.config import FrameworkConfig
from repro.core.data_transfer import DataTransferBlock
from repro.core.distributions import Distribution, SeedDistribution, UniformDistribution
from repro.core.framework import CentralizedAuctioneer, DistributedAuctioneer, SimulationReport
from repro.core.input_validation import InputValidationBlock
from repro.core.outcome import ABORT, Outcome
from repro.core.provider_protocol import FrameworkBlock, ProviderInput

__all__ = [
    "ABORT",
    "BidAgreementBlock",
    "CentralizedAuctioneer",
    "CommonCoinBlock",
    "DataTransferBlock",
    "DistributedAuctioneer",
    "Distribution",
    "FrameworkBlock",
    "FrameworkConfig",
    "InputValidationBlock",
    "Outcome",
    "ParallelAllocatorBlock",
    "ProviderInput",
    "SeedDistribution",
    "SequentialAllocatorBlock",
    "SimulationReport",
    "UniformDistribution",
]
