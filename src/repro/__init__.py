"""repro — reproduction of "A Distributed Auctioneer for Resource Allocation in
Decentralized Systems" (Khan, Vilaça, Rodrigues, Freitag; ICDCS 2016).

The package is organised in layers, bottom-up:

``repro.net``
    A simulated asynchronous message-passing runtime (turn-based, fair schedules,
    reliable channels).  This is the substrate on which all distributed protocols
    run.

``repro.consensus``
    Rational-agent consensus building blocks: hash commitments, bid/bit-stream
    encoding, and the one rational consensus with equivocation detection, over
    a labelled batch of instances, that every bid-agreement mode runs on.

``repro.auctions``
    The auction mechanisms the paper evaluates: a truthful budget-balanced double
    auction (water-filling), a truthful (1-eps)-optimal standard auction with VCG
    payments, an exact VCG baseline and a greedy baseline.

``repro.core``
    The paper's contribution: the distributed auctioneer framework — bid agreement,
    input validation, common coin, data transfer and the sequential and parallel
    allocators, chained by :class:`repro.core.framework.DistributedAuctioneer`.

``repro.runtime``
    Provider / bidder roles and end-to-end auction round orchestration.

``repro.adversary``
    Coalition and fault-injection behaviours used to test k-resilience.

``repro.gametheory``
    Utilities, empirical truthfulness and resilience checks.

``repro.community``
    The community-network (Guifi-like) case study: topology and workload generators.

``repro.scenarios``
    **The front door**: declarative, serializable scenario specs
    (:class:`~repro.scenarios.spec.ScenarioSpec`), component registries, and
    the functions that run a spec through the runners above —
    :func:`~repro.scenarios.runner.run_scenario` for one round,
    :func:`~repro.scenarios.sweep.run_sweep` for a grid.  Start here; drop to
    the lower layers when you need custom objects a spec cannot express.
"""

from repro.common import lazy_exports
from repro.auctions.base import (
    Allocation,
    AuctionResult,
    BidVector,
    Payments,
    ProviderAsk,
    UserBid,
)
from repro.core.framework import DistributedAuctioneer, FrameworkConfig
from repro.core.outcome import ABORT, Outcome

#: Scenario-layer names re-exported lazily (PEP 562): resolving them imports
#: repro.scenarios (specs, runner, grid, stores, workloads) on first use, so a plain
#: ``import repro`` for the low-level API loads neither the scenario layer nor
#: NumPy (``tests/test_import_footprint.py``).
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    dict.fromkeys(
        ("RunRecord", "ScenarioSpec", "SpecError", "SweepSpec", "load_spec", "run_sweep"),
        "repro.scenarios",
    ),
)

__version__ = "1.1.0"

__all__ = [
    "ABORT",
    "Allocation",
    "AuctionResult",
    "BidVector",
    "DistributedAuctioneer",
    "FrameworkConfig",
    "Outcome",
    "Payments",
    "ProviderAsk",
    "RunRecord",
    "ScenarioSpec",
    "SpecError",
    "SweepSpec",
    "UserBid",
    "load_spec",
    "run_sweep",
    "__version__",
]
