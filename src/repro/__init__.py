"""repro — reproduction of "A Distributed Auctioneer for Resource Allocation in
Decentralized Systems" (Khan, Vilaça, Rodrigues, Freitag; ICDCS 2016).

The package is organised in layers, bottom-up:

``repro.net``
    A simulated asynchronous message-passing runtime (turn-based, fair schedules,
    reliable channels) plus a threaded in-process transport.  This is the substrate
    on which all distributed protocols run.

``repro.consensus``
    Rational-agent consensus building blocks: hash commitments, bid/bit-stream
    encoding, binary rational consensus with equivocation detection, and a
    multi-instance wrapper used by the bid agreement.

``repro.auctions``
    The auction mechanisms the paper evaluates: a truthful budget-balanced double
    auction (water-filling), a truthful (1-eps)-optimal standard auction with VCG
    payments, an exact VCG baseline and a greedy baseline.

``repro.core``
    The paper's contribution: the distributed auctioneer framework — bid agreement,
    input validation, common coin, data transfer, task graphs and the (parallel)
    allocator, chained by :class:`repro.core.framework.DistributedAuctioneer`.

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
    the :class:`~repro.scenarios.simulation.Simulation` facade that runs any
    spec through the runners above.  Start here; drop to the lower layers when
    you need custom objects a spec cannot express.
"""

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
#: ``import repro`` for the low-level API stays as cheap as before the
#: scenario layer existed.
_SCENARIO_EXPORTS = frozenset(
    {
        "RunRecord",
        "ScenarioSpec",
        "Simulation",
        "SpecError",
        "SweepSpec",
        "load_spec",
        "run_sweep",
    }
)


def __getattr__(name):
    if name in _SCENARIO_EXPORTS:
        import repro.scenarios as _scenarios

        return getattr(_scenarios, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SCENARIO_EXPORTS)


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
    "Simulation",
    "SpecError",
    "SweepSpec",
    "UserBid",
    "load_spec",
    "run_sweep",
    "__version__",
]
