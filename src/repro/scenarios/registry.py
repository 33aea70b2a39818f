"""Registries mapping spec *kinds* to component factories.

This is the extension contract of the scenario layer: adding a new mechanism,
workload, latency model, bidder strategy, topology, adversary, schedule or
fault model to the library means registering a factory under a string kind —
after which it is reachable from every spec file, every CLI invocation and
every sweep, with no new constructor plumbing anywhere (see DESIGN.md, "The
scenario registry contract").

Factories are plain callables invoked with the spec's keyword parameters.
``TypeError``/``ValueError`` raised by a factory is converted into a
:class:`~repro.scenarios.spec.SpecError` naming the offending spec path, so a
typo in a spec file produces an actionable message rather than a traceback.
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable, Dict, List, Optional

from repro.scenarios.spec import ComponentSpec, SpecError

__all__ = [
    "Registry",
    "MECHANISMS",
    "WORKLOADS",
    "LATENCIES",
    "BIDDER_STRATEGIES",
    "TOPOLOGIES",
    "ADVERSARIES",
    "SCHEDULERS",
    "FAULTS",
]


class Registry:
    """A named mapping from string kinds to component factories."""

    def __init__(self, label: str) -> None:
        self.label = label
        self._factories: Dict[str, Callable[..., Any]] = {}

    # -- registration --------------------------------------------------------------
    def register(self, kind: str, factory: Optional[Callable[..., Any]] = None):
        """Register ``factory`` under ``kind`` (usable as a decorator).

        Re-registering an existing kind raises — shadowing a built-in would
        silently change what every existing spec file means.  Use
        :meth:`unregister` first if replacement is really intended.  So does
        a kind no spec file could name (not a string, or empty).
        """
        if not isinstance(kind, str) or not kind:
            raise ValueError(f"{self.label} kind must be a non-empty string, got {kind!r}")

        def _register(func: Callable[..., Any]) -> Callable[..., Any]:
            if kind in self._factories:
                raise ValueError(f"{self.label} kind {kind!r} is already registered")
            self._factories[kind] = func
            return func

        return _register(factory) if factory is not None else _register

    def unregister(self, kind: str) -> None:
        self._factories.pop(kind, None)

    def available(self) -> List[str]:
        return sorted(self._factories)

    def __contains__(self, kind: str) -> bool:
        return kind in self._factories

    # -- construction --------------------------------------------------------------
    def create(self, component: ComponentSpec, path: str, **extra: Any) -> Any:
        """Build the component, naming ``path`` in any validation error.

        ``extra`` carries runner-supplied keyword arguments (e.g. the scenario
        seed); they are only passed to factories that accept them, so factories
        without a ``seed`` parameter stay trivially simple.
        """
        factory = self._factories.get(component.kind)
        if factory is None:
            raise SpecError(
                path,
                f"unknown {self.label} kind {component.kind!r}; "
                f"available: {', '.join(self.available())}",
            )
        kwargs = dict(component.params)
        if extra:
            accepted = _accepted_parameters(factory)
            for key, value in extra.items():
                if key in kwargs:
                    continue  # explicit spec parameters win over runner defaults
                if accepted is None or key in accepted:
                    kwargs[key] = value
        try:
            return factory(**kwargs)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(
                path, f"invalid parameters for {self.label} {component.kind!r}: {exc}"
            ) from exc


@functools.lru_cache(maxsize=None)
def _accepted_parameters(factory: Callable[..., Any]) -> Optional[frozenset]:
    """Keyword names ``factory`` accepts, or ``None`` when it takes ``**kwargs``."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins without introspectable signatures
        return None
    names = set()
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            names.add(parameter.name)
    return frozenset(names)


MECHANISMS = Registry("mechanism")
WORKLOADS = Registry("workload")
LATENCIES = Registry("latency model")
BIDDER_STRATEGIES = Registry("bidder strategy")
TOPOLOGIES = Registry("topology")

#: Provider deviations for resilience audits.  A factory takes the adversary's
#: spec parameters and returns a *node factory* with the honest constructor
#: signature ``(provider_input, algorithm, config, expected_users, providers)``,
#: directly usable as :attr:`repro.adversary.coalition.Coalition.deviant_factory`.
ADVERSARIES = Registry("adversary")

#: Message schedules for resilience audits.  A factory returns a fresh
#: :class:`repro.net.scheduler.Scheduler`; the network resets an instance
#: before each run, so one may be shared across the runs of one audit.
SCHEDULERS = Registry("schedule")

#: Fault models for chaos audits (:mod:`repro.net.faults`): a factory takes
#: the fault's spec parameters and returns a fresh ``FaultModel``.
FAULTS = Registry("fault model")


# ---------------------------------------------------------------- built-in kinds --
def _register_builtins() -> None:
    from repro.adversary.bidder_behaviors import (
        InconsistentBidder,
        InvalidBidder,
        ScalingBidder,
        SilentBidder,
    )
    from repro.auctions.double_auction import DoubleAuction
    from repro.auctions.greedy import GreedyStandardAuction
    from repro.auctions.standard_auction import StandardAuction
    from repro.auctions.vcg import ExactVCGAuction
    from repro.community.topology import generate_community_network
    from repro.community.workload import (
        DoubleAuctionWorkload,
        StandardAuctionWorkload,
        VRSessionWorkload,
    )
    from repro.adversary.provider_behaviors import (
        CrashingProviderNode,
        EquivocatingProviderNode,
        InputForgingProviderNode,
        MessageDroppingProviderNode,
        OutputTamperingProviderNode,
    )
    from repro.core.provider_protocol import ProviderInput
    from repro.net.faults import (
        CrashFault,
        DuplicateFault,
        LatencySpikeFault,
        LossFault,
        PartitionFault,
        ReorderFault,
        TornAppendFault,
    )
    from repro.net.latency import (
        BandwidthLatencyModel,
        ConstantLatencyModel,
        UniformLatencyModel,
        ZeroLatencyModel,
    )
    from repro.net.scheduler import (
        AdversarialScheduler,
        FairScheduler,
        RandomScheduler,
        RoundRobinScheduler,
    )

    MECHANISMS.register("double", DoubleAuction)
    MECHANISMS.register("standard", StandardAuction)
    MECHANISMS.register("vcg", ExactVCGAuction)
    MECHANISMS.register("greedy", GreedyStandardAuction)

    WORKLOADS.register("double", DoubleAuctionWorkload)
    WORKLOADS.register("standard", StandardAuctionWorkload)
    WORKLOADS.register("vr_sessions", VRSessionWorkload)

    LATENCIES.register("zero", ZeroLatencyModel)
    LATENCIES.register("constant", ConstantLatencyModel)
    LATENCIES.register("uniform", UniformLatencyModel)
    LATENCIES.register("bandwidth", BandwidthLatencyModel)
    # The WAN-ish model both figure sweeps use, calibrated loosely to the
    # paper's testbed: a few milliseconds of one-way latency between
    # community-network sites plus a 100 Mbit/s-class transmission term, which
    # is what makes the double-auction overhead grow with the number of users.
    LATENCIES.register(
        "wan",
        functools.partial(BandwidthLatencyModel, base=0.003, bandwidth_bytes_per_s=12.5e6, jitter=0.001),
    )
    # "community" is resolved by the runner from the generated topology; the
    # registration here only reserves the kind so it shows up in listings.
    LATENCIES.register("community", _community_latency_placeholder)

    BIDDER_STRATEGIES.register("inconsistent", InconsistentBidder)
    BIDDER_STRATEGIES.register("silent", SilentBidder)
    BIDDER_STRATEGIES.register("invalid", InvalidBidder)
    BIDDER_STRATEGIES.register("scaling", ScalingBidder)

    TOPOLOGIES.register("community", generate_community_network)

    # Adversary factories take the spec's keyword parameters and return
    # coalition node factories.  Explicit keyword signatures (no **kwargs)
    # matter: Registry.create converts a bad parameter into a path-precise
    # SpecError, and run_resilience resolves every reference up front — so a
    # typo fails before any simulation runs, not as a TypeError mid-audit.
    def _equivocate(tag_substring: str = "|value", victim_fraction: float = 0.5):
        return functools.partial(
            EquivocatingProviderNode,
            tag_substring=tag_substring,
            victim_fraction=float(victim_fraction),
        )

    def _drop_messages(tag_substring: str = "|echo"):
        return functools.partial(MessageDroppingProviderNode, tag_substring=tag_substring)

    def _crash(max_sends: int = 5):
        return functools.partial(CrashingProviderNode, max_sends=int(max_sends))

    def _tamper_output(bonus: float = 1.0):
        return functools.partial(OutputTamperingProviderNode, bonus=float(bonus))

    def _forge_bids(factor: float = 2.0):
        factor = float(factor)

        def forge(provider_input):
            forged = {}
            for user_id, bid in provider_input.received_user_bids.items():
                if hasattr(bid, "with_unit_value"):
                    bid = bid.with_unit_value(bid.unit_value * factor)
                forged[user_id] = bid
            return ProviderInput(
                provider_input.provider_id,
                forged,
                dict(provider_input.received_provider_asks),
            )

        return functools.partial(InputForgingProviderNode, forge=forge)

    ADVERSARIES.register("equivocate", _equivocate)
    ADVERSARIES.register("drop_messages", _drop_messages)
    ADVERSARIES.register("crash", _crash)
    ADVERSARIES.register("tamper_output", _tamper_output)
    ADVERSARIES.register("forge_bids", _forge_bids)

    def _adversarial_schedule(targets=(), max_deferrals: int = 16):
        if isinstance(targets, str):
            targets = (targets,)
        return AdversarialScheduler(targets=frozenset(targets), max_deferrals=max_deferrals)

    SCHEDULERS.register("fair", FairScheduler)
    SCHEDULERS.register("round_robin", RoundRobinScheduler)
    SCHEDULERS.register("random", RandomScheduler)
    SCHEDULERS.register("adversarial", _adversarial_schedule)

    FAULTS.register("loss", LossFault)
    FAULTS.register("duplicate", DuplicateFault)
    FAULTS.register("reorder", ReorderFault)
    FAULTS.register("latency_spike", LatencySpikeFault)
    FAULTS.register("partition", PartitionFault)
    FAULTS.register("crash", CrashFault)
    FAULTS.register("torn_append", TornAppendFault)


def _community_latency_placeholder(**kwargs: Any):
    raise ValueError(
        "the 'community' latency model is derived from the scenario topology; "
        "set 'topology' in the spec instead of instantiating it directly"
    )


_register_builtins()
