"""Core data model for resource-allocation auctions.

The family of auctions in the paper (Section 3.1) has ``m`` providers selling a
divisible resource (bandwidth) with limited capacity, and ``n`` users willing to pay
for an amount of that resource.  The auctioneer outputs a *feasible allocation* — an
assignment of resource amounts from providers to users that respects every provider's
capacity — and a vector of *payments* made by users and received by providers.

The types here are deliberately plain (frozen dataclasses over floats and strings) so
they can be shipped between simulated nodes, canonically encoded for commitments, and
compared structurally by the validation blocks.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common import memoise

__all__ = [
    "UserBid",
    "ProviderAsk",
    "BidVector",
    "Allocation",
    "Payments",
    "AuctionResult",
    "AllocationAlgorithm",
    "FeasibilityError",
]

#: Numerical slack used by feasibility checks.
EPSILON = 1e-9
#: Where a bid vector keeps the id indexes behind ``user()`` / ``provider()``.
_INDEX_ATTR = "_repro_by_id"


class FeasibilityError(ValueError):
    """Raised when an allocation violates capacity or non-negativity constraints."""


@dataclass(frozen=True, order=True)
class UserBid:
    """A user's declared willingness to pay.

    Attributes:
        user_id: unique identifier of the user.
        unit_value: declared value for one unit of the resource (currency / unit).
        demand: amount of resource requested.  In the standard auction the demand is
            all-or-nothing at a single provider; in the double auction it may be
            split across providers.
    """

    user_id: str
    unit_value: float
    demand: float

    @property
    def total_value(self) -> float:
        """Declared value if the full demand is allocated."""
        return self.unit_value * self.demand

    def with_unit_value(self, unit_value: float) -> "UserBid":
        return UserBid(self.user_id, unit_value, self.demand)

    def with_demand(self, demand: float) -> "UserBid":
        return UserBid(self.user_id, self.unit_value, demand)


@dataclass(frozen=True, order=True)
class ProviderAsk:
    """A provider's declared cost and available capacity.

    Attributes:
        provider_id: unique identifier of the provider (gateway).
        unit_cost: declared cost of providing one unit (used by the double auction;
            the standard auction ignores provider costs, matching §5.2.2 where
            providers do not bid).
        capacity: amount of resource the provider can allocate in total.
    """

    provider_id: str
    unit_cost: float
    capacity: float

    def with_unit_cost(self, unit_cost: float) -> "ProviderAsk":
        return ProviderAsk(self.provider_id, unit_cost, self.capacity)

    def with_capacity(self, capacity: float) -> "ProviderAsk":
        return ProviderAsk(self.provider_id, self.unit_cost, capacity)


@dataclass(frozen=True)
class BidVector:
    """The input of the allocation algorithm: all user bids and provider asks."""

    users: Tuple[UserBid, ...]
    providers: Tuple[ProviderAsk, ...]

    def __post_init__(self) -> None:
        user_ids = [u.user_id for u in self.users]
        provider_ids = [p.provider_id for p in self.providers]
        if len(set(user_ids)) != len(user_ids):
            raise ValueError("duplicate user ids in bid vector")
        if len(set(provider_ids)) != len(provider_ids):
            raise ValueError("duplicate provider ids in bid vector")

    def __getstate__(self) -> Dict[str, Tuple]:
        # A copy or pickle is made of the fields alone.  The memos kept on the
        # instance (``repro.common.memoise``) include results computed with a
        # live mechanism; those stay with this object.
        return {"users": self.users, "providers": self.providers}

    # -- constructors -----------------------------------------------------------
    @staticmethod
    def of(users: Iterable[UserBid], providers: Iterable[ProviderAsk]) -> "BidVector":
        return BidVector(tuple(users), tuple(providers))

    # -- lookups ----------------------------------------------------------------
    @property
    def user_ids(self) -> List[str]:
        return [u.user_id for u in self.users]

    @property
    def provider_ids(self) -> List[str]:
        return [p.provider_id for p in self.providers]

    def _by_id(self) -> Tuple[Dict[str, UserBid], Dict[str, ProviderAsk]]:
        """``(user id -> bid, provider id -> ask)``, built on first use and kept."""
        index = getattr(self, _INDEX_ATTR, None)
        if index is None:
            index = memoise(
                self,
                _INDEX_ATTR,
                (
                    {u.user_id: u for u in self.users},
                    {p.provider_id: p for p in self.providers},
                ),
            )
        return index

    def user(self, user_id: str) -> UserBid:
        try:
            return self._by_id()[0][user_id]
        except (KeyError, TypeError):  # TypeError: an id that does not hash
            raise KeyError(f"unknown user {user_id!r}") from None

    def provider(self, provider_id: str) -> ProviderAsk:
        try:
            return self._by_id()[1][provider_id]
        except (KeyError, TypeError):
            raise KeyError(f"unknown provider {provider_id!r}") from None

    # -- aggregates -------------------------------------------------------------
    @property
    def total_demand(self) -> float:
        return sum(u.demand for u in self.users)

    @property
    def total_capacity(self) -> float:
        return sum(p.capacity for p in self.providers)

    # -- functional updates -------------------------------------------------------
    def replace_user(self, bid: UserBid) -> "BidVector":
        """Return a copy with the bid of ``bid.user_id`` replaced."""
        users = tuple(bid if u.user_id == bid.user_id else u for u in self.users)
        if all(u.user_id != bid.user_id for u in self.users):
            raise KeyError(f"unknown user {bid.user_id!r}")
        return BidVector(users, self.providers)

    def replace_provider(self, ask: ProviderAsk) -> "BidVector":
        providers = tuple(
            ask if p.provider_id == ask.provider_id else p for p in self.providers
        )
        if all(p.provider_id != ask.provider_id for p in self.providers):
            raise KeyError(f"unknown provider {ask.provider_id!r}")
        return BidVector(self.users, providers)

    def without_user(self, user_id: str) -> "BidVector":
        """Return a copy with the given user removed (used for VCG pivots)."""
        return BidVector(
            tuple(u for u in self.users if u.user_id != user_id), self.providers
        )


@dataclass(frozen=True)
class Allocation:
    """A feasible assignment of resource amounts from providers to users.

    Stored as a sorted tuple of ``(user_id, provider_id, amount)`` entries so the
    value is hashable, canonically encodable and structurally comparable across
    providers (which the input-validation and data-transfer blocks rely on).
    """

    entries: Tuple[Tuple[str, str, float], ...] = ()

    @staticmethod
    def from_dict(amounts: Mapping[Tuple[str, str], float]) -> "Allocation":
        entries = tuple(
            sorted(
                (user_id, provider_id, float(amount))
                for (user_id, provider_id), amount in amounts.items()
                if amount > EPSILON
            )
        )
        return Allocation(entries)

    @staticmethod
    def empty() -> "Allocation":
        return Allocation(())

    # -- views -------------------------------------------------------------------
    def as_dict(self) -> Dict[Tuple[str, str], float]:
        return {(user, provider): amount for user, provider, amount in self.entries}

    def amount(self, user_id: str, provider_id: str) -> float:
        for user, provider, amount in self.entries:
            if user == user_id and provider == provider_id:
                return amount
        return 0.0

    def user_total(self, user_id: str) -> float:
        return sum(a for u, _, a in self.entries if u == user_id)

    def provider_total(self, provider_id: str) -> float:
        return sum(a for _, p, a in self.entries if p == provider_id)

    def user_totals(self) -> Dict[str, float]:
        """``user_total`` of every user with an entry, in one pass."""
        return self._totals(0)

    def provider_totals(self) -> Dict[str, float]:
        """``provider_total`` of every provider with an entry, in one pass."""
        return self._totals(1)

    def _totals(self, column: int) -> Dict[str, float]:
        # Amounts are grouped first and summed per group, so each total is the
        # same ``sum`` over the same sequence as the per-id methods: bit-identical.
        amounts: Dict[str, List[float]] = {}
        for entry in self.entries:
            amounts.setdefault(entry[column], []).append(entry[2])
        return {key: sum(group) for key, group in amounts.items()}

    def winners(self) -> List[str]:
        """User ids with a strictly positive allocation."""
        return sorted({u for u, _, a in self.entries if a > EPSILON})

    def providers_used(self) -> List[str]:
        return sorted({p for _, p, a in self.entries if a > EPSILON})

    @property
    def total_allocated(self) -> float:
        return sum(a for _, _, a in self.entries)

    def is_empty(self) -> bool:
        return not self.entries

    # -- checks -------------------------------------------------------------------
    def check_feasible(self, bids: BidVector, single_provider: bool = False) -> None:
        """Raise :class:`FeasibilityError` on any constraint violation.

        Args:
            bids: the bid vector defining demands and capacities.
            single_provider: if True, additionally require that every user is served
                by at most one provider and either fully or not at all (the standard
                auction's all-or-nothing constraint).
        """
        user_ids = set(bids.user_ids)
        provider_ids = set(bids.provider_ids)
        served_by: Dict[str, List[str]] = {}
        for user_id, provider_id, amount in self.entries:
            if amount < -EPSILON:
                raise FeasibilityError(f"negative allocation for {user_id} at {provider_id}")
            if user_id not in user_ids:
                raise FeasibilityError(f"allocation references unknown user {user_id!r}")
            if provider_id not in provider_ids:
                raise FeasibilityError(
                    f"allocation references unknown provider {provider_id!r}"
                )
            if single_provider and amount > EPSILON:
                served_by.setdefault(user_id, []).append(provider_id)
        # Ids without an entry total 0, an empty ``sum``, as the messages print it.
        provider_totals = self.provider_totals()
        for provider in bids.providers:
            used = provider_totals.get(provider.provider_id, 0)
            if used > provider.capacity + EPSILON:
                raise FeasibilityError(
                    f"provider {provider.provider_id} over capacity: {used} > {provider.capacity}"
                )
        user_totals = self.user_totals()
        for user in bids.users:
            received = user_totals.get(user.user_id, 0)
            if received > user.demand + EPSILON:
                raise FeasibilityError(
                    f"user {user.user_id} allocated more than demanded: "
                    f"{received} > {user.demand}"
                )
            if single_provider:
                providers_of_user = served_by.get(user.user_id, [])
                if len(providers_of_user) > 1:
                    raise FeasibilityError(
                        f"user {user.user_id} split across providers {providers_of_user}"
                    )
                if providers_of_user and abs(received - user.demand) > 1e-6:
                    raise FeasibilityError(
                        f"user {user.user_id} partially allocated ({received} of {user.demand})"
                    )


@dataclass(frozen=True)
class Payments:
    """Payments made by users and received by providers.

    Positive ``user_payments`` are paid *by* users; positive ``provider_revenues``
    are paid *to* providers.  Stored as sorted tuples for structural comparability.
    """

    user_payments: Tuple[Tuple[str, float], ...] = ()
    provider_revenues: Tuple[Tuple[str, float], ...] = ()

    @staticmethod
    def from_dicts(
        user_payments: Mapping[str, float],
        provider_revenues: Optional[Mapping[str, float]] = None,
    ) -> "Payments":
        return Payments(
            tuple(sorted((uid, float(p)) for uid, p in user_payments.items())),
            tuple(sorted((pid, float(r)) for pid, r in (provider_revenues or {}).items())),
        )

    @staticmethod
    def zero() -> "Payments":
        return Payments((), ())

    def user_payment(self, user_id: str) -> float:
        for uid, payment in self.user_payments:
            if uid == user_id:
                return payment
        return 0.0

    def provider_revenue(self, provider_id: str) -> float:
        for pid, revenue in self.provider_revenues:
            if pid == provider_id:
                return revenue
        return 0.0

    @property
    def total_paid(self) -> float:
        return sum(p for _, p in self.user_payments)

    @property
    def total_received(self) -> float:
        return sum(r for _, r in self.provider_revenues)

    def is_budget_balanced(self, tolerance: float = 1e-9) -> bool:
        """True if users pay at least as much as providers receive."""
        return self.total_paid >= self.total_received - tolerance


@dataclass(frozen=True)
class AuctionResult:
    """The pair (x, p): an allocation and the associated payments."""

    allocation: Allocation
    payments: Payments

    @staticmethod
    def empty() -> "AuctionResult":
        return AuctionResult(Allocation.empty(), Payments.zero())


class AllocationAlgorithm(abc.ABC):
    """Interface of the allocation algorithm ``A`` simulated by the framework.

    An algorithm must be a deterministic function of ``(bids, rng)``: all randomness
    is drawn from the supplied generator, so that every provider simulating ``A``
    with the same agreed seed computes the same result (this is how the common coin
    is consumed — see :mod:`repro.core.allocator`).
    """

    #: Human-readable mechanism name.
    name: str = "abstract"
    #: True for double auctions where providers submit asks (costs).
    requires_provider_bids: bool = False
    #: True if users must be served entirely by one provider or not at all.
    single_provider_allocation: bool = False

    @abc.abstractmethod
    def run(self, bids: BidVector, rng: Optional[random.Random] = None) -> AuctionResult:
        """Execute the auction on ``bids`` and return allocation and payments."""

    def check(self, bids: BidVector, result: AuctionResult) -> None:
        """Validate a result against the mechanism's feasibility constraints."""
        result.allocation.check_feasible(
            bids, single_provider=self.single_provider_allocation
        )
