"""Payment rules shared by the standard-auction mechanisms.

The standard auction of §5.2.2 uses the VCG (Clarke pivot) payment rule on top of a
(near-)welfare-maximising allocation rule: a winner pays the externality it imposes on
the other users, i.e. the welfare the others would obtain if the winner were absent
minus the welfare the others obtain in the chosen allocation.  Losers pay nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from repro.auctions.base import Allocation, BidVector

__all__ = ["clarke_pivot_payment", "clarke_pivot_payments", "others_welfare"]


def _declared_values(bids: BidVector, allocation: Allocation) -> List[Tuple[str, float]]:
    """``(user id, unit_value * allocated total)`` of every user, in bid-vector order.

    Computed once per payment task: ``Allocation.user_total`` scans every entry,
    so asking it per user per winner is quadratic.  A user without an entry
    contributes ``unit_value * 0``, the product the per-user spelling forms.
    """
    totals = allocation.user_totals()
    return [(u.user_id, u.unit_value * totals.get(u.user_id, 0)) for u in bids.users]


def _others_total(declared: List[Tuple[str, float]], excluded_user: str) -> float:
    """Sum of the declared values in bid-vector order, skipping ``excluded_user``."""
    total = 0.0
    for user_id, value in declared:
        if user_id != excluded_user:
            total += value
    return total


def others_welfare(bids: BidVector, allocation: Allocation, excluded_user: str) -> float:
    """Declared welfare of every user except ``excluded_user`` under ``allocation``."""
    return _others_total(_declared_values(bids, allocation), excluded_user)


def clarke_pivot_payment(
    bids: BidVector,
    allocation: Allocation,
    user_id: str,
    welfare_without_user: float,
) -> float:
    """VCG payment of one user.

    Args:
        bids: the declared bid vector.
        allocation: the allocation chosen when everyone participates.
        user_id: the user whose payment is computed.
        welfare_without_user: the welfare of the allocation the mechanism would pick
            if ``user_id`` did not participate (the "pivot" term); callers obtain it
            by re-running the allocation rule on ``bids.without_user(user_id)``.

    Returns:
        ``max(0, welfare_without_user - others_welfare_in_chosen_allocation)``.
        The ``max`` guards against a (slightly) sub-optimal approximate allocation
        rule producing negative payments; with an exact rule the clamp never binds.
    """
    return max(0.0, welfare_without_user - others_welfare(bids, allocation, user_id))


def clarke_pivot_payments(
    bids: BidVector,
    allocation: Allocation,
    user_ids: Iterable[str],
    welfare_without: Callable[[str], float],
) -> Dict[str, float]:
    """VCG payments for a set of users; losers get a zero payment.

    Args:
        welfare_without: callback returning, for a user id, the welfare of the
            allocation computed without that user (typically an expensive re-solve —
            this is exactly the work the parallel allocator distributes).
    """
    payments: Dict[str, float] = {}
    winners = set(allocation.winners())
    declared = _declared_values(bids, allocation)
    for user_id in user_ids:
        if user_id not in winners:
            payments[user_id] = 0.0
            continue
        payments[user_id] = max(
            0.0, welfare_without(user_id) - _others_total(declared, user_id)
        )
    return payments
