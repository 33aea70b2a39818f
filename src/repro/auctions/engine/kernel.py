"""NumPy kernel for the standard auction's allocation rule, batched over problems.

The reference :meth:`~repro.auctions.standard_auction.StandardAuction.solve_allocation`
runs ``restarts`` perturbed greedy passes plus a local search in a Python loop, and
a payment task repeats that whole solve once per winner on the bid vector without
that winner.  :func:`solve_batch` evaluates every ``(problem, restart)`` pair of
such a task as one row of a single computation.  A problem is the base solve or
"the base minus user *e*" over the *same* user axis: the removed user gets density
−inf and demand +inf, so it sorts last and never fits, and its row's ``n − 1``
noise draws fill the other columns in bid-vector order.  Greedy placement advances
all rows one order-position at a time, local search advances them one loser at a
time, and only each problem's best row is turned back into a dict.

Bit-identical equivalence with the reference is a hard contract (the data-transfer
block compares results structurally across providers, the differential suite
across engines).  What pins it:

* noise comes from the same ``random.Random(stable_hash(seed, "restart", r))``
  streams, one draw per user in bid-vector order, and every float operation
  replays the reference's order (densities, ``remaining + EPS >= demand``, the
  per-placement subtraction), so every intermediate is the same IEEE-754 double;
* the greedy orders by ``(-density, user_id)`` and breaks best-fit ties by
  *sorted* provider id; local search visits losers along ``(-total_value,
  user_id)`` and breaks direct-placement ties by *bid-vector* provider order —
  both are a first-minimum ``argmin`` over the matching provider axis;
* an eviction takes the first match in the assignment dict's insertion order:
  the ``argmin`` of a per-row insertion key (greedy position, then a running
  counter for users local search appends);
* round-1 residuals are the greedy's own (the same subtraction sequence per
  provider); later rounds recompute them from the capacities in insertion order;
* welfare is the builtin ``sum`` over values in insertion order — never
  ``np.sum``/``cumsum``, which associate differently (and 3.12's ``sum`` is
  compensated).
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.auctions.base import UserBid
from repro.common import stable_hash

__all__ = ["MAX_CELLS", "solve_batch"]

#: Same numerical slack as the reference implementation.
_EPS = 1e-12

#: Callers bound rows × users per :func:`solve_batch` call by this (they chunk
#: the problems), so a 400-user payment task works on ~1 MB arrays, not ~100 MB.
MAX_CELLS = 1 << 17

#: Insertion key of a user that is not assigned (sorts after every real key).
_UNASSIGNED = np.iinfo(np.int64).max


def solve_batch(
    users: Sequence[UserBid],
    capacities: Mapping[str, float],
    problems: Sequence[Tuple[int, Optional[int]]],
    restarts: int,
    perturbation: float,
    rounds: int,
) -> List[Tuple[Dict[str, str], float]]:
    """Best ``(assignment, welfare)`` of every problem, all restarts in one batch.

    Args:
        users: eligible user bids, in bid-vector order (the reference's filtered list).
        capacities: provider id -> capacity, in bid-vector order.
        problems: ``(seed, removed)`` pairs — ``removed`` is the index in ``users``
            of the user the problem leaves out, ``None`` for the base solve.
        restarts / perturbation / rounds: the mechanism's parameters.

    Returns:
        Per problem, what the reference's restart loop ends with: the first
        restart's assignment whose welfare beats the others by more than EPS and
        that welfare (``({}, -1.0)`` without restarts), or the reference's early
        ``({}, 0.0)`` when the problem has no user or no capacity to allocate.
    """
    n = len(users)
    if not n or not capacities:
        return [({}, 0.0) for _problem in problems]
    total = len(problems) * restarts
    unit_values = np.array([u.unit_value for u in users], dtype=np.float64)
    demands = np.array([u.demand for u in users], dtype=np.float64)
    values = [u.total_value for u in users]
    removed = np.repeat([-1 if e is None else e for _seed, e in problems], restarts)
    pivot_rows = (removed >= 0).nonzero()[0]

    # One noise draw per (row, participating user), in bid-vector order — the
    # stream the reference consumes through its sort key.
    raw = np.empty((total, n), dtype=np.float64)
    for index, (seed, excluded) in enumerate(problems):
        for restart in range(restarts):
            draw = random.Random(stable_hash(seed, "restart", restart)).random
            noise = [draw() for _ in range(n - (excluded is not None))]
            if excluded is not None:
                noise.insert(excluded, 0.0)
            raw[index * restarts + restart] = noise
    densities = unit_values * (1.0 + perturbation * (2.0 * raw - 1.0))
    densities[pivot_rows, removed[pivot_rows]] = -np.inf

    # Greedy order per row: ascending (-density, user_id).
    uid_rank = np.empty(n, dtype=np.int64)
    uid_rank[sorted(range(n), key=lambda i: users[i].user_id)] = np.arange(n)
    orders = np.lexsort((np.broadcast_to(uid_rank, (total, n)), -densities), axis=-1)
    ordered_demands = demands[orders]
    ordered_demands[orders == removed[:, np.newaxis]] = np.inf

    # Best-fit decreasing over a provider axis sorted by id (first minimum =
    # smallest id); ``provider`` holds bid-vector provider indices throughout.
    provider_ids = list(capacities)
    caps = np.array(list(capacities.values()), dtype=np.float64)
    by_id = np.array(sorted(range(len(caps)), key=provider_ids.__getitem__))
    remaining = np.tile(caps[by_id], (total, 1))
    provider = np.full((total, n), -1, dtype=np.int64)
    inserted = np.full((total, n), _UNASSIGNED, dtype=np.int64)
    for position in range(n):
        demand = ordered_demands[:, position]
        feasible = remaining + _EPS >= demand[:, np.newaxis]
        placed = feasible.any(axis=1).nonzero()[0]
        best = np.where(feasible, remaining, np.inf).argmin(axis=1)[placed]
        user = orders[placed, position]
        remaining[placed, best] -= demand[placed]
        provider[placed, user] = by_id[best]
        inserted[placed, user] = position

    # Local search breaks residual ties by bid-vector provider order instead.
    remaining = remaining[:, np.argsort(by_id)]
    loser_order = sorted(range(n), key=lambda i: (-values[i], users[i].user_id))
    padded_values = np.array(values, dtype=np.float64) + _EPS
    active = np.arange(total)
    clock = n  # next insertion key: later than every greedy position
    for round_index in range(max(0, rounds)):
        if active.size == 0:
            break
        if round_index:
            remaining[active] = _residuals(caps, demands, provider[active], inserted[active])
        losers = np.zeros((total, n), dtype=bool)
        losers[active] = provider[active] < 0
        losers[pivot_rows, removed[pivot_rows]] = False
        # Users some row hosts at round start: the only columns an eviction scan
        # needs, since a loser placed this round outvalues every later loser.
        hosted = (provider[active] >= 0).any(axis=0)
        improved = np.zeros(total, dtype=bool)
        for loser in loser_order:
            todo = losers[:, loser].nonzero()[0]
            if todo.size == 0:
                continue
            clock += 1
            demand = demands[loser]
            # Direct placement into the tightest residual that fits.
            residual = remaining[todo]
            feasible = residual + _EPS >= demand
            fits = feasible.any(axis=1)
            if fits.any():
                placed = todo[fits]
                best = np.where(feasible, residual, np.inf).argmin(axis=1)[fits]
                remaining[placed, best] -= demand
                provider[placed, loser] = best
                inserted[placed, loser] = clock
                improved[placed] = True
                todo = todo[~fits]
            # Eviction: only strictly cheaper users can be replaced, so only their
            # columns are scanned; the earliest-inserted match is the reference's.
            cheaper = (hosted & (padded_values < values[loser])).nonzero()[0]
            if todo.size == 0 or cheaper.size == 0:
                continue
            at = todo[:, np.newaxis]
            hosts = provider[at, cheaper]
            freed = remaining[at, hosts] + demands[cheaper]
            keys = np.where(
                (hosts >= 0) & (freed + _EPS >= demand), inserted[at, cheaper], _UNASSIGNED
            )
            first = keys.argmin(axis=1)
            local = (keys[np.arange(todo.size), first] != _UNASSIGNED).nonzero()[0]
            if local.size == 0:
                continue
            swapped, first = todo[local], first[local]
            host = hosts[local, first]
            remaining[swapped, host] = freed[local, first] - demand
            provider[swapped, cheaper[first]] = -1
            inserted[swapped, cheaper[first]] = _UNASSIGNED
            provider[swapped, loser] = host
            inserted[swapped, loser] = clock
            improved[swapped] = True
        active = improved.nonzero()[0]

    # Restart selection; the builtin sum walks the bids' own values in insertion order.
    by_insertion = np.argsort(inserted, axis=1).tolist()
    counts = (provider >= 0).sum(axis=1).tolist()
    results: List[Tuple[Dict[str, str], float]] = []
    for index, (_seed, excluded) in enumerate(problems):
        if n == (excluded is not None):  # nobody left to allocate to
            results.append(({}, 0.0))
            continue
        best_row, best_welfare = None, -1.0
        for row in range(index * restarts, (index + 1) * restarts):
            welfare = sum([values[user] for user in by_insertion[row][: counts[row]]])
            if welfare > best_welfare + _EPS:
                best_row, best_welfare = row, welfare
        assignment: Dict[str, str] = {}
        if best_row is not None:
            for user in by_insertion[best_row][: counts[best_row]]:
                assignment[users[user].user_id] = provider_ids[provider[best_row, user]]
        results.append((assignment, best_welfare))
    return results


def _residuals(
    caps: np.ndarray, demands: np.ndarray, provider: np.ndarray, inserted: np.ndarray
) -> np.ndarray:
    """Capacities minus the assigned demands, subtracted in insertion order."""
    rows = np.arange(len(provider))
    remaining = np.tile(caps, (len(provider), 1))
    by_insertion = np.argsort(inserted, axis=1)
    for position in range(by_insertion.shape[1]):
        user = by_insertion[:, position]
        host = provider[rows, user]
        on = (host >= 0).nonzero()[0]
        if on.size == 0:
            break
        remaining[on, host[on]] -= demands[user[on]]
    return remaining
