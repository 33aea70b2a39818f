"""NumPy kernel for the standard auction's allocation rule, batched over problems.

The reference :meth:`~repro.auctions.standard_auction.StandardAuction.solve_allocation`
runs ``restarts`` perturbed greedy passes plus a local search in a Python loop, and
a payment task repeats that whole solve once per winner on the bid vector without
that winner.  :func:`solve_batch` evaluates every ``(problem, restart)`` pair of
such a task as one row of a single computation.  A problem is the base solve or
"the base minus user *e*" over the *same* user axis: the removed user gets density
−inf and demand +inf, so it sorts last and never fits, and its row's ``n − 1``
noise draws fill the other columns in bid-vector order.  Once the noise is drawn,
users no provider could ever host leave the axis (below).  Greedy placement
advances all rows one order-position at a time; local search computes, for all rows
at once, which losers a visit would move (:func:`_marks`), visits only those pairs
and re-marks only the rows it moved; only each problem's best row is turned back
into a dict.

Bit-identical equivalence with the reference is a hard contract (the data-transfer
block compares results structurally across providers, the differential suite
across engines).  What pins it:

* noise comes from the same ``random.Random(stable_hash(seed, "restart", r))``
  streams, one draw per user in bid-vector order, taken as one ``getrandbits``
  call per row whose words :func:`_noise` turns into ``random()``'s exact
  doubles; every float operation replays the reference's order (densities,
  ``remaining + EPS >= demand``, the per-placement subtraction), so every
  intermediate is the same IEEE-754 double;
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
  compensated);
* a mark is the scan's own test on the scan's own operands, reduced with ``max``
  instead of ``any`` (:func:`_marks` says why that is an equality), and a row's
  marks are recomputed whenever a visit changes the row, so a visited pair always
  moves and a skipped one never would have;
* a user is dropped from the axis only when its demand exceeds
  ``max(capacities) * (1 + 1e-9) + 1e-9``.  Nothing ever holds more room than a
  capacity: a residual is a capacity minus demands, and what an eviction frees is
  the residual plus the evicted demand — the capacity minus what stays — each up
  to rounding.  An operation on a residual errs by at most half an ulp of a
  value that stays around the capacity or below (1.1e-16 relative), and
  residuals are rebuilt from the capacities every round; the margin covers the
  EPS slack of ``room + EPS >= demand`` and ~10^7 such operations per provider
  and round, where a row performs at most three per user.  The noise is drawn
  first, for every user in bid-vector order, so no stream moves.
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

#: A payment task's callers bound rows × users per :func:`solve_batch` call by
#: this (they chunk its problems), so a 400-user task works on ~1 MB arrays, not
#: ~100 MB.  A base solve is one problem of ``restarts`` rows and is not chunked.
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
        capacities: provider id -> capacity, in bid-vector order; finite
            (:func:`~repro.auctions.validation.eligible_provider_asks`) — best-fit
            reads +inf as "does not fit", and the largest one bounds every demand
            that can ever be placed.
        problems: ``(seed, removed)`` pairs — ``removed`` is the index in ``users``
            of the user the problem leaves out, ``None`` for the base solve.
        restarts / perturbation / rounds: the mechanism's parameters.

    Returns:
        Per problem, what the reference's restart loop ends with: the first
        restart's assignment whose welfare beats the others by more than EPS and
        that welfare (``({}, -1.0)`` without restarts), or the reference's early
        ``({}, 0.0)`` when the problem has no user or no capacity to allocate.
    """
    everyone = len(users)
    if not everyone or not capacities:
        return [({}, 0.0) for _problem in problems]
    total = len(problems) * restarts

    rows = [(stable_hash(seed, "restart", r), e) for seed, e in problems for r in range(restarts)]
    raw = _noise(rows, everyone)

    # The user axis shrinks to the users some provider could ever host (the module
    # docstring has the margin's argument), keeping a column so that no array is
    # empty; a removed user that left the axis leaves a plain base row behind.
    provider_ids = list(capacities)
    caps = np.array(list(capacities.values()), dtype=np.float64)
    demands = np.array([u.demand for u in users], dtype=np.float64)
    fitting = (demands <= caps.max() * (1.0 + 1e-9) + 1e-9).nonzero()[0]
    if fitting.size == 0:
        fitting = np.zeros(1, dtype=np.int64)
    column = np.full(everyone + 1, -1, dtype=np.int64)  # last slot: "nobody removed"
    column[fitting] = np.arange(fitting.size)
    removed = column[np.repeat([-1 if e is None else e for _seed, e in problems], restarts)]
    pivot_rows = (removed >= 0).nonzero()[0]
    users = [users[i] for i in fitting]
    n = len(users)
    demands = demands[fitting]
    unit_values = np.array([u.unit_value for u in users], dtype=np.float64)
    values = [u.total_value for u in users]
    densities = unit_values * (1.0 + perturbation * (2.0 * raw[:, fitting] - 1.0))
    densities[pivot_rows, removed[pivot_rows]] = -np.inf

    # Greedy order per row: ascending (-density, user_id).
    uid_rank = np.empty(n, dtype=np.int64)
    uid_rank[sorted(range(n), key=lambda i: users[i].user_id)] = np.arange(n)
    orders = np.lexsort((np.broadcast_to(uid_rank, (total, n)), -densities), axis=-1)
    ordered_demands = demands[orders]
    ordered_demands[orders == removed[:, np.newaxis]] = np.inf

    # Best-fit decreasing over a provider axis sorted by id (first minimum =
    # smallest id); ``provider`` holds bid-vector provider indices throughout.
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
    ascending, cheaper = _by_value(values)
    active = np.arange(total)
    clock = n  # next insertion key: later than every greedy position
    for round_index in range(max(0, rounds)):
        if active.size == 0:
            break
        if round_index:
            remaining[active] = _residuals(caps, demands, provider[active], inserted[active])
        # The losers are a round-start snapshot: a user evicted this round waits
        # for the next one.
        losers = np.zeros((total, n), dtype=bool)
        losers[active] = provider[active] < 0
        losers[pivot_rows, removed[pivot_rows]] = False
        marks = np.zeros((total, n), dtype=bool)
        marks[active] = _marks(active, remaining, provider, losers, demands, ascending, cheaper)
        improved = np.zeros(total, dtype=bool)
        for loser in loser_order:
            rows = marks[:, loser].nonzero()[0]
            if rows.size == 0:
                continue
            clock += 1
            demand = demands[loser]
            # Direct placement into the tightest residual that fits.
            residual = remaining[rows]
            feasible = residual + _EPS >= demand
            fits = feasible.any(axis=1)
            placed = rows[fits]
            if placed.size:
                best = np.where(feasible, residual, np.inf).argmin(axis=1)[fits]
                remaining[placed, best] -= demand
                provider[placed, loser] = best
            # Eviction: a marked row without room has a strictly cheaper user to
            # replace; the earliest-inserted match is the reference's.
            swapped = rows[~fits]
            if swapped.size:
                candidates = ascending[: cheaper[loser]]
                at = swapped[:, np.newaxis]
                hosts = provider[at, candidates]
                freed = remaining[at, hosts] + demands[candidates]
                keys = np.where(
                    (hosts >= 0) & (freed + _EPS >= demand), inserted[at, candidates], _UNASSIGNED
                )
                first = keys.argmin(axis=1)
                each = np.arange(swapped.size)
                host = hosts[each, first]
                remaining[swapped, host] = freed[each, first] - demand
                provider[swapped, candidates[first]] = -1
                inserted[swapped, candidates[first]] = _UNASSIGNED
                provider[swapped, loser] = host
            inserted[rows, loser] = clock
            improved[rows] = True
            marks[rows] = _marks(rows, remaining, provider, losers, demands, ascending, cheaper)
        active = improved.nonzero()[0]

    # Restart selection; the builtin sum walks the bids' own values in insertion order.
    by_insertion = np.argsort(inserted, axis=1).tolist()
    counts = (provider >= 0).sum(axis=1).tolist()
    results: List[Tuple[Dict[str, str], float]] = []
    for index, (_seed, excluded) in enumerate(problems):
        if everyone == (excluded is not None):  # nobody left to allocate to
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


def _noise(rows: Sequence[Tuple[int, Optional[int]]], width: int) -> np.ndarray:
    """Per ``(seed, excluded)`` row, ``random.Random(seed).random()`` for every column.

    The ``excluded`` column (if any) draws nothing and stays 0.0.  ``getrandbits``
    emits the generator's 32-bit words least significant first: the words
    ``random()`` reads two per draw, and its formula on them is exact in float64.
    """
    rng = random.Random(0)  # reseeded per row: ``seed(s)`` is the state ``Random(s)`` starts in
    words = []
    keep = np.ones((len(rows), width), dtype=bool)
    for index, (seed, excluded) in enumerate(rows):
        draws = width - (excluded is not None)
        rng.seed(seed)
        words.append(rng.getrandbits(64 * draws).to_bytes(8 * draws, "little"))
        if excluded is not None:
            keep[index, excluded] = False
    high, low = np.frombuffer(b"".join(words), "<u4").reshape(-1, 2).T
    noise = np.zeros((len(rows), width), dtype=np.float64)
    noise[keep] = ((high >> 5) * 67108864.0 + (low >> 6)) / 9007199254740992.0
    return noise


def _by_value(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Users from cheapest to dearest and, per user, how many are strictly cheaper.

    ``W`` is strictly cheaper than ``L`` when ``value[W] + EPS < value[L]`` — the
    reference's eviction test — so the users cheaper than ``L`` are the first
    ``cheaper[L]`` entries of ``ascending``.
    """
    exact = np.array(values, dtype=np.float64)
    padded = exact + _EPS
    ascending = np.argsort(padded, kind="stable")
    return ascending, np.searchsorted(padded[ascending], exact, side="left")


def _marks(
    rows: np.ndarray,
    remaining: np.ndarray,
    provider: np.ndarray,
    losers: np.ndarray,
    demands: np.ndarray,
    ascending: np.ndarray,
    cheaper: np.ndarray,
) -> np.ndarray:
    """Per row of ``rows`` as it stands, the losers a local-search visit would move.

    A visit places loser ``L`` when a residual has room for it, or else when
    evicting a strictly cheaper hosted user ``W`` frees enough on ``W``'s host:
    when ``x + EPS >= demand[L]`` holds for some ``x`` among the row's residuals
    and its ``residual[host(W)] + demand[W]``.  ``x -> fl(x + EPS)`` is monotone,
    so that is exactly ``max(x) + EPS >= demand[L]`` — an equality with what the
    scan would find, not a bound.  The cheaper users are a prefix of ``ascending``
    (:func:`_by_value`), so the maximum is a running one along that order, seeded
    with the largest residual.
    """
    hosts = provider[rows[:, np.newaxis], ascending]
    freed = remaining[rows[:, np.newaxis], hosts] + demands[ascending]
    room = np.empty((rows.size, ascending.size + 1), dtype=np.float64)
    room[:, 0] = remaining[rows].max(axis=1)
    room[:, 1:] = np.where(hosts >= 0, freed, -np.inf)
    np.maximum.accumulate(room, axis=1, out=room)
    return losers[rows] & (room[:, cheaper] + _EPS >= demands)


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
