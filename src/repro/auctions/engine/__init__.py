"""Vectorized batch auction engine (see DESIGN.md).

This package provides a drop-in, NumPy-backed implementation of the standard
auction's allocation rule and of the Clarke-pivot payment re-solves:

* :mod:`repro.auctions.engine.kernel` — the batch kernel: every ``(problem,
  restart)`` pair of a task — the base solve, or one re-solve per winner of a
  payment task — is a row of a single NumPy computation (greedy placement, local
  search and restart selection) instead of nested Python loops, with
  bit-identical results.
* :mod:`repro.auctions.engine.pivot` — the process-wide memo of solves and pivot
  welfares, keyed on ``(mechanism params, bid-vector hash, seed)``.
* :mod:`repro.auctions.engine.vectorized` — :class:`VectorizedStandardAuction`,
  a :class:`~repro.auctions.standard_auction.StandardAuction` subclass that plugs
  both into the same :class:`~repro.auctions.decomposable.DecomposableMechanism`
  split, so the distributed simulation can use either engine interchangeably.

The engine contract — same integer seed ⇒ bit-identical allocation, welfare and
payments as the reference implementation — is locked in by the differential suite
``tests/auctions/test_engine_equivalence.py``.  That suite gated the default
flip: :data:`DEFAULT_ENGINE` is now ``"vectorized"``, so every front door
(scenario specs, ``AuctionRun``, the figure sweeps, the CLI) runs the fast
engine unless a call site opts back out with
``engine="reference"`` — results are identical either way, only speed differs.
"""

from __future__ import annotations

from repro.auctions.base import AllocationAlgorithm
from repro.auctions.engine.pivot import clear_solve_cache
from repro.auctions.engine.vectorized import VectorizedStandardAuction
from repro.auctions.standard_auction import StandardAuction

__all__ = [
    "ENGINES",
    "DEFAULT_ENGINE",
    "VectorizedStandardAuction",
    "clear_solve_cache",
    "engine_name",
    "make_standard_auction",
    "resolve_engine",
]

#: The engines a call site may select between.
ENGINES = ("reference", "vectorized")

#: The engine used when a call site does not choose one.  Flipped to
#: "vectorized" once the differential suite gated bit-identical results;
#: ``engine="reference"`` remains the escape hatch everywhere.
DEFAULT_ENGINE = "vectorized"


def make_standard_auction(engine: str = DEFAULT_ENGINE, **kwargs) -> StandardAuction:
    """Build a standard auction for the requested engine.

    ``kwargs`` are forwarded to the mechanism constructor (``epsilon``,
    ``perturbation``, ``local_search_rounds``, ...).
    """
    if engine == "reference":
        return StandardAuction(**kwargs)
    if engine == "vectorized":
        return VectorizedStandardAuction(**kwargs)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def engine_name(algorithm: AllocationAlgorithm) -> str:
    """The engine that actually backs ``algorithm`` (``"reference"`` default).

    Engine-aware mechanisms carry an ``engine`` class attribute
    (:class:`VectorizedStandardAuction` says ``"vectorized"``); everything
    else — the reference standard auction, the double auction, user-registered
    mechanisms — reports ``"reference"``.  Records use this, not the requested
    override, so artifacts state the engine that ran.
    """
    return getattr(algorithm, "engine", "reference")


def resolve_engine(algorithm: AllocationAlgorithm, engine: str) -> AllocationAlgorithm:
    """Return ``algorithm`` re-targeted at the requested engine.

    Only the stock standard auction has two engines; any other mechanism — the
    double auction, user-registered mechanisms, and *subclasses* of
    :class:`StandardAuction` that specialise behavior — is returned unchanged
    (swapping a subclass for the stock vectorized engine would silently drop
    its overrides, which matters now that the default engine is applied to
    every mechanism).  The returned mechanism carries over the exact
    ``restarts`` count of the source (not just ``epsilon``), so the two engines
    stay seed-for-seed comparable even if the source clamped its restart count.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if type(algorithm) is StandardAuction:
        is_vectorized = False
    elif type(algorithm) is VectorizedStandardAuction:
        is_vectorized = True
    else:
        return algorithm
    if (engine == "vectorized") == is_vectorized:
        return algorithm
    replacement = make_standard_auction(
        engine,
        epsilon=algorithm.epsilon,
        perturbation=algorithm.perturbation,
        local_search_rounds=algorithm.local_search_rounds,
    )
    replacement.restarts = algorithm.restarts
    return replacement
