"""Vectorized batch auction engine (see DESIGN.md).

This package provides the NumPy-backed implementation of the standard
auction's allocation rule and of the Clarke-pivot payment re-solves — the one
every front door runs (the ``standard`` mechanism kind builds it):

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
  split.

The readable :class:`~repro.auctions.standard_auction.StandardAuction` is the
oracle: same integer seed ⇒ bit-identical allocation, welfare and payments, locked
in by the differential suite ``tests/auctions/test_engine_equivalence.py``.
"""

from __future__ import annotations

from repro.auctions.engine.pivot import clear_solve_cache
from repro.auctions.engine.vectorized import VectorizedStandardAuction

__all__ = ["VectorizedStandardAuction", "clear_solve_cache"]
