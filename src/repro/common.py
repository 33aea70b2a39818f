"""Shared primitives used across layers.

The special value ⊥ ("abort") appears at every level of the framework: a building
block outputs ⊥ when it detects an inconsistency, and the outcome of the whole
simulation is ⊥ if any provider outputs ⊥ (Definition 1 of the paper).  Defining the
sentinel here — below every other package — keeps the dependency graph acyclic.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any

__all__ = [
    "ABORT",
    "AbortType",
    "available_cpus",
    "is_abort",
    "memoise",
    "stable_hash",
]


def available_cpus() -> int:
    """The number of CPUs this process may actually run on (never 0).

    ``os.cpu_count()`` reports the machine's logical cores, which overstates
    what a containerized or affinity-restricted process can use — a CI runner
    pinned to one core of a 64-core host would size pools 64 wide.  Prefer the
    scheduling affinity mask where the platform exposes it; every pool-sizing
    decision in this package (sweep/audit worker resolution) goes through this
    helper.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def stable_hash(*parts: Any) -> int:
    """Deterministic 63-bit hash of a tuple of simple values.

    Python's built-in ``hash`` of strings is randomised per process
    (``PYTHONHASHSEED``), which would make seed derivation irreproducible across
    runs.  All seed derivation in this package therefore goes through this helper,
    which hashes the ``repr`` of the parts with SHA-256.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def memoise(instance: Any, attr: str, memo: Any) -> Any:
    """Remember ``memo`` on ``instance`` under ``attr`` and return it.

    The one way this package caches what it derives from an immutable value:
    *on the value*, read back with ``getattr(instance, attr, None)``, so the
    memo is keyed on the object itself, shared by whoever shares the object
    and gone when the object is — no table to size, clear or switch off.  An
    instance without room for the memo (``__slots__``, a builtin) is simply
    asked again next time.  Writers may race: every memo is a pure function
    of its instance, so the loser overwrites an equal value.

    A memo kept in an instance ``__dict__`` travels with ``pickle`` and
    ``copy`` unless the class says otherwise, so it must be derived from the
    contents alone and stay true of the copy (a wire size).  A class whose
    memos refer to other live objects ships its fields only
    (:class:`~repro.auctions.base.BidVector`, ``FrozenMap``).
    """
    try:
        object.__setattr__(instance, attr, memo)
    except (AttributeError, TypeError):
        pass  # no room for the memo
    return memo


class AbortType:
    """Singleton sentinel representing the special value ⊥ (abort).

    The sentinel compares equal only to itself, hashes consistently, and is falsy so
    that ``if result:`` reads naturally in protocol code.
    """

    _instance: "AbortType | None" = None

    def __new__(cls) -> "AbortType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABORT"

    def __bool__(self) -> bool:
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AbortType)

    def __hash__(self) -> int:
        return hash("repro.common.ABORT")

    def __reduce__(self):
        # Pickling round-trips to the same singleton.
        return (AbortType, ())


ABORT = AbortType()


def is_abort(value: Any) -> bool:
    """True if ``value`` is the ⊥ sentinel."""
    return isinstance(value, AbortType)
