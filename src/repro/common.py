"""Shared primitives used across layers.

The special value ⊥ ("abort") appears at every level of the framework: a building
block outputs ⊥ when it detects an inconsistency, and the outcome of the whole
simulation is ⊥ if any provider outputs ⊥ (Definition 1 of the paper).  Defining the
sentinel here — below every other package — keeps the dependency graph acyclic.
:class:`FrozenMap` lives here for the same reason: the data model keeps its id
indexes in one and the codec ships one by reference.
"""

from __future__ import annotations

import hashlib
import importlib
import os
from typing import Any, Callable, Dict, List, Mapping, NoReturn, Tuple

__all__ = [
    "ABORT",
    "AbortType",
    "DERIVED_ATTR",
    "FrozenMap",
    "WIRE_SIZE_ATTR",
    "available_cpus",
    "is_abort",
    "lazy_exports",
    "memoise",
    "stable_hash",
]

#: Where the codec memoises a deep-immutable value's wire size.
WIRE_SIZE_ATTR = "_repro_wire_size"
#: The :class:`FrozenMap` slot for what a holder derives from the contents.
DERIVED_ATTR = "_repro_derived"


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


def lazy_exports(
    package: str, namespace: Dict[str, Any], table: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """A package's PEP 562 ``(__getattr__, __dir__)`` pair.

    ``table`` maps each lazily exported name to the module defining it, which
    is imported on the name's first access; ``dir()`` lists the package's own
    ``namespace`` (its ``globals()``) and every lazy name.
    """

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(table[name]), name)

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__


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


class FrozenMap(dict):
    """A ``dict`` whose every mutator raises: a mapping payload shared by reference.

    On the wire it *is* the dict it was built from — same canonical bytes, same
    size, ``==`` to it both ways — so swapping one for the other moves no
    commitment and no traffic statistic.  (The codec's subclass
    :class:`~repro.net.serialization.LabelBatch`, an agreement batch, keeps the
    bytes and ``==`` but is sized by position over its labels.)  What it adds
    is that holders need no defensive copy, and that the codec may memoise its
    size on the instance (only when every key and value is deep-immutable; a
    frozen map holding a list is re-measured like any dict).  Holders sharing one may likewise keep
    what they derive from its contents in the ``DERIVED_ATTR`` slot (the bid
    agreement keeps the assembled vector there); neither slot is compared,
    encoded or pickled.  Like ``frozen=True`` on a dataclass it guards against
    mutation through the object's own interface, not against
    ``dict.__setitem__(m, ...)`` — which is also all that a memo shared through
    it can promise.
    """

    __slots__ = (WIRE_SIZE_ATTR, DERIVED_ATTR)

    def __new__(cls, *args: Any, **kwargs: Any) -> "FrozenMap":
        # Filled here, like a tuple or frozenset, so that calling ``__init__``
        # again cannot change it.
        self = dict.__new__(cls)
        dict.__init__(self, *args, **kwargs)
        return self

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        pass

    def _immutable(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise TypeError("FrozenMap does not support mutation")

    __setitem__ = __delitem__ = __ior__ = _immutable
    update = pop = popitem = setdefault = clear = _immutable

    def __reduce__(self):
        # The default dict-subclass protocol rebuilds through ``__setitem__``.
        return (FrozenMap, (dict(self),))


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
