"""Deterministic fault injection: the ``FAULTS`` registry and :class:`FaultPlan`.

The paper's model assumes a perfectly reliable substrate — channels never lose,
duplicate or reorder, and nodes never crash.  This module supplies the *other*
half of a robustness story: seeded, spec-declared fault models that SimNetwork
applies on its enqueue/pop path, so a protocol run under injected failures is
exactly as reproducible as one without them.

Determinism contract
--------------------

Every fault decision is drawn from the plan's own ``random.Random``, seeded via
:func:`repro.common.stable_hash` — never from the network RNG, so arming a plan
does not perturb latency jitter or scheduler draws, and an *empty* plan is a
behavioural no-op (the network skips every hook when ``fault_plan is None`` or
the plan has no network-level models).  Each injected event is journaled as a
plain JSON-shaped dict; :meth:`FaultPlan.digest` hashes the sorted-key
canonical encoding, which is what the chaos audit compares across
``PYTHONHASHSEED`` values to prove the injected schedule is bit-reproducible.

The registry
------------

``FAULTS`` is the same :class:`~repro.scenarios.registry.Registry` that backs
``MECHANISMS`` and ``WORKLOADS``: a fault model is reachable from spec
files by string kind with no new plumbing.  Shipped kinds:

==============  ==============================================================
kind            effect
==============  ==============================================================
``loss``        drop each matching message with probability ``rate``
``duplicate``   inject ``copies`` duplicates with probability ``rate``
``reorder``     add a random extra delay (a per-message latency spike that
                reorders the message relative to its peers)
``latency_spike``  add ``extra`` seconds to every message sent in a window
``partition``   drop every message crossing the ``nodes`` boundary while the
                window is open (checked against *arrival* time, so backed-off
                retransmits escape a healed partition)
``crash``       drop every delivery to ``node`` inside the window; the first
                delivery after it triggers a restart with full state loss
                (``on_start`` runs again on a fresh protocol host)
``torn_append``  store-level: truncate ``drop_bytes`` from the journal tail
                after a cell's append (exercised by the chaos audit's
                resume-repair invariant, ignored by the network)
==============  ==============================================================
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common import stable_hash
from repro.net.message import Message
from repro.obs.context import current_observation

__all__ = [
    "FAULTS",
    "FaultModel",
    "FaultPlan",
    "RecoveryPolicy",
    "SendEffect",
    "make_fault",
]

#: No-op send effect shared by every clean pass through the gauntlet.
_CLEAN_SEND: "SendEffect"


@dataclass(frozen=True)
class SendEffect:
    """What the fault gauntlet decided about one outgoing message."""

    drop: bool = False
    extra_delay: float = 0.0
    duplicates: int = 0
    injected: int = 0


_CLEAN_SEND = SendEffect()


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounded retransmission with deterministic sim-clock exponential backoff.

    ``max_retries`` is a *literal* bound (retransmission terminates by
    construction), and backoff is computed from virtual time — never
    ``time.sleep`` — so recovery is as reproducible as the faults it answers.
    """

    enabled: bool = True
    max_retries: int = 3
    base_backoff: float = 0.05
    backoff_factor: float = 2.0

    #: What a spec file calls this table (``unknown recovery key``).
    NOUN = "recovery"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_backoff < 0:
            raise ValueError("base_backoff must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff(self, attempt: int) -> float:
        """Virtual-time delay before retransmission ``attempt`` (1-based)."""
        return self.base_backoff * self.backoff_factor ** (attempt - 1)


class FaultModel:
    """Base class: a seeded, windowed perturbation of the message substrate.

    Subclasses override :meth:`on_send` and/or :meth:`on_deliver`.  Both hooks
    receive the plan's RNG — a model must draw *only* from it (and only when
    its predicate matches), so the injected schedule is a pure function of
    ``(plan seed, message trace)``.
    """

    kind: str = ""
    #: Store-level models (torn_append) set this False; the network skips them.
    network_level: bool = True

    def on_send(
        self, message: Message, rng: random.Random
    ) -> Optional[Dict[str, Any]]:
        """Effect on an outgoing message: None, or a dict with any of
        ``drop``/``extra_delay``/``duplicates`` plus journal fields."""
        return None

    def on_deliver(
        self, message: Message, rng: random.Random
    ) -> Optional[Dict[str, Any]]:
        """Effect at delivery time: None, or ``{"drop": True}`` /
        ``{"restart": True}`` plus journal fields."""
        return None

    def reset(self) -> None:
        """Clear per-run state (crash models track their restart here)."""


class LossFault(FaultModel):
    """Drop each matching message with probability ``rate``."""

    kind = "loss"

    def __init__(self, rate: float = 0.1, tag_substring: str = "") -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be in [0, 1]")
        self.rate = rate
        self.tag_substring = tag_substring

    def on_send(self, message, rng):
        if self.tag_substring and self.tag_substring not in message.tag:
            return None
        if rng.random() < self.rate:
            return {"drop": True, "cause": "loss"}
        return None


class DuplicateFault(FaultModel):
    """Inject ``copies`` duplicates of a message with probability ``rate``."""

    kind = "duplicate"

    def __init__(self, rate: float = 0.1, copies: int = 1) -> None:
        rate = float(rate)
        copies = int(copies)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("duplicate rate must be in [0, 1]")
        if copies < 1:
            raise ValueError("duplicate copies must be >= 1")
        self.rate = rate
        self.copies = copies

    def on_send(self, message, rng):
        if rng.random() < self.rate:
            return {"duplicates": self.copies, "cause": "duplicate"}
        return None


class ReorderFault(FaultModel):
    """Add a random extra delay to a message with probability ``rate``.

    A per-message latency spike: the delayed message arrives after traffic it
    was sent before, which is exactly a reordering under earliest-arrival
    schedulers.
    """

    kind = "reorder"

    def __init__(self, rate: float = 0.1, magnitude: float = 0.05) -> None:
        rate = float(rate)
        magnitude = float(magnitude)
        if not 0.0 <= rate <= 1.0:
            raise ValueError("reorder rate must be in [0, 1]")
        if magnitude <= 0:
            raise ValueError("reorder magnitude must be > 0")
        self.rate = rate
        self.magnitude = magnitude

    def on_send(self, message, rng):
        if rng.random() < self.rate:
            return {
                "extra_delay": rng.uniform(0.0, self.magnitude),
                "cause": "reorder",
            }
        return None


class LatencySpikeFault(FaultModel):
    """Add ``extra`` seconds to every message *sent* inside the window."""

    kind = "latency_spike"

    def __init__(self, at: float = 0.0, duration: float = 0.1, extra: float = 0.1) -> None:
        self.at = float(at)
        self.duration = float(duration)
        self.extra = float(extra)
        if self.duration <= 0:
            raise ValueError("latency_spike duration must be > 0")
        if self.extra <= 0:
            raise ValueError("latency_spike extra must be > 0")

    def on_send(self, message, rng):
        if self.at <= message.send_time < self.at + self.duration:
            return {"extra_delay": self.extra, "cause": "latency_spike"}
        return None


class PartitionFault(FaultModel):
    """Drop messages crossing the ``nodes`` boundary while the window is open.

    The window is checked against *arrival* time: a retransmission backed off
    past the healing instant crosses the healed link and is delivered — which
    is what lets the recovery layer demonstrate progress through a partition.
    """

    kind = "partition"

    def __init__(
        self, nodes: Sequence[str] = (), at: float = 0.0, duration: float = 0.1
    ) -> None:
        if isinstance(nodes, str):
            nodes = (nodes,)
        self.nodes = frozenset(nodes)
        self.at = float(at)
        self.duration = float(duration)
        if not self.nodes:
            raise ValueError("partition needs a non-empty 'nodes' side")
        if self.duration <= 0:
            raise ValueError("partition duration must be > 0")

    def on_send(self, message, rng):
        crosses = (message.sender in self.nodes) != (message.recipient in self.nodes)
        if crosses and self.at <= message.arrival_time < self.at + self.duration:
            return {"drop": True, "cause": "partition"}
        return None


class CrashFault(FaultModel):
    """Crash ``node`` for a window of virtual time, then restart it with state loss.

    Deliveries whose arrival falls inside the window are lost (the process is
    down).  The first delivery after the window triggers a *restart*: the
    network re-runs the node's ``on_start``, which for protocol nodes rebuilds
    a fresh block host — all in-progress protocol state is gone, exactly the
    crash-with-state-loss failure mode.
    """

    kind = "crash"

    def __init__(self, node: str = "", at: float = 0.0, duration: float = 0.1) -> None:
        if not node:
            raise ValueError("crash needs a target 'node'")
        self.node = node
        self.at = float(at)
        self.duration = float(duration)
        if self.duration <= 0:
            raise ValueError("crash duration must be > 0")
        self._restarted = False

    def on_deliver(self, message, rng):
        if message.recipient != self.node:
            return None
        arrival = message.arrival_time
        if self.at <= arrival < self.at + self.duration:
            return {"drop": True, "cause": "crash"}
        if arrival >= self.at + self.duration and not self._restarted:
            self._restarted = True
            return {"restart": True, "cause": "restart"}
        return None

    def reset(self) -> None:
        self._restarted = False


class TornAppendFault(FaultModel):
    """Store-level: tear ``drop_bytes`` off the journal tail after an append.

    The network ignores this model (``network_level = False``); the chaos
    audit uses it to exercise the store's torn-tail repair + resume path.
    """

    kind = "torn_append"
    network_level = False

    def __init__(self, drop_bytes: int = 7) -> None:
        drop_bytes = int(drop_bytes)
        if drop_bytes < 1:
            raise ValueError("torn_append drop_bytes must be >= 1")
        self.drop_bytes = drop_bytes


class FaultPlan:
    """An ordered set of fault models plus the recovery policy, seeded once.

    The plan owns the fault RNG (derived from ``seed`` via ``stable_hash``, so
    it is independent of the network RNG stream) and the event journal.  One
    plan serves one network run; build a fresh plan (or call :meth:`reset`)
    per run.
    """

    def __init__(
        self,
        models: Sequence[FaultModel] = (),
        seed: int = 0,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.models: List[FaultModel] = list(models)
        self.seed = seed
        self.recovery = recovery if recovery is not None else RecoveryPolicy()
        self._network_models = [m for m in self.models if m.network_level]
        self._rng = random.Random(stable_hash(seed, "fault-plan"))
        self.events: List[Dict[str, Any]] = []

    # -- lifecycle -----------------------------------------------------------
    @property
    def armed(self) -> bool:
        """True when the plan carries at least one network-level model."""
        return bool(self._network_models)

    def reset(self) -> None:
        """Rewind to the freshly built state (same seed, empty journal)."""
        self._rng = random.Random(stable_hash(self.seed, "fault-plan"))
        self.events = []
        for model in self.models:
            model.reset()

    # -- the injection hooks (called by SimNetwork) --------------------------
    def apply_send(self, message: Message) -> SendEffect:
        """Run one outgoing message through every model's send hook.

        The first ``drop`` wins (later models are still *not* consulted, so
        their RNG draws stay conditional on the message surviving — a dropped
        message never perturbs the downstream stream); delays and duplicate
        counts accumulate.
        """
        drop = False
        extra_delay = 0.0
        duplicates = 0
        injected = 0
        for model in self._network_models:
            effect = model.on_send(message, self._rng)
            if effect is None:
                continue
            injected += 1
            self.record(
                effect.get("cause", model.kind),
                msg_id=message.msg_id,
                origin=message.origin,
                tag=message.tag,
                sender=message.sender,
                recipient=message.recipient,
                at=message.arrival_time,
            )
            if effect.get("drop"):
                drop = True
                break
            extra_delay += effect.get("extra_delay", 0.0)
            duplicates += effect.get("duplicates", 0)
        if not injected:
            return _CLEAN_SEND
        return SendEffect(
            drop=drop, extra_delay=extra_delay, duplicates=duplicates, injected=injected
        )

    def apply_deliver(self, message: Message) -> Tuple[bool, bool]:
        """Run one arriving message through every model's deliver hook.

        Returns ``(lost, restart)``: ``lost`` means the delivery never reaches
        the node (crash window, counted against ``messages_lost``), ``restart``
        means the recipient must re-run ``on_start`` before this delivery.
        """
        lost = False
        restart = False
        for model in self._network_models:
            effect = model.on_deliver(message, self._rng)
            if effect is None:
                continue
            self.record(
                effect.get("cause", model.kind),
                msg_id=message.msg_id,
                origin=message.origin,
                tag=message.tag,
                sender=message.sender,
                recipient=message.recipient,
                at=message.arrival_time,
            )
            if effect.get("drop"):
                lost = True
                break
            if effect.get("restart"):
                restart = True
        return lost, restart

    # -- journaling ----------------------------------------------------------
    def record(self, event: str, **details: Any) -> None:
        """Append one journal entry (plain JSON-shaped values only)."""
        entry: Dict[str, Any] = {"event": event}
        entry.update(details)
        self.events.append(entry)
        # Observability hook: record() only runs on actual injections, so the
        # ambient lookup costs nothing on the fault-free path.  The instant's
        # timestamp is the injection's modelled time when the detail carries
        # one, else 0 — never the wall clock.
        obs = current_observation()
        if obs is not None:
            if obs.metrics is not None:
                obs.metrics.counter(f"faults.{event}").inc()
            tracer = obs.tracer
            if tracer is not None and tracer.active:
                at = details.get("at")
                tracer.instant(
                    f"fault.{event}",
                    "fault",
                    ts=float(at) if at is not None else 0.0,
                    **details,
                )

    def digest(self) -> str:
        """SHA-256 over the canonical (sorted-key) JSON of the event journal.

        Stable across processes and ``PYTHONHASHSEED`` values — the chaos
        audit's replay invariant compares this digest between runs.
        """
        payload = json.dumps(self.events, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- store-level models --------------------------------------------------
    def torn_appends(self) -> List[TornAppendFault]:
        """The store-level torn-append models of this plan (often empty)."""
        return [m for m in self.models if isinstance(m, TornAppendFault)]


# ------------------------------------------------------------------ registry --
#: Fault-model factories by kind — the extension contract for new failure
#: modes: register a factory and it is reachable from every chaos spec.
#: Materialised lazily (PEP 562 module ``__getattr__``): building the registry
#: imports ``repro.scenarios.registry``, whose package ``__init__`` imports the
#: chaos module, which imports back into this module — constructing it at
#: import time would make ``import repro.net.faults`` order-dependent.
_FAULTS = None


def _registry():
    global _FAULTS
    if _FAULTS is None:
        from repro.scenarios.registry import Registry

        # The import above can re-enter this function (scenarios.__init__ ->
        # chaos -> FAULTS); if that inner call already built the singleton,
        # keep it rather than shadowing it with a second instance.
        if _FAULTS is None:
            registry = Registry("fault model")
            registry.register("loss", LossFault)
            registry.register("duplicate", DuplicateFault)
            registry.register("reorder", ReorderFault)
            registry.register("latency_spike", LatencySpikeFault)
            registry.register("partition", PartitionFault)
            registry.register("crash", CrashFault)
            registry.register("torn_append", TornAppendFault)
            _FAULTS = registry
    return _FAULTS


def __getattr__(name: str) -> Any:
    if name == "FAULTS":
        return _registry()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def make_fault(kind: str, params: Optional[Dict[str, Any]] = None, path: str = "faults") -> FaultModel:
    """Build one fault model from ``(kind, params)`` with path-precise errors."""
    from repro.scenarios.spec import ComponentSpec

    return _registry().create(ComponentSpec(kind, dict(params or {})), path)
