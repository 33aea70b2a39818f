"""Protocol-block composition machinery.

The distributed auctioneer is described in the paper as a *chain of building blocks*
(bid agreement, input validation, data transfer, common coin, allocator), each of
which is itself a small message-passing protocol with an input and a single output
(a valid value or ⊥).  This module provides the plumbing to express blocks that way
and to multiplex many concurrent blocks over a single node's channel:

* :class:`ProtocolBlock` — a sub-protocol: ``on_start`` / ``on_message`` handlers plus
  a one-shot ``complete(value)``.
* :class:`BlockContext` — the scoped view a block gets of its host node: send/broadcast
  to the block's participants (tags are namespaced automatically), spawn child blocks,
  access the clock and RNG.
* :class:`BlockHost` — owned by a host node; routes incoming messages to the right
  block by tag prefix, buffering traffic that arrives before the local node has
  activated the corresponding block (this is where the model's asynchrony shows up).
* :class:`ProtocolNode` — a :class:`~repro.net.node.Node` that runs one root block and
  finishes with its result; it reads ``degraded`` off that root.

Tag format: ``"<block-path>|<subtag>"`` where the block path is ``/``-joined from the
root (for example ``"ba/u3|echo"``).

A round ends with :meth:`ProtocolNode.close` (called by the network's ``close``):
the host forgets its active blocks, its buffered traffic and its context
provider, and the node drops its context and root factory, keeping the root
and its output.  A :class:`BlockContext` holds no reference to its block, so the
block tree left behind is acyclic and reference counting frees it.
"""

from __future__ import annotations

import abc
import random
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.message import Message
from repro.net.node import Node, NodeContext

__all__ = ["ProtocolBlock", "BlockContext", "BlockHost", "ProtocolNode", "TAG_SEPARATOR"]

TAG_SEPARATOR = "|"

_UNSET = object()


class ProtocolBlock(abc.ABC):
    """A sub-protocol with message handlers and a single output value.

    A block completes exactly once, by calling :meth:`complete`.  Outputting the
    special ⊥ value is expressed by completing with :data:`repro.core.outcome.ABORT`
    (any sentinel chosen by the caller works; the base class does not interpret the
    value).

    Besides its output a block carries one bit, :attr:`degraded`: a leaf block
    sets it when a timer closed one of its rounds on a timeout quorum
    (``FrameworkConfig.round_timeout``), and the host ORs every finished
    child's flag into the block that spawned it — so a block reads its whole
    subtree's flag, and no block carries it by hand.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._result: Any = _UNSET
        #: The host that activated this block (set by :meth:`BlockHost.activate`).
        self._host: Optional["BlockHost"] = None
        #: The block that spawned this one (set by :meth:`BlockContext.spawn`).
        self._spawner: Optional["ProtocolBlock"] = None
        #: True when this block or a finished descendant closed a round by
        #: timeout quorum instead of a full view.
        self.degraded = False

    # -- to be implemented by subclasses -------------------------------------
    @abc.abstractmethod
    def on_start(self, ctx: "BlockContext") -> None:
        """Called once when the block becomes active at this node."""

    @abc.abstractmethod
    def on_message(self, ctx: "BlockContext", sender: str, subtag: str, payload: Any) -> None:
        """Called for every message addressed to this block."""

    def on_timer(self, ctx: "BlockContext", subtag: str) -> None:
        """Called when a timer set via :meth:`BlockContext.set_timer` fires.

        The default ignores timers — only blocks that opt into timeouts (the
        batched consensus round timeout) override this.
        """

    # -- completion ------------------------------------------------------------
    def complete(self, value: Any) -> None:
        """Record the block's output.  Subsequent calls are ignored (first wins)."""
        if self._result is _UNSET:
            self._result = value
            if self._host is not None:
                self._host._completions = True

    @property
    def done(self) -> bool:
        return self._result is not _UNSET

    @property
    def result(self) -> Any:
        if self._result is _UNSET:
            raise RuntimeError(f"block {self.name!r} has not completed yet")
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = repr(self._result) if self.done else "running"
        return f"{type(self).__name__}({self.name!r}, {state})"


class BlockContext:
    """Scoped capabilities handed to a protocol block by its host.

    Attributes:
        participants: the node ids taking part in this block (defaults to the
            provider set of the host).  ``broadcast`` targets exactly this set.
    """

    def __init__(
        self,
        host: "BlockHost",
        node_ctx: NodeContext,
        path: str,
        participants: Sequence[str],
    ) -> None:
        self._host = host
        self._node_ctx = node_ctx
        self.path = path
        self.participants = list(participants)

    # -- identity and environment -----------------------------------------------
    @property
    def node_id(self) -> str:
        return self._node_ctx.node_id

    @property
    def rng(self) -> random.Random:
        return self._node_ctx.rng

    def now(self) -> float:
        return self._node_ctx.now()

    def charge(self, seconds: float) -> None:
        self._node_ctx.charge(seconds)

    # -- messaging ----------------------------------------------------------------
    def send(self, recipient: str, payload: Any, subtag: str = "") -> None:
        """Send ``payload`` to one participant, namespaced under this block."""
        tag = f"{self.path}{TAG_SEPARATOR}{subtag}"
        self._node_ctx.send(recipient, payload, tag=tag)

    def broadcast(self, payload: Any, subtag: str = "", include_self: bool = False) -> None:
        """Send ``payload`` to every participant of this block."""
        tag = f"{self.path}{TAG_SEPARATOR}{subtag}"
        # Delegating to the node context lets the simulator amortise the
        # per-message wire-size estimate over the whole fan-out.
        self._node_ctx.broadcast(
            self.participants, payload, tag=tag, include_self=include_self
        )

    def send_to(self, recipients: Sequence[str], payload: Any, subtag: str = "") -> None:
        """Send ``payload`` to an explicit set of recipients (subset of the network)."""
        tag = f"{self.path}{TAG_SEPARATOR}{subtag}"
        self._node_ctx.broadcast(recipients, payload, tag=tag)

    def set_timer(self, delay: float, subtag: str = "") -> None:
        """Arm a virtual-time timer for this block.

        After ``delay`` simulated seconds the block's
        :meth:`ProtocolBlock.on_timer` fires with ``subtag``.  Timers for
        blocks that completed in the meantime are dropped by the host.
        """
        self._node_ctx.set_timer(delay, f"{self.path}{TAG_SEPARATOR}{subtag}")

    # -- composition ----------------------------------------------------------------
    def spawn(
        self,
        name: str,
        block: ProtocolBlock,
        on_done: Callable[[ProtocolBlock], None],
        participants: Optional[Sequence[str]] = None,
    ) -> ProtocolBlock:
        """Activate a child block under ``<this path>/<name>``.

        The child is started immediately; ``on_done`` fires (once) when it
        completes, after the host has ORed the child's :attr:`~ProtocolBlock.degraded`
        into this block's.  The spawner is recorded here rather than read off
        the path: a child name may itself hold a ``/`` (``user:u0001/bit003``).
        It is the host's active entry for this path, which exists exactly as
        long as the spawning block is active, so the context holds no
        reference to its block and the two form no cycle.  A block that
        spawns after it was finalised records no spawner: its own flag has
        already been read.
        """
        child_path = f"{self.path}/{name}"
        entry = self._host._blocks.get(self.path)
        block._spawner = entry[0] if entry is not None else None
        return self._host.activate(
            child_path,
            block,
            on_done,
            participants=participants if participants is not None else self.participants,
        )


class BlockHost:
    """Routes a node's incoming messages to its active protocol blocks.

    Messages whose block path is not active yet are buffered and replayed when the
    block is activated; messages for blocks that already completed are dropped.
    """

    def __init__(self, node_ctx_provider: Callable[[], NodeContext], participants: Sequence[str]) -> None:
        self._node_ctx_provider = node_ctx_provider
        self._default_participants = list(participants)
        self._blocks: Dict[str, Tuple[ProtocolBlock, BlockContext, Callable[[ProtocolBlock], None]]] = {}
        self._completed_paths: set = set()
        self._buffered: Dict[str, List[Tuple[str, str, Any]]] = defaultdict(list)
        # True from a block's ``complete`` until the sweep that finalises it:
        # a handler that completes nothing costs the host no pass over its blocks.
        self._completions = False

    # -- activation ----------------------------------------------------------------
    def activate(
        self,
        path: str,
        block: ProtocolBlock,
        on_done: Callable[[ProtocolBlock], None],
        participants: Optional[Sequence[str]] = None,
    ) -> ProtocolBlock:
        if path in self._blocks or path in self._completed_paths:
            raise ValueError(f"block path {path!r} already in use")
        node_ctx = self._node_ctx_provider()
        ctx = BlockContext(
            self,
            node_ctx,
            path,
            participants if participants is not None else self._default_participants,
        )
        self._blocks[path] = (block, ctx, on_done)
        block._host = self
        if block.done:  # completed before activation: nobody was there to tell
            self._completions = True
        block.on_start(ctx)
        self._sweep()
        if path in self._blocks:
            # Replay any traffic that arrived before activation.
            for sender, subtag, payload in self._buffered.pop(path, []):
                current = self._blocks.get(path)
                if current is None:
                    break
                current[0].on_message(current[1], sender, subtag, payload)
                self._sweep()
        else:
            self._buffered.pop(path, None)
        return block

    # -- dispatch --------------------------------------------------------------------
    def dispatch(self, node_ctx: NodeContext, message: Message) -> bool:
        """Route ``message`` to its block.  Returns True if it was consumed."""
        tag = message.tag
        if tag.startswith("__timer__") and message.sender == message.recipient:
            return self._dispatch_timer(tag[len("__timer__/") :])
        if TAG_SEPARATOR not in tag:
            return False
        path, subtag = tag.split(TAG_SEPARATOR, 1)
        if path in self._completed_paths:
            return True
        entry = self._blocks.get(path)
        if entry is None:
            self._buffered[path].append((message.sender, subtag, message.payload))
            return True
        block, ctx, _ = entry
        block.on_message(ctx, message.sender, subtag, message.payload)
        if self._completions:
            self._sweep()
        return True

    def _dispatch_timer(self, tag: str) -> bool:
        """Route a block timer (tag already stripped of the timer prefix).

        Timers never buffer: a timer for a completed block — or for a block of
        a previous incarnation after a crash restart — is stale and dropped.
        Timers without a block-path separator belong to the host node itself
        and are left to ``on_other_message``.
        """
        if TAG_SEPARATOR not in tag:
            return False
        path, subtag = tag.split(TAG_SEPARATOR, 1)
        entry = self._blocks.get(path)
        if entry is None:
            return True
        block, ctx, _ = entry
        block.on_timer(ctx, subtag)
        if self._completions:
            self._sweep()
        return True

    def _sweep(self) -> None:
        """Finalise every completed block, cascading to parents that complete in callbacks.

        A block may complete not only while handling its own traffic but also inside
        the ``on_done`` callback of one of its children (that is how composite blocks
        such as the bid agreement chain their sub-protocols), so a single pass is not
        enough — keep sweeping until no active block is done.  Blocks are visited
        in activation order, which is the order their ``on_done`` callbacks fire in.
        A finalised block's :attr:`~ProtocolBlock.degraded` is ORed into its
        spawner before its ``on_done`` runs — the only place the flag moves.
        """
        changed = self._completions
        while changed:
            self._completions = False
            changed = False
            for path in list(self._blocks.keys()):
                entry = self._blocks.get(path)
                if entry is None:
                    continue
                block, _, on_done = entry
                if block.done:
                    del self._blocks[path]
                    self._completed_paths.add(path)
                    self._buffered.pop(path, None)
                    if block.degraded and block._spawner is not None:
                        block._spawner.degraded = True
                    on_done(block)
                    changed = True

    def close(self) -> None:
        """Forget the active blocks, the buffered traffic and the context provider.

        What stays is what a finished round is read by: the completed paths
        and the blocks' own results (the root's output and ``degraded``).
        """
        self._blocks.clear()
        self._buffered.clear()
        self._node_ctx_provider = None

    # -- introspection ------------------------------------------------------------------
    @property
    def active_paths(self) -> List[str]:
        return list(self._blocks.keys())

    def is_active(self, path: str) -> bool:
        return path in self._blocks


class ProtocolNode(Node):
    """A node whose whole behaviour is to run one root protocol block.

    Subclasses (or callers) provide a factory for the root block; the node finishes
    with the root block's result.  Messages that are not block traffic are passed to
    :meth:`on_other_message`, which defaults to ignoring them.

    :meth:`on_start` is :meth:`_start_host` then :meth:`_activate_root`; a node
    that must first gather its root's input (the bid-collecting provider)
    starts the host and activates the root later.  The host routes from the
    first delivery on, so protocol traffic from a peer whose root is already
    running is buffered until the root activates here.
    """

    def __init__(
        self,
        node_id: str,
        participants: Sequence[str],
        root_name: str,
        root_factory: Callable[[], ProtocolBlock],
    ) -> None:
        super().__init__(node_id)
        self.participants = list(participants)
        self._root_name = root_name
        self._root_factory = root_factory
        self._host: Optional[BlockHost] = None
        self._current_ctx: Optional[NodeContext] = None
        #: This incarnation's root block, ``None`` until it activates.
        self._root: Optional[ProtocolBlock] = None

    @property
    def degraded(self) -> bool:
        """True when the root block closed a round by timeout quorum instead of
        a full view (see ``FrameworkConfig.round_timeout``).

        Read off the root, so a crash restart — which builds a fresh root —
        reads ``False`` until the new root degrades.
        """
        return self._root is not None and self._root.degraded

    # -- Node interface ---------------------------------------------------------
    def on_start(self, ctx: NodeContext) -> None:
        self._start_host(ctx)
        self._activate_root()

    def _start_host(self, ctx: NodeContext) -> None:
        """Begin a fresh incarnation: a new block host and no root yet.

        A crash restart closes the previous incarnation's host first, which
        still holds whatever blocks were active when the node went down.
        """
        if self._host is not None:
            self._host.close()
        self._current_ctx = ctx
        self._root = None
        self._host = BlockHost(lambda: self._current_ctx, self.participants)

    def _activate_root(self) -> None:
        assert self._host is not None
        self._root = self._root_factory()
        self._host.activate(self._root_name, self._root, self._on_root_done)

    def on_message(self, ctx: NodeContext, message: Message) -> None:
        self._current_ctx = ctx
        if self._host is not None and self._host.dispatch(ctx, message):
            return
        self.on_other_message(ctx, message)

    def on_other_message(self, ctx: NodeContext, message: Message) -> None:
        """Hook for non-block traffic (e.g. bid submissions); default: ignore."""

    def close(self) -> None:
        """Close the block host and drop the context and the root factory.

        The root block and the output stay, so :attr:`degraded` and
        ``output`` read as before.  The factory goes because it may be a
        bound method of this node (the bid-collecting provider's).
        """
        if self._host is not None:
            self._host.close()
        self._current_ctx = None
        self._root_factory = None

    # -- completion ----------------------------------------------------------------
    def _on_root_done(self, block: ProtocolBlock) -> None:
        self.finish(block.result)
