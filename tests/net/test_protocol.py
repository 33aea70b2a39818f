"""Tests for protocol-block composition (BlockHost, BlockContext, ProtocolNode)."""

import pytest

from tests.conftest import run_block_network

from repro.net.message import Message
from repro.net.network import SimNetwork
from repro.net.protocol import BlockContext, BlockHost, ProtocolBlock, ProtocolNode
from repro.net.scheduler import RandomScheduler


class GatherBlock(ProtocolBlock):
    """Broadcasts a value and completes with the sorted set of all values seen."""

    def __init__(self, name, value):
        super().__init__(name)
        self.value = value
        self._seen = {}

    def on_start(self, ctx):
        self._seen[ctx.node_id] = self.value
        ctx.broadcast(self.value, subtag="v")
        self._check(ctx)

    def on_message(self, ctx, sender, subtag, payload):
        self._seen[sender] = payload
        self._check(ctx)

    def _check(self, ctx):
        if set(self._seen) == set(ctx.participants):
            self.complete(tuple(sorted(self._seen.values())))


class ParentBlock(ProtocolBlock):
    """Spawns two children in sequence and completes with both results."""

    def __init__(self, name, value):
        super().__init__(name)
        self.value = value
        self._ctx = None
        self._first = None

    def on_start(self, ctx):
        self._ctx = ctx
        ctx.spawn("first", GatherBlock("first", self.value), self._on_first)

    def on_message(self, ctx, sender, subtag, payload):
        pass

    def _on_first(self, block):
        self._first = block.result
        self._ctx.spawn("second", GatherBlock("second", self.value * 10), self._on_second)

    def _on_second(self, block):
        self.complete((self._first, block.result))


class TestBlockBasics:
    def test_complete_is_first_write_wins(self):
        block = GatherBlock("g", 1)
        block.complete("a")
        block.complete("b")
        assert block.result == "a"

    def test_result_before_completion_raises(self):
        with pytest.raises(RuntimeError):
            GatherBlock("g", 1).result


class TestSingleBlock:
    def test_gather_block_collects_all_values(self):
        outputs = run_block_network(["a", "b", "c"], lambda nid: GatherBlock("root", nid))
        assert outputs == {
            "a": ("a", "b", "c"),
            "b": ("a", "b", "c"),
            "c": ("a", "b", "c"),
        }

    def test_gather_under_random_schedule(self):
        outputs = run_block_network(
            ["a", "b", "c", "d"],
            lambda nid: GatherBlock("root", nid),
            scheduler=RandomScheduler(),
            seed=5,
        )
        assert all(v == ("a", "b", "c", "d") for v in outputs.values())


class TestComposition:
    def test_chained_children_complete_parent(self):
        outputs = run_block_network(["a", "b", "c"], lambda nid: ParentBlock("root", 1))
        assert all(v == ((1, 1, 1), (10, 10, 10)) for v in outputs.values())

    def test_messages_for_future_blocks_are_buffered(self):
        # Node "a" activates the second child only after the first one completes;
        # traffic from faster peers must not be lost in the meantime.  The chained
        # parent exercises exactly that path; the assertion is simply completion.
        outputs = run_block_network(["a", "b"], lambda nid: ParentBlock("root", 2))
        assert all(v == ((2, 2), (20, 20)) for v in outputs.values())

    def test_duplicate_block_path_rejected(self):
        host = BlockHost(lambda: None, ["a"])

        class Trivial(ProtocolBlock):
            def on_start(self, ctx):
                pass

            def on_message(self, ctx, sender, subtag, payload):
                pass

        # Activation calls on_start with a context built from the provider above;
        # the trivial block never touches it, so None is fine here.
        host.activate("x", Trivial("x"), lambda block: None)
        with pytest.raises(ValueError):
            host.activate("x", Trivial("x"), lambda block: None)


class TestProtocolNode:
    def test_non_block_traffic_goes_to_hook(self):
        received = []

        class NeverBlock(ProtocolBlock):
            """A root block that never completes, so non-block traffic is observable."""

            def on_start(self, ctx):
                pass

            def on_message(self, ctx, sender, subtag, payload):
                pass

        class Observer(ProtocolNode):
            def on_other_message(self, ctx, message):
                received.append(message.payload)
                self.finish("observed")

        class Pinger(ProtocolNode):
            def on_start(self, ctx):
                super().on_start(ctx)
                ctx.send("obs", "hello", tag="plain")
                self.finish("sent")

        net = SimNetwork()
        ids = ["ping", "obs"]
        net.add_node(Pinger("ping", ids, "root", lambda: NeverBlock("root")))
        net.add_node(Observer("obs", ids, "root", lambda: NeverBlock("root")))
        net.run()
        assert received == ["hello"]
        assert net.node("obs").output == "observed"


class ScriptedBlock(ProtocolBlock):
    """Does what the test tells it to: ``script(block, ctx, event)`` runs on every
    handler call, where ``event`` is ``("start",)``, ``("message", sender,
    subtag, payload)`` or ``("timer", subtag)``.  Every event is logged."""

    def __init__(self, name, script=None):
        super().__init__(name)
        self.script = script or (lambda block, ctx, event: None)
        self.events = []

    def _handle(self, ctx, event):
        self.events.append(event)
        self.script(self, ctx, event)

    def on_start(self, ctx):
        self._handle(ctx, ("start",))

    def on_message(self, ctx, sender, subtag, payload):
        self._handle(ctx, ("message", sender, subtag, payload))

    def on_timer(self, ctx, subtag):
        self._handle(ctx, ("timer", subtag))


def complete_with_payload(block, ctx, event):
    """Script: the first message completes the block with its payload."""
    if event[0] == "message":
        block.complete(event[3])


def block_message(path, subtag="m", payload=None, sender="peer"):
    return Message(sender, "me", payload, tag=f"{path}|{subtag}")


def timer_message(path, subtag="tick"):
    return Message("me", "me", None, tag=f"__timer__/{path}|{subtag}")


class TestBlockHostFinalisation:
    """Order and counts of ``on_done`` — the host is driven by hand, no network."""

    def setup_method(self):
        self.host = BlockHost(lambda: None, ["me", "peer"])
        self.finalised = []

    def _on_done(self, block):
        self.finalised.append(block.name)

    def test_siblings_completing_in_one_handler_fire_in_activation_order(self):
        first, second = ScriptedBlock("first"), ScriptedBlock("second")

        def finish_both(block, ctx, event):
            if event[0] == "start":
                ctx.spawn("first", first, self._on_done)
                ctx.spawn("second", second, self._on_done)
            else:  # completion order is the reverse of activation order
                second.complete(2)
                first.complete(1)

        self.host.activate("root", ScriptedBlock("root", finish_both), self._on_done)
        assert self.host.dispatch(None, block_message("root"))
        assert self.finalised == ["first", "second"]
        assert self.host.active_paths == ["root"]

    def test_parent_completing_in_its_childs_on_done_is_finalised_in_the_same_dispatch(self):
        root = ScriptedBlock("root")

        def child_done(block):
            self._on_done(block)
            root.complete(("root saw", block.result))

        def spawn_child(block, ctx, event):
            if event[0] == "start":
                ctx.spawn("child", ScriptedBlock("child", complete_with_payload), child_done)

        root.script = spawn_child
        self.host.activate("root", root, self._on_done)
        assert self.host.dispatch(None, block_message("root/child", payload=7))
        assert self.finalised == ["child", "root"]
        assert root.result == ("root saw", 7)
        assert self.host.active_paths == []

    @pytest.mark.parametrize("completes", ["before activation", "in on_start"])
    def test_activate_finalises_a_block_that_is_complete_by_the_end_of_on_start(self, completes):
        def complete_in_on_start(block, ctx, event):
            block.complete("late")

        if completes == "in on_start":
            block = ScriptedBlock("x", complete_in_on_start)
        else:
            block = ScriptedBlock("x")
            block.complete("early")
        assert self.host.dispatch(None, block_message("x"))  # buffered: not active yet
        self.host.activate("x", block, self._on_done)
        assert self.finalised == ["x"]
        assert not self.host.is_active("x")
        assert block.events == [("start",)]  # the buffered message was dropped, not replayed

    def test_traffic_and_timers_for_a_completed_path_are_swallowed(self):
        block = ScriptedBlock("x", complete_with_payload)
        self.host.activate("x", block, self._on_done)
        assert self.host.dispatch(None, block_message("x", payload="first"))
        assert self.finalised == ["x"]
        seen = list(block.events)
        assert self.host.dispatch(None, block_message("x", payload="straggler"))
        assert self.host.dispatch(None, timer_message("x"))
        assert block.events == seen
        assert self.finalised == ["x"]
        with pytest.raises(ValueError):  # and the path stays taken
            self.host.activate("x", ScriptedBlock("x"), self._on_done)

    def test_a_dispatch_that_completes_nothing_reads_done_on_no_block(self):
        reads = []

        class CountingBlock(ScriptedBlock):
            @property
            def done(self):
                reads.append(self.name)
                return super().done

        def finish_on_request(block, ctx, event):
            if event[0] == "message" and event[3] == "finish":
                block.complete("finished")

        for name in ("a", "b", "c"):
            self.host.activate(name, CountingBlock(name, finish_on_request), self._on_done)
        del reads[:]  # activation may look; a quiet dispatch may not
        assert self.host.dispatch(None, block_message("b", payload="carry on"))
        assert self.host.dispatch(None, timer_message("c"))
        assert self.host.dispatch(None, block_message("not-yet-active"))
        assert reads == [] and self.finalised == []
        # ...and a completion is still found: the sweep runs when told to.
        assert self.host.dispatch(None, block_message("b", payload="finish"))
        assert self.finalised == ["b"] and reads
        assert self.host.active_paths == ["a", "c"]


def degrade_on_timer(block, ctx, event):
    """Script: a timer closes a round on a partial view; a message completes the block."""
    if event[0] == "timer":
        block.degraded = True
    complete_with_payload(block, ctx, event)


class TestDegradedFlag:
    """The host ORs a finished child's ``degraded`` into the block that spawned it."""

    def setup_method(self):
        self.host = BlockHost(lambda: None, ["me", "peer"])

    def test_a_childs_flag_reaches_its_spawner_before_on_done(self):
        root = ScriptedBlock("root")
        at_on_done = []

        def spawn_child(block, ctx, event):
            if event[0] == "start":
                ctx.spawn(
                    "child",
                    ScriptedBlock("child", degrade_on_timer),
                    lambda child: at_on_done.append(root.degraded),
                )

        root.script = spawn_child
        self.host.activate("root", root, lambda block: None)
        assert self.host.dispatch(None, timer_message("root/child"))
        assert not root.degraded  # the child is still running
        assert self.host.dispatch(None, block_message("root/child", payload="done"))
        assert at_on_done == [True]
        assert root.degraded

    def test_a_slashed_child_name_reaches_its_spawner_and_never_a_sibling(self):
        # Per-bit agreement names a child ``user:u0001/bit003``: its path reads
        # like a grandchild of a ``user:u0001`` block that does not exist.
        root, agreement = ScriptedBlock("root"), ScriptedBlock("ba")
        bits = {
            name: ScriptedBlock(name, degrade_on_timer)
            for name in ("user:u0001/bit003", "user:u0001/bit004")
        }

        def spawn_agreement(block, ctx, event):
            if event[0] == "start":
                ctx.spawn("ba", agreement, lambda block: None)

        def spawn_bits(block, ctx, event):
            if event[0] == "start":
                for name, bit in bits.items():
                    ctx.spawn(name, bit, bit_done)

        def bit_done(bit):
            if all(b.done for b in bits.values()):
                agreement.complete("agreed")

        root.script, agreement.script = spawn_agreement, spawn_bits
        self.host.activate("root", root, lambda block: None)
        assert self.host.dispatch(None, timer_message("root/ba/user:u0001/bit003"))
        assert self.host.dispatch(None, block_message("root/ba/user:u0001/bit003", payload=1))
        assert agreement.degraded
        assert not bits["user:u0001/bit004"].degraded
        assert not root.degraded  # the agreement has not finished yet
        assert self.host.dispatch(None, block_message("root/ba/user:u0001/bit004", payload=0))
        assert not bits["user:u0001/bit004"].degraded
        assert root.degraded

    def test_a_restarted_protocol_node_reads_false_until_its_new_root_degrades(self):
        node = ProtocolNode(
            "me", ["me", "peer"], "root", lambda: ScriptedBlock("root", degrade_on_timer)
        )
        node.on_start(None)
        assert not node.degraded
        node.on_message(None, timer_message("root"))
        assert node.degraded
        node.on_start(None)  # a crash restart: fresh host, fresh root
        assert not node.degraded
        node.on_message(None, timer_message("root"))
        assert node.degraded
