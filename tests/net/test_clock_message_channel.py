"""Tests for virtual clocks, messages and reliable channels."""

import copy
import pickle

import pytest

from repro.net.clock import VirtualClock
from repro.net.message import Message

from tests.net.seed_reference import ReliableChannel


class TestVirtualClock:
    def test_advance_to_is_monotone(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        clock.advance_to(0.5)
        assert clock.now == pytest.approx(1.0)

    def test_charge_accumulates_busy_time(self):
        clock = VirtualClock()
        clock.charge(0.2)
        clock.charge(0.3)
        assert clock.now == pytest.approx(0.5)
        assert clock.busy == pytest.approx(0.5)

    def test_charge_negative_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().charge(-0.1)

    def test_copy_is_independent(self):
        clock = VirtualClock()
        clock.charge(1.0)
        other = clock.copy()
        other.charge(1.0)
        assert clock.now == pytest.approx(1.0)
        assert other.now == pytest.approx(2.0)


class TestMessage:
    def test_create_estimates_size(self):
        message = Message.create("a", "b", {"data": "x" * 100}, tag="t")
        assert message.size_bytes > 100

    def test_message_ids_are_unique_and_increasing(self):
        first = Message.create("a", "b", 1)
        second = Message.create("a", "b", 2)
        assert second.msg_id > first.msg_id

    def test_timer_detection(self):
        timer = Message.create("a", "a", None, tag="__timer__/deadline")
        regular = Message.create("a", "b", None, tag="x")
        assert timer.is_timer()
        assert not regular.is_timer()

    FIELDS = dict(
        sender="a",
        recipient="b",
        payload=("bid", 1.5),
        tag="blk|x",
        send_time=0.5,
        arrival_time=0.75,
        size_bytes=12,
        msg_id=7,
        origin=3,
    )

    def test_fields_are_todays_in_todays_order(self):
        assert Message._fields == tuple(self.FIELDS)
        message = Message(**self.FIELDS)
        assert message == Message(*self.FIELDS.values())
        assert [getattr(message, name) for name in Message._fields] == list(
            self.FIELDS.values()
        )

    def test_no_field_can_be_assigned(self):
        message = Message(**self.FIELDS)
        for name in Message._fields:
            with pytest.raises(AttributeError):
                setattr(message, name, "changed")
        with pytest.raises(AttributeError):
            message.extra = 1  # no instance dict either
        assert message == Message(**self.FIELDS)

    def test_equal_fields_compare_and_hash_equal(self):
        message = Message(**self.FIELDS)
        twin = Message(**self.FIELDS)
        assert message is not twin
        assert message == twin and hash(message) == hash(twin)
        assert len({message, twin}) == 1
        for name in Message._fields:
            assert message._replace(**{name: "changed"}) != message

    def test_pickle_and_deepcopy_round_trip(self):
        message = Message(**self.FIELDS)
        clones = [copy.deepcopy(message), copy.copy(message)] + [
            pickle.loads(pickle.dumps(message, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for clone in clones:
            assert type(clone) is Message
            assert clone == message
            assert clone.is_timer() is False

    def test_default_msg_id_draws_from_the_process_global_counter(self):
        first = Message("a", "b", 1)
        second = Message.create("a", "b", 2)
        third = Message(sender="a", recipient="b", payload=3, tag="t")
        assert (second.msg_id, third.msg_id) == (first.msg_id + 1, first.msg_id + 2)
        assert first.origin is None and first.tag == "" and first.size_bytes == 0
        # An explicit id — what a network passes — leaves the counter alone.
        assert Message("a", "b", 4, msg_id=0).msg_id == 0
        assert Message("a", "b", 5).msg_id == first.msg_id + 3


class TestReliableChannel:
    def test_push_pop_roundtrip(self):
        channel = ReliableChannel("a", "b")
        message = Message.create("a", "b", "hello")
        channel.push(message)
        assert len(channel) == 1
        popped = channel.pop(message.msg_id)
        assert popped.payload == "hello"
        assert len(channel) == 0
        assert channel.delivered_count == 1

    def test_push_wrong_endpoints_rejected(self):
        channel = ReliableChannel("a", "b")
        with pytest.raises(ValueError):
            channel.push(Message.create("a", "c", "oops"))

    def test_pop_unknown_id_raises(self):
        channel = ReliableChannel("a", "b")
        with pytest.raises(KeyError):
            channel.pop(12345)

    def test_earliest_undelivered(self):
        channel = ReliableChannel("a", "b")
        assert channel.earliest_undelivered() is None
        first = Message.create("a", "b", 1, send_time=1.0)
        second = Message.create("a", "b", 2, send_time=0.5)
        channel.push(first)
        channel.push(second)
        assert channel.earliest_undelivered() is second
