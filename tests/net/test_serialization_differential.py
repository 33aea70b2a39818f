"""Differential suite: the compiled wire codec against the recursive walkers.

``tests/net/serialization_reference.py`` is the pre-codec implementation.  The
compiled codec must produce byte-identical encodings and equal sizes for every
payload tree — commitments, ``bytes_transferred`` and every journal digest rest
on that — and its instance memos must never answer for a value that changed.
"""

import copy
import enum
import pickle
from dataclasses import dataclass
from typing import Any, NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.net import serialization_reference as reference

from repro.auctions.base import BidVector, ProviderAsk, UserBid
from repro.net.serialization import (
    FrozenMap,
    UnsupportedPayloadError,
    canonical_encode,
    deep_immutable,
    estimate_size,
)

SIZE_MEMO = "_repro_wire_size"
BYTES_MEMO = "_repro_wire_bytes"


# -- payload classes ---------------------------------------------------------------
@dataclass(frozen=True)
class Frozen:
    zeta: Any
    a: Any
    longer_name: Any = None
    é: Any = 0  # non-ASCII field name: two UTF-8 bytes, sorts by encoded key


@dataclass
class Mutable:
    left: Any
    right: Any


@dataclass(frozen=True, slots=True)
class Slotted:
    first: Any
    second: Any


class FrozenChild(Frozen):
    """Undecorated subclass: inherits the fields, encodes under its own name."""


@dataclass
class TaggedDict(dict):
    """A dataclass that is also a dict: the builtin category wins."""

    tag: str = "t"


class Money(float):
    pass


class Count(int):
    pass


class Label(str):
    pass


class Blob(bytes):
    pass


class Row(list):
    pass


class Table(dict):
    pass


class Pair(NamedTuple):
    x: Any
    y: Any


class Colour(enum.IntEnum):
    RED = 1
    HUGE = 2**70 + 1


class Opaque:
    """Not plain data: unsupported by the encoder, sized by its repr."""

    def __repr__(self) -> str:
        return "<opaque>"


# -- strategies ----------------------------------------------------------------------
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, float("nan"), float("inf"), 2.0**64]),
)
integers = st.one_of(
    st.integers(min_value=-(2**90), max_value=2**90),
    st.sampled_from([0, 1, -1, 2**53, 2**53 + 1, 2**64 + 1, 2**80, -(2**80)]),
    st.builds(pow, st.just(10), st.just(400)),  # beyond the largest double
)
text = st.one_of(st.text(max_size=12), st.sampled_from(["", "u001", "é", "日本語", "a\x00b"]))
hashable_scalars = st.one_of(
    st.none(),
    st.booleans(),
    integers,
    floats,
    text,
    st.binary(max_size=12),
    floats.map(Money),
    integers.map(Count),
    text.map(Label),
    st.binary(max_size=6).map(Blob),
    st.sampled_from(list(Colour)),
)
scalars = st.one_of(
    hashable_scalars,
    st.binary(max_size=12).map(bytearray),
    st.builds(Opaque),
)
hashables = st.recursive(
    hashable_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(children, max_size=3),
        st.builds(Frozen, children, children),
        st.builds(Slotted, children, children),
        st.builds(Pair, children, children),
    ),
    max_leaves=6,
)
payloads = st.recursive(
    st.one_of(scalars, hashables),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Row),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
        st.dictionaries(hashables, children, max_size=4),
        st.dictionaries(text, children, max_size=4),
        st.dictionaries(text, children, max_size=4).map(Table),
        st.builds(Frozen, children, children, children, children),
        st.builds(FrozenChild, children, children),
        st.builds(Mutable, children, children),
        st.builds(Slotted, children, children),
        st.builds(Pair, children, children),
    ),
    max_leaves=25,
)


def encoded(encode, value):
    """The encoding, or the refusal — both sides must agree on which."""
    try:
        return encode(value)
    except UnsupportedPayloadError as error:
        return ("unsupported", str(error))


def assert_matches_reference(value) -> None:
    # Twice, sizes and bytes interleaved: the second round answers from
    # whatever the first one memoised on the instances.
    for _ in range(2):
        size = estimate_size(value)
        assert type(size) is int
        assert size == reference.estimate_size(value)
        assert encoded(canonical_encode, value) == encoded(reference.canonical_encode, value)


class TestAgainstRecursiveWalkers:
    @given(payloads)
    @settings(max_examples=400)
    def test_generated_payload_trees(self, value):
        assert_matches_reference(value)

    @given(payloads)
    @settings(max_examples=200)
    def test_deep_immutable_is_the_walkers_gate(self, value):
        # Twice: the second answer may come from a size memo the first one kept.
        for _ in range(2):
            assert deep_immutable(value) is reference._estimate(value)[1]

    @given(payloads)
    @settings(max_examples=100)
    def test_encode_before_size(self, value):
        first = encoded(canonical_encode, value)
        assert first == encoded(reference.canonical_encode, value)
        assert_matches_reference(value)

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param(-0.0, id="negative-zero"),
            pytest.param(2**80, id="int-beyond-64-bits"),
            pytest.param(float("nan"), id="nan"),
            pytest.param(True, id="bool"),
            pytest.param(Colour.HUGE, id="enum"),
            pytest.param(Money(-0.0), id="float-subclass"),
            pytest.param("日本語", id="non-ascii-str"),
            pytest.param(bytearray(b"ab"), id="bytearray"),
            pytest.param(
                {1: "int key", "1": "str key", b"1": "bytes key", 1.5: None},
                id="dict-mixed-keys",
            ),
            pytest.param({float("nan"): 1, Money("nan"): 2}, id="dict-nan-keys"),
            # Explicit ids throughout: a set's repr follows PYTHONHASHSEED.
            pytest.param({frozenset({1, 2}), (1, 2), "x"}, id="set-mixed"),
            pytest.param(TaggedDict(tag="ignored"), id="dict-subclass"),
            pytest.param(Pair(1, [2]), id="namedtuple"),
            pytest.param(Frozen, id="dataclass-type"),  # the class itself is not plain data
            pytest.param(
                Frozen(zeta=(Slotted(1, "é"),), a={"k": Mutable([1], {2})}),
                id="frozen-dataclass-nested",
            ),
            pytest.param(FrozenChild(1, 2), id="frozen-dataclass-subclass"),
            pytest.param([Opaque(), 1], id="opaque-object"),
        ],
    )
    def test_named_cases(self, value):
        assert_matches_reference(value)

    def test_protocol_payloads(self):
        bids = BidVector(
            tuple(UserBid(f"u{i:03d}", 0.5 + i, 1.0 / (i + 1)) for i in range(40)),
            tuple(ProviderAsk(f"p{i:02d}", 0.1 * i, 3.0) for i in range(4)),
        )
        echo = {p.provider_id: {u.user_id: u for u in bids.users} for p in bids.providers}
        for value in (bids, echo, ("bid-agreement/echo", echo)):
            assert_matches_reference(value)

    def test_subclass_met_after_its_base(self):
        class Late(int):
            pass

        assert canonical_encode(7) == canonical_encode(Late(7))
        assert_matches_reference([Late(2**70), Late(3)])


class TestMemoSafety:
    def test_flat_frozen_record_memoises_size_and_bytes(self):
        bid = UserBid("u1", 1.5, 0.25)
        fresh = (reference.estimate_size(bid), reference.canonical_encode(bid))
        assert (estimate_size(bid), canonical_encode(bid)) == fresh
        assert vars(bid)[SIZE_MEMO] == fresh[0]
        assert vars(bid)[BYTES_MEMO] == fresh[1]
        assert (estimate_size(bid), canonical_encode(bid)) == fresh
        assert bid == UserBid("u1", 1.5, 0.25)  # memos are not fields

    def test_bytes_are_memoised_on_flat_records_only(self):
        bids = BidVector((UserBid("u1", 1.0, 1.0),), (ProviderAsk("p1", 0.5, 2.0),))
        assert_matches_reference(bids)
        assert SIZE_MEMO in vars(bids)
        assert BYTES_MEMO not in vars(bids)
        assert BYTES_MEMO in vars(bids.users[0])

    def test_frozen_dataclass_holding_a_growing_dict_is_walked_again(self):
        holder = Frozen(zeta={"a": 1}, a=2)
        size, data = estimate_size(holder), canonical_encode(holder)
        holder.zeta["b"] = 5
        assert estimate_size(holder) > size
        assert canonical_encode(holder) != data
        assert_matches_reference(holder)
        assert SIZE_MEMO not in vars(holder) and BYTES_MEMO not in vars(holder)

    def test_mutable_value_deep_inside_frozen_layers(self):
        inner = [1]
        holder = Frozen(zeta=(Frozen(zeta=frozenset({(1, 2)}), a=(inner,)),), a="x")
        size, data = estimate_size(holder), canonical_encode(holder)
        inner.append(2**80)
        assert estimate_size(holder) > size
        assert canonical_encode(holder) != data
        assert_matches_reference(holder)
        assert SIZE_MEMO not in vars(holder) and SIZE_MEMO not in vars(holder.zeta[0])

    def test_bytearray_is_mutable_bytes_are_not(self):
        buffer = bytearray(b"ab")
        holder = Frozen(zeta=(buffer,), a=b"ab")
        size = estimate_size(holder)
        buffer.extend(b"cdef")
        assert estimate_size(holder) == size + 4
        assert_matches_reference(holder)
        assert SIZE_MEMO not in vars(holder)
        sealed = Frozen(zeta=(b"ab",), a=b"ab")
        estimate_size(sealed)
        assert SIZE_MEMO in vars(sealed)

    def test_non_frozen_dataclass_is_never_memoised(self):
        record = Mutable(1, "x")
        size, data = estimate_size(record), canonical_encode(record)
        record.right = "a longer string"
        assert estimate_size(record) > size
        assert canonical_encode(record) != data
        assert_matches_reference(record)
        assert not vars(record).keys() & {SIZE_MEMO, BYTES_MEMO}

    def test_slots_without_room_for_a_memo(self):
        record = Slotted(1, ("a", 2.5))
        assert_matches_reference(record)
        assert_matches_reference(Frozen(zeta=record, a=record))

    @pytest.mark.parametrize("proxy", [mock.Mock(), mock.MagicMock()], ids=["Mock", "MagicMock"])
    def test_permissive_getattr_cannot_pose_as_a_size_memo(self, proxy):
        """A proxy answers ``getattr(_, '_repro_wire_size')`` with a non-integer.

        Read before the type dispatch, that poisoned the enclosing dataclass's
        memo; the memo is only ever read off a dataclass instance.
        """
        size = estimate_size(proxy)
        assert type(size) is int and size == len(repr(proxy))
        holder = Frozen(zeta=proxy, a=1)
        for _ in range(2):
            size = estimate_size(holder)
            assert type(size) is int
        assert SIZE_MEMO not in vars(holder)
        with pytest.raises(UnsupportedPayloadError):
            canonical_encode(holder)

    def test_unsupported_payload_still_raises(self):
        with pytest.raises(UnsupportedPayloadError, match="'Opaque'"):
            canonical_encode({"k": (1, Opaque())})

    @given(payloads)
    @settings(max_examples=100)
    def test_estimate_size_never_raises(self, value):
        assert estimate_size([Opaque(), value, object]) > 0


class TestFrozenMap:
    """On the wire a frozen map is the dict it was built from."""

    @given(st.one_of(st.dictionaries(hashables, payloads, max_size=4), st.dictionaries(text, payloads)))
    @settings(max_examples=100)
    def test_bytes_and_size_of_the_dict_it_replaces(self, mapping):
        frozen = FrozenMap(mapping)
        assert frozen == mapping and mapping == frozen
        for value in (frozen, (frozen, "tag"), Frozen(zeta=frozen, a=(frozen,))):
            assert_matches_reference(value)
        for _ in range(2):  # the second round answers from the memo, if one was kept
            assert estimate_size(frozen) == reference.estimate_size(mapping)
            assert encoded(canonical_encode, frozen) == encoded(reference.canonical_encode, mapping)

    def test_size_is_memoised_behind_the_immutability_gate(self):
        sealed = FrozenMap({"bid": UserBid("u1", 1.0, 2.0), "none": None, "nested": FrozenMap(a=1)})
        assert estimate_size(sealed) == reference.estimate_size(dict(sealed))
        assert getattr(sealed, SIZE_MEMO) == estimate_size(sealed)
        holder = Frozen(zeta=sealed, a=1)
        estimate_size(holder)
        assert SIZE_MEMO in vars(holder)  # a sealed map is a deep-immutable field

    def test_frozen_map_holding_a_list_is_measured_again(self):
        grows = [1]
        for leaky in (FrozenMap({"k": grows}), FrozenMap({"k": (FrozenMap({"deep": grows}),)})):
            size = estimate_size(leaky)
            grows.append(2**80)
            assert estimate_size(leaky) > size
            assert_matches_reference(leaky)
            assert not hasattr(leaky, SIZE_MEMO)
            holder = Frozen(zeta=leaky, a=1)
            estimate_size(holder)
            assert SIZE_MEMO not in vars(holder)

    def test_mutable_key_object_is_not_memoised(self):
        leaky = FrozenMap({Opaque(): 1})  # hashable by identity, sized by its repr
        assert_matches_reference(leaky)
        assert not hasattr(leaky, SIZE_MEMO)

    def test_subclass_is_measured_as_a_plain_dict(self):
        class Thawed(FrozenMap):
            __setitem__ = dict.__setitem__

        thawed = Thawed({"a": 1})
        size = estimate_size(thawed)
        thawed["b"] = 2
        assert estimate_size(thawed) > size
        assert_matches_reference(thawed)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m.__setitem__("a", 2),
            lambda m: m.__delitem__("a"),
            lambda m: m.update({"b": 1}),
            lambda m: m.update(b=1),
            lambda m: m.__ior__({"b": 1}),
            lambda m: m.pop("a"),
            lambda m: m.pop("missing", None),
            lambda m: m.popitem(),
            lambda m: m.setdefault("a", 3),
            lambda m: m.setdefault("b"),
            lambda m: m.clear(),
        ],
    )
    def test_every_mutator_raises(self, mutate):
        frozen = FrozenMap({"a": 1})
        with pytest.raises(TypeError, match="FrozenMap"):
            mutate(frozen)
        assert frozen == {"a": 1}

    @pytest.mark.parametrize(
        "reinit",
        [lambda m: m.__init__({"b": 2}), lambda m: m.__init__(b=2), lambda m: m.__init__([("a", 3)])],
    )
    @pytest.mark.parametrize("contents", [{"a": 1}, {}])
    def test_a_second_init_changes_nothing(self, contents, reinit):
        """Built in ``__new__`` like a tuple: re-initialising cannot refill it."""
        frozen = FrozenMap(contents)
        size = estimate_size(frozen)
        reinit(frozen)
        assert frozen == contents
        assert estimate_size(frozen) == size == reference.estimate_size(contents)

    def test_in_place_operators_raise(self):
        frozen = alias = FrozenMap({"a": 1})
        with pytest.raises(TypeError):
            frozen |= {"b": 2}
        with pytest.raises(TypeError):
            frozen["b"] = 2
        with pytest.raises(TypeError):
            del frozen["a"]
        assert alias == {"a": 1}
        assert frozen | {"b": 2} == {"a": 1, "b": 2}  # a new plain dict, not a mutation

    def test_equal_to_a_plain_dict_both_ways(self):
        frozen, plain = FrozenMap({"a": (1, 2), "b": None}), {"b": None, "a": (1, 2)}
        assert frozen == plain and plain == frozen
        assert not frozen != plain and not plain != frozen
        assert frozen != {"a": (1, 2)} and {"a": (1, 2)} != frozen
        assert FrozenMap(plain) == frozen

    @pytest.mark.parametrize(
        "roundtrip",
        [copy.copy, copy.deepcopy]
        + [
            lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ],
    )
    def test_copies_and_pickles_to_an_equal_frozen_map(self, roundtrip):
        """The default protocol of a dict subclass rebuilds through ``__setitem__``."""
        frozen = FrozenMap({"batch": FrozenMap({"user:u1": UserBid("u1", 1.0, 2.0)}), "k": [1]})
        estimate_size(frozen["batch"])  # a memo must not travel, or block the trip
        clone = roundtrip(frozen)
        assert type(clone) is FrozenMap and type(clone["batch"]) is FrozenMap
        assert clone == frozen and clone is not frozen
        assert estimate_size(clone) == estimate_size(frozen)
        with pytest.raises(TypeError):
            clone["x"] = 1
