"""Tests for canonical encoding and size estimation."""

import copy
import hashlib
import pickle

import pytest

from repro.auctions.base import ProviderAsk, UserBid
from repro.common import ABORT
from repro.net.serialization import (
    DIGEST_SIZE,
    Digest,
    FrozenMap,
    UnsupportedPayloadError,
    _deep_immutable,
    canonical_encode,
    digest_or_self,
    estimate_size,
)


class TestCanonicalEncode:
    def test_scalars_round_trip_deterministically(self):
        for value in [None, True, False, 0, -17, 2**80, 0.25, -1.5, "hello", b"\x00\x01"]:
            assert canonical_encode(value) == canonical_encode(value)

    def test_distinguishes_unequal_values_only(self):
        # The contract is value-based: payloads that compare equal must encode
        # equal (structural comparison across providers uses ==, under which
        # True == 1 == 1.0), while unequal values must encode differently.
        assert canonical_encode(1) == canonical_encode(1.0)
        assert canonical_encode(True) == canonical_encode(1)
        assert canonical_encode(0.0) == canonical_encode(-0.0)
        assert canonical_encode("1") != canonical_encode(1)
        assert canonical_encode(b"a") != canonical_encode("a")
        assert canonical_encode(2**64 + 1) != canonical_encode(2.0**64)

    def test_dict_insertion_order_irrelevant(self):
        a = {"x": 1, "y": 2, "z": [3, 4]}
        b = {"z": [3, 4], "y": 2, "x": 1}
        assert canonical_encode(a) == canonical_encode(b)

    def test_different_dicts_differ(self):
        assert canonical_encode({"x": 1}) != canonical_encode({"x": 2})
        assert canonical_encode({"x": 1}) != canonical_encode({"y": 1})

    def test_nested_structures(self):
        value = {"users": [("u1", 0.5), ("u2", 1.0)], "meta": {"k": 2}}
        assert canonical_encode(value) == canonical_encode(dict(reversed(list(value.items()))))

    def test_sets_are_order_insensitive(self):
        assert canonical_encode({3, 1, 2}) == canonical_encode({2, 3, 1})

    def test_dataclass_encoding_includes_type_name(self):
        bid = UserBid("u1", 1.0, 0.5)
        ask = ProviderAsk("u1", 1.0, 0.5)
        assert canonical_encode(bid) != canonical_encode(ask)
        assert canonical_encode(bid) == canonical_encode(UserBid("u1", 1.0, 0.5))

    def test_dataclass_field_changes_change_encoding(self):
        assert canonical_encode(UserBid("u1", 1.0, 0.5)) != canonical_encode(
            UserBid("u1", 1.0, 0.6)
        )

    def test_unsupported_type_raises(self):
        with pytest.raises(UnsupportedPayloadError):
            canonical_encode(object())

    def test_list_vs_tuple_equivalent(self):
        assert canonical_encode([1, 2]) == canonical_encode((1, 2))


class TestEstimateSize:
    def test_scalars_have_small_positive_size(self):
        for value in [None, True, 3, 0.5, "abc", b"xyz"]:
            assert estimate_size(value) > 0

    def test_larger_payloads_have_larger_size(self):
        small = [UserBid(f"u{i}", 1.0, 0.5) for i in range(5)]
        large = [UserBid(f"u{i}", 1.0, 0.5) for i in range(50)]
        assert estimate_size(large) > estimate_size(small)

    def test_string_size_scales_with_length(self):
        assert estimate_size("a" * 100) > estimate_size("a" * 10)

    def test_unsupported_types_do_not_raise(self):
        assert estimate_size(object()) > 0


BATCH = FrozenMap({f"user:u{i}": UserBid(f"u{i}", 1.0 + i, 0.5) for i in range(20)})


class TestDigest:
    @pytest.mark.parametrize(
        "value",
        [None, 7, "x" * 1000, [1, 2], {"a": [1]}, BATCH],
        ids=["none", "int", "long-str", "list", "dict", "batch"],
    )
    def test_sized_as_32_raw_bytes_whatever_it_stands_for(self, value):
        assert DIGEST_SIZE == estimate_size(bytes(32)) == 36
        assert estimate_size(Digest(value)) == DIGEST_SIZE

    def test_encoded_as_the_sha256_of_the_value(self):
        encoded = canonical_encode(Digest(BATCH))
        assert encoded == canonical_encode(hashlib.sha256(canonical_encode(BATCH)).digest())
        assert encoded == canonical_encode(Digest(dict(BATCH)))
        assert encoded != canonical_encode(Digest({**BATCH, "user:u0": None}))
        assert len(encoded) == DIGEST_SIZE + 1  # one tag byte

    def test_immutable_exactly_when_its_value_is(self):
        assert _deep_immutable(Digest(BATCH))
        assert not _deep_immutable(Digest({"a": 1}))

    def test_digests_compare_as_their_values_do(self):
        assert Digest(BATCH) == Digest(BATCH)
        assert Digest(BATCH) == Digest(dict(BATCH))  # an equal rebuilt batch
        assert Digest(BATCH) != Digest({**BATCH, "user:u0": None})
        assert Digest(BATCH) != BATCH
        assert FrozenMap({"p0": Digest(BATCH)}) == {"p0": Digest(dict(BATCH))}
        assert FrozenMap({"p0": Digest(BATCH)}) != {"p0": BATCH}

    def test_a_value_no_larger_than_a_digest_stands_for_itself(self):
        assert digest_or_self(BATCH) == Digest(BATCH) and type(digest_or_self(BATCH)) is Digest
        small = "x" * (DIGEST_SIZE - 4)  # a string's length prefix is 4 bytes
        assert estimate_size(small) == DIGEST_SIZE
        assert digest_or_self(small) is small
        assert digest_or_self(ABORT) is ABORT

    def test_holds_its_value_by_reference(self):
        assert Digest(BATCH)[0] is BATCH
        assert len(Digest(BATCH)) == 1
        assert repr(Digest(1)) == "Digest(1)"

    @pytest.mark.parametrize(
        "round_trip",
        [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_and_pickles_to_an_equal_digest(self, round_trip):
        digest = Digest({"x": [1, 2]})
        again = round_trip(digest)
        assert type(again) is Digest
        assert again == digest
        assert again[0] == {"x": [1, 2]}
        assert canonical_encode(again) == canonical_encode(digest)
