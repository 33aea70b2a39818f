"""Tests for outcome combination (Definition 1) and framework configuration."""

import pytest

from repro.auctions.base import Allocation, AuctionResult, Payments
from repro.auctions.double_auction import DoubleAuction
from repro.auctions.vcg import ExactVCGAuction
from repro.common import ABORT, AbortType, is_abort, stable_hash
from repro.core.config import ConfigError, FrameworkConfig
from repro.core.outcome import Outcome, combine_outputs


def make_result(payment=1.0):
    return AuctionResult(
        Allocation.from_dict({("u0", "p0"): 0.5}),
        Payments.from_dicts({"u0": payment}, {"p0": payment}),
    )


class TestAbortSentinel:
    def test_singleton_and_equality(self):
        assert AbortType() is ABORT
        assert ABORT == AbortType()
        assert not ABORT
        assert is_abort(ABORT)
        assert not is_abort(None)
        assert not is_abort(0)

    def test_stable_hash_is_deterministic(self):
        assert stable_hash("a", 1) == stable_hash("a", 1)
        assert stable_hash("a", 1) != stable_hash("a", 2)


class TestCombineOutputs:
    def test_unanimous_valid_result(self):
        result = make_result()
        assert combine_outputs({"p0": result, "p1": result}) == result

    def test_any_abort_gives_abort(self):
        result = make_result()
        assert is_abort(combine_outputs({"p0": result, "p1": ABORT}))

    def test_missing_output_gives_abort(self):
        result = make_result()
        assert is_abort(combine_outputs({"p0": result, "p1": None}))

    def test_disagreement_gives_abort(self):
        assert is_abort(combine_outputs({"p0": make_result(1.0), "p1": make_result(2.0)}))

    def test_empty_gives_abort(self):
        assert is_abort(combine_outputs({}))

    def test_non_result_values_give_abort(self):
        assert is_abort(combine_outputs({"p0": "garbage", "p1": "garbage"}))


class TestOutcome:
    def test_from_provider_outputs(self):
        result = make_result()
        outcome = Outcome.from_provider_outputs({"p0": result, "p1": result}, elapsed_time=1.5)
        assert not outcome.aborted
        assert outcome.auction_result == result
        assert outcome.elapsed_time == pytest.approx(1.5)

    def test_auction_result_raises_on_abort(self):
        outcome = Outcome.from_provider_outputs({"p0": ABORT})
        assert outcome.aborted
        with pytest.raises(ValueError):
            outcome.auction_result


class TestFrameworkConfig:
    def test_defaults_are_valid(self):
        config = FrameworkConfig()
        assert config.k == 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FrameworkConfig(k=-1)
        with pytest.raises(ValueError):
            FrameworkConfig(num_groups=0)

    def test_quorum_check(self):
        FrameworkConfig(k=1).check(3, DoubleAuction())
        with pytest.raises(ValueError):
            FrameworkConfig(k=1).check(2, DoubleAuction())

    @pytest.mark.parametrize(
        "config, m, algorithm, field",
        [
            (FrameworkConfig(k=2), 4, DoubleAuction(), "k"),
            (FrameworkConfig(k=1, parallel=True, num_groups=3), 5, ExactVCGAuction(), "num_groups"),
            (FrameworkConfig(k=1, parallel=True), 5, DoubleAuction(), "parallel"),
            # Decomposability is judged first, then m > 2k, then the group bound.
            (FrameworkConfig(k=3, parallel=True, num_groups=9), 4, DoubleAuction(), "parallel"),
            (FrameworkConfig(k=3, parallel=True, num_groups=9), 4, ExactVCGAuction(), "k"),
        ],
    )
    def test_one_check_names_the_field_at_fault(self, config, m, algorithm, field):
        with pytest.raises(ConfigError) as refused:
            config.check(m, algorithm)
        assert refused.value.field == field
        assert isinstance(refused.value, ValueError)
        assert str(refused.value) == refused.value.args[1]

    def test_the_group_bound_binds_only_the_parallel_allocator(self):
        FrameworkConfig(k=1, num_groups=9).check(3, ExactVCGAuction())
        FrameworkConfig(k=1, parallel=True, num_groups=2).check(5, ExactVCGAuction())

    def test_max_parallelism(self):
        assert FrameworkConfig(k=1).max_parallelism(8) == 4
        assert FrameworkConfig(k=3).max_parallelism(8) == 2
        assert FrameworkConfig(k=7).max_parallelism(8) == 1
