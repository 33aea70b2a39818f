"""Tests for latency models."""

import random

import pytest

from repro.net.latency import (
    BandwidthLatencyModel,
    ConstantLatencyModel,
    LanWanLatencyModel,
    UniformLatencyModel,
    ZeroLatencyModel,
)


@pytest.fixture
def rng():
    return random.Random(7)


class TestBasicModels:
    def test_zero_latency(self, rng):
        assert ZeroLatencyModel().delay("a", "b", 1000, rng) == 0.0

    def test_constant_latency(self, rng):
        model = ConstantLatencyModel(seconds=0.01)
        assert model.delay("a", "b", 0, rng) == pytest.approx(0.01)
        assert model.delay("a", "b", 10**6, rng) == pytest.approx(0.01)

    def test_uniform_latency_within_bounds(self, rng):
        model = UniformLatencyModel(low=0.001, high=0.005)
        for _ in range(100):
            delay = model.delay("a", "b", 0, rng)
            assert 0.001 <= delay <= 0.005

    def test_uniform_latency_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatencyModel(low=0.01, high=0.001)

    def test_local_delay_is_zero(self):
        assert ConstantLatencyModel(0.5).local_delay() == 0.0


class TestBandwidthModel:
    def test_size_increases_delay(self, rng):
        model = BandwidthLatencyModel(base=0.001, bandwidth_bytes_per_s=1e6, jitter=0.0)
        small = model.delay("a", "b", 100, rng)
        large = model.delay("a", "b", 100_000, rng)
        assert large > small
        assert small == pytest.approx(0.001 + 100 / 1e6)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BandwidthLatencyModel(base=-1)
        with pytest.raises(ValueError):
            BandwidthLatencyModel(bandwidth_bytes_per_s=0)


class TestLanWanModel:
    def test_same_site_uses_lan(self, rng):
        model = LanWanLatencyModel(
            site_of={"a": "s1", "b": "s1", "c": "s2"},
            lan=ConstantLatencyModel(0.0001),
            wan=ConstantLatencyModel(0.01),
        )
        assert model.delay("a", "b", 0, rng) == pytest.approx(0.0001)
        assert model.delay("a", "c", 0, rng) == pytest.approx(0.01)

    def test_unknown_nodes_treated_as_remote(self, rng):
        model = LanWanLatencyModel(
            site_of={},
            lan=ConstantLatencyModel(0.0001),
            wan=ConstantLatencyModel(0.02),
        )
        assert model.delay("x", "y", 0, rng) == pytest.approx(0.02)

    # The delay the model computed before the solo-site labels became lazy: both
    # f-string fallbacks built on every call.  Kept as the reference the lazy
    # lookup must match value for value and draw for draw.
    @staticmethod
    def _eager_delay(model, sender, recipient, size_bytes, rng):
        sender_site = model.site_of.get(sender, f"__solo__{sender}")
        recipient_site = model.site_of.get(recipient, f"__solo__{recipient}")
        tier = model.lan if sender_site == recipient_site else model.wan
        return tier.delay(sender, recipient, size_bytes, rng)

    @pytest.mark.parametrize(
        "sender, recipient, tier",
        [
            ("a", "b", "lan"),  # both mapped, same site
            ("a", "c", "wan"),  # both mapped, different sites
            ("a", "x", "wan"),  # recipient unmapped
            ("x", "c", "wan"),  # sender unmapped
            ("x", "y", "wan"),  # both unmapped: each on its own site
            ("x", "x", "lan"),  # the same unmapped node on both ends
            ("x", "d", "lan"),  # a mapped label that spells x's solo site
        ],
    )
    def test_lazy_site_lookup_matches_the_eager_one(self, sender, recipient, tier):
        # Jittered tiers with disjoint ranges: the value names the tier, and
        # the generator state afterwards counts the draws.
        model = LanWanLatencyModel(
            site_of={"a": "s1", "b": "s1", "c": "s2", "d": "__solo__x"},
            lan=UniformLatencyModel(0.0001, 0.0002),
            wan=BandwidthLatencyModel(base=0.01, bandwidth_bytes_per_s=1e6, jitter=0.001),
        )
        lazy_rng, eager_rng = random.Random(11), random.Random(11)
        for size in (0, 1500):  # the network's probe call, then the sized one
            delay = model.delay(sender, recipient, size, lazy_rng)
            assert delay == self._eager_delay(model, sender, recipient, size, eager_rng)
            assert (delay < 0.001) == (tier == "lan")
        assert lazy_rng.getstate() == eager_rng.getstate()
