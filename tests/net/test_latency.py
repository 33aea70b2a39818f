"""Tests for latency models."""

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.latency import (
    BandwidthLatencyModel,
    ConstantLatencyModel,
    LanWanLatencyModel,
    LatencyModel,
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


@dataclass
class DelayOnlyModel(LatencyModel):
    """A model that defines ``delay`` alone: ``probe`` falls back to a size-0 call."""

    seconds: float = 0.001

    def delay(self, sender, recipient, size_bytes, rng):
        return self.seconds + rng.random() * 1e-3 + size_bytes * 1e-9


def _reference_delay(model, sender, recipient, size_bytes, rng):
    """Every built-in model's delay as written with ``rng.uniform`` before the inlining."""
    if isinstance(model, LanWanLatencyModel):
        sender_site = model.site_of.get(sender, f"__solo__{sender}")
        recipient_site = model.site_of.get(recipient, f"__solo__{recipient}")
        tier = model.lan if sender_site == recipient_site else model.wan
        return _reference_delay(tier, sender, recipient, size_bytes, rng)
    if isinstance(model, UniformLatencyModel):
        return rng.uniform(model.low, model.high)
    if isinstance(model, BandwidthLatencyModel):
        noise = rng.uniform(0.0, model.jitter) if model.jitter > 0 else 0.0
        return model.base + size_bytes / model.bandwidth_bytes_per_s + noise
    # Zero, Constant and the delay-only subclass: the model's own method.
    return model.delay(sender, recipient, size_bytes, rng)


_seconds = st.floats(0.0, 0.05, allow_nan=False)


@st.composite
def _uniform(draw):
    low, high = sorted((draw(_seconds), draw(_seconds)))
    return UniformLatencyModel(low=low, high=high)


def _bandwidth(jitter):
    return st.builds(
        BandwidthLatencyModel,
        base=_seconds,
        bandwidth_bytes_per_s=st.floats(1e3, 1e9),
        jitter=jitter,
    )


_tiers = st.one_of(
    st.builds(ZeroLatencyModel),
    st.builds(ConstantLatencyModel, seconds=_seconds),
    st.builds(DelayOnlyModel, seconds=_seconds),
    _uniform(),
    _bandwidth(st.just(0.0)),
    _bandwidth(st.floats(1e-6, 0.01)),
)
# "a" and "b" share a site, "c" is on another and "x" is on its own (solo) site.
_models = st.one_of(
    _tiers,
    st.builds(
        LanWanLatencyModel,
        site_of=st.just({"a": "s1", "b": "s1", "c": "s2"}),
        lan=_tiers,
        wan=_tiers,
    ),
)
_nodes = st.sampled_from(["a", "b", "c", "x"])


class TestProbe:
    """``probe`` draws what the discarded size-0 ``delay`` drew, and ``delay`` is unchanged."""

    @settings(derandomize=True, max_examples=150)
    @given(model=_models, sender=_nodes, recipient=_nodes, seed=st.integers(0, 2**32))
    def test_probe_draws_what_a_size_zero_delay_draws(self, model, sender, recipient, seed):
        probed, delayed = random.Random(seed), random.Random(seed)
        assert model.probe(sender, recipient, probed) is None
        model.delay(sender, recipient, 0, delayed)
        assert probed.getstate() == delayed.getstate()

    @settings(derandomize=True, max_examples=150)
    @given(
        model=_models,
        sender=_nodes,
        recipient=_nodes,
        size=st.integers(0, 10**7),
        seed=st.integers(0, 2**32),
    )
    def test_delay_is_the_rng_uniform_formula_to_the_bit(
        self, model, sender, recipient, size, seed
    ):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for size_bytes in (0, size):  # the probe's size, then the sized call
            delay = model.delay(sender, recipient, size_bytes, rng)
            reference = _reference_delay(model, sender, recipient, size_bytes, reference_rng)
            assert delay.hex() == float(reference).hex()
        assert rng.getstate() == reference_rng.getstate()

    def test_a_subclass_that_redefines_delay_probes_with_it(self):
        calls = []

        # A subclass of a built-in that draws nothing in its own probe.
        class Recording(ConstantLatencyModel):
            def delay(self, sender, recipient, size_bytes, rng):
                calls.append((sender, recipient, size_bytes))
                return rng.random()

        rng = random.Random(0)
        Recording().probe("a", "b", rng)
        assert calls == [("a", "b", 0)]
        assert rng.getstate() != random.Random(0).getstate()
