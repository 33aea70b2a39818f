"""Tests for the common-coin target distributions."""

import pytest

from repro.core.distributions import SeedDistribution, UniformDistribution


class TestUniform:
    def test_transform_bounds(self):
        dist = UniformDistribution(2.0, 4.0)
        assert dist.transform(0.0) == pytest.approx(2.0)
        assert dist.transform(0.5) == pytest.approx(3.0)
        assert dist.transform(0.999999) < 4.0

    def test_rejects_out_of_range_sample(self):
        with pytest.raises(ValueError):
            UniformDistribution().transform(1.0)
        with pytest.raises(ValueError):
            UniformDistribution().transform(-0.1)


class TestSeed:
    def test_range(self):
        dist = SeedDistribution(bits=8)
        assert dist.transform(0.0) == 0
        assert dist.transform(0.999999) == 255

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            SeedDistribution(bits=0)
        with pytest.raises(ValueError):
            SeedDistribution(bits=64)
