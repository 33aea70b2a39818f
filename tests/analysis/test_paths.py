"""The taint-path policy table: classification drives which rules apply where."""

import pytest

from repro.analysis.paths import classify_path


class TestDeterministicPaths:
    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/auctions/base.py",
            "src/repro/net/scheduler.py",
            "src/repro/consensus/commitment.py",
            "src/repro/gametheory/resilience.py",
            "src/repro/scenarios/sweep.py",
            "src/repro/obs/trace.py",  # sim-time-only tracing is on the surface
            "src/repro/auctions/engine/kernel.py",  # nested packages inherit
            "/abs/checkout/src/repro/net/network.py",  # absolute paths classify too
        ],
    )
    def test_deterministic(self, path):
        assert classify_path(path).deterministic

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/scenarios/dispatch.py",  # the documented exemption
            "src/repro/core/framework.py",
            "src/repro/runtime/auction_run.py",
            "src/repro/adversary/coalition.py",
            "src/repro/cli.py",
            "tests/net/test_network.py",  # tests are not under repro/
        ],
    )
    def test_not_deterministic(self, path):
        assert not classify_path(path).deterministic


class TestBenchmarks:
    def test_display_path_is_posix(self):
        assert classify_path("src\\repro\\net\\x.py").display_path == "src/repro/net/x.py"
