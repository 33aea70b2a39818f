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
            "src/repro/core/framework.py",  # the protocol's building blocks
            "src/repro/core/bid_agreement.py",
            "src/repro/core/allocator.py",
            "src/repro/core/common_coin.py",
            "src/repro/core/task_graph.py",
            "src/repro/runtime/auction_run.py",
            "src/repro/community/workload.py",
            "src/repro/adversary/coalition.py",
        ],
    )
    def test_deterministic(self, path):
        assert classify_path(path).deterministic

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/scenarios/dispatch.py",  # the documented exemption
            "src/repro/analysis/rules.py",
            "src/repro/cli.py",
            "tests/net/test_network.py",  # tests are not under repro/
        ],
    )
    def test_not_deterministic(self, path):
        assert not classify_path(path).deterministic


class TestBenchmarks:
    def test_display_path_is_posix(self):
        assert classify_path("src\\repro\\net\\x.py").display_path == "src/repro/net/x.py"
