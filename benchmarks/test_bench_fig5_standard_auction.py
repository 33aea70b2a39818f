"""Figure 5 — running time of the standard auction vs number of users (§6.3).

Series: p = 1 (centralised), p = 2 (distributed, k = 3) and p = 4 (distributed,
k = 1), with m = 8 providers.  The paper's qualitative findings that must hold:

* running time grows quickly with n (the allocation + per-user VCG payments are the
  dominant cost);
* for compute-dominated instances the distributed, parallelised execution is *faster*
  than the centralised one, and more parallelism (p = 4) beats less (p = 2);
* the communication overhead of the framework is negligible compared to the
  computation in this regime.

The user counts are smaller than Figure 4's because the mechanism is expensive —
exactly as in the paper.

The orderings of ``elapsed_seconds`` (the crossover, the growth with n) fold
*measured* compute into modelled time, so they are host wall-clock readings:
they are **recorded** in ``benchmark.extra_info``, **not asserted** — at n=100
the reference engine's p=2 beats p=1 by ~15 %, inside one slow episode of a
shared host.  What is asserted is deterministic: no abort, and the message
counts of each series.  A deterministic Figure-5 shape check (on a cost
account, not on measured compute) is the ROADMAP item "Paper claims as
deterministic checks", not this file.
"""

import pytest

from repro.auctions.engine import ENGINES, clear_solve_cache
from repro.scenarios import Simulation, figure5_sweep

#: Defense in depth next to the conftest auto-marker: the bench marker
#: must survive this file being run from outside the benchmarks rootdir.
pytestmark = pytest.mark.bench

N_VALUES = (25, 50, 75, 100, 125)
P_VALUES = (1, 2, 4)

#: engine -> ``(users, p)`` -> the grid point's scenario (``p = 1`` is centralised).
_POINTS = {
    engine: {
        (spec.users, spec.config.num_groups or 1): spec
        for spec in figure5_sweep(
            n_values=N_VALUES, p_values=P_VALUES, epsilon=0.25, engine=engine, seed=42
        ).scenarios()
    }
    for engine in ENGINES
}
_REFERENCE = _POINTS["reference"]


def run_point(spec):
    """One round of a grid point, closing the facade afterwards."""
    with Simulation(spec) as simulation:
        return simulation.run()


@pytest.mark.parametrize("num_users", N_VALUES)
@pytest.mark.parametrize("p", P_VALUES)
@pytest.mark.parametrize("engine", ENGINES)
def test_fig5_running_time(benchmark, engine, num_users, p):
    """Both engines, cold-cache per point, so their mean times compare honestly."""
    record = benchmark.pedantic(
        run_point,
        args=(_POINTS[engine][num_users, p],),
        setup=clear_solve_cache,
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["figure"] = "fig5"
    benchmark.extra_info["series"] = record.series
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["users"] = num_users
    benchmark.extra_info["model_seconds"] = record.elapsed_seconds
    benchmark.extra_info["messages"] = record.messages
    assert not record.aborted


def test_fig5_parallelisation_beats_centralised_at_scale(benchmark):
    """The crossover of Figure 5 (for large enough n, p=4 < p=2 < p=1), recorded."""
    n = 100
    central = benchmark.pedantic(
        run_point, args=(_REFERENCE[n, 1],), rounds=1, iterations=1
    )
    p2 = run_point(_REFERENCE[n, 2])
    p4 = run_point(_REFERENCE[n, 4])
    benchmark.extra_info["figure"] = "fig5"
    benchmark.extra_info["users"] = n
    benchmark.extra_info["model_seconds"] = {
        "p=1": central.elapsed_seconds, "p=2": p2.elapsed_seconds, "p=4": p4.elapsed_seconds
    }
    benchmark.extra_info["crossover_holds"] = (
        p4.elapsed_seconds < p2.elapsed_seconds < central.elapsed_seconds
    )
    # The paper reports roughly 4x for the fully parallel configuration at n=125.
    benchmark.extra_info["speedup_p4_over_p1"] = central.elapsed_seconds / p4.elapsed_seconds
    assert not (central.aborted or p2.aborted or p4.aborted)
    # p=1 is the trusted auctioneer (no protocol traffic); the distributed
    # series pay a message count that is a pure function of (n, k, p).
    assert central.messages == 0 < p2.messages < p4.messages


def test_fig5_running_time_grows_quickly_with_n(benchmark):
    """Growth of the centralised running time with n, recorded."""
    small = run_point(_REFERENCE[25, 1])
    large = benchmark.pedantic(
        run_point, args=(_REFERENCE[100, 1],), rounds=1, iterations=1
    )
    benchmark.extra_info["figure"] = "fig5"
    benchmark.extra_info["model_seconds"] = {
        "n=25": small.elapsed_seconds, "n=100": large.elapsed_seconds
    }
    benchmark.extra_info["growth_n100_over_n25"] = large.elapsed_seconds / small.elapsed_seconds
    assert not (small.aborted or large.aborted)
    assert small.messages == large.messages == 0
