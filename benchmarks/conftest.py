"""Shared configuration for the benchmark suite.

Every benchmark reports two times:

* the *wall-clock* time pytest-benchmark measures for running the whole simulation
  (useful to track the cost of the simulator itself), and
* the *modelled elapsed time* of the simulated execution (critical-path virtual time),
  stored in ``benchmark.extra_info["model_seconds"]`` — this is the quantity that
  corresponds to the y-axis of the paper's figures.

Neither is asserted: orderings of measured compute are recorded in
``extra_info``, and what a test asserts is deterministic (modelled time with
``measure_compute=false``, message counts, results).  Speed is judged with
``perf/run.py`` (see ``perf/README.md``), not here.
"""

import pathlib

import pytest

_BENCH_DIR = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Mark everything collected under benchmarks/ with the ``bench`` marker.

    ``pytest -m "not bench"`` then gives a fast dev loop, while the plain tier-1
    command still collects and runs the benchmarks unchanged.
    """
    for item in items:
        try:
            path = pathlib.Path(str(item.fspath)).resolve()
        except OSError:  # pragma: no cover - exotic collectors
            continue
        if _BENCH_DIR in path.parents:
            item.add_marker(pytest.mark.bench)

