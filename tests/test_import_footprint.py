"""Which work loads NumPy: a lock, counted in ``sys.modules`` and never timed.

Only four things import NumPy: a vectorized standard-auction solve
(``auctions.engine.kernel``), a results summary and a metric histogram
(``scenarios.aggregate``), and a columnar journal (``scenarios.columnar``).
Importing the package or the CLI, and a double-auction round through any
runner, sweep, chaos audit or ``repro-auction run`` that does none of those
four, never does — it would add ~90 modules and ~12 MiB to every such
process.  Each case runs in a fresh
interpreter, since this test process has long since imported NumPy.  The
controls assert that NumPy is absent *before* their step and present after
it, so the lock cannot pass by never seeing NumPy at all.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _double(runner: str = "distributed") -> str:
    """A small double-auction spec, as source text."""
    return (
        f"ScenarioSpec(users=12, providers=5, config={{'k': 1}}, runner={runner!r},"
        " measure_compute=False)"
    )


def _numpy_loaded(tmp_path, setup: str, step: str):
    """Run ``setup`` then ``step`` in a fresh interpreter.

    Returns ``[before, after]``: whether NumPy was loaded before ``step``
    and after it.
    """
    script = textwrap.dedent(
        """
        import json, sys
        from repro.scenarios import (
            ChaosSpec, ResultsStore, ScenarioSpec, SweepSpec,
            figure4_sweep, run_chaos, run_scenario, run_sweep,
        )
        {setup}
        before = "numpy" in sys.modules
        {step}
        print(json.dumps([before, "numpy" in sys.modules]))
        """
    ).format(setup=setup, step=step)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "step",
    [
        pytest.param("import repro, repro.net, repro.obs", id="import"),
        pytest.param("import repro.cli; repro.cli.build_parser()", id="cli-parser"),
        pytest.param(
            "import repro.cli; repro.cli.main(['run', '--set', 'users=12',"
            " '--set', 'providers=5', '--set', 'measure_compute=false'])",
            id="cli-double-run",
        ),
        pytest.param(f"run_scenario({_double()})", id="double-distributed"),
        pytest.param(f"run_scenario({_double('centralized')})", id="double-centralized"),
        pytest.param(f"run_scenario({_double('auction_run')})", id="double-auction_run"),
        pytest.param(
            "run_sweep(figure4_sweep(num_providers=5, k_values=(1,), n_values=(10,)),"
            " store='fig4.jsonl')",
            id="figure4-sweep-into-jsonl",
        ),
        pytest.param(
            f"run_chaos(ChaosSpec(base={_double()}, faults=['loss'], seeds=[0]))",
            id="double-chaos",
        ),
    ],
)
def test_double_auction_work_never_imports_numpy(tmp_path, step):
    assert _numpy_loaded(tmp_path, "", step) == [False, False]


@pytest.mark.parametrize(
    "setup, step",
    [
        pytest.param(
            "",
            "run_scenario(ScenarioSpec(mechanism='standard', users=8, providers=4,"
            " measure_compute=False))",
            id="standard-vectorized",
        ),
        pytest.param(
            f"run_sweep(SweepSpec(base={_double()}), store='r.jsonl')",
            "ResultsStore('r.jsonl').summary()",
            id="summary",
        ),
        pytest.param(
            "",
            f"run_sweep(SweepSpec(base={_double()}), store='r.rcol', store_format='columnar')",
            id="columnar-journal",
        ),
        pytest.param(
            "from repro.obs import observe",
            f"with observe(metrics=True):\n    run_scenario({_double()})",
            id="metrics-histogram",
        ),
    ],
)
def test_numpy_backed_work_imports_numpy(tmp_path, setup, step):
    assert _numpy_loaded(tmp_path, setup, step) == [False, True]
