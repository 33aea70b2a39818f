"""A round's record is a function of that round alone, not of the cells around it.

Honest rounds share work: one bid vector per sweep instance, one agreement
batch, agreed vector and validation digest per vector, ``A``'s result per
vector, and a process-wide pivot-solve memo (DESIGN.md, "What honest
providers share").  None of that may show in a record.  On every shipped
spec file, at its own sizes, the records keyed by (point, instance) are
byte-identical whether the grid runs

* forward, as shipped;
* with its points reversed;
* one point at a time, each a one-point grid after ``clear_solve_cache()``
  (and so in a fresh component cache);
* twice in one process, the second time on warm memos.

An audit grid's cell run alone, on a fresh context and a cold memo, equals
that cell in the full grid.  Counted, never timed: the comparison is of
bytes, so a host's speed cannot enter it.
"""

import json
import pathlib

import pytest

from repro.auctions.engine import clear_solve_cache
from repro.scenarios import (
    ChaosSpec,
    ResilienceSpec,
    SweepSpec,
    load_any,
    load_spec,
    run_chaos,
    run_resilience,
    run_sweep,
)
from repro.scenarios.chaos import CHAOS_GRID
from repro.scenarios.resilience import RESILIENCE_GRID

SPECS = pathlib.Path(__file__).resolve().parents[2] / "examples" / "specs"

SWEEPS = ["fig4_quick.json", "fig5.toml", "vr_sweep.toml", "vr_sessions.toml"]


def _shipped(name):
    """The shipped file as a sweep (a scenario file is a one-point sweep)."""
    loaded = load_any(SPECS / name)
    return loaded if isinstance(loaded, SweepSpec) else SweepSpec(base=loaded, name=loaded.name)


def _keyed(sweep, point_ids):
    """``run_sweep(sweep)``'s records as bytes, keyed by (original point, instance).

    ``point_ids[p]`` is the shipped index of the sweep's point ``p``.
    """
    rounds = [spec.rounds for spec in sweep.scenarios()]
    cells = sorted((p, i) for p, count in enumerate(rounds) for i in range(count))
    records = run_sweep(sweep).records
    assert len(records) == len(cells)
    return {
        (point_ids[p], i): json.dumps(record.to_dict())
        for (p, i), record in zip(cells, records)
    }


@pytest.mark.parametrize("name", SWEEPS)
def test_a_sweep_record_does_not_depend_on_the_cells_around_it(name):
    sweep = _shipped(name)
    points = sweep.expand()
    ids = list(range(len(points)))

    clear_solve_cache()
    forward = _keyed(sweep, ids)
    assert forward

    def grid(*chosen):
        return SweepSpec(base=sweep.base, name=sweep.name, points=chosen)

    assert _keyed(grid(*reversed(points)), ids[::-1]) == forward

    alone = {}
    for index, point in enumerate(points):
        clear_solve_cache()
        alone.update(_keyed(grid(point), [index]))
    assert alone == forward

    # Twice in one process: the second run reads every memo the first left warm.
    assert _keyed(sweep, ids) == forward


AUDITS = [
    pytest.param("chaos.toml", ChaosSpec, CHAOS_GRID, run_chaos, id="chaos"),
    pytest.param(
        "resilience.json", ResilienceSpec, RESILIENCE_GRID, run_resilience, id="resilience"
    ),
]


@pytest.mark.parametrize("name, kind, grid, run", AUDITS)
def test_an_audit_cell_alone_equals_that_cell_in_the_full_grid(name, kind, grid, run):
    spec = load_spec(SPECS / name, kind)
    clear_solve_cache()
    full = run(spec).records
    context = grid.context(spec)
    try:
        cells = sorted(context.run_order())
    finally:
        context.close()
    assert len(cells) == len(full) > 1

    for cell, in_grid in zip(cells, full):
        clear_solve_cache()
        context = grid.context(spec)
        try:
            alone = context.run_cell(*cell)
        finally:
            context.close()
        assert json.dumps(alone.to_dict()) == json.dumps(in_grid.to_dict()), cell
