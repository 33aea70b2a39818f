"""Regenerate Figure 4 (running time of the double auction) as a text table.

Equivalent to ``repro-auction sweep --spec examples/specs/fig4.json``: the
experiment is a built-in sweep spec (``figure4_sweep``) executed through the
scenario layer's sweep engine, so both entry points share one code path.  Use
``--quick`` for a reduced sweep.

Run with::

    python examples/experiment_fig4.py [--quick]
"""

import argparse

from repro.scenarios import figure4_sweep, render_records, render_series, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced user sweep")
    args = parser.parse_args()

    n_values = (100, 300, 600) if args.quick else (100, 200, 400, 600, 800, 1000)
    sweep = figure4_sweep(n_values=n_values, k_values=(1, 2, 3), seed=42)
    result = run_sweep(sweep)

    print("Figure 4 — double auction running time (model seconds) vs number of users")
    print("Series: centralised vs distributed with m=8 sellers, k in {1,2,3} "
          "(3/5/7 providers executing)\n")
    print(render_series(result.records))
    print()
    print(render_records(result.name, result.records))


if __name__ == "__main__":
    main()
