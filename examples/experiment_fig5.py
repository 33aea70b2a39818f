"""Regenerate Figure 5 (running time of the standard auction) as a text table.

Equivalent to ``repro-auction sweep --spec examples/specs/fig5.toml``: the
experiment is a built-in sweep spec (``figure5_sweep``) executed through the
scenario layer's sweep engine, so both entry points share one code path.  Use
``--quick`` for a reduced sweep.

Run with::

    python examples/experiment_fig5.py [--quick]
"""

import argparse

from repro.scenarios import figure5_sweep, render_records, render_series, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced user sweep")
    parser.add_argument("--epsilon", type=float, default=0.25, help="accuracy/effort knob")
    args = parser.parse_args()

    n_values = (25, 50, 75) if args.quick else (25, 50, 75, 100, 125)
    sweep = figure5_sweep(
        n_values=n_values, p_values=(1, 2, 4), epsilon=args.epsilon, seed=42
    )
    result = run_sweep(sweep)

    print("Figure 5 — standard auction running time (model seconds) vs number of users")
    print("Series: p=1 (centralised), p=2 (k=3), p=4 (k=1), with m=8 providers\n")
    print(render_series(result.records))
    print()
    print(render_records(result.name, result.records))


if __name__ == "__main__":
    main()
