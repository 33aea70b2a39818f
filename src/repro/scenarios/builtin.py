"""Built-in sweep specs: the paper's Figure 4 and Figure 5 experiments as data.

These builders produce pure-data :class:`~repro.scenarios.spec.SweepSpec`
objects; :func:`~repro.scenarios.sweep.run_sweep` executes them like any other
sweep.  Their defaults are shipped as ``examples/specs/fig4.json`` and
``examples/specs/fig5.toml`` (equality locked by
``tests/scenarios/test_differential.py``), so
``repro-auction sweep --spec examples/specs/fig4.json`` regenerates Figure 4.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.scenarios.spec import ComponentSpec, ScenarioSpec, SpecError, SweepSpec

__all__ = ["figure4_sweep", "figure5_sweep"]


def figure4_sweep(
    num_providers: int = 8,
    k_values: Sequence[int] = (1, 2, 3),
    n_values: Sequence[int] = (100, 200, 400, 600, 800, 1000),
    seed: int = 0,
) -> SweepSpec:
    """Figure 4 (§6.2): double-auction running time, centralised vs k ∈ {1,2,3}.

    The distributed points run the protocol on the minimum ``2k+1`` executors
    out of the ``num_providers`` sellers, exactly as the paper's evaluation.
    """
    base = ScenarioSpec(
        name="fig4",
        mechanism=ComponentSpec("double"),
        providers=num_providers,
        latency=ComponentSpec("wan"),
        seed=seed,
    )
    points: List[Dict[str, object]] = []
    for n in n_values:
        points.append({"users": n, "runner": "centralized", "series": "centralised"})
        for k in k_values:
            executors = 2 * k + 1
            if executors > num_providers:
                raise SpecError(
                    "axes.k",
                    f"k={k} needs {executors} providers, have {num_providers}",
                )
            points.append(
                {
                    "users": n,
                    "config.k": k,
                    "executors": executors,
                    "series": f"distributed k={k}",
                }
            )
    return SweepSpec(base=base, name="fig4", points=tuple(points))


def figure5_sweep(
    num_providers: int = 8,
    p_values: Sequence[int] = (1, 2, 4),
    n_values: Sequence[int] = (25, 50, 75, 100, 125),
    epsilon: float = 0.25,
    seed: int = 0,
) -> SweepSpec:
    """Figure 5 (§6.3): standard-auction running time for parallelism p ∈ {1,2,4}.

    ``p = 1`` is the centralised baseline; ``p > 1`` runs the parallel
    allocator over all providers with ``k = ⌊m/p⌋ - 1``.
    """
    base = ScenarioSpec(
        name="fig5",
        mechanism=ComponentSpec("standard", {"epsilon": epsilon}),
        providers=num_providers,
        latency=ComponentSpec("wan"),
        seed=seed,
    )
    points: List[Dict[str, object]] = []
    for n in n_values:
        for p in p_values:
            if p < 1 or p > num_providers:
                raise SpecError(
                    "axes.parallelism", f"parallelism must be in [1, {num_providers}]"
                )
            if p <= 1:
                points.append(
                    {"users": n, "runner": "centralized", "series": "p=1 (centralised)"}
                )
            else:
                k = num_providers // p - 1
                points.append(
                    {
                        "users": n,
                        "config.k": k,
                        "config.parallel": True,
                        "config.num_groups": p,
                        "series": f"p={p} (distributed, k={k})",
                    }
                )
    return SweepSpec(base=base, name="fig5", points=tuple(points))
