"""Command-line interface, built on the declarative scenario API.

Seven sub-commands cover the common workflows::

    repro-auction run   --set users=100 --set providers=8 --set config.k=1
    repro-auction run   --spec scenario.toml --set users=200 --set config.k=2 --json
    repro-auction sweep --spec sweep.json --json
    repro-auction sweep --spec sweep.json --workers 4 --output results.jsonl
    repro-auction sweep --spec sweep.json --workers 4 --output results.jsonl --resume
    repro-auction sweep --spec sweep.json --output results.rcol --store-format columnar
    repro-auction sweep --spec examples/specs/fig4.json --series
    repro-auction sweep --spec examples/specs/fig5.toml --set engine=reference
    repro-auction sweep --spec scenario.toml --set rounds=20
    repro-auction resilience --spec resilience.json --workers 4 --output audit.jsonl
    repro-auction chaos --spec chaos.json --workers 4 --output chaos.jsonl
    repro-auction chaos --spec chaos.json --set recovery.max_retries=5 --json
    repro-auction results summarize results.rcol
    repro-auction results convert results.jsonl results.rcol
    repro-auction sweep --spec sweep.json --trace trace.jsonl --metrics metrics.json
    repro-auction trace trace.jsonl --format chrome > trace_chrome.json
    repro-auction metrics metrics.json

``run``, ``sweep``, ``resilience`` and ``chaos`` accept ``--trace FILE``
(journal sim-time spans to FILE as the run executes; ``.rcol`` picks the
columnar store format) and ``--metrics FILE`` (write the metrics-hub
snapshot as canonical JSON, with a one-line stderr summary) — the
observability plane of :mod:`repro.obs`.  ``trace`` exports a recorded
journal as Chrome-trace JSON (load it at https://ui.perfetto.dev) or an
indented text listing; ``metrics`` renders a snapshot back as a table.
Traces and metrics contain modelled time only, so they are byte-identical
across reruns and ``PYTHONHASHSEED`` values.

``results`` works on existing journals, whatever their format (the file is
sniffed, never declared): ``summarize`` streams a journal through the
constant-memory aggregation layer (:mod:`repro.scenarios.aggregate`) and
prints per-column count/mean/min/max/percentiles plus throughput totals
without ever materialising the record list; ``convert`` rewrites a journal
in the other :func:`~repro.scenarios.store.store_backends` format
(jsonl <-> columnar), preserving the manifest fingerprint so ``--resume``
continues a converted journal exactly where the original stopped.

``resilience`` audits the paper's headline claim (Definition 2, k-resilient
ex-post equilibrium): every coalition up to ``k`` runs every deviation of the
library under every schedule, against a memoised honest baseline; the exit
status is 0 when no deviation was profitable or outcome-altering.  It shares
the grid flags (``--workers``/``--output``/``--resume``) with ``sweep``.

``chaos`` audits the protocol under injected faults (:mod:`repro.net.faults`):
every fault model of the spec runs against every seed, and every cell checks
delivery conservation (``sent == delivered + dropped + lost``), termination,
bit-identical replay at the fixed seed and — for ``torn_append`` faults —
that a results journal torn mid-append repairs on resume.  Exit status is 0
only when every invariant held in every cell.  It shares the grid flags with
``sweep``.

``run`` executes one auction round and prints the outcome; ``sweep`` runs a
grid of scenarios from a spec file, ``rounds`` workload instances per grid
point with the engine state amortised across them.  A scenario file is a
one-point sweep, so ``sweep --spec scenario.toml --set rounds=20`` is the
batch run, and the paper's evaluation figures are the shipped sweep files
``examples/specs/fig4.json`` / ``fig5.toml``.

A scenario is defined by ``--spec FILE`` (a JSON or TOML scenario/sweep spec;
optional on ``run``, which starts from the :class:`ScenarioSpec` defaults) and
``--set key=value`` (dotted-path overrides, e.g. ``--set config.k=2`` or
``--set mechanism.epsilon=0.5``), applied in that order; the simulation
sub-commands accept ``--json`` (machine-readable output of the uniform
RunRecord schema).  The three grid commands print one ``--json`` shape,
the grid engine's result: ``{"kind", "name", "base", "clean", "records"}``;
``clean`` is the exit status (0 when true).  They additionally take
``--workers N`` (run grid points in an N-process pool, chunked to keep the
engine-state amortisation;
records stay in grid order and are identical to a sequential run on all
deterministic fields),
``--output FILE`` (append every record to a results journal as it completes),
``--store-format jsonl|columnar`` (the file format a fresh journal is written
in — jsonl is the greppable interchange default, columnar the typed NumPy
format built for huge grids; existing journals are sniffed, and a
contradicting ``--store-format`` is a spec error suggesting ``results
convert``) and ``--resume`` (skip rounds the journal already holds —
re-running an interrupted sweep executes only the missing grid points).
``--workers auto`` sizes the pool from the CPUs the process may actually use
(affinity-aware) and falls back to sequential execution on a single CPU; an
explicit ``--workers N`` larger than the available CPUs degrades to the
available count with a stderr warning instead of oversubscribing.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.scenarios.chaos import ChaosSpec, run_chaos
from repro.scenarios.grid import GridResult
from repro.scenarios.io import load_any, load_spec
from repro.scenarios.resilience import ResilienceSpec, run_resilience
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import (
    ScenarioSpec,
    SpecError,
    SweepSpec,
    parse_assignments,
    spec_with_overrides,
)
from repro.scenarios.store import STORE_FORMATS
from repro.scenarios.sweep import run_sweep

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-auction",
        description="Distributed auctioneer for resource allocation (ICDCS 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--workers",
            type=_workers_argument,
            default=None,
            metavar="N|auto",
            help="run grid points in a worker-process pool: an explicit count "
            "(degraded to the available CPUs with a warning if larger), or "
            "'auto' to size from the CPUs this process may use (chunked by "
            "configuration so engine state stays amortised; results are "
            "identical to a sequential run on all deterministic fields, in "
            "the same order)",
        )
        command.add_argument(
            "--output",
            metavar="FILE",
            help="append every record to this results journal as it "
            "completes (per round sequentially, per worker chunk under "
            "--workers); the journal doubles as the sweep artifact and as "
            "the checkpoint --resume continues from",
        )
        command.add_argument(
            "--store-format",
            choices=STORE_FORMATS,
            default=None,
            help="file format for a fresh --output journal: 'jsonl' (the "
            "greppable interchange default) or 'columnar' (typed NumPy "
            "chunks with streaming summaries, built for large grids); an "
            "existing journal's format is sniffed from the file, and a "
            "contradicting --store-format is an error suggesting "
            "'repro-auction results convert'",
        )
        command.add_argument(
            "--resume",
            action="store_true",
            help="skip grid rounds already journaled in --output FILE and run "
            "only the missing ones (the journal must belong to this sweep)",
        )

    def add_obs_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace",
            metavar="FILE",
            help="journal sim-time spans (rounds, deliveries, solves, faults) "
            "to this results-store file as the command runs; a .rcol path "
            "picks the columnar format, anything else jsonl — export with "
            "'repro-auction trace FILE'",
        )
        command.add_argument(
            "--metrics",
            dest="metrics_out",
            metavar="FILE",
            help="write the run's metrics snapshot (counters/gauges/"
            "histograms, canonical JSON) to this file and print a one-line "
            "summary on stderr — render with 'repro-auction metrics FILE'",
        )

    run = sub.add_parser("run", help="run one distributed auction round")
    run.add_argument(
        "--spec",
        metavar="FILE",
        help="scenario spec file (.json or .toml); default: the ScenarioSpec defaults",
    )
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted-path spec override (e.g. --set config.k=2); repeatable",
    )
    run.add_argument("--json", action="store_true", help="print machine-readable JSON records")
    add_obs_options(run)

    for name, kind in _GRID_COMMANDS.items():
        command = sub.add_parser(name, help=kind.help)
        command.add_argument("--spec", metavar="FILE", required=True, help=kind.spec_help)
        command.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help=kind.set_help,
        )
        if kind.series:
            command.add_argument("--series", action="store_true", help="print per-series summary")
        command.add_argument(
            "--json", action="store_true", help="print machine-readable JSON records"
        )
        add_grid_options(command)
        add_obs_options(command)

    results = sub.add_parser(
        "results",
        help="inspect or convert results journals (jsonl or columnar, sniffed)",
    )
    results_sub = results.add_subparsers(dest="results_command", required=True)
    summarize = results_sub.add_parser(
        "summarize",
        help="stream a journal into per-column count/mean/min/max/percentile "
        "and throughput summaries (constant memory: the record list is "
        "never materialised)",
    )
    summarize.add_argument(
        "journal", metavar="FILE", help="the results journal (jsonl or columnar)"
    )
    summarize.add_argument(
        "--json", action="store_true", help="print the summary as a JSON document"
    )
    convert = results_sub.add_parser(
        "convert",
        help="rewrite a journal in another store format; the manifest — "
        "fingerprint included — is preserved, so --resume continues the "
        "converted journal exactly where the original stopped",
    )
    convert.add_argument(
        "source", metavar="SOURCE", help="the journal to convert (format sniffed)"
    )
    convert.add_argument(
        "destination", metavar="DEST", help="fresh path for the converted journal"
    )
    convert.add_argument(
        "--to",
        choices=STORE_FORMATS,
        default=None,
        help="target format (default: the other one of jsonl/columnar)",
    )

    trace = sub.add_parser(
        "trace",
        help="export a recorded trace journal (jsonl or columnar, sniffed) "
        "as Chrome-trace JSON or a text listing",
    )
    trace.add_argument(
        "journal", metavar="FILE", help="the trace journal written by --trace"
    )
    trace.add_argument(
        "--format",
        choices=["chrome", "text"],
        default="chrome",
        help="'chrome' (default): Trace Event JSON loadable at "
        "https://ui.perfetto.dev or chrome://tracing; 'text': an indented "
        "one-line-per-span listing",
    )

    metrics = sub.add_parser(
        "metrics",
        help="render a metrics snapshot written by --metrics FILE",
    )
    metrics.add_argument(
        "snapshot", metavar="FILE", help="the snapshot JSON written by --metrics"
    )
    metrics.add_argument(
        "--json", action="store_true", help="re-print the snapshot as indented JSON"
    )

    return parser


def _workers_argument(value: str):
    """Parse ``--workers``: a positive integer or the literal ``auto``.

    Range/CPU validation happens in
    :func:`repro.scenarios.dispatch.resolve_workers`; this only decides the
    type so argparse produces a clean usage error for non-numeric garbage.
    """
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None


# -------------------------------------------------------------- spec construction --
def _build_scenario(args: argparse.Namespace) -> ScenarioSpec:
    """The scenario ``run`` executes: the spec file (or the defaults), then --set."""
    if args.spec is not None:
        spec = load_any(args.spec)
        if isinstance(spec, SweepSpec):
            raise SpecError(args.spec, "this file holds a sweep spec; use 'repro-auction sweep'")
    else:
        spec = ScenarioSpec(name="cli-run")
    return spec_with_overrides(spec, parse_assignments(args.overrides))


# ------------------------------------------------------------------- sub-commands --
def _observed(args: argparse.Namespace, name: str, body):
    """Run ``body()`` under an installed observation when --trace/--metrics ask.

    Without either flag this is a plain call — the observability plane stays
    completely uninstalled (the hooks' disabled mode).  With them, the
    observation wraps exactly the simulation work: the trace journal is
    closed and the metrics snapshot written even if ``body`` raises, so an
    aborted run still leaves inspectable artifacts.
    """
    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace and not metrics_out:
        return body()
    from repro.obs import observe

    with observe(trace=trace, name=name) as observation:
        try:
            return body()
        finally:
            if trace:
                print(
                    f"trace {trace}: {len(observation.tracer.spans)} spans",
                    file=sys.stderr,
                )
            if metrics_out:
                hub = observation.metrics
                with open(metrics_out, "w", encoding="utf-8") as handle:
                    handle.write(hub.snapshot_json() + "\n")
                print(f"{hub.summary_line()} -> {metrics_out}", file=sys.stderr)


def _command_run(args: argparse.Namespace) -> int:
    spec = _build_scenario(args)

    record = _observed(args, spec.name, lambda: run_scenario(spec))
    if args.json:
        import json

        print(json.dumps(record.to_dict(), indent=2))
        return 0
    config = spec.config
    print(f"mechanism       : {record.mechanism}")
    print(
        f"users/providers : {record.users}/{record.providers} "
        f"(k={config.k}, parallel={config.parallel})"
    )
    print(f"outcome         : {'ABORT' if record.aborted else 'agreed (x, p)'}")
    print(f"elapsed (model) : {record.elapsed_seconds:.4f} s")
    print(f"messages        : {record.messages}")
    print(f"bytes           : {record.bytes_transferred}")
    if not record.aborted:
        print(f"winning users   : {record.winners}")
        print(f"total paid      : {record.total_paid:.4f}")
        print(f"total received  : {record.total_received:.4f}")
    return 0


def _command_grid(args: argparse.Namespace) -> int:
    """``sweep`` / ``resilience`` / ``chaos``: one path, read off the kind's declaration."""
    kind = _GRID_COMMANDS[args.command]
    spec = kind.load(args.spec, parse_assignments(args.overrides))
    if args.resume and not args.output:
        raise SpecError("--resume", "resuming requires --output FILE (the journal to continue)")
    if args.store_format and not args.output:
        raise SpecError(
            "--store-format",
            "choosing a store format requires --output FILE (the journal to write)",
        )
    options: Dict[str, Any] = {
        "workers": args.workers,
        "store": args.output,
        "store_format": args.store_format,
        "resume": args.resume,
    }
    result = _observed(args, spec.name, lambda: kind.run(spec, **options))
    _report_store(result, args)
    if args.json:
        print(result.to_json())
    else:
        kind.render(result, args)
    return 0 if result.is_clean() else 1


def _report_store(result: GridResult, args: argparse.Namespace) -> None:
    """The stderr line about the journal, greppable by CI."""
    if args.output:
        unit = result.grid.unit
        print(
            f"store {args.output}: reused {result.resumed} journaled {unit}, "
            f"executed {result.executed} new {unit}",
            file=sys.stderr,
        )


def _print_sweep(result: GridResult, args: argparse.Namespace) -> None:
    # Imported here: the aggregation layer loads NumPy, which a double-auction
    # run or audit never needs.
    from repro.scenarios.aggregate import render_records, render_series

    if args.series:
        print(render_series(result.records))
    else:
        print(render_records(result.name, result.records))


def _print_chaos(result: GridResult, args: argparse.Namespace) -> None:
    header = (
        f"{'fault':<28s} {'seed':>6s} {'sent':>6s} {'lost':>6s} {'retx':>6s} "
        f"{'term':<5s} {'consv':<6s} {'replay':<7s} {'store':<6s} {'verdict':<8s}"
    )
    print(f"chaos: {result.name}")
    print(header)
    print("-" * len(header))
    for record in result.records:
        print(
            f"{record.label:<28s} {record.seed:>6d} {record.messages_sent:>6d} "
            f"{record.messages_lost:>6d} {record.retransmissions:>6d} "
            f"{'yes' if record.terminated else 'NO':<5s} "
            f"{'ok' if record.conservation_ok else 'FAIL':<6s} "
            f"{'ok' if record.replay_ok else 'FAIL':<7s} "
            f"{'ok' if record.store_repair_ok else 'FAIL':<6s} "
            f"{'ok' if record.ok else 'FAILED':<8s}"
        )
    print()
    if result.is_clean():
        print(
            f"VERDICT: clean — every invariant held across "
            f"{len(result.records)} cells"
        )
    else:
        print(
            f"VERDICT: NOT CLEAN — {len(result.failing)} of {len(result.records)} "
            f"cells violated an invariant"
        )


def _print_resilience(result: GridResult, args: argparse.Namespace) -> None:
    header = (
        f"{'deviation':<28s} {'coalition':<20s} {'schedule':<12s} "
        f"{'seed':>6s} {'outcome':<8s} {'max gain':>12s}"
    )
    print(f"audit: {result.name}")
    print(header)
    print("-" * len(header))
    for record in result.records:
        outcome = "ABORT" if record.deviating_aborted else "agreed"
        coalition = ",".join(record.coalition)
        print(
            f"{record.label:<28s} {coalition:<20s} {record.schedule:<12s} "
            f"{record.seed:>6d} {outcome:<8s} {record.max_gain:>12.6f}"
        )
    print()
    if result.is_clean():
        print(
            f"VERDICT: resilient — no profitable or outcome-altering deviation "
            f"across {len(result.records)} cells"
        )
    else:
        print("VERDICT: NOT resilient")
        for record in result.failing:
            coalition = ",".join(record.coalition)
            if record.profitable:
                print(f"  profitable: {record.label} by {coalition}")
            if record.altered_result:
                print(f"  altered outcome: {record.label} by {coalition}")


def _command_results(args: argparse.Namespace) -> int:
    # Imported here, not at module top: the results plane (and its numpy
    # dependency surface) should not tax the simulation subcommands' startup.
    from repro.scenarios.aggregate import render_summary
    from repro.scenarios.store import ResultsStore, convert_journal

    if args.results_command == "summarize":
        summary = ResultsStore(args.journal).summary()
        if args.json:
            import json

            print(json.dumps(summary, indent=2))
        else:
            print(render_summary(summary))
        return 0
    outcome = convert_journal(args.source, args.destination, to=args.to)
    print(
        f"converted {outcome['records']} records: {outcome['source']} "
        f"({outcome['from']}) -> {outcome['destination']} ({outcome['to']})"
    )
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    # Imported here, not at module top: export is an offline tool and the
    # simulation subcommands should not pay for it.
    from repro.obs.export import render_chrome, render_text
    from repro.obs.trace import load_trace

    if not os.path.exists(args.journal):
        raise SpecError(args.journal, "trace journal not found")
    _manifest, spans = load_trace(args.journal)
    print(render_chrome(spans) if args.format == "chrome" else render_text(spans))
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.metrics import render_metrics

    try:
        with open(args.snapshot, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except OSError as exc:
        raise SpecError(args.snapshot, f"cannot read metrics snapshot: {exc}")
    except ValueError as exc:
        raise SpecError(args.snapshot, f"not a metrics snapshot JSON document: {exc}")
    instruments = snapshot.get("instruments") if isinstance(snapshot, dict) else None
    if (
        not isinstance(instruments, dict)
        or snapshot.get("kind") != "metrics-snapshot"
        or not all(isinstance(entry, dict) for entry in instruments.values())
    ):
        raise SpecError(
            args.snapshot,
            'not a metrics snapshot: expected kind "metrics-snapshot" and an '
            "instruments table of tables",
        )
    print(json.dumps(snapshot, indent=2) if args.json else render_metrics(snapshot))
    return 0


def _sweep_spec(path: str, overrides: Mapping[str, Any]) -> SweepSpec:
    """A scenario file is a one-point sweep; --set addresses the scenario, not the grid."""
    loaded = load_any(path)
    if isinstance(loaded, ScenarioSpec):
        loaded = SweepSpec(base=loaded, name=loaded.name)
    return loaded.with_base_overrides(overrides)


def _audit_spec(spec_type: type, path: str, overrides: Mapping[str, Any]):
    return spec_with_overrides(load_spec(path, spec_type), overrides)


@dataclass(frozen=True)
class _GridCommand:
    """What one grid sub-command declares; :func:`_command_grid` is the only handler."""

    help: str
    spec_help: str
    set_help: str
    load: Callable[[str, Mapping[str, Any]], Any]  # spec file, then --set
    run: Callable[..., GridResult]  # exit status 0 when its result is_clean()
    render: Callable[[GridResult, argparse.Namespace], None]  # printed without --json
    series: bool = False  # takes --series


_GRID_COMMANDS = {
    "sweep": _GridCommand(
        help="run a grid of scenarios from a sweep spec file",
        spec_help="sweep/scenario spec file (.json or .toml)",
        set_help="dotted-path override applied to the sweep's base spec; repeatable",
        load=_sweep_spec,
        run=run_sweep,
        render=_print_sweep,
        series=True,
    ),
    "resilience": _GridCommand(
        help="audit the k-resilience claim: coalition deviations vs the honest run",
        spec_help="resilience spec file (.json or .toml): a 'base' scenario plus "
        "k/coalitions/adversaries/schedules/seeds",
        set_help="dotted-path override applied to the audit spec (e.g. --set k=2 "
        "or --set base.users=30); repeatable",
        load=functools.partial(_audit_spec, ResilienceSpec),
        run=run_resilience,
        render=_print_resilience,
    ),
    "chaos": _GridCommand(
        help="audit the protocol under injected faults: conservation, "
        "termination, replay and journal-repair invariants per cell",
        spec_help="chaos spec file (.json or .toml): a 'base' scenario plus "
        "faults/recovery/seeds",
        set_help="dotted-path override applied to the audit spec (e.g. --set "
        "recovery.max_retries=5 or --set base.users=30); repeatable",
        load=functools.partial(_audit_spec, ChaosSpec),
        run=run_chaos,
        render=_print_chaos,
    ),
}

#: The sub-command dispatch table (argparse enforces membership).
_COMMANDS = {
    "run": _command_run,
    **dict.fromkeys(_GRID_COMMANDS, _command_grid),
    "results": _command_results,
    "trace": _command_trace,
    "metrics": _command_metrics,
}


def _quiet_broken_pipe() -> int:
    """Exit 0 the way standard Unix filters do when the reader hangs up.

    The guard lives at the entrypoint so *every* sub-command survives
    ``| head``, not just the ones somebody remembered to wrap.  Both streams
    are flushed (tolerating the pipe raising again) and detached onto
    ``/dev/null``, so the interpreter's shutdown flush cannot raise a second
    time; streams without a real file descriptor (pytest capture, StringIO)
    have nothing buffered at the OS level and are skipped.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            pass
        try:
            os.dup2(devnull, stream.fileno())
        except (OSError, ValueError, AttributeError):
            pass
    os.close(devnull)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        # Flush inside the guard: a sub-command's output may still be sitting
        # in the stdout buffer, and a closed pipe would otherwise surface as
        # an unhandled BrokenPipeError in the interpreter's shutdown flush —
        # after main() already returned success.
        sys.stdout.flush()
        return status
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return _quiet_broken_pipe()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
