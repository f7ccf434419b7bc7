"""Command-line interface: regenerate any of the paper's artifacts.

::

    repro-spotsim fig2                # availability bars (Figure 2)
    repro-spotsim var                 # §3.1 VAR dependence analysis
    repro-spotsim queuing             # §5 queuing-delay statistics
    repro-spotsim fig4 --window high --slack 0.15
    repro-spotsim table2 | table3
    repro-spotsim fig5 --tc 900
    repro-spotsim fig6 --window low
    repro-spotsim headline
    repro-spotsim run --policy markov-daly --bid 0.81 --zones 3
    repro-spotsim export-trace out.csv   # dump the canonical archive
    repro-spotsim surface build --store surfaces/ --slack 0.15 --slack 0.5
    repro-spotsim surface build --store surfaces/ --deadlines 24,30,36,48
    repro-spotsim surface ls --store surfaces/
    repro-spotsim advise --store surfaces/ --slack 0.5 --budget 25
    repro-spotsim serve --store surfaces/ < queries.jsonl

Each command registers only the run options it honours; any other
option exits 2 with an argparse error:

===========================================  =============================
command                                      run options
===========================================  =============================
fig4 fig5 fig6 table2 table3 headline sweep  ``--experiments --seed
                                             --workers --engine --audit
                                             --audit-out --cache-dir``
fig1 run                                     ``--seed --engine {fast,tick}
                                             --audit --audit-out
                                             --cache-dir``
surface advise serve                         ``--experiments --seed
                                             --workers --cache-dir``
fig2 var export-trace                        ``--seed``
queuing cache                                none
===========================================  =============================

``--experiments N`` sets the overlapping experiment chunks per cell
(default 20 here; the paper and the benchmark suite use 80),
``--workers N`` fans experiment grids over worker processes (results
are identical to a serial run) and ``--engine`` picks the simulation
engine (bit-identical results).  ``--audit`` attaches the run-audit
layer (:mod:`repro.audit`) to every simulation — invariants are
checked on each run, a summary is printed, and the process exits 1 if
any violation was found; ``--audit-out PATH`` additionally streams the
structured event log as JSONL.

``--cache-dir DIR`` enables the content-addressed run cache
(:mod:`repro.experiments.cache`): every engine run is memoized on
disk keyed by the hash of its inputs, so rerunning a figure against a
warm directory skips simulation entirely with identical output.  The
directory holds append-only segments, one per batch of runs, each
published atomically (temp file + rename) and checksummed per record
with an explicit codec (no pickle); a corrupt or truncated segment only
costs re-simulation, and directories from the older one-pickle-per-run
layout simply miss.  A ``run-cache: hits=... misses=...`` summary goes
to stderr.  Inspect (runs, segments, size) or empty a cache directory
with ``repro-spotsim cache DIR [--clear]``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack, contextmanager

import numpy as np

from repro.app.workload import paper_experiment
from repro.core.adaptive import AdaptiveController
from repro.core.engine import SpotSimulator
from repro.core.ondemand import on_demand_cost
from repro.experiments import figures, reporting
from repro.experiments.runner import POLICY_FACTORIES, ExperimentRunner
from repro.market.queuing import QueueDelayModel
from repro.market.spot_market import PriceOracle
from repro.traces.library import DEFAULT_SEED, canonical_dataset, evaluation_window
from repro.traces.io import write_trace


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


#: Every run option, by flag name; each subcommand registers only the
#: ones it honours (see the module docstring's table).
_OPTIONS: dict[str, dict] = {
    "experiments": dict(
        type=int, default=20,
        help="overlapping experiment chunks per cell (paper: 80)"),
    "seed": dict(type=int, default=DEFAULT_SEED),
    "workers": dict(
        type=_positive_int, default=1,
        help="worker processes for experiment grids "
             "(results are identical to --workers 1)"),
    "engine": dict(
        choices=("fast", "tick", "vector"), default="fast",
        help="simulation engine: 'fast' skips event-free segments for a "
             "lone (policy, shape, bid) cell and advances cubes of several "
             "cells in lockstep through the struct-of-arrays engine, 'tick' "
             "runs the reference tick-by-tick loop everywhere, 'vector' "
             "batches every cell, with per-run fast fallback (results are "
             "bit-identical across all three; a 'vector-engine: "
             "native=...' summary goes to stderr)"),
    "audit": dict(
        action="store_true",
        help="attach the run-audit layer: validate billing, progress, "
             "state-machine and deadline invariants on every run (exit "
             "status 1 on any violation)"),
    "audit-out": dict(
        metavar="PATH", default=None,
        help="stream structured audit events as JSONL to PATH (implies "
             "--audit; with --workers N each worker appends to "
             "PATH.w<pid>)"),
    "cache-dir": dict(
        metavar="DIR", default=None,
        help="content-addressed run cache directory: engine runs are "
             "memoized on disk as checksummed, atomically published "
             "segments (one per batch of runs), so warm reruns skip "
             "simulation with identical results; corrupt segments and "
             "legacy .pkl directories miss (created if missing; see the "
             "'cache' command to inspect)"),
}

_GRID_OPTIONS: tuple[str, ...] = tuple(_OPTIONS)
_SINGLE_RUN_OPTIONS: tuple[str, ...] = (
    "seed", "engine", "audit", "audit-out", "cache-dir",
)
_SURFACE_OPTIONS: tuple[str, ...] = ("experiments", "seed", "workers", "cache-dir")

#: A lone simulation has no grid to batch: fig1 and run offer the two
#: per-run engines only.
_SINGLE_RUN_ENGINE = dict(
    choices=("fast", "tick"),
    help="simulation engine: 'fast' skips event-free segments, 'tick' "
         "runs the reference tick-by-tick loop (bit-identical results)",
)


def _add_options(parser: argparse.ArgumentParser, names: tuple[str, ...],
                 **overrides: dict) -> None:
    for name in names:
        parser.add_argument(f"--{name}",
                            **{**_OPTIONS[name], **overrides.get(name, {})})


def _audit_enabled(args: argparse.Namespace) -> bool:
    return args.audit or args.audit_out is not None


def _report_audit(report) -> int:
    """Print the audit summary; the process exit status (1 = violations)."""
    for line in report.summary_lines():
        print(line)
    return 0 if report.ok else 1


def _report_cache(args: argparse.Namespace, stats) -> None:
    """Print the hit/miss summary to stderr (CI greps for misses=0)."""
    print(f"{stats.line()} (dir={args.cache_dir})", file=sys.stderr)


def _report_vector(stats) -> None:
    """Print the vector engine's native/cloned/fallback tally to stderr.

    ``stats`` is ``None`` when no cube cell ran through the vector
    engine — then nothing is printed.  Fallback rows are broken down by
    reason so a grid that silently degraded to per-run simulation is
    visible.
    """
    if stats is not None:
        print(stats.line(), file=sys.stderr)


@contextmanager
def _runners(args: argparse.Namespace, *windows: str):
    """One :class:`ExperimentRunner` per window, built from the run
    options and closed (cache flushed, pool shut down) on exit."""
    with ExitStack() as stack:
        yield {
            window: stack.enter_context(ExperimentRunner(
                window, args.experiments, args.seed, workers=args.workers,
                engine_mode=args.engine, audit=args.audit,
                audit_out=args.audit_out, cache_dir=args.cache_dir,
            ))
            for window in windows
        }


def _report(args: argparse.Namespace, runners) -> int:
    """Report a command's runners: one merged ``run-cache:`` line (with
    ``--cache-dir``) and ``vector-engine:`` line (when a batch ran) on
    stderr, then the merged audit summary (with ``--audit``) on stdout.
    Returns the exit status (1 = audit violations)."""
    from repro.audit.auditor import AuditReport
    from repro.core.vector_engine import BatchStats
    from repro.experiments.cache import CacheStats

    cache, vector, audit = CacheStats(), BatchStats(), AuditReport()
    for runner in runners:
        for total, part in ((cache, runner.drain_cache_stats()),
                            (vector, runner.drain_vector_stats())):
            if part is not None:
                total.merge(part)
        if runner.audit:
            audit.merge(runner.drain_audit())
    if args.cache_dir is not None:
        _report_cache(args, cache)
    _report_vector(vector if vector.total else None)
    return _report_audit(audit) if _audit_enabled(args) else 0


def _single_run(args: argparse.Namespace, config, policy, num_zones: int,
                render, controller=None, **recording) -> int:
    """fig1 and run: simulate one experiment of ``--window`` starting
    ``--start-hours`` in, print ``render(result, oracle, start)``, then
    report the run cache and the audit.  Returns the exit status."""
    trace, eval_start = evaluation_window(args.window, args.seed)
    oracle = PriceOracle(trace)
    auditor = cache = None
    if _audit_enabled(args):
        from repro.audit import JsonlSink, RunAuditor

        auditor = RunAuditor(
            sink=JsonlSink(args.audit_out) if args.audit_out else None
        )
    if args.cache_dir is not None:
        from repro.experiments.cache import RunCache

        cache = RunCache(args.cache_dir)
    sim = SpotSimulator(oracle=oracle, queue_model=QueueDelayModel(),
                        rng=np.random.default_rng(args.seed),
                        engine_mode=args.engine, auditor=auditor,
                        run_cache=cache, **recording)
    start = eval_start + args.start_hours * 3600.0
    result = sim.run(config, policy, args.bid, trace.zone_names[:num_zones],
                     start, controller=controller)
    print(render(result, oracle, start))
    status = 0
    if cache is not None:
        cache.flush()
        _report_cache(args, cache.stats)
    if auditor is not None:
        status = _report_audit(auditor.drain())
        auditor.close()
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-spotsim",
        description="Reproduction harness for Marathe et al., HPDC 2014.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="Figure 1/3: state-transition timeline")
    p.add_argument("--policy", choices=("periodic", "edge"), default="periodic")
    p.add_argument("--window", choices=("low", "high"), default="high")
    p.add_argument("--bid", type=float, default=0.81)
    p.add_argument("--slack", type=float, default=0.5)
    p.add_argument("--start-hours", type=float, default=96.0)
    p.add_argument("--width", type=int, default=96)
    _add_options(p, _SINGLE_RUN_OPTIONS, engine=_SINGLE_RUN_ENGINE)

    p = sub.add_parser("fig2", help="Figure 2: zone/combined availability")
    p.add_argument("--bid", type=float, default=0.81)
    _add_options(p, ("seed",))

    p = sub.add_parser("var", help="Section 3.1: VAR dependence analysis")
    _add_options(p, ("seed",))

    sub.add_parser("queuing", help="Section 5: queuing-delay statistics")

    for name, help_text in (
        ("fig4", "Figure 4: policies vs best-case redundancy"),
        ("fig5", "Figure 5: Adaptive vs other policies"),
        ("fig6", "Figure 6: Large-bid vs Adaptive"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--window", choices=("low", "high"), default="low")
        p.add_argument("--slack", type=float, default=0.15)
        p.add_argument("--tc", type=float, default=300.0)
        _add_options(p, _GRID_OPTIONS)

    for name, help_text in (("table2", "Table 2 (t_c=300s)"),
                            ("table3", "Table 3 (t_c=900s)"),
                            ("headline", "abstract's quantitative claims")):
        p = sub.add_parser(name, help=help_text)
        _add_options(p, _GRID_OPTIONS)

    p = sub.add_parser("run", help="simulate one experiment")
    p.add_argument("--policy", choices=tuple(POLICY_FACTORIES) + ("adaptive",),
                   default="markov-daly")
    p.add_argument("--window", choices=("low", "high"), default="high")
    p.add_argument("--bid", type=float, default=0.81)
    p.add_argument("--zones", type=int, default=1, help="redundancy degree N")
    p.add_argument("--slack", type=float, default=0.5)
    p.add_argument("--tc", type=float, default=300.0)
    p.add_argument("--start-hours", type=float, default=0.0,
                   help="offset into the window")
    _add_options(p, _SINGLE_RUN_OPTIONS, engine=_SINGLE_RUN_ENGINE)

    p = sub.add_parser("sweep", help="parameter sweep (ablations)")
    p.add_argument("--axis", choices=("slack", "tc", "bid", "zones"),
                   default="slack")
    p.add_argument("--window", choices=("low", "high"), default="high")
    p.add_argument("--policy", choices=("periodic", "markov-daly"),
                   default="markov-daly")
    p.add_argument("--redundant", action="store_true")
    _add_options(p, _GRID_OPTIONS)

    p = sub.add_parser("export-trace", help="dump the canonical archive to CSV")
    p.add_argument("path")
    _add_options(p, ("seed",))

    p = sub.add_parser("cache", help="inspect or clear a --cache-dir directory")
    p.add_argument("dir", help="run-cache directory")
    p.add_argument("--clear", action="store_true",
                   help="remove every segment, temp-file orphan and "
                        "legacy .pkl entry instead of summarizing")

    p = sub.add_parser(
        "surface",
        help="precompute (build) or list advisor policy surfaces",
    )
    p.add_argument("action", choices=("build", "ls"))
    p.add_argument("--store", metavar="DIR", required=True,
                   help="surface artifact directory (created if missing)")
    p.add_argument("--window", choices=("low", "high"), default="low")
    p.add_argument("--compute-hours", type=float, default=20.0,
                   help="C, uninterrupted compute time (paper: 20h)")
    p.add_argument("--slack", type=float, action="append", default=None,
                   help="slack fraction(s); repeat to build one surface per "
                        "value (default: 0.5)")
    p.add_argument("--deadlines", default=None,
                   help="comma-separated deadlines in hours; builds the "
                        "whole ladder as one surface *family* — one "
                        "(policy x shape x bid x start) cube per zone count "
                        "through the vector engine emits one artifact per "
                        "deadline "
                        "(mutually exclusive with --slack)")
    p.add_argument("--tc", type=float, default=300.0,
                   help="checkpoint (= restart) cost in seconds")
    p.add_argument("--policies", default=None,
                   help="comma-separated policy labels "
                        "(default: the retained periodic,markov-daly)")
    p.add_argument("--bids", default=None,
                   help="comma-separated bid levels (default: 0.27,0.81,2.40)")
    p.add_argument("--zone-counts", default=None,
                   help="comma-separated redundancy degrees (default: 1,3)")
    _add_options(p, _SURFACE_OPTIONS)

    p = sub.add_parser(
        "advise",
        help="recommend (policy, bid, zones) for a job spec from built "
             "surfaces (cold-builds the surface if none covers the job)",
    )
    p.add_argument("--store", metavar="DIR", required=True)
    p.add_argument("--window", choices=("low", "high"), default="low")
    p.add_argument("--compute-hours", type=float, default=20.0)
    p.add_argument("--deadline-hours", type=float, default=None,
                   help="D in hours (alternative to --slack)")
    p.add_argument("--slack", type=float, default=None,
                   help="slack fraction; D = C * (1 + slack) (default: 0.5)")
    p.add_argument("--tc", type=float, default=300.0)
    p.add_argument("--budget", type=float, default=None,
                   help="maximum acceptable expected cost in $")
    _add_options(p, _SURFACE_OPTIONS)

    p = sub.add_parser(
        "serve",
        help="answer JSON-lines advisory queries from stdin (one JSON "
             "object per line; responses on stdout, stats on stderr)",
    )
    p.add_argument("--store", metavar="DIR", required=True)
    p.add_argument("--batch", type=_positive_int, default=64,
                   help="queries gathered per concurrent batch (identical "
                        "queries within a batch coalesce)")
    _add_options(p, _SURFACE_OPTIONS)

    return parser


def _csv_floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def _surface_spec_kwargs(args: argparse.Namespace) -> dict:
    """Grid-axis overrides shared by ``surface build`` and ``advise``."""
    kwargs: dict = {"num_experiments": args.experiments, "seed": args.seed}
    if getattr(args, "policies", None):
        kwargs["policies"] = tuple(
            label.strip() for label in args.policies.split(",") if label.strip()
        )
    if getattr(args, "bids", None):
        kwargs["bids"] = _csv_floats(args.bids)
    if getattr(args, "zone_counts", None):
        kwargs["zone_counts"] = tuple(
            int(z) for z in args.zone_counts.split(",") if z.strip()
        )
    return kwargs


def _job_from_args(args: argparse.Namespace):
    from repro.service import JobSpec

    compute_s = args.compute_hours * 3600.0
    if args.deadline_hours is not None:
        deadline_s = args.deadline_hours * 3600.0
    else:
        slack = args.slack if args.slack is not None else 0.5
        deadline_s = compute_s * (1.0 + slack)
    return JobSpec(
        compute_s=compute_s,
        deadline_s=deadline_s,
        ckpt_cost_s=args.tc,
        budget=args.budget,
        window=args.window,
    )


def _advisor(args: argparse.Namespace):
    """An AdvisorService over ``--store`` (cold builds honor --workers,
    --experiments, --seed and --cache-dir)."""
    from repro.service import AdvisorService, SurfaceBuilder, SurfaceSpec, SurfaceStore

    store = SurfaceStore(args.store)
    builder = SurfaceBuilder(
        store=store, cache_dir=args.cache_dir, workers=args.workers
    )
    cold_spec = SurfaceSpec(
        window="low", compute_s=3600.0, deadline_s=7200.0, ckpt_cost_s=300.0,
        restart_cost_s=300.0, **_surface_spec_kwargs(args),
    )
    return AdvisorService(store, builder=builder, cold_spec=cold_spec)


def _cmd_surface(args: argparse.Namespace) -> int:
    from repro.app.workload import ExperimentConfig
    from repro.service import SurfaceBuilder, SurfaceSpec, SurfaceStore

    store = SurfaceStore(args.store)
    if args.action == "ls":
        count = 0
        for surface in store.surfaces():
            spec = surface.spec
            print(
                f"{surface.key[:12]}  window={spec.window} "
                f"C={spec.compute_s / 3600:.1f}h "
                f"D={spec.deadline_s / 3600:.1f}h t_c={spec.ckpt_cost_s:.0f}s "
                f"policies={','.join(spec.policies)} "
                f"bids={len(spec.bids)} zones={','.join(map(str, spec.zone_counts))} "
                f"runs/cell={spec.num_experiments} "
                f"built in {surface.build_seconds:.1f}s"
            )
            count += 1
        print(f"{args.store}: {count} surface(s)")
        return 0
    builder = SurfaceBuilder(
        store=store, cache_dir=args.cache_dir, workers=args.workers,
    )
    compute_s = args.compute_hours * 3600.0
    if args.deadlines:
        if args.slack:
            print("surface build: --deadlines and --slack are mutually "
                  "exclusive", file=sys.stderr)
            return 2
        specs = []
        for hours in _csv_floats(args.deadlines):
            config = ExperimentConfig(
                compute_s=compute_s,
                deadline_s=hours * 3600.0,
                ckpt_cost_s=args.tc,
                restart_cost_s=args.tc,
            )
            specs.append(
                SurfaceSpec.for_config(
                    args.window, config, **_surface_spec_kwargs(args)
                )
            )
        surfaces = builder.build_family(specs)
        for surface in surfaces:
            print(
                f"built surface {surface.key[:12]} "
                f"(window={args.window} "
                f"D={surface.spec.deadline_s / 3600:.1f}h "
                f"t_c={args.tc:.0f}s, {len(surface.cells)} cells) "
                f"-> {store.path(surface.key)}"
            )
        print(
            f"family of {len(surfaces)} surfaces built in one cube pass "
            f"({surfaces[0].build_seconds:.1f}s)"
        )
        _report_vector(builder.drain_vector_stats())
        return 0
    for slack in args.slack if args.slack else [0.5]:
        config = ExperimentConfig(
            compute_s=compute_s,
            deadline_s=compute_s * (1.0 + slack),
            ckpt_cost_s=args.tc,
            restart_cost_s=args.tc,
        )
        spec = SurfaceSpec.for_config(
            args.window, config, **_surface_spec_kwargs(args)
        )
        (surface,) = builder.build_family([spec])
        print(
            f"built surface {surface.key[:12]} "
            f"(window={args.window} slack={slack:.0%} t_c={args.tc:.0f}s, "
            f"{len(surface.cells)} cells) in {surface.build_seconds:.1f}s "
            f"-> {store.path(surface.key)}"
        )
        # Same stderr contract as the figure commands: operators see
        # immediately when a build silently fell back to scalar runs.
        _report_vector(builder.drain_vector_stats())
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    import asyncio

    service = _advisor(args)
    advice = asyncio.run(service.advise(_job_from_args(args)))
    print(
        f"recommendation: policy={advice.policy} bid=${advice.bid:.2f} "
        f"zones={advice.zones}"
    )
    print(
        f"expected cost ${advice.expected_cost:.2f} "
        f"(worst observed ${advice.worst_cost:.2f}); "
        f"deadline-miss risk {advice.miss_risk:.1%}; "
        f"mean makespan {advice.mean_makespan_s / 3600:.1f}h"
    )
    print(f"source: {advice.source} (surface {advice.surface_key[:12]})")
    if not advice.within_budget:
        print("warning: no guaranteed plan fits the budget; "
              "showing the cheapest guaranteed plan instead")
    # A cold build-through ran engine batches: report them with the
    # same stderr line `surface build` prints (silent on warm paths).
    _report_vector(service.builder.drain_vector_stats())
    print(service.stats.line(), file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import serve_lines

    service = _advisor(args)
    answered = asyncio.run(
        serve_lines(service, sys.stdin, sys.stdout, batch_size=args.batch)
    )
    _report_vector(service.builder.drain_vector_stats())
    print(service.stats.line(), file=sys.stderr)
    return 0 if answered == service.stats.queries else 1


#: fig4/fig5/fig6: (title, panel function) — one window, one runner.
_PANELS = {
    "fig4": ("Figure 4", figures.fig4_quadrant),
    "fig5": ("Figure 5", figures.fig5_quadrant),
    "fig6": ("Figure 6", figures.fig6_panel),
}


def _sweep_points(args: argparse.Namespace, runner: ExperimentRunner) -> list:
    from repro.experiments import sweeps

    if args.axis == "slack":
        return sweeps.sweep_slack(
            runner, (0.10, 0.15, 0.25, 0.50, 0.75, 1.00),
            policy_label=args.policy, redundant=args.redundant,
        )
    if args.axis == "tc":
        return sweeps.sweep_ckpt_cost(
            runner, (60.0, 300.0, 600.0, 900.0, 1800.0),
            policy_label=args.policy, redundant=args.redundant,
        )
    if args.axis == "bid":
        from repro.market.constants import bid_grid

        return sweeps.sweep_bid(
            runner, bid_grid()[::2],
            policy_label=args.policy, redundant=args.redundant,
        )
    return sweeps.sweep_zones(runner, (1, 2, 3), policy_label=args.policy)


def _run_summary(args: argparse.Namespace, config, result, start: float) -> str:
    """The ``run`` command's summary and per-event timeline."""
    shown = (
        f"adaptive (final: {result.policy_name})"
        if args.policy == "adaptive"
        else result.policy_name
    )
    lines = [
        f"policy={shown} bid=${result.bid:.2f} zones={len(result.zones)}",
        f"total cost ${result.total_cost:.2f} "
        f"(spot ${result.spot_cost:.2f} + on-demand ${result.ondemand_cost:.2f}); "
        f"on-demand reference ${on_demand_cost(config):.2f}",
        f"completed on {result.completed_on}; met deadline: {result.met_deadline}",
        f"checkpoints={result.num_checkpoints} restarts={result.num_restarts} "
        f"terminations={result.num_provider_terminations}",
    ]
    for event in result.events:
        offset_h = (event.time - start) / 3600.0
        zone = event.zone or "-"
        lines.append(
            f"  {offset_h:7.2f}h  {event.kind:<22s} {zone:<12s} {event.detail}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    status = 0

    if args.command == "fig1":
        from repro.core.edge import RisingEdgePolicy
        from repro.core.periodic import PeriodicPolicy as _Periodic
        from repro.experiments.timeline import render_timeline

        policy = _Periodic() if args.policy == "periodic" else RisingEdgePolicy()
        title = f"Figure 1-style timeline ({policy.name})"
        status = _single_run(
            args, paper_experiment(slack_fraction=args.slack), policy, 1,
            lambda result, oracle, start: render_timeline(
                result, oracle, width=args.width, title=title),
            record_timeline=True,
        )
    elif args.command == "fig2":
        data = figures.fig2_availability(bid=args.bid, seed=args.seed)
        print(reporting.render_availability("Figure 2 — availability", data))
    elif args.command == "var":
        report = figures.sec31_var_analysis(seed=args.seed)
        print(reporting.render_var_report("Section 3.1 — VAR analysis", report))
    elif args.command == "queuing":
        stats = figures.sec5_queuing_stats()
        print(reporting.render_queuing("Section 5 — spot queuing delay", stats))
    elif args.command in _PANELS:
        name, panel = _PANELS[args.command]
        with _runners(args, args.window) as runners:
            cells = panel(runners[args.window], args.slack, args.tc)
            status = _report(args, runners.values())
        title = f"{name} — window={args.window} slack={args.slack:.0%} t_c={args.tc:.0f}s"
        print(reporting.render_cells(title, cells, figures.fig4_reference_lines()))
    elif args.command in ("table2", "table3", "headline"):
        with _runners(args, "low", "high") as runners:
            if args.command == "headline":
                text = reporting.render_headline(
                    "Headline claims", figures.headline_claims(runners)
                )
            else:
                fn = figures.table2 if args.command == "table2" else figures.table3
                text = reporting.render_optimal_table(
                    args.command.capitalize(), fn(runners)
                )
            status = _report(args, runners.values())
        print(text)
    elif args.command == "run":
        config = paper_experiment(slack_fraction=args.slack, ckpt_cost_s=args.tc)
        if args.policy == "adaptive":
            policy, num_zones = POLICY_FACTORIES["periodic"](), 1
            controller = AdaptiveController()
        else:
            policy, num_zones = POLICY_FACTORIES[args.policy](), args.zones
            controller = None
        status = _single_run(
            args, config, policy, num_zones,
            lambda result, oracle, start: _run_summary(args, config, result, start),
            controller=controller, record_events=True,
        )
    elif args.command == "sweep":
        from repro.experiments.reporting import format_table

        with _runners(args, args.window) as runners:
            points = _sweep_points(args, runners[args.window])
            print(format_table(
                [args.axis, "median $", "q3 $", "max $", "violations"],
                [p.row() for p in points],
            ))
            status = _report(args, runners.values())
    elif args.command == "export-trace":
        rows = write_trace(canonical_dataset(args.seed), args.path)
        print(f"wrote {rows} price-change rows to {args.path}")
    elif args.command == "cache":
        from repro.experiments.cache import RunCache

        cache = RunCache(args.dir)
        if args.clear:
            removed = cache.clear()
            print(f"cleared {removed} cached runs from {args.dir}")
        else:
            count, size = cache.disk_usage()
            print(f"{args.dir}: {count} cached runs in "
                  f"{len(cache.segments())} segments, {size / 1e6:.2f} MB")
    elif args.command == "surface":
        status = _cmd_surface(args)
    elif args.command == "advise":
        status = _cmd_advise(args)
    elif args.command == "serve":
        status = _cmd_serve(args)
    return status


if __name__ == "__main__":
    sys.exit(main())
