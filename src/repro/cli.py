"""Command-line interface: reproduce any paper experiment directly.

Every experiment comes from the registry (``repro.exp``), so ``all``,
``list``, the JSON output and the cache cover exactly the registered
set — nothing can be silently dropped.

::

    python -m repro list              # every registered experiment
    python -m repro table1            # Table 1 breakdown
    python -m repro fig6              # cpuid bars
    python -m repro fig8 --seed 11    # memcached sweep
    python -m repro fig7 --json       # structured result on stdout
    python -m repro all               # everything, cells over every CPU
    python -m repro all --json --jobs 1 --no-cache
    python -m repro lint              # svtlint invariant checker
    python -m repro run cpuid --mode baseline --trace out.json
    python -m repro run cpuid --profile        # cProfile a single cell
    python -m repro table1 --metrics metrics.json
    python -m repro table1 --cost-model arm-flavour
    python -m repro dse --smoke       # replay-based design-space sweep

Results are cached under ``results/cache/`` keyed by (experiment,
params, cost-model fingerprint, code version); ``--no-cache`` forces
recomputation, and any edit to the simulator or cost model invalidates
automatically.
"""

import argparse
import importlib
import os
import sys
from pathlib import Path

from repro.cpu import costmodels
from repro.exp import registry, runner
from repro.exp.cache import ResultCache
from repro.exp.result import canonical_json


def positive_int(text):
    """argparse type for every count flag (``--iterations``,
    ``--jobs``, ``--requests``, ...): an int >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def fault_rates(text):
    """argparse type for ``chaos --rates``: comma-separated rates, each
    in [0, 1].  Returns the text unchanged (the experiment parameter is
    a string)."""
    from repro.exp.experiments.chaos import parse_rates

    try:
        rates = parse_rates(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}") from None
    if not rates:
        raise argparse.ArgumentTypeError("needs at least one rate")
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise argparse.ArgumentTypeError(
                f"rate {rate:g} is outside [0, 1]")
    return text


#: Commands with their own flags, which the experiment parser never
#: sees: name -> (handler as ``module:function``, help line).  ``main``
#: imports a handler only when its command is chosen.
COMMANDS = {
    "chaos": ("repro.cli:_cmd_chaos",
              "the chaos experiment with --rates and --out"),
    "dse": ("repro.exp.dse:main", "replay-based design-space sweep"),
    "fuzz": ("repro.fuzz.cli:main", "differential fuzz campaign"),
    "lint": ("repro.lint.cli:main", "svtlint invariant checker"),
    "loadtest": ("repro.serve.cli:main_loadtest",
                 "deterministic load test of the experiment service"),
    "run": ("repro.cli:_cmd_run", "one traced workload on one machine"),
    "serve": ("repro.serve.cli:main_serve",
              "the long-lived HTTP/JSON experiment service"),
}


def build_parser():
    registry.ensure_loaded()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Using SMT to Accelerate "
                    "Nested\nVirtualization' (ISCA'19)",
        epilog="commands with their own flags (repro COMMAND --help):\n"
               + "\n".join(f"  {name:<10}{line}"
                           for name, (_, line) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("experiment",
                        choices=registry.names() + ["all", "list"],
                        help="which table/figure to regenerate, 'all' "
                             "for every registered experiment, 'list' "
                             "to enumerate them (chaos takes the options "
                             "below only before its name; after it, its "
                             "own)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload RNG seed (default: "
                             "per-experiment)")
    parser.add_argument("--iterations", type=positive_int, default=None,
                        help="microbenchmark iterations (default: "
                             "per-experiment)")
    parser.add_argument("--depth", type=positive_int, default=None,
                        help="max nesting depth for 'deep' (default 5)")
    parser.add_argument("--cost-model", default=None, metavar="NAME",
                        choices=costmodels.model_names(),
                        help="price every simulation under a registered "
                             "cost model (default xeon-paper; see "
                             f"{', '.join(costmodels.model_names())})")
    parser.add_argument("--json", action="store_true",
                        help="emit structured results as canonical JSON")
    parser.add_argument("--jobs", type=positive_int, default=None,
                        metavar="N",
                        help="run independent cells in up to N "
                             "processes (default: every CPU this "
                             "process may run on; output is "
                             "byte-identical at any N)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and don't write the result cache")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="result cache location (default "
                             "results/cache/)")
    parser.add_argument("--metrics", type=Path, default=None,
                        metavar="PATH",
                        help="capture per-cell observability metrics and "
                             "write the merged repro-metrics/1 document "
                             "to PATH (disables the result cache for "
                             "this invocation)")
    return parser


def _cmd_list():
    from repro.analysis.report import format_table

    rows = [
        (experiment.name, experiment.title, experiment.description)
        for experiment in registry.experiments()
    ]
    print(format_table(["Name", "Title", "Description"], rows,
                       title="Registered experiments"))
    return 0


def _cmd_run(argv):
    """``repro run``: one traced workload on one machine.

    Unlike the experiment path (statistics over many cells), this drives
    a single :class:`~repro.core.system.Machine` with a live observer
    and exports the raw telemetry: a Chrome ``trace_event`` file
    (``--trace``, loadable in Perfetto), a flat metrics dump
    (``--metrics``), and the Table-1 part breakdown recovered *from the
    trace itself* — the cross-check that charge spans partition the
    simulated time exactly as the tracer accounts it.
    """
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run one workload with observability on and export "
                    "trace/metrics artifacts",
    )
    parser.add_argument("workload", choices=["cpuid"],
                        help="workload to run (cpuid: the Table 1 / "
                             "Fig. 6 microbenchmark)")
    parser.add_argument("--mode", default="baseline",
                        choices=["baseline", "sw_svt", "hw_svt"],
                        help="execution mode (default baseline)")
    parser.add_argument("--level", type=int, default=2,
                        choices=[0, 1, 2],
                        help="virtualization level to run at (default 2)")
    parser.add_argument("--iterations", type=positive_int, default=50,
                        help="measured iterations (default 50; one "
                             "warm-up iteration is added)")
    parser.add_argument("--cost-model", default=None, metavar="NAME",
                        choices=costmodels.model_names(),
                        help="price the run under a registered cost "
                             "model (default xeon-paper)")
    parser.add_argument("--trace", type=Path, default=None,
                        metavar="PATH",
                        help="write a Chrome trace_event JSON to PATH")
    parser.add_argument("--metrics", type=Path, default=None,
                        metavar="PATH",
                        help="write a repro-metrics/1 JSON dump to PATH")
    parser.add_argument("--no-breakdown", action="store_true",
                        help="skip the per-part breakdown table")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile the same program on a machine "
                             "without an observer, as the experiments "
                             "run it, and print the top cumulative-time "
                             "functions and the self time per package")
    parser.add_argument("--profile-top", type=positive_int, default=20,
                        metavar="N",
                        help="rows of the cProfile report (default 20)")
    parser.add_argument("--profile-out", type=Path, default=None,
                        metavar="PATH",
                        help="also dump raw pstats data to PATH "
                             "(inspect with `python -m pstats`)")
    args = parser.parse_args(argv)

    from repro.core.mode import ExecutionMode
    from repro.core.system import Machine
    from repro.cpu import isa
    from repro.obs.export import (
        render_breakdown,
        trace_breakdown,
        write_chrome_trace,
        write_metrics,
    )
    from repro.obs.observer import Observer

    mode = ExecutionMode.validate(args.mode)
    # One warm-up iteration, same protocol as repro.workloads.cpuid
    # (the first HW SVt resume differs slightly); it is traced too, and
    # the per-op breakdown divides by iterations + 1.
    warm_up = isa.Program([isa.cpuid()], repeat=1)
    measured = isa.Program([isa.cpuid()], repeat=args.iterations)
    if args.profile:
        _profile(Machine(mode=mode, costs=args.cost_model), warm_up,
                 measured, args)
    observer = Observer()
    machine = Machine(mode=mode, observer=observer,
                      costs=args.cost_model)
    machine.run_program(warm_up, level=args.level)
    result = machine.run_program(measured, level=args.level)
    operations = args.iterations + 1
    print(f"cpuid mode={mode} L{args.level}: "
          f"{result.ns_per_instruction:.1f} ns/op "
          f"({args.iterations} iterations + 1 warm-up)")

    if args.trace is not None:
        doc = write_chrome_trace(args.trace, observer,
                                 process_name=f"repro-cpuid-{mode}")
        print(f"trace: {len(doc['traceEvents'])} events -> {args.trace}")
    if args.metrics is not None:
        write_metrics(
            args.metrics, [observer.metrics_snapshot()],
            meta={"workload": "cpuid", "mode": str(mode),
                  "level": args.level, "iterations": args.iterations},
        )
        print(f"metrics -> {args.metrics}")
    if not args.no_breakdown:
        rows = trace_breakdown(observer, operations=operations)
        print(render_breakdown(
            rows, title=f"Per-op breakdown from trace ({mode}, "
                        f"L{args.level})"))
    return 0


def _profile(machine, warm_up, measured, args):
    """``repro run --profile``: cProfile ``measured`` on ``machine``,
    which has no observer, after running ``warm_up`` unprofiled; print
    the top rows and the self time per ``repro.<package>``."""
    import cProfile
    import pstats

    from repro.analysis.report import format_table

    machine.run_program(warm_up, level=args.level)
    profiler = cProfile.Profile()
    profiler.enable()
    machine.run_program(measured, level=args.level)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.profile_top)
    by_package = _self_time_by_package(stats)
    total = stats.total_tt
    rows = [(package, f"{seconds * 1e3:.3f}",
             f"{100 * seconds / total:.1f}%" if total else "-")
            for package, seconds in by_package.items()]
    rows.append(("total", f"{total * 1e3:.3f}", "100.0%"))
    print(format_table(["Package", "Self ms", "Share"], rows,
                       title="Self time by package (cProfile)"))
    if args.profile_out is not None:
        args.profile_out.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(args.profile_out)
        print(f"pstats dump -> {args.profile_out}")


def _self_time_by_package(stats):
    """Self seconds of a :class:`pstats.Stats` per ``repro.<package>``
    (``repro`` for the top-level modules), and ``stdlib/other`` for
    everything else, largest first; the rows sum to ``total_tt``."""
    import repro

    root = os.path.dirname(repro.__file__) + os.sep
    totals = {}
    for (filename, _, _), (_, _, self_s, _, _) in stats.stats.items():
        if filename.startswith(root):
            parts = filename[len(root):].split(os.sep)
            package = "repro" if len(parts) == 1 else f"repro.{parts[0]}"
        else:
            package = "stdlib/other"
        totals[package] = totals.get(package, 0.0) + self_s
    return dict(sorted(totals.items(), key=lambda item: -item[1]))


def _sanitizer_verdict(report):
    """Print the runtime sanitizer's verdict on stderr and return the
    exit code it calls for (``REPRO_SIM_SANITIZE=1`` runs only; 0
    otherwise).  The reports flip the exit code, never the result
    document: byte-identity with the flag off is the contract."""
    from repro.sim import sanitizer as sim_sanitizer

    if not sim_sanitizer.enabled():
        return 0
    for line in report.sanitizer_reports:
        print(line, file=sys.stderr)
    if report.sanitizer_reports:
        print(f"sanitizer: {len(report.sanitizer_reports)} "
              "conflicting unordered access(es)", file=sys.stderr)
        return 1
    print("sanitizer: no conflicting unordered accesses", file=sys.stderr)
    return 0


def _cmd_chaos(argv):
    """``repro chaos``: the fault-injection resilience matrix.

    A thin front-end over the registered ``chaos`` experiment with the
    chaos-specific flag namespace (``--rates``) and an artifact path:
    ``--out`` writes the canonical-JSON result document (the CI
    chaos-smoke job uploads it).  Output is byte-identical at any
    ``--jobs`` — every fault decision derives from ``--seed`` through
    per-site rng streams, never from scheduling.
    """
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Sweep fault rates across execution modes and "
                    "report the resilience matrix "
                    "(injected/recovered/degraded/deadlocked)",
    )
    parser.add_argument("--seed", type=int, default=2019,
                        help="fault-plan seed (default 2019)")
    parser.add_argument("--rates", type=fault_rates, default=None,
                        help="comma-separated per-event fault rates "
                             "(default '0.0,0.02,0.1,0.3')")
    parser.add_argument("--iterations", type=positive_int, default=None,
                        help="nested cpuid iterations per cell "
                             "(default 30)")
    parser.add_argument("--jobs", type=positive_int, default=None,
                        metavar="N",
                        help="run cells in up to N processes (default: "
                             "every CPU this process may run on; output "
                             "is byte-identical at any N)")
    parser.add_argument("--smoke", action="store_true",
                        help="fast parameters (CI chaos-smoke job)")
    parser.add_argument("--json", action="store_true",
                        help="emit the result document on stdout")
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="write the canonical-JSON resilience "
                             "matrix to PATH")
    args = parser.parse_args(argv)

    registry.ensure_loaded()
    overrides = {"seed": args.seed, "rates": args.rates,
                 "iterations": args.iterations}
    report = runner.run_experiments(["chaos"], overrides=overrides,
                                    jobs=args.jobs, cache=None,
                                    smoke=args.smoke)
    run = report.runs[0]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(run.result.to_json())
        print(f"resilience matrix -> {args.out}", file=sys.stderr)
    exit_code = _sanitizer_verdict(report)
    if args.json:
        sys.stdout.write(report.to_json())
        return exit_code

    from repro.analysis.report import render_result

    print(render_result(run.result))
    unresolved = run.result.scalars_dict.get("unresolved_total", 0)
    if unresolved:
        print(f"chaos: {unresolved} injected fault(s) neither recovered "
              "nor accounted as degraded/deadlocked", file=sys.stderr)
        return 1
    return exit_code


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in COMMANDS:
        module, _, function = COMMANDS[argv[0]][0].partition(":")
        return getattr(importlib.import_module(module), function)(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        return _cmd_list()

    names = (registry.names() if args.experiment == "all"
             else [args.experiment])
    overrides = {"seed": args.seed, "iterations": args.iterations,
                 "depth": args.depth, "cost_model": args.cost_model}
    collect_metrics = args.metrics is not None
    # Cached results carry no metrics; force recomputation when asked
    # for a metrics dump so every cell actually runs under capture.
    cache = (None if args.no_cache or collect_metrics
             else ResultCache(args.cache_dir))
    report = runner.run_experiments(names, overrides=overrides,
                                    jobs=args.jobs, cache=cache,
                                    collect_metrics=collect_metrics)

    if collect_metrics:
        args.metrics.parent.mkdir(parents=True, exist_ok=True)
        args.metrics.write_text(canonical_json(report.metrics_document()))
        print(f"metrics -> {args.metrics}", file=sys.stderr)
    if cache is not None:
        print(f"cache: served {len(report.served)}, "
              f"computed {len(report.computed)} "
              f"({cache.root})", file=sys.stderr)
    exit_code = _sanitizer_verdict(report)
    if args.json:
        sys.stdout.write(report.to_json())
        return exit_code

    from repro.analysis.report import render_result

    for run in report.runs:
        if args.experiment == "all":
            cached = " (cached)" if run.cached else ""
            print(f"\n=== {run.name}{cached} "
                  + "=" * max(1, 68 - len(run.name) - len(cached)))
        print(render_result(run.result))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
