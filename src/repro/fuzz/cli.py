"""``python -m repro fuzz`` — the differential fuzz campaign.

::

    python -m repro fuzz --seed 2019 --runs 25       # a campaign
    python -m repro fuzz --jobs 4 --json             # parallel, JSON doc
    python -m repro fuzz --bug drop-redirect         # calibrate oracles
    python -m repro fuzz --corpus tests/fuzz/corpus  # replay the corpus
    python -m repro fuzz --save-failures DIR         # keep shrunk cases

Exit codes: **0** healthy (no unexpected oracle violation; with
``--expect-violation``, at least one violation found and shrunk
reproducibly), **1** an oracle fired (or an expected one did not),
**2** usage error.

The JSON document (``--json``/``--out``) is byte-identical for a given
flag set regardless of ``--jobs`` or invocation count — the campaign
determinism contract that CI's ``fuzz-smoke`` job compares with
``cmp``.
"""

import argparse
import sys
from pathlib import Path

from repro.cli import positive_int
from repro.exp.result import canonical_json
from repro.fuzz import bugs, driver, shrink
from repro.fuzz.case import CaseSchemaError, load_case, save_case
from repro.fuzz.harness import evaluate_case


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro fuzz",
        description="seed-deterministic differential fuzzing of the "
                    "nested-virtualization simulator (three execution "
                    "modes per case)",
    )
    parser.add_argument("--seed", type=int, default=2019,
                        help="campaign seed (default: 2019)")
    parser.add_argument("--runs", type=positive_int, default=25,
                        help="generated cases per campaign "
                             "(default: 25)")
    parser.add_argument("--ops", type=positive_int, default=40,
                        help="ops per generated case (default: 40)")
    parser.add_argument("--budget", type=positive_int,
                        default=shrink.DEFAULT_BUDGET,
                        help="max differential evaluations per shrink "
                             f"(default: {shrink.DEFAULT_BUDGET})")
    parser.add_argument("--shrink", dest="shrink", action="store_true",
                        default=True,
                        help="delta-debug failures to minimal cases "
                             "(default)")
    parser.add_argument("--no-shrink", dest="shrink",
                        action="store_false",
                        help="report failures without shrinking")
    parser.add_argument("--cost-model", default=None,
                        help="registered cost model to run under")
    parser.add_argument("--jobs", type=positive_int, default=1,
                        help="worker processes (default: 1)")
    parser.add_argument("--bug", default=None, choices=bugs.names(),
                        help="arm a known-bad fixture machine "
                             "(oracle calibration)")
    parser.add_argument("--expect-violation", action="store_true",
                        help="invert the gate: fail unless at least "
                             "one violation is found and shrinks "
                             "reproducibly (used with --bug)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on any oracle violation (default "
                             "already does; kept for symmetry with "
                             "other subcommands)")
    parser.add_argument("--json", action="store_true",
                        help="write the campaign document to stdout")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the campaign document here")
    parser.add_argument("--save-failures", type=Path, default=None,
                        metavar="DIR",
                        help="save each shrunk counterexample as a "
                             "fuzzcase/1 JSON file under DIR")
    parser.add_argument("--corpus", type=Path, default=None,
                        metavar="DIR",
                        help="replay every committed fuzzcase/1 file "
                             "under DIR instead of generating cases")
    return parser


def _progress(entry):
    status = "FAIL" if entry["failed"] else "ok"
    oracles = ",".join(entry["oracles"]) or "-"
    print(f"  run {entry['index']:>3} seed {entry['seed']:>10} "
          f"{status:<4} {oracles}", file=sys.stderr)


def _replay_corpus(directory, cost_model):
    """Replay committed counterexamples.

    A case recorded with a ``bug`` must reproduce its recorded oracle
    with the bug armed *and* stay green on a stock machine; a clean
    case must simply stay green.  Returns (entries, failures).
    """
    entries = []
    failures = 0
    paths = sorted(directory.glob("*.json"))
    if not paths:
        print(f"repro fuzz: no corpus files under {directory}",
              file=sys.stderr)
    for path in paths:
        try:
            case = load_case(path)
        except CaseSchemaError as err:
            entries.append({"file": path.name, "status": "skipped",
                            "detail": str(err)})
            continue
        report = evaluate_case(case, cost_model=cost_model)
        problems = []
        if case.oracle:
            if case.oracle not in report.violated_oracles():
                problems.append(
                    f"recorded oracle {case.oracle!r} did not fire "
                    f"(got: {report.violated_oracles() or 'none'})")
            if case.bug:
                stock = evaluate_case(
                    case, bug="", cost_model=cost_model)
                if stock.failed:
                    problems.append(
                        "case fails even without its bug armed: "
                        + ", ".join(stock.violated_oracles()))
        elif report.failed:
            problems.append("clean case now violates: "
                            + ", ".join(report.violated_oracles()))
        entries.append({
            "file": path.name,
            "status": "fail" if problems else "ok",
            "detail": "; ".join(problems),
            "oracles": report.violated_oracles(),
        })
        failures += bool(problems)
    return entries, failures


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.corpus is not None:
        if not args.corpus.is_dir():
            print(f"repro fuzz: no corpus directory {args.corpus}",
                  file=sys.stderr)
            return 2
        entries, failures = _replay_corpus(args.corpus,
                                           args.cost_model)
        doc = {"schema": "repro-fuzz-corpus/1", "entries": entries,
               "failures": failures}
        if args.json:
            sys.stdout.write(canonical_json(doc))
        else:
            for entry in entries:
                line = f"{entry['file']}: {entry['status']}"
                if entry.get("detail"):
                    line += f" ({entry['detail']})"
                print(line)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(canonical_json(doc))
        return 1 if failures else 0

    progress = None if args.json else _progress
    doc = driver.run_campaign(
        seed=args.seed, runs=args.runs, n_ops=args.ops, bug=args.bug,
        cost_model=args.cost_model, shrink=args.shrink,
        budget=args.budget, jobs=args.jobs, progress=progress,
    )
    if args.json:
        sys.stdout.write(canonical_json(doc))
    else:
        summary = doc["summary"]
        print(f"fuzz seed={args.seed} runs={summary['runs']} "
              f"failed={summary['failed']} "
              f"faulted={summary['faulted']} "
              f"oracles={summary['violations_by_oracle'] or '{}'}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(canonical_json(doc))
    if args.save_failures is not None:
        for case in driver.failing_cases(doc):
            name = (f"seed{case.seed}-{len(case.ops)}ops-"
                    f"{case.oracle or 'violation'}.json")
            saved = save_case(args.save_failures / name, case)
            print(f"saved {saved}", file=sys.stderr)

    summary = doc["summary"]
    if args.expect_violation:
        if summary["failed"] == 0:
            print("repro fuzz: expected at least one oracle "
                  "violation, found none", file=sys.stderr)
            return 1
        if args.shrink and summary["shrunk_reproducible"] == 0:
            print("repro fuzz: violations found but none shrank "
                  "reproducibly", file=sys.stderr)
            return 1
        return 0
    return 1 if summary["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
