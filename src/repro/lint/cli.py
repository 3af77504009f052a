"""``python -m repro lint`` — run the invariant checker.

::

    python -m repro lint                    # whole repro package
    python -m repro lint src tests          # explicit paths
    python -m repro lint --format json      # machine-readable findings
    python -m repro lint --rules SVT001,SVT003
    python -m repro lint --stats            # per-rule/package summary
    python -m repro lint --no-stale         # skip SVT009 meta-pass
    python -m repro lint --no-cache         # bypass .svtlint_cache/
    python -m repro lint --list-rules

Exit codes (CI gates on them): **0** clean, **1** at least one finding,
**2** usage error.  Parse failures in linted files surface as
``SVT000`` findings rather than crashes, so one run always reports
every problem.

Per-file results are memoized under ``.svtlint_cache/`` (see
:mod:`repro.lint.cache`); the whole-program passes (SVT007/SVT008)
invalidate whenever any file in the batch changes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.exp.result import canonical_json
from repro.lint.bounded import BoundedLoopRule
from repro.lint.cache import DEFAULT_CACHE_DIR, LintCache
from repro.lint.determinism import DeterminismRule
from repro.lint.engine import Rule, lint_tree
from repro.lint.findings import (compute_stats, findings_document,
                                 render_stats_table)
from repro.lint.frozen import FrozenResultRule
from repro.lint.poolsafety import PoolSafetyRule
from repro.lint.provenance import ProvenanceRule
from repro.lint.races import SimStateRaceRule
from repro.lint.stale import StaleSuppressionRule
from repro.lint.taint import DeterminismTaintRule

#: Every shipped rule, in rule-id order.
DEFAULT_RULES: tuple[type[Rule], ...] = (
    DeterminismRule,
    ProvenanceRule,
    PoolSafetyRule,
    FrozenResultRule,
    BoundedLoopRule,
    SimStateRaceRule,
    DeterminismTaintRule,
    StaleSuppressionRule,
)


def default_paths() -> list[Path]:
    """The installed ``repro`` package source tree."""
    import repro

    return [Path(repro.__file__).resolve().parent]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checker for the experiment "
                    "runtime (determinism, cost-model provenance, "
                    "fork safety, frozen results, sim-state "
                    "races, determinism taint)",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint (default: "
                             "the repro package)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="findings as lines or as a JSON document")
    parser.add_argument("--rules", default=None, metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--stats", action="store_true",
                        help="print a findings/suppressions summary "
                             "per rule per package")
    parser.add_argument("--no-stale", action="store_true",
                        help="skip the SVT009 stale-suppression pass")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the incremental lint cache")
    parser.add_argument("--cache-dir", type=Path,
                        default=DEFAULT_CACHE_DIR, metavar="DIR",
                        help="incremental cache directory (default: "
                             f"{DEFAULT_CACHE_DIR})")
    parser.add_argument("--list-rules", action="store_true",
                        help="describe every rule and exit")
    return parser


def select_rules(spec: Optional[str],
                 stale: bool = True) -> list[Rule]:
    """Instantiate the requested rules (all by default).

    With an explicit ``--rules`` list the SVT009 instance is marked
    incomplete, so bare ``disable`` directives are never judged stale
    on a partial run.
    """
    if not spec:
        rules = [cls() for cls in DEFAULT_RULES]
    else:
        by_id = {cls.rule_id: cls for cls in DEFAULT_RULES}
        rules = []
        for rule_id in (part.strip() for part in spec.split(",")):
            if rule_id not in by_id:
                known = ", ".join(sorted(by_id))
                raise ValueError(
                    f"repro lint: unknown rule {rule_id!r} "
                    f"(known: {known})"
                )
            rules.append(by_id[rule_id]())
        for rule in rules:
            if rule.meta_stale:
                rule.complete = False  # type: ignore[attr-defined]
    if not stale:
        rules = [rule for rule in rules if not rule.meta_stale]
    return rules


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for cls in DEFAULT_RULES:
            doc = (cls.__doc__ or "").strip().splitlines()[0]
            doc = doc.removeprefix(f"{cls.rule_id}: ")
            print(f"{cls.rule_id}  {cls.title}: {doc}")
        return 0
    try:
        rules = select_rules(args.rules, stale=not args.no_stale)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    paths = [Path(p) for p in args.paths] or default_paths()
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"repro lint: no such path: {path}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else LintCache(args.cache_dir)
    report = lint_tree(paths, rules, cache=cache)
    findings = report.findings
    stats = compute_stats(findings, report.suppressions,
                          report.modules)
    if args.format == "json":
        sys.stdout.write(canonical_json(
            findings_document(findings, stats=stats)))
    else:
        for finding in findings:
            print(finding.render())
        if args.stats:
            print(render_stats_table(stats))
        if findings:
            print(f"{len(findings)} finding"
                  f"{'s' if len(findings) != 1 else ''}",
                  file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
