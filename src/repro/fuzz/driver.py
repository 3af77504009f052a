"""The fuzz campaign driver.

A campaign is a pure function of ``(seed, runs, ops, bug, cost_model,
shrink budget)``: per-run case seeds are labelled forks of the campaign
seed, each case evaluates differentially (three machines plus the
replay probe), failures shrink, and the results assemble **in run order** into
a ``repro-fuzz/1`` document that contains no wall-clock time, worker
count, or any other environment echo — so the same campaign is
byte-identical across invocations and ``--jobs`` values.

Runs are independent, so they fan out as the experiment runner's cells
do, through :func:`repro.exp.runner.fan_out`: the calling process plus
forked helpers, one process per CPU by default.  ``fan_out`` returns
the entries in run order and raises the earliest failing run's
exception, so parallelism cannot reorder (or otherwise perturb) the
document.  Helpers are forked, so what describes a run need not pickle;
each entry, plain JSON data, does.
"""

import functools

from repro.exp.runner import fan_out
from repro.fuzz import shrink as shrinker
from repro.fuzz.case import FuzzCase
from repro.fuzz.gen import derive_stream, generate_case
from repro.fuzz.harness import evaluate_case

#: Campaign result schema.
DOC_SCHEMA = "repro-fuzz/1"


def case_seed(campaign_seed, index):
    """The case seed for run ``index`` — a labelled fork, so inserting
    a run never reshuffles the others."""
    return derive_stream(campaign_seed, f"run:{index}").randint(
        0, 2**31 - 1)


def run_one(campaign_seed, index, n_ops, bug, cost_model, do_shrink,
            budget):
    """Evaluate (and, on failure, shrink) run ``index`` of a campaign.
    Returns one JSON-ready campaign entry."""
    seed = case_seed(campaign_seed, index)
    case = generate_case(seed, n_ops=n_ops, bug=bug)
    report = evaluate_case(case, cost_model=cost_model)
    entry = {
        "index": index,
        "seed": seed,
        "ops": len(case.ops),
        "faulted": case.fault_plan is not None,
        "failed": report.failed,
        "oracles": report.violated_oracles(),
        "violations": [v.to_dict() for v in report.violations],
    }
    if report.failed and do_shrink:
        oracle = report.violated_oracles()[0]
        shrunk, evals, reproducible = shrinker.shrink_case(
            case, oracle, budget=budget, cost_model=cost_model)
        entry["shrunk"] = {
            "case": shrunk.to_dict(),
            "ops": len(shrunk.ops),
            "evals": evals,
            "reproducible": reproducible,
        }
    return entry


def run_campaign(seed, runs, n_ops=40, bug=None, cost_model=None,
                 shrink=True, budget=shrinker.DEFAULT_BUDGET, jobs=None):
    """Run a whole campaign in up to ``jobs`` processes (``None``: every
    CPU this process may run on); returns the ``repro-fuzz/1``
    document."""
    entries, _ = fan_out(
        functools.partial(run_one, seed, n_ops=n_ops, bug=bug,
                          cost_model=cost_model, do_shrink=shrink,
                          budget=budget),
        range(runs), jobs, label="runs")
    failed = [entry for entry in entries if entry["failed"]]
    by_oracle = {}
    for entry in failed:
        for oracle in entry["oracles"]:
            by_oracle[oracle] = by_oracle.get(oracle, 0) + 1
    return {
        "schema": DOC_SCHEMA,
        "seed": seed,
        "runs": runs,
        "ops_per_run": n_ops,
        "bug": bug,
        "cost_model": cost_model,
        "entries": entries,
        "summary": {
            "runs": len(entries),
            "failed": len(failed),
            "faulted": sum(1 for e in entries if e["faulted"]),
            "violations_by_oracle": dict(sorted(by_oracle.items())),
            "shrunk_reproducible": sum(
                1 for e in failed
                if e.get("shrunk", {}).get("reproducible")),
        },
    }


def failing_cases(doc):
    """Extract the shrunk counterexamples from a campaign document as
    :class:`FuzzCase` objects (for ``--save-failures``)."""
    out = []
    for entry in doc["entries"]:
        shrunk = entry.get("shrunk")
        if shrunk is not None:
            out.append(FuzzCase.from_dict(shrunk["case"]))
    return out
