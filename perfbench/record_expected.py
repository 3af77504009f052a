"""Rewrite ``perfbench/expected.json`` from the current program.

``PYTHONPATH=src python3 -m perfbench.record_expected`` from the
checkout root records the canonical-JSON sha256 of every experiment's
Result at default parameters.  ``table3`` counts the program's own
lines of code, so it is recorded by shape (row labels and scalar keys).
Run it only when a Result is meant to change.
"""

import json

from perfbench import common

SHAPE_CHECKED = ("table3",)



def main():
    from repro.exp.runner import run_experiments

    report = run_experiments(common.EXPERIMENTS, cache=None)
    docs = {run.name: run.result.to_dict() for run in report.runs}
    expected = {"digests": {}, "shapes": {}}
    for name in common.EXPERIMENTS:
        if name in SHAPE_CHECKED:
            expected["shapes"][name] = common.shape(docs[name])
        else:
            expected["digests"][name] = common.fingerprint(
                name, docs[name], expected)
    with open(common.EXPECTED_PATH, "w") as handle:
        handle.write(json.dumps(expected, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    main()
