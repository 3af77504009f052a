"""``paper-cold``: forked cold runs of every experiment.

Run as ``python -m perfbench.cold --run-dir DIR --seed N --seconds S``
from the checkout root, in the isolated environment.  Set-up imports
the program, loads the registry and hashes the code fingerprint once
(as one ``repro all`` does), then runs every experiment once in an
untimed fork, which compiles the bytecode of the modules the
experiments import lazily; the harness imports those modules itself,
so timed ops import nothing.  Set-up is timed piece by piece (loading,
each warm-up experiment, the imports), each piece between two probes.

An op forks the harness: the child runs the host probe, times
``run_experiments([name], cache=<empty result cache>)``, runs the probe
again, and sends back the times and the Result's fingerprint; the
parent reads the child's max RSS from ``wait4``.  A fork per op starts
every process-level memo cold, as a fresh CLI run does.  The only
stdout line is a JSON document with the set-up and every op's samples.
"""

import argparse
import functools
import importlib
import json
import os
import shutil
import sys
import time
import traceback

from perfbench import common, probe, schedule

#: Fewest rounds (one op per experiment each) a run completes, however
#: slow the host.
MIN_ROUNDS = 3


class ColdHarness:
    def __init__(self, run_dir, expected):
        self.run_dir = run_dir
        self.expected = expected
        self.ops = 0

    def setup(self):
        """Load the program and warm up.  Returns (the set-up's time,
        see :func:`probe.total`; the experiments whose warm-up failed
        its check)."""
        run_dir = self.run_dir

        def load():
            from repro.exp import registry
            from repro.exp.cache import ResultCache

            registry.ensure_loaded()
            ResultCache(os.path.join(run_dir, "setup-cache"))

        pieces = [probe.timed(load)[0]]
        before = set(sys.modules)

        def warm_up():
            warm_pieces, results = self._run_all()
            return {"modules": sorted(set(sys.modules) - before),
                    "pieces": warm_pieces, "results": results}

        reply, _ = common.fork_call(warm_up)
        if reply is None:
            raise RuntimeError("the untimed warm-up fork failed")
        pieces += reply["pieces"]
        pieces.append(probe.timed(
            functools.partial(_import_all, reply["modules"]))[0])
        return probe.total(pieces), [
            name for name, doc in reply["results"].items()
            if not common.check(name, doc, self.expected)]

    def _run_all(self):
        """Every experiment once, each timed between probes: (pieces,
        Result documents)."""
        from repro.exp.cache import ResultCache
        from repro.exp.runner import run_experiments

        cache = ResultCache(os.path.join(self.run_dir, "warm-up-cache"))
        pieces, results = [], {}
        for name in common.EXPERIMENTS:
            try:
                piece, report = probe.timed(functools.partial(
                    run_experiments, [name], cache=cache))
            except Exception:       # reported as a failed warm-up op
                traceback.print_exc()
                results[name] = {}
                continue
            pieces.append(piece)
            results[name] = report.runs[0].result.to_dict()
        return pieces, results

    def op(self, name, trace_dir=None, fresh_fingerprint=False):
        """One forked cold run of ``name``: a sample dict.

        With ``fresh_fingerprint`` a traced child hashes the code
        fingerprint again, outside the timed window, so that the one
        hash a cold ``repro all`` pays gets a span.
        """
        self.ops += 1
        op_dir = os.path.join(self.run_dir, f"op-{self.ops}")
        expected = self.expected

        def child():
            if trace_dir is not None:
                from perfbench import tracing
                from repro.exp.cache import code_fingerprint

                if fresh_fingerprint:
                    code_fingerprint.cache_clear()
                tracing.install(trace_dir)
            from repro.exp.cache import ResultCache
            from repro.exp.runner import run_experiments

            cache = ResultCache(op_dir)
            before = probe.probe()
            started = time.perf_counter()
            report = run_experiments([name], cache=cache)
            seconds = time.perf_counter() - started
            probe_s = (before + probe.probe()) / 2
            doc = report.runs[0].result.to_dict()
            return {"probe_s": probe_s, "seconds": seconds,
                    "fingerprint": common.fingerprint(name, doc, expected)}

        reply, rss_kb = common.fork_call(child)
        shutil.rmtree(op_dir, ignore_errors=True)
        sample = {"name": name, "rss_kb": rss_kb, "ok": False}
        if reply is not None:
            sample.update(reply)
            sample["normalized_s"] = probe.normalize(reply["seconds"],
                                                     reply["probe_s"])
            sample["ok"] = (reply["fingerprint"]
                            == common.wanted(name, expected))
            del sample["fingerprint"]
        return sample


def _import_all(names):
    for name in names:
        try:
            importlib.import_module(name)
        except ImportError:     # a name not importable on its own
            pass


def timed_ops(harness, seed, seconds):
    """Seed-shuffled rounds of every experiment until ``seconds`` pass
    (whole rounds only, at least MIN_ROUNDS)."""
    samples = []
    deadline = time.perf_counter() + seconds
    for index, order in enumerate(schedule.cold_rounds(seed, 1000)):
        if index >= MIN_ROUNDS and time.perf_counter() >= deadline:
            break
        samples.extend(harness.op(name) for name in order)
    return samples


def traced_ops(harness, seed, trace_dir):
    """One traced and one untraced op per experiment, in seeded order
    (which of the pair goes first alternates); the first traced op
    hashes the code fingerprint afresh."""
    from perfbench import tracing

    tracing.preload()
    samples = []
    for index, name in enumerate(schedule.cold_rounds(seed, 1)[0]):
        pair = [(False, None), (True, trace_dir)]
        if index % 2:
            pair.reverse()
        for traced, directory in pair:
            sample = harness.op(name, directory,
                                fresh_fingerprint=traced and index == 0)
            sample["traced"] = traced
            samples.append(sample)
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    harness = ColdHarness(args.run_dir, common.load_expected())
    setup, failed_setup = harness.setup()
    samples = []
    if args.trace_dir is not None:
        samples = traced_ops(harness, args.seed, args.trace_dir)
    elif not args.setup_only:
        samples = timed_ops(harness, args.seed, args.seconds)
    print(json.dumps({"setup": setup, "setup_failed": failed_setup,
                      "samples": samples}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
