"""Benchmark entry point.

``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the checkout root.  With ``--trace 0`` it measures
the end-to-end metrics of one workload; with ``--trace 1`` it repeats
the workload's ops with the layer tracer installed and reports the
per-layer metrics.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds diagnostics.  See perfbench/README.md.
"""

import argparse
import asyncio
import json
import os
import signal
import statistics
import subprocess
import sys

if not __package__:        # run as a script: import from the checkout root
    sys.dont_write_bytecode = True
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import (common, layers, probe, schedule,  # noqa: E402
                       served)

#: End-to-end metrics, reported by every workload (see README.md for
#: what heavy and light mean in each).
END_TO_END = (("heavy_ms", "ms"), ("light_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))

SERVE_COUNTERS = ("serve.cache_hits", "serve.coalesce_hits",
                  "serve.rejected", "serve.retries")

PER_LAYER = (tuple(name for name, _ in layers.SPAN_METRICS)
             + SERVE_COUNTERS + layers.STARTUP_METRICS
             + ("trace.overhead_ratio",))

#: Set-ups per untimed run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: Request list length for ``serve-mixed`` (more than any run sends).
SERVE_LIST = 20_000

#: ``python -X importtime -m repro list`` runs in a traced run.
IMPORTTIME_RUNS = 3

#: Every run ends, successfully or not, within this many seconds.
TIME_LIMIT_S = 170

_children = []


def per_layer_unit(name):
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("ms") or ".import_ms." in name:
        return "ms"
    return "count"


def median_ms(values):
    return statistics.median(values) * 1000 if values else None


def setup_summary(setups):
    """``setup_s``: the median normalized set-up."""
    return statistics.median(s["normalized_s"] for s in setups)


# -- paper-cold --------------------------------------------------------------


def _cold_harness(run, rep, args, setup_only, trace_dir):
    """Run one cold harness; returns its output document."""
    tag = f"setup-{rep}"
    env = common.isolated_env(common.fresh_pycache(run, tag),
                              common.sub(run, tag, "tmp"))
    argv = [sys.executable, "-m", "perfbench.cold",
            "--run-dir", common.sub(run, tag, "work"),
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if setup_only:
        argv.append("--setup-only")
    if trace_dir is not None:
        argv += ["--trace-dir", trace_dir]
    with open(os.path.join(common.sub(run, tag), "harness.log"),
              "wb") as log:
        process = subprocess.Popen(argv, env=env, cwd=common.ROOT,
                                   stdin=subprocess.DEVNULL,
                                   stdout=subprocess.PIPE, stderr=log,
                                   text=True, start_new_session=True)
        _children.append(process)
        out = process.stdout.read()
        process.wait()
    if process.returncode != 0 or not out.strip():
        raise RuntimeError(f"paper-cold harness failed (exit "
                           f"{process.returncode}); see harness.log")
    return json.loads(out.strip().splitlines()[-1])


def paper_cold(run, args, trace_dir):
    reps = 1 if trace_dir else SETUP_REPEATS
    setups = []
    for rep in range(reps):
        out = _cold_harness(run, rep, args, rep < reps - 1, trace_dir)
        setups.append(out["setup"])
    samples = out["samples"]
    attempted = len(samples) + len(common.EXPERIMENTS)
    failed = sum(not s["ok"] for s in samples) + len(out["setup_failed"])
    by_name = {}
    for sample in samples:
        if sample["ok"] and not sample.get("traced"):
            by_name.setdefault(sample["name"], []).append(sample)
    medians = {name: statistics.median(s["normalized_s"] for s in runs)
               for name, runs in by_name.items()}
    cold_all = (sum(medians[name] for name in common.EXPERIMENTS)
                if set(common.EXPERIMENTS) <= set(medians) else None)
    diagnostics = {
        "cold_all_s": cold_all,
        "ops": {name: {"raw": common.summary([s["seconds"] for s in runs]),
                       "normalized": common.summary(
                           [s["normalized_s"] for s in runs])}
                for name, runs in sorted(by_name.items())},
        "probe_s": common.summary([s["probe_s"] for s in samples
                                   if "probe_s" in s]),
        "setups_s": setups,
        "samples": {
            "heavy_ms": sum(len(runs) for runs in by_name.values()),
            "light_ms": sum(len(by_name.get(n, ())) for n in common.CHEAP),
            "peak_rss_mb": len(samples), "setup_s": len(setups)},
    }
    if trace_dir:
        traced = {}
        for sample in samples:
            if sample["ok"] and sample.get("traced"):
                traced[sample["name"]] = sample["normalized_s"]
        untraced = sum(medians.get(name, 0) for name in traced)
        ratio = sum(traced.values()) / untraced if untraced else None
        return attempted, failed, diagnostics, {"ratio": ratio}
    metrics = {
        "heavy_ms": cold_all * 1000 if cold_all is not None else None,
        "light_ms": (sum(medians[name] for name in common.CHEAP) * 1000
                     if set(common.CHEAP) <= set(medians) else None),
        "peak_rss_mb": max(s["rss_kb"] for s in samples) / 1024,
        "setup_s": setup_summary(setups),
    }
    return attempted, failed, diagnostics, metrics


# -- serve-mixed -------------------------------------------------------------


def _boot(run, tag, cpus, trace_dir=None):
    """A ready server with its warm-up done: (server, set-up, warm-up
    samples)."""
    server, setup, warm_samples = served.new_server(run, tag, cpus,
                                                    trace_dir)
    _children.append(server.process)
    return server, setup, warm_samples


def _drive(server, requests, seconds, cpus=(), trace_dir=None):
    """Drive ``requests`` at a booted server, then stop it.  Returns
    (samples, healthz counter deltas, peak RSS kB)."""
    try:
        if trace_dir:           # spans of the warm-up stay out of the run
            for name in os.listdir(trace_dir):
                os.unlink(os.path.join(trace_dir, name))
        before = served.health(server.port)
        samples = asyncio.run(served.drive(server.port, requests, 2,
                                           seconds, cpus))
        after = served.health(server.port)
        rss_kb = server.peak_rss_kb()
    finally:
        server.stop()
    counters = {
        "serve.cache_hits": ("requests", "cache_hits"),
        "serve.coalesce_hits": ("requests", "coalesce_hits"),
        "serve.rejected": ("queue", "rejected"),
        "serve.retries": ("workers", "retries"),
    }
    delta = {name: after[a][b] - before[a][b]
             for name, (a, b) in counters.items()}
    return samples, delta, rss_kb


def serve_mixed(run, args, trace_dir):
    requests = schedule.serve_requests(args.seed, SERVE_LIST)
    warm_docs = served.warm_up_requests()
    cpus = sorted({args.cpus[0], args.cpus[-1]})   # server, worker
    if trace_dir:
        prefix = requests[:schedule.TRACED_REQUESTS]
        server, _, plain_warm = _boot(run, "plain", cpus)
        plain, _, _ = _drive(server, prefix, None)
        server, _, traced_warm = _boot(run, "traced", cpus, trace_dir)
        traced, delta, _ = _drive(server, prefix, None, trace_dir=trace_dir)
        checked = (served.verify(warm_docs, plain_warm + traced_warm, cpus)
                   + served.verify(requests, plain + traced, cpus))
        total = sum(s["seconds"] for s in plain)
        ratio = sum(s["seconds"] for s in traced) / total if total else None
        failed = sum(not s["ok"] for s in checked)
        return len(checked), failed, {"counters": delta}, {
            "ratio": ratio, "counters": delta}
    setups, warm_samples = [], []
    for rep in range(SETUP_REPEATS):
        server, sample, warm = _boot(run, f"setup-{rep}", cpus)
        setups.append(sample)
        warm_samples += warm
        if rep < SETUP_REPEATS - 1:
            server.stop()
    samples, delta, rss_kb = _drive(server, requests, args.seconds, cpus)
    checked = (served.verify(warm_docs, warm_samples, cpus)
               + served.verify(requests, samples, cpus))
    failed = sum(not s["ok"] for s in checked)

    def latencies(source, key="normalized_s"):
        return [s[key] for s in samples
                if s["ok"] and s["source"] == source]

    def per_experiment_ms(source):
        """Mean over the cheap experiments of each one's median
        normalized latency.  The experiments' latencies form separate
        clusters, so the median of the mixture would jump between
        clusters as the seed shifts the mix."""
        found = {}
        for s in samples:
            if s["ok"] and s["source"] == source:
                name = requests[s["index"]]["experiment"]
                found.setdefault(name, []).append(s["normalized_s"])
        if set(found) != set(common.CHEAP):
            return None
        return statistics.mean(median_ms(values)
                               for values in found.values())

    diagnostics = {
        "hit_ms": per_experiment_ms("cache"),
        "miss_ms": per_experiment_ms("computed"),
        "ops": {source: {"raw": common.summary(latencies(source,
                                                         "seconds")),
                         "normalized": common.summary(latencies(source))}
                for source in ("cache", "computed", "coalesced")
                if latencies(source)},
        "probe_s": common.summary([s["probe_s"] for s in samples]),
        "counters": delta,
        "setups_s": setups,
        "samples": {"heavy_ms": len(latencies("computed")),
                    "light_ms": len(latencies("cache")),
                    "peak_rss_mb": 1, "setup_s": len(setups)},
    }
    metrics = {
        "heavy_ms": diagnostics["miss_ms"],
        "light_ms": diagnostics["hit_ms"],
        "peak_rss_mb": rss_kb / 1024,
        "setup_s": setup_summary(setups),
    }
    return len(checked), failed, diagnostics, metrics


# -- traced-run extras -------------------------------------------------------


def startup_split(run):
    """Median ``-X importtime`` split of ``python -m repro list``, after
    one untimed run that compiles the program's bytecode."""
    env = common.isolated_env(common.fresh_pycache(run, "importtime"),
                              common.sub(run, "importtime", "tmp"))
    runs = []
    for _ in range(IMPORTTIME_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "repro", "list"],
            env=env, cwd=common.ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            check=False)
        runs.append(layers.importtime_split(done.stderr))
    return {name: statistics.median(r[name] for r in runs[1:])
            for name in layers.STARTUP_METRICS}


WORKLOADS = {
    "paper-cold": paper_cold,
    "serve-mixed": serve_mixed,
}


def measure(args):
    with common.run_dir() as run:
        trace_dir = common.sub(run, "trace") if args.trace else None
        attempted, failed, diagnostics, out = WORKLOADS[args.workload](
            run, args, trace_dir)
        if not args.trace:
            return attempted, failed, diagnostics, {
                name: {"value": out[name], "unit": unit}
                for name, unit in END_TO_END}
        values, gone = layers.span_metrics(trace_dir)
        values.update(dict.fromkeys(SERVE_COUNTERS, 0))
        values.update(out.get("counters", {}))
        values.update(startup_split(run))
        values["trace.overhead_ratio"] = out["ratio"]
        diagnostics["missing_metrics"] = gone
        return attempted, failed, diagnostics, {
            name: {"value": values[name], "unit": per_layer_unit(name)}
            for name in PER_LAYER if name in values}


def _on_alarm(signum, frame):
    raise TimeoutError(f"run exceeded {TIME_LIMIT_S} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(f"no program source under {common.SRC}", file=sys.stderr)
        return 2
    # Checks that run the program in this process see no REPRO_* either.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    args.cpus = sorted(os.sched_getaffinity(0))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(TIME_LIMIT_S)
    try:
        attempted, failed, diagnostics, metrics = measure(args)
    finally:
        signal.alarm(0)
        for process in _children:      # each leads its own process group
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    complete = all(m["value"] is not None for m in metrics.values())
    diagnostics["probe_ref_s"] = probe.P_REF_S
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
