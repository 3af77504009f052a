"""Shared plumbing: run directories, isolated environments, processes,
statistics and output checks."""

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback

#: Checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Every experiment registered at the commit the benchmark was written
#: for, listed here rather than read from the registry so that a
#: change to the registry shows up as a failed op, not a new workload.
EXPERIMENTS = (
    "ablation_hw_model", "ablation_lazy_split", "ablation_wait", "chaos",
    "coexist", "deep", "fig10", "fig6", "fig7", "fig8", "fig9", "l3",
    "related", "sec61", "table1", "table3", "table4",
)

#: The cheap experiments and the size parameter ``serve-mixed`` varies
#: to make new points; ``paper-cold`` sums their cold times as its
#: light metric, so the two workloads price the same code cold and warm.
CHEAP = {
    "ablation_hw_model": ("repeat", 20),
    "ablation_lazy_split": ("iterations", 10),
    "ablation_wait": ("iterations", 20),
    "fig6": ("iterations", 50),
    "l3": ("repeat", 4),
    "sec61": ("iterations", 40),
    "table1": ("iterations", 50),
}

#: The cost models registered at this commit.
COST_MODELS = ("arm-flavour", "fast-switch", "riscv-flavour", "slow-ring",
               "xeon-paper")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def run_dir():
    """A scratch directory inside the checkout, removed on exit."""
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def sub(run, *parts):
    """``run/parts...``, created if missing."""
    path = os.path.join(run, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def isolated_env(pycache, scratch):
    """The environment every op runs in.

    Drops every ``REPRO_*`` and ``PYTHON*`` variable the caller's shell
    may hold, so a leftover kernel, sanitizer or bytecode setting cannot
    change the measured program, then points bytecode, the native
    build cache and temp files at directories the run owns.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = pycache
    env["REPRO_BATCH_CACHE"] = os.path.join(scratch, "batch")
    env["TMPDIR"] = scratch
    return env


#: Imports every module of the program, so that the standard library
#: modules it uses are compiled into the bytecode prefix.
_IMPORT_PROGRAM = """
import importlib, pkgutil, repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):
        try:
            importlib.import_module(info.name)
        except Exception:
            pass
"""


def fresh_pycache(run, tag):
    """A bytecode prefix for one set-up that holds only the standard
    library's bytecode, so that the set-up compiles the program afresh.

    An empty prefix would make every process compile the standard
    library too, which an installed Python never does (its library
    ships compiled); on the development host that took over half of a
    server boot and most of its run-to-run spread.  The library's
    bytecode is compiled once per run, untimed, by importing every
    module of the program; the program's own bytecode is then deleted.
    """
    stdlib = os.path.join(run, "stdlib-pycache")
    if not os.path.isdir(stdlib):
        subprocess.run([sys.executable, "-c", _IMPORT_PROGRAM],
                       env=isolated_env(stdlib, sub(run, "stdlib-tmp")),
                       cwd=ROOT, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       check=False, timeout=120)
        os.makedirs(stdlib, exist_ok=True)
        shutil.rmtree(os.path.join(stdlib, ROOT.lstrip(os.sep)),
                      ignore_errors=True)
    path = os.path.join(run, tag, "pycache")
    shutil.copytree(stdlib, path)
    return path


def fork_map(fn, items):
    """``fn(item)`` for every item, each in its own fork, all running at
    once.  Returns ``[(JSON reply or None on failure, max RSS kB)]`` in
    item order."""
    children = []
    for item in items:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                reply = fn(item)
                with os.fdopen(write_fd, "w") as out:
                    json.dump(reply, out)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_fd)
        children.append((pid, read_fd))
    results = []
    try:
        for pid, read_fd in children:
            with os.fdopen(read_fd) as inp:
                data = inp.read()
            _, status, usage = os.wait4(pid, 0)
            ok = os.waitstatus_to_exitcode(status) == 0 and data
            results.append((json.loads(data) if ok else None,
                            usage.ru_maxrss))
    except BaseException:               # stop and reap every fork
        for pid, _ in children[len(results):]:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except OSError:
                pass
        raise
    return results


def fork_call(fn):
    """``fn()`` in a fork: (its JSON reply or None, max RSS kB)."""
    return fork_map(lambda _: fn(), [None])[0]


# -- statistics --------------------------------------------------------------


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * 9 // 10) - 1)]


def summary(values):
    """Diagnostic digest of one op kind's samples."""
    return {"n": len(values), "median": statistics.median(values),
            "fastest": min(values), "p90": p90(values)}


# -- output checks -------------------------------------------------------------


def canonical_json(doc):
    """The program's canonical encoding (``repro.exp.result``)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def shape(doc):
    """Row labels per table and scalar keys: what a Result promises
    even when its numbers legitimately move."""
    return {
        "tables": [[table["title"], [row["label"] for row in table["rows"]]]
                   for table in doc.get("tables", [])],
        "scalars": sorted(doc.get("scalars", {})),
    }


def load_expected():
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def fingerprint(name, doc, expected):
    """What ``check`` compares for one Result document: the shape for
    experiments checked by shape, the canonical-JSON sha256 otherwise."""
    if name in expected["shapes"]:
        return shape(doc)
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def wanted(name, expected):
    """The expected fingerprint of ``name`` at default parameters."""
    if name in expected["shapes"]:
        return expected["shapes"][name]
    return expected["digests"].get(name)


def check(name, doc, expected):
    """True when one experiment's Result document is correct."""
    return fingerprint(name, doc, expected) == wanted(name, expected)
