"""The perf contract: every experiment's exact host-work counts.

Wall clocks on a shared machine move 10–40% between runs; call counts
do not.  ``tests/host_work.py`` counts, in a fresh interpreter, the
calls each registered experiment makes at default parameters to the
simulator's layer entry points (the nested exit path, the VMCS and EPT,
the switch engine, the machine, the rings, the charging calls, the
memcached service measurement and the native queue loop).  This test
compares them exactly with ``tests/golden/host_work.json``.

A drift names the experiment and the counter.  When a change means to
add or remove host work, ``pytest --update-golden`` rewrites the file,
and its diff shows the calls added or removed.  Time itself is
measured by ``perfbench/`` (docs/performance.md).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from tests.conftest import HostWork

SCRIPT = Path(__file__).with_name("host_work.py")


def _measure():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(SCRIPT)], env=env,
                          capture_output=True, text=True, check=False,
                          timeout=100)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_host_work_matches_the_pinned_counts(golden):
    counts = _measure()
    if golden.update:
        golden.check("host_work", counts, rel_tol=None)
        return
    pinned = golden.load("host_work")
    drift = [f"{name}: {line}"
             for name in sorted(set(counts) | set(pinned))
             for line in HostWork(counts.get(name, {})).drift(
                 pinned.get(name, {}))]
    if drift:
        pytest.fail("host work drifted from golden/host_work.json:\n  "
                    + "\n  ".join(drift)
                    + "\nIf the change is intentional, regenerate with "
                      "pytest --update-golden")
