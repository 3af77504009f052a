"""``repro serve`` never leaves a worker behind.

SIGTERM ends the server through the same cleanup as Ctrl-C (server
stop, then pool stop) and exits 0.  A server killed outright cannot
clean up, so each worker must notice on its own: it holds the only
copy of its pipe end, and exits at EOF.  Both cases run a real
``repro serve --jobs 2 --port 0`` process and find its workers in
``/proc``.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="finds the workers in /proc")

#: How long the server may take to start, and its workers to exit
#: after it ends.
BOOT_S = 30.0
WORKER_EXIT_S = 5.0


def _stat_fields(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name."""
    text = Path(f"/proc/{pid}/stat").read_text()
    return text.rpartition(")")[2].split()


def _children(pid):
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            parent = int(_stat_fields(entry.name)[1])
        except OSError:
            continue
        if parent == pid:
            children.append(int(entry.name))
    return children


def _running(pid):
    """Whether ``pid`` still runs (a zombie has exited)."""
    try:
        return _stat_fields(pid)[0] != "Z"
    except OSError:
        return False


@pytest.mark.parametrize("signum, exit_code", [
    (signal.SIGTERM, 0),
    (signal.SIGKILL, -signal.SIGKILL),
], ids=["SIGTERM", "SIGKILL"])
def test_no_worker_outlives_the_server(tmp_path, signum, exit_code):
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--jobs", "2",
         "--port", "0", "--cache-dir", str(tmp_path / "cache")],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    try:
        started, _, _ = select.select([server.stderr], [], [], BOOT_S)
        assert started, f"no banner within {BOOT_S:g} s"
        banner = server.stderr.readline()
        assert banner.startswith("repro serve on http://"), banner
        workers = _children(server.pid)
        assert len(workers) == 2, workers
        server.send_signal(signum)
        assert server.wait(timeout=10) == exit_code
        give_up = time.monotonic() + WORKER_EXIT_S
        while (any(_running(pid) for pid in workers)
               and time.monotonic() < give_up):
            time.sleep(0.05)
        assert [pid for pid in workers if _running(pid)] == []
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stderr.close()
