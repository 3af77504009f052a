"""``repro serve`` never leaves a worker behind.

SIGTERM ends the server through the same cleanup as Ctrl-C (server
stop, then pool stop) and exits 0.  A server killed outright cannot
clean up, so each worker must notice on its own: it holds the only
copy of its pipe end, and exits at EOF.  Both cases run a real
``repro serve --jobs 2 --port 0`` process and find its workers in
``/proc``.  A server stopped with a request in flight closes that
connection, spawns no worker while it stops and logs nothing.
"""

import contextlib
import http.client
import json
import os
import select
import signal
import socket
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


@contextlib.contextmanager
def _serving(tmp_path, jobs):
    """A running ``repro serve --jobs <jobs> --port 0`` process, and its
    port; killed on the way out if it still runs."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--jobs", str(jobs),
         "--port", "0", "--cache-dir", str(tmp_path / "cache")],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    try:
        started, _, _ = select.select([server.stderr], [], [], BOOT_S)
        assert started, f"no banner within {BOOT_S:g} s"
        banner = server.stderr.readline()
        assert banner.startswith("repro serve on http://"), banner
        yield server, int(banner.split()[3].rpartition(":")[2])
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stderr.close()


@pytest.mark.parametrize("signum, exit_code", [
    (signal.SIGTERM, 0),
    (signal.SIGKILL, -signal.SIGKILL),
], ids=["SIGTERM", "SIGKILL"])
def test_no_worker_outlives_the_server(tmp_path, signum, exit_code):
    with _serving(tmp_path, jobs=2) as (server, _):
        workers = _children(server.pid)
        assert len(workers) == 2, workers
        server.send_signal(signum)
        assert server.wait(timeout=10) == exit_code
        give_up = time.monotonic() + WORKER_EXIT_S
        while (any(_running(pid) for pid in workers)
               and time.monotonic() < give_up):
            time.sleep(0.05)
        assert [pid for pid in workers if _running(pid)] == []


def _inflight(port):
    """Requests the server is computing (its coalescing board)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        connection.request("GET", "/healthz")
        return json.loads(connection.getresponse().read())[
            "coalesce"]["inflight"]
    finally:
        connection.close()


def test_stopping_with_a_request_in_flight_is_clean(tmp_path):
    """SIGTERM while the only worker computes fig9: the connection
    closes, no worker is spawned, exit 0 and an empty log."""
    body = json.dumps({"kind": "experiment", "experiment": "fig9"})
    request = (f"POST /v1/request HTTP/1.1\r\nHost: test\r\n"
               f"Content-Length: {len(body)}\r\n\r\n{body}").encode()
    with _serving(tmp_path, jobs=1) as (server, port), \
            socket.create_connection(("127.0.0.1", port),
                                     timeout=10) as client:
        workers = set(_children(server.pid))
        assert len(workers) == 1, workers
        client.sendall(request)
        give_up = time.monotonic() + BOOT_S
        while _inflight(port) != 1:
            assert time.monotonic() < give_up, "fig9 never went in flight"
            time.sleep(0.01)
        server.send_signal(signal.SIGTERM)
        seen = set()
        while server.poll() is None:
            seen.update(_children(server.pid))
            time.sleep(0.005)
        assert server.returncode == 0
        assert seen - workers == set(), "a worker spawned while stopping"
        stderr = server.stderr.read()
        assert "Traceback" not in stderr, stderr
        assert "never retrieved" not in stderr, stderr
        assert client.recv(4096) == b""
