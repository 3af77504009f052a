"""``serve-mixed``: two closed-loop clients against ``repro serve``.

Set-up starts ``python -m repro serve --jobs 1`` on a free port with an
empty result cache, waits for ``/readyz`` and sends one untimed request
per cheap experiment, which compiles the bytecode the worker imports.
The timed phase runs two clients on one asyncio loop in the harness,
each sending the next request of the seeded list as soon as its last
one completes.  Bodies are checked against the program's own
``repro.serve.pool.compute_body`` after the timed phase.

Placement: the harness and the server share the first CPU the run may
use and the worker gets the last, so no process migrates.  The timed
phase runs in bursts of ``BURST_S`` seconds; between bursts both clients
are idle and the harness probes every CPU (:func:`probe.host_probe`).
A request's latency is normalized by the mean of the probes before and
after its burst.  Set-up is normalized piece by piece the same way.
"""

import asyncio
import functools
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

from perfbench import common, probe

HOST = "127.0.0.1"

#: Seconds to wait for the server to print its port and turn ready.
BOOT_TIMEOUT_S = 60.0

#: Length of one burst of the timed phase, seconds.
BURST_S = 0.5


async def http_request(port, method, path, doc=None):
    """One request on a fresh connection: (status, headers, body)."""
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        payload = b"" if doc is None else json.dumps(doc).encode()
        writer.write((f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
                      f"Content-Length: {len(payload)}\r\n"
                      "Content-Type: application/json\r\n"
                      "Connection: close\r\n\r\n").encode() + payload)
        await writer.drain()
        head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
        lines = head.split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name:
                headers[name.strip().lower()] = value.strip()
        body = await reader.readexactly(int(headers.get("content-length",
                                                        "0")))
    finally:
        writer.close()
        await writer.wait_closed()
    return int(lines[0].split()[1]), headers, body


def request(port, method, path, doc=None):
    return asyncio.run(http_request(port, method, path, doc))


class Server:
    """One ``repro serve`` process (plain or under the trace launcher)."""

    def __init__(self, argv, env, log_path):
        self.log_path = log_path
        self.log = open(log_path, "wb")
        self.process = subprocess.Popen(argv, env=env,
                                        stdin=subprocess.DEVNULL,
                                        stdout=self.log, stderr=self.log,
                                        cwd=common.ROOT,
                                        start_new_session=True)
        self.port = None

    def wait_ready(self):
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while self.port is None:
            self._check_alive(deadline)
            with open(self.log_path) as handle:
                for line in handle:
                    if line.startswith("repro serve on http://"):
                        self.port = int(line.split(":")[2].split()[0])
            time.sleep(0.01)
        while True:
            self._check_alive(deadline)
            try:
                if request(self.port, "GET", "/readyz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)

    def _check_alive(self, deadline):
        if self.process.poll() is not None:
            raise RuntimeError(f"repro serve exited with "
                               f"{self.process.returncode}")
        if time.monotonic() > deadline:
            raise RuntimeError("repro serve did not become ready")

    def workers(self):
        task = f"/proc/{self.process.pid}/task/{self.process.pid}/children"
        try:
            with open(task) as handle:
                return [int(pid) for pid in handle.read().split()]
        except OSError:
            return []

    def peak_rss_kb(self):
        """Server plus worker ``VmHWM``."""
        total = 0
        for pid in [self.process.pid] + self.workers():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total

    def stop(self):
        """Interrupt, wait, and kill if it lingers; idempotent."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def warm_up_requests():
    return [{"kind": "experiment", "experiment": name, "params": {}}
            for name in sorted(common.CHEAP)]


def boot(argv, env, log_path, cpus):
    """Start a server on the first of ``cpus`` (with the harness), move
    its worker to the last, wait for ``/readyz`` and send the warm-up
    requests one at a time.

    Returns ``(server, set-up, warm-up samples)``.  The set-up (see
    :func:`probe.total`) is timed piece by piece, the boot and then each
    warm-up request, each piece between two probes.
    """
    front, back = cpus[0], cpus[-1]
    os.sched_setaffinity(0, {front})      # the server inherits it
    host_probe = functools.partial(probe.host_probe, cpus)
    servers = []

    def start():
        servers.append(Server(argv, env, log_path))
        servers[0].wait_ready()

    try:
        pieces = [probe.timed(start, host_probe)[0]]
        server = servers[0]
        for pid in server.workers():
            os.sched_setaffinity(pid, {back})
        warm = warm_up_requests()
        samples = []
        for index in range(len(warm)):
            piece, sample = probe.timed(
                lambda i=index: asyncio.run(send(server.port, warm, i)),
                host_probe)
            pieces.append(piece)
            samples.append(sample)
    except BaseException:
        for server in servers:
            server.stop()
        raise
    return server, probe.total(pieces), samples


async def send(port, requests, index):
    """POST ``requests[index]``.  Returns a sample: index, status,
    source, seconds and the body's sha256."""
    started = time.perf_counter()
    status, headers, body = await http_request(
        port, "POST", "/v1/request", requests[index])
    return {"index": index, "status": status,
            "source": headers.get("x-repro-source", ""),
            "seconds": time.perf_counter() - started,
            "sha256": hashlib.sha256(body).hexdigest()}


async def drive(port, requests, clients, seconds=None, cpus=()):
    """Send ``requests`` from ``clients`` closed-loop clients.

    By default every request is sent, one wave of ``clients`` at a time
    (each wave completes before the next starts).  With ``seconds`` the
    clients instead run free, in bursts of ``BURST_S`` with a probe of
    every one of ``cpus`` between bursts, until ``seconds`` pass or the
    list runs out.

    Returns one sample per request (see :func:`send`), with
    ``seconds`` also the burst's mean probe and normalized seconds.
    """
    loop = asyncio.get_running_loop()
    samples = []
    cursor = 0

    async def one(index):
        sample = await send(port, requests, index)
        samples.append(sample)
        return sample

    if seconds is None:
        for start in range(0, len(requests), clients):
            await asyncio.gather(*(one(index) for index in
                                   range(start, min(start + clients,
                                                    len(requests)))))
        return samples

    # The server runs one worker, so a second new point in flight would
    # only queue behind the first, and a miss's latency would depend on
    # what the other client happened to compute.  A client holding a new
    # point waits, untimed, until no other new point is in flight.
    new = set()
    seen = set()
    for index, doc in enumerate(requests):
        key = json.dumps(doc, sort_keys=True)
        if key not in seen:
            seen.add(key)
            new.add(index)
    computing = asyncio.Lock()

    async def client(burst_end, burst):
        nonlocal cursor
        while cursor < len(requests) and loop.time() < burst_end:
            index = cursor
            cursor += 1
            if index in new:
                async with computing:
                    burst.append(await one(index))
            else:
                burst.append(await one(index))

    run_end = loop.time() + seconds
    before = probe.host_probe(cpus)
    while loop.time() < run_end and cursor < len(requests):
        burst = []
        burst_end = min(run_end, loop.time() + BURST_S)
        await asyncio.gather(*(client(burst_end, burst)
                               for _ in range(clients)))
        after = probe.host_probe(cpus)
        for sample in burst:
            sample["probe_s"] = (before + after) / 2
            sample["normalized_s"] = probe.normalize(sample["seconds"],
                                                     sample["probe_s"])
        before = after
    return samples


def health(port):
    status, _, body = request(port, "GET", "/healthz")
    return json.loads(body) if status == 200 else {}


def expected_bodies(docs):
    """sha256 of the program's ``compute_body`` for each request (None
    when it raises, which fails every op that sent the request)."""
    if common.SRC not in sys.path:
        sys.path.insert(0, common.SRC)
    from repro.serve.pool import compute_body
    from repro.serve.protocol import ServeRequest

    digests = []
    for doc in docs:
        try:
            req = ServeRequest.parse(doc)
            body = compute_body(req.kind, req.experiment, req.params_dict)
            digests.append(hashlib.sha256(body.encode()).hexdigest())
        except Exception:   # noqa: BLE001 - a failed op, not a crash
            digests.append(None)
    return digests


def verify(requests, samples, cpus):
    """Mark each sample ``ok``: status 200 and the body the program's
    ``compute_body`` gives for the same request.  Each distinct request
    is computed once, after the timed phase, in one fork per CPU."""
    keys = sorted({json.dumps(requests[s["index"]], sort_keys=True)
                   for s in samples})
    parts = [keys[index::len(cpus)] for index in range(len(cpus))]

    def check_part(index):
        os.sched_setaffinity(0, {cpus[index]})
        return expected_bodies([json.loads(key) for key in parts[index]])

    expected = {}
    for part, (digests, _) in zip(parts, common.fork_map(
            check_part, range(len(cpus)))):
        if digests is None:
            raise RuntimeError("checking served bodies failed")
        expected.update(zip(part, digests))
    for sample in samples:
        key = json.dumps(requests[sample["index"]], sort_keys=True)
        sample["ok"] = (sample["status"] == 200
                        and sample["sha256"] == expected[key])
    return samples


def serve_argv(launcher_trace_dir, cache_dir):
    args = ["serve", "--jobs", "1", "--port", "0", "--host", HOST,
            "--cache-dir", cache_dir]
    if launcher_trace_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, "-m", "perfbench.launch", "--trace-dir",
            launcher_trace_dir, "--", *args]


def new_server(run, tag, cpus, trace_dir=None):
    env = common.isolated_env(common.fresh_pycache(run, tag),
                              common.sub(run, tag, "tmp"))
    argv = serve_argv(trace_dir, common.sub(run, tag, "cache"))
    return boot(argv, env, os.path.join(common.sub(run, tag), "serve.log"),
                cpus)
