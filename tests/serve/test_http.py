"""ServeHttp: transport framing, routes, and input bounds."""

import asyncio
import json

import pytest

from repro.exp import registry
from repro.exp.cache import ResultCache
from repro.serve.http import MAX_BODY_BYTES, ServeHttp, render_response
from repro.serve.loadtest import http_request
from repro.serve.pool import WorkerPool
from repro.serve.service import HEALTH_SCHEMA, ExperimentService, Response


def setup_module():
    registry.ensure_loaded()


def over_http(tmp_path, scenario, jobs=1):
    """Boot a real server on an ephemeral port, run the scenario."""
    pool = WorkerPool(jobs=jobs)
    service = ExperimentService(ResultCache(tmp_path), pool)
    server = ServeHttp(service)
    pool.start()

    async def main():
        host, port = await server.start()
        try:
            return await scenario(host, port)
        finally:
            await server.stop()

    try:
        return asyncio.run(main())
    finally:
        pool.stop()


def test_render_response_has_no_date_header():
    wire = render_response(Response.json(200, {"a": 1}, **{"X-K": "v"}))
    head, _, body = wire.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
    assert b"Date:" not in head
    assert b"Connection: close" in head
    assert b"X-K: v" in head
    assert f"Content-Length: {len(body)}".encode() in head


def test_health_ready_and_metrics_routes(tmp_path):
    async def scenario(host, port):
        status, _, body = await http_request(host, port, "GET",
                                             "/healthz")
        assert status == 200
        assert json.loads(body)["schema"] == HEALTH_SCHEMA
        status, headers, _ = await http_request(host, port, "GET",
                                                "/readyz")
        assert status == 200
        status, _, body = await http_request(host, port, "GET",
                                             "/metrics")
        assert status == 200
        json.loads(body)

    over_http(tmp_path, scenario)


def test_unknown_routes_and_methods(tmp_path):
    async def scenario(host, port):
        status, _, _ = await http_request(host, port, "GET", "/nope")
        assert status == 404
        status, _, _ = await http_request(host, port, "POST",
                                          "/nope", {})
        assert status == 404
        status, _, _ = await http_request(host, port, "PUT",
                                          "/v1/request", {})
        assert status == 405

    over_http(tmp_path, scenario)


def test_bad_bodies_are_400s(tmp_path):
    async def scenario(host, port):
        # Missing body.
        status, _, _ = await http_request(host, port, "POST",
                                          "/v1/request")
        assert status == 400
        # Unknown experiment -> strict validation 400.
        status, _, body = await http_request(
            host, port, "POST", "/v1/request",
            {"kind": "experiment", "experiment": "no-such"})
        assert status == 400
        assert "no-such" in json.loads(body)["error"]
        # Parameter typo -> 400, never a silent default run.
        status, _, _ = await http_request(
            host, port, "POST", "/v1/request",
            {"kind": "experiment", "experiment": "table1",
             "params": {"iterrations": 3}})
        assert status == 400
        # An unknown kind (bench documents are not served) -> 400.
        status, _, body = await http_request(
            host, port, "POST", "/v1/request", {"kind": "bench"})
        assert status == 400
        assert "bench" in json.loads(body)["error"]

    over_http(tmp_path, scenario)


def test_oversized_bodies_are_413(tmp_path):
    async def scenario(host, port):
        padding = "x" * (MAX_BODY_BYTES + 1)
        status, _, _ = await http_request(
            host, port, "POST", "/v1/request", {"pad": padding})
        assert status == 413

    over_http(tmp_path, scenario)


async def raw_status(host, port, wire):
    """Send raw request bytes; the status code of the reply."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(wire)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout=10)
    finally:
        writer.close()
    return int(raw.split(b" ", 2)[1])


@pytest.mark.parametrize("kib", [10, 70])
@pytest.mark.parametrize("where", ["request line", "header line"])
def test_overlong_lines_are_431(tmp_path, where, kib):
    """Past MAX_LINE_BYTES is a 431, and so is a line past the stream
    reader's own 64 KiB limit, which ``readline`` reports by raising
    ``ValueError``."""
    pad = "x" * (kib * 1024)
    if where == "request line":
        wire = f"GET /{pad} HTTP/1.1\r\nHost: h\r\n\r\n"
    else:
        wire = f"GET /healthz HTTP/1.1\r\nX-Pad: {pad}\r\n\r\n"

    async def scenario(host, port):
        status = await raw_status(host, port, wire.encode("latin-1"))
        healthz, _, _ = await http_request(host, port, "GET",
                                           "/healthz")
        return status, healthz

    assert over_http(tmp_path, scenario) == (431, 200)


def test_raw_garbage_gets_a_400_not_a_hang(tmp_path):
    async def scenario(host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"NONSENSE\r\n\r\n")
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout=10)
        writer.close()
        assert b"400 Bad Request" in raw

    over_http(tmp_path, scenario)


def test_post_round_trip_serves_result_bytes(tmp_path):
    from repro.exp.registry import RunContext

    exp = registry.get("table1")
    params = exp.resolve(exp.smoke)
    expected = exp.run(RunContext.create(params)).to_json()

    async def scenario(host, port):
        status, headers, body = await http_request(
            host, port, "POST", "/v1/request",
            {"kind": "experiment", "experiment": "table1",
             "params": dict(exp.smoke)})
        assert status == 200
        assert headers["x-repro-source"] == "computed"
        assert headers["x-repro-fingerprint"]
        return body

    body = over_http(tmp_path, scenario)
    assert body == expected.encode("utf-8")
