"""Minimal asyncio HTTP/1.1 transport for the experiment service.

Deliberately tiny (stdlib ``asyncio`` streams only, no new runtime
dependencies) and deliberately boring: one request per connection
(``Connection: close``), bounded header and body reads (oversized
input is a 413/431, never an unbounded buffer), no ``Date`` header so
response bytes are a pure function of response content.

Routes::

    GET  /healthz      liveness + full scoreboard (always 200)
    GET  /readyz       readiness (503 while overloaded)
    GET  /metrics      raw `repro.obs` metrics snapshot
    POST /v1/request   execute one ServeRequest body

Validation failures are 400s carrying the ConfigError message;
transport-level garbage closes the connection with the smallest
correct error we can produce.  :meth:`ServeHttp.stop` cancels the
connections still in flight, which close without a reply.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Optional, Set, Tuple

from repro.errors import ConfigError
from repro.serve.protocol import ServeRequest
from repro.serve.service import ExperimentService, Response

#: Bounds on what a client may send (bytes / header lines).
MAX_BODY_BYTES = 64 * 1024
MAX_HEADER_LINES = 64
MAX_LINE_BYTES = 8 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}


def render_response(response: Response) -> bytes:
    """Serialize one :class:`Response` to HTTP/1.1 wire bytes."""
    reason = _REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}",
             "Content-Type: application/json",
             f"Content-Length: {len(response.body)}",
             "Connection: close"]
    lines.extend(f"{name}: {value}"
                 for name, value in response.headers)
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("utf-8") + response.body


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One line, or ``None`` when it is over :data:`MAX_LINE_BYTES`.

    A line past the stream's own buffer limit (64 KiB) makes
    ``readline`` raise ``ValueError``; that is too long as well.
    """
    try:
        line = await reader.readline()
    except ValueError:
        return None
    return line if len(line) <= MAX_LINE_BYTES else None


class ServeHttp:
    """The asyncio stream server wrapping one ExperimentService."""

    def __init__(self, service: ExperimentService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Connection tasks in flight, for :meth:`stop` to cancel.
        self._connections: Set[Any] = set()

    async def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._accept, host=self.host, port=self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        """Stop accepting, then cancel the connections still in flight
        and wait until each has answered and closed."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        connections = list(self._connections)
        for task in connections:
            task.cancel()
        await asyncio.gather(*connections, return_exceptions=True)

    # -- one connection ---------------------------------------------------

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Run each connection as a task kept until it ends, for
        :meth:`stop` to cancel.  (Handed a coroutine, the stream server
        would make the task itself, and log its cancellation as an
        error.)"""
        task = asyncio.get_running_loop().create_task(
            self._handle(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            response = await self._respond(reader)
        except ConnectionError:
            response = None
        except Exception as error:  # noqa: BLE001 - must answer
            response = Response.json(
                500, {"error": f"{type(error).__name__}: {error}"})
        try:
            if response is not None:
                writer.write(render_response(response))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    async def _respond(self,
                       reader: asyncio.StreamReader) -> Response:
        request_line = await _read_line(reader)
        if request_line is None:
            return Response.json(431, {"error": "request line too "
                                                "long"})
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return Response.json(400, {"error": "malformed request "
                                                "line"})
        method, path = parts[0], parts[1]
        length, error = await self._read_headers(reader)
        if error is not None:
            return error
        if method == "GET":
            return self._get(path)
        if method == "POST":
            return await self._post(path, reader, length)
        return Response.json(405,
                             {"error": f"method {method} not allowed"})

    async def _read_headers(
            self, reader: asyncio.StreamReader,
    ) -> Tuple[int, Optional[Response]]:
        """Consume headers; returns (content_length, error_response)."""
        length = 0
        remaining_lines = MAX_HEADER_LINES
        while remaining_lines > 0:
            remaining_lines -= 1
            line = await _read_line(reader)
            if line is None:
                return 0, Response.json(
                    431, {"error": "header line too long"})
            if line in (b"\r\n", b"\n", b""):
                return length, None
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    return 0, Response.json(
                        400, {"error": "bad Content-Length"})
        return 0, Response.json(431, {"error": "too many headers"})

    def _get(self, path: str) -> Response:
        if path == "/healthz":
            return self.service.healthz()
        if path == "/readyz":
            return self.service.readyz()
        if path == "/metrics":
            return Response.json(200, self.service.metrics.snapshot())
        return Response.json(404, {"error": f"no route {path}"})

    async def _post(self, path: str, reader: asyncio.StreamReader,
                    length: int) -> Response:
        if path != "/v1/request":
            return Response.json(404, {"error": f"no route {path}"})
        if length > MAX_BODY_BYTES:
            return Response.json(
                413, {"error": f"body over {MAX_BODY_BYTES} bytes"})
        if length <= 0:
            return Response.json(400, {"error": "missing body"})
        body = await reader.readexactly(length)
        try:
            doc: Any = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return Response.json(400, {"error": "body is not JSON"})
        try:
            request = ServeRequest.parse(doc)
        except ConfigError as bad:
            return Response.json(400, {"error": str(bad)})
        return await self.service.submit(request)
