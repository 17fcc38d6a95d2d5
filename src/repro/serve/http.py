"""Minimal asyncio HTTP/1.1 server over :class:`CQAService`.

Stdlib only: ``asyncio.start_server`` accepts connections on one event
loop; request *parsing* happens on the loop, request *handling* runs on
a bounded ``ThreadPoolExecutor`` (the service's handlers are blocking —
they wait on admission, pipes, and SQLite).  The executor bound plus a
global in-flight counter is the server-level backpressure valve: when
every handler thread is busy the server sheds with a well-formed 429
*before* touching admission, so the event loop itself can never be
starved by slow handlers and a listener backlog can never morph into
unbounded memory.

Protocol support is deliberately narrow — HTTP/1.1, JSON bodies,
``Content-Length`` framing (no chunked encoding), keep-alive — exactly
what the load generator and a curl-wielding operator need, and nothing
that would drag in a dependency.  A CQA answer arrives already encoded
(:class:`~repro.serve.specs.RenderedRows`) and is spliced into its body
verbatim; a body that cannot be encoded is a 500 that closes the
connection, never a dropped one.

Endpoints (see README "Serving"):

====== ============================ =====================================
GET    /healthz                     readiness (503 while recovering)
GET    /status                      live-plane status + store stats
GET    /metrics                     Prometheus-style exposition
GET    /v1/db                       list registered databases
PUT    /v1/db/<name>                register a database (JSON spec)
DELETE /v1/db/<name>                remove a database
POST   /v1/db/<name>/mutate         durable tuple insert/delete delta
GET    /v1/db/<name>/report         inconsistency report
POST   /v1/cqa                      consistent answers (budgeted)
POST   /v1/repairs                  repair enumeration (budgeted)
POST   /v1/replica/pull             WAL shipping long-poll (followers)
POST   /v1/replica/promote          follower → primary (fenced epoch)
POST   /v1/replica/fence            demote by epoch (operator/peer)
GET    /v1/replica/status           role, lag, epoch, follower table
====== ============================ =====================================

Graceful shutdown: ``stop()`` first flips the service to ``draining``
(``/healthz`` answers 503 so load balancers stop routing), then stops
accepting, gives in-flight requests a drain window, and closes the
service (which stops replication and drains the worker pool).
"""

from __future__ import annotations

import asyncio
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..observability.live import live_add, live_installed, live_plane
from ..observability.live.expo import prometheus_text
from .service import CQAService
from .specs import RenderedRows

__all__ = ["CQAHTTPServer", "ServerConfig"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _json_text(payload: Dict[str, object]) -> str:
    """``json.dumps(payload, sort_keys=True, allow_nan=False)`` of a body
    with string keys, with the JSON text of each :class:`RenderedRows`
    value spliced in verbatim."""
    return "{" + ", ".join(
        json.dumps(name) + ": " + (
            value.json
            if isinstance(value, RenderedRows)
            else json.dumps(value, sort_keys=True, allow_nan=False)
        )
        for name, value in sorted(payload.items())
    ) + "}"


def _internal(exc: Exception) -> Dict[str, object]:
    return {"error": f"internal: {type(exc).__name__}: {exc}"}


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"{text} is out of a float's range")
    return value


@dataclass(frozen=True)
class ServerConfig:
    """Transport-level tunables."""

    host: str = "127.0.0.1"
    port: int = 8145
    #: Handler threads; also the global in-flight cap for budgeted
    #: endpoints (the server-level backpressure valve).
    max_inflight: int = 8
    #: Reject request bodies larger than this (bytes).
    max_body_bytes: int = 8 * 1024 * 1024
    #: Per-connection idle read timeout before the server hangs up.
    idle_timeout_s: float = 30.0
    #: Drain window for in-flight requests on graceful stop.
    drain_timeout_s: float = 10.0


class CQAHTTPServer:
    """One service, one listener, one bounded executor."""

    def __init__(
        self,
        service: CQAService,
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.service = service
        self.config = config or ServerConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._inflight = 0
        self._stopping = False

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`; port 0 in
        the config means "pick a free one")."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="serve-handler",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Graceful: stop accepting, drain in-flight, close the pool."""
        self._stopping = True
        # Flip /healthz to 503 "draining" *before* the listener closes
        # so load balancers stop routing during the drain window.
        self.service.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = (
            asyncio.get_event_loop().time() + self.config.drain_timeout_s
        )
        while (
            self._inflight > 0
            and asyncio.get_event_loop().time() < deadline
        ):
            await asyncio.sleep(0.05)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
        loop = asyncio.get_event_loop()
        # Pool drain joins worker processes; keep it off the loop.
        await loop.run_in_executor(None, self.service.close)

    # -- connection handling ------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader),
                        timeout=self.config.idle_timeout_s,
                    )
                except asyncio.TimeoutError:
                    break
                if request is None:  # clean EOF between requests
                    break
                method, path, headers, body, parse_error = request
                if parse_error is not None:
                    await self._respond(
                        writer, 400, {"error": parse_error}, close=True
                    )
                    break
                try:
                    status, payload, extra, keep_alive = await self._route(
                        method, path, headers, body
                    )
                except Exception as exc:  # noqa: BLE001 — handler firewall
                    # An answer, not a dropped connection.
                    status, payload, extra, keep_alive = (
                        500, _internal(exc), {}, False
                    )
                if await self._respond(
                    writer,
                    status,
                    payload,
                    extra_headers=extra,
                    close=not keep_alive,
                ):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 — already gone
                pass

    async def _read_request(self, reader):
        """Parse one request; None on EOF, or a tuple whose last slot
        carries a parse-error message for a 400."""
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = (
                line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            return "", "", {}, b"", "malformed request line"
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line:
                return "", "", {}, b"", "truncated headers"
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            return method, path, headers, b"", "bad Content-Length"
        if length > self.config.max_body_bytes:
            return method, path, headers, b"", "body too large"
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return method, path, headers, b"", "truncated body"
        return method, path, headers, body, None

    # -- routing -------------------------------------------------------

    async def _route(
        self, method: str, path: str, headers, body: bytes
    ) -> Tuple[int, Dict[str, object], Dict[str, str], bool]:
        keep_alive = (
            headers.get("connection", "keep-alive").lower() != "close"
            and not self._stopping
        )
        path = path.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            status, payload, extra = self.service.health()
            return status, payload, extra, keep_alive
        if method == "GET" and path == "/status":
            return 200, self._status_doc(), {}, keep_alive
        if method == "GET" and path == "/metrics":
            doc = prometheus_text(self._status_doc())
            return (
                200,
                {"__raw__": doc, "__content_type__": "text/plain"},
                {},
                keep_alive,
            )
        if method == "GET" and path == "/v1/db":
            status, payload, extra = self.service.list_dbs()
            return status, payload, extra, keep_alive
        if path.startswith("/v1/db/"):
            rest = path[len("/v1/db/"):]
            if method == "GET" and rest.endswith("/report"):
                name = rest[: -len("/report")]
                status, payload, extra = await self._offload(
                    self.service.handle_report, name
                )
                return status, payload, extra, keep_alive
            # Offloaded: an append may block on fsync, and a PUT also
            # parses the whole spec and may compact the store.
            if method == "POST" and rest.endswith("/mutate"):
                name = rest[: -len("/mutate")]
                payload_obj, error = self._parse_json(body)
                if error:
                    return 400, {"error": error}, {}, keep_alive
                status, payload, extra = await self._offload(
                    self.service.handle_mutate, name, payload_obj
                )
                return status, payload, extra, keep_alive
            if method == "PUT":
                payload_obj, error = self._parse_json(body)
                if error:
                    return 400, {"error": error}, {}, keep_alive
                status, payload, extra = await self._offload(
                    self.service.register_db, rest, payload_obj
                )
                return status, payload, extra, keep_alive
            if method == "DELETE":
                status, payload, extra = await self._offload(
                    self.service.remove_db, rest
                )
                return status, payload, extra, keep_alive
            return 405, {"error": f"{method} not allowed"}, {}, keep_alive
        if path.startswith("/v1/replica/"):
            action = path[len("/v1/replica/"):]
            if method == "GET" and action == "status":
                status, payload, extra = (
                    self.service.handle_replica_status()
                )
                return status, payload, extra, keep_alive
            if method == "POST" and action in (
                "pull", "promote", "fence"
            ):
                payload_obj, error = self._parse_json(body)
                if error:
                    return 400, {"error": error}, {}, keep_alive
                handler = {
                    # Offloaded: pull long-polls, promote fsyncs.
                    "pull": self.service.handle_replica_pull,
                    "promote": self.service.handle_replica_promote,
                    "fence": self.service.handle_replica_fence,
                }[action]
                status, payload, extra = await self._offload(
                    handler, payload_obj
                )
                return status, payload, extra, keep_alive
            return 405, {"error": f"{method} not allowed"}, {}, keep_alive
        if method == "POST" and path in ("/v1/cqa", "/v1/repairs"):
            payload_obj, error = self._parse_json(body)
            if error:
                return 400, {"error": error}, {}, keep_alive
            handler = (
                self.service.handle_cqa
                if path == "/v1/cqa"
                else self.service.handle_repairs
            )
            if self._inflight >= self.config.max_inflight:
                # Server-level valve: all handler threads busy.  Shed
                # with the same well-formed shape admission uses, and
                # a Retry-After derived from the admission
                # controller's backlog estimate (echoed verbatim in
                # the body so clients and proxies agree).
                live_add("serve.requests")
                live_add("serve.requests.shed")
                live_add("serve.shed.server-busy")
                retry_after = self.service.admission.retry_after_hint()
                return (
                    429,
                    {
                        "error": "shed",
                        "reason": "server-busy",
                        "retry_after_s": round(retry_after, 3),
                    },
                    {
                        "Retry-After": str(
                            max(1, int(round(retry_after)))
                        ),
                    },
                    keep_alive,
                )
            status, payload, extra = await self._offload(
                handler, payload_obj
            )
            return status, payload, extra, keep_alive
        return 404, {"error": f"no route {method} {path}"}, {}, keep_alive

    async def _offload(self, handler, *args):
        """Run a blocking handler on the executor, tracking in-flight."""
        loop = asyncio.get_event_loop()
        self._inflight += 1
        try:
            return await loop.run_in_executor(
                self._executor, handler, *args
            )
        finally:
            self._inflight -= 1

    def _status_doc(self) -> Dict[str, object]:
        if live_installed():
            doc = dict(live_plane().status())
        else:
            doc = {"schema": None, "note": "live telemetry not installed"}
        doc["phase"] = self.service.phase
        doc["role"] = self.service.role
        if self.service.store is not None:
            # Snapshot age, WAL length, last-compaction stats — the
            # operator's durability dashboard.
            doc["store"] = self.service.store.stats()
            doc["replication"] = self.service.replication()
        return doc

    @staticmethod
    def _parse_json(body: bytes):
        if not body:
            return {}, None
        try:
            # No NaN or infinity: the server could never send one back.
            payload = json.loads(
                body.decode("utf-8"),
                parse_constant=_reject_constant,
                parse_float=_finite_float,
            )
        except (UnicodeDecodeError, ValueError) as exc:
            return None, f"invalid JSON body: {exc}"
        if not isinstance(payload, dict):
            return None, "JSON body must be an object"
        return payload, None

    async def _respond(
        self,
        writer,
        status: int,
        payload: Dict[str, object],
        extra_headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> bool:
        """Write one response; True when the connection must close.  A
        body that cannot be encoded gets the handler firewall's 500 and
        closes the connection."""
        if "__raw__" in payload:
            body = str(payload["__raw__"]).encode("utf-8")
            content_type = str(
                payload.get("__content_type__", "text/plain")
            )
        else:
            try:
                text = _json_text(payload)
            except Exception as exc:  # noqa: BLE001 — an answer, not a drop
                status, extra_headers, close = 500, None, True
                text = _json_text(_internal(exc))
            body = text.encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        return close
