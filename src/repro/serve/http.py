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

Endpoints (see README "Serving"), one entry each in the route table
:data:`_ROUTES`:

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
from typing import Dict, Optional, Tuple, Union

from ..observability.live import live_add
from .admission import ShedError
from .service import CQAService
from .specs import PayloadError, Refusal, RenderedRows

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


def _json_body(body: bytes) -> Dict[str, object]:
    """The request body's JSON object; ``{}`` when it is empty."""
    if not body:
        return {}
    try:
        # No NaN or infinity: the server could never send one back.
        payload = json.loads(
            body.decode("utf-8"),
            parse_constant=_reject_constant,
            parse_float=_finite_float,
        )
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise PayloadError(f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise PayloadError("JSON body must be an object")
    return payload


@dataclass(frozen=True)
class _Route:
    """One route: the name of the service handler it calls, looked up
    on the service at each call (so a handler patched on its class is
    the one called), and how the server calls it."""

    handler: str
    #: Read the body as a JSON object: the handler's last argument.
    body: bool = False
    #: Run on the handler executor: the handler may block on
    #: admission, a pipe, SQLite, a long poll, an fsync or a compaction.
    offload: bool = False
    #: Shed with 429 ``server-busy`` while every handler thread is busy.
    valve: bool = False


#: Method and path shape -> route.  A ``*`` in a shape stands for a
#: database name, the handler's first argument: whatever the path holds
#: between the shape's text before and after it.
_ROUTES: Dict[Tuple[str, str], _Route] = {
    ("POST", "/v1/cqa"): _Route(
        "handle_cqa", body=True, offload=True, valve=True
    ),
    ("POST", "/v1/repairs"): _Route(
        "handle_repairs", body=True, offload=True, valve=True
    ),
    ("GET", "/healthz"): _Route("health"),
    ("GET", "/status"): _Route("handle_status"),
    ("GET", "/metrics"): _Route("handle_metrics"),
    ("GET", "/v1/db"): _Route("list_dbs"),
    ("GET", "/v1/db/*/report"): _Route("handle_report", offload=True),
    ("POST", "/v1/db/*/mutate"): _Route(
        "handle_mutate", body=True, offload=True
    ),
    ("PUT", "/v1/db/*"): _Route("register_db", body=True, offload=True),
    ("DELETE", "/v1/db/*"): _Route("remove_db", offload=True),
    ("GET", "/v1/replica/status"): _Route("handle_replica_status"),
    ("POST", "/v1/replica/pull"): _Route(
        "handle_replica_pull", body=True, offload=True
    ),
    ("POST", "/v1/replica/promote"): _Route(
        "handle_replica_promote", body=True, offload=True
    ),
    ("POST", "/v1/replica/fence"): _Route(
        "handle_replica_fence", body=True, offload=True
    ),
}


def _route_of(method: str, path: str) -> Tuple[_Route, Tuple[str, ...]]:
    """The route of *method* on *path*, with the database name the
    path gives its shape's ``*``.  A path under ``/v1/db/`` or
    ``/v1/replica/`` that no route of *method* takes is refused with
    405, any other with 404."""
    for (route_method, shape), route in _ROUTES.items():
        if route_method != method:
            continue
        head, star, tail = shape.partition("*")
        if not star:
            if path == shape:
                return route, ()
        elif (
            path.startswith(head)
            and path.endswith(tail)
            and len(path) >= len(head) + len(tail)
        ):
            return route, (path[len(head):len(path) - len(tail)],)
    if path.startswith(("/v1/db/", "/v1/replica/")):
        raise Refusal(405, {"error": f"{method} not allowed"})
    raise Refusal(404, {"error": f"no route {method} {path}"})


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
                except PayloadError as refusal:
                    await self._respond(
                        writer, refusal.status, refusal.body, close=True
                    )
                    break
                if request is None:  # clean EOF between requests
                    break
                method, path, headers, body = request
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
        """Parse one request: ``(method, path, headers, body)``, None on
        EOF; a request that cannot be read is a :class:`PayloadError`,
        answered with a 400 that closes the connection."""
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = (
                line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise PayloadError("malformed request line") from None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if not line:
                raise PayloadError("truncated headers")
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            raise PayloadError("bad Content-Length") from None
        if length > self.config.max_body_bytes:
            raise PayloadError("body too large")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise PayloadError("truncated body") from None
        return method, path, headers, body

    # -- routing -------------------------------------------------------

    async def _route(
        self, method: str, path: str, headers, body: bytes
    ) -> Tuple[int, Union[Dict[str, object], str], Dict[str, str], bool]:
        keep_alive = (
            headers.get("connection", "keep-alive").lower() != "close"
            and not self._stopping
        )
        try:
            route, args = _route_of(method, path.split("?", 1)[0])
            if route.body:
                args += (_json_body(body),)
            if route.valve and self._inflight >= self.config.max_inflight:
                # Server-level valve: all handler threads busy.  Shed
                # with admission's shape and a Retry-After from the
                # admission controller's backlog estimate.
                live_add("serve.requests")
                live_add("serve.requests.shed")
                live_add("serve.shed.server-busy")
                raise ShedError(
                    "server-busy", self.service.admission.retry_after_hint()
                )
            handler = getattr(self.service, route.handler)
            if route.offload:
                status, payload, extra = await self._offload(handler, *args)
            else:
                status, payload, extra = handler(*args)
        except Refusal as refusal:
            status, payload, extra = (
                refusal.status, refusal.body, refusal.headers
            )
        return status, payload, extra, keep_alive

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

    async def _respond(
        self,
        writer,
        status: int,
        payload: Union[Dict[str, object], str],
        extra_headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> bool:
        """Write one response, a JSON object or text; True when the
        connection must close.  A body that cannot be encoded gets the
        handler firewall's 500 and closes the connection."""
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain"
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
