"""Load generator + soundness validator for the CQA server.

Stdlib asyncio HTTP/1.1 client driving ``POST /v1/cqa`` two ways:

* **closed loop** — ``concurrency`` workers, each with one keep-alive
  connection, issue ``total`` requests as fast as responses return.
  This measures the server's native throughput and latency profile.
* **open loop** — requests fire on a fixed schedule (``rate_per_s`` for
  ``duration_s``), regardless of how fast responses come back.  This is
  the overload instrument: at 2× capacity the arrival rate does not
  relent when the server slows, so the server must shed or degrade.

Every response is *validated*, not just counted, against the expected
certain-answer set when one is supplied:

* ``complete: true`` answers must equal the expected set exactly;
* ``complete: false`` (degraded) answers must be a subset — the anytime
  bracket's soundness contract;
* shed responses (429/503) must be well-formed: a JSON object with
  ``error: "shed"``, a ``reason``, a ``retry_after_s``, and a
  ``Retry-After`` header.

Anything else — a wrong answer, an unsound superset, a malformed shed —
counts in ``wrong``/``malformed``, and the CI overload gate fails the
build on a single occurrence (exit :data:`EXIT_UNSOUND`).  Every
latency is kept, so the reported p50/p90/p99 and mean are exact.

With ``mutation_rate > 0`` the workload is mixed read/write: a seeded
coin decides per request between the query and a unique-row insert via
``POST /v1/db/<db>/mutate``, which exercises the WAL append path under
the same pressure the reads create.  Mutations target
``mutate_relation`` — point it at a relation the query does *not*
mention (the crash drives use a dedicated ``Audit`` relation), or the
expected-answer validation would race the writes.  A 200 carrying an
``lsn`` counts as *durably acknowledged*: the crash-recovery gate holds
the server to exactly those.

With ``read_your_writes=True`` the mixer threads the highest durably
acked ``lsn`` into every subsequent read as ``min_lsn`` — the
staleness contract of the replication layer.  A 200 whose
``as_of_lsn`` is *below* the requested ``min_lsn`` is a read-your-
writes violation (``ryw_violations``, fails ``sound``); a typed 503
``stale-read`` refusal is honest and counts in ``stale_rejected``.
``read_port`` points the reads at a follower while mutations keep
hitting the primary — the replicated-read topology of the failover
drill.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..observability.metrics import percentile

__all__ = [
    "EXIT_UNSOUND",
    "LoadReport",
    "run_closed_loop",
    "run_open_loop",
]

#: CLI exit code for ``repro loadgen --check``: the server answered
#: wrongly (or shed malformedly) at least once.
EXIT_UNSOUND = 9


@dataclass
class LoadReport:
    """Tallies + latency profile of one load run."""

    sent: int = 0
    ok: int = 0
    degraded: int = 0
    shed: int = 0
    errors: int = 0
    wrong: int = 0
    malformed: int = 0
    transport_errors: int = 0
    mutations_sent: int = 0
    mutations_acked: int = 0
    #: Acked mutations whose response carried a WAL ``lsn`` (a durable
    #: server); the highest such lsn is ``last_lsn``.
    mutations_durable: int = 0
    last_lsn: Optional[int] = None
    #: Reads that carried a ``min_lsn`` bound.
    min_lsn_reads: int = 0
    #: 200s whose ``as_of_lsn`` fell below the requested ``min_lsn``
    #: — stale data served as if fresh; any occurrence is unsound.
    ryw_violations: int = 0
    #: Typed ``stale-read`` 503s — the honest refusal, never unsound.
    stale_rejected: int = 0
    elapsed_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    status_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def sound(self) -> bool:
        return (
            self.wrong == 0
            and self.malformed == 0
            and self.ryw_violations == 0
        )

    def to_dict(self) -> Dict[str, object]:
        completed = max(1e-9, self.elapsed_s)
        ordered = sorted(self.latencies_ms)
        return {
            "sent": self.sent,
            "ok": self.ok,
            "degraded": self.degraded,
            "shed": self.shed,
            "errors": self.errors,
            "wrong": self.wrong,
            "malformed": self.malformed,
            "transport_errors": self.transport_errors,
            "mutations_sent": self.mutations_sent,
            "mutations_acked": self.mutations_acked,
            "mutations_durable": self.mutations_durable,
            "last_lsn": self.last_lsn,
            "min_lsn_reads": self.min_lsn_reads,
            "ryw_violations": self.ryw_violations,
            "stale_rejected": self.stale_rejected,
            "elapsed_s": round(self.elapsed_s, 3),
            "throughput_rps": round(self.sent / completed, 2),
            "latency_ms": {
                "p50": percentile(ordered, 50),
                "p90": percentile(ordered, 90),
                "p99": percentile(ordered, 99),
                "mean": sum(ordered) / len(ordered) if ordered else 0.0,
            },
            "status_counts": {
                str(k): v for k, v in sorted(self.status_counts.items())
            },
            "sound": self.sound,
        }

    def render(self) -> str:
        d = self.to_dict()
        lat = d["latency_ms"]

        def ms(v):
            return f"{v:.1f}ms" if v is not None else "n/a"

        mutated = ""
        if self.mutations_sent:
            mutated = (
                f"mutations={d['mutations_sent']} "
                f"acked={d['mutations_acked']} "
                f"durable={d['mutations_durable']} "
                f"last_lsn={d['last_lsn']}\n"
            )
        if self.min_lsn_reads:
            mutated += (
                f"min_lsn_reads={d['min_lsn_reads']} "
                f"ryw_violations={d['ryw_violations']} "
                f"stale_rejected={d['stale_rejected']}\n"
            )
        return (
            f"sent={d['sent']} ok={d['ok']} degraded={d['degraded']} "
            f"shed={d['shed']} errors={d['errors']} "
            f"wrong={d['wrong']} malformed={d['malformed']}\n"
            + mutated
            + f"throughput={d['throughput_rps']}rps "
            f"p50={ms(lat['p50'])} p90={ms(lat['p90'])} "
            f"p99={ms(lat['p99'])}  sound={d['sound']}"
        )


class _Connection:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader = None
        self.writer = None

    async def _ensure(self) -> None:
        if self.writer is None or self.writer.is_closing():
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def post(
        self, path: str, payload: Dict[str, object], timeout_s: float
    ) -> Tuple[int, Dict[str, str], Optional[Dict[str, object]]]:
        """Returns (status, headers, parsed JSON body or None)."""
        await self._ensure()
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"POST {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: keep-alive\r\n\r\n"
        ).encode("latin-1")
        self.writer.write(head + body)
        await self.writer.drain()
        return await asyncio.wait_for(
            self._read_response(), timeout=timeout_s
        )

    async def _read_response(self):
        line = await self.reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        parts = line.decode("latin-1").split(" ", 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self.reader.readline()
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self.reader.readexactly(length) if length else b""
        parsed: Optional[Dict[str, object]] = None
        if raw:
            try:
                parsed = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                parsed = None
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, headers, parsed

    def close(self) -> None:
        if self.writer is not None:
            try:
                self.writer.close()
            except Exception:  # noqa: BLE001 — already gone
                pass
            self.writer = None
            self.reader = None


def _classify(
    status: int,
    headers: Dict[str, str],
    body: Optional[Dict[str, object]],
    expect: Optional[List[List[object]]],
    report: LoadReport,
    min_lsn: Optional[int] = None,
) -> None:
    """Tally one response; soundness and shed-shape checks live here."""
    report.status_counts[status] = (
        report.status_counts.get(status, 0) + 1
    )
    if status == 200:
        if not isinstance(body, dict) or "answers" not in body:
            report.malformed += 1
            return
        if min_lsn is not None:
            as_of = body.get("as_of_lsn")
            if not isinstance(as_of, int):
                # We asked for a freshness bound and got an answer
                # with no as_of stamp at all — the contract is broken.
                report.malformed += 1
                return
            if as_of < min_lsn:
                report.ryw_violations += 1
                return
        answers = {tuple(row) for row in body["answers"]}
        complete = bool(body.get("complete"))
        if expect is not None:
            expected = {tuple(row) for row in expect}
            if complete and answers != expected:
                report.wrong += 1
                return
            if not complete and not answers <= expected:
                report.wrong += 1
                return
        if complete:
            report.ok += 1
        else:
            report.degraded += 1
        return
    if status in (429, 503):
        if (
            status == 503
            and isinstance(body, dict)
            and body.get("error") == "stale-read"
        ):
            # The staleness contract's honest refusal: typed, with a
            # retry hint and (when known) the primary to go ask.
            well_formed = (
                isinstance(body.get("reason"), str)
                and isinstance(
                    body.get("retry_after_s"), (int, float)
                )
                and "retry-after" in headers
            )
            if well_formed:
                report.stale_rejected += 1
            else:
                report.malformed += 1
            return
        well_formed = (
            isinstance(body, dict)
            and body.get("error") == "shed"
            and isinstance(body.get("reason"), str)
            and isinstance(body.get("retry_after_s"), (int, float))
            and "retry-after" in headers
        )
        if well_formed:
            report.shed += 1
        elif status == 503 and isinstance(body, dict) and body.get(
            "error"
        ) in ("unavailable", "store-unavailable", "not ready"):
            # Refusals (dispatch down, store failed, still recovering),
            # not sheds — honest, well-formed, and un-acknowledged.
            report.errors += 1
        else:
            report.malformed += 1
        return
    if status == 403 and isinstance(body, dict) and body.get(
        "error"
    ) == "not-primary":
        # Mis-routed to a follower: an honest redirect, not unsound.
        report.errors += 1
        return
    report.errors += 1


class _MutationMix:
    """Seeded read/write mixer for the mutation workload.

    One ``random.Random(seed)`` decides per request whether to mutate,
    so a drive is reproducible; each mutation inserts one globally
    unique row into ``relation`` (``width`` columns), so every
    acknowledged write is identifiable when a crash drive re-reads the
    recovered state.
    """

    def __init__(
        self,
        db: str,
        rate: float,
        relation: str,
        width: int,
        seed: int,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("mutation rate must be in [0, 1]")
        self.rate = rate
        self.relation = relation
        self.width = max(1, width)
        self.path = f"/v1/db/{db}/mutate"
        self._rng = random.Random(seed)
        self._seq = itertools.count(1)

    def take_turn(self) -> bool:
        return self.rate > 0.0 and self._rng.random() < self.rate

    def next_payload(self) -> Dict[str, object]:
        seq = next(self._seq)
        row = [self.relation] + [
            f"lg{seq:08d}c{j}" for j in range(self.width)
        ]
        return {"insert": [row]}


def _classify_mutation(
    status: int,
    headers: Dict[str, str],
    body: Optional[Dict[str, object]],
    report: LoadReport,
) -> None:
    """Tally one mutate response; a 200 with an ``lsn`` is durable."""
    report.status_counts[status] = (
        report.status_counts.get(status, 0) + 1
    )
    if status == 200:
        if not isinstance(body, dict) or "db" not in body:
            report.malformed += 1
            return
        report.mutations_acked += 1
        lsn = body.get("lsn")
        if isinstance(lsn, int):
            report.mutations_durable += 1
            if report.last_lsn is None or lsn > report.last_lsn:
                report.last_lsn = lsn
        return
    if status in (429, 503) and isinstance(body, dict):
        if body.get("error") == "shed":
            report.shed += 1
        else:
            # store-unavailable / not ready: refused, never acked.
            report.errors += 1
        return
    report.errors += 1


@dataclass
class _Exchange:
    """What every request of one run shares, and the one exchange."""

    report: LoadReport
    payload: Dict[str, object]
    expect: Optional[List[List[object]]]
    request_timeout_s: float
    mutations: Optional[_MutationMix]
    read_your_writes: bool

    async def __call__(
        self,
        checkout: Callable[[bool], _Connection],
        checkin: Callable[[bool, _Connection], None],
    ) -> None:
        """One request: choose a read or a mutation, post it on the
        connection *checkout* gives for that choice, time it, and tally
        the response.  The connection goes back through *checkin*
        unless the transport failed, which closes it."""
        report = self.report
        mutating = self.mutations is not None and self.mutations.take_turn()
        conn = checkout(mutating)
        report.sent += 1
        min_lsn: Optional[int] = None
        if mutating:
            report.mutations_sent += 1
            path, body_out = self.mutations.path, self.mutations.next_payload()
        else:
            path, body_out = "/v1/cqa", self.payload
            if self.read_your_writes and report.last_lsn is not None:
                min_lsn = report.last_lsn
                body_out = dict(self.payload, min_lsn=min_lsn)
                report.min_lsn_reads += 1
        t0 = time.monotonic()
        try:
            status, headers, body = await conn.post(
                path, body_out, self.request_timeout_s
            )
        except (
            OSError,
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionResetError,
        ):
            report.transport_errors += 1
            conn.close()
            return
        report.latencies_ms.append((time.monotonic() - t0) * 1000.0)
        if mutating:
            _classify_mutation(status, headers, body, report)
        else:
            _classify(status, headers, body, self.expect, report, min_lsn)
        checkin(mutating, conn)


async def _run_closed_loop(
    exchange: _Exchange,
    host: str,
    port: int,
    total: int,
    concurrency: int,
    read_port: Optional[int],
) -> LoadReport:
    report = exchange.report
    started = time.monotonic()

    async def worker() -> None:
        # Mutations always hit (host, port) — the primary; reads go to
        # read_port when set, so one run can write through the primary
        # while validating read-your-writes against a follower.
        conn = _Connection(host, port)
        read_conn = (
            _Connection(host, read_port)
            if read_port is not None and read_port != port
            else conn
        )
        try:
            while report.sent < total:
                await exchange(
                    lambda mutating: conn if mutating else read_conn,
                    lambda mutating, used: None,
                )
        finally:
            conn.close()
            if read_conn is not conn:
                read_conn.close()

    await asyncio.gather(
        *(worker() for _ in range(max(1, concurrency)))
    )
    report.elapsed_s = time.monotonic() - started
    return report


async def _run_open_loop(
    exchange: _Exchange,
    host: str,
    port: int,
    rate_per_s: float,
    duration_s: float,
    read_port: Optional[int],
) -> LoadReport:
    report = exchange.report
    started = time.monotonic()
    interval = 1.0 / max(0.001, rate_per_s)
    tasks: List[asyncio.Task] = []
    # Idle keep-alive connections: reads to read_port when set use
    # their own pool, so writes keep going to the primary.
    pool: List[_Connection] = []
    read_pool: List[_Connection] = []
    split_reads = read_port is not None and read_port != port

    def idle(mutating: bool) -> List[_Connection]:
        return read_pool if split_reads and not mutating else pool

    def checkout(mutating: bool) -> _Connection:
        conns = idle(mutating)
        if conns:
            return conns.pop()
        return _Connection(host, port if conns is pool else read_port)

    def checkin(mutating: bool, conn: _Connection) -> None:
        idle(mutating).append(conn)

    tick = 0
    while True:
        now = time.monotonic()
        if now - started >= duration_s:
            break
        target = started + tick * interval
        delay = target - now
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(exchange(checkout, checkin)))
        tick += 1
    if tasks:
        await asyncio.wait(tasks)
    for conn in pool + read_pool:
        conn.close()
    report.elapsed_s = time.monotonic() - started
    return report


def _build_mix(
    payload: Dict[str, object],
    mutation_rate: float,
    mutate_relation: str,
    mutate_width: int,
    seed: int,
) -> Optional[_MutationMix]:
    if mutation_rate <= 0.0:
        return None
    return _MutationMix(
        db=str(payload.get("db") or "default"),
        rate=mutation_rate,
        relation=mutate_relation,
        width=mutate_width,
        seed=seed,
    )


def run_closed_loop(
    host: str,
    port: int,
    payload: Dict[str, object],
    total: int = 100,
    concurrency: int = 4,
    expect: Optional[List[List[object]]] = None,
    request_timeout_s: float = 30.0,
    mutation_rate: float = 0.0,
    mutate_relation: str = "Audit",
    mutate_width: int = 2,
    seed: int = 0,
    read_your_writes: bool = False,
    read_port: Optional[int] = None,
) -> LoadReport:
    """Drive ``total`` requests with ``concurrency`` workers; validate
    each response against ``expect`` when given."""
    exchange = _Exchange(
        LoadReport(), payload, expect, request_timeout_s,
        _build_mix(
            payload, mutation_rate, mutate_relation, mutate_width, seed
        ),
        read_your_writes,
    )
    return asyncio.run(
        _run_closed_loop(
            exchange, host, port, total, concurrency, read_port
        )
    )


def run_open_loop(
    host: str,
    port: int,
    payload: Dict[str, object],
    rate_per_s: float,
    duration_s: float,
    expect: Optional[List[List[object]]] = None,
    request_timeout_s: float = 30.0,
    mutation_rate: float = 0.0,
    mutate_relation: str = "Audit",
    mutate_width: int = 2,
    seed: int = 0,
    read_your_writes: bool = False,
    read_port: Optional[int] = None,
) -> LoadReport:
    """Fire at a fixed arrival rate for ``duration_s`` seconds — the
    overload instrument; see the module docstring."""
    exchange = _Exchange(
        LoadReport(), payload, expect, request_timeout_s,
        _build_mix(
            payload, mutation_rate, mutate_relation, mutate_width, seed
        ),
        read_your_writes,
    )
    return asyncio.run(
        _run_open_loop(
            exchange, host, port, rate_per_s, duration_s, read_port
        )
    )
