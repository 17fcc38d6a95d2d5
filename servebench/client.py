"""The benchmark's own HTTP client, closed-loop driver and classifier.

The load is a closed loop: each of a fixed number of keep-alive
connections, each on its own thread, takes the next operation of the
shared sequence only after its previous response arrived.  Responses
are kept as raw bytes and classified after the timed phase, so
checking answers never delays the next request.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Outcome classes of one operation.
EXACT = "exact"          # read: complete and equal to the exact answer
DEGRADED = "degraded"    # read: complete: false and a subset of it
ACKED = "acked"          # write: durable ack (an lsn in the body)
SHED = "shed"            # well-formed 429/503 refusal
ERROR = "error"          # any other HTTP answer
TRANSPORT = "transport"  # no HTTP answer at all
WRONG = "wrong"          # a wrong or unsound answer: fails the run

HARD_FAILURES = (SHED, ERROR, TRANSPORT, WRONG)

_HEADERS = {"Content-Type": "application/json"}


class Client:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int, timeout_s: float = 60.0) -> None:
        self.port = port
        self.timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(
        self, method: str, path: str, payload=None
    ) -> Tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout_s
            )
        body = None if payload is None else json.dumps(payload).encode()
        try:
            self._conn.request(method, path, body=body, headers=_HEADERS)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def json(self, method: str, path: str, payload=None):
        status, body = self.request(method, path, payload)
        return status, json.loads(body) if body else None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Sample:
    """One operation as the client saw it."""

    index: int
    connection: int
    started: float
    ended: float
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def ms(self) -> float:
        return (self.ended - self.started) * 1000.0


def drive(
    port: int,
    ops: Sequence,
    phases: Sequence[Tuple[int, int]],
    connections: int = 2,
    pause: Optional[Callable[[], None]] = None,
) -> List[Sample]:
    """Issue every op over *connections* closed-loop connections.

    *phases* are consecutive ``(start, stop)`` op index ranges; the
    connections share each phase's ops and wait for each other at its
    end, so no phase overlaps the next.  *pause* runs while every
    connection is idle: before the first phase and after each one.
    """
    samples: List[Optional[Sample]] = [None] * len(ops)
    cursors = [iter(range(start, stop)) for start, stop in phases]
    lock = threading.Lock()
    barrier = threading.Barrier(connections, action=pause)
    failures: List[BaseException] = []
    if pause is not None:
        pause()

    def loop(number: int) -> None:
        client = Client(port)
        try:
            for cursor in cursors:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        break
                    op = ops[index]
                    path = (
                        "/v1/cqa" if op.kind == "read"
                        else f"/v1/db/{op.db}/mutate"
                    )
                    sample = Sample(index, number, time.perf_counter(), 0.0)
                    try:
                        sample.status, sample.body = client.request(
                            "POST", path, op.payload
                        )
                    except (OSError, http.client.HTTPException) as exc:
                        sample.error = f"{type(exc).__name__}: {exc}"
                    sample.ended = time.perf_counter()
                    samples[index] = sample
                barrier.wait(timeout=client.timeout_s * 2)
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            failures.append(exc)
            barrier.abort()
        finally:
            client.close()

    threads = [
        threading.Thread(
            target=loop, args=(n,), name=f"conn-{n}", daemon=True
        )
        for n in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return samples


@dataclass
class Tally:
    """Every operation classified, plus what a wrong one looked like."""

    outcomes: Dict[str, int] = field(default_factory=dict)
    read_ms: List[float] = field(default_factory=list)
    write_ms: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    write_problems: List[str] = field(default_factory=list)
    #: Client round trip (ms) by request id (reads the server answered)
    #: and by LSN (acked writes), for matching the traced run's spans.
    request_ids: Dict[str, float] = field(default_factory=dict)
    write_lsns: Dict[int, float] = field(default_factory=dict)
    #: Round-trip total (ms) of every read attempted.
    read_total_ms: float = 0.0

    def count(self, outcome: str) -> int:
        return self.outcomes.get(outcome, 0)

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return sum(self.count(o) for o in HARD_FAILURES)

    @property
    def correct(self) -> bool:
        return self.count(WRONG) == 0 and not self.write_problems

    def add(self, outcome: str, problem: str = "") -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if problem and len(self.problems) < 20:
            self.problems.append(problem)


def _decode(sample: Sample):
    try:
        doc = json.loads(sample.body)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None


def classify_read(sample: Sample, expected) -> Tuple[str, str]:
    """``(outcome, problem)`` of one read against its exact answer."""
    if sample.error:
        return TRANSPORT, sample.error
    doc = _decode(sample)
    if doc is None:
        return ERROR, f"HTTP {sample.status}: body is not a JSON object"
    if sample.status in (429, 503) and doc.get("error") == "shed":
        return SHED, ""
    if sample.status != 200 or not isinstance(doc.get("answers"), list):
        return ERROR, f"HTTP {sample.status}: {doc.get('error')}"
    answers = {tuple(row) for row in doc["answers"]}
    if doc.get("complete") is True:
        if answers != expected:
            return WRONG, (
                f"read {sample.index}: complete answer differs "
                f"({len(answers)} rows, {len(expected)} expected)"
            )
        return EXACT, ""
    if not answers <= expected:
        return WRONG, (
            f"read {sample.index}: degraded answer is not a subset "
            f"({len(answers - expected)} extra rows)"
        )
    return DEGRADED, ""


def classify_write(sample: Sample) -> Tuple[str, Optional[dict]]:
    """``(outcome, body)`` of one write; acked iff it carries an lsn."""
    if sample.error:
        return TRANSPORT, None
    doc = _decode(sample)
    if doc is None:
        return ERROR, None
    if sample.status == 200 and isinstance(doc.get("lsn"), int):
        return ACKED, doc
    if sample.status in (429, 503) and doc.get("error") == "shed":
        return SHED, doc
    return ERROR, doc


def check_writes(
    acked: Sequence[Tuple[Sample, dict]],
    initial_facts: Dict[str, int],
) -> List[str]:
    """Problems with the acked writes: every lsn unique and increasing
    on its connection, and the last write to each database reporting
    its initial fact count plus the acked inserts."""
    problems: List[str] = []
    last_on_connection: Dict[int, int] = {}
    seen = set()
    for sample, doc in sorted(acked, key=lambda pair: pair[0].started):
        lsn = doc["lsn"]
        if lsn in seen:
            problems.append(f"write {sample.index}: lsn {lsn} acked twice")
        seen.add(lsn)
        previous = last_on_connection.get(sample.connection)
        if previous is not None and lsn <= previous:
            problems.append(
                f"write {sample.index}: lsn {lsn} after {previous} on "
                "the same connection"
            )
        last_on_connection[sample.connection] = lsn
    inserts: Dict[str, int] = {}
    last: Dict[str, dict] = {}
    for _, doc in acked:
        name = doc["db"]
        inserts[name] = inserts.get(name, 0) + int(doc.get("inserted", 0))
        if name not in last or doc["lsn"] > last[name]["lsn"]:
            last[name] = doc
    for name, doc in last.items():
        want = initial_facts[name] + inserts[name]
        if doc.get("facts") != want:
            problems.append(
                f"{name}: last write reports {doc.get('facts')} facts, "
                f"expected {want}"
            )
    return problems


def tally(samples: Sequence[Sample], ops, expected, initial_facts) -> Tally:
    """Classify every sample; exact reads keep their latency, every
    other read ranks slower than all of them (infinite latency)."""
    result = Tally()
    acked: List[Tuple[Sample, dict]] = []
    for sample in samples:
        op = ops[sample.index]
        if op.kind == "read":
            outcome, problem = classify_read(sample, expected[op.answer_key])
            result.add(outcome, problem)
            result.read_ms.append(
                sample.ms if outcome == EXACT else float("inf")
            )
            result.read_total_ms += sample.ms
            rid = (_decode(sample) or {}).get("request_id")
            if rid:
                result.request_ids[rid] = sample.ms
        else:
            outcome, doc = classify_write(sample)
            result.add(outcome, "" if outcome == ACKED else (
                f"write {sample.index}: HTTP {sample.status} "
                f"{sample.error or (doc or {}).get('error')}"
            ))
            result.write_ms.append(
                sample.ms if outcome == ACKED else float("inf")
            )
            if outcome == ACKED:
                acked.append((sample, doc))
                result.write_lsns[doc["lsn"]] = sample.ms
    result.write_problems = check_writes(acked, initial_facts)
    return result
