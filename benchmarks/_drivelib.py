"""Shared harness of the serving drives and benches.

The CI drives (``crash_drive.py``, ``failover_drive.py``,
``overload_drive.py``) and the serving benches (``bench_serve.py``,
``bench_store.py``, ``bench_replica.py``) drive the same tenant
instance through the same plumbing:

* :data:`EMPLOYEE_SPEC` / :data:`EMPLOYEE_AUDIT_SPEC` — the paper's
  Employee instance, alone or with the empty ``Audit`` relation the
  mutation workloads write to;
* ``repro serve`` subprocesses — :func:`spawn`, :func:`wait_ready`,
  :func:`kill`, :func:`terminate`, plus :func:`request` for one JSON
  call and :func:`free_port`;
* :class:`Harness` — a :class:`~repro.serve.CQAHTTPServer` on a private
  event-loop thread, for in-process serving;
* :func:`worker_children` — the leak check for pool worker processes.

Importing this module puts ``src/`` on ``sys.path``, so drives run as
plain scripts (``python benchmarks/crash_drive.py``).
"""

import asyncio
import http.client
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.serve import CQAHTTPServer  # noqa: E402

EMPLOYEE_SPEC = {
    "relations": {
        "Employee": {
            "columns": ["Name", "Salary"],
            "key": ["Name"],
            "rows": [
                ["page", "5K"],
                ["page", "8K"],
                ["smith", "3K"],
                ["stowe", "7K"],
            ],
        }
    },
    "constraints": {"fd": ["Employee: Name -> Salary"]},
}

#: The same instance plus the mutation workloads' target relation,
#: which no CQA query reads.
EMPLOYEE_AUDIT_SPEC = {
    "relations": dict(
        EMPLOYEE_SPEC["relations"],
        Audit={"columns": ["K", "V"], "rows": []},
    ),
    "constraints": EMPLOYEE_SPEC["constraints"],
}


def fail(message: str, code: int = 1) -> int:
    """Report a failed gate on stderr; returns *code* (the exit code)."""
    print(f"FAIL: {message}", file=sys.stderr)
    return code


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn(port: int, data_dir: str, extra=(), telemetry=None):
    """Start a durable ``repro serve`` (no pool, fsync always).

    The live plane — and with it every ``/status`` histogram an SLO
    reads — only exists under ``--telemetry``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    command = [
        sys.executable, "-m", "repro", "serve",
        "--port", str(port),
        "--workers", "0",
        "--data-dir", data_dir,
        "--fsync", "always",
    ]
    if telemetry:
        command += ["--telemetry", telemetry]
    command += list(extra)
    return subprocess.Popen(command, env=env)


def request(port, method, path, payload=None, timeout=10.0):
    """One JSON call; returns ``(status, parsed body or {})``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        raw = response.read()
        try:
            parsed = json.loads(raw) if raw else {}
        except json.JSONDecodeError:
            parsed = {}
        return response.status, parsed
    finally:
        conn.close()


def wait_ready(port, deadline_s=90.0):
    """Poll ``/healthz`` until 200; returns (ready, saw_recovering)."""
    saw_recovering = False
    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        try:
            status, body = request(port, "GET", "/healthz", timeout=2.0)
        except OSError:
            time.sleep(0.1)
            continue
        if status == 200:
            return True, saw_recovering
        if status == 503 and body.get("phase") == "recovering":
            saw_recovering = True
        time.sleep(0.05)
    return False, saw_recovering


def kill(server):
    """SIGKILL a server still running and reap it."""
    if server is not None and server.poll() is None:
        server.kill()
        server.wait(timeout=15.0)


def terminate(server):
    """SIGTERM (a graceful drain), then SIGKILL after 30s."""
    if server is not None and server.poll() is None:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            kill(server)


class Harness:
    """A CQAHTTPServer on a private event-loop thread."""

    def __init__(self, service, config):
        self.server = CQAHTTPServer(service, config)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )

    def __enter__(self):
        self.thread.start()
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=30.0)
        self._serving = asyncio.run_coroutine_threadsafe(
            self.server.serve_forever(), self.loop
        )
        return self.server

    def __exit__(self, *exc):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(timeout=60.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        self.loop.close()


def worker_children() -> list:
    """Pids of live repro.dispatch.worker children of this process."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                rest = fh.read().split(") ", 1)[1].split()
            if int(rest[1]) != me or rest[0] == "Z":
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ")
        except OSError:
            continue
        if b"repro.dispatch.worker" in cmdline:
            found.append(int(entry))
    return found
