"""Start, set up and tear down ``repro serve``; read its processes.

Each server gets a fresh directory under ``.servebench/`` in the
checkout for its data, telemetry and log, removed again at teardown so
no run inherits another's state.  Teardown is also a gate: SIGTERM must
drain the server to exit 0, and no ``worker --loop`` process may
survive it.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional

from .client import Client

#: The documented deployment; store and pool keep their defaults.
SERVE_ARGS = ("--port", "0", "--workers", "2", "--isolate", "fm-sql")

_PORT_LINE = re.compile(r"serving CQA on http://[\d.]+:(\d+)")
_WORKER_LOOP = (b"repro.dispatch.worker", b"--loop")
_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")
_PAGE_BYTES = os.sysconf("SC_PAGESIZE")


class GateError(RuntimeError):
    """Start-up, set-up or teardown broke the benchmark's contract."""


class Server:
    """One ``repro serve`` process (optionally under the traced
    launcher) with its own data, telemetry and log directory."""

    def __init__(self, root: str, spans_path: Optional[str] = None):
        self.root = root
        self.dir = ""
        self.spans_path = spans_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.workers_seen: set = set()

    # -- lifecycle -----------------------------------------------------

    def start(self, timeout_s: float = 60.0) -> None:
        parent = os.path.join(self.root, ".servebench")
        os.makedirs(parent, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="server-", dir=parent)
        serve = [
            *SERVE_ARGS,
            "--telemetry", os.path.join(self.dir, "telemetry"),
            "--data-dir", os.path.join(self.dir, "data"),
        ]
        if self.spans_path is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            launcher = os.path.join(self.root, "servebench", "traced.py")
            argv = [sys.executable, launcher, self.spans_path, *serve]
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        log = open(os.path.join(self.dir, "server.log"), "wb")
        try:
            self.proc = subprocess.Popen(
                argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
        finally:
            log.close()
        self.port = self._wait_port(timeout_s)

    def _wait_port(self, timeout_s: float) -> int:
        end = time.monotonic() + timeout_s
        while time.monotonic() < end:
            match = _PORT_LINE.search(self.log())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise GateError(
                    f"server exited with {self.proc.returncode} before "
                    f"listening:\n{self.log()[-2000:]}"
                )
            time.sleep(0.005)
        raise GateError("server did not start listening")

    def log(self) -> str:
        with open(os.path.join(self.dir, "server.log"), "rb") as fh:
            return fh.read().decode("utf-8", "replace")

    def wait_healthy(self, client: Client, timeout_s: float = 60.0):
        end = time.monotonic() + timeout_s
        while time.monotonic() < end:
            status, _ = client.request("GET", "/healthz")
            if status == 200:
                return
            time.sleep(0.005)
        raise GateError("server never reported healthy")

    def stop(self, timeout_s: float = 60.0) -> None:
        """SIGTERM, wait for the drain, then check the teardown gate:
        exit 0, no surviving worker, directory removed."""
        problems: List[str] = []
        self.note_workers()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                problems.append("server did not drain after SIGTERM")
        if self.proc is not None and self.proc.returncode != 0:
            problems.append(
                f"server exited with {self.proc.returncode}:\n"
                + self.log()[-2000:]
            )
        leaked = surviving_workers(self.root, self.workers_seen)
        for pid in leaked:
            _kill(pid)
        if leaked:
            problems.append(f"worker processes survived: {leaked}")
        self._remove_dir()
        if os.path.exists(self.dir):
            problems.append(f"could not remove {self.dir}")
        if problems:
            raise GateError("; ".join(problems))

    def kill(self) -> None:
        """Last-resort cleanup on an error path (no gate)."""
        self.note_workers()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pid in surviving_workers(self.root, self.workers_seen):
            _kill(pid)
        self._remove_dir()

    def _remove_dir(self) -> None:
        if self.dir:
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- processes -----------------------------------------------------

    def note_workers(self) -> List[int]:
        """The live worker pids, remembered for the leak check."""
        if self.proc is None or self.proc.poll() is not None:
            return []
        workers = children(self.proc.pid)
        self.workers_seen.update(workers)
        return workers

    def rss_mb(self) -> float:
        """Resident memory of the server and its live workers."""
        self.note_workers()
        return tree_rss_mb(self.proc.pid)

    def cpu_ms(self) -> Dict[str, float]:
        self.note_workers()
        return cpu_ms(self.proc.pid)


# -- /proc -------------------------------------------------------------


def _stat(pid: int) -> List[int]:
    """``/proc/<pid>/stat`` fields 3.. (state onwards) as integers
    where numeric: field ``n`` of proc(5) is at index ``n - 3``."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        text = fh.read()
    fields = text[text.rindex(b")") + 2:].split()
    return [int(f) if f.lstrip(b"-").isdigit() else 0 for f in fields]


def children(pid: int) -> List[int]:
    out: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return out


def cpu_ms(pid: int) -> Dict[str, float]:
    """CPU time so far of process *pid* (``server``) and of its
    children (``workers``): the live ones, plus the reaped ones that
    *pid* waited for (its ``cutime`` and ``cstime``)."""
    stat = _stat(pid)
    workers = stat[13] + stat[14]
    for child in children(pid):
        try:
            fields = _stat(child)
        except OSError:  # exited between the listing and the read
            continue
        workers += fields[11] + fields[12]
    return {
        "server": (stat[11] + stat[12]) * _TICK_MS,
        "workers": workers * _TICK_MS,
    }


def tree_rss_mb(pid: int) -> float:
    """Resident memory of process *pid* and its live children."""
    pids = [pid, *children(pid)]
    return sum(_rss_bytes(p) for p in pids) / 2 ** 20


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE_BYTES
    except (OSError, ValueError, IndexError):
        return 0


def _is_worker(pid: int, root: str) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            argv = fh.read().split(b"\0")
        cwd = os.readlink(f"/proc/{pid}/cwd")
    except OSError:
        return False
    return all(part in argv for part in _WORKER_LOOP) and (
        os.path.realpath(cwd) == os.path.realpath(root)
    )


def surviving_workers(root: str, seen: Iterable[int]) -> List[int]:
    """Worker-loop processes of this checkout still alive: any pid seen
    during the run, plus any orphan running from the checkout root."""
    candidates = set(seen)
    candidates.update(
        int(name) for name in os.listdir("/proc") if name.isdigit()
    )
    return sorted(
        pid for pid in candidates
        if _is_worker(pid, root) and _stat_state(pid) != b"Z"
    )


def _stat_state(pid: int) -> bytes:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            text = fh.read()
    except OSError:
        return b"Z"
    return text[text.rindex(b")") + 2:].split()[0]


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass
