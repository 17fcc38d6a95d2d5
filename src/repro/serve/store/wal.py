"""CRC32-framed append-only write-ahead log of tenant mutations.

One WAL file holds a sequence of *frames*::

    +----------------+----------------+------------------------+
    | length (u32le) | crc32 (u32le)  | payload (length bytes) |
    +----------------+----------------+------------------------+

The payload is canonical JSON (sorted keys, no whitespace variance) of
one mutation record carrying a monotonically increasing ``lsn``.  The
CRC covers the payload, so every frame is independently verifiable and
a scan can pinpoint exactly where a crashed writer stopped.

Durability is a *policy*, not an accident:

* ``always``   — fsync after every append (ack == on disk);
* ``interval`` — fsync every N appends (bounded ack-loss window of at
  most N-1 records on OS crash; process kill -9 loses nothing because
  the kernel still holds the written pages);
* ``never``    — the OS decides (benchmark floor; crash-unsafe against
  power loss, still kill-9-safe).

A scan (:func:`scan_wal`) classifies the first bad byte it meets:

* **torn tail** — the frame is *incomplete*: fewer than 8 header bytes
  remain, the declared payload extends past EOF, or a complete-looking
  final frame fails its CRC at exact EOF.  This is the signature of a
  writer that died mid-append; the un-acknowledged suffix is safe to
  truncate.
* **corruption** — a *complete* frame fails its CRC (or decodes to
  garbage) with more bytes behind it: bit rot, not a tear.  Truncating
  here could discard acknowledged records, so recovery refuses by
  default (:class:`~repro.serve.store.StoreCorruptionError`) instead of
  silently serving a hole.

Write-side faults (short writes, fsync failure, bit flips) are injected
through :mod:`repro.runtime.faults` hooks so crash tests are seed-
deterministic; any write failure marks the log *failed* — crash-only
behavior: once the on-disk state is in doubt, refuse further
acknowledgements and let a restart re-establish truth via recovery.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...errors import ReproError
from ...observability import add
from ...observability.export import fsync_dir
from ...observability.live import live_add
from ...runtime import faults as _faults

__all__ = [
    "FSYNC_POLICIES",
    "WalScan",
    "WalWriteError",
    "WriteAheadLog",
    "scan_wal",
    "truncate_wal",
]

_HEADER = 8  # u32le payload length + u32le crc32

FSYNC_POLICIES = ("always", "interval", "never")


class WalWriteError(ReproError):
    """An append could not be made durable; the record is NOT acked."""


def _encode_frame(record: Dict[str, object]) -> bytes:
    payload = json.dumps(
        record, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return (
        len(payload).to_bytes(4, "little")
        + crc.to_bytes(4, "little")
        + payload
    )


@dataclass
class WalScan:
    """What a sequential frame scan found (see the module docstring)."""

    records: List[Dict[str, object]] = field(default_factory=list)
    #: Byte offset just past the last valid frame — the truncation
    #: point for a torn tail, and the base offset for further appends.
    good_bytes: int = 0
    total_bytes: int = 0
    #: A torn (incomplete) final frame was found at ``good_bytes``.
    torn: bool = False
    #: A complete frame failed verification with data behind it.
    corrupt: bool = False
    #: Human-readable description of the first bad frame, if any.
    detail: Optional[str] = None

    @property
    def clean(self) -> bool:
        return not self.torn and not self.corrupt


def scan_wal(path) -> WalScan:
    """Scan a WAL file frame by frame; never raises on bad content."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return WalScan()
    scan = WalScan(total_bytes=len(data))
    offset = 0
    last_lsn = None
    while offset < len(data):
        remaining = len(data) - offset
        if remaining < _HEADER:
            scan.torn = True
            scan.detail = (
                f"offset {offset}: {remaining} trailing byte(s), "
                "less than a frame header"
            )
            break
        length = int.from_bytes(data[offset:offset + 4], "little")
        crc = int.from_bytes(data[offset + 4:offset + 8], "little")
        end = offset + _HEADER + length
        if end > len(data):
            scan.torn = True
            scan.detail = (
                f"offset {offset}: frame declares {length} payload "
                f"byte(s) but only {remaining - _HEADER} remain"
            )
            break
        payload = data[offset + _HEADER:end]
        bad = None
        record: Optional[Dict[str, object]] = None
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            bad = "crc mismatch"
        else:
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                bad = "payload is not JSON"
            else:
                if not isinstance(record, dict) or not isinstance(
                    record.get("lsn"), int
                ):
                    bad = "record has no integer lsn"
                elif last_lsn is not None and record["lsn"] <= last_lsn:
                    bad = (
                        f"lsn {record['lsn']} not after {last_lsn} "
                        "(misframed read)"
                    )
        if bad is not None:
            # A complete-but-bad frame at exact EOF is still a tear (a
            # short write that happened to land inside the payload);
            # the same frame with data behind it is bit rot.
            if end == len(data):
                scan.torn = True
            else:
                scan.corrupt = True
            scan.detail = f"offset {offset}: {bad}"
            break
        scan.records.append(record)
        last_lsn = record["lsn"]
        offset = end
        scan.good_bytes = offset
    return scan


def truncate_wal(path, good_bytes: int) -> int:
    """Drop everything past *good_bytes*; returns bytes removed.

    Used by recovery to cut a torn tail.  The truncation is fsynced
    (file and directory) before returning — a recovery that acked its
    own repair only in the page cache would re-detect the same tear
    after the next crash, which is harmless but noisy.
    """
    size = os.path.getsize(path)
    if size <= good_bytes:
        return 0
    with open(path, "r+b") as handle:
        handle.truncate(good_bytes)
        handle.flush()
        os.fsync(handle.fileno())
    fsync_dir(path)
    add("store.torn_tail_truncated")
    return size - good_bytes


class WriteAheadLog:
    """Append side of the log; one writer per file, not thread-safe
    (the owning :class:`~repro.serve.store.TenantStore` serializes)."""

    def __init__(
        self,
        path,
        fsync: str = "interval",
        fsync_interval: int = 16,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{FSYNC_POLICIES}"
            )
        if fsync_interval < 1:
            raise ValueError("fsync_interval must be >= 1")
        self.path = os.fspath(path)
        self.fsync = fsync
        self.fsync_interval = fsync_interval
        self._handle = None
        self._since_sync = 0
        self.appended = 0
        self.size_bytes = 0
        #: Why the log refuses writes, or None while healthy.
        self.failed: Optional[str] = None

    def open(self, at_bytes: Optional[int] = None) -> "WriteAheadLog":
        """Open for appending (creating the file if absent).

        ``at_bytes`` — the verified good length from a recovery scan;
        appends continue from there.
        """
        self._handle = open(self.path, "ab")
        self.size_bytes = (
            at_bytes if at_bytes is not None else os.path.getsize(self.path)
        )
        fsync_dir(self.path)
        return self

    def append(self, record: Dict[str, object]) -> None:
        """Frame, write, and (per policy) fsync one record.

        On any failure — a real OSError or an injected storage fault —
        the log marks itself failed and raises :class:`WalWriteError`;
        the caller must not acknowledge the mutation.  A torn prefix
        may remain on disk; the next recovery truncates it.
        """
        if self._handle is None:
            raise WalWriteError("log is not open")
        if self.failed is not None:
            raise WalWriteError(f"log has failed: {self.failed}")
        frame = _encode_frame(record)
        try:
            written = _faults.storage_write(frame)
            self._handle.write(written)
            self._handle.flush()
            if len(written) != len(frame):
                raise OSError(
                    f"short write: {len(written)} of {len(frame)} bytes"
                )
            self.size_bytes += len(frame)
            self.appended += 1
            self._since_sync += 1
            live_add("store.appends")
            if self.fsync == "always" or (
                self.fsync == "interval"
                and self._since_sync >= self.fsync_interval
            ):
                self.sync()
        except OSError as exc:
            self.failed = str(exc)
            add("store.append_failures")
            raise WalWriteError(
                f"append lsn={record.get('lsn')} failed: {exc}"
            )

    def sync(self) -> None:
        """Force an fsync now (also the ``interval`` policy's flush)."""
        if self._handle is None or self._since_sync == 0:
            return
        _faults.storage_fsync()
        os.fsync(self._handle.fileno())
        self._since_sync = 0
        add("store.fsyncs")

    def reset(self) -> None:
        """Truncate to empty after a compaction made the log redundant.

        Crash-safe without ceremony: records folded into the snapshot
        carry LSNs at or below the snapshot's, so if the process dies
        before this truncate lands, recovery replays them as no-ops
        past the snapshot and the next compaction retries the cut.
        """
        if self._handle is not None:
            self._handle.close()
        self._handle = open(self.path, "wb")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        fsync_dir(self.path)
        self._handle.close()
        self._handle = open(self.path, "ab")
        self.size_bytes = 0
        self._since_sync = 0

    def close(self) -> None:
        if self._handle is not None:
            try:
                self.sync()
            except OSError:
                pass
            self._handle.close()
            self._handle = None
