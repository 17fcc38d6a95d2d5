"""Content-addressed snapshots of the tenant state.

A snapshot is one JSON file holding every registered database's spec
(see :mod:`repro.serve.specs`) plus the LSN it is current through.  It
is *content-addressed*: the file name and the embedded ``state_digest``
derive from the per-database instance/constraint digests of
:mod:`repro.observability.flight` — the same digests the flight
recorder stamps on envelopes, so a recovered state can be compared
bit-for-bit against what a request saw before the crash.

Write path: :func:`repro.observability.export.write_atomic` with its
file and directory fsyncs — a crash mid-write leaves at most an
orphaned ``.tmp`` sibling, never a half-snapshot under the final name.
Load path: candidates are tried newest (highest LSN) first; a file
that fails to parse or whose recomputed digest disagrees with its
embedded one is *skipped* (counter ``store.snapshot_corrupt_skipped``),
falling back to the previous generation.  That fallback loses nothing only while the WAL still holds
every record since the older snapshot, up to the skipped file's LSN
(which its name carries); otherwise recovery refuses loudly upstream.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...observability import add
from ...observability.export import write_atomic
from ...observability.flight import (
    canonical_json,
    constraints_digest,
    instance_digest,
)
from ..specs import parse_constraints, parse_database

logger = logging.getLogger(__name__)

__all__ = [
    "SNAPSHOT_SCHEMA",
    "Snapshot",
    "list_snapshots",
    "load_latest_snapshot",
    "prune_snapshots",
    "state_digest",
    "write_snapshot",
]

#: Snapshot file schema version (bump on breaking shape changes).
SNAPSHOT_SCHEMA = 1

_NAME = re.compile(r"^snap_(\d{12})_([0-9a-f]{12})\.json$")


def state_digest(
    specs: Dict[str, Dict[str, object]],
) -> Tuple[str, Dict[str, Dict[str, str]]]:
    """Digest the whole tenant map; returns ``(digest, per_db)``.

    Each database contributes its flight-recorder instance and
    constraint digests, so two states are equal iff every tenant
    database would hash identically into a flight envelope.
    """
    per_db: Dict[str, Dict[str, str]] = {}
    for name in sorted(specs):
        spec = specs[name]
        db = parse_database(spec)
        constraints = parse_constraints(spec.get("constraints"))
        per_db[name] = {
            "instance": instance_digest(db),
            "constraints": constraints_digest(constraints),
        }
    digest = hashlib.sha256(
        canonical_json(per_db).encode("utf-8")
    ).hexdigest()
    return digest, per_db


@dataclass
class Snapshot:
    """One loaded (and digest-verified) snapshot."""

    path: str
    lsn: int
    specs: Dict[str, Dict[str, object]]
    digest: str
    per_db: Dict[str, Dict[str, str]]
    compaction: Optional[Dict[str, object]] = None
    #: Fencing epoch the state was current under (0 for pre-replication
    #: snapshots — the key is optional so old generations still load).
    epoch: int = 0


def write_snapshot(
    directory,
    specs: Dict[str, Dict[str, object]],
    lsn: int,
    compaction: Optional[Dict[str, object]] = None,
    epoch: int = 0,
) -> Snapshot:
    """Atomically write the state at *lsn*; returns the snapshot."""
    digest, per_db = state_digest(specs)
    document = {
        "schema": SNAPSHOT_SCHEMA,
        "lsn": lsn,
        "epoch": epoch,
        "state_digest": digest,
        "per_db": per_db,
        "databases": specs,
        "compaction": compaction,
    }
    final = os.path.join(
        os.fspath(directory), f"snap_{lsn:012d}_{digest[:12]}.json"
    )

    def write(handle) -> None:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")

    write_atomic(final, write, durable=True)
    add("store.snapshots_written")
    return Snapshot(
        path=final,
        lsn=lsn,
        specs=specs,
        digest=digest,
        per_db=per_db,
        compaction=compaction,
        epoch=epoch,
    )


def list_snapshots(directory) -> List[Tuple[int, str]]:
    """``(lsn, path)`` of every snapshot file, highest LSN first."""
    out: List[Tuple[int, str]] = []
    try:
        entries = os.listdir(directory)
    except OSError:
        return out
    for entry in entries:
        match = _NAME.match(entry)
        if match:
            out.append(
                (int(match.group(1)), os.path.join(directory, entry))
            )
    out.sort(reverse=True)
    return out


def _load_one(path: str) -> Optional[Snapshot]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        logger.warning("skipping unreadable snapshot %s: %s", path, exc)
        return None
    if (
        not isinstance(document, dict)
        or document.get("schema") != SNAPSHOT_SCHEMA
        or not isinstance(document.get("databases"), dict)
        or not isinstance(document.get("lsn"), int)
    ):
        logger.warning("skipping malformed snapshot %s", path)
        return None
    specs = document["databases"]
    try:
        digest, per_db = state_digest(specs)
    except Exception as exc:  # noqa: BLE001 — corrupt spec content
        logger.warning("skipping unparsable snapshot %s: %s", path, exc)
        return None
    if digest != document.get("state_digest"):
        logger.warning(
            "skipping snapshot %s: digest mismatch (file says %.12s, "
            "content hashes to %.12s)",
            path,
            str(document.get("state_digest")),
            digest,
        )
        return None
    epoch = document.get("epoch", 0)
    if not isinstance(epoch, int) or epoch < 0:
        epoch = 0
    return Snapshot(
        path=path,
        lsn=document["lsn"],
        specs=specs,
        digest=digest,
        per_db=per_db,
        compaction=document.get("compaction"),
        epoch=epoch,
    )


def load_latest_snapshot(directory) -> Optional[Snapshot]:
    """The newest snapshot that parses *and* re-digests cleanly."""
    for _lsn, path in list_snapshots(directory):
        snapshot = _load_one(path)
        if snapshot is not None:
            return snapshot
        add("store.snapshot_corrupt_skipped")
    return None


def prune_snapshots(directory, keep: int = 2) -> int:
    """Delete all but the newest *keep* snapshots; returns removals."""
    removed = 0
    for _lsn, path in list_snapshots(directory)[max(1, keep):]:
        try:
            os.remove(path)
            removed += 1
        except OSError:
            pass
    return removed
