"""The flight-recorder envelope: one request, reconstructable.

An envelope is the black-box record of one dispatch request — enough to
*re-execute* it deterministically and to *explain* what the dispatcher
did.  It is self-contained (the instance, constraints, and query ride
along as a pickled payload) and content-addressed: ``envelope_id`` is
the SHA-256 of the canonical JSON of the replay-relevant content
(instance/constraint/query digests, semantics, policy, budget spec,
fault-plan snapshot, breaker snapshot), so the same request content
yields the same id — the key the cross-request cache of ROADMAP item 5
will reuse.

Sections (see DESIGN.md "Flight recorder" for the full contract):

* **digests** — SHA-256 content digests of the instance (sorted fact
  reprs + schema), the constraint set, and the query;
* **payload** — base64 pickles of (db, constraints, query) so replay
  does not need the original data files.  Pickles execute code when
  loaded: only replay envelopes you recorded;
* **policy / budget / fault_plan / breakers / shadow_sampled** — the
  decision *inputs*: dispatcher tunables, budget spec plus steps already
  consumed, the installed fault plan's full state (counters + RNG) at
  request start, per-engine breaker snapshots, and whether the shadow
  stream sampled this request;
* **shape_stats / decisions** — the decision *trail*: conflict-graph
  shape features and one record per ladder rung (applicability verdict,
  breaker state, budget slice, predicted-vs-actual wall time, outcome);
* **outcome / answer / provenance** — what was served.  ``provenance``
  is the *canonical projection*: per-rung (engine, status, normalized
  reason) with wall-clock values masked, which is what replay compares
  bit-for-bit (timings are physics, not decisions).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..export import write_atomic

__all__ = [
    "ENVELOPE_SCHEMA",
    "FlightEnvelope",
    "canonical_json",
    "canonical_answer",
    "canonical_provenance",
    "constraints_digest",
    "instance_digest",
    "normalize_reason",
    "query_digest",
    "read_envelope",
    "write_envelope",
]

#: Envelope schema version (bump on breaking shape changes).
ENVELOPE_SCHEMA = 1

#: Wall-clock fragments inside error messages and rung reasons are
#: nondeterministic; the canonical projection masks them so replay can
#: compare everything else bit-for-bit.
_TIMING_FRAGMENT = re.compile(
    r"(elapsed=)\d+(?:\.\d+)?s"
    r"|(\bexceeded its )\d+(?:\.\d+)?s"
    r"|(\bcooldown )\d+(?:\.\d+)?(?:e[+-]?\d+)?s"
)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=repr
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def instance_digest(db) -> str:
    """Content digest of a database instance.

    Built from the sorted fact reprs plus the schema's relation
    signatures — insertion order, tid assignment, and dict iteration
    order do not leak in.
    """
    schema_sig = sorted(
        (name, tuple(rel.attributes))
        for name, rel in db.schema.relations.items()
    )
    return _sha256(
        canonical_json(
            {
                "schema": [[n, list(attrs)] for n, attrs in schema_sig],
                "facts": sorted(map(repr, db.facts())),
            }
        )
    )


def constraints_digest(constraints) -> str:
    """Content digest of a constraint set (order-insensitive)."""
    return _sha256(canonical_json(sorted(map(repr, constraints))))


def query_digest(query) -> str:
    """Content digest of a query (its repr is its syntax)."""
    return _sha256(repr(query))


def normalize_reason(reason: str) -> str:
    """Mask wall-clock fragments in a rung reason or error message."""
    return _TIMING_FRAGMENT.sub(
        lambda m: (m.group(1) or m.group(2) or m.group(3)) + "*", reason
    )


def canonical_answer(answers, complete: bool) -> Dict[str, object]:
    """The answer section: rows sorted by repr, values as reprs.

    Reprs (not raw values) keep the section JSON-stable for any value
    type while remaining an exact equality witness: two answer sets are
    equal iff their canonical sections are byte-identical.
    """
    return {
        "complete": bool(complete),
        "rows": sorted(
            [[repr(v) for v in row] for row in answers]
        ),
    }


def canonical_provenance(
    decisions: List[Dict[str, object]],
    shadow: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """The replay-comparable projection of the decision trail.

    Keeps the decision content (engine, status, normalized reason, the
    applicability verdict, breaker gate) and drops the measured wall
    times — replay asserts the dispatcher *decided* identically, not
    that the hardware ran at the same speed.
    """
    rungs = []
    for decision in decisions:
        rungs.append(
            {
                "engine": decision.get("engine"),
                "status": decision.get("status"),
                "reason": normalize_reason(
                    str(decision.get("reason") or "")
                ),
                "verdict": decision.get("verdict"),
                "breaker": decision.get("breaker"),
            }
        )
    out: Dict[str, object] = {"rungs": rungs}
    if shadow is not None:
        out["shadow"] = {
            "engine": shadow.get("engine"),
            "agreed": shadow.get("agreed"),
            "reason": normalize_reason(str(shadow.get("reason") or "")),
        }
    return out


@dataclass
class FlightEnvelope:
    """One recorded request.  See the module docstring for sections."""

    schema: int
    envelope_id: str
    request_id: Optional[str]
    trigger: Tuple[str, ...]  # anomaly kinds that caused the capture
    semantics: str
    digests: Dict[str, str]
    payload: Dict[str, str]  # base64 pickles: db, constraints, query
    policy: Dict[str, object]
    budget: Optional[Dict[str, object]]
    fault_plan: Optional[Dict[str, object]]
    breakers: Dict[str, Dict[str, object]]
    shadow_sampled: Optional[bool]
    shape_stats: Optional[Dict[str, object]]
    decisions: List[Dict[str, object]] = field(default_factory=list)
    events: List[Dict[str, object]] = field(default_factory=list)
    outcome: Dict[str, object] = field(default_factory=dict)
    answer: Optional[Dict[str, object]] = None
    provenance: Optional[Dict[str, object]] = None

    # -- construction --------------------------------------------------

    @staticmethod
    def content_id(
        digests: Dict[str, str],
        semantics: str,
        policy: Dict[str, object],
        budget: Optional[Dict[str, object]],
        fault_plan: Optional[Dict[str, object]],
        breakers: Dict[str, Dict[str, object]],
    ) -> str:
        """The content address: a digest of the replay-relevant inputs."""
        return _sha256(
            canonical_json(
                {
                    "digests": digests,
                    "semantics": semantics,
                    "policy": policy,
                    "budget": budget,
                    "fault_plan": fault_plan,
                    "breakers": breakers,
                }
            )
        )

    @staticmethod
    def pack_payload(db, constraints, query) -> Dict[str, str]:
        """Base64-pickle the request objects for a self-contained file."""
        return {
            name: base64.b64encode(pickle.dumps(obj)).decode("ascii")
            for name, obj in (
                ("db", db),
                ("constraints", tuple(constraints)),
                ("query", query),
            )
        }

    def unpack_payload(self):
        """Reconstruct ``(db, constraints, query)`` from the payload.

        Pickle loading executes code — only replay trusted envelopes.
        """
        out = []
        for name in ("db", "constraints", "query"):
            out.append(
                pickle.loads(base64.b64decode(self.payload[name]))
            )
        return tuple(out)

    # -- (de)serialization ---------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "envelope_id": self.envelope_id,
            "request_id": self.request_id,
            "trigger": list(self.trigger),
            "semantics": self.semantics,
            "digests": self.digests,
            "payload": self.payload,
            "policy": self.policy,
            "budget": self.budget,
            "fault_plan": self.fault_plan,
            "breakers": self.breakers,
            "shadow_sampled": self.shadow_sampled,
            "shape_stats": self.shape_stats,
            "decisions": self.decisions,
            "events": self.events,
            "outcome": self.outcome,
            "answer": self.answer,
            "provenance": self.provenance,
        }

    @staticmethod
    def from_dict(record: Dict[str, object]) -> "FlightEnvelope":
        if record.get("schema") != ENVELOPE_SCHEMA:
            raise ValueError(
                f"unsupported envelope schema {record.get('schema')!r} "
                f"(this build reads schema {ENVELOPE_SCHEMA})"
            )
        return FlightEnvelope(
            schema=record["schema"],
            envelope_id=record["envelope_id"],
            request_id=record.get("request_id"),
            trigger=tuple(record.get("trigger") or ()),
            semantics=record.get("semantics", "s"),
            digests=dict(record.get("digests") or {}),
            payload=dict(record.get("payload") or {}),
            policy=dict(record.get("policy") or {}),
            budget=record.get("budget"),
            fault_plan=record.get("fault_plan"),
            breakers=dict(record.get("breakers") or {}),
            shadow_sampled=record.get("shadow_sampled"),
            shape_stats=record.get("shape_stats"),
            decisions=list(record.get("decisions") or []),
            events=list(record.get("events") or []),
            outcome=dict(record.get("outcome") or {}),
            answer=record.get("answer"),
            provenance=record.get("provenance"),
        )

    def filename(self) -> str:
        """The canonical file name: request id plus content address."""
        rid = self.request_id or "r------"
        return f"flight_{rid}_{self.envelope_id[:12]}.json"


def write_envelope(path, envelope: FlightEnvelope) -> str:
    """Write *envelope* as JSON (atomically); returns the final path.

    When *path* is a directory the canonical :meth:`~FlightEnvelope.
    filename` is used inside it.
    """
    final = os.fspath(path)
    if os.path.isdir(final):
        final = os.path.join(final, envelope.filename())

    def write(handle) -> None:
        json.dump(envelope.to_dict(), handle, indent=2, default=repr)
        handle.write("\n")

    write_atomic(final, write)
    return final


def read_envelope(path) -> FlightEnvelope:
    """Load one envelope from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict):
        raise ValueError(f"{path}: not a flight envelope")
    return FlightEnvelope.from_dict(record)
