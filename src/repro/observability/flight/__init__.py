"""Flight recorder & deterministic replay for CQA dispatch.

Three pieces, mirroring an aircraft black box:

- :mod:`.envelope` — the content-addressed, self-contained record of
  one request: digests, pickled payload, decision inputs (budget spec,
  fault-plan state, breaker snapshots, shadow sampling), the per-rung
  decision trail with predicted-vs-actual wall time, and the canonical
  answer/provenance projections;
- :mod:`.recorder` — the capture side: an installable
  :class:`FlightRecorder` fed by the dispatcher's request-start and
  request-end hooks (the end hook carries the request's provenance, from
  which the decision trail is derived) and a tap on the live plane's
  event stream, capturing automatically on anomaly signals
  (budget exhaustion, shadow disagreement, breaker trip, worker kill,
  request error, per-request SLO breach) or on demand;
- :mod:`.replay` — the consumption side: ``repro obs replay`` re-runs
  an envelope under the recorded seed/fault state and diffs answer +
  provenance bit-for-bit; ``repro obs explain`` renders the decision
  trail.

.. note::
   :mod:`.replay` imports the dispatcher, which itself calls into this
   package's recorder — import :mod:`repro.observability.flight.replay`
   directly (it is deliberately not re-exported here, so importing the
   dispatch package never recurses into it).
"""

from .envelope import (
    ENVELOPE_SCHEMA,
    FlightEnvelope,
    canonical_answer,
    canonical_json,
    canonical_provenance,
    constraints_digest,
    instance_digest,
    normalize_reason,
    query_digest,
    read_envelope,
    write_envelope,
)
from .recorder import (
    ANOMALY_EVENT_KINDS,
    FlightRecorder,
    current_recorder,
    flight_begin,
    flight_end,
    flight_installed,
    install_recorder,
    predict_rung_cost,
    recording,
    uninstall_recorder,
)

__all__ = [
    "ANOMALY_EVENT_KINDS",
    "ENVELOPE_SCHEMA",
    "FlightEnvelope",
    "FlightRecorder",
    "canonical_answer",
    "canonical_json",
    "canonical_provenance",
    "constraints_digest",
    "current_recorder",
    "flight_begin",
    "flight_end",
    "flight_installed",
    "install_recorder",
    "instance_digest",
    "normalize_reason",
    "predict_rung_cost",
    "query_digest",
    "read_envelope",
    "recording",
    "uninstall_recorder",
    "write_envelope",
]
