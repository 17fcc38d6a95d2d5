"""The resilient CQA front-end: a fallback ladder over the engines.

One request — ``(db, constraints, query, semantics)`` — walks the
ladder top down.  Each rung is guarded three ways before it runs:

1. **applicability** — the engine's typed check
   (:class:`~repro.errors.NotRewritableError` /
   :class:`~repro.dispatch.engines.EngineInapplicableError`); an
   inapplicable rung is recorded and skipped silently;
2. **circuit breaker** — a rung whose engine has failed
   ``failure_threshold`` consecutive times is skipped outright until
   its cooldown elapses (then one half-open probe is let through);
3. **budget slice** — the request's remaining wall time is divided
   over the exact rungs still ahead, so one slow engine cannot starve
   every rung below it.

Exact rungs either return a complete answer or fail, and the
dispatcher *falls through*.  A failure that another request could hit
too (a SQLite or worker fault, a crash, a watchdog kill) charges the
breaker; a rung that runs out of its request's own budget does not,
so one tenant's deadlines cannot skip an engine for all.  Only the
final certain-core rung may answer incompletely — a sound
under-approximation, never a wrong answer.  Every result carries a
:class:`Provenance` record (winning engine, what each rung did and
why), and an optional **shadow mode** re-runs a sampled fraction of
requests on the next applicable engine, counting disagreements as
``dispatch.shadow_disagreements`` for the observability layer — the
cheap production insurance against a rewriting bug that type checks
but answers wrongly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..constraints.conflicts import ConflictHypergraph
from ..errors import BudgetExceededError, NotRewritableError, ReproError
from ..observability import add, annotate, span
from ..observability.flight.recorder import (
    flight_begin,
    flight_end,
    flight_installed,
)
from ..observability.live import (
    current_request_id,
    emit_event,
    live_add,
    live_gauge,
    live_installed,
    live_observe,
    request_scope,
)
from ..relational.database import Database, Row
from ..runtime import (
    Budget,
    active_plan,
    resolve_budget,
    suspend_budget,
    use_budget,
)
from .breaker import CircuitBreaker
from .engines import (
    CQARequest,
    DEFAULT_LADDER,
    EngineAnswer,
    EngineInapplicableError,
    InstanceKey,
    get_engine,
)
from .pool import PoolSaturatedError, WorkerPool
from .worker import run_isolated

__all__ = [
    "DispatchError",
    "DispatchPolicy",
    "DispatchResult",
    "Dispatcher",
    "Provenance",
    "RungOutcome",
    "ShadowReport",
    "dispatch_cqa",
]

_INAPPLICABLE = (NotRewritableError, EngineInapplicableError)


class DispatchError(ReproError):
    """No engine — not even the sound salvage rung — could serve the
    request.  The message renders the per-rung outcomes; ``provenance``
    carries them."""

    def __init__(
        self, message: str, provenance: Optional[Provenance] = None
    ) -> None:
        super().__init__(message)
        self.provenance = provenance


@dataclass(frozen=True)
class RungOutcome:
    """What one ladder rung did for one request.

    The one record of a rung: the request's provenance, the live
    ``dispatch.rungs.<status>`` counters and ``rung.*`` events, and the
    flight envelope's decision trail all read it.  ``ran`` is False for
    a rung refused before it ran, by its applicability check (then
    ``reason`` is the check's verdict) or by its open breaker.
    ``slice_s`` is the budget slice a rung that ran was given, and
    ``breaker`` the state the rung left its breaker in.
    """

    engine: str
    status: str  # "ok"|"failed"|"inapplicable"|"breaker-open"|"saturated"
    reason: str = ""
    elapsed_s: float = 0.0
    ran: bool = False
    slice_s: Optional[float] = None
    breaker: str = ""

    def render(self) -> str:
        note = f": {self.reason}" if self.reason else ""
        return f"{self.engine}: {self.status}{note}"


@dataclass(frozen=True)
class ShadowReport:
    """Outcome of a shadow cross-check against a second engine."""

    engine: str
    agreed: Optional[bool]  # None: the shadow engine itself failed
    reason: str = ""


@dataclass(frozen=True)
class Provenance:
    """How an answer was produced: winning engine, rung history, shadow."""

    engine: Optional[str]
    complete: bool
    rungs: Tuple[RungOutcome, ...]
    shadow: Optional[ShadowReport] = None

    def render(self) -> str:
        lines = [outcome.render() for outcome in self.rungs]
        if self.shadow is not None:
            verdict = (
                "agreed" if self.shadow.agreed
                else "DISAGREED" if self.shadow.agreed is not None
                else f"failed ({self.shadow.reason})"
            )
            lines.append(f"shadow {self.shadow.engine}: {verdict}")
        return "\n".join(lines)


@dataclass(frozen=True)
class DispatchResult:
    """Answers plus the completeness claim and full provenance."""

    answers: FrozenSet[Row]
    complete: bool
    provenance: Provenance
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class DispatchPolicy:
    """Tunables of one dispatcher instance.

    ``isolate`` names the engines to run under hard subprocess
    isolation (only engines flagged ``isolatable`` are eligible; names
    of cooperative engines are ignored).  ``rung_timeout`` is a fixed
    per-rung wall cap applied even when the request carries no budget;
    the per-request deadline, when present, is always divided over the
    exact rungs still ahead and the tighter of the two caps wins.
    """

    ladder: Tuple[str, ...] = DEFAULT_LADDER
    failure_threshold: int = 3
    cooldown_s: float = 30.0
    isolate: Tuple[str, ...] = ()
    watchdog_s: float = 10.0
    rung_timeout: Optional[float] = None
    shadow_rate: float = 0.0
    shadow_seed: int = 0

    def __post_init__(self) -> None:
        if not self.ladder:
            raise ValueError("the ladder needs at least one engine")
        for name in self.ladder + tuple(self.isolate):
            get_engine(name)  # raises on unknown names
        if not 0.0 <= self.shadow_rate <= 1.0:
            raise ValueError("shadow_rate must be in [0, 1]")


def _budget_spec(budget: Optional[Budget]) -> Optional[dict]:
    """A budget as a JSON-ready spec for the flight envelope.

    Carries the already-consumed steps/results so replay resumes
    consumption exactly where the recorded request started.
    """
    if budget is None:
        return None
    return {
        "timeout": budget.timeout,
        "max_steps": budget.max_steps,
        "max_results": budget.max_results,
        "strict": budget.strict,
        "steps": budget.steps,
        "results": budget.results,
    }


class Dispatcher:
    """A stateful multi-engine CQA front-end.

    State that must survive across requests — breaker counters and the
    shadow sampling stream — lives here; one dispatcher serves many
    requests.  The clock is injectable for deterministic breaker tests.
    """

    def __init__(
        self,
        policy: Optional[DispatchPolicy] = None,
        clock=time.monotonic,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.policy = policy or DispatchPolicy()
        # A warm pool replaces spawn-per-request for isolated rungs.  It
        # is runtime wiring, not policy: the flight envelope records the
        # same policy either way, and replay always re-executes through
        # run_isolated (a recorded answer does not depend on which
        # isolation transport produced it).  The same holds for the
        # pool's warm instance state: envelopes do not record the
        # request's instance_key, and replay runs cold.
        self._pool = pool
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(
                name,
                failure_threshold=self.policy.failure_threshold,
                cooldown_s=self.policy.cooldown_s,
                clock=clock,
            )
            for name in self.policy.ladder
        }
        self._shadow_rng = random.Random(self.policy.shadow_seed)
        self._clock = clock

    # ------------------------------------------------------------------

    def dispatch(
        self,
        db: Database,
        constraints: Sequence,
        query,
        semantics: str = "s",
        budget: Optional[Budget] = None,
        instance_key: Optional[InstanceKey] = None,
    ) -> DispatchResult:
        """Serve one CQA request through the fallback ladder.

        Returns a :class:`DispatchResult`; raises :class:`DispatchError`
        only when every rung (including the salvage rung) is
        inapplicable or failed — never a wrong answer, never a bare
        backend traceback.  ``instance_key`` names a registered
        database's version and its last mutation steps (see
        :class:`CQARequest`); it reaches only the worker pool, which
        may then skip shipping the instance.
        """
        request = CQARequest(
            db, tuple(constraints), query, semantics, instance_key
        )
        budget = resolve_budget(budget)
        if budget is not None:
            budget.start()
        live_add("dispatch.requests")
        # Reuse the ambient request id when the serving layer already
        # opened one, so serve.* and dispatch events correlate as one
        # request trail; a bare library call still gets a fresh id.
        with request_scope(current_request_id()) as rid, span(
            "dispatch.request", semantics=semantics, request_id=rid
        ):
            started = self._clock()
            stats = self._shape_stats(request)
            if flight_installed():
                plan = active_plan()
                flight_begin(
                    request,
                    request_id=rid,
                    policy=self._policy_spec(),
                    budget=_budget_spec(budget),
                    fault_plan=(
                        plan.snapshot() if plan is not None else None
                    ),
                    breakers={
                        name: breaker.snapshot()
                        for name, breaker in self.breakers.items()
                    },
                    shape_stats=stats,
                )
            emit_event(
                "request.start",
                semantics=semantics,
                ladder=list(self.policy.ladder),
                conflicts=stats,
            )
            try:
                result, shadow_sampled = self._walk_ladder(request, budget)
            except Exception as exc:  # noqa: BLE001 — telemetry only
                error = f"{type(exc).__name__}: {exc}"
                self._finish_request(
                    "error", None, started, budget, error=error,
                )
                provenance = (
                    exc.provenance if isinstance(exc, DispatchError) else None
                )
                flight_end("error", provenance, error=error)
                raise
            outcome = "ok" if result.complete else "degraded"
            self._finish_request(
                outcome, result.provenance.engine, started, budget
            )
            flight_end(
                outcome, result.provenance, shadow_sampled, result=result
            )
            annotate(
                engine=result.provenance.engine or "",
                complete=result.complete,
            )
            return result

    def _policy_spec(self) -> dict:
        """The policy as a JSON-ready dict for the flight envelope."""
        policy = self.policy
        return {
            "ladder": list(policy.ladder),
            "failure_threshold": policy.failure_threshold,
            "cooldown_s": policy.cooldown_s,
            "isolate": list(policy.isolate),
            "watchdog_s": policy.watchdog_s,
            "rung_timeout": policy.rung_timeout,
            "shadow_rate": policy.shadow_rate,
            "shadow_seed": policy.shadow_seed,
        }

    def _shape_stats(self, request: CQARequest) -> Optional[dict]:
        """Conflict-graph shape stats for the request, when the live
        plane or the flight recorder wants them (None otherwise — the
        build is not free).

        Reads the instance's own graph (:meth:`ConflictHypergraph.of`),
        which its first reader builds and every later one shares, the
        ``local`` and certain-core rungs included; the stats are
        memoized on the graph.  Runs with any ambient budget masked: an
        exhausted or tight request budget must not be charged for
        telemetry, and telemetry must not raise into the serving path.
        Since this runs before the ladder, the rungs never pay for the
        build while anything observes, in recording or in replay.
        """
        if not live_installed() and not flight_installed():
            return None
        try:
            with suspend_budget():
                graph = ConflictHypergraph.of(
                    request.db, request.constraints
                )
        except Exception:  # noqa: BLE001 — non-denial constraints
            return None
        stats = graph.shape_stats()
        for metric in ("edges", "max_component_size", "max_degree"):
            live_observe(f"dispatch.conflicts.{metric}", stats[metric])
        return stats

    def _finish_request(
        self,
        outcome: str,
        engine: Optional[str],
        started: float,
        budget: Optional[Budget],
        **fields,
    ) -> None:
        """Close out one request on the live plane: outcome counters,
        the ``request.end`` event, latency and budget-consumption
        histograms, and per-engine breaker introspection gauges."""
        elapsed_ms = (self._clock() - started) * 1000.0
        live_add(f"dispatch.requests.{outcome}")
        live_observe("dispatch.latency_ms", elapsed_ms)
        if budget is not None:
            live_observe("dispatch.budget.steps", budget.steps)
            live_observe(
                "dispatch.budget.elapsed_ms", budget.elapsed() * 1000.0
            )
        for name, breaker in self.breakers.items():
            live_gauge(f"dispatch.breaker.state.{name}", str(breaker.state()))
            live_gauge(f"dispatch.breaker.failures.{name}", breaker.failures)
            live_gauge(f"dispatch.breaker.trips.{name}", breaker.trips)
        emit_event(
            "request.end",
            outcome=outcome,
            engine=engine,
            elapsed_ms=elapsed_ms,
            **fields,
        )

    # ------------------------------------------------------------------

    def _walk_ladder(
        self, request: CQARequest, budget: Optional[Budget]
    ) -> Tuple[DispatchResult, Optional[bool]]:
        """Walk the ladder to the first rung that answers; returns the
        result and the shadow draw (see :meth:`_maybe_shadow`)."""
        applicable = self._applicability(request)
        outcomes: List[RungOutcome] = []
        answer: Optional[EngineAnswer] = None
        for index, name in enumerate(self.policy.ladder):
            outcome, answer = self._try_rung(
                request, budget, applicable, index, name
            )
            outcomes.append(outcome)
            _note_rung(outcome, answer)
            if answer is not None:
                break
        if answer is None:
            summary = "; ".join(o.render() for o in outcomes)
            raise DispatchError(
                "no engine could produce a sound answer "
                f"(semantics={request.semantics}): {summary}",
                Provenance(None, False, tuple(outcomes)),
            )
        winner = outcomes[-1].engine
        if not answer.complete:
            add("dispatch.incomplete")
        sampled, shadow = self._maybe_shadow(
            request, winner, answer, applicable
        )
        provenance = Provenance(
            winner, answer.complete, tuple(outcomes), shadow
        )
        return DispatchResult(
            answer.answers, answer.complete, provenance,
            dict(answer.detail),
        ), sampled

    def _try_rung(
        self,
        request: CQARequest,
        budget: Optional[Budget],
        applicable: Dict[str, Optional[str]],
        index: int,
        name: str,
    ) -> Tuple[RungOutcome, Optional[EngineAnswer]]:
        """Gate and run the rung at *index*; returns its outcome and,
        when it answered, its answer."""
        breaker = self.breakers[name]
        verdict = applicable.get(name)
        if verdict is not None:  # inapplicable, with the typed reason
            return RungOutcome(
                name, "inapplicable", verdict,
                breaker=str(breaker.state()),
            ), None
        if not breaker.allows():
            reason = (
                f"cooldown {breaker.cooldown_s:g}s after "
                f"{breaker.failures} consecutive failure(s)"
            )
            return RungOutcome(
                name, "breaker-open", reason,
                breaker=str(breaker.state()),
            ), None
        slice_s = self._slice(request, budget, applicable, index)
        live_add("dispatch.rungs.attempted")
        emit_event("rung.attempt", engine=name, slice_s=slice_s)
        started = self._clock()
        answer: Optional[EngineAnswer] = None
        try:
            answer = self._run_rung(request, name, slice_s)
        except _INAPPLICABLE as exc:
            # check() passed but run() found a deeper class issue;
            # the engine is healthy, so no breaker penalty.
            breaker.release()
            status, reason = "inapplicable", str(exc)
        except PoolSaturatedError as exc:
            # Every warm worker is busy: the engine is healthy, so no
            # breaker penalty — fall through (typically to the
            # in-process anytime bracket) and let admission control
            # relieve the pressure.
            breaker.release()
            status, reason = "saturated", str(exc)
        except Exception as exc:  # noqa: BLE001 — rung firewall
            if isinstance(exc, BudgetExceededError):
                # The request's own budget (its slice of the deadline,
                # its steps) ran out: the rung fails, the engine is
                # not at fault, so no breaker penalty.
                breaker.release()
            else:
                breaker.record_failure()
            add("dispatch.rung_failures")
            add("dispatch.fallbacks")
            status, reason = "failed", f"{type(exc).__name__}: {exc}"
        else:
            breaker.record_success()
            status, reason = "ok", ""
        return RungOutcome(
            name, status, reason, self._clock() - started,
            ran=True, slice_s=slice_s, breaker=str(breaker.state()),
        ), answer

    def _applicability(
        self, request: CQARequest
    ) -> Dict[str, Optional[str]]:
        """Map each ladder engine to None (applicable) or the typed
        rejection message."""
        verdicts: Dict[str, Optional[str]] = {}
        for name in self.policy.ladder:
            try:
                get_engine(name).check(request)
                verdicts[name] = None
            except _INAPPLICABLE as exc:
                verdicts[name] = str(exc)
        return verdicts

    def _slice(
        self,
        request: CQARequest,
        budget: Optional[Budget],
        applicable: Dict[str, Optional[str]],
        index: int,
    ) -> Optional[float]:
        """The wall-time slice for the rung at *index* of the ladder.

        The request's remaining deadline is split evenly over the exact
        applicable rungs from *index* on (the salvage rung runs with the
        budget masked, so it takes no share); a policy ``rung_timeout``
        additionally caps every rung.
        """
        slice_s: Optional[float] = None
        if budget is not None:
            remaining = budget.remaining_time()
            if remaining is not None:
                share = sum(
                    1
                    for name in self.policy.ladder[index:]
                    if applicable.get(name) is None
                    and get_engine(name).exact
                )
                slice_s = remaining / max(1, share)
        if self.policy.rung_timeout is not None:
            slice_s = (
                self.policy.rung_timeout
                if slice_s is None
                else min(slice_s, self.policy.rung_timeout)
            )
        return slice_s

    def _run_rung(
        self,
        request: CQARequest,
        name: str,
        slice_s: Optional[float],
        wedge_s: Optional[float] = None,
    ) -> EngineAnswer:
        engine = get_engine(name)
        with span("dispatch.rung", engine=name):
            if name in self.policy.isolate and engine.isolatable:
                watchdog = (
                    slice_s * 1.5 + 1.0
                    if slice_s is not None
                    else self.policy.watchdog_s
                )
                if self._pool is not None:
                    return self._pool.run_engine(
                        name,
                        request,
                        watchdog_s=watchdog,
                        budget_timeout=slice_s,
                        wedge_s=wedge_s,
                    )
                return run_isolated(
                    name,
                    request,
                    watchdog_s=watchdog,
                    budget_timeout=slice_s,
                    wedge_s=wedge_s,
                )
            # Always install a rung budget: it carries the slice
            # deadline and gives the fault-injection hook a checkpoint
            # stream even on otherwise unbudgeted requests.
            rung_budget = Budget(timeout=slice_s)
            with use_budget(rung_budget):
                return engine.run(request)

    # ------------------------------------------------------------------

    def _maybe_shadow(
        self,
        request: CQARequest,
        winner: str,
        answer: EngineAnswer,
        applicable: Dict[str, Optional[str]],
    ) -> Tuple[Optional[bool], Optional[ShadowReport]]:
        """Cross-check a sampled fraction of complete answers on the
        next applicable exact engine; count disagreements.

        Returns the sampling draw with the report.  The draw (not the
        raw RNG value) is what the flight recorder keeps: replay cannot
        reconstruct a mid-stream RNG position, so it forces the recorded
        draw instead.  An ineligible request (incomplete, or rate 0)
        never draws, so its draw is None.
        """
        if not answer.complete or self.policy.shadow_rate <= 0.0:
            return None, None
        if self._shadow_rng.random() >= self.policy.shadow_rate:
            return False, None
        candidate = next(
            (
                name
                for name in self.policy.ladder
                if name != winner
                and applicable.get(name) is None
                and get_engine(name).exact
            ),
            None,
        )
        if candidate is None:
            return True, None
        add("dispatch.shadow_runs")
        try:
            shadow_answer = self._run_rung(
                request, candidate, self.policy.rung_timeout
            )
        except Exception as exc:  # noqa: BLE001 — shadow is best-effort
            return True, ShadowReport(
                candidate, None, f"{type(exc).__name__}: {exc}"
            )
        if not shadow_answer.complete:
            return True, ShadowReport(candidate, None, "incomplete")
        agreed = shadow_answer.answers == answer.answers
        if not agreed:
            add(f"dispatch.shadow_disagreements.{candidate}")
            live_add("dispatch.shadow_disagreements")
            emit_event(
                "shadow.disagreement", engine=winner, shadow=candidate
            )
            annotate(shadow_disagreement=candidate)
        return True, ShadowReport(candidate, agreed)


def _note_rung(
    outcome: RungOutcome, answer: Optional[EngineAnswer]
) -> None:
    """Count a rung's outcome as ``dispatch.rungs.<status>`` and emit
    its ``rung.ok``, ``rung.failure`` or ``rung.skip`` event."""
    live_add(f"dispatch.rungs.{outcome.status}")
    if answer is not None:
        emit_event(
            "rung.ok",
            engine=outcome.engine,
            complete=answer.complete,
            elapsed_ms=outcome.elapsed_s * 1000.0,
        )
    elif outcome.status == "failed":
        emit_event("rung.failure", engine=outcome.engine, error=outcome.reason)
    else:
        emit_event("rung.skip", engine=outcome.engine, reason=outcome.reason)


def dispatch_cqa(
    db: Database,
    constraints: Sequence,
    query,
    semantics: str = "s",
    policy: Optional[DispatchPolicy] = None,
    budget: Optional[Budget] = None,
) -> DispatchResult:
    """One-shot convenience: dispatch a single request on a fresh
    :class:`Dispatcher` (no breaker state carries over)."""
    return Dispatcher(policy).dispatch(
        db, constraints, query, semantics=semantics, budget=budget
    )
