"""Admission control: decide *at the door* instead of collapsing inside.

An overloaded queueing system has exactly two honest options: bound the
queue and reject the excess quickly, or watch every request's latency
climb past its deadline while the queue grows without bound.  The
controller here takes the first option, per tenant:

* **concurrency slots** — at most ``max_concurrent`` requests of one
  tenant run at once; arrivals beyond that wait in a queue bounded by
  ``max_queue``;
* **deadline-aware shedding** — a request whose expected wait (queue
  depth × the tenant's service-time EWMA) already exceeds its timeout
  is rejected immediately: it would miss its deadline anyway, so
  queueing it only wastes a slot someone else could still use;
* **windowed quotas** — a reused :class:`repro.runtime.Budget` with
  ``max_results`` counts requests per fixed window; an exhausted quota
  sheds with Retry-After = the window's remaining seconds;
* **per-tenant breaker** — a reused
  :class:`repro.dispatch.breaker.CircuitBreaker`: a tenant whose
  requests keep *erroring* (not shedding — shedding is the controller
  working) is cut off for a cooldown, so one poisonous workload cannot
  grind the shared pool.

Every rejection raises :class:`ShedError`, a
:class:`~repro.serve.specs.Refusal` that carries its well-formed shed
response: the HTTP status (429 for backpressure, 503 for the breaker)
and a ``retry_after_s`` hint.  Admission decisions are deliberately
cheap — one lock, no I/O — so the door stays fast exactly when the
house is full.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..dispatch.breaker import CircuitBreaker
from ..errors import BudgetExceededError
from ..observability.live import emit_event, live_add, live_gauge
from ..runtime import Budget
from .specs import Refusal

__all__ = ["AdmissionController", "ShedError", "Ticket", "TenantPolicy"]


class ShedError(Refusal):
    """The front door rejected a request (backpressure, not failure).

    Its response is a well-formed shed: the status code, a
    machine-readable reason, and the Retry-After hint (at least 0.1 s)
    in the body and, in whole seconds, as the header.
    """

    outcome = "shed"

    def __init__(
        self, reason: str, retry_after_s: float = 1.0, status: int = 429
    ) -> None:
        self.reason = reason
        self.retry_after_s = max(0.0, retry_after_s)
        retry_after = max(0.1, self.retry_after_s)
        super().__init__(
            status,
            {
                "error": "shed",
                "reason": reason,
                "retry_after_s": round(retry_after, 3),
            },
            {"Retry-After": str(max(1, int(round(retry_after))))},
        )


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission limits (one policy shared by all tenants)."""

    #: Concurrent requests of one tenant actually executing.
    max_concurrent: int = 4
    #: Arrivals allowed to wait for a slot beyond those executing.
    max_queue: int = 8
    #: Timeout assumed for requests that do not state one.
    default_timeout_s: float = 5.0
    #: Hard cap on any stated per-request timeout.
    max_timeout_s: float = 30.0
    #: Fixed quota window length.
    quota_window_s: float = 60.0
    #: Requests admitted per window (None = unmetered).
    quota_requests: Optional[int] = None
    #: Consecutive *errors* (not sheds) before the tenant breaker trips.
    failure_threshold: int = 5
    #: Tenant-breaker cooldown.
    cooldown_s: float = 5.0


class _TenantState:
    """Everything the controller tracks about one tenant.

    Guarded by its own condition variable: slot waits and releases are
    per-tenant, so tenants never contend on each other's locks.
    """

    def __init__(
        self, name: str, policy: TenantPolicy, clock: Callable[[], float]
    ) -> None:
        self.name = name
        self.policy = policy
        self.clock = clock
        self.cond = threading.Condition()
        self.inflight = 0
        self.queued = 0
        #: Exponentially weighted service time, seeded pessimistically
        #: at zero so a fresh tenant is never shed on a guess.
        self.ewma_s = 0.0
        self.breaker = CircuitBreaker(
            f"tenant:{name}",
            failure_threshold=policy.failure_threshold,
            cooldown_s=policy.cooldown_s,
            clock=clock,
        )
        self.window_started = clock()
        self.quota = self._fresh_quota()

    def _fresh_quota(self) -> Optional[Budget]:
        if self.policy.quota_requests is None:
            return None
        budget = Budget(max_results=self.policy.quota_requests)
        budget.start()
        return budget

    def roll_window_if_due(self) -> None:
        now = self.clock()
        if now - self.window_started >= self.policy.quota_window_s:
            self.window_started = now
            self.quota = self._fresh_quota()

    def window_remaining_s(self) -> float:
        return max(
            0.0,
            self.policy.quota_window_s
            - (self.clock() - self.window_started),
        )

    def observe_service_time(self, elapsed_s: float) -> None:
        alpha = 0.2
        self.ewma_s = (
            elapsed_s
            if self.ewma_s == 0.0
            else (1 - alpha) * self.ewma_s + alpha * elapsed_s
        )


class Ticket:
    """Proof of admission; must be finished exactly once.

    ``finish`` releases the concurrency slot, feeds the service-time
    EWMA, and reports the outcome to the tenant breaker — ``error``
    counts against it, everything else (ok, degraded) counts for it.
    """

    def __init__(self, controller: "AdmissionController", state) -> None:
        self._controller = controller
        self._state = state
        self._done = False

    def finish(self, outcome: str, elapsed_s: float) -> None:
        if self._done:
            return
        self._done = True
        state = self._state
        with state.cond:
            state.inflight -= 1
            state.observe_service_time(elapsed_s)
            state.cond.notify()
        if outcome == "error":
            state.breaker.record_failure()
        else:
            state.breaker.record_success()
        self._controller._publish_gauges(state)


class AdmissionController:
    """The per-tenant front door; thread-safe, blocking ``admit``."""

    def __init__(
        self,
        policy: Optional[TenantPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or TenantPolicy()
        self._clock = clock
        self._tenants: Dict[str, _TenantState] = {}
        self._lock = threading.Lock()

    def _tenant(self, name: str) -> _TenantState:
        with self._lock:
            state = self._tenants.get(name)
            if state is None:
                state = _TenantState(name, self.policy, self._clock)
                self._tenants[name] = state
            return state

    def clamp_timeout(self, timeout_s: Optional[float]) -> float:
        policy = self.policy
        if timeout_s is None:
            return policy.default_timeout_s
        return min(max(0.001, float(timeout_s)), policy.max_timeout_s)

    def admit(
        self, tenant: str, timeout_s: Optional[float] = None
    ) -> Ticket:
        """Block until the tenant may run a request, or shed.

        Raises :class:`ShedError` with a reason the caller can put on
        the wire: ``tenant-breaker-open`` (503), ``quota-exhausted``,
        ``queue-full``, ``deadline-unreachable``, or ``queue-timeout``
        (all 429).
        """
        timeout_s = self.clamp_timeout(timeout_s)
        state = self._tenant(tenant)
        policy = self.policy
        if not state.breaker.allows():
            self._shed(
                state,
                "tenant-breaker-open",
                retry_after_s=policy.cooldown_s,
                status=503,
            )
        with state.cond:
            state.roll_window_if_due()
            if state.quota is not None:
                try:
                    state.quota.count_result(1)
                except BudgetExceededError:
                    self._shed(
                        state,
                        "quota-exhausted",
                        retry_after_s=state.window_remaining_s(),
                    )
            # Queue bounds only matter for requests that would actually
            # wait: with a free slot, max_queue=0 still admits.
            must_wait = state.inflight >= policy.max_concurrent
            if must_wait and state.queued >= policy.max_queue:
                self._shed(
                    state,
                    "queue-full",
                    retry_after_s=max(0.1, state.ewma_s),
                )
            # Requests already ahead of this one, times how long each
            # tends to hold a slot, spread over the slot count: if that
            # expected wait alone blows the deadline, queueing is lying.
            ahead = state.queued + max(
                0, state.inflight - policy.max_concurrent + 1
            )
            expected_wait = (
                ahead * state.ewma_s / max(1, policy.max_concurrent)
            )
            if state.ewma_s > 0.0 and expected_wait > timeout_s:
                self._shed(
                    state,
                    "deadline-unreachable",
                    retry_after_s=expected_wait,
                )
            state.queued += 1
            self._publish_gauges(state)
            deadline = self._clock() + timeout_s
            try:
                while state.inflight >= policy.max_concurrent:
                    remaining = deadline - self._clock()
                    if remaining <= 0 or not state.cond.wait(
                        timeout=remaining
                    ):
                        if deadline - self._clock() <= 0:
                            self._shed(
                                state,
                                "queue-timeout",
                                retry_after_s=max(0.1, state.ewma_s),
                            )
                state.inflight += 1
            finally:
                state.queued -= 1
            self._publish_gauges(state)
        live_add("serve.admitted")
        return Ticket(self, state)

    def _shed(
        self,
        state: _TenantState,
        reason: str,
        retry_after_s: float,
        status: int = 429,
    ) -> None:
        live_add("serve.shed")
        live_add(f"serve.shed.{reason}")
        emit_event(
            "serve.shed",
            tenant=state.name,
            reason=reason,
            retry_after_s=retry_after_s,
        )
        raise ShedError(reason, retry_after_s=retry_after_s, status=status)

    def _publish_gauges(self, state: _TenantState) -> None:
        live_gauge(f"serve.tenant.inflight.{state.name}", state.inflight)
        live_gauge(f"serve.tenant.queued.{state.name}", state.queued)

    def retry_after_hint(self) -> float:
        """Expected seconds until a slot frees up, across tenants.

        The busiest tenant's service-time EWMA scaled by its backlog
        per concurrency slot — the controller's best estimate of when
        a retried request would actually be admitted, used wherever a
        shed needs a Retry-After that is not a made-up constant.
        Clamped to [0.1, 30]; 1.0 when there is no signal yet.
        """
        with self._lock:
            tenants = list(self._tenants.values())
        hint = 0.0
        for state in tenants:
            with state.cond:
                backlog = state.inflight + state.queued
                ewma = state.ewma_s
            if backlog and ewma:
                per_slot = (
                    ewma * backlog / max(1, self.policy.max_concurrent)
                )
                hint = max(hint, per_slot)
        if hint <= 0.0:
            return 1.0
        return min(30.0, max(0.1, hint))

    def stats(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            tenants = dict(self._tenants)
        return {
            name: {
                "inflight": state.inflight,
                "queued": state.queued,
                "ewma_s": round(state.ewma_s, 6),
                "breaker": str(state.breaker.state()),
                "quota_remaining": (
                    None
                    if state.quota is None
                    else max(
                        0,
                        (state.quota.max_results or 0)
                        - state.quota.results,
                    )
                ),
            }
            for name, state in tenants.items()
        }
