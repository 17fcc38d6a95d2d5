"""Resilient multi-engine CQA dispatching.

``repro.dispatch`` turns the runtime layer's primitives (budgets,
cooperative cancellation, fault injection) into graceful degradation
through redundancy: a fallback ladder of CQA engines — Fuxman–Miller
SQL rewriting, generic FO rewriting, the component-local repair search,
budgeted repair enumeration, and the anytime certain-core bracket (the
ASP repair program stays selectable off the ladder) — guarded by
typed applicability checks, per-engine circuit breakers, per-rung
budget slices, and (for engines that can wedge non-cooperatively)
subprocess isolation with a watchdog kill.

Usage::

    from repro.dispatch import Dispatcher, DispatchPolicy

    d = Dispatcher(DispatchPolicy(shadow_rate=0.1))
    result = d.dispatch(db, constraints, query)
    result.answers              # frozenset of certain answers
    result.complete             # False only for the salvage rung
    print(result.provenance.render())

See DESIGN.md ("Resilient dispatch") for the degradation contract.
"""

from .breaker import BreakerState, CircuitBreaker
from .dispatcher import (
    DispatchError,
    DispatchPolicy,
    DispatchResult,
    Dispatcher,
    Provenance,
    RungOutcome,
    ShadowReport,
    dispatch_cqa,
)
from .engines import (
    CQARequest,
    DEFAULT_LADDER,
    ENGINES,
    Engine,
    EngineAnswer,
    EngineInapplicableError,
    InstanceKey,
    applicable_engines,
    get_engine,
)
from .pool import PoolConfig, PoolSaturatedError, WorkerPool
from .worker import (
    WorkerCrashError,
    WorkerError,
    WorkerTimeoutError,
    run_isolated,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "CQARequest",
    "InstanceKey",
    "DEFAULT_LADDER",
    "DispatchError",
    "DispatchPolicy",
    "DispatchResult",
    "Dispatcher",
    "ENGINES",
    "Engine",
    "EngineAnswer",
    "EngineInapplicableError",
    "PoolConfig",
    "PoolSaturatedError",
    "Provenance",
    "RungOutcome",
    "ShadowReport",
    "WorkerCrashError",
    "WorkerError",
    "WorkerPool",
    "applicable_engines",
    "dispatch_cqa",
    "get_engine",
    "run_isolated",
]
