"""Unified execution budgets, cooperative cancellation, and graceful
degradation for the solver/repair/CQA pipeline.

Usage — anytime enumeration of an instance with ``2**20`` S-repairs::

    from repro.runtime import Budget
    from repro.repairs import s_repairs_partial

    partial = s_repairs_partial(db, constraints,
                                budget=Budget(timeout=1.0))
    partial.complete      # False
    partial.exhausted     # BudgetExhaustion.DEADLINE ("deadline")
    partial.value         # a sound, non-empty prefix of the S-repairs

Strict callers opt into exceptions instead of prefixes::

    s_repairs(db, constraints, budget=Budget(timeout=1.0, strict=True))
    # -> raises repro.errors.BudgetExceededError

The subpackage also houses the deterministic fault-injection harness
(:mod:`repro.runtime.faults`) and the transient-failure retry helper
(:mod:`repro.runtime.retry`) used by the SQLite rewriting backend.
"""

from ..errors import BudgetExceededError, TransientBackendError
from .budget import (
    Budget,
    BudgetExhaustion,
    check_deadline,
    checkpoint,
    count_result,
    current_budget,
    resolve_budget,
    suspend_budget,
    use_budget,
)
from .faults import FaultPlan, active_plan, inject
from .partial import Partial
from .retry import TRANSIENT_ERRORS, retry_transient

__all__ = [
    "Budget",
    "BudgetExhaustion",
    "BudgetExceededError",
    "TransientBackendError",
    "Partial",
    "FaultPlan",
    "TRANSIENT_ERRORS",
    "check_deadline",
    "checkpoint",
    "count_result",
    "current_budget",
    "resolve_budget",
    "suspend_budget",
    "use_budget",
    "inject",
    "active_plan",
    "retry_transient",
]
