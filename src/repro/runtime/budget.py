"""Execution budgets and cooperative cancellation.

Every core algorithm in this reproduction is worst-case exponential
(S-repair counting is #P-hard; C-repair problems reach the second level
of the polynomial hierarchy), so unbounded runs are a matter of input
shape, not code quality.  A :class:`Budget` carries the three resource
caps the pipeline understands —

* a **wall-clock deadline** (``timeout`` seconds from activation),
* a **step budget** (cooperative checkpoint calls in the hot loops),
* a **result-count cap** (repairs / models / answers emitted),

— and the hot loops call the module-level :func:`checkpoint` /
:func:`count_result` functions, which are a thread-local read plus an
early return when no budget is active (the same discipline the
observability layer uses to stay under its <5% overhead bound).

On exhaustion :meth:`Budget.checkpoint` raises
:class:`~repro.errors.BudgetExceededError`, which algorithm boundaries
catch and convert into an anytime :class:`~repro.runtime.Partial`
carrying the sound prefix computed so far.  ``strict=True`` budgets ask
those boundaries to re-raise instead.

Budgets activate via :func:`use_budget` (a context manager) so that a
budget passed to a top-level call is visible to every nested layer
(solver inside repair enumerator inside CQA) without threading a
parameter through each signature.
"""

from __future__ import annotations

import enum
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from ..errors import BudgetExceededError
from ..observability import add, annotate
from ..observability.live import emit_event

__all__ = [
    "Budget",
    "BudgetExhaustion",
    "check_deadline",
    "checkpoint",
    "count_result",
    "current_budget",
    "resolve_budget",
    "suspend_budget",
    "use_budget",
]


class BudgetExhaustion(str, enum.Enum):
    """Why a budget ran out.  Members compare equal to their strings."""

    DEADLINE = "deadline"
    STEPS = "steps"
    COUNT = "count"

    def __str__(self) -> str:  # "deadline", not "BudgetExhaustion.DEADLINE"
        return self.value


#: The clock is only consulted every this many checkpoints, keeping the
#: per-iteration cost of deadline budgets to an integer compare.
_CLOCK_STRIDE = 64

#: Set by :mod:`repro.runtime.faults` while a fault plan is installed;
#: called once per checkpoint and may force a BudgetExhaustion reason.
#: Kept here (not imported from faults) to avoid a circular import and
#: to make the inactive cost a single global read.
_fault_hook = None


class Budget:
    """A unified execution budget for one pipeline invocation.

    ``timeout`` is in seconds of wall clock, measured from the first
    activation (:func:`use_budget`) or first checkpoint, whichever comes
    first.  ``max_steps`` bounds cooperative checkpoint calls and
    ``max_results`` bounds emitted results.  ``strict=True`` makes the
    algorithm boundaries re-raise :class:`BudgetExceededError` instead
    of returning a :class:`Partial`.

    A Budget is single-use state: it remembers consumed steps/results
    and, once exhausted, every further checkpoint re-raises.
    """

    __slots__ = (
        "timeout",
        "max_steps",
        "max_results",
        "strict",
        "steps",
        "results",
        "exhausted",
        "_clock",
        "_deadline",
        "_started",
        "_next_clock_check",
    )

    def __init__(
        self,
        *,
        timeout: Optional[float] = None,
        max_steps: Optional[int] = None,
        max_results: Optional[int] = None,
        strict: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if timeout is not None and timeout < 0:
            raise ValueError("timeout must be >= 0")
        if max_steps is not None and max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if max_results is not None and max_results < 0:
            raise ValueError("max_results must be >= 0")
        self.timeout = timeout
        self.max_steps = max_steps
        self.max_results = max_results
        self.strict = strict
        self.steps = 0
        self.results = 0
        self.exhausted: Optional[BudgetExhaustion] = None
        self._clock = clock
        self._deadline: Optional[float] = None
        self._started: Optional[float] = None
        self._next_clock_check = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Budget":
        """Fix the deadline; idempotent (first call wins)."""
        if self._started is None:
            self._started = self._clock()
            if self.timeout is not None:
                self._deadline = self._started + self.timeout
        return self

    def elapsed(self) -> float:
        """Seconds since activation (0.0 before activation)."""
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    def remaining_time(self) -> Optional[float]:
        """Seconds left before the deadline, or None when untimed."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def remaining_results(self) -> Optional[int]:
        """Results still allowed, or None when uncapped."""
        if self.max_results is None:
            return None
        return max(0, self.max_results - self.results)

    # -- consumption ---------------------------------------------------

    def checkpoint(self, n: int = 1) -> None:
        """Consume *n* steps; raise on any exhausted dimension.

        This is the cooperative-cancellation point the hot loops call.
        The deadline is checked only every ``_CLOCK_STRIDE`` steps so a
        timed budget does not pay a clock read per iteration.
        """
        if self.exhausted is not None:
            self._raise(self.exhausted)
        self.steps += n
        if self.max_steps is not None and self.steps > self.max_steps:
            self._exhaust(BudgetExhaustion.STEPS)
        if _fault_hook is not None:
            forced = _fault_hook()
            if forced is not None:
                self._exhaust(forced)
        if self._deadline is None and self.timeout is None:
            return
        if self.steps >= self._next_clock_check:
            self._next_clock_check = self.steps + _CLOCK_STRIDE
            self.start()  # lazily fixes the deadline on first check
            if self._deadline is not None and self._clock() > self._deadline:
                self._exhaust(BudgetExhaustion.DEADLINE)

    def check_deadline(self) -> None:
        """Read the clock now, whatever the stride, and raise once the
        deadline has passed; consume no step and call no fault hook.

        A loop whose every step is costly (one repair built) calls it
        once per step beside its checkpoint, so it overruns its deadline
        by one step, not by a stride of them, while a step budget buys
        the same prefix as without it.
        """
        if self.exhausted is not None:
            self._raise(self.exhausted)
        if self.timeout is None:
            return
        self.start()
        if self._clock() > self._deadline:
            self._exhaust(BudgetExhaustion.DEADLINE)

    def count_result(self, n: int = 1) -> None:
        """Reserve room for *n* more results; raise when the cap is hit.

        Call *before* emitting, so an exhausted cap never over-emits:
        with ``max_results=5`` the first five calls succeed and the
        sixth raises, leaving exactly five results in the sound prefix.
        """
        if self.exhausted is not None:
            self._raise(self.exhausted)
        if (
            self.max_results is not None
            and self.results + n > self.max_results
        ):
            self._exhaust(BudgetExhaustion.COUNT)
        self.results += n

    # -- exhaustion ----------------------------------------------------

    def _exhaust(self, reason: BudgetExhaustion) -> None:
        if self.exhausted is None:
            self.exhausted = reason
            add("runtime.budget_exhausted")
            add(f"runtime.budget_exhausted.{reason.value}")
            annotate(budget_exhausted=reason.value)
            emit_event(
                "budget.exhausted",
                reason=reason.value,
                steps=self.steps,
                results=self.results,
                elapsed_s=self.elapsed(),
            )
        self._raise(reason)

    def _raise(self, reason: BudgetExhaustion) -> None:
        raise BudgetExceededError(
            reason,
            f"execution budget exhausted ({reason.value}): "
            f"steps={self.steps} results={self.results} "
            f"elapsed={self.elapsed():.3f}s",
            budget=self,
        )

    def __repr__(self) -> str:
        caps = []
        if self.timeout is not None:
            caps.append(f"timeout={self.timeout}s")
        if self.max_steps is not None:
            caps.append(f"max_steps={self.max_steps}")
        if self.max_results is not None:
            caps.append(f"max_results={self.max_results}")
        state = self.exhausted.value if self.exhausted else "live"
        return f"Budget({', '.join(caps) or 'unbounded'}, {state})"


# ----------------------------------------------------------------------
# Ambient-budget plumbing.  One stack per thread; the free functions are
# what the hot loops call unconditionally.
# ----------------------------------------------------------------------

_local = threading.local()


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_budget() -> Optional[Budget]:
    """The innermost active budget on this thread, or None.

    A ``None`` frame pushed by :func:`suspend_budget` masks any outer
    budget, so this returns None inside a suspension.
    """
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def use_budget(budget: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Activate *budget* for the duration of the block (None = no-op).

    Activation starts the wall clock.  Budgets nest; the innermost one
    is the one :func:`checkpoint` consults.
    """
    if budget is None:
        yield None
        return
    budget.start()
    stack = _stack()
    stack.append(budget)
    try:
        yield budget
    finally:
        if stack and stack[-1] is budget:
            stack.pop()
        else:  # tolerate mismatched exits
            try:
                stack.remove(budget)
            except ValueError:
                pass


@contextmanager
def suspend_budget() -> Iterator[None]:
    """Mask any ambient budget for the duration of the block.

    Once a budget is exhausted every further checkpoint re-raises, yet a
    graceful-degradation boundary may still need to run a small, bounded
    salvage computation (e.g. the certain-core under-approximation that
    anytime CQA falls back to).  A ``None`` frame on the stack makes the
    free functions no-ops without mutating the exhausted budget.
    """
    stack = _stack()
    stack.append(None)
    try:
        yield
    finally:
        if stack and stack[-1] is None:
            stack.pop()


def checkpoint(n: int = 1) -> None:
    """Consume *n* steps of the ambient budget (no-op when none)."""
    stack = getattr(_local, "stack", None)
    if stack:
        top = stack[-1]
        if top is not None:
            top.checkpoint(n)


def check_deadline() -> None:
    """Read the ambient budget's deadline now (no-op when none)."""
    stack = getattr(_local, "stack", None)
    if stack:
        top = stack[-1]
        if top is not None:
            top.check_deadline()


def count_result(n: int = 1) -> None:
    """Reserve *n* results on the ambient budget (no-op when none)."""
    stack = getattr(_local, "stack", None)
    if stack:
        top = stack[-1]
        if top is not None:
            top.count_result(n)


def resolve_budget(budget: Optional[Budget]) -> Optional[Budget]:
    """An explicit budget, or the ambient one as fallback."""
    return budget if budget is not None else current_budget()
