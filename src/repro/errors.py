"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SchemaError(ReproError):
    """A relation, attribute, or arity does not match the declared schema."""


class QueryError(ReproError):
    """A query is malformed (unsafe, unknown predicate, arity mismatch...)."""


class ConstraintError(ReproError):
    """An integrity constraint is malformed or unsupported by an operation."""


class SplitDeclinedError(ConstraintError):
    """An FD's conflicts do not split into a repair's alternatives: a
    NULL beside a value in a right-hand side of two or more attributes
    agrees with two rows that disagree."""


class RepairError(ReproError):
    """A repair computation cannot proceed (e.g. cyclic tgds without bound)."""


class RewritingError(ReproError):
    """A query falls outside the fragment supported by a rewriting method."""


class NotRewritableError(RewritingError):
    """A (query, constraints) pair is outside a rewriter's complete class.

    Raised by :func:`repro.cqa.fo_rewrite` (constraints with no universal
    clausal form, cyclically interacting residues) and
    :func:`repro.cqa.fuxman_miller_rewrite` (non-key constraints, queries
    outside C_forest).  This is an *applicability* signal, not a failure:
    the dispatcher catches it to fall through to the next engine on the
    ladder, and callers should treat it as "use another method" rather
    than pattern-matching error messages.
    """


class GroundingError(ReproError):
    """An ASP rule cannot be safely grounded."""


class SolverError(ReproError):
    """The ASP solver was given an inconsistent or unsupported program."""


class IntegrationError(ReproError):
    """A mediator, mapping, or source specification is invalid."""


class BudgetExceededError(ReproError):
    """An execution budget (deadline, steps, or result count) ran out.

    Raised internally as the cooperative-cancellation signal of
    :mod:`repro.runtime` and surfaced to callers only in *strict* mode;
    the default pipeline behavior is to catch it at algorithm boundaries
    and return an anytime :class:`repro.runtime.Partial` instead.

    ``reason`` is the :class:`repro.runtime.BudgetExhaustion` member that
    tripped, and ``budget`` the exhausted :class:`repro.runtime.Budget`.
    """

    def __init__(self, reason, message=None, budget=None):
        super().__init__(
            message or f"execution budget exhausted ({reason})"
        )
        self.reason = reason
        self.budget = budget


class UnstorableValueError(ReproError):
    """An instance holds a value SQLite cannot store: a string with a
    lone surrogate, or an integer outside 64 bits."""


class TransientBackendError(ReproError):
    """A backend failure that is expected to succeed on retry.

    The SQLite rewriting backend raises (or translates driver errors
    into) this class; :func:`repro.runtime.retry_transient` retries it
    with exponential backoff.
    """
