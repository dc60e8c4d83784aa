"""Runtime protocol-invariant checking (``repro.invariants``).

An :class:`InvariantChecker` attaches to a built testbed, consumes the
observability trace stream, and probes protocol state on a fixed
sim-time cadence, asserting the correctness claims the switching
protocol is supposed to uphold under any message-level adversary:
single serving AP, monotonic serving generations, terminating switch
handshakes, no duplicate server delivery, a single active controller,
bounded retry storms, and liveness-table agreement.  It also keeps a
:class:`CrashRecord` per AP or controller crash: who it left to
recover, and when each client recovered.

See :mod:`repro.invariants.checker` for the invariant definitions and
``docs/robustness.md`` for the operator-facing guide.
"""

from repro.invariants.checker import (
    CrashRecord,
    DEFAULT_INTERVAL_US,
    DEFAULT_RECONVERGE_SLACK_US,
    InvariantChecker,
    InvariantViolation,
    ShardInvariantChecker,
)

__all__ = [
    "CrashRecord",
    "DEFAULT_INTERVAL_US",
    "DEFAULT_RECONVERGE_SLACK_US",
    "InvariantChecker",
    "InvariantViolation",
    "ShardInvariantChecker",
]
