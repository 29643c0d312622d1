"""Resilience layer: deterministic fault injection, hardened execution,
crash-safe persistence.

The paper's results come from long auto-search sweeps (Sec. 4 / Alg. 2)
and overflow-limited accumulation chains (Sec. 3.3) — precisely the
places a production serving stack fails ungracefully: one bad candidate,
one torn cache write, one out-of-range chain configuration used to abort
the whole run.  This package makes every such path survivable and makes
the failures themselves *reproducible*:

:mod:`repro.resilience.faults`
    Deterministic fault injection, driven by :mod:`repro.settings`/config.
    ``inject("autotune.profile", key=digest)`` hooks are wired into named
    sites across the cache, the parallel runner, the bench harness, the
    GPU autotuner, the bench-history ledger and the runtime executor;
    a seeded :class:`FaultPlan` (``REPRO_FAULTS`` / ``REPRO_FAULTS_SEED``)
    decides — purely from ``(seed, site, key)`` — whether a call raises,
    delays, corrupts bytes or returns garbage, so chaos runs replay
    bit-identically regardless of thread scheduling.

:mod:`repro.resilience.policy`
    A hardened execution policy (defaults from :mod:`repro.settings`):
    bounded retry with exponential backoff (``REPRO_RETRY`` /
    ``REPRO_BACKOFF_S``), per-call timeout (``REPRO_TIMEOUT_S``), and a
    :class:`Quarantine` for inputs that keep failing — search sweeps skip
    quarantined candidates and continue over the survivors instead of
    dying.

:mod:`repro.resilience.atomic`
    Crash-safe persistence: write-temp/fsync/rename for whole files,
    single-``write`` fsynced appends for JSONL, and startup recovery that
    quarantines torn or corrupt files into a ``.quarantine/`` sibling
    instead of raising.

:mod:`repro.resilience.chaos`
    The ``python -m repro chaos`` smoke runner: reprices/autotunes under
    a canned fault plan and asserts the invariants (same winners as the
    fault-free run, no partial files, stable exit codes).
"""

from .atomic import (
    atomic_append_line,
    atomic_write_json,
    atomic_write_text,
    quarantine_file,
    recover_jsonl,
)
from .faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_plan,
    fault_plan,
    inject,
    install_plan,
    maybe_corrupt,
    maybe_garbage,
)
from .breaker import CircuitBreaker
from .policy import (
    CallTimeout,
    DeadlineExceeded,
    ExecPolicy,
    PermanentFailure,
    Quarantine,
    call_with_policy,
)

__all__ = [
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "fault_plan",
    "inject",
    "install_plan",
    "maybe_corrupt",
    "maybe_garbage",
    "CallTimeout",
    "CircuitBreaker",
    "DeadlineExceeded",
    "ExecPolicy",
    "PermanentFailure",
    "Quarantine",
    "call_with_policy",
    "atomic_append_line",
    "atomic_write_json",
    "atomic_write_text",
    "quarantine_file",
    "recover_jsonl",
]
