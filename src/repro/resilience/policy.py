"""Hardened execution policy: bounded retry, timeout, quarantine.

TVM-style operator autotuners survive thousands of failing candidates by
isolating each profile run and skipping the ones that keep dying (Cowan
et al.).  :func:`call_with_policy` is that isolation boundary for our
simulated profile runs and other retryable unit work:

* **fast path** — with no timeout configured, the call is a plain
  ``fn()`` inside ``try``; zero threads, zero overhead on success;
* **bounded retry** — library errors (:class:`~repro.errors.ReproError`,
  which includes injected faults) and timeouts are retried up to
  ``retries`` times with exponential backoff (``backoff_s * 2**attempt``,
  deterministic, no jitter — reproducibility beats thundering-herd
  avoidance inside one process);
* **timeout** — with ``timeout_s`` set, the call runs on a daemon worker
  thread and is abandoned when the clock expires (the only portable
  option for pure-python work; the stuck thread finishes in the
  background while the search moves on);
* **permanent failure** — when every attempt fails the last error is
  re-raised wrapped in :class:`PermanentFailure`, and the caller decides:
  the autotuner quarantines the candidate and continues over survivors,
  the executor falls back to the ``ref`` backend;
* **deadline propagation** — an absolute ``deadline`` (on the caller's
  ``now`` timebase, which the serving simulator points at its virtual
  clock) caps every per-attempt timeout and every backoff sleep: a retry
  that would outlive the caller's deadline is wasted work and is skipped,
  raising :class:`PermanentFailure` around :class:`DeadlineExceeded`
  immediately instead.

Defaults come from :func:`repro.settings.current` (read per call):

* ``REPRO_RETRY``     — retry count after the first attempt (default 2)
* ``REPRO_TIMEOUT_S`` — per-attempt wall-clock timeout (default: none)
* ``REPRO_BACKOFF_S`` — backoff base seconds (default 0.05)

Everything lands in metrics: ``resilience_retries{site=}``,
``resilience_timeouts{site=}``, ``resilience_permanent_failures{site=}``,
``resilience_quarantined{site=}``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from .. import settings
from ..errors import ReproError
from ..obs import log as obs_log
from ..obs import metrics as obs_metrics

T = TypeVar("T")

RETRY_ENV = settings.ENV_VARS["retries"]
TIMEOUT_ENV = settings.ENV_VARS["timeout_s"]
BACKOFF_ENV = settings.ENV_VARS["backoff_s"]


class PermanentFailure(ReproError):
    """Every attempt of a policy-guarded call failed."""

    def __init__(self, site: str, key: str, attempts: int,
                 last: BaseException) -> None:
        super().__init__(
            f"{site!r} failed permanently after {attempts} attempt(s) "
            f"(key={key!r}): {type(last).__name__}: {last}"
        )
        self.site = site
        self.key = key
        self.attempts = attempts
        self.last = last


class CallTimeout(ReproError):
    """One attempt exceeded the policy's wall-clock budget."""

    def __init__(self, site: str, timeout_s: float) -> None:
        super().__init__(f"{site!r} timed out after {timeout_s:g}s")
        self.site = site
        self.timeout_s = timeout_s


class DeadlineExceeded(ReproError):
    """The caller's absolute deadline passed before the call could finish
    (or before a retry could usefully start)."""

    def __init__(self, site: str, deadline: float) -> None:
        super().__init__(f"{site!r} deadline {deadline:g} exceeded")
        self.site = site
        self.deadline = deadline


@dataclass(frozen=True)
class ExecPolicy:
    """Retry/timeout knobs for one class of guarded calls."""

    retries: int = settings.Settings.retries
    timeout_s: float | None = None
    backoff_s: float = settings.Settings.backoff_s

    @classmethod
    def resolve(
        cls,
        *,
        retries: int | None = None,
        timeout_s: float | None = None,
        backoff_s: float | None = None,
    ) -> "ExecPolicy":
        """Explicit args > :func:`repro.settings.current` (environment
        or defaults).

        Every source is sanitized the same way: negative retries clamp
        to 0 (one attempt, never zero), a zero/negative timeout means
        "no timeout", and a negative backoff means "no backoff" — a
        policy built here can never make :func:`call_with_policy` sleep a
        negative duration or skip the first attempt.
        """
        env = settings.current()
        retries = retries if retries is not None else env.retries
        timeout = timeout_s if timeout_s is not None else env.timeout_s
        backoff = backoff_s if backoff_s is not None else env.backoff_s
        return cls(
            retries=max(0, retries),
            timeout_s=timeout if timeout is not None and timeout > 0 else None,
            backoff_s=backoff if backoff is not None and backoff > 0 else 0.0,
        )


def _run_with_timeout(fn: Callable[[], T], timeout_s: float, site: str) -> T:
    """Run ``fn`` on a daemon thread; abandon it past ``timeout_s``."""
    result: list[Any] = []
    error: list[BaseException] = []

    def worker() -> None:
        try:
            result.append(fn())
        except BaseException as exc:  # noqa: BLE001 - re-raised on the caller
            error.append(exc)

    thread = threading.Thread(
        target=worker, name=f"policy-{site}", daemon=True)
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise CallTimeout(site, timeout_s)
    if error:
        raise error[0]
    return result[0]


def call_with_policy(
    fn: Callable[[], T],
    *,
    site: str,
    key: str = "",
    policy: ExecPolicy | None = None,
    retry_on: tuple[type[BaseException], ...] = (ReproError,),
    sleep: Callable[[float], None] = time.sleep,
    deadline: float | None = None,
    now: Callable[[], float] = time.monotonic,
) -> T:
    """``fn()`` under retry/timeout; raises :class:`PermanentFailure`.

    ``retry_on`` classifies retryable errors — anything else (e.g. a
    programming error like ``TypeError``) propagates immediately on the
    first attempt, exactly as an unguarded call would.

    ``deadline`` is an *absolute* instant on the ``now`` timebase
    (``time.monotonic`` by default; the serving simulator passes its
    virtual clock).  When set, it caps each attempt's timeout at the time
    remaining, caps every backoff sleep the same way, and refuses to
    start an attempt once the deadline has passed — a retry must never
    outlive the request that asked for it.  Running out of deadline
    raises :class:`PermanentFailure` whose ``last`` is the prior error,
    or :class:`DeadlineExceeded` when no attempt ever ran.
    """
    policy = policy if policy is not None else ExecPolicy.resolve()
    attempts = policy.retries + 1
    last: BaseException | None = None
    tried = 0
    for attempt in range(attempts):
        timeout = policy.timeout_s
        if deadline is not None:
            remaining = deadline - now()
            if remaining <= 0:
                obs_metrics.counter(
                    "resilience_deadline_exceeded", site=site).inc()
                if last is None:
                    last = DeadlineExceeded(site, deadline)
                break
            if timeout is not None:
                timeout = min(timeout, remaining)
        tried += 1
        try:
            if timeout is not None and timeout > 0:
                return _run_with_timeout(fn, timeout, site)
            return fn()
        except CallTimeout as exc:
            last = exc
            obs_metrics.counter("resilience_timeouts", site=site).inc()
            obs_log.warning(
                "call_timeout", logger="repro.resilience.policy",
                site=site, key=key, attempt=attempt + 1,
                timeout_s=timeout,
            )
        except retry_on as exc:
            last = exc
        if attempt + 1 < attempts:
            obs_metrics.counter("resilience_retries", site=site).inc()
            obs_log.info(
                "call_retry", logger="repro.resilience.policy",
                site=site, key=key, attempt=attempt + 1,
                error=type(last).__name__,
            )
            if policy.backoff_s > 0:
                delay = policy.backoff_s * (2 ** attempt)
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - now()))
                if delay > 0:
                    sleep(delay)
    assert last is not None
    obs_metrics.counter("resilience_permanent_failures", site=site).inc()
    obs_log.warning(
        "call_permanent_failure", logger="repro.resilience.policy",
        site=site, key=key, attempts=tried, error=type(last).__name__,
    )
    raise PermanentFailure(site, key, tried, last)


@dataclass
class _QuarantineEntry:
    reason: str
    since: float
    probing: bool = False


class Quarantine:
    """Inputs that failed permanently and should be skipped, per site.

    A thin thread-safe set with failure provenance; sweeps consult
    :meth:`contains` up front (skipping costs nothing) and :meth:`add`
    on :class:`PermanentFailure`.  In-process only by design: a
    quarantined *simulated* candidate is a code bug or an injected
    fault, and pinning it across processes would mask the fix.

    With no ``ttl_s`` (the default) entries are permanent for the process
    lifetime — the right model for deterministic candidates, where a
    repeat offender stays broken.  With ``ttl_s`` set, quarantine becomes
    *recoverable* via the half-open protocol circuit breakers use:

    * :meth:`contains` keeps answering True — expiry alone never
      re-admits general traffic;
    * once ``ttl_s`` has elapsed since the entry (re-)armed,
      :meth:`allow_probe` grants exactly one caller a probe ticket;
    * the prober reports back: :meth:`release` on success removes the
      entry (closed again), :meth:`add` on failure re-arms the TTL and
      clears the outstanding ticket (back to fully open).

    ``now`` is the clock the TTL is measured on (``time.monotonic`` by
    default; the serving simulator passes its virtual clock), and every
    time-taking method also accepts an explicit ``now=`` instant.
    """

    def __init__(
        self,
        site: str,
        *,
        ttl_s: float | None = None,
        now: Callable[[], float] = time.monotonic,
    ) -> None:
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"quarantine ttl_s must be > 0, got {ttl_s}")
        self.site = site
        self.ttl_s = ttl_s
        self._now = now
        self._entries: dict[str, _QuarantineEntry] = {}
        self._lock = threading.Lock()

    def _clock(self, now: float | None) -> float:
        return self._now() if now is None else now

    def add(self, key: str, reason: str = "", *, now: float | None = None) -> None:
        """Quarantine ``key`` (re-adding re-arms the TTL and clears any
        outstanding probe ticket — a failed probe goes back to open)."""
        at = self._clock(now)
        with self._lock:
            fresh = key not in self._entries
            self._entries[key] = _QuarantineEntry(reason=reason, since=at)
        if fresh:
            obs_metrics.counter("resilience_quarantined", site=self.site).inc()
            obs_log.warning(
                "quarantined", logger="repro.resilience.policy",
                site=self.site, key=key, reason=reason,
            )

    def contains(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def allow_probe(self, key: str, now: float | None = None) -> bool:
        """One half-open probe ticket for ``key`` once the TTL elapsed.

        Returns True at most once per (re-)arming: the first caller after
        expiry gets the ticket, everyone else keeps seeing False until
        the prober settles the entry via :meth:`release` (success) or
        :meth:`add` (failure, re-arms).  Always False without a TTL or
        for keys not quarantined.
        """
        if self.ttl_s is None:
            return False
        at = self._clock(now)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.probing or at - entry.since < self.ttl_s:
                return False
            entry.probing = True
        obs_metrics.counter("resilience_probes", site=self.site).inc()
        obs_log.info(
            "quarantine_probe", logger="repro.resilience.policy",
            site=self.site, key=key,
        )
        return True

    def probing(self, key: str) -> bool:
        """True while a probe ticket for ``key`` is outstanding."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.probing

    def release(self, key: str) -> bool:
        """Remove ``key`` from quarantine (probe succeeded); True if it
        was present."""
        with self._lock:
            removed = self._entries.pop(key, None) is not None
        if removed:
            obs_metrics.counter(
                "resilience_quarantine_released", site=self.site).inc()
            obs_log.info(
                "quarantine_released", logger="repro.resilience.policy",
                site=self.site, key=key,
            )
        return removed

    def entries(self) -> dict[str, str]:
        with self._lock:
            return {k: e.reason for k, e in self._entries.items()}

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
