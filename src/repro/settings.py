"""One settings object: every ``REPRO_*`` environment knob, parsed once.

:meth:`Settings.from_env` is the only code in the package that reads the
environment; every other module reads the :func:`current` snapshot.
Flags take ``0/false/no/off`` or ``1/true/yes/on`` (``REPRO_NO_*``
inverted), unset or empty takes the default, and a malformed value takes
the field's fallback and logs one ``settings_invalid`` warning.
:func:`override` is process-global like
:func:`repro.resilience.faults.fault_plan` (``ParallelRunner`` worker
threads see it) and never writes ``os.environ``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import pathlib
import threading
from typing import Any, Iterator, Mapping

_LOG_LEVELS = ("debug", "info", "warning", "warn", "error")
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _flag(text: str) -> bool:
    if text.lower() not in _TRUE + _FALSE:
        raise ValueError(text)
    return text.lower() in _TRUE


def _log_level(text: str) -> str:
    if text.lower() not in _LOG_LEVELS:
        raise ValueError(text)
    return text.lower()


#: field -> (environment variable, parser of a non-empty value, fallback
#: for a malformed one); the README's "Environment knobs" table mirrors it
_KNOBS = {
    "jobs": ("REPRO_JOBS", lambda t: max(1, int(t)), 1),
    "cache_dir": ("REPRO_CACHE_DIR", pathlib.Path, None),
    "cache": ("REPRO_NO_CACHE", lambda t: not _flag(t), True),
    "vector": ("REPRO_NO_VECTOR", lambda t: not _flag(t), True),
    # an unknown level still attaches the stderr handler
    "log": ("REPRO_LOG", _log_level, "info"),
    "faults": ("REPRO_FAULTS", str, ""),
    "faults_seed": ("REPRO_FAULTS_SEED", int, 0),
    "flight": ("REPRO_FLIGHT", _flag, True),
    "retries": ("REPRO_RETRY", lambda t: max(0, int(t)), 2),
    "timeout_s": ("REPRO_TIMEOUT_S", float, None),
    "backoff_s": ("REPRO_BACKOFF_S", float, 0.05),
}
#: the environment variable behind each :class:`Settings` field
ENV_VARS = {name: knob[0] for name, knob in _KNOBS.items()}


@dataclasses.dataclass(frozen=True)
class Settings:
    """The resolved value of every ``REPRO_*`` knob."""

    jobs: int  #: default worker count (cpu count, at most 8)
    cache_dir: pathlib.Path  #: persistent cache root
    cache: bool = True
    vector: bool = True
    log: str = ""  #: stderr log level; "" attaches no handler
    faults: str = ""  #: fault-plan spec (repro.resilience.faults grammar)
    faults_seed: int = 0
    flight: bool = True  #: the flight ring's state at import
    retries: int = 2
    timeout_s: float | None = None
    backoff_s: float = 0.05

    @classmethod
    def from_env(cls, env: Mapping[str, str]) -> "Settings":
        """Parse ``env`` (any mapping of variable names to text)."""
        settings, invalid = _parse(env)
        _warn_invalid(invalid)
        return settings

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready field values (recorded in bench artifacts)."""
        return {**dataclasses.asdict(self), "cache_dir": str(self.cache_dir)}


def _parse(env: Mapping[str, str]) -> tuple[Settings, list[tuple[str, str]]]:
    values: dict[str, Any] = {}
    invalid: list[tuple[str, str]] = []
    for name, (var, parse, fallback) in _KNOBS.items():
        text = env.get(var, "").strip()
        if not text:
            continue
        try:
            values[name] = parse(text)
        except ValueError:
            values[name] = fallback
            invalid.append((var, text))
    values.setdefault("jobs", min(os.cpu_count() or 1, 8))
    if "cache_dir" not in values:
        xdg = env.get("XDG_CACHE_HOME", "").strip()
        home = env.get("HOME", "").strip()
        values["cache_dir"] = (
            pathlib.Path(xdg) / "repro" if xdg else
            (pathlib.Path(home) if home else pathlib.Path.home())
            / ".cache" / "repro")
    return Settings(**values), invalid


def _warn_invalid(invalid: list[tuple[str, str]]) -> None:
    if not invalid:
        return
    # imported late: the logger configures itself from current()
    from .obs import log as obs_log

    for var, text in invalid:
        obs_log.warning("settings_invalid", logger="repro.settings",
                        var=var, value=repr(text))


_CURRENT: Settings | None = None
_LOCK = threading.Lock()


def current() -> Settings:
    """The process settings, read from the environment on first use."""
    global _CURRENT
    settings = _CURRENT
    if settings is None:
        settings, invalid = _parse(os.environ)
        with _LOCK:
            _CURRENT = settings
        _warn_invalid(invalid)  # after publishing: see _warn_invalid
    return settings


def reload() -> None:
    """Drop the snapshot (and any active :func:`override`)."""
    global _CURRENT
    with _LOCK:
        _CURRENT = None


@contextlib.contextmanager
def override(**fields: Any) -> Iterator[Settings]:
    """Process-wide scoped replacement of some fields; restored on exit."""
    global _CURRENT
    prev = current()
    updated = dataclasses.replace(prev, **fields)
    with _LOCK:
        _CURRENT = updated
    try:
        yield updated
    finally:
        with _LOCK:
            _CURRENT = prev
