"""Settings-gated structured logging for the library's degradation paths.

The library's resilience rules ("the cache is an optimization, never a
failure source"; stale persisted entries recompute) are correct but were
previously *silent*.  Every such path now emits a structured event::

    from repro.obs import log

    log.warning("cache_corrupt", namespace=ns, path=str(path),
                error="ValueError")

Events are ``event_name key=value ...`` lines routed through the standard
:mod:`logging` tree under the ``"repro"`` logger:

* records always propagate, so tests (``caplog``) and host applications
  can observe them regardless of environment;
* a stderr handler is attached only when ``REPRO_LOG`` is set
  (``debug`` | ``info`` | ``warning`` | ``error``, resolved into
  :attr:`repro.settings.Settings.log`), which also sets the logger
  threshold — ``REPRO_LOG=debug`` surfaces cache-stale/fallback chatter
  that is normally suppressed.
"""

from __future__ import annotations

import logging
import sys
from typing import Any

from .. import settings

#: environment variable selecting the stderr log level
LOG_ENV = settings.ENV_VARS["log"]

_ROOT_NAME = "repro"
_configured = False
_stderr_handler: logging.Handler | None = None


def _configure() -> None:
    global _configured, _stderr_handler
    if _configured:
        return
    _configured = True
    root = logging.getLogger(_ROOT_NAME)
    # never the "no handlers could be found" warning, never double prints
    root.addHandler(logging.NullHandler())
    level_name = settings.current().log
    if level_name:
        level = logging.getLevelName(level_name.upper())
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s %(message)s"
        ))
        root.addHandler(handler)
        root.setLevel(level)
        _stderr_handler = handler
    else:
        # records still reach propagated handlers (tests, host apps)
        root.setLevel(logging.WARNING)


def reconfigure() -> None:
    """Re-apply the settings' ``REPRO_LOG`` level (after a
    :func:`repro.settings.reload`)."""
    global _configured, _stderr_handler
    root = logging.getLogger(_ROOT_NAME)
    if _stderr_handler is not None:
        root.removeHandler(_stderr_handler)
        _stderr_handler = None
    _configured = False
    _configure()


def get_logger(name: str = _ROOT_NAME) -> logging.Logger:
    """A logger under the configured ``repro`` tree."""
    _configure()
    if name != _ROOT_NAME and not name.startswith(_ROOT_NAME + "."):
        name = f"{_ROOT_NAME}.{name}"
    return logging.getLogger(name)


def _render(event: str, fields: dict[str, Any]) -> str:
    if not fields:
        return event
    parts = " ".join(f"{k}={fields[k]}" for k in fields)
    return f"{event} {parts}"


def _emit(level: int, event: str, logger: str | None, fields: dict) -> None:
    log = get_logger(logger or _ROOT_NAME)
    if log.isEnabledFor(level):
        log.log(level, _render(event, fields))


def debug(event: str, *, logger: str | None = None, **fields: Any) -> None:
    _emit(logging.DEBUG, event, logger, fields)


def info(event: str, *, logger: str | None = None, **fields: Any) -> None:
    _emit(logging.INFO, event, logger, fields)


def warning(event: str, *, logger: str | None = None, **fields: Any) -> None:
    _emit(logging.WARNING, event, logger, fields)


def error(event: str, *, logger: str | None = None, **fields: Any) -> None:
    _emit(logging.ERROR, event, logger, fields)
