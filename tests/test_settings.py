"""One settings object: every ``REPRO_*`` knob parsed once, by one rule."""

import dataclasses
import json
import logging
import os
import pathlib
import threading

import pytest

from repro import settings
from repro.perf.cache import PersistentCache
from repro.perf.parallel import ParallelRunner
from repro.resilience.faults import fault_plan
from repro.settings import Settings
from repro.util import vector_enabled

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _invalid(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("settings_invalid")]


# ---------------------------------------------------------------------------
# The flag rule and malformed values
# ---------------------------------------------------------------------------


def test_eleven_fields_one_variable_each():
    fields = [f.name for f in dataclasses.fields(Settings)]
    assert fields == list(settings.ENV_VARS)
    assert len(fields) == 11
    assert len(set(settings.ENV_VARS.values())) == 11


def test_no_vector_zero_keeps_vector_pricing_on(monkeypatch):
    monkeypatch.setenv("REPRO_NO_VECTOR", "0")
    assert vector_enabled()


def test_no_cache_zero_keeps_the_cache_on(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_NO_CACHE", "0")
    store = PersistentCache("ns")
    assert store.enabled
    with fault_plan(None):
        assert store.put("a" * 64, {"v": 1})
        assert store.get("a" * 64) == {"v": 1}


@pytest.mark.parametrize("text, value", [
    ("1", True), ("true", True), ("YES", True), ("on", True),
    ("0", False), ("false", False), ("No", False), ("off", False),
])
def test_one_flag_rule_for_every_flag(text, value):
    env = {"REPRO_FLIGHT": text, "REPRO_NO_CACHE": text,
           "REPRO_NO_VECTOR": text}
    s = Settings.from_env(env)
    assert s.flight is value
    assert s.cache is (not value) and s.vector is (not value)


def test_unset_and_empty_take_the_defaults():
    s = Settings.from_env({"REPRO_FLIGHT": "", "REPRO_RETRY": "  "})
    assert s.flight and s.cache and s.vector
    assert s.retries == 2 and s.timeout_s is None and s.backoff_s == 0.05
    assert s.faults == "" and s.faults_seed == 0 and s.log == ""
    assert s.jobs >= 1


@pytest.mark.parametrize("var, text, field, fallback", [
    ("REPRO_FLIGHT", "maybe", "flight", True),
    ("REPRO_FAULTS_SEED", "abc", "faults_seed", 0),
    ("REPRO_JOBS", "lots", "jobs", 1),
    ("REPRO_RETRY", "twice", "retries", 2),
    ("REPRO_NO_CACHE", "perhaps", "cache", True),
    ("REPRO_LOG", "loud", "log", "info"),
])
def test_malformed_value_warns_once_and_falls_back(
        caplog, var, text, field, fallback):
    with caplog.at_level(logging.WARNING, logger="repro"):
        s = Settings.from_env({var: text})
    assert getattr(s, field) == fallback
    msgs = _invalid(caplog)
    assert len(msgs) == 1 and f"var={var}" in msgs[0]


def test_malformed_env_warns_once_per_resolve(caplog, monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS_SEED", "abc")
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert settings.current().faults_seed == 0
        settings.current()  # the snapshot is reused, not re-parsed
    assert len(_invalid(caplog)) == 1


def test_cache_dir_defaults_follow_xdg_then_home():
    assert Settings.from_env({"XDG_CACHE_HOME": "/x", "HOME": "/h"}
                             ).cache_dir == pathlib.Path("/x/repro")
    assert Settings.from_env({"HOME": "/h"}
                             ).cache_dir == pathlib.Path("/h/.cache/repro")
    assert Settings.from_env({"REPRO_CACHE_DIR": "/c", "HOME": "/h"}
                             ).cache_dir == pathlib.Path("/c")


# ---------------------------------------------------------------------------
# The process snapshot
# ---------------------------------------------------------------------------


def test_reload_rereads_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert settings.current().jobs == 3
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert settings.current().jobs == 3  # one snapshot until reload
    settings.reload()
    assert settings.current().jobs == 5


def test_override_is_scoped_and_restores():
    before = settings.current()
    with settings.override(retries=7, vector=False) as s:
        assert settings.current() is s
        assert s.retries == 7 and not vector_enabled()
    assert settings.current() is before


def test_override_reaches_worker_threads_without_touching_environ(tmp_path):
    env_before = dict(os.environ)
    seen: list[tuple[str, pathlib.Path]] = []

    def probe(_):
        seen.append((threading.current_thread().name,
                     PersistentCache("ns").directory()))
        return None

    with fault_plan(None), settings.override(cache_dir=tmp_path):
        ParallelRunner(jobs=2).map(probe, range(8), chunksize=1)
    assert seen and all(d == tmp_path / "ns" for _, d in seen)
    assert all(name != threading.main_thread().name for name, _ in seen)
    assert dict(os.environ) == env_before


def test_only_settings_reads_the_environment():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path != SRC / "settings.py" and (
                "os.environ" in text or "os.getenv" in text):
            offenders.append(str(path.relative_to(SRC)))
    assert offenders == []


# ---------------------------------------------------------------------------
# Run artifacts record the settings they ran under
# ---------------------------------------------------------------------------


def test_bench_report_and_ledger_carry_settings(tmp_path):
    from repro.obs.history import BenchLedger
    from repro.perf.bench import run_bench

    cache = tmp_path / "cache"
    with fault_plan(None):
        path = run_bench(smoke=True, backends=("gpu",), out_dir=tmp_path,
                         cache_dir=cache, save=True,
                         history_dir=tmp_path / "hist", echo=lambda _: None)
    report = json.loads(path.read_text(encoding="utf-8"))
    expected = dataclasses.replace(settings.current(), cache_dir=cache)
    assert report["settings"] == expected.as_dict()
    (entry,) = BenchLedger(tmp_path / "hist").entries()
    assert entry["settings"] == report["settings"]
    # the bench's cache override ends with the run
    assert settings.current().cache_dir != cache
