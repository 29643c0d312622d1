"""``python -m repro profile``: the observability reporting surface.

The acceptance contract: profiling an artifact emits a text summary, a
Perfetto-loadable Chrome trace and a metrics snapshot containing the
cache, autotune and per-layer cycle series — and leaves no tracer
installed afterwards.
"""

import json

from repro.cli import main
from repro.obs import trace


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_profile_fig13_happy_path(tmp_path, capsys):
    tpath = tmp_path / "t.json"
    mpath = tmp_path / "m.json"
    assert main(["profile", "fig13",
                 "--trace", str(tpath), "--metrics", str(mpath)]) == 0
    out = capsys.readouterr().out
    assert "== profile fig13" in out
    assert "spans by total time:" in out
    assert not trace.active()  # capture window closed behind itself

    doc = _load(tpath)
    assert doc["displayTimeUnit"] == "ms"
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"profile", "figure.fig13_space_overhead"} <= names

    snap = _load(mpath)
    assert snap["target"] == "fig13"
    assert snap["schema"] == 1
    assert set(snap) >= {"counters", "gauges", "histograms", "wall_seconds"}


def test_profile_fig10_records_acceptance_series(tmp_path, monkeypatch):
    """The ISSUE acceptance command: fig10's metrics must show cache
    traffic, autotune evaluated/pruned tallies and per-layer cycles."""
    from repro.gpu.autotune import clear_cache
    from repro.perf.cache import CACHE_DIR_ENV

    # hermetic caches: the sweeps must actually run here, not replay a
    # warm store left by earlier runs on this machine
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    clear_cache()
    mpath = tmp_path / "m.json"
    tpath = tmp_path / "t.json"
    assert main(["profile", "fig10",
                 "--trace", str(tpath), "--metrics", str(mpath)]) == 0
    snap = _load(mpath)
    counters, gauges = snap["counters"], snap["gauges"]
    assert any(k.startswith("cache_lookups{") for k in counters)
    assert any(k.startswith("autotune_evaluated{") for k in counters)
    assert any(k.startswith("autotune_pruned{") for k in counters)
    assert any(k.startswith("gpu_layer_cycles{") for k in gauges)
    names = {e["name"] for e in _load(tpath)["traceEvents"]
             if e["ph"] == "X"}
    assert "autotune.search" in names


def test_profile_tab1_without_outputs(capsys):
    assert main(["profile", "tab1"]) == 0
    assert "== profile tab1" in capsys.readouterr().out


def test_profile_unknown_target(capsys):
    assert main(["profile", "fig99"]) == 2
    assert "unknown profile target" in capsys.readouterr().out


def test_failing_target_leaks_no_obs_state(monkeypatch):
    """A figure that blows up mid-run must not leave its half-filled
    metrics window (or an installed tracer) behind for later callers."""
    import pytest

    from repro.obs import metrics
    from repro.obs import report as obs_report

    def boom(target, model, batch, backend=None):
        def runner():
            metrics.counter("partial_work").inc(7)
            raise RuntimeError("mid-figure failure")
        return runner

    monkeypatch.setattr(obs_report, "resolve_target", boom)
    with pytest.raises(RuntimeError, match="mid-figure failure"):
        obs_report.run_profile("fig13", echo=lambda s: None)
    assert not trace.active()
    snap = metrics.snapshot()
    assert "partial_work" not in snap["counters"]
