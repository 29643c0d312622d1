"""Differential profiling through the CLI: ``repro diff`` and
``repro regress --json``.

These drive the same paths CI gates on — selector resolution against a
real on-disk ledger, metrics-snapshot and trace pairs, JSON purity on
stdout, the exit-code contract (0 clean / 1 regression /
2 unusable input), and ``diff <baseline-run-id> -1`` attributing a
failing regress pair.
"""

import json

import pytest

from repro.cli import main
from repro.obs import flight, trace
from repro.obs import metrics as obs_metrics
from repro.obs.history import BenchLedger


@pytest.fixture(autouse=True)
def _fresh_metrics():
    obs_metrics.reset()
    yield
    obs_metrics.reset()


def _entry(run_id, *, cold=0.030, sha=None, counters=None):
    return {
        "schema": 3, "run_id": run_id, "git_sha": sha or f"{run_id}00cafe",
        "fingerprint": "fp0", "kind": "smoke", "model": "resnet50",
        "batch": 1, "jobs": 1, "backends": ["gpu"],
        "model_cycles": {"gpu_4bit": 1000},
        "figures": {"fig10": {"ours 8-bit": [1.0, 2.0]}},
        "wall_seconds": {"gpu_serial": 0.100, "gpu_cold": cold,
                         "gpu_warm": 0.001},
        "metrics": {"schema": 1, "counters": counters or {},
                    "gauges": {}, "histograms": {}},
    }


def _ledger(tmp_path, entries):
    led = BenchLedger(tmp_path / "hist")
    for e in entries:
        led.append(e)
    return tmp_path / "hist"


# ---------------------------------------------------------------------------
# repro diff
# ---------------------------------------------------------------------------


def test_diff_ledger_pair_text_and_json(tmp_path, capsys):
    hist = _ledger(tmp_path, [
        _entry("r0", counters={"pricing.vector": 5}),
        _entry("r1", cold=0.013, counters={"pricing.vector": 40}),
    ])
    assert main(["diff", "-2", "-1", "--history-dir", str(hist)]) == 0
    out = capsys.readouterr().out
    assert "r0" in out and "r1" in out and "gpu_cold" in out

    assert main(["diff", "-2", "-1", "--history-dir", str(hist),
                 "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)  # stdout is pure JSON
    assert doc["schema"] == 2
    assert doc["phases"][0]["phase"] == "gpu_cold"
    assert any(c["key"] == "pricing.vector" for c in doc["counters"])


def test_diff_selector_and_file_errors_exit_2(tmp_path, capsys):
    hist = _ledger(tmp_path, [_entry("r0")])
    assert main(["diff", "-2", "-1", "--history-dir", str(hist)]) == 2
    err = capsys.readouterr().err
    assert "only 1 entries" in err and "Traceback" not in err

    bogus = tmp_path / "bogus.json"
    bogus.write_text('{"nope": 1}')
    assert main(["diff", str(bogus), str(bogus)]) == 2
    assert "unrecognized" in capsys.readouterr().err


def test_diff_collapsed_stack_text_exits_2(tmp_path, capsys):
    stacks = tmp_path / "stacks.txt"
    stacks.write_text("main;price;scalar 90\nmain;setup 10\n")
    assert main(["diff", str(stacks), str(stacks)]) == 2
    err = capsys.readouterr().err
    assert "not JSON" in err and "Traceback" not in err


def _snapshot_file(path, values):
    obs_metrics.reset()
    for v in values:
        obs_metrics.histogram("latency_us").observe(v)
    path.write_text(json.dumps(obs_metrics.snapshot(), sort_keys=True))
    return path


def test_diff_metrics_snapshots_report_bucket_deltas(tmp_path, capsys):
    """Two snapshots whose histograms landed in different buckets: the
    diff names the buckets that moved, not just the mean."""
    a = _snapshot_file(tmp_path / "a.json", [5.0, 5.0, 500.0])
    b = _snapshot_file(tmp_path / "b.json", [5.0, 500.0, 500.0])
    assert main(["diff", str(a), str(b), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    [h] = doc["histograms"]
    assert h["key"] == "latency_us"
    bucket = obs_metrics.BUCKET_BOUNDS.index
    assert h["bucket_deltas"] == [[bucket(10.0), -1], [bucket(1000.0), 1]]


def test_diff_ignores_exemplar_ids_between_identical_snapshots(tmp_path,
                                                               capsys):
    """Exemplars name spans, whose ids differ on every run: two runs that
    observed the same values report no histogram delta."""
    paths = []
    for name in ("a.json", "b.json"):
        obs_metrics.reset()
        with flight.capture(), trace.span("op", cat="test"):
            obs_metrics.histogram("latency_us").observe(5.0)
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(obs_metrics.snapshot()))
    assert main(["diff", *map(str, paths), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["histograms"] == []


# ---------------------------------------------------------------------------
# repro regress --json, and diff attributing its failures
# ---------------------------------------------------------------------------


def test_regress_json_clean_run(tmp_path, capsys):
    hist = _ledger(tmp_path, [_entry(f"r{i}") for i in range(4)])
    rc = main(["regress", "--history-dir", str(hist), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0 and doc["exit_code"] == 0
    assert doc["exit_codes"]["1"] == "regression"
    assert not doc["regressed"]


def test_regress_json_exit_2_on_unusable_ledger(tmp_path, capsys):
    rc = main(["regress", "--history-dir", str(tmp_path / "none"), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 2 and doc["exit_code"] == 2 and doc["error"]


def test_regress_attribute_on_regression(tmp_path, capsys):
    """A failing regress names its baseline; ``diff <baseline> -1 --json``
    on that pair is the attribution, byte-identical on a rerun."""
    entries = [_entry(f"r{i}", counters={"x": 10}) for i in range(5)]
    entries.append(_entry("slow", cold=0.090, counters={"x": 40}))
    hist = _ledger(tmp_path, entries)
    rc = main(["regress", "--history-dir", str(hist), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1 and doc["exit_code"] == 1 and doc["regressed"]
    argv = ["diff", doc["baseline"], "-1", "--history-dir", str(hist),
            "--json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    attrib = json.loads(out)
    assert attrib["phases"][0]["phase"] == "gpu_cold"
    assert attrib["phases"][0]["ratio"] == 3.0
    assert attrib["changepoints"][0]["run_id"] == "slow"
    assert any(c["key"] == "x" for c in attrib["counters"])
    main(argv)
    assert capsys.readouterr().out == out


def test_regress_attribute_text_table(tmp_path, capsys):
    entries = [_entry(f"r{i}") for i in range(5)]
    entries.append(_entry("slow", cold=0.090))
    hist = _ledger(tmp_path, entries)
    rc = main(["regress", "--history-dir", str(hist)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "repro diff r4 -1" in out  # the failure says how to attribute it
    assert main(["diff", "r4", "-1", "--history-dir", str(hist)]) == 0
    out = capsys.readouterr().out
    assert "gpu_cold" in out
    assert "changepoint" in out and "slow" in out


# ---------------------------------------------------------------------------
# dashboard: attribution card from the ledger
# ---------------------------------------------------------------------------


def test_html_report_renders_attribution_card(tmp_path):
    from repro.obs.htmlreport import render_report

    hist = _ledger(tmp_path, [
        _entry("r0"), _entry("r1", cold=0.013)])
    html = render_report(
        model="resnet50", backends=("ref",), history_dir=hist)
    assert "Attribution" in html
    assert "gpu_cold" in html
    assert "http://" not in html and "https://" not in html
