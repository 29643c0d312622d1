"""The append-only bench ledger: resolution, provenance, durability."""

import json

from repro.obs import history
from repro.obs.history import (
    BenchLedger,
    build_entry,
    history_dir,
    machine_fingerprint,
)


def test_history_dir_resolution(tmp_path):
    assert history_dir() == history.DEFAULT_HISTORY_DIR
    assert history_dir(tmp_path / "arg") == tmp_path / "arg"


def test_append_and_read_back(tmp_path):
    ledger = BenchLedger(tmp_path)
    assert ledger.entries() == [] and len(ledger) == 0
    ledger.append({"run_id": "a", "n": 1})
    ledger.append({"run_id": "b", "n": 2})
    assert [e["run_id"] for e in ledger.entries()] == ["a", "b"]
    assert [e["run_id"] for e in ledger.latest(1)] == ["b"]
    assert [e["run_id"] for e in ledger.latest(5)] == ["b", "a"]
    # JSONL: one sorted-key object per line, stable for diffing
    lines = ledger.path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == {"n": 1, "run_id": "a"}


def test_corrupt_and_blank_lines_skipped(tmp_path):
    ledger = BenchLedger(tmp_path)
    ledger.append({"run_id": "good"})
    with open(ledger.path, "a", encoding="utf-8") as fh:
        fh.write("\n}{ broken\n[1,2]\n")
    ledger.append({"run_id": "after"})
    assert [e["run_id"] for e in ledger.entries()] == ["good", "after"]


def test_build_entry_schema_v3(monkeypatch):
    monkeypatch.setattr(history, "git_sha", lambda: "abcdef0123456789")
    entry = build_entry(
        kind="smoke", model="resnet50", batch=1, jobs=4,
        backends=["gpu", "arm"], timestamp="2026-08-06T00:00:00",
        model_cycles={"gpu_8bit": 42}, figures={"fig10": {"s": [1.0]}},
        wall_seconds={"gpu_cold": 1.23456789},
        metrics_snapshot={"schema": 1},
    )
    assert entry["schema"] == history.LEDGER_SCHEMA == 3
    assert entry["run_id"] == "2026-08-06T00:00:00-abcdef012345"
    assert entry["git_sha"] == "abcdef0123456789"
    assert entry["wall_seconds"] == {"gpu_cold": 1.234568}  # rounded
    assert entry["fingerprint"] == machine_fingerprint()
    json.dumps(entry)  # plain JSON throughout


def test_build_entry_without_git(monkeypatch):
    monkeypatch.setattr(history, "git_sha", lambda: None)
    entry = build_entry(
        kind="smoke", model="resnet50", batch=1, jobs=1, backends=[],
        timestamp="t0", model_cycles={}, figures={}, wall_seconds={},
        metrics_snapshot={},
    )
    assert entry["git_sha"] is None
    assert entry["run_id"] == "t0-nogit"


def test_machine_fingerprint_is_stable_and_short():
    a, b = machine_fingerprint(), machine_fingerprint()
    assert a == b
    assert len(a) == 16 and all(c in "0123456789abcdef" for c in a)
