"""The benchmark's own checks.  Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

They run the benchmark itself with one-second measurements, so they take
a few minutes; the repository's tier-1 suite does not collect them.
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(workload, seed, trace, bench=BENCH):
    """Run the benchmark for one second; its result line."""
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_metric_names_use_the_allowed_characters():
    names = ([m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
             + [w["name"] for w in SPEC["workloads"]]
             + [row["name"] for row in json.loads(worker.PAPER.read_text())])
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name


def test_declared_metrics_and_workloads_match_the_code():
    assert ([m["name"] for m in SPEC["per_layer"]]
            == list(run.per_layer_units()))
    assert [w["name"] for w in SPEC["workloads"]] == list(worker.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(worker.WORKLOADS))
def test_every_declared_metric_is_reported(workload, trace):
    res = _result(workload, 0, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    if not trace:
        assert all(row["value"] > 0 for row in res["metrics"].values())


def test_seed_changes_inputs_but_not_verdicts(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    rec = tracing.NullRecorder()
    serve = worker.Serve(chaos=False)
    serve.imports()
    (cfg0, _, trace0), (cfg1, _, trace1) = (
        serve.setup(0, rec), serve.setup(1, rec))
    assert cfg0.seed != cfg1.seed
    assert [r.arrival_us for r in trace0] != [r.arrival_us for r in trace1]
    for cls in (worker.ExactArm, worker.ExactGpu):
        exact = cls()
        exact.imports()
        runs0, runs1 = exact.setup(0, rec)["runs"], exact.setup(1, rec)["runs"]
        assert all(not np.array_equal(a[-2], b[-2])
                   for a, b in zip(runs0, runs1))
    for workload in ("serve-steady", "serve-chaos", "exact-arm", "exact-gpu"):
        res = _result(workload, 1, 0)
        assert res["correct"] and res["failed"] == 0, workload


def test_corrupted_pinned_digest_counts_as_failed(tmp_path):
    copy = tmp_path / "perfbench"
    shutil.copytree(BENCH, copy,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    pinned_path = copy / "data" / "pinned.json"
    pinned = json.loads(pinned_path.read_text())
    pinned["serve-steady"]["3"] = "0" * 64
    pinned_path.write_text(json.dumps(pinned))
    res = _result("serve-steady", 3, 0, bench=copy)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] >= worker.MIN_OPS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-gpu",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
