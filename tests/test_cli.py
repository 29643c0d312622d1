"""Command-line interface."""

import argparse

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "fig17" in out and "tab1" in out


def test_chains(capsys):
    assert main(["chains"]) == 0
    out = capsys.readouterr().out
    assert "511 : 1" in out and "31 : 1" in out


def test_reproduce_tab1(capsys):
    assert main(["reproduce", "tab1"]) == 0
    out = capsys.readouterr().out
    assert "Cortex-A53" in out and "TU102" in out


def test_reproduce_fig13(capsys):
    assert main(["reproduce", "fig13"]) == 0
    out = capsys.readouterr().out
    assert "im2col" in out and "geomean" in out


def test_reproduce_unknown(capsys):
    assert main(["reproduce", "fig99"]) == 2
    err = capsys.readouterr().err
    # one line, lists the valid choices, no traceback
    assert err.count("\n") == 1
    assert "fig99" in err and "fig13" in err and "tab1" in err
    assert "Traceback" not in err


def test_layers(capsys):
    assert main(["layers", "resnet50"]) == 0
    out = capsys.readouterr().out
    assert "conv1:" in out and "conv19:" in out


def test_kernel_summary_and_listing(capsys):
    assert main(["kernel", "smlal", "4", "8", "--listing"]) == 0
    out = capsys.readouterr().out
    assert "SMLAL_8H" in out
    assert "MACs/cycle" in out
    assert "LD4R_B" in out  # listing shows the load-replicate


def test_kernel_sdot(capsys):
    assert main(["kernel", "sdot", "8", "16"]) == 0
    out = capsys.readouterr().out
    assert "SDOT_4S_LANE" in out


@pytest.mark.parametrize("argv,needle", [
    (["ncnn", "4", "64"], "unsupported bit width: 4"),
    (["sdot", "4", "64"], "unsupported bit width: 4"),
    (["popcount", "8", "64"], "unsupported bit width: 8"),
])
def test_kernel_rejects_a_width_the_scheme_lacks(argv, needle, capsys):
    assert main(["kernel", *argv]) == 2
    captured = capsys.readouterr()
    assert needle in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv,needle", [
    (["smlal", "9", "64"], "unsupported bit width: 9"),
    (["smlal", "4", "0"], "k must be positive"),
])
def test_kernel_reports_bad_arguments_without_traceback(argv, needle, capsys):
    assert main(["kernel", *argv]) == 2
    err = capsys.readouterr().err
    assert needle in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_bench_smoke(tmp_path, capsys):
    assert main(["bench", "--smoke", "--backend", "gpu",
                 "--out", str(tmp_path),
                 "--cache-dir", str(tmp_path / "cache"),
                 "--save", "--history-dir", str(tmp_path / "hist")]) == 0
    out = capsys.readouterr().out
    assert "identical best tilings: True" in out
    report = tmp_path / "BENCH_autotune_smoke.json"
    assert report.is_file()
    import json

    data = json.loads(report.read_text())
    assert data["gpu_autotune"]["identical_series"] is True
    # every phase is REPEATS fresh-state runs: seconds is their median,
    # and the ledger records exactly those medians and spreads
    from repro.obs.history import BenchLedger
    from repro.perf.bench import REPEATS

    gpu = data["gpu_autotune"]
    (entry,) = BenchLedger(tmp_path / "hist").entries()
    for phase in ("serial", "cold", "warm"):
        stats = gpu[phase]
        assert stats["repeats"] == REPEATS
        assert 0.0 < stats["min"] <= stats["seconds"]
        assert stats["iqr"] >= 0.0
        assert entry["wall_seconds"][f"gpu_{phase}"] == stats["seconds"]
        assert entry["wall_iqr"][f"gpu_{phase}"] == stats["iqr"]
        probe = entry["host_probe_s"][f"gpu_{phase}"]
        assert probe == stats["host_probe_s"] > 0
    assert gpu["speedup_cold"] == pytest.approx(
        gpu["serial"]["seconds"] / gpu["cold"]["seconds"], rel=1e-3)
    # the report always carries an obs metrics block and, since v3, the
    # git/fingerprint provenance used by the bench-history ledger
    assert data["schema"] == 3
    assert "fingerprint" in data
    metrics = data["metrics"]
    assert set(metrics) >= {"schema", "counters", "gauges", "histograms"}
    assert any(k.startswith("cache_lookups{") for k in metrics["counters"])
    assert any(k.startswith("autotune_evaluated{")
               for k in metrics["counters"])


def test_bench_smoke_trace_and_metrics_outputs(tmp_path, capsys):
    tpath = tmp_path / "trace.json"
    assert main(["bench", "--smoke", "--backend", "gpu",
                 "--out", str(tmp_path),
                 "--cache-dir", str(tmp_path / "cache"),
                 "--trace", str(tpath)]) == 0
    import json

    doc = json.loads(tpath.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert any(e["name"] == "autotune.search"
               for e in doc["traceEvents"] if e["ph"] == "X")
    report = json.loads((tmp_path / "BENCH_autotune_smoke.json").read_text())
    snap = report["metrics"]
    assert set(snap) >= {"schema", "counters", "gauges", "histograms"}


def test_bench_smoke_arm_has_nothing_to_run(tmp_path, capsys):
    assert main(["bench", "--smoke", "--backend", "arm",
                 "--out", str(tmp_path),
                 "--save", "--history-dir", str(tmp_path / "hist")]) == 2
    captured = capsys.readouterr()
    assert "nothing to bench" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert not list(tmp_path.rglob("*.json*"))  # no report, no ledger


def test_bench_save_then_regress_clean(tmp_path, capsys):
    """The acceptance loop: two identical --save runs, then a clean regress."""
    hist = tmp_path / "history"
    for _ in range(2):
        assert main(["bench", "--smoke", "--backend", "gpu",
                     "--out", str(tmp_path),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--save", "--history-dir", str(hist)]) == 0
    assert (hist / "ledger.jsonl").is_file()
    assert main(["regress", "--history-dir", str(hist)]) == 0
    out = capsys.readouterr().out
    assert "bit-identical" in out and "regress: clean" in out


def test_regress_needs_two_entries(tmp_path, capsys):
    assert main(["regress", "--history-dir", str(tmp_path)]) == 2
    assert "at least 2 ledger entries" in capsys.readouterr().out


def test_report_html(tmp_path, capsys):
    out_html = tmp_path / "report.html"
    assert main(["report", "--html", str(out_html),
                 "--backend", "ref",
                 "--history-dir", str(tmp_path / "history")]) == 0
    text = out_html.read_text()
    assert text.startswith("<!doctype html>")
    assert "<svg" in text and "Roofline" in text
    assert "prefers-color-scheme: dark" in text  # dark mode is selected


def test_report_text(capsys):
    assert main(["report", "--backend", "ref"]) == 0
    out = capsys.readouterr().out
    assert "roofline [ref]" in out
    assert "CAL/LD" in out and "chain" in out


def test_report_unknown_backend(capsys):
    assert main(["report", "--backend", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "nope" in err and "arm" in err and "gpu" in err and "ref" in err
    assert "Traceback" not in err


def test_layers_unknown_backend(capsys):
    assert main(["layers", "resnet50", "--backend", "nope"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "nope" in err and "arm" in err and "ref" in err
    assert "Traceback" not in err


def test_profile_unknown_backend(capsys):
    assert main(["profile", "resnet50", "--backend", "nope"]) == 2
    out = capsys.readouterr().out
    assert "nope" in out and "Traceback" not in out


def test_chaos_command_registered():
    from repro.cli import build_parser

    args = build_parser().parse_args(["chaos"])
    assert args.command == "chaos"


def test_chaos_list_prints_scenarios(capsys):
    assert main(["chaos", "--list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "autotune-invariance" in out and "serve-slo" in out


def test_chaos_unknown_scenario_exits_two(capsys):
    assert main(["chaos", "not-a-scenario"]) == 2
    err = capsys.readouterr().err
    # one line, lists the valid choices, no traceback
    assert err.count("\n") == 1
    assert "not-a-scenario" in err and "serve-slo" in err
    assert "Traceback" not in err


def test_serve_smoke_and_summary_out(tmp_path, capsys):
    out = tmp_path / "serve.json"
    assert main(["serve", "--qps", "2000", "--requests", "300",
                 "--seed", "5", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "offered 300" in text and "slo_attainment" in text
    import json

    summary = json.loads(out.read_text())
    assert summary["schema"] == "repro.serve.summary/v1"
    assert summary["counts"]["offered"] == 300
    assert summary["invariants"]["conservation"] is True


def test_serve_json_output_is_canonical(capsys):
    assert main(["serve", "--qps", "2000", "--requests", "200",
                 "--seed", "5", "--json"]) == 0
    import json

    line = capsys.readouterr().out.strip()
    summary = json.loads(line)
    assert line == json.dumps(summary, sort_keys=True,
                              separators=(",", ":"))


def test_serve_trace_save_and_replay(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert main(["serve", "--qps", "1000", "--requests", "100",
                 "--seed", "2", "--save-trace", str(trace)]) == 0
    assert trace.exists()
    capsys.readouterr()
    assert main(["serve", "--trace-file", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "offered 100" in out


def test_serve_unknown_shape_exits_two(capsys):
    assert main(["serve", "--shape", "sawtooth"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "sawtooth" in err and "steady" in err


def test_report_html_serve_summary_card(tmp_path, capsys):
    summary_path = tmp_path / "serve.json"
    assert main(["serve", "--qps", "2000", "--requests", "200",
                 "--seed", "5", "--out", str(summary_path)]) == 0
    capsys.readouterr()
    html = tmp_path / "dash.html"
    assert main(["report", "--html", str(html), "--backend", "gpu",
                 "--serve-summary", str(summary_path)]) == 0
    text = html.read_text()
    assert "Serving &amp; overload robustness" in text
    assert "SLO attainment" in text


def test_report_serve_summary_unreadable_exits_two(tmp_path, capsys):
    assert main(["report", "--html", str(tmp_path / "x.html"),
                 "--serve-summary", str(tmp_path / "missing.json")]) == 2
    assert "cannot read serve summary" in capsys.readouterr().err


def test_bad_command():
    with pytest.raises(SystemExit):
        main(["not-a-command"])



def test_profile_is_the_one_observation_command():
    from repro.cli import build_parser

    [sub] = [a for a in build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert sorted(sub.choices) == sorted([
        "list", "reproduce", "layers", "chains", "kernel", "bench",
        "profile", "report", "regress", "diff", "chaos", "serve"])
    for gone in (["flight"], ["metrics-export"],
                 ["profile", "fig7", "--profile-sample"]):
        with pytest.raises(SystemExit):
            main(gone)
