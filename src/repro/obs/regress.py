"""Perf-regression verdicts over the bench ledger: ``repro regress``.

Compares the newest ledger entry (the *candidate*) against a baseline
entry (default: the newest earlier run with the same
kind/model/batch/backends, preferring the same machine fingerprint) on
two signals:

* **deterministic** — per-figure model cycles and figure series must be
  *bit-identical*: the cost models are pure functions of code + spec, so
  any drift is a real behavior change, never noise;
* **wall-clock** — each phase's ``wall_seconds`` is already the median
  of the bench's repeated fresh-state runs, so one entry per side is a
  measurement, not a single shot.  A phase fails only when the
  candidate median exceeds the baseline median by more than
  ``max(WALL_TOLERANCE, baseline wall_iqr, candidate wall_iqr)``: a
  phase whose repeats themselves swing widely earns a wider band.  The
  baseline median is first scaled by the phase's host-speed ratio,
  candidate ``host_probe_s`` / baseline ``host_probe_s``, so a shared
  host's slow window reads as a slower host, not a slower program.
  Entries written before ``wall_iqr`` or ``host_probe_s`` existed count
  as spread 0 and host ratio 1.

Exit codes (the single source of truth, also surfaced in ``--json``
output and README): **0** clean, **1** regression (any cycle mismatch or
wall overrun), **2** unusable ledger (fewer than two entries, or no
baseline with the candidate's config — also when ``--baseline`` names
one with a different config).

To see *where* a failing pair diverged, run ``repro diff
<baseline-run-id> -1``: the same two entries, ranked phase and metric
deltas, and ledger changepoints (:mod:`repro.obs.diff`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

from . import metrics as obs_metrics
from .history import BenchLedger

#: flat wall-clock tolerance (fraction over the baseline median); a
#: phase's own measured spread widens it
WALL_TOLERANCE = 0.5


@dataclass(frozen=True)
class Verdict:
    """One comparison row of the regression table."""

    key: str
    kind: str  #: "cycles" | "series" | "wall" | "provenance"
    ok: bool
    detail: str
    #: a failed verdict that counts toward the exit code (a provenance
    #: change is reported but never fails the run)
    regression: bool = False

    def as_dict(self) -> dict:
        return {"key": self.key, "kind": self.kind, "ok": self.ok,
                "regression": self.regression, "detail": self.detail}


@dataclass
class RegressReport:
    baseline_id: str
    candidate_id: str
    verdicts: list[Verdict]

    @property
    def regressed(self) -> bool:
        return any(v.regression for v in self.verdicts)

    def table(self) -> list[str]:
        lines = [f"  {'check':<42} {'verdict':<6} detail"]
        for v in self.verdicts:
            status = "OK" if v.ok else ("FAIL" if v.regression else "WARN")
            lines.append(f"  {v.key:<42} {status:<6} {v.detail}")
        return lines

    def as_dict(self) -> dict:
        return {
            "baseline": self.baseline_id,
            "candidate": self.candidate_id,
            "regressed": self.regressed,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def _first_diff(a: dict, b: dict) -> str:
    """Human-sized description of the first difference between two dicts."""
    for key in sorted(set(a) | set(b)):
        if key not in a:
            return f"{key!r} only in candidate"
        if key not in b:
            return f"{key!r} only in baseline"
        if a[key] != b[key]:
            return f"{key!r}: {a[key]!r} -> {b[key]!r}"
    return "(identical)"


def _exact_verdict(key: str, kind: str, base: dict, cand: dict) -> Verdict:
    if base == cand:
        return Verdict(key, kind, ok=True,
                       detail=f"bit-identical ({len(cand)} keys)")
    return Verdict(key, kind, ok=False, regression=True,
                   detail=f"MISMATCH at {_first_diff(base, cand)}")


def _wall_verdicts(baseline: dict, candidate: dict) -> list[Verdict]:
    out: list[Verdict] = []
    base_wall = baseline.get("wall_seconds", {})
    cand_wall = candidate.get("wall_seconds", {})
    base_iqr = baseline.get("wall_iqr", {})
    cand_iqr = candidate.get("wall_iqr", {})
    base_probe = baseline.get("host_probe_s", {})
    cand_probe = candidate.get("host_probe_s", {})
    for key in sorted(base_wall):
        if key not in cand_wall:
            continue
        host = (cand_probe[key] / base_probe[key]
                if base_probe.get(key) and cand_probe.get(key) else 1.0)
        median = float(base_wall[key])
        value = float(cand_wall[key])
        band = max(WALL_TOLERANCE, float(base_iqr.get(key, 0.0)),
                   float(cand_iqr.get(key, 0.0)))
        expected = median * host
        delta = (value - expected) / expected if expected else 0.0
        ok = value <= expected * (1.0 + band)
        obs_metrics.gauge("regress_wall_delta", phase=key).set(delta)
        out.append(Verdict(
            key=f"wall {key}",
            kind="wall",
            ok=ok,
            regression=not ok,
            detail=(f"median {value:.3f}s vs {median:.3f}s x host "
                    f"{host:.2f} ({delta:+.1%}, threshold +{band:.0%})"),
        ))
    return out


def _config_key(entry: dict) -> tuple:
    return (entry.get("kind"), entry.get("model"), entry.get("batch"),
            tuple(entry.get("backends", ())))


def _pick_baseline(entries: list[dict], candidate: dict,
                   selector: str | None) -> dict | None:
    """Resolve the baseline among the entries older than the candidate
    that share its config; a selector narrows them by run-id or git-sha
    prefix, otherwise the same machine fingerprint is preferred."""
    key = _config_key(candidate)
    comparable = [e for e in entries if _config_key(e) == key]
    if selector is not None:
        picks = [e for e in comparable
                 if e.get("run_id", "").startswith(selector)
                 or (e.get("git_sha") or "").startswith(selector)]
        return picks[-1] if picks else None
    same_fp = [e for e in comparable
               if e.get("fingerprint") == candidate.get("fingerprint")]
    pool = same_fp or comparable
    return pool[-1] if pool else None


def compare_entries(baseline: dict, candidate: dict) -> RegressReport:
    """Build the verdict table for one baseline/candidate pair."""
    verdicts: list[Verdict] = []
    if baseline.get("fingerprint") != candidate.get("fingerprint"):
        verdicts.append(Verdict(
            "machine fingerprint", "provenance", ok=False, regression=False,
            detail=(f"{baseline.get('fingerprint')} -> "
                    f"{candidate.get('fingerprint')} (code or machine "
                    f"changed; cycle mismatches may be intentional)"),
        ))
    verdicts.append(_exact_verdict(
        "model cycles", "cycles",
        baseline.get("model_cycles", {}), candidate.get("model_cycles", {}),
    ))
    base_figs = baseline.get("figures", {})
    cand_figs = candidate.get("figures", {})
    for fig in sorted(set(base_figs) | set(cand_figs)):
        verdicts.append(_exact_verdict(
            f"figure {fig}", "series",
            base_figs.get(fig, {}), cand_figs.get(fig, {}),
        ))
    verdicts.extend(_wall_verdicts(baseline, candidate))
    report = RegressReport(
        baseline_id=baseline.get("run_id", "?"),
        candidate_id=candidate.get("run_id", "?"),
        verdicts=verdicts,
    )
    obs_metrics.counter(
        "regress_runs", outcome="regressed" if report.regressed else "clean"
    ).inc()
    return report


def _json_doc(exit_code: int, *, error: str | None = None,
              report: RegressReport | None = None) -> str:
    """The ``--json`` document: verdicts + exit-code semantics in one
    machine-readable object (sorted keys, compact, byte-stable for a
    fixed ledger)."""
    doc: dict = {
        "schema": 1,
        "exit_code": exit_code,
        "exit_codes": {"0": "clean", "1": "regression",
                       "2": "unusable ledger"},
    }
    if error is not None:
        doc["error"] = error
    if report is not None:
        doc.update(report.as_dict())
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def run_regress(
    *,
    history_dir: str | os.PathLike | None = None,
    baseline: str | None = None,
    json_out: bool = False,
    echo: Callable[[str], None] = print,
) -> int:
    """Compare the ledger's newest run against a baseline; returns the
    process exit code (0 clean / 1 regression / 2 unusable ledger).

    ``json_out`` replaces the text table with one machine-readable JSON
    object (always emitted, even on exit 2).
    """
    ledger = BenchLedger(history_dir)
    entries = ledger.entries()
    if len(entries) < 2:
        msg = (f"regress: need at least 2 ledger entries in {ledger.path}, "
               f"found {len(entries)} (run `repro bench --save` twice)")
        echo(_json_doc(2, error=msg) if json_out else msg)
        return 2
    candidate = entries[-1]
    base = _pick_baseline(entries[:-1], candidate, baseline)
    if base is None:
        msg = (f"regress: no baseline matching selector {baseline!r} shares "
               f"the config (kind, model, batch, backends) of candidate "
               f"{candidate.get('run_id', '?')}" if baseline else
               f"regress: no baseline matches the candidate's config")
        echo(_json_doc(2, error=msg) if json_out else msg)
        return 2
    report = compare_entries(base, candidate)
    exit_code = 1 if report.regressed else 0
    if json_out:
        echo(_json_doc(exit_code, report=report))
        return exit_code

    echo(f"== regress: candidate {report.candidate_id} "
         f"vs baseline {report.baseline_id} ==")
    for line in report.table():
        echo(line)
    if report.regressed:
        echo("regress: REGRESSION detected "
             f"(attribute it: repro diff {report.baseline_id} -1)")
        return 1
    echo("regress: clean")
    return 0
