"""The repository's benchmark: one workload per run, every metric with its unit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-steady --seed 3 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics of a separate traced run, the
flight-recorder and tracing overheads, and writes the Chrome trace to
``perfbench/out/``.  Every operation's output is checked (pinned digests
or ``conv2d_ref``); the last stdout line is one JSON object::

    {"correct": true, "attempted": 27, "failed": 0, "metrics": {...}}

Every measurement runs in a fresh process (``worker.py``) with its own
``REPRO_CACHE_DIR`` under ``perfbench/out/`` and no other ``REPRO_*``
setting, so runs are independent and nothing is written outside the
checkout.  The exit code is 0 whenever a result was printed, whatever
its verdict; it is 1 when the benchmark could not run at all (no
``src/repro`` under the working directory, or a worker crashed).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (only its constants; it imports no program code)

WORKER = HERE / "worker.py"
OUT = HERE / "out"
#: a run must end well inside the 180 s a benchmark run is given
DEADLINE_S = 170.0
#: the setup time reported is the median over this many fresh set-ups
SETUP_SAMPLES = 3

#: the per-layer metric a workload's rate feeds (work units per op second)
RATES = {
    "serve-steady": "serve.req_per_s",
    "serve-chaos": "serve.req_per_s",
    "exact-arm": "arm.exact.macs_per_s",
    "exact-gpu": "gpu.exact.macs_per_s",
}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to: an output was wrong)."""


class BenchRun:
    """One benchmark run: the checkout, its scratch dir and the deadline."""

    def __init__(self, root, scratch, workload, seed, seconds):
        self.root = root
        self.scratch = scratch
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.fidelity = {}

    def cache_dir(self):
        return tempfile.mkdtemp(prefix="cache-", dir=self.scratch)

    def worker(self, mode, cache_dir, *, ops=None, trace_out=None,
               flight=True):
        """Run one worker process to completion; returns its JSON result."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        if not flight:
            env["REPRO_FLIGHT"] = "0"
        request = {"workload": self.workload, "seed": self.seed,
                   "mode": mode, "seconds": self.seconds, "ops": ops,
                   "trace_out": trace_out}
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the run finished")
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(request)],
                cwd=self.root, env=env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker ran out of time") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} worker exited {proc.returncode}:\n"
                + proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors.extend(result["errors"])
        if not self.fidelity:
            self.fidelity = result.get("fidelity", {})
        return result

    # -- measurement --------------------------------------------------------

    def measure(self, *, flight=True, warm_cache=None, setup_samples=1):
        """Time the workload's operation with tracing off.

        Returns the measuring workers' results merged: lists ``op_s``,
        ``op_raw_s``, ``setup_s``, ``setup_raw_s``, ``probe_s``,
        ``peak_rss_mb``, and ``work`` per op.  In-process workloads add
        ``setup_samples - 1`` set-up-only processes to the set-up times.
        """
        if self.workload.startswith("figures"):
            # each pass is a process of its own, cold or warm
            results, begin = [], time.monotonic()
            while (len(results) < worker.MIN_OPS
                   or time.monotonic() - begin < self.seconds):
                cache = warm_cache or self.cache_dir()
                results.append(self.worker("run", cache, ops=1, flight=flight))
                if warm_cache is None:
                    shutil.rmtree(cache, ignore_errors=True)
            setups = results
        else:
            setups = [self.worker("setup", self.cache_dir(), flight=flight)
                      for _ in range(setup_samples - 1)]
            results = [self.worker("run", self.cache_dir(), flight=flight)]
            setups = setups + results
        merged = {key: [x for r in results for x in r[key]]
                  for key in ("op_s", "op_raw_s", "probe_s")}
        merged["setup_s"] = [r["setup_s"] for r in setups]
        merged["setup_raw_s"] = [r["setup_raw_s"] for r in setups]
        merged["peak_rss_mb"] = [r["peak_rss_mb"] for r in results]
        merged["work"] = results[0]["work"]
        return merged

    def fill_cache(self):
        """figures-warm: one cold pass (checked too) fills the cache."""
        if self.workload != "figures-warm":
            return None
        cache = self.cache_dir()
        self.worker("run", cache, ops=1)
        return cache

    def traced(self, warm_cache):
        """One traced operation; returns (its scaled time, layer metrics)."""
        trace_out = OUT / f"trace-{self.workload}-seed{self.seed}.json"
        res = self.worker("run", warm_cache or self.cache_dir(), ops=1,
                          trace_out=str(trace_out))
        return res["op_s"][0], res["layers"]


def end_to_end(bench):
    warm = bench.fill_cache()
    m = bench.measure(warm_cache=warm, setup_samples=SETUP_SAMPLES)
    med = {key: statistics.median(m[key]) for key in m if key != "work"}
    print(f"host seconds (unscaled): setup {med['setup_raw_s']:.6g}, "
          f"op {med['op_raw_s']:.6g}; probe {med['probe_s']:.6g} s "
          f"against {worker.PROBE_REF_S} s reference")
    return {
        "setup_s": {"value": med["setup_s"], "unit": "s"},
        "op_s": {"value": med["op_s"], "unit": "s"},
        "peak_rss_mb": {"value": med["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(bench):
    # the untraced and flight-off measurements share the run's time
    bench.seconds /= 2
    warm = bench.fill_cache()
    on = bench.measure(warm_cache=warm)
    off = bench.measure(flight=False, warm_cache=warm)
    traced_s, layers = bench.traced(warm)
    base = statistics.median(on["op_s"])
    for name in RATES.values():
        layers[name] = 0.0
    if bench.workload in RATES:
        layers[RATES[bench.workload]] = on["work"] / base
    layers["obs.flight.overhead"] = base / statistics.median(off["op_s"])
    layers["bench.trace_overhead"] = traced_s / base
    layers["bench.op_raw_s"] = statistics.median(on["op_raw_s"])
    layers["bench.probe_s"] = statistics.median(on["probe_s"])
    units = per_layer_units()
    return {name: {"value": layers[name], "unit": units[name][0]}
            for name in units}


def per_layer_units():
    """Every per-layer metric: name -> (unit, better)."""
    units = {}
    for fig in worker.FIGURES:
        units[f"figures.{fig}.s"] = ("s", "lower")
    for model in worker.MODELS:
        units[f"runtime.estimate_model_cycles.{model}.s"] = ("s", "lower")
    units.update({
        "arm.schedule.s": ("s", "lower"),
        "arm.schedule.calls": ("count", "lower"),
        "arm.schedule.instrs": ("count", "lower"),
        "arm.schedule.instrs_per_s": ("instr/s", "higher"),
        "gpu.autotune.s": ("s", "lower"),
        "gpu.autotune.calls": ("count", "lower"),
        "gpu.autotune.candidates": ("count", "lower"),
        "gpu.autotune.evaluated": ("count", "lower"),
        "gpu.autotune.pruned_frac": ("ratio", "higher"),
        "gpu.autotune.candidates_per_s": ("cand/s", "higher"),
        "backends.arm.prewarm_s": ("s", "lower"),
        "backends.gpu.prewarm_s": ("s", "lower"),
    })
    for ns in ("gpu-autotune", "arm-schedule"):
        units[f"perf.cache.{ns}.hit_rate"] = ("ratio", "higher")
        units[f"perf.cache.{ns}.get_s"] = ("s", "lower")
        units[f"perf.cache.{ns}.put_s"] = ("s", "lower")
    units.update({
        "serve.cost.build_s": ("s", "lower"),
        "serve.workload.generate_s": ("s", "lower"),
        "serve.sim.run_s": ("s", "lower"),
        "serve.cost.lookup_calls": ("count", "lower"),
        "serve.cost.lookup_s": ("s", "lower"),
        "serve.sim.batches": ("count", "lower"),
        "serve.sim.admitted": ("count", "higher"),
        "serve.sim.shed": ("count", "lower"),
        "serve.sim.brownout_batches": ("count", "lower"),
        "serve.sim.queue_peak": ("count", "lower"),
        "serve.sim.goodput": ("ratio", "higher"),
        "serve.sim.p99_ms": ("ms", "lower"),
        "serve.req_per_s": ("req/s", "higher"),
        "resilience.policy.calls": ("count", "lower"),
        "resilience.policy.s": ("s", "lower"),
        "resilience.breaker.opens": ("count", "lower"),
        "resilience.faults.injected": ("count", "lower"),
        "arm.simulator.instrs": ("count", "lower"),
        "arm.simulator.instrs_per_s": ("instr/s", "higher"),
    })
    for scheme in ("mla", "smlal", "ncnn", "winograd"):
        units[f"arm.exact.{scheme}.macs_per_s"] = ("MAC/s", "higher")
    units.update({
        "arm.exact.macs_per_s": ("MAC/s", "higher"),
        "arm.kernels.generate_s": ("s", "lower"),
        "gpu.implicit_gemm.int4.macs_per_s": ("MAC/s", "higher"),
        "gpu.implicit_gemm.int8.macs_per_s": ("MAC/s", "higher"),
        "gpu.kernelsim.block_s": ("s", "lower"),
        "gpu.exact.macs_per_s": ("MAC/s", "higher"),
        "conv.ref.s": ("s", "lower"),
        "obs.flight.overhead": ("ratio", "lower"),
        "bench.trace_overhead": ("ratio", "lower"),
        "bench.op_raw_s": ("s", "lower"),
        "bench.probe_s": ("s", "lower"),
    })
    return units


def _compile(root):
    """Byte-compile the program first, so no timed import compiles it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src")],
        cwd=root, check=True, capture_output=True, timeout=120)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(worker.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {root}; run from the root "
              "of a checkout", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    bench = BenchRun(root, pathlib.Path(scratch), args.workload, args.seed,
                      args.seconds)
    try:
        _compile(root)
        metrics = (per_layer if args.trace else end_to_end)(bench)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for line in bench.errors[:20]:
        print(f"check failed: {line}")
    for name, row in sorted(bench.fidelity.items()):
        print(f"{name}: simulated {row['simulated']:.4f} "
              f"published {row['published']:.2f} "
              f"ratio {row['ratio']:.4f} "
              f"({row['aggregation']} vs paper {row['paper_aggregation']})")
    for name, row in metrics.items():
        print(f"{name} = {row['value']:.6g} {row['unit']}")
    print(json.dumps({
        "correct": bench.failed == 0 and bench.attempted > 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
