"""One benchmark process: set a workload up, time its operations, check them.

``run.py`` starts this file in fresh processes, one JSON request as the
only argument::

    {"workload": "serve-steady", "seed": 3, "mode": "run",
     "seconds": 10, "ops": null, "trace_out": null}

``mode`` is ``setup`` (build the inputs, then stop) or ``run`` (then time
operations until ``seconds`` have passed, at least ``MIN_OPS`` of them,
or exactly ``ops`` when given).  With ``trace_out`` the layers are wrapped
in spans (see ``tracing.py``) and the Chrome trace is written there at
exit.  The last stdout line is one JSON object with the timings (raw, and
scaled to the reference host speed by :func:`probe`), the check counts
and, for a traced run, the per-layer metrics.

The program under test is imported from ``src/`` of the working directory
(``run.py`` sets ``PYTHONPATH``); nothing here is imported by it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import resource
import sys
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

MIN_OPS = 3
PINNED = HERE / "data" / "pinned.json"
PAPER = HERE / "data" / "paper.json"

#: figure artifacts of one figures pass, in order; ``.b16`` is batch 16
FIGURES = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
           "fig14", "fig15", "fig16", "fig17", "tab1", "fig10.b16",
           "fig11.b16")
#: whole quantized networks priced by ``estimate_model_cycles``
MODELS = ("resnet50", "densenet121", "scr-resnet50")
PRICINGS = (("arm", 8), ("arm", 4), ("arm", 2), ("gpu", 8), ("gpu", 4))
#: serve traces and fault plans come from ``seed % SERVE_SEEDS``; a summary
#: digest is pinned for each
SERVE_SEEDS = 64

#: reduced-channel ResNet-50 layers (name, in, out, hw, kernel, stride, pad)
EXACT_LAYERS = (
    ("conv2", 16, 16, 6, 3, 1, 1),   # 3x3/s1, winograd-eligible
    ("conv4", 32, 16, 6, 1, 1, 0),   # 1x1 reduction
    ("conv5", 32, 16, 8, 1, 2, 0),   # 1x1/s2 downsample
)
#: (layer, bits, scheme): every ARM bit width once, plus ncnn and winograd
ARM_RUNS = (
    ("conv2", 4, "smlal"), ("conv2", 8, "ncnn"), ("conv2", 4, "winograd"),
    ("conv4", 2, "mla"), ("conv4", 5, "smlal"), ("conv4", 8, "smlal"),
    ("conv5", 3, "mla"), ("conv5", 6, "smlal"), ("conv5", 7, "smlal"),
)
GPU_BITS = (4, 8)


#: the host-speed probe's time on the reference host: reported times are
#: host seconds scaled by ``PROBE_REF_S / probe()`` to that speed
PROBE_REF_S = 0.025


def probe() -> float:
    """Seconds this host takes right now for a fixed mix of interpreter and
    small-array NumPy work, the two kinds of work the program does.

    The host is shared: its speed drifts by a fifth over tens of seconds.
    A time scaled by the probe run next to it moves with the program, not
    with the host.  The probe uses no program code.
    """
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(100_000):
        acc += i * i
        table[i & 511] = (acc, i)
    a = np.arange(64, dtype=np.int64)
    for _ in range(3_000):
        a = np.concatenate([(a[:32] * 3 + 1) & 1023, a[32:] ^ a[:32]])
    return time.perf_counter() - start


def _scaled(seconds, before, after):
    """A host time at the reference speed, by the probes around it."""
    return seconds * PROBE_REF_S * 2 / (before + after)


class Clock:
    """Times the pieces of one operation, each piece followed by a probe,
    so each is scaled by the host speed right around it."""

    def __init__(self, probes):
        self.probes = probes  # appended to; the last is the one before
        self.raw = self.scaled = 0.0

    @contextlib.contextmanager
    def piece(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - start
            self.probes.append(probe())
            self.raw += seconds
            self.scaled += _scaled(seconds, *self.probes[-2:])


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _macs(spec) -> int:
    return (spec.batch * spec.out_channels * spec.out_height
            * spec.out_width * spec.gemm_k)


# ---------------------------------------------------------------------------
# figures-cold / figures-warm: one pass per process
# ---------------------------------------------------------------------------


class Figures:
    """Regenerate every figure and price the whole networks once."""

    def imports(self):
        from repro import figures
        from repro.models import get_model_layers
        from repro.runtime.network import estimate_model_cycles

        self.registry = figures.figure_registry()
        self.tab1 = figures.tab1_configurations
        self.layers = get_model_layers
        self.estimate = estimate_model_cycles

    def setup(self, seed, rec):
        return None  # the figures take no generated inputs

    def prepare(self, state, rec):
        pass

    def _artifact(self, name):
        if name == "tab1":
            return self.tab1()
        fig, _, batch = name.partition(".b")
        return self.registry[fig](batch=int(batch or 1))

    def op(self, state, rec, clock):
        out = {}
        for name in FIGURES:
            with clock.piece(), rec.span(f"figures.{name}"):
                out[name] = _attempt(self._artifact, name)
        for model in MODELS:
            specs = self.layers(model)
            with clock.piece(), rec.span(
                    f"runtime.estimate_model_cycles.{model}"):
                for backend, bits in PRICINGS:
                    out[f"{model}.{backend}{bits}"] = _attempt(
                        self.estimate, specs, bits, backend)
        return out

    def work(self, state):
        return len(FIGURES) + len(MODELS) * len(PRICINGS)

    def check(self, state, out, rec):
        pinned = json.loads(PINNED.read_text())["figures"]
        errors = []
        for name, value in out.items():
            if isinstance(value, Exception):
                errors.append(f"{name}: {type(value).__name__}: {value}")
            elif artifact_digest(value) != pinned.get(name):
                errors.append(f"{name}: series differ from the pinned digest")
        return len(out), errors


def _attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # one failed operation; the pass goes on
        return exc


def artifact_digest(value) -> str:
    """Bit-exact digest of one figure, table or network pricing."""
    if hasattr(value, "series"):
        payload = {
            "figure": value.figure, "labels": list(value.labels),
            "series": [[s.name, list(s.values)] for s in value.series],
            "baseline": [value.baseline_label, list(value.baseline_times)],
        }
    elif hasattr(value, "stage_reports"):
        payload = [r.op_cycles for r in value.stage_reports]
    else:
        payload = value
    return _digest(payload)


def fidelity(out) -> dict:
    """Simulated headline values beside the published ones (ungated)."""
    rows = {}
    for entry in json.loads(PAPER.read_text()):
        fig = out.get(entry["artifact"])
        if fig is None or isinstance(fig, Exception):
            continue
        values = np.asarray(fig.series_by_name(entry["series"]).values)
        if entry["aggregation"] == "geomean_of_wins":
            values = values[values > 1.0]
        simulated = float(np.exp(np.log(values).mean()))
        rows[entry["name"]] = {
            "simulated": simulated, "published": entry["published"],
            "ratio": simulated / entry["published"],
            "aggregation": entry["aggregation"],
            "paper_aggregation": entry["paper_aggregation"],
        }
    return rows


# ---------------------------------------------------------------------------
# serve-steady / serve-chaos: one replay per operation
# ---------------------------------------------------------------------------


class Serve:
    """Replay a seeded 10k-request open-loop trace through ``repro.serve``."""

    def __init__(self, chaos):
        self.chaos = chaos
        self.key = "serve-chaos" if chaos else "serve-steady"

    def imports(self):
        from repro import serve

        self.serve = serve

    def setup(self, seed, rec):
        cfg = self.serve.ServeConfig(seed=seed % SERVE_SEEDS)
        tables = [
            self.serve.CostTable.build(
                backend, cfg.model, bits=cfg.bits, max_batch=cfg.max_batch,
                overhead_us=cfg.dispatch_overhead_us)
            for backend in (cfg.backend, cfg.fallback)
        ]
        trace = None
        if not self.chaos:  # run_harness draws its own trace from cfg.seed
            trace = self.serve.generate_trace(
                cfg.qps, cfg.requests, seed=cfg.seed, slo_us=cfg.slo_us,
                shape=cfg.shape)
        return cfg, tables, trace

    def prepare(self, state, rec):
        pass

    def op(self, state, rec, clock):
        cfg, (primary, fallback), trace = state
        with clock.piece():
            if self.chaos:
                return self.serve.run_harness(cfg, chaos=True)
            return self.serve.run_serve(
                cfg, primary_table=primary, fallback_table=fallback,
                trace=trace)

    def work(self, state):
        return state[0].requests

    def check(self, state, summary, rec):
        cfg = state[0]
        counts = summary["counts"]
        rec.set("serve.sim.batches", counts["batches"])
        rec.set("serve.sim.admitted", counts["admitted"])
        rec.set("serve.sim.shed", counts["shed"]["total"])
        rec.set("serve.sim.brownout_batches", counts["brownout_batches"])
        rec.set("serve.sim.queue_peak", summary["queue_peak"])
        rec.set("serve.sim.goodput", summary["goodput"])
        rec.set("serve.sim.p99_ms", summary["latency_us"]["p99"] / 1e3)
        rec.set("resilience.breaker.opens", summary["breaker"]["opens"])
        rec.set("resilience.faults.injected",
                sum(summary["faults_injected"].values()))
        pinned = json.loads(PINNED.read_text())[self.key].get(str(cfg.seed))
        problems = []
        if self.serve.summary_digest(summary) != pinned:
            problems.append("summary digest differs from the pinned one")
        if not summary["invariants"]["conservation"]:
            problems.append("conservation violated")
        # one replay is one operation, however many ways it went wrong
        return 1, [f"seed {cfg.seed}: " + "; ".join(problems)] if problems else []


# ---------------------------------------------------------------------------
# exact-arm / exact-gpu: bit-exact low-bit convolutions against conv2d_ref
# ---------------------------------------------------------------------------


def _operands(rng, spec, bits, layout, signed_max):
    """Random ``bits``-bit integers; ``signed_max`` drops -2^(b-1)."""
    half = 1 << (bits - 1)
    lo = -(half - 1) if signed_max else -half
    x = rng.integers(lo, half, spec.input_shape(layout)).astype("int8")
    w = rng.integers(lo, half, spec.weight_shape()).astype("int8")
    return x, w


class ExactArm:
    """Every ARM kernel scheme, instruction by instruction."""

    def imports(self):
        from repro.arm.conv_runner import execute_arm_conv
        from repro.arm.winograd_runner import execute_winograd_arm
        from repro.conv.ref import conv2d_ref
        from repro.types import ConvSpec, Layout

        self.ConvSpec, self.Layout = ConvSpec, Layout
        self.gemm, self.winograd = execute_arm_conv, execute_winograd_arm
        self.ref = conv2d_ref

    def _specs(self):
        return {name: self.ConvSpec(name, cin, cout, hw, hw, kernel=k,
                                    stride=s, padding=p)
                for name, cin, cout, hw, k, s, p in EXACT_LAYERS}

    def setup(self, seed, rec):
        rng = np.random.default_rng(seed)
        specs = self._specs()
        runs = []
        for layer, bits, scheme in ARM_RUNS:
            spec = specs[layer]
            # 7/8-bit SMLAL chains assume symmetric ranges, as the paper's
            # quantizer produces; winograd needs 4-bit operands
            x, w = _operands(rng, spec, bits, self.Layout.NCHW, bits >= 7)
            runs.append((spec, bits, scheme, x, w))
        return {"runs": runs}

    def prepare(self, state, rec):
        with rec.span("conv.ref"):
            state["expected"] = [self.ref(spec, x, w)
                                 for spec, _, _, x, w in state["runs"]]

    def op(self, state, rec, clock):
        outs = []
        for spec, bits, scheme, x, w in state["runs"]:
            with clock.piece(), rec.span(f"arm.exact.{scheme}"):
                if scheme == "winograd":
                    y = _attempt(self.winograd, spec, x, w, bits)
                else:
                    y = _attempt(self._gemm, spec, x, w, bits, scheme)
            rec.add(f"arm.exact.{scheme}.macs", _macs(spec))
            outs.append(y)
        return outs

    def _gemm(self, spec, x, w, bits, scheme):
        return self.gemm(spec, x, w, bits, scheme=scheme)

    def work(self, state):
        return sum(_macs(run[0]) for run in state["runs"])

    def check(self, state, outs, rec):
        errors = []
        for (spec, bits, scheme, _, _), y, ref in zip(
                state["runs"], outs, state["expected"]):
            what = f"{spec.name} {scheme} {bits}-bit"
            if isinstance(y, Exception):
                errors.append(f"{what}: {y!r:.80}")
            elif not np.array_equal(y, ref):
                errors.append(f"{what}: output differs from conv2d_ref")
        return len(outs), errors


class ExactGpu(ExactArm):
    """Tensor Core implicit GEMM and one block of the block simulator."""

    def imports(self):
        super().imports()
        from repro.gpu.autotune import autotune_conv
        from repro.gpu.implicit_gemm import conv2d_implicit_gemm
        from repro.gpu.kernelsim import simulate_conv_block

        self.autotune = autotune_conv
        self.implicit = conv2d_implicit_gemm
        self.block = simulate_conv_block

    def setup(self, seed, rec):
        rng = np.random.default_rng(seed)
        runs = []
        for spec in self._specs().values():
            for bits in GPU_BITS:
                x, w = _operands(rng, spec, bits, self.Layout.NHWC, False)
                tiling = self.autotune(spec, bits).best
                runs.append((spec, bits, tiling, x, w))
        return {"runs": runs}

    def prepare(self, state, rec):
        with rec.span("conv.ref"):
            expected = []
            for spec, bits, tiling, x, w in state["runs"]:
                ref = self.ref(spec, x, w, layout=self.Layout.NHWC)
                gemm = ref.reshape(-1, spec.out_channels)
                tile = np.zeros((tiling.m_tile, tiling.n_tile), gemm.dtype)
                rows = min(tiling.m_tile, gemm.shape[0])
                cols = min(tiling.n_tile, gemm.shape[1])
                tile[:rows, :cols] = gemm[:rows, :cols]
                expected.append((ref, tile, rows * cols * spec.gemm_k))
        state["expected"] = expected

    def op(self, state, rec, clock):
        outs = []
        for spec, bits, tiling, x, w in state["runs"]:
            with clock.piece(), rec.span(f"gpu.implicit_gemm.int{bits}"):
                y = _attempt(self._implicit, spec, x, w, bits)
            rec.add(f"gpu.implicit_gemm.int{bits}.macs", _macs(spec))
            with clock.piece(), rec.span("gpu.kernelsim.block"):
                tile = _attempt(self.block, spec, x, w, tiling, bits)
            outs.append((y, tile))
        return outs

    def _implicit(self, spec, x, w, bits):
        return self.implicit(spec, x, w, bits=bits).data

    def work(self, state):
        return sum(_macs(run[0]) + exp[2]
                   for run, exp in zip(state["runs"], state["expected"]))

    def check(self, state, outs, rec):
        errors = []
        for (spec, bits, *_), (y, tile), (ref, ref_tile, _) in zip(
                state["runs"], outs, state["expected"]):
            for what, got, want in (("implicit GEMM", y, ref),
                                    ("kernelsim block", tile, ref_tile)):
                if isinstance(got, Exception):
                    errors.append(f"{spec.name} int{bits} {what}: {got!r:.80}")
                elif not np.array_equal(got, want):
                    errors.append(f"{spec.name} int{bits} {what}: "
                                  "output differs from conv2d_ref")
        return 2 * len(outs), errors


WORKLOADS = {
    "figures-cold": Figures,
    "figures-warm": Figures,
    "serve-steady": lambda: Serve(chaos=False),
    "serve-chaos": lambda: Serve(chaos=True),
    "exact-arm": ExactArm,
    "exact-gpu": ExactGpu,
}


def main(request) -> dict:
    wl = WORKLOADS[request["workload"]]()
    traced = request.get("trace_out") is not None
    rec = tracing.Recorder() if traced else tracing.NullRecorder()

    before = probe()
    start = time.perf_counter()
    if traced:  # before the workload binds any program function
        tracing.install(rec)
    wl.imports()
    with rec.span("bench.setup"):
        state = wl.setup(request["seed"], rec)
    setup_raw = time.perf_counter() - start
    probes = [probe()]
    result = {"setup_raw_s": setup_raw,
              "setup_s": _scaled(setup_raw, before, probes[0]),
              "op_s": [], "op_raw_s": [], "probe_s": probes,
              "attempted": 0, "failed": 0, "errors": []}
    if request["mode"] == "run":
        wl.prepare(state, rec)
        result["work"] = wl.work(state)
        _measure(wl, state, rec, request, result)
    result.setdefault("peak_rss_mb", _peak_rss_mb())
    if traced:
        result["layers"] = tracing.layer_metrics(rec, FIGURES, MODELS)
        rec.write(request["trace_out"])
    return result


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _measure(wl, state, rec, request, result):
    """Run operations, each timed piece by piece (see :class:`Clock`)."""
    fixed = request.get("ops")
    raw, scaled = result["op_raw_s"], result["op_s"]
    begin = time.perf_counter()
    while True:
        if fixed is not None:
            if len(raw) >= fixed:
                break
        elif (len(raw) >= MIN_OPS
              and time.perf_counter() - begin >= request["seconds"]):
            break
        clock = Clock(result["probe_s"])
        try:
            with rec.span("bench.op", op=len(raw)):
                out = wl.op(state, rec, clock)
        except Exception as exc:  # the whole operation failed
            out = exc
        raw.append(clock.raw)
        scaled.append(clock.scaled)
        if len(raw) == MIN_OPS:
            # memory grows with the replays run (the flight ring fills), so
            # the peak is taken after a fixed amount of work
            result["peak_rss_mb"] = _peak_rss_mb()
        if isinstance(out, Exception):
            result["attempted"] += 1
            result["failed"] += 1
            result["errors"].append(f"{type(out).__name__}: {out}")
            continue
        attempted, errors = wl.check(state, out, rec)
        result["attempted"] += attempted
        result["failed"] += len(errors)
        result["errors"].extend(errors[:5])
        if isinstance(wl, Figures) and "fidelity" not in result:
            result["fidelity"] = fidelity(out)


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
