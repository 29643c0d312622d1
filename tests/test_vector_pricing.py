"""The vectorized autotune engine: dispatch, equivalence, accounting.

The bit-level vector/scalar model equivalence lives in
``test_gpu_random_tilings.py``; this suite pins the *engine* behavior on
top of it: mode dispatch (``REPRO_NO_VECTOR`` / fault plans), identical
winners across engines, the ``evaluated + pruned + skipped == candidates``
invariant, quarantine fallback, the batched profile-run counter, and the
ARM batch pricers.
"""

import numpy as np
import pytest

from repro import settings
from repro.gpu.autotune import (
    autotune,
    autotune_reference,
    clear_cache,
    autotune_options,
    pricing_mode,
    profile_quarantine,
    _candidate_key,
)
from repro.obs import metrics as obs_metrics
from repro.perf.cache import CACHE_DIR_ENV
from repro.resilience.faults import fault_plan
from repro.types import GemmShape
from repro.util import vector_enabled


@pytest.fixture(autouse=True)
def _isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_VECTOR", raising=False)
    clear_cache()
    with fault_plan(None):
        yield
    clear_cache()


_GEMMS = [
    GemmShape(3136, 576, 64),
    GemmShape(37, 123, 211),
    GemmShape(196, 2304, 256),
]


# ---------------------------------------------------------------------------
# Mode dispatch
# ---------------------------------------------------------------------------


def test_vector_mode_is_the_default():
    assert vector_enabled()
    assert pricing_mode() == "vector"


def test_no_vector_env_forces_scalar(monkeypatch):
    monkeypatch.setenv("REPRO_NO_VECTOR", "1")
    assert not vector_enabled()
    assert pricing_mode() == "scalar"


def test_fault_plan_on_profile_site_forces_scalar():
    with fault_plan("autotune.profile:raise:0.1:1"):
        assert pricing_mode() == "scalar"
    with fault_plan("autotune.*:delay:0.5:1"):
        assert pricing_mode() == "scalar"  # glob match counts too
    with fault_plan("cache.put:corrupt"):
        assert pricing_mode() == "vector"  # unrelated site: stay vectorized


# ---------------------------------------------------------------------------
# Engine equivalence: vector vs scalar vs serial reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bits", [8, 4])
def test_vector_engine_matches_scalar_engine(bits, monkeypatch):
    for gemm in _GEMMS:
        reference = autotune_reference(gemm, bits)
        with autotune_options(persistent=False):
            vector = autotune(gemm, bits)
            assert pricing_mode() == "vector"
            clear_cache()
            monkeypatch.setenv("REPRO_NO_VECTOR", "1")
            settings.reload()
            scalar = autotune(gemm, bits)
            monkeypatch.delenv("REPRO_NO_VECTOR")
            settings.reload()
            clear_cache()

        # the winner and its full cycle breakdown are engine-independent
        assert vector.best == scalar.best == reference.best
        assert vector.best_perf == scalar.best_perf
        assert vector.best_cycles == reference.best_cycles
        assert vector.candidates == scalar.candidates == reference.candidates
        for res in (vector, scalar):
            assert res.evaluated + res.pruned + res.skipped == res.candidates


def test_vector_engine_prunes_and_accounts():
    with autotune_options(persistent=False):
        res = autotune(GemmShape(3136, 576, 64), 4)
    assert res.pruned > 0
    assert res.evaluated < res.candidates
    assert res.evaluated + res.pruned + res.skipped == res.candidates


@pytest.mark.parametrize("kwargs", [
    {"tensor_core": False},
    {"double_buffer": False, "coalesced": False},
    {"split_k": 2, "out_elem_bytes": 4.0},
])
def test_vector_engine_forwards_kernel_kwargs(kwargs):
    gemm = GemmShape(196, 2304, 256)
    reference = autotune_reference(gemm, 8, **kwargs)
    with autotune_options(persistent=False):
        vector = autotune(gemm, 8, **kwargs)
    assert vector.best == reference.best
    assert vector.best_cycles == reference.best_cycles


def test_vector_exhaustive_equals_vector_pruned():
    gemm = GemmShape(37, 123, 211)
    with autotune_options(persistent=False):
        exhaustive = autotune(gemm, 8, prune=False)
        clear_cache()
        pruned = autotune(gemm, 8, prune=True)
    assert exhaustive.pruned == 0
    assert exhaustive.evaluated == exhaustive.candidates
    assert pruned.best_perf == exhaustive.best_perf


# ---------------------------------------------------------------------------
# Quarantine fallback
# ---------------------------------------------------------------------------


def test_quarantined_candidate_is_skipped_not_priced():
    gemm = GemmShape(3136, 576, 64)
    reference = autotune_reference(gemm, 8)
    # quarantine a non-winning candidate; the vector sweep must skip it
    # through the scalar guarded path and still find the same winner
    with autotune_options(persistent=False):
        loser = next(t for t in _space_for(8) if t != reference.best)
        profile_quarantine().add(
            _candidate_key(gemm, 8, loser), reason="test")
        res = autotune(gemm, 8)
    assert res.skipped == 1
    assert res.evaluated + res.pruned + res.skipped == res.candidates
    assert res.best == reference.best
    assert res.best_cycles == reference.best_cycles


def _space_for(bits):
    from repro.gpu.tiling import search_space

    return list(search_space(bits))


# ---------------------------------------------------------------------------
# Batched profile-run metric
# ---------------------------------------------------------------------------


def test_vector_profile_runs_counted_in_batch():
    before = obs_metrics.counter(
        "gpu_profile_runs", bits=8, pricing_mode="vector").value
    with autotune_options(persistent=False):
        res = autotune(GemmShape(196, 2304, 256), 8)
    after = obs_metrics.counter(
        "gpu_profile_runs", bits=8, pricing_mode="vector").value
    # every vector-priced candidate ticks the counter, pruned ones do not
    assert after - before >= res.evaluated
    assert after - before <= res.candidates


# ---------------------------------------------------------------------------
# ARM batch pricers
# ---------------------------------------------------------------------------


def test_arm_tile_cycles_batch_matches_scalar():
    from repro.arm.cost_model import tile_cycles, tile_cycles_batch

    ks = [1, 3, 16, 64, 256, 511, 512, 513, 576, 1000, 2304, 4608]
    for scheme, bits in [("smlal", 8), ("smlal", 4), ("mla", 2),
                         ("ncnn", 8), ("sdot", 8), ("popcount", 2)]:
        batch = tile_cycles_batch(scheme, bits, ks)
        expected = [tile_cycles(scheme, bits, k) for k in ks]
        assert batch.tolist() == expected  # bit-exact, both regions


def test_arm_tile_cycles_batch_rejects_nonpositive_k():
    from repro.arm.cost_model import tile_cycles_batch
    from repro.errors import UnsupportedBitsError

    with pytest.raises(UnsupportedBitsError):
        tile_cycles_batch("smlal", 8, [64, 0, 128])


def test_arm_gemm_kernel_cycles_batch_matches_scalar():
    from repro.arm.conv_runner import (
        gemm_kernel_cycles,
        gemm_kernel_cycles_batch,
    )

    gemms = [GemmShape(64, 576, 3136), GemmShape(128, 1152, 784),
             GemmShape(1, 9, 12544), GemmShape(512, 4608, 49)]
    for scheme, bits in [("smlal", 8), ("mla", 2)]:
        batch = gemm_kernel_cycles_batch(gemms, scheme, bits)
        expected = [gemm_kernel_cycles(g, scheme, bits) for g in gemms]
        assert batch.tolist() == expected


def test_arm_prewarm_batching_changes_no_prices(monkeypatch):
    from repro.backends.arm import ArmBackend
    from repro.models import get_model_layers

    layers = get_model_layers("resnet50")[:4]
    work = [(spec, bits, None) for spec in layers for bits in (2, 8)]

    backend = ArmBackend()
    backend.prewarm(work)
    warmed = [backend.price_conv(s, b, e).total_cycles for s, b, e in work]

    monkeypatch.setenv("REPRO_NO_VECTOR", "1")
    settings.reload()
    from repro.arm.cost_model import clear_schedule_cache

    clear_schedule_cache()
    backend.prewarm(work)
    scalar = [backend.price_conv(s, b, e).total_cycles for s, b, e in work]
    assert warmed == scalar


# ---------------------------------------------------------------------------
# Bench report surface
# ---------------------------------------------------------------------------


def test_phase_report_carries_pricing_and_throughput():
    from repro.perf.bench import PhaseReport

    report = PhaseReport(
        name="cold", samples=[2.0], candidates=24016, evaluated=2400,
        pruned=21616, pricing_mode="vector",
    )
    d = report.as_dict()
    assert d["pricing_mode"] == "vector"
    assert d["candidates_per_sec"] == pytest.approx(24016 / 2.0)
    empty = PhaseReport(name="warm", samples=[0.0]).as_dict()
    assert empty["candidates_per_sec"] is None


def test_ledger_entry_carries_throughput():
    from repro.obs.history import build_entry

    base = dict(
        kind="full", model="resnet50", batch=1, jobs=4, backends=["gpu"],
        timestamp="2026-08-09T00:00:00", model_cycles={}, figures={},
        wall_seconds={"gpu_cold": 0.05}, metrics_snapshot={},
    )
    entry = build_entry(**base, throughput={"gpu_cold": 480000.0})
    assert entry["throughput"] == {"gpu_cold": 480000.0}
    assert "throughput" not in build_entry(**base)
