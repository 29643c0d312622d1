"""Property tests on the ARM pipeline model and simulator invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arm.cost_model import _generate
from repro.arm.isa import Instr, Loop, MemRef, expand
from repro.arm.pipeline import A53_COST_TABLE, PipelineModel
from repro.arm.simulator import ArmSimulator

_VECTOR_POOL = [
    ("MOVI_ZERO", 1, 0),
    ("SMLAL_8H", 1, 2),
    ("MLA_16B", 1, 2),
    ("SADDW_4S", 1, 2),
    ("AND_16B", 1, 2),
    ("CNT_16B", 1, 1),
    ("SDOT_4S", 1, 2),
]


@st.composite
def random_streams(draw, max_len=60):
    n = draw(st.integers(1, max_len))
    stream = []
    for _ in range(n):
        kind = draw(st.integers(0, len(_VECTOR_POOL) + 1))
        if kind == len(_VECTOR_POOL):
            stream.append(Instr("LD1_16B", dst=(f"v{draw(st.integers(0, 31))}",),
                                mem=MemRef("A", draw(st.integers(0, 15)) * 16)))
        elif kind == len(_VECTOR_POOL) + 1:
            stream.append(Instr("SUBS", dst=("x9",), src=("x9",), imm=1))
        else:
            op, n_dst, n_src = _VECTOR_POOL[kind]
            dst = tuple(f"v{draw(st.integers(0, 31))}" for _ in range(n_dst))
            src = tuple(f"v{draw(st.integers(0, 31))}" for _ in range(n_src))
            stream.append(Instr(op, dst=dst, src=src))
    return stream


@given(random_streams())
@settings(max_examples=60, deadline=None)
def test_cycle_bounds(stream):
    """cycles is bracketed by issue width below and serial latency above."""
    r = PipelineModel(A53_COST_TABLE).schedule(stream)
    lower = max(
        -(-len(stream) // A53_COST_TABLE.issue_width),
        r.mem_busy,
        r.neon_busy,
    )
    assert r.cycles >= lower
    serial = sum(
        max(A53_COST_TABLE.cost(i.op).latency,
            A53_COST_TABLE.cost(i.op).mem_cycles,
            A53_COST_TABLE.cost(i.op).neon_cycles) + 1
        for i in stream
    )
    assert r.cycles <= serial + 1
    assert r.stall_cycles >= 0
    assert r.instructions == len(stream)


@given(random_streams(), random_streams())
@settings(max_examples=40, deadline=None)
def test_concatenation_superadditive_lower_bound(a, b):
    """Scheduling a+b takes at least as long as the longer prefix and no
    more than the sum (in-order issue can't speed up by appending)."""
    model = PipelineModel(A53_COST_TABLE)
    ra = model.schedule(a)
    rb = model.schedule(b)
    rab = model.schedule(a + b)
    assert rab.cycles >= max(ra.cycles - 1, 1)
    assert rab.cycles <= ra.cycles + rb.cycles + 2


@given(random_streams())
@settings(max_examples=30, deadline=None)
def test_simulator_is_deterministic(stream):
    def run():
        sim = ArmSimulator({"A": np.arange(256, dtype=np.uint8)})
        sim.run(stream)
        return sim.regs.snapshot()

    s1, s2 = run(), run()
    assert np.array_equal(s1["v"], s2["v"])
    assert np.array_equal(s1["x"], s2["x"])


@given(random_streams())
@settings(max_examples=30, deadline=None)
def test_checked_mode_agrees_when_it_passes(stream):
    """If overflow checking raises nothing, results match unchecked mode."""
    from repro.errors import OverflowDetected

    base = ArmSimulator({"A": np.arange(256, dtype=np.uint8)})
    base.run(stream)
    checked = ArmSimulator({"A": np.arange(256, dtype=np.uint8)},
                           check_overflow=True)
    try:
        checked.run(stream)
    except OverflowDetected:
        return  # wrap occurred; nothing to compare
    assert np.array_equal(base.regs.snapshot()["v"],
                          checked.regs.snapshot()["v"])


@st.composite
def random_programs(draw, depth=0):
    """Straight-line runs and (nested) loops with per-trip offsets."""
    program = []
    for _ in range(draw(st.integers(1, 3))):
        if depth < 2 and draw(st.booleans()):
            body = draw(random_programs(depth + 1))
            program.append(Loop(body, draw(st.integers(0, 12)),
                                {"A": 16 * draw(st.integers(0, 2))}))
        else:
            program.extend(draw(random_streams(max_len=12)))
    return tuple(program)


@given(random_programs())
@settings(max_examples=60, deadline=None)
def test_loop_fast_forward_matches_unrolled(program):
    """Fast-forwarding loop trips is exact for any loop nest."""
    model = PipelineModel(A53_COST_TABLE)
    assert model.schedule(program) == model.schedule(expand(program))


_SCHEMES = [("smlal", b) for b in (4, 5, 6, 7, 8)] + [
    ("mla", 2), ("mla", 3), ("ncnn", 8), ("sdot", 8), ("popcount", 2)]


@given(st.sampled_from(_SCHEMES), st.integers(1, 600), st.booleans())
@settings(max_examples=30, deadline=None)
def test_kernel_programs_schedule_like_their_streams(scheme, k, interleave):
    name, bits = scheme
    kern = _generate(name, bits, k, interleave, None)
    model = PipelineModel(A53_COST_TABLE)
    assert model.schedule(kern.program) == model.schedule(kern.stream)
