"""Loop-structured kernel programs against their unrolled streams.

Every generator emits a program of instructions and :class:`Loop` blocks.
The pipeline model fast-forwards repeated loop trips; these tests pin that
shortcut to the oracle — scheduling the fully unrolled stream — on every
scheme, bit width and pipelining mode, at the reduction lengths around
each loop boundary and at every length the figures schedule.
"""

import pytest

from repro.arm.assembler import assemble, disassemble
from repro.arm.cost_model import _generate
from repro.arm.isa import Instr, Loop, MemRef, expand, stream_summary
from repro.arm.pipeline import PipelineModel
from repro.arm.ratios import mla_chain_length, round_interval

#: reduction lengths the figure pass schedules exactly (its layers' K up
#: to the exact-schedule limit, and the linear-fit anchors 256 and 512)
FIGURE_KS = (48, 64, 112, 128, 192, 256, 288, 384, 432, 448, 480, 512)

#: (scheme, bits, round_steps, K steps per loop trip); round_steps 32/14/3
#: are the shortened drain intervals of the winograd path (Sec. 3.4)
CONFIGS = [
    *[("smlal", b, None, round_interval(b)) for b in (4, 5, 6, 7, 8)],
    ("smlal", 4, 32, 32),
    ("smlal", 5, 14, 14),
    ("smlal", 6, 3, 3),
    *[("mla", b, None, mla_chain_length(b)) for b in (2, 3)],
    ("ncnn", 8, None, 2),
    ("sdot", 8, None, 8),
    ("popcount", 2, None, 128),
]


def _ks(interval: int) -> list[int]:
    edges = {1, interval - 1, interval, interval + 1, 2 * interval + 1,
             511, 512, *FIGURE_KS}
    return sorted(k for k in edges if k >= 1)


def _fields(result):
    return (result.cycles, result.instructions, result.mem_busy,
            result.neon_busy, result.stall_cycles)


def _cases():
    for scheme, bits, steps, interval in CONFIGS:
        for interleave in ((True,) if scheme == "popcount" else (True, False)):
            yield pytest.param(
                scheme, bits, steps, interleave, interval,
                id=f"{scheme}{bits}-rs{steps}-{'il' if interleave else 'serial'}")


@pytest.mark.parametrize("scheme,bits,steps,interleave,interval", _cases())
def test_program_schedules_like_its_stream(scheme, bits, steps, interleave,
                                           interval):
    model = PipelineModel()
    for k in _ks(interval):
        kern = _generate(scheme, bits, k, interleave, steps)
        stream = kern.stream
        assert _fields(model.schedule(kern.program)) == \
            _fields(model.schedule(stream)), k
        assert len(stream) == sum(stream_summary(kern.program).values()), k
        assert tuple(assemble(disassemble(stream))) == stream, k


def test_long_kernels_are_loops():
    """The repeated block is emitted once, not unrolled K times."""
    for scheme, bits in (("smlal", 8), ("smlal", 4), ("mla", 2), ("mla", 3),
                         ("ncnn", 8), ("sdot", 8), ("popcount", 2)):
        kern = _generate(scheme, bits, 512, True, None)
        assert any(isinstance(item, Loop) for item in kern.program), scheme
        assert len(kern.program) < len(kern.stream) // 4, scheme


def test_expand_shifts_offsets_per_trip_and_nests():
    load = Instr("LD1_16B", dst=("v0",), mem=MemRef("A", 4))
    store = Instr("ST1_16B", src=("v0",), mem=MemRef("C", 0))
    inner = Loop((load,), 2, {"A": 16})
    program = (Loop((inner, store), 3, {"A": 100}),)
    offsets = [(ins.mem.buffer, ins.mem.offset) for ins in expand(program)]
    assert offsets == [
        ("A", 4), ("A", 20), ("C", 0),
        ("A", 104), ("A", 120), ("C", 0),
        ("A", 204), ("A", 220), ("C", 0),
    ]
    assert sum(stream_summary(program).values()) == 9


@pytest.mark.parametrize("body,tail", [
    # two ops a cycle: a trip can start with an issue slot already taken
    ((Instr("B_NE"), Instr("B_NE")), ()),
    # the load/store pipe is still busy when a trip ends
    ((Instr("ADD_4S", dst=("v0",), src=("v0", "v5")),
      Instr("LD1_16B", dst=("v0",), mem=MemRef("A", 0))),
     (Instr("LD1_8B", dst=("v3",), mem=MemRef("A", 0)),)),
    # the NEON pipe is still busy when a trip ends
    ((Instr("LD1_8B", dst=("v2",), mem=MemRef("A", 0)),
      Instr("ADD_4S", dst=("v9",), src=("v2", "v5")), Instr("B_NE")), ()),
], ids=["issue-slots", "ls-pipe", "neon-pipe"])
def test_fast_forward_carries_state_across_trips(body, tail):
    model = PipelineModel()
    for trips in range(1, 16):
        program = (Loop(body, trips, {"A": 16}), *tail)
        assert _fields(model.schedule(program)) == \
            _fields(model.schedule(expand(program))), trips


def test_zero_trip_loop_issues_nothing():
    nop = Instr("SUBS", dst=("x9",), src=("x9",), imm=1)
    program = (nop, Loop((nop, nop), 0), nop)
    assert expand(program) == (nop, nop)
    model = PipelineModel()
    assert _fields(model.schedule(program)) == _fields(model.schedule([nop, nop]))
