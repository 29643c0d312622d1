"""Instruction definitions for the simulated NEON subset.

Only the instructions the paper's kernels actually use are modeled; each is
implemented twice — functionally (:mod:`repro.arm.simulator`) and in the
cost table (:mod:`repro.arm.pipeline`).  An :class:`Instr` is a plain
record.  Kernel generators emit *programs*: tuples of :class:`Instr` and
counted :class:`Loop` blocks.  :func:`expand` unrolls a program into the
flat instruction *stream* the simulator executes; a flat stream is itself
a valid program.

Opcode summary (arrangement suffixes follow A64 assembly):

========================  ====================================================
``LD1_16B / LD1_8B``      load 16 / 8 bytes into a vector register
``LD4R_B``                load 4 bytes, byte *i* replicated across all 16
                          lanes of the *i*-th destination register (the
                          load-replicate of Fig. 1b / Alg. 1)
``LD1R_B``                load 1 byte replicated across 16 lanes
``ST1_16B``               store 16 bytes
``SMLAL_8H/SMLAL2_8H``    signed 8-bit multiply, accumulate into int16 lanes
``SMLAL_4S/SMLAL2_4S``    signed 16-bit multiply, accumulate into int32 lanes
``SMLAL_4S_LANE`` (+2)    by-element form (ncnn's scheme)
``MLA_16B``               8-bit multiply-accumulate into int8 lanes
``SADDW_8H/SADDW2_8H``    widen-add int8 lanes into int16 lanes
``SADDW_4S/SADDW2_4S``    widen-add int16 lanes into int32 lanes
``SSHLL_8H/SSHLL2_8H``    sign-extend int8 lanes to int16 (shift 0)
``SDOT_4S(_LANE)``        ARMv8.2 4-way int8 dot product into int32 lanes
                          (the instruction whose *absence* on ARMv8.1
                          motivates the paper's schemes, Sec. 2.3)
``AND_16B/CNT_16B``       bitwise and / per-byte popcount (bit-serial path)
``UADALP_8H``             unsigned pairwise add-accumulate bytes -> int16
``UADALP_4S``             unsigned pairwise add-accumulate int16 -> int32
``ADD_4S``                int32 lane add
``MOVI_ZERO``             zero a vector register
``MOV_V_TO_X``            move 64-bit half of a vector register to an x reg
``MOV_X_TO_V``            move an x reg into a 64-bit half of a vector reg
``MOV_X_IMM``             load immediate into an x reg
``LDR_X / STR_X``         64-bit scalar load / store
``SUBS / B_NE / ADD_X``   scalar loop bookkeeping
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Tuple, Union

from ..errors import SimulationError

#: architectural register names
VREG = tuple(f"v{i}" for i in range(32))
XREG = tuple(f"x{i}" for i in range(31))

_VALID_REGS = frozenset(VREG) | frozenset(XREG)

#: opcodes grouped by implementation class (used by simulator + cost table)
LOAD_OPS = frozenset({"LD1_16B", "LD1_8B", "LD4R_B", "LD1R_B", "LDR_X"})
STORE_OPS = frozenset({"ST1_16B", "STR_X"})
MAC_OPS = frozenset(
    {
        "SMLAL_8H",
        "SMLAL2_8H",
        "SMLAL_4S",
        "SMLAL2_4S",
        "SMLAL_4S_LANE",
        "SMLAL2_4S_LANE",
        "MLA_16B",
        "SDOT_4S",
        "SDOT_4S_LANE",
    }
)
ACCUM_OPS = MAC_OPS | {"SADDW_8H", "SADDW2_8H", "SADDW_4S", "SADDW2_4S", "UADALP_8H", "UADALP_4S"}
VECTOR_OPS = ACCUM_OPS | frozenset(
    {"SSHLL_8H", "SSHLL2_8H", "AND_16B", "CNT_16B", "ADD_4S", "MOVI_ZERO"}
)
SCALAR_OPS = frozenset({"SUBS", "B_NE", "ADD_X", "MOV_X_IMM"})
MOVE_OPS = frozenset({"MOV_V_TO_X", "MOV_X_TO_V"})

ALL_OPS = LOAD_OPS | STORE_OPS | VECTOR_OPS | SCALAR_OPS | MOVE_OPS


@dataclass(frozen=True)
class MemRef:
    """Byte address: a named buffer plus a byte offset.

    The simulator resolves buffer names at execution time, so one generated
    stream can be re-bound to different panels / tiles.
    """

    buffer: str
    offset: int

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise SimulationError(f"negative memory offset {self.offset}")


@dataclass(frozen=True)
class Instr:
    """One machine instruction of the modeled subset."""

    op: str
    dst: Tuple[str, ...] = ()
    src: Tuple[str, ...] = ()
    mem: MemRef | None = None
    lane: int | None = None
    imm: int | None = None

    def __post_init__(self) -> None:
        if self.op not in ALL_OPS:
            raise SimulationError(f"unknown opcode {self.op!r}")
        for r in self.dst + self.src:
            if r not in _VALID_REGS:
                raise SimulationError(f"unknown register {r!r} in {self.op}")
        if self.op in (LOAD_OPS | STORE_OPS) and self.mem is None:
            raise SimulationError(f"{self.op} requires a memory operand")

    @property
    def reads(self) -> Tuple[str, ...]:
        """Registers whose values this instruction consumes.

        Accumulating ops read their destination too — that read is what the
        pipeline model treats with accumulator forwarding.
        """
        if self.op in ACCUM_OPS:
            return self.src + self.dst
        return self.src

    @property
    def writes(self) -> Tuple[str, ...]:
        return self.dst

    def render(self) -> str:
        """Assembly-ish text (for debugging and kernel listings)."""
        parts = [self.op]
        if self.dst:
            parts.append("{" + ", ".join(self.dst) + "}")
        if self.src:
            parts.append("{" + ", ".join(self.src) + "}")
        if self.lane is not None:
            parts.append(f"[{self.lane}]")
        if self.mem is not None:
            parts.append(f"[{self.mem.buffer}+{self.mem.offset}]")
        if self.imm is not None:
            parts.append(f"#{self.imm}")
        return " ".join(parts)


@dataclass(frozen=True, init=False)
class Loop:
    """A counted loop in a kernel program.

    ``body`` (instructions and nested loops) runs ``trips`` times; trip
    ``t`` addresses buffer ``b`` at ``t * stride[b]`` bytes past the
    offsets written in the body (buffers without a stride stay put).
    Every trip issues the same opcodes on the same registers, which is
    what lets :class:`~repro.arm.pipeline.PipelineModel` schedule a loop
    without unrolling it.
    """

    body: Tuple[Union[Instr, "Loop"], ...]
    trips: int
    stride: Tuple[Tuple[str, int], ...]

    def __init__(
        self,
        body: Iterable[Union[Instr, "Loop"]],
        trips: int,
        stride: Mapping[str, int] | None = None,
    ) -> None:
        body = tuple(body)
        if trips < 0:
            raise SimulationError(f"loop trip count must be >= 0, got {trips}")
        for item in body:
            if not isinstance(item, (Instr, Loop)):
                raise SimulationError(f"loop body holds {type(item).__name__}")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "trips", trips)
        object.__setattr__(
            self, "stride", tuple(sorted((stride or {}).items())))


#: a kernel program: instructions and loops, in program order
Program = Tuple[Union[Instr, Loop], ...]


def repeat(body: Iterable[Union[Instr, Loop]], trips: int,
           **stride: int) -> Program:
    """``body`` run ``trips`` times, as a program fragment: nothing for no
    trips, the body itself for one, a :class:`Loop` otherwise."""
    body = tuple(body)
    if trips == 0:
        return ()
    if trips == 1:
        return body
    return (Loop(body, trips, stride),)


def expand(program: Iterable[Union[Instr, Loop]]) -> Tuple[Instr, ...]:
    """Unroll a program into its flat instruction stream."""
    out: list[Instr] = []
    _expand_into(out, program, {})
    return tuple(out)


def _expand_into(out: list[Instr], program: Iterable[Union[Instr, Loop]],
                 shift: dict[str, int]) -> None:
    for item in program:
        if isinstance(item, Loop):
            for t in range(item.trips):
                inner = dict(shift)
                for buf, step in item.stride:
                    inner[buf] = inner.get(buf, 0) + t * step
                _expand_into(out, item.body, inner)
        elif item.mem is not None and shift.get(item.mem.buffer):
            mem = MemRef(item.mem.buffer, item.mem.offset + shift[item.mem.buffer])
            out.append(Instr(item.op, item.dst, item.src, mem, item.lane, item.imm))
        else:
            out.append(item)


def _weighted(program: Iterable[Union[Instr, Loop]],
             weight: int = 1) -> Iterator[tuple[Instr, int]]:
    """``(instruction, times it runs)`` in program order, loops included."""
    for item in program:
        if isinstance(item, Loop):
            yield from _weighted(item.body, weight * item.trips)
        elif weight:
            yield item, weight


def stream_summary(program: Iterable[Union[Instr, Loop]]) -> dict[str, int]:
    """Histogram of opcodes a program issues (used by tests and reports)."""
    out: dict[str, int] = {}
    for ins, w in _weighted(program):
        out[ins.op] = out.get(ins.op, 0) + w
    return out


#: multiply-accumulate lanes per instruction
_MAC_LANES = {
    "SDOT_4S": 16,
    "SDOT_4S_LANE": 16,
    "SMLAL_8H": 8,
    "SMLAL2_8H": 8,
    "SMLAL_4S": 4,
    "SMLAL2_4S": 4,
    "SMLAL_4S_LANE": 4,
    "SMLAL2_4S_LANE": 4,
    "MLA_16B": 16,
}


def macs_in_stream(program: Iterable[Union[Instr, Loop]]) -> int:
    """Multiply-accumulate *lane* count of a program.

    SMLAL_8H does 8 MACs, MLA_16B 16, the 4S forms 4.  Bit-serial CNT-based
    reduction is not counted here (its MACs are architectural, not lanes).
    """
    return sum(_MAC_LANES.get(ins.op, 0) * w for ins, w in _weighted(program))

