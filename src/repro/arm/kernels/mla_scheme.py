"""The 2~3-bit GEMM micro-kernel: MLA + two-level SADDW.

Register allocation (Sec. 3.3, "simpler register allocation mechanism"):

* ``v0~v3``   — Matrix A (64 rows of one K column: 4 x 16 int8 lanes),
* ``v4~v7``   — Matrix B (one replicated value per step, 4-deep rotation),
* ``v8~v11``  — int8 partial accumulators (64 lanes),
* ``v12~v19`` — int16 accumulators (64 lanes),
* ``v20~v31`` — 48 of the 64 int32 accumulators,
* ``x0~x7``   — the remaining 16 int32 accumulators (rows 48~63), shuttled
  through ``v0~v3`` during the second-level drain.

The tile is 64x1.  Every K step costs 4 ``LD1`` (64 A bytes), one ``LD1R``
(1 replicated B byte) and 4 ``MLA`` (64 MACs in int8 lanes — twice the MAC
throughput of the SMLAL scheme, Sec. 3.3/3.4).  Every
``mla_chain_length(bits)`` steps (31 for 2-bit, 7 for 3-bit) the int8 lanes
drain into int16; every ``saddw_second_level_interval(bits)`` first-level
drains the int16 lanes drain into int32.

The B register rotation (step ``s`` uses ``v4 + s % 4``) repeats every 4
steps, so the generated program loops inside each drain block in 4-step
trips, and over drain blocks in groups that start on the same rotation
slot.
"""

from __future__ import annotations

from math import gcd

from ...errors import ChainOverflowError, ShapeError, UnsupportedBitsError
from ...util import ceil_div
from ..isa import Instr, MemRef, repeat
from ..ratios import (
    MLA_SCHEME_BITS,
    mla_chain_length,
    saddw_second_level_interval,
)
from .base import MicroKernel

M_R = 64
N_R = 1

_A_REGS = ("v0", "v1", "v2", "v3")
_B_REGS = ("v4", "v5", "v6", "v7")
_ACC8 = ("v8", "v9", "v10", "v11")
_ACC16 = tuple(f"v{12 + i}" for i in range(8))


def _first_level_drain() -> list[Instr]:
    """int8 lanes -> int16 lanes, then clear the int8 accumulators."""
    out: list[Instr] = []
    for i, a8 in enumerate(_ACC8):  # a8 holds rows 16i .. 16i+15
        out.append(Instr("SADDW_8H", dst=(_ACC16[2 * i],), src=(_ACC16[2 * i], a8)))
        out.append(
            Instr("SADDW2_8H", dst=(_ACC16[2 * i + 1],), src=(_ACC16[2 * i + 1], a8))
        )
    for a8 in _ACC8:
        out.append(Instr("MOVI_ZERO", dst=(a8,)))
    return out


def _second_level_drain() -> list[Instr]:
    """int16 lanes -> int32 accumulators (v20~v31 + x0~x7 via v0~v3)."""
    out: list[Instr] = []
    # restore the x-spilled rows 48..63 into the scratch A registers
    for t in range(4):  # scratch v0..v3 each hold 4 int32 (one slot group)
        out.append(
            Instr("MOV_X_TO_V", dst=(_A_REGS[t],), src=(f"x{2 * t}",), lane=0)
        )
        out.append(
            Instr("MOV_X_TO_V", dst=(_A_REGS[t],), src=(f"x{2 * t + 1}",), lane=1)
        )
    for s, a16 in enumerate(_ACC16):  # a16 holds rows 8s .. 8s+7
        g0, g1 = 2 * s, 2 * s + 1  # int32 slot groups (4 rows each)
        d0 = f"v{20 + g0}" if g0 < 12 else _A_REGS[g0 - 12]
        d1 = f"v{20 + g1}" if g1 < 12 else _A_REGS[g1 - 12]
        out.append(Instr("SADDW_4S", dst=(d0,), src=(d0, a16)))
        out.append(Instr("SADDW2_4S", dst=(d1,), src=(d1, a16)))
    for t in range(4):
        out.append(
            Instr("MOV_V_TO_X", dst=(f"x{2 * t}",), src=(_A_REGS[t],), lane=0)
        )
        out.append(
            Instr("MOV_V_TO_X", dst=(f"x{2 * t + 1}",), src=(_A_REGS[t],), lane=1)
        )
    for a16 in _ACC16:
        out.append(Instr("MOVI_ZERO", dst=(a16,)))
    return out


_FIRST_LEVEL_DRAIN = _first_level_drain()
_SECOND_LEVEL_DRAIN = _second_level_drain()


def _a_load(step: int, q: int) -> Instr:
    """A quarter ``q`` (rows 16q .. 16q+15) of K step ``step``."""
    return Instr("LD1_16B", dst=(_A_REGS[q],), mem=MemRef("A", step * M_R + q * 16))


def _b_load(step: int) -> Instr:
    """The replicated B byte of K step ``step``, into its rotation slot."""
    return Instr("LD1R_B", dst=(_B_REGS[step % 4],), mem=MemRef("B", step * N_R))


#: the MLAs of a K step, by B rotation slot then A quarter
_MLAS = tuple(
    tuple(Instr("MLA_16B", dst=(_ACC8[q],), src=(_A_REGS[q], b)) for q in range(4))
    for b in _B_REGS
)


def _block(step: int, block: int, interleave: bool) -> list:
    """Program for the ``block`` K steps from ``step`` (no drain)."""
    out: list = []
    if interleave:
        # fill the 4-deep B rotation, then keep it 4 steps ahead: the
        # replicated byte for step s+4 loads while step s computes;
        # each A quarter for step s+1 loads right after the MLA that
        # frees its register (software pipelining without extra regs)
        out.extend(_b_load(step + t) for t in range(min(4, block)))
        out.extend(_a_load(step, q) for q in range(4))

        def pipelined(s: int) -> list[Instr]:
            cur = step + s
            body: list[Instr] = []
            for q in range(4):
                body.append(_MLAS[cur % 4][q])
                if s + 1 < block:
                    body.append(_a_load(cur + 1, q))
            if s + 4 < block:
                body.append(_b_load(cur + 4))
            return body

        # steps s + 4 < block do the same work; 4 of them close the rotation
        quads = max(0, block - 4) // 4
        if quads:
            out.extend(repeat([ins for s in range(4) for ins in pipelined(s)],
                              quads, A=4 * M_R, B=4 * N_R))
        for s in range(4 * quads, block):
            out.extend(pipelined(s))
    else:
        def serial(s: int) -> list[Instr]:
            cur = step + s
            return [*(_a_load(cur, q) for q in range(4)), _b_load(cur),
                    *_MLAS[cur % 4]]

        quads = block // 4
        if quads:
            out.extend(repeat([ins for s in range(4) for ins in serial(s)],
                              quads, A=4 * M_R, B=4 * N_R))
        for s in range(4 * quads, block):
            out.extend(serial(s))
    return out


def generate_mla_kernel(
    bits: int,
    k: int,
    *,
    interleave: bool = True,
    chain_steps: int | None = None,
    allow_unsafe: bool = False,
) -> MicroKernel:
    """Generate the MLA-scheme stream for a 64x1 tile over reduction ``k``.

    ``chain_steps`` overrides the first-level drain interval; an interval
    past the overflow-safe :func:`~repro.arm.ratios.mla_chain_length`
    raises :class:`~repro.errors.ChainOverflowError` at construction time
    unless ``allow_unsafe=True`` (tests use it to demonstrate overflow
    past the published chain lengths).
    """
    if bits not in MLA_SCHEME_BITS:
        raise UnsupportedBitsError(bits, "MLA scheme covers 2~3-bit")
    if k <= 0:
        raise ShapeError(f"k must be positive, got {k}")
    chain = chain_steps if chain_steps is not None else mla_chain_length(bits)
    if chain < 1:
        raise ShapeError(f"chain interval must be >= 1, got {chain}")
    safe = mla_chain_length(bits)
    if not allow_unsafe and min(chain, k) > safe:
        raise ChainOverflowError(bits, min(chain, k), safe, "MLA")
    l2_interval = saddw_second_level_interval(bits)

    out: list = []
    for r in (*_ACC8, *_ACC16, *(f"v{20 + g}" for g in range(12))):
        out.append(Instr("MOVI_ZERO", dst=(r,)))
    for i in range(8):
        out.append(Instr("MOV_X_IMM", dst=(f"x{i}",), imm=0))
    out.append(Instr("MOV_X_IMM", dst=("x9",), imm=k))

    def drain_block(b: int) -> list:
        """Drain block ``b``: its K steps, the first-level drain, and the
        second-level drain after every ``l2_interval``-th block."""
        block = min(chain, k - b * chain)
        body = _block(b * chain, block, interleave)
        body.extend(_FIRST_LEVEL_DRAIN)
        if (b + 1) % l2_interval == 0:
            body.extend(_SECOND_LEVEL_DRAIN)
        body.append(Instr("SUBS", dst=("x9",), src=("x9",), imm=block))
        body.append(Instr("B_NE"))
        return body

    # block b starts on B rotation slot (b * chain) % 4, so the blocks
    # repeat with a period of `group` blocks; full blocks between two
    # second-level drains loop in whole groups
    full, blocks = k // chain, ceil_div(k, chain)
    group = 4 // gcd(chain, 4)
    b = 0
    while b < blocks:
        run_end = min(full, (b // l2_interval + 1) * l2_interval - 1)
        trips = max(0, run_end - b) // group
        if trips:
            out.extend(repeat(
                [ins for i in range(group) for ins in drain_block(b + i)],
                trips, A=group * chain * M_R, B=group * chain * N_R))
            b += trips * group
        if b < blocks:
            out.extend(drain_block(b))
            b += 1

    if blocks % l2_interval:
        out.extend(_SECOND_LEVEL_DRAIN)

    # epilogue: store 64 int32 results (column-major, single column)
    for g in range(12):
        out.append(Instr("ST1_16B", src=(f"v{20 + g}",), mem=MemRef("C", g * 16)))
    for t in range(4):
        out.append(Instr("MOV_X_TO_V", dst=(_A_REGS[t],), src=(f"x{2 * t}",), lane=0))
        out.append(
            Instr("MOV_X_TO_V", dst=(_A_REGS[t],), src=(f"x{2 * t + 1}",), lane=1)
        )
        out.append(
            Instr("ST1_16B", src=(_A_REGS[t],), mem=MemRef("C", (12 + t) * 16))
        )

    return MicroKernel(
        name=f"mla{bits}",
        program=tuple(out),
        m_r=M_R,
        n_r=N_R,
        k=k,
        bits=bits,
        a_bytes=k * M_R,
        b_bytes=k * N_R,
        c_bytes=M_R * N_R * 4,
    )
