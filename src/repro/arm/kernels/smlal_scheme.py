"""The 4~8-bit GEMM micro-kernel (Alg. 1): SMLAL + SADDW with register
allocation tailored to the scheme.

Register allocation (Sec. 3.3):

* ``v0``/``v1``        — Matrix A column buffers (software-pipelined pair),
* ``v2~v5``/``v6~v9``  — Matrix B replicated-row buffers (two groups),
* ``v10~v17``          — int16 partial accumulators (col j in v10+2j/v11+2j),
* ``v18~v31``          — 56 of the 64 int32 accumulators,
* ``x0~x3``            — the remaining 8 int32 accumulators (col 3, rows
  8~15), shuttled through ``v0``/``v1`` by the MOV dance of Alg. 1
  lines 10-13.

The tile is 16x4 (``n_a = 16`` rows from a packed A panel, ``n_b = 4``
columns from a packed B panel).  Every K step costs one ``LD1`` (16 A
bytes), one ``LD4R`` (4 B bytes replicated) and 8 ``SMLAL``/``SMLAL2``
(64 MACs).  After ``round_interval(bits)`` steps — the paper's unroll
factor, always <= the safe chain length — the int16 lanes are drained into
the int32 accumulators with 16 ``SADDW``/``SADDW2``.

The generated program is Alg. 1's loop nest: one drain block (itself a
2-step loop, the load pipeline alternating register groups) repeated
``k // interval`` times, then the shorter remainder block.

Deviation noted in DESIGN.md: Alg. 1's listing clobbers the prefetched
``v0``/``v1`` in its drain, which cannot be literally correct; we restart
the load pipeline at each drained block boundary instead.
"""

from __future__ import annotations

from ...errors import ChainOverflowError, ShapeError, UnsupportedBitsError
from ..isa import Instr, MemRef, repeat
from ..ratios import SMLAL_SCHEME_BITS, round_interval, smlal_chain_length
from .base import MicroKernel, double_buffered

M_R = 16
N_R = 4

#: int16 accumulator register for (column j, row half h): v10+2j+h
_ACC16 = {(j, h): f"v{10 + 2 * j + h}" for j in range(N_R) for h in range(2)}


def _acc32_reg(slot_group: int) -> str | None:
    """int32 accumulator v-register covering slots 4g..4g+3, or None for
    the x-register spill region (slot groups 14, 15 = col 3 rows 8..15)."""
    if slot_group < 14:
        return f"v{18 + slot_group}"
    return None


def _macs(a_reg: str, b_regs: list[str]) -> list[Instr]:
    """8 MACs instructions: SMLAL/SMLAL2 of one A column against 4 B values."""
    out: list[Instr] = []
    for j in range(N_R):
        out.append(Instr("SMLAL_8H", dst=(_ACC16[(j, 0)],), src=(a_reg, b_regs[j])))
        out.append(Instr("SMLAL2_8H", dst=(_ACC16[(j, 1)],), src=(a_reg, b_regs[j])))
    return out


def _drain() -> list[Instr]:
    """Drain all int16 accumulators into the int32 accumulators (Alg. 1
    lines 9-13), then clear the int16 lanes."""
    out: list[Instr] = []
    # restore the spilled col-3/rows-8..15 accumulators into v0, v1
    out.append(Instr("MOV_X_TO_V", dst=("v0",), src=("x0",), lane=0))
    out.append(Instr("MOV_X_TO_V", dst=("v0",), src=("x1",), lane=1))
    out.append(Instr("MOV_X_TO_V", dst=("v1",), src=("x2",), lane=0))
    out.append(Instr("MOV_X_TO_V", dst=("v1",), src=("x3",), lane=1))
    for j in range(N_R):
        for h in range(2):  # h=0: rows 0-7, h=1: rows 8-15
            src16 = _ACC16[(j, h)]
            base_slot = j * M_R + h * 8  # first of 8 int32 slots
            g0, g1 = base_slot // 4, base_slot // 4 + 1
            d0 = _acc32_reg(g0) or ("v0" if g0 == 14 else "v1")
            d1 = _acc32_reg(g1) or ("v0" if g1 == 14 else "v1")
            out.append(Instr("SADDW_4S", dst=(d0,), src=(d0, src16)))
            out.append(Instr("SADDW2_4S", dst=(d1,), src=(d1, src16)))
    out.append(Instr("MOV_V_TO_X", dst=("x0",), src=("v0",), lane=0))
    out.append(Instr("MOV_V_TO_X", dst=("x1",), src=("v0",), lane=1))
    out.append(Instr("MOV_V_TO_X", dst=("x2",), src=("v1",), lane=0))
    out.append(Instr("MOV_V_TO_X", dst=("x3",), src=("v1",), lane=1))
    for j in range(N_R):
        for h in range(2):
            out.append(Instr("MOVI_ZERO", dst=(_ACC16[(j, h)],)))
    return out


#: software-pipelined register groups: A column and replicated B row
_A_REGS = ("v0", "v1")
_B_GROUPS = (["v2", "v3", "v4", "v5"], ["v6", "v7", "v8", "v9"])
#: the instructions that repeat verbatim: MACs per group, and the drain
_MACS = tuple(_macs(_A_REGS[g], _B_GROUPS[g]) for g in range(2))
_DRAIN = _drain()


def _loads(step: int, group: int) -> list[Instr]:
    """``{LD1, LD4R}`` of K step ``step`` into register group ``group``."""
    return [
        Instr("LD1_16B", dst=(_A_REGS[group],), mem=MemRef("A", step * M_R)),
        Instr("LD4R_B", dst=tuple(_B_GROUPS[group]), mem=MemRef("B", step * N_R)),
    ]


def _drain_block(step: int, block: int, interleave: bool) -> list:
    """Program for ``block`` K steps from ``step``, then the drain."""
    out: list = []
    if interleave:
        # prefetch step s+1 into the other register group during step s
        out.extend(double_buffered(
            block, lambda i, g: _loads(step + i, g),
            lambda g, prefetch: [*prefetch, *_MACS[g]],
            A=2 * M_R, B=2 * N_R))
    else:
        out.extend(repeat([*_loads(step, 0), *_MACS[0]], block,
                          A=M_R, B=N_R))
    out.extend(_DRAIN)
    out.append(Instr("SUBS", dst=("x9",), src=("x9",), imm=block))
    out.append(Instr("B_NE"))
    return out


def generate_smlal_kernel(
    bits: int,
    k: int,
    *,
    interleave: bool = True,
    round_steps: int | None = None,
    allow_unsafe: bool = False,
) -> MicroKernel:
    """Generate the Alg. 1 stream for a 16x4 tile over reduction length ``k``.

    Parameters
    ----------
    bits:
        Operand width, 4..8.  Sets the drain interval (= unroll factor).
    k:
        Reduction length (the packed panels hold ``k`` steps).
    interleave:
        Software-pipeline the ``{LD1, LD4R}`` pair of step *s+1* ahead of
        the MACs of step *s* (the paper's prefetch interleaving).  Turning
        this off is the ablation knob for Fig. 7's analysis.
    round_steps:
        Override the drain interval.  Must be >= 1; an interval past the
        overflow-safe :func:`~repro.arm.ratios.smlal_chain_length` raises
        :class:`~repro.errors.ChainOverflowError` at construction time.
    allow_unsafe:
        Skip the chain-length validation (tests use this to build
        deliberately overflowing kernels for the overflow certification).
    """
    if bits not in SMLAL_SCHEME_BITS:
        raise UnsupportedBitsError(bits, "SMLAL scheme covers 4~8-bit")
    if k <= 0:
        raise ShapeError(f"k must be positive, got {k}")
    interval = round_steps if round_steps is not None else round_interval(bits)
    if interval < 1:
        raise ShapeError(f"round interval must be >= 1, got {interval}")
    safe = smlal_chain_length(bits)
    # the effective chain never exceeds k (the final block is shorter)
    if not allow_unsafe and min(interval, k) > safe:
        raise ChainOverflowError(bits, min(interval, k), safe, "SMLAL")

    out: list = []
    # prologue: clear every accumulator
    for j in range(N_R):
        for h in range(2):
            out.append(Instr("MOVI_ZERO", dst=(_ACC16[(j, h)],)))
    for g in range(14):
        out.append(Instr("MOVI_ZERO", dst=(f"v{18 + g}",)))
    for i in range(4):
        out.append(Instr("MOV_X_IMM", dst=(f"x{i}",), imm=0))
    out.append(Instr("MOV_X_IMM", dst=("x9",), imm=k))  # loop counter

    full, rest = divmod(k, interval)
    out.extend(repeat(_drain_block(0, interval, interleave), full,
                      A=interval * M_R, B=interval * N_R))
    if rest:
        out.extend(_drain_block(full * interval, rest, interleave))

    # epilogue: merge the x-spilled accumulators and store C column-major
    for g in range(14):
        out.append(
            Instr("ST1_16B", src=(f"v{18 + g}",), mem=MemRef("C", g * 16))
        )
    out.append(Instr("MOV_X_TO_V", dst=("v0",), src=("x0",), lane=0))
    out.append(Instr("MOV_X_TO_V", dst=("v0",), src=("x1",), lane=1))
    out.append(Instr("MOV_X_TO_V", dst=("v1",), src=("x2",), lane=0))
    out.append(Instr("MOV_X_TO_V", dst=("v1",), src=("x3",), lane=1))
    out.append(Instr("ST1_16B", src=("v0",), mem=MemRef("C", 14 * 16)))
    out.append(Instr("ST1_16B", src=("v1",), mem=MemRef("C", 15 * 16)))

    return MicroKernel(
        name=f"smlal{bits}",
        program=tuple(out),
        m_r=M_R,
        n_r=N_R,
        k=k,
        bits=bits,
        a_bytes=k * M_R,
        b_bytes=k * N_R,
        c_bytes=M_R * N_R * 4,
    )
