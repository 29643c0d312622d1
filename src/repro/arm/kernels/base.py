"""Common micro-kernel container and execution helpers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from ...errors import ShapeError
from ..isa import Instr, Program, expand, macs_in_stream, repeat, stream_summary
from ..pipeline import A53_COST_TABLE, CostTable, PipelineModel, PipelineResult
from ..simulator import ArmSimulator


def double_buffered(
    steps: int,
    load: Callable[[int, int], Sequence[Instr]],
    compute: Callable[[int, Sequence[Instr]], Sequence[Instr]],
    **stride: int,
) -> list:
    """Program for ``steps`` K steps software-pipelined over two register
    groups.

    ``load(i, g)`` loads step ``i``'s operands into group ``g``;
    ``compute(g, prefetch)`` consumes group ``g`` with the next step's
    ``prefetch`` loads woven in (none for the last step).  Step ``s``
    computes group ``s % 2`` while prefetching step ``s + 1`` into the
    other group; two steps restore the groups, so pairs of steps form the
    loop.  ``stride`` is the per-buffer byte offset of one pair.
    """
    out = list(load(0, 0))
    pairs = (steps - 1) // 2
    if pairs:
        out.extend(repeat([*compute(0, load(1, 1)), *compute(1, load(2, 0))],
                          pairs, **stride))
    s = 2 * pairs
    if s + 1 < steps:
        out.extend(compute(0, load(s + 1, 1)))
        s += 1
    out.extend(compute(s % 2, ()))
    return out


@dataclass(frozen=True)
class MicroKernel:
    """A generated register-tile kernel.

    Attributes
    ----------
    name:
        Scheme identifier (``"smlal4"``, ``"mla2"``, ``"ncnn8"``, ...).
    program:
        The kernel for one C tile as a loop-structured program
        (:class:`~repro.arm.isa.Loop` blocks between straight-line code);
        :attr:`stream` is its unrolled form.
    m_r, n_r:
        Register-tile size: the stream computes an ``m_r x n_r`` int32 tile.
    k:
        Reduction length the stream was generated for.
    bits:
        Operand bit width the overflow analysis assumed.
    a_bytes, b_bytes:
        Sizes the bound panels must have (incl. any slack the loads need).
    c_bytes:
        Output buffer size; C is stored column-major
        (``slot = col * m_r + row``, 4 bytes per slot).
    """

    name: str
    program: Program
    m_r: int
    n_r: int
    k: int
    bits: int
    a_bytes: int
    b_bytes: int
    c_bytes: int

    @cached_property
    def stream(self) -> tuple[Instr, ...]:
        """The full, unrolled instruction stream (expanded on first use:
        only execution, listings and the assembler need it)."""
        return expand(self.program)

    def summary(self) -> dict[str, int]:
        return stream_summary(self.program)

    @property
    def mac_lanes(self) -> int:
        return macs_in_stream(self.program)

    def cycles(self, table: CostTable = A53_COST_TABLE) -> PipelineResult:
        """Statically schedule the program on the pipeline model."""
        return PipelineModel(table).schedule(self.program)

    def execute(
        self,
        a_panel: np.ndarray,
        b_panel: np.ndarray,
        *,
        check_overflow: bool = False,
        extra_buffers: Mapping[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Run the stream functionally; returns the ``(m_r, n_r)`` int32 tile.

        ``a_panel`` / ``b_panel`` are the packed byte panels (int8 viewed as
        bytes); they must be at least ``a_bytes`` / ``b_bytes`` long.
        """
        a_panel = np.ascontiguousarray(a_panel).view(np.uint8).ravel()
        b_panel = np.ascontiguousarray(b_panel).view(np.uint8).ravel()
        if a_panel.size < self.a_bytes:
            raise ShapeError(
                f"{self.name}: A panel {a_panel.size}B < required {self.a_bytes}B"
            )
        if b_panel.size < self.b_bytes:
            raise ShapeError(
                f"{self.name}: B panel {b_panel.size}B < required {self.b_bytes}B"
            )
        c = np.zeros(self.c_bytes, dtype=np.uint8)
        buffers = {"A": a_panel, "B": b_panel, "C": c}
        if extra_buffers:
            buffers.update({k: np.asarray(v).view(np.uint8).ravel()
                            for k, v in extra_buffers.items()})
        sim = ArmSimulator(buffers, check_overflow=check_overflow)
        sim.run(self.stream)
        tile = c.view(np.int32)[: self.m_r * self.n_r]
        # column-major C: slot = col * m_r + row
        return tile.reshape(self.n_r, self.m_r).T.copy()
