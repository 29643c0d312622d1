"""In-order dual-issue pipeline cost model (Cortex-A53 flavored).

The Raspberry Pi 3B's Cortex-A53 is a 2-wide in-order core with a single
load/store pipe and a single 64-bit NEON pipe.  Instruction streams from the
kernel generators are *statically scheduled* under those constraints:

* at most 2 instructions issue per cycle, strictly in program order;
* at most 1 memory op per cycle; multi-beat memory ops occupy the pipe for
  several cycles;
* NEON ops producing a 128-bit result occupy the 64-bit NEON datapath for
  2 cycles (this is exactly why ``MLA.16B`` has twice the MAC throughput of
  ``SMLAL.8H`` per the paper — same 2-cycle occupancy, 16 vs 8 lanes);
* RAW hazards stall issue until the producing instruction's latency has
  elapsed — except accumulator chains (``SMLAL``/``MLA``/``SADDW``/
  ``UADALP`` feeding the same destination), which hardware forwards with an
  effective 1-cycle latency.  Without that forwarding, long MAC chains
  would be latency-bound and the paper's schemes could not work at all.

Kernels reach the scheduler as loop-structured programs
(:class:`~repro.arm.isa.Loop`).  A loop is issued trip by trip until the
scheduler's state *relative to the current cycle* recurs; every later
period of trips is then identical up to a shift in time, so whole periods
are fast-forwarded at once and the result equals scheduling the unrolled
stream, cycle for cycle (see DESIGN.md, "Loop-structured programs").

The table values are documented estimates in the spirit of the A53
software-optimization data; what the experiments rely on is the *relative*
structure (lanes per instruction, load vs arithmetic cost, the price of
drain rounds and of v<->x moves), not any single absolute number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from ..errors import SimulationError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .isa import ACCUM_OPS, Instr, Loop


@dataclass(frozen=True)
class InstrCost:
    """Issue/latency description of one opcode."""

    mem_cycles: int = 0  #: cycles the load/store pipe is occupied
    neon_cycles: int = 0  #: cycles the NEON pipe is occupied
    latency: int = 1  #: producer -> general consumer latency
    acc_latency: int | None = None  #: producer -> accumulate-chain latency


def _table() -> dict[str, InstrCost]:
    return {
        # loads / stores -----------------------------------------------------
        "LD1_16B": InstrCost(mem_cycles=2, latency=4),
        "LD1_8B": InstrCost(mem_cycles=1, latency=4),
        # one 32-bit load + 4-way splat; far cheaper than 4 scalar loads,
        # which is the entire point of the re-designed GEMM (Fig. 1b)
        "LD4R_B": InstrCost(mem_cycles=2, latency=5),
        "LD1R_B": InstrCost(mem_cycles=1, latency=4),
        "ST1_16B": InstrCost(mem_cycles=2, latency=1),
        "LDR_X": InstrCost(mem_cycles=1, latency=3),
        "STR_X": InstrCost(mem_cycles=1, latency=1),
        # multiply-accumulate -------------------------------------------------
        # 128-bit results on a 64-bit datapath: 2-cycle occupancy
        "SMLAL_8H": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SMLAL2_8H": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SMLAL_4S": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SMLAL2_4S": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SMLAL_4S_LANE": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SMLAL2_4S_LANE": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "MLA_16B": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        # ARMv8.2 extension (not on the Pi 3B's A53; modeled for the
        # what-if comparison bench): 16 MACs per instruction, int32 out
        "SDOT_4S": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "SDOT_4S_LANE": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        # widening adds / drains ----------------------------------------------
        "SADDW_8H": InstrCost(neon_cycles=2, latency=3, acc_latency=1),
        "SADDW2_8H": InstrCost(neon_cycles=2, latency=3, acc_latency=1),
        "SADDW_4S": InstrCost(neon_cycles=2, latency=3, acc_latency=1),
        "SADDW2_4S": InstrCost(neon_cycles=2, latency=3, acc_latency=1),
        "UADALP_8H": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        "UADALP_4S": InstrCost(neon_cycles=2, latency=4, acc_latency=1),
        # other vector ---------------------------------------------------------
        "SSHLL_8H": InstrCost(neon_cycles=2, latency=3),
        "SSHLL2_8H": InstrCost(neon_cycles=2, latency=3),
        "AND_16B": InstrCost(neon_cycles=2, latency=2),
        "CNT_16B": InstrCost(neon_cycles=2, latency=3),
        "ADD_4S": InstrCost(neon_cycles=2, latency=2),
        "MOVI_ZERO": InstrCost(neon_cycles=1, latency=1),
        # v <-> x transfers are the expensive part of the Alg. 1 spill
        # dance: the A53 transfers through memory-pipe-adjacent paths with
        # multi-cycle occupancy, which is precisely what erodes the 8-bit
        # scheme (its drain fires every 2 K-steps, Sec. 5.2)
        "MOV_V_TO_X": InstrCost(neon_cycles=2, latency=5),
        "MOV_X_TO_V": InstrCost(neon_cycles=2, latency=5),
        # scalar bookkeeping -----------------------------------------------------
        "MOV_X_IMM": InstrCost(latency=1),
        "SUBS": InstrCost(latency=1),
        "ADD_X": InstrCost(latency=1),
        "B_NE": InstrCost(latency=1),
    }


@dataclass(frozen=True)
class CostTable:
    """Opcode -> cost mapping plus machine-wide issue parameters."""

    costs: dict[str, InstrCost]
    issue_width: int = 2
    clock_hz: float = 1.2e9  # Raspberry Pi 3B: 1.2 GHz Cortex-A53

    def cost(self, op: str) -> InstrCost:
        try:
            return self.costs[op]
        except KeyError:
            raise SimulationError(f"no cost entry for opcode {op!r}") from None


A53_COST_TABLE = CostTable(costs=_table())


@dataclass
class PipelineResult:
    """Outcome of statically scheduling one stream."""

    cycles: int
    instructions: int
    mem_busy: int  #: cycles the LS pipe was occupied
    neon_busy: int  #: cycles the NEON pipe was occupied
    stall_cycles: int  #: issue-pointer advances forced by hazards/structural

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def seconds(self, table: CostTable = A53_COST_TABLE) -> float:
        return self.cycles / table.clock_hz

    # -- persistence (repro.perf cache of scheduled streams) ----------------

    def to_json(self) -> dict:
        """Plain-dict form for the persistent schedule cache: scheduling a
        micro-kernel stream is deterministic, so the result can be reloaded
        across processes instead of re-scheduling identical streams."""
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "mem_busy": self.mem_busy,
            "neon_busy": self.neon_busy,
            "stall_cycles": self.stall_cycles,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PipelineResult":
        return cls(
            cycles=int(data["cycles"]),
            instructions=int(data["instructions"]),
            mem_busy=int(data["mem_busy"]),
            neon_busy=int(data["neon_busy"]),
            stall_cycles=int(data["stall_cycles"]),
        )


class PipelineModel:
    """Greedy in-order scheduler over a cost table."""

    def __init__(self, table: CostTable = A53_COST_TABLE) -> None:
        self.table = table

    def schedule(self, program: Iterable[Union[Instr, Loop]]) -> PipelineResult:
        """Schedule a program (a flat stream or one with loops) in order."""
        table = self.table
        state = _ScheduleState(table)
        state.run(program)
        total = max(state.cur_cycle + 1, state.mem_free, state.neon_free)
        instructions = state.instructions
        min_possible = max(
            (instructions + table.issue_width - 1) // table.issue_width,
            state.mem_busy,
            state.neon_busy,
        )
        result = PipelineResult(
            cycles=total,
            instructions=instructions,
            mem_busy=state.mem_busy,
            neon_busy=state.neon_busy,
            stall_cycles=max(0, total - min_possible),
        )
        if obs_trace.active():
            # per-stream scheduling detail, gated: schedule() sits behind
            # the persistent memo but still runs for every novel stream
            obs_metrics.counter("arm_pipeline_streams").inc()
            obs_metrics.counter("arm_pipeline_instructions").inc(instructions)
            obs_metrics.histogram("arm_pipeline_cycles").observe(total)
            obs_metrics.histogram("arm_pipeline_stalls").observe(
                result.stall_cycles)
        return result


class _ScheduleState:
    """The scheduler's machine state while one program is issued."""

    def __init__(self, table: CostTable) -> None:
        self.table = table
        self.reg_ready: dict[str, int] = {}
        self.reg_ready_acc: dict[str, int] = {}
        self.mem_free = 0  # first cycle the LS pipe is free
        self.neon_free = 0
        self.cur_cycle = 0
        self.slots_used = 0
        self.instructions = 0
        self.mem_busy = 0
        self.neon_busy = 0

    def run(self, program: Iterable[Union[Instr, Loop]]) -> None:
        straight: list[Instr] = []
        for item in program:
            if isinstance(item, Loop):
                self.issue(straight)
                straight = []
                self.loop(item)
            else:
                straight.append(item)
        self.issue(straight)

    def loop(self, loop: Loop) -> None:
        """Issue ``loop`` trip by trip until the relative state recurs, then
        fast-forward every remaining whole period."""
        seen: dict[tuple, tuple[int, int, int, int, int]] = {}
        trip = 0
        while trip < loop.trips:
            key = self.relative_state()
            if key in seen:
                first, cycle, instructions, mem_busy, neon_busy = seen[key]
                period = trip - first
                periods = (loop.trips - trip) // period
                self.advance(
                    periods,
                    self.cur_cycle - cycle,
                    self.instructions - instructions,
                    self.mem_busy - mem_busy,
                    self.neon_busy - neon_busy,
                )
                for _ in range(trip + periods * period, loop.trips):
                    self.run(loop.body)
                return
            seen[key] = (trip, self.cur_cycle, self.instructions,
                         self.mem_busy, self.neon_busy)
            self.run(loop.body)
            trip += 1

    def relative_state(self) -> tuple:
        """Everything later issue can observe, relative to ``cur_cycle``.

        A ready time or pipe-free cycle at or before ``cur_cycle`` can never
        delay an instruction again (issue never goes back in time), so only
        the ones still ahead are kept.
        """
        cur = self.cur_cycle
        return (
            self.slots_used,
            max(0, self.mem_free - cur),
            max(0, self.neon_free - cur),
            frozenset((r, t - cur) for r, t in self.reg_ready.items() if t > cur),
            frozenset(
                (r, t - cur) for r, t in self.reg_ready_acc.items() if t > cur),
        )

    def advance(self, periods: int, cycles: int, instructions: int,
                mem_busy: int, neon_busy: int) -> None:
        """Shift the state by ``periods`` whole periods of the given deltas."""
        cur = self.cur_cycle
        shift = periods * cycles
        for ready in (self.reg_ready, self.reg_ready_acc):
            for reg, t in ready.items():
                if t > cur:
                    ready[reg] = t + shift
        if self.mem_free > cur:
            self.mem_free += shift
        if self.neon_free > cur:
            self.neon_free += shift
        self.cur_cycle = cur + shift
        self.instructions += periods * instructions
        self.mem_busy += periods * mem_busy
        self.neon_busy += periods * neon_busy

    def issue(self, stream: list[Instr]) -> None:
        """Issue straight-line instructions in program order."""
        if not stream:
            return
        table = self.table
        costs = table.costs
        issue_width = table.issue_width
        reg_ready = self.reg_ready
        reg_ready_acc = self.reg_ready_acc
        mem_free = self.mem_free
        neon_free = self.neon_free
        cur_cycle = self.cur_cycle
        slots_used = self.slots_used
        mem_busy = self.mem_busy
        neon_busy = self.neon_busy

        for ins in stream:
            c = costs.get(ins.op) or table.cost(ins.op)
            mem_cycles = c.mem_cycles
            neon_cycles = c.neon_cycles

            # t = max(cur_cycle, operand ready times, busy pipes); the
            # accumulator operand of a MAC chain uses its forwarded time
            t = cur_cycle
            for reg in ins.src:
                ready = reg_ready.get(reg, 0)
                if ready > t:
                    t = ready
            if ins.op in ACCUM_OPS:
                for reg in ins.dst:
                    ready = reg_ready_acc.get(reg, 0)
                    if ready > t:
                        t = ready
            if mem_cycles and mem_free > t:
                t = mem_free
            if neon_cycles and neon_free > t:
                t = neon_free
            if t == cur_cycle and slots_used >= issue_width:
                t = cur_cycle + 1
                if mem_cycles and mem_free > t:
                    t = mem_free
                if neon_cycles and neon_free > t:
                    t = neon_free

            # issue at cycle t
            if t > cur_cycle:
                cur_cycle = t
                slots_used = 1
            else:
                slots_used += 1
            if mem_cycles:
                mem_free = t + mem_cycles
                mem_busy += mem_cycles
            if neon_cycles:
                neon_free = t + neon_cycles
                neon_busy += neon_cycles
            if ins.dst:
                ready = t + c.latency
                ready_acc = t + (c.acc_latency or c.latency)
                for reg in ins.dst:
                    reg_ready[reg] = ready
                    reg_ready_acc[reg] = ready_acc

        self.mem_free = mem_free
        self.neon_free = neon_free
        self.cur_cycle = cur_cycle
        self.slots_used = slots_used
        self.instructions += len(stream)
        self.mem_busy = mem_busy
        self.neon_busy = neon_busy
