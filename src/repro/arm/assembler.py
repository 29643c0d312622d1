"""Textual assembler/disassembler for the simulated NEON subset.

Kernel generators emit :class:`~repro.arm.isa.Instr` streams; this module
round-trips them through the textual form ``Instr.render`` produces, so
kernels can be stored, diffed and reviewed as assembly-like listings —
the artifact the paper's authors actually wrote by hand.

Grammar (one instruction per line; ``;`` starts a comment)::

    OPCODE [{dst, ...}] [{src, ...}] [[lane]] [[buffer+offset]] [#imm]

Example::

    LD4R_B {v2, v3, v4, v5} [B+0]
    SMLAL_8H {v10} {v0, v2}
    SADDW_4S {v18} {v18, v10}
    SUBS {x9} {x9} #32
"""

from __future__ import annotations

import re
from functools import lru_cache

from ..errors import SimulationError
from .isa import ALL_OPS, Instr, MemRef, STORE_OPS

_LINE_RE = re.compile(
    r"^\s*(?P<op>[A-Z0-9_]+)"
    r"(?:\s+\{(?P<dst>[^}]*)\})?"
    r"(?:\s+\{(?P<src>[^}]*)\})?"
    r"(?:\s+\[(?P<bracket1>[^\]]*)\])?"
    r"(?:\s+\[(?P<bracket2>[^\]]*)\])?"
    r"(?:\s+#(?P<imm>-?\d+))?"
    r"\s*$"
)


def _split_regs(group: str | None) -> tuple[str, ...]:
    if not group:
        return ()
    return tuple(r.strip() for r in group.split(",") if r.strip())


def _parse_bracket(text: str) -> tuple[int | None, MemRef | None]:
    """A bracket is either a lane index or ``buffer+offset``."""
    text = text.strip()
    if re.fullmatch(r"\d+", text):
        return int(text), None
    m = re.fullmatch(r"(?P<buf>\w+)\+(?P<off>\d+)", text)
    if m:
        return None, MemRef(m.group("buf"), int(m.group("off")))
    raise SimulationError(f"unparseable bracket operand [{text}]")


@lru_cache(maxsize=4096)
def parse_line(line: str) -> Instr | None:
    """Parse one listing line; returns None for blanks/comments.

    Memoized: an unrolled kernel listing repeats a few hundred distinct
    lines thousands of times, and the parsed :class:`Instr` is immutable.
    """
    line = line.split(";", 1)[0].rstrip()
    if not line.strip():
        return None
    m = _LINE_RE.match(line)
    if not m:
        raise SimulationError(f"unparseable instruction: {line!r}")
    op = m.group("op")
    if op not in ALL_OPS:
        raise SimulationError(f"unknown opcode in listing: {op!r}")
    lane = None
    mem = None
    for key in ("bracket1", "bracket2"):
        if m.group(key) is not None:
            l, mr = _parse_bracket(m.group(key))
            if l is not None:
                lane = l
            if mr is not None:
                mem = mr
    imm = int(m.group("imm")) if m.group("imm") is not None else None
    dst = _split_regs(m.group("dst"))
    src = _split_regs(m.group("src"))
    if op in STORE_OPS and dst and not src:
        # stores have no destination register: their single group is the source
        dst, src = (), dst
    return Instr(op=op, dst=dst, src=src, mem=mem, lane=lane, imm=imm)


def assemble(text: str) -> list[Instr]:
    """Parse a whole listing into an instruction stream."""
    out: list[Instr] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            ins = parse_line(line)
        except SimulationError as e:
            raise SimulationError(f"line {lineno}: {e}") from None
        if ins is not None:
            out.append(ins)
    return out


def disassemble(stream: list[Instr] | tuple[Instr, ...]) -> str:
    """Render a stream as a listing ``assemble`` can read back."""
    return "\n".join(ins.render() for ins in stream)


def roundtrip(stream: list[Instr] | tuple[Instr, ...]) -> list[Instr]:
    """disassemble -> assemble (tests pin this to the identity)."""
    return assemble(disassemble(stream))
