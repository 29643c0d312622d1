"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors elsewhere.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class QuantizationError(ReproError):
    """Invalid quantization parameters or out-of-range quantized data."""


class UnsupportedBitsError(QuantizationError):
    """A bit width outside the range supported by an algorithm or kernel."""

    def __init__(self, bits: int, context: str = "") -> None:
        msg = f"unsupported bit width: {bits}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.bits = bits


class ShapeError(ReproError):
    """Inconsistent tensor / convolution shapes."""


class SimulationError(ReproError):
    """Illegal state inside one of the architecture simulators."""


class ChainOverflowError(SimulationError):
    """An accumulation-chain configuration that can overflow (Sec. 3.3).

    Raised at *kernel-construction* time when a requested drain interval
    exceeds the paper's overflow-safe chain length for the bit width
    (SMLAL/int16: 511/127/31/8/2 for 4~8-bit; MLA/int8: 31/7 for
    2~3-bit), so an unsafe kernel is rejected before it ever runs.
    Tests that deliberately build overflowing chains pass
    ``allow_unsafe=True`` to the generator instead.
    """

    def __init__(self, bits: int, requested: int, limit: int,
                 scheme: str) -> None:
        super().__init__(
            f"{scheme} chain of {requested} steps at {bits}-bit exceeds the "
            f"overflow-safe limit of {limit} (Sec. 3.3); pass "
            f"allow_unsafe=True to build it anyway"
        )
        self.bits = bits
        self.requested = requested
        self.limit = limit
        self.scheme = scheme


class OverflowDetected(SimulationError):
    """The functional simulator detected an accumulator overflow.

    Raised only by checked execution modes; the default execution mode
    reproduces hardware wrap-around semantics silently, exactly like the
    real instructions do.
    """


class TilingError(ReproError):
    """An illegal GPU tiling configuration (partition does not cover the
    problem, exceeds shared memory / register budget, etc.)."""


class AutotuneError(ReproError):
    """The autotuner could not find any legal configuration."""
