"""Small shared helpers used across the package.

Nothing here is domain specific; keep it that way.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, TypeVar

import numpy as np

from . import settings

T = TypeVar("T")


def vector_enabled() -> bool:
    """Whether batched (structure-of-arrays) pricing paths may be used.

    ``REPRO_NO_VECTOR=1`` (:attr:`repro.settings.Settings.vector`)
    disables them.  The scalar paths are the equivalence oracle, so
    flipping this never changes results — only speed.
    """
    return settings.current().vector


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"ceil_div requires positive divisor, got {b}")
    if a < 0:
        raise ValueError(f"ceil_div requires non-negative dividend, got {a}")
    return -(-a // b)


def round_up(a: int, multiple: int) -> int:
    """Round ``a`` up to the nearest multiple of ``multiple``."""
    return ceil_div(a, multiple) * multiple


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def chunks(seq: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield successive ``size``-length chunks of ``seq`` (last may be short)."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the conventional aggregate for speedup ratios."""
    vals = np.asarray(list(values), dtype=np.float64)
    if vals.size == 0:
        raise ValueError("geomean of empty sequence")
    if np.any(vals <= 0):
        raise ValueError("geomean requires strictly positive values")
    return float(np.exp(np.mean(np.log(vals))))


def default_rng(seed: int | None = 0) -> np.random.Generator:
    """Deterministic-by-default RNG; pass ``seed=None`` for entropy seeding."""
    return np.random.default_rng(seed)


def wrap_signed(x: np.ndarray, bits: int) -> np.ndarray:
    """Wrap arbitrary integers into ``bits``-wide two's-complement values.

    This reproduces the silent modular behaviour of non-saturating hardware
    accumulate instructions (NEON ``MLA``/``SMLAL`` do *not* saturate).
    Returns int64 values in ``[-2**(bits-1), 2**(bits-1) - 1]``.
    """
    if bits < 1 or bits > 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    x = np.asarray(x, dtype=np.int64)
    mask = (np.int64(1) << bits) - np.int64(1) if bits < 64 else np.int64(-1)
    lo = x & mask
    sign = np.int64(1) << (bits - 1)
    return np.where(lo & sign, lo - (np.int64(1) << bits) if bits < 64 else lo, lo)
