"""Quantization substrate: numeric ranges, linear quantizers, QTensor.

This implements the linear (uniform) quantization scheme the paper inherits
from DSQ/LSQ-style training work (Sec. 5.1): the kernels operate on signed
``bits``-wide integers with a floating-point scale per tensor (or per output
channel for weights), and all accuracy-critical arithmetic is exact int32.
"""

from .ranges import (
    QRange,
    qrange,
    adjusted_qrange,
    scheme_qrange,
    max_abs_product,
)
from .schemes import (
    LinearQuantizer,
    quantize_linear,
    dequantize_linear,
    requantize,
    requantize_per_channel,
    compute_scale,
)
from .qtensor import QTensor
from .affine import (
    AffineParams,
    affine_quantize,
    affine_dequantize,
    choose_affine_params,
    conv2d_affine,
)

__all__ = [
    "QRange",
    "qrange",
    "adjusted_qrange",
    "scheme_qrange",
    "max_abs_product",
    "LinearQuantizer",
    "quantize_linear",
    "dequantize_linear",
    "requantize",
    "requantize_per_channel",
    "compute_scale",
    "QTensor",
    "AffineParams",
    "affine_quantize",
    "affine_dequantize",
    "choose_affine_params",
    "conv2d_affine",
]
