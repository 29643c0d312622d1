"""Linear quantization, requantization and calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QuantizationError
from repro.quant import (
    LinearQuantizer,
    compute_scale,
    dequantize_linear,
    quantize_linear,
    requantize,
    scheme_qrange,
)


@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=64),
    st.integers(2, 8),
)
@settings(max_examples=80)
def test_roundtrip_error_bounded_by_half_step(values, bits):
    x = np.array(values)
    qr = scheme_qrange(bits)
    max_abs = float(np.max(np.abs(x)))
    if max_abs == 0:
        return
    scale = compute_scale(max_abs, qr)
    q = quantize_linear(x, scale, qr)
    back = dequantize_linear(q, scale)
    # round-trip error is at most half a step, plus one clipped step at the
    # positive edge for the asymmetric full ranges (|qmin| = qmax + 1)
    assert np.all(np.abs(back - x) <= scale + 1e-12)
    interior = np.abs(x) <= qr.qmax * scale
    assert np.all(np.abs(back - x)[interior] <= scale / 2 + 1e-12)


def test_quantize_clips_to_range():
    qr = scheme_qrange(4)
    q = quantize_linear(np.array([100.0, -100.0]), 1.0, qr)
    assert q.tolist() == [qr.qmax, qr.qmin]


def test_per_channel_scale():
    x = np.array([[1.0, 2.0], [10.0, 20.0]])
    qr = scheme_qrange(8)
    scale = compute_scale(np.array([2.0, 20.0]), qr)
    q = quantize_linear(x, scale, qr, axis=0)
    # each row quantized by its own scale: max maps to 127
    assert q[0, 1] == 127
    assert q[1, 1] == 127


def test_per_channel_requires_axis():
    with pytest.raises(QuantizationError):
        quantize_linear(np.ones((2, 2)), np.array([1.0, 2.0]), scheme_qrange(8))


def test_scale_must_be_positive():
    with pytest.raises(QuantizationError):
        quantize_linear(np.ones(3), 0.0, scheme_qrange(8))


def test_compute_scale_zero_data():
    s = compute_scale(0.0, scheme_qrange(8))
    assert float(s) == 1.0


@given(st.integers(-(2**20), 2**20), st.floats(1e-4, 0.99))
@settings(max_examples=120)
def test_fixed_point_requantize_close_to_float(acc, mult):
    qr = scheme_qrange(8)
    fixed = requantize(np.array([acc]), mult, qr, use_fixed_point=True)
    exact = requantize(np.array([acc]), mult, qr, use_fixed_point=False)
    # 31-bit fixed-point multiplier: off by at most 1 quantum from float
    assert abs(int(fixed[0]) - int(exact[0])) <= 1


def test_requantize_clips():
    qr = scheme_qrange(8)
    out = requantize(np.array([10**6, -(10**6)]), 0.5, qr)
    assert out.tolist() == [127, -127]


def test_requantize_multiplier_domain():
    with pytest.raises(QuantizationError):
        requantize(np.array([1]), 1.5, scheme_qrange(8))
    with pytest.raises(QuantizationError):
        requantize(np.array([1]), 0.0, scheme_qrange(8))


def test_linear_quantizer_per_tensor():
    q = LinearQuantizer(bits=4)
    x = np.linspace(-1, 1, 17)
    qt = q.quantize(x)
    assert qt.bits == 4
    assert qt.data.min() >= -8 and qt.data.max() <= 7
    assert int(qt.data[-1]) == 7  # max maps to edge


def test_linear_quantizer_per_channel():
    q = LinearQuantizer(bits=8, per_channel_axis=0)
    x = np.array([[0.5, -0.5], [50.0, -25.0]])
    qt = q.quantize(x)
    assert qt.is_per_channel
    assert qt.scale.shape == (2,)
    assert int(qt.data[0, 0]) == 127  # each channel uses its own edge
    assert int(qt.data[1, 0]) == 127
