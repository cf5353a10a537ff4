"""Integer (fixed-point) fused kernel: quantization and entry checks.

``tests/core/test_oracle.py`` holds ``fused_conv_pool_int`` to the one
golden on its dequantized operands, within ``int_path_error_bound`` of
the golden on the unquantized ones, and bit for bit to Python-int
arithmetic at the int64 edge.
"""

import numpy as np
import pytest

from repro.core.fixedpoint import QuantizedTensor, fused_conv_pool_int, quantize_tensor
from tests.core.test_oracle import golden


@pytest.fixture
def rng():
    return np.random.default_rng(41)


class TestQuantizeTensor:
    def test_roundtrip_error_bounded(self, rng):
        x = rng.normal(size=(4, 8, 8))
        qt = quantize_tensor(x, bits=8)
        err = np.abs(qt.dequantize() - x).max()
        assert err <= 0.5 * qt.scale + 1e-12

    def test_values_in_range(self, rng):
        qt = quantize_tensor(rng.normal(size=100) * 50, bits=8)
        assert np.abs(qt.values).max() <= 127

    def test_dtype_by_bits(self, rng):
        x = rng.normal(size=10)
        assert quantize_tensor(x, 8).values.dtype == np.int8
        assert quantize_tensor(x, 16).values.dtype == np.int16

    def test_zero_tensor(self):
        qt = quantize_tensor(np.zeros(5), bits=8)
        assert (qt.values == 0).all()
        assert qt.scale == 1.0

    def test_more_bits_less_error(self, rng):
        x = rng.normal(size=1000)
        e8 = np.abs(quantize_tensor(x, 8).dequantize() - x).max()
        e16 = np.abs(quantize_tensor(x, 16).dequantize() - x).max()
        assert e16 < e8

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            QuantizedTensor(np.array([200], dtype=np.int16), 1.0, 8)
        with pytest.raises(ValueError):
            QuantizedTensor(np.array([1], dtype=np.int8), -1.0, 8)
        with pytest.raises(ValueError):
            QuantizedTensor(np.array([1], dtype=np.int8), 1.0, 1)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"bits": 1}, r"bits must be in \[2, 32\], got 1"),
        ({"bits": 33}, r"bits must be in \[2, 32\], got 33"),
    ],
    ids=["bits-1", "bits-33"],
)
def test_fixed_point_widths_and_ranges_rejected_at_entry(rng, kwargs, match):
    """A width outside the valid set raises instead of dividing by zero."""
    x = rng.normal(size=(2, 8, 8))
    with pytest.raises(ValueError, match=match):
        quantize_tensor(x, **kwargs)


class TestIntFusedKernel:
    def test_16_bit_closer_than_8_bit(self, rng):
        x = rng.normal(size=(2, 12, 12))
        w = rng.normal(size=(2, 2, 3, 3))
        ref = golden(x[None], w, None, 2)[0]
        e8 = np.abs(fused_conv_pool_int(quantize_tensor(x, 8), quantize_tensor(w, 8)) - ref).max()
        e16 = np.abs(fused_conv_pool_int(quantize_tensor(x, 16), quantize_tensor(w, 16)) - ref).max()
        assert e16 < e8

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            fused_conv_pool_int(
                quantize_tensor(rng.normal(size=(2, 8, 8))),
                quantize_tensor(rng.normal(size=(1, 3, 3, 3))),
            )

    def test_too_small_input_raises(self, rng):
        with pytest.raises(ValueError):
            fused_conv_pool_int(
                quantize_tensor(rng.normal(size=(1, 3, 3))),
                quantize_tensor(rng.normal(size=(1, 1, 3, 3))),
            )
