"""``floattext.reprs`` writes the text ``repr`` writes, for every double.

The value sets are those of ``tools/float_text_check.py``, which runs them
at full size (more than 10^7 values); here they are sized for tier-1: every
subnormal below 2**16 ulps, 2x10^5 random bit patterns and four 1024-trial
chunks of Haar amplitudes.
"""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pytest

from bellcast.floattext import reprs

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "float_text_check.py"
_SPEC = importlib.util.spec_from_file_location("float_text_check", _PATH)
check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check)

SIZES = check.Sizes(
    subnormal_bits=16, bit_patterns=200_000, uniforms=20_000, haar_trials=4 * 1024
)
SET_NAMES = [name for name, _ in check.value_sets(SIZES)]


@pytest.mark.parametrize("name", SET_NAMES)
def test_reprs_is_repr(name):
    for values in dict(check.value_sets(SIZES))[name]:
        assert reprs(values) == list(map(repr, values.ravel().tolist()))


def test_edge_texts():
    values = [
        0.0, -0.0, 5e-324, 1e-322, 2.2250738585072014e-308, 1e-05, 0.0001,
        0.30000000000000004, 1e15, 1e16, 123456789012345.67, 2.0**-25,
        -1.7976931348623157e308, 9007199254740993.0,
    ]
    assert reprs(np.array(values)) == [
        "0.0", "-0.0", "5e-324", "1e-322", "2.2250738585072014e-308", "1e-05",
        "0.0001", "0.30000000000000004", "1000000000000000.0", "1e+16",
        "123456789012345.67", "2.9802322387695312e-08",
        "-1.7976931348623157e+308", "9007199254740992.0",
    ]


def test_values_are_read_in_row_major_order():
    values = np.array([[0.5, -2.0, 3e-7], [1e100, 7.0, -0.0]])
    assert reprs(values) == ["0.5", "-2.0", "3e-07", "1e+100", "7.0", "-0.0"]
    assert reprs(values.T) == ["0.5", "1e+100", "-2.0", "7.0", "3e-07", "-0.0"]
    assert reprs(np.empty(0)) == []


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_values_are_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        reprs(np.array([1.0, bad]))
