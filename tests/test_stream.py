"""The bulk seed and draw stream equals the per-seed path bit for bit.

Run with every warning as an error: numpy warns on scalar ``uint64``
overflow, which the 64- and 128-bit wraparound arithmetic must never hit.
"""

from __future__ import annotations

import numpy as np
import pytest

from bellcast.stream import _jump_constants, derive_seeds, uniforms

pytestmark = pytest.mark.filterwarnings("error")

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def _splitmix(master_seed: int, index: int) -> int:
    """Reference splitmix-style mix in Python integers."""
    z = (master_seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _harness_seeds() -> list[int]:
    """Base, input and protocol seeds of 1000 trials at two master seeds."""
    seeds = []
    for master in (7, _MASK64):
        for index in range(1000):
            base = _splitmix(master, index)
            seeds += [base, _splitmix(base, 0), _splitmix(base, 1)]
    return seeds


class TestDeriveSeeds:
    @pytest.mark.parametrize("master", [0, 42, 2**63, _MASK64])
    def test_matches_reference_over_indices(self, master):
        got = derive_seeds(master, np.arange(3000, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [_splitmix(master, i) for i in range(3000)]

    def test_array_of_masters_with_scalar_tag(self):
        masters = EDGE_SEEDS + _harness_seeds()[:500]
        for tag in (0, 1):
            got = derive_seeds(np.array(masters, dtype=np.uint64), tag)
            assert got.tolist() == [_splitmix(m, tag) for m in masters]

    def test_scalar_arguments_give_one_element(self):
        assert derive_seeds(_MASK64, _MASK64).tolist() == [_splitmix(_MASK64, _MASK64)]


def _draw_states(k: int) -> list[tuple[int, int]]:
    """PCG64's state at draws 1..k as ``(a, b)`` with ``state = a * initstate
    + b * inc``, stepped one at a time in Python integers: seeding steps from
    0, adds ``initstate`` and steps again, and each draw steps first."""

    def step(a, b):
        return a * _PCG_MULT & _MASK128, (b * _PCG_MULT + 1) & _MASK128

    a, b = step(0, 0)
    a, b = step(a + 1, b)
    states = []
    for _ in range(k):
        a, b = step(a, b)
        states.append((a, b))
    return states


class TestUniforms:
    def test_rows_equal_default_rng_bitwise(self):
        seeds = EDGE_SEEDS + _harness_seeds()
        for k in range(1, 17):
            got = uniforms(np.array(seeds, dtype=np.uint64), k)
            assert got.shape == (len(seeds), k)
            expected = np.array([np.random.default_rng(s).random(k) for s in seeds])
            np.testing.assert_array_equal(
                got.view(np.uint64), expected.view(np.uint64), err_msg=f"k={k}"
            )

    @pytest.mark.parametrize("k", [1, 2, 7, 16])
    def test_jump_constants_equal_sequential_steps(self, k):
        constants = _jump_constants(k)
        assert all(c.shape == (k, 1) and c.dtype == np.uint64 for c in constants)
        power_hi, power_lo, sum_hi, sum_lo = (c[:, 0].tolist() for c in constants)
        powers = [hi << 64 | lo for hi, lo in zip(power_hi, power_lo)]
        sums = [hi << 64 | lo for hi, lo in zip(sum_hi, sum_lo)]
        assert list(zip(powers, sums)) == _draw_states(k)

    @pytest.mark.parametrize("k", [1, 2])
    def test_shorter_rows_are_prefixes(self, k):
        seeds = np.array(EDGE_SEEDS, dtype=np.uint64)
        np.testing.assert_array_equal(uniforms(seeds, k), uniforms(seeds, 7)[:, :k])

    def test_draws_lie_in_unit_interval(self):
        draws = uniforms(np.arange(2000, dtype=np.uint64), 7)
        assert draws.min() >= 0.0 and draws.max() < 1.0
