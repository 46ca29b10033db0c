"""Check ``floattext.reprs`` against ``repr`` on more than 10^7 doubles.

The sets: the edge values (signed zeros, the smallest subnormals, the
smallest normal and its predecessor, the largest double, and 1e-5, 1e-4,
1e15 and 1e16, each with its neighbours one ulp away), every power of 2 and
of 10 with its neighbours, every subnormal of up to 22 significant bits,
10^6 random finite bit patterns, 10^6 uniforms on [0, 1), and the Haar
amplitudes the record encoder writes (``a_re``, ``b_re``, ``b_im``) of
4.2x10^6 trials.  It prints a line per set and exits 1 on the first value
whose text differs, naming its bits in hex:

    PYTHONPATH=src python3 tools/float_text_check.py

``tests/test_floattext.py`` runs the same sets at smaller sizes.
"""

from __future__ import annotations

import sys
from typing import Iterator, NamedTuple

import numpy as np

from bellcast.floattext import reprs
from bellcast.stream import derive_seeds, uniforms
from bellcast.teleport import HAAR_DRAWS, haar_rows

BLOCK = 1 << 16
SEED = 20


def with_neighbours(values: np.ndarray) -> np.ndarray:
    """``values`` and the doubles one ulp below and above each."""
    values = np.asarray(values, np.float64)
    below = np.nextafter(values, -np.inf)
    above = np.nextafter(values, np.inf)
    both = np.concatenate([below, values, above])
    return both[np.isfinite(both)]


def edge_values() -> np.ndarray:
    subnormal = np.float64(5e-324)
    smallest_normal = np.finfo(np.float64).tiny
    values = [0.0, -0.0, smallest_normal, np.finfo(np.float64).max]
    values += [subnormal * t for t in range(1, 21)]  # 5e-324 ... 1e-322
    edges = with_neighbours([1e-5, 1e-4, 1e15, 1e16, smallest_normal])
    values = np.concatenate([values, edges])
    return np.concatenate([values, -values])


def powers() -> np.ndarray:
    """Every power of 2 and of 10 that is a double, with its neighbours."""
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    return with_neighbours(np.concatenate([twos, tens]))


def subnormals(bits: int) -> np.ndarray:
    """Every subnormal ``t * 5e-324`` with ``0 < t < 2**bits``."""
    return np.arange(1, 1 << bits, dtype=np.uint64).view(np.float64)


def bit_patterns(count: int, seed: int) -> np.ndarray:
    """``count`` seeded uniform random 64-bit patterns, the finite ones."""
    words = np.random.default_rng(seed).integers(0, 1 << 64, count, np.uint64)
    values = words.view(np.float64)
    return values[np.isfinite(values)]


def haar_amplitudes(trials: int, seed: int) -> Iterator[np.ndarray]:
    """The ``a_re``, ``b_re`` and ``b_im`` columns of ``trials`` Haar inputs
    drawn as a batch with master seed ``seed`` draws them, a chunk of 1024
    trials at a time, in the order the record encoder passes them."""
    for start in range(0, trials, 1024):
        indices = np.arange(start, min(start + 1024, trials), dtype=np.uint64)
        seeds = derive_seeds(derive_seeds(seed, indices), 0)
        rows = haar_rows(uniforms(seeds, HAAR_DRAWS)).view(np.float64)
        yield rows.T[[0, 2, 3]]


class Sizes(NamedTuple):
    subnormal_bits: int
    bit_patterns: int
    uniforms: int
    haar_trials: int


FULL = Sizes(
    subnormal_bits=22, bit_patterns=10**6, uniforms=10**6, haar_trials=4_200_000
)


def value_sets(sizes: Sizes) -> Iterator[tuple[str, Iterator[np.ndarray]]]:
    """The named sets, each as blocks of values."""
    yield "edge values", iter([edge_values()])
    yield "powers of 2 and 10", iter([powers()])
    yield "subnormals", iter([subnormals(sizes.subnormal_bits)])
    yield "random bit patterns", iter([bit_patterns(sizes.bit_patterns, SEED)])
    yield "uniforms", iter([np.random.default_rng(SEED).random(sizes.uniforms)])
    yield "Haar amplitudes", haar_amplitudes(sizes.haar_trials, SEED)


def first_mismatch(values: np.ndarray) -> int | None:
    """The index of the first value whose ``reprs`` text is not its ``repr``."""
    values = values.ravel()
    for start in range(0, values.size, BLOCK):
        block = values[start : start + BLOCK]
        texts = zip(reprs(block), map(repr, block.tolist()))
        for index, (got, want) in enumerate(texts):
            if got != want:
                return start + index
    return None


def main() -> int:
    total = 0
    for name, blocks in value_sets(FULL):
        count = 0
        for values in blocks:
            values = values.ravel()
            index = first_mismatch(values)
            if index is not None:
                value = values[index : index + 1]
                print(
                    f"{name}: mismatch at 0x{value.view(np.uint64)[0]:016x}: "
                    f"reprs {reprs(value)[0]!r}, repr {repr(float(value[0]))!r}"
                )
                return 1
            count += values.size
        print(f"{name}: {count} values match")
        total += count
    print(f"{total} values, 0 mismatches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
