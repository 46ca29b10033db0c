"""Tests for the exact state-vector engine."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcast.qcore import (
    MeasurementResult,
    Operator,
    StateVector,
    apply,
    basis_state,
    contract_with,
    embed_operator,
    fidelity,
    fidelity_rows,
    ket,
    measure_projective,
    measure_rows,
    normalized_rows,
    sample_rows,
    tensor,
)

ATOL_EXACT = 1e-13
SQRT_HALF = np.sqrt(0.5)

X = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT_HALF


def random_state(rng: np.random.Generator, n_qubits: int) -> StateVector:
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(amps / np.linalg.norm(amps))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    gaussian = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(gaussian)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ordered_targets(n_qubits: int):
    """Every ordered tuple of one or two distinct qubits of the register."""
    for k in (1, 2):
        yield from itertools.permutations(range(n_qubits), k)


def qubit_permutation(n_qubits: int, order) -> np.ndarray:
    """Permutation matrix taking ``|b_0 ... b_{n-1}>`` to
    ``|b_order[0] ... b_order[n-1]>``, built bit by bit."""
    dim = 1 << n_qubits
    perm = np.zeros((dim, dim))
    for i in range(dim):
        bits = [(i >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        j = int("".join(str(bits[q]) for q in order), 2)
        perm[j, i] = 1.0
    return perm


def kron_embed(matrix: np.ndarray, n_qubits: int, targets) -> np.ndarray:
    """Independent oracle: ``op x I`` on the qubits reordered as ``targets``
    then the rest, conjugated back by the permutation matrix."""
    rest = [q for q in range(n_qubits) if q not in targets]
    perm = qubit_permutation(n_qubits, [*targets, *rest])
    return perm.T @ np.kron(matrix, np.eye(1 << len(rest))) @ perm


def kron_contraction(bra: np.ndarray, n_qubits: int, qubits) -> np.ndarray:
    """Independent oracle: ``<bra| x I`` on the qubits reordered as
    ``qubits`` then the rest, which stay in ascending order."""
    rest = [q for q in range(n_qubits) if q not in qubits]
    perm = qubit_permutation(n_qubits, [*qubits, *rest])
    return np.kron(bra.conj()[None, :], np.eye(1 << len(rest))) @ perm


@st.composite
def normalized_states(draw, n_qubits: int):
    dim = 1 << n_qubits
    finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    re = draw(st.lists(finite, min_size=dim, max_size=dim))
    im = draw(st.lists(finite, min_size=dim, max_size=dim))
    amps = np.array(re) + 1j * np.array(im)
    norm = np.linalg.norm(amps)
    if norm < 1e-3:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        norm = 1.0
    return StateVector(amps / norm)


class TestStateVector:
    def test_rejects_non_power_of_two_length(self):
        with pytest.raises(ValueError, match="power of two"):
            StateVector(np.ones(3, dtype=complex))

    def test_rejects_non_finite_amplitudes(self):
        with pytest.raises(ValueError, match="non-finite"):
            StateVector(np.array([np.nan, 1.0], dtype=complex))

    def test_amplitudes_are_read_only(self):
        state = ket("0")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_normalized_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero state"):
            StateVector(np.zeros(2, dtype=complex)).normalized()

    def test_qubit_count(self):
        assert ket("010").n_qubits == 3


class TestTensor:
    def test_up_down_product(self):
        """|u> x |d> occupies basis index 1."""
        got = tensor(ket("0"), ket("1"))
        np.testing.assert_allclose(got.amplitudes, [0, 1, 0, 0], atol=0)

    def test_uniform_product(self):
        plus = StateVector(np.array([SQRT_HALF, SQRT_HALF], dtype=complex))
        got = tensor(plus, plus)
        np.testing.assert_allclose(got.amplitudes, [0.5] * 4, atol=ATOL_EXACT)

    def test_qubit_zero_is_leftmost_factor(self):
        """Index i holds qubit k in bit (i >> (n-1-k)) & 1."""
        got = tensor(ket("1"), ket("00"))  # |1> on qubit 0
        assert got.amplitudes[0b100] == 1.0


class TestApply:
    def test_bit_flip_on_first_qubit(self):
        got = apply(Operator(X), ket("01"), (0,))
        np.testing.assert_allclose(got.amplitudes, ket("11").amplitudes, atol=0)

    def test_identity_leaves_state_unchanged(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, 3)
        got = apply(Operator(np.eye(2, dtype=complex)), state, (1,))
        np.testing.assert_allclose(got.amplitudes, state.amplitudes, atol=0)

    def test_two_qubit_operator_on_named_pair(self):
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        got = apply(Operator(swap), ket("001"), (1, 2))
        np.testing.assert_allclose(got.amplitudes, ket("010").amplitudes, atol=0)

    def test_matches_explicit_kron_embedding(self):
        """apply() agrees with the permuted op x I matrix for every ordered
        one- and two-qubit target tuple, reversed and non-adjacent ones too."""
        rng = np.random.default_rng(5)
        for n_qubits in (2, 3, 4):
            state = random_state(rng, n_qubits)
            for targets in ordered_targets(n_qubits):
                matrix = random_unitary(rng, 1 << len(targets))
                via_apply = apply(Operator(matrix), state, targets)
                full = kron_embed(matrix, n_qubits, targets)
                np.testing.assert_allclose(
                    via_apply.amplitudes, full @ state.amplitudes, atol=ATOL_EXACT
                )

    def test_rejects_out_of_range_target(self):
        with pytest.raises(IndexError, match="out of range"):
            apply(Operator(X), ket("0"), (1,))

    def test_rejects_duplicate_targets(self):
        with pytest.raises(ValueError, match="distinct"):
            apply(Operator(np.eye(4, dtype=complex)), ket("00"), (0, 0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="target"):
            apply(Operator(np.eye(4, dtype=complex)), ket("00"), (0,))

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            state = random_state(rng, 3)
            got = apply(Operator(random_unitary(rng, 4)), state, (0, 2))
            assert got.norm == pytest.approx(1.0, abs=1e-12)


class TestEmbedOperator:
    def test_spectrum_preserved_under_embedding(self):
        rng = np.random.default_rng(3)
        gaussian = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        hermitian = gaussian + gaussian.conj().T
        embedded = embed_operator(Operator(hermitian), 3, (1,))
        base = np.linalg.eigvalsh(hermitian)
        full = np.linalg.eigvalsh(embedded.matrix)
        np.testing.assert_allclose(np.repeat(np.sort(base), 4), np.sort(full), atol=1e-10)

    def test_embedding_on_non_adjacent_pair(self):
        swap = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
        embedded = embed_operator(Operator(swap), 3, (0, 2))
        got = StateVector(embedded.matrix @ ket("100").amplitudes)
        np.testing.assert_allclose(got.amplitudes, ket("001").amplitudes, atol=0)


class TestMeasureProjective:
    def up_down_projectors(self):
        return [
            Operator(np.diag([1.0, 0.0]).astype(complex)),
            Operator(np.diag([0.0, 1.0]).astype(complex)),
        ]

    def test_eigenstate_yields_probability_one(self):
        result = measure_projective(ket("0"), self.up_down_projectors(), 0.3)
        assert result.outcome_index == 0
        assert result.probability == pytest.approx(1.0, abs=1e-12)

    def test_cumulative_selection_past_boundary(self):
        """Uniform state, draw 0.7: cumulative (0.5, 1.0) selects outcome 1."""
        plus = StateVector(np.array([SQRT_HALF, SQRT_HALF], dtype=complex))
        result = measure_projective(plus, self.up_down_projectors(), 0.7)
        assert result.outcome_index == 1
        assert result.probability == pytest.approx(0.5, abs=1e-12)

    def test_draw_on_boundary_resolves_to_higher_outcome(self):
        """A draw exactly equal to a cumulative edge belongs to the next bin."""
        plus = StateVector(np.array([SQRT_HALF, SQRT_HALF], dtype=complex))
        projectors = self.up_down_projectors()
        edge = float(np.vdot(plus.amplitudes, projectors[0].matrix @ plus.amplitudes).real)
        result = measure_projective(plus, projectors, edge)
        assert result.outcome_index == 1

    def test_post_state_is_renormalized_projection(self):
        plus = StateVector(np.array([0.6, 0.8], dtype=complex))
        result = measure_projective(plus, self.up_down_projectors(), 0.0)
        np.testing.assert_allclose(result.post_state.amplitudes, [1, 0], atol=1e-12)

    def test_rejects_incomplete_projector_set(self):
        with pytest.raises(ValueError, match="incomplete"):
            measure_projective(ket("0"), [self.up_down_projectors()[0]], 0.1)

    def test_rejects_non_idempotent_projector(self):
        bad = [Operator(np.diag([2.0, 0.0]).astype(complex)),
               Operator(np.diag([-1.0, 1.0]).astype(complex))]
        with pytest.raises(ValueError, match="idempotent"):
            measure_projective(ket("0"), bad, 0.1)

    def test_rejects_out_of_range_draw(self):
        with pytest.raises(ValueError, match="rng_sample"):
            measure_projective(ket("0"), self.up_down_projectors(), 1.0)

    def test_probabilities_sum_to_one_for_random_states(self):
        rng = np.random.default_rng(17)
        projectors = [
            Operator(np.diag([1.0 if i == j else 0.0 for i in range(4)]).astype(complex))
            for j in range(4)
        ]
        for _ in range(1000):
            state = random_state(rng, 2)
            amps = state.amplitudes
            total = sum(
                float(np.vdot(amps, p.matrix @ amps).real) for p in projectors
            )
            assert total == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(ket("01"), ket("01")) == pytest.approx(1.0, abs=0)

    def test_orthogonal_states(self):
        assert fidelity(ket("0"), ket("1")) == 0.0

    def test_half_overlap(self):
        plus = StateVector(np.array([SQRT_HALF, SQRT_HALF], dtype=complex))
        assert fidelity(ket("0"), plus) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(ket("0"), ket("00"))

    @settings(max_examples=40, deadline=None)
    @given(normalized_states(2), st.floats(0.0, 2 * np.pi))
    def test_global_phase_invariance(self, state, phase):
        rotated = StateVector(state.amplitudes * np.exp(1j * phase))
        assert fidelity(state, rotated) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(normalized_states(2))
    def test_symmetry(self, state):
        other = StateVector(np.roll(state.amplitudes, 1))
        assert fidelity(state, other) == pytest.approx(fidelity(other, state), abs=1e-12)


def fidelity_pairs(rng: np.random.Generator, dim: int, count: int):
    """``count`` normalized pairs each of four kinds: independent states,
    equal states up to a global phase (overlap modulus near 1), orthogonal
    states, and states a small perturbation apart (near-unit overlaps)."""

    def unit(amps):
        return amps / np.linalg.norm(amps, axis=1, keepdims=True)

    def gaussian():
        return rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))

    s = unit(gaussian())
    phase = np.exp(2j * np.pi * rng.random((count, 1)))
    other = gaussian()
    # Gram-Schmidt against s, row by row.
    other -= (s.conj() * other).sum(axis=1, keepdims=True) * s
    nudged = unit(s + 10.0 ** rng.uniform(-9, -3, (count, 1)) * gaussian())
    firsts = np.concatenate([unit(gaussian()), s, s, s])
    seconds = np.concatenate([unit(gaussian()), s * phase, unit(other), nudged])
    return firsts, seconds


def real_pow_pairs(rng: np.random.Generator):
    """Pairs whose overlap modulus ``h`` is exact and has ``h ** 2 != h * h``:
    ``(1, 0)`` against ``(h, sqrt(1 - h*h))`` and ``(i h, sqrt(1 - h*h))``."""
    hs = [h for h in rng.random(20000).tolist() if h**2 != h * h]
    assert hs, "no modulus whose pow and product differ"
    firsts, seconds = [], []
    for h in hs:
        for lead in (h, 1j * h):
            firsts.append([1.0, 0.0])
            seconds.append([lead, np.sqrt(1.0 - h * h)])
    return np.array(firsts, dtype=complex), np.array(seconds, dtype=complex), hs


def scalar_fidelities(s: np.ndarray, t: np.ndarray) -> list[float]:
    """:func:`fidelity` of each row pair, each row made a checked
    :class:`StateVector`."""
    return [fidelity(StateVector(a), StateVector(b)) for a, b in zip(s, t)]


class TestFidelityRows:
    """``fidelity_rows`` against the scalar ``fidelity``, byte for byte."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_random_pairs_equal_the_scalar_fidelity(self, dim):
        s, t = fidelity_pairs(np.random.default_rng(dim), dim, 12500)
        got = fidelity_rows(s, t)
        expected = scalar_fidelities(s, t)
        assert len(got) == 50000
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    def test_moduli_whose_square_is_not_a_product(self):
        s, t, hs = real_pow_pairs(np.random.default_rng(3))
        got = fidelity_rows(s, t)
        expected = scalar_fidelities(s, t)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert got[::2].tolist() == [h**2 for h in hs]


class TestRowChecksRejectNaN:
    """A NaN row fails every row check, as the scalar forms reject the state:
    ``StateVector`` refuses non-finite amplitudes."""

    @staticmethod
    def rows(dim: int, nan: bool = True) -> np.ndarray:
        """Three ``|0>`` rows, the middle one NaN when ``nan``."""
        rows = np.zeros((3, dim), dtype=complex)
        rows[:, 0] = 1.0
        rows[1, 0] = np.nan if nan else 1.0
        return rows

    def test_fidelity_rows(self):
        good, bad = self.rows(2, nan=False), self.rows(2)
        message = r"state must be normalized \(norm nan\)"
        with pytest.raises(ValueError, match="first " + message):
            fidelity_rows(bad, good)
        with pytest.raises(ValueError, match="second " + message):
            fidelity_rows(good, bad)

    def test_normalized_rows(self):
        with pytest.raises(ValueError, match="cannot normalize"):
            normalized_rows(self.rows(2))

    def test_measure_rows(self):
        projectors = np.array([np.diag(e) for e in np.eye(8, dtype=complex)])
        message = r"measured state must be normalized \(norm nan\)"
        with pytest.raises(ValueError, match=message):
            measure_rows(self.rows(8), projectors, np.full(3, 0.5))

    def test_sample_rows_degenerate_check(self):
        # Normalized states, but NaN probabilities: no outcome is live.
        projectors = np.full((2, 2, 2), np.nan, dtype=complex)
        with pytest.raises(ValueError, match="degenerate"):
            sample_rows(self.rows(2, nan=False), projectors, np.full(3, 0.5))


class TestContraction:
    def test_recovers_remaining_factor(self):
        left = StateVector(np.array([0.6, 0.8], dtype=complex))
        right = StateVector(np.array([SQRT_HALF, -SQRT_HALF * 1j], dtype=complex))
        state = tensor(left, right)
        got = contract_with(state, (0,), left)
        np.testing.assert_allclose(got.amplitudes, right.amplitudes, atol=1e-12)

    def test_squared_norm_is_born_probability(self):
        plus = StateVector(np.array([SQRT_HALF, SQRT_HALF], dtype=complex))
        got = contract_with(tensor(plus, plus), (0,), ket("0"))
        assert got.norm**2 == pytest.approx(0.5, abs=1e-12)

    def test_matches_explicit_kron_oracle(self):
        """contract_with() agrees with the permuted <factor| x I matrix for
        every ordered one- and two-qubit tuple that leaves a qubit over."""
        rng = np.random.default_rng(13)
        for n_qubits in (2, 3, 4):
            state = random_state(rng, n_qubits)
            for qubits in ordered_targets(n_qubits):
                if len(qubits) == n_qubits:
                    continue
                factor = random_state(rng, len(qubits))
                got = contract_with(state, qubits, factor)
                oracle = kron_contraction(factor.amplitudes, n_qubits, qubits)
                np.testing.assert_allclose(
                    got.amplitudes, oracle @ state.amplitudes, atol=ATOL_EXACT
                )

    def test_rejects_contracting_every_qubit(self):
        with pytest.raises(ValueError, match="at least one qubit"):
            contract_with(ket("01"), (1, 0), ket("10"))


class TestOperatorAndDensityValidation:
    def test_hermitian_hint_is_verified(self):
        with pytest.raises(ValueError, match="hermitian"):
            Operator(np.array([[0, 1], [0, 0]], dtype=complex), hermitian_hint=True)

    def test_measurement_result_is_plain_record(self):
        result = MeasurementResult(1, 0.5, ket("1"))
        assert result.outcome_index == 1


class TestBasisHelpers:
    def test_basis_state_bounds(self):
        with pytest.raises(IndexError, match="out of range"):
            basis_state(2, 4)

    def test_ket_rejects_bad_characters(self):
        with pytest.raises(ValueError, match="0/1"):
            ket("012")
