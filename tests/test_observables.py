"""Tests for the squared-spin observables and the shared Bell eigenbasis.

The central facts pinned here: the four squared-spin operators commute
pairwise, every Bell state is a simultaneous eigenvector with the known
eigenvalue quadruple, and any two squared components already separate all
four states while (S^2, Sz^2) does not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcast.observables import (
    EXPECTED_EIGEN_TABLE,
    MEASUREMENT_ORDER,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    BellOutcome,
    SpinObservableSet,
    bell_measure,
    bell_projectors,
    bell_projectors_from_pair,
    bell_state,
    build_spin_observables,
    commutator_norms,
    distinguishes_all,
    minimal_pairs,
    signature_table,
    verify_bell_projector_routes,
    verify_eigen_table,
)
from bellcast.qcore import Operator, StateVector, tensor

ATOL_COMMUTE = 1e-12
ATOL_ROUTES = 1e-12

# Frozen eigenvalue quadruples (S^2, Sx^2, Sy^2, Sz^2), hbar = 1.
KNOWN_TABLE = {
    BellOutcome.PSI_PLUS: (2.0, 1.0, 1.0, 0.0),
    BellOutcome.PSI_MINUS: (0.0, 0.0, 0.0, 0.0),
    BellOutcome.PHI_PLUS: (2.0, 1.0, 0.0, 1.0),
    BellOutcome.PHI_MINUS: (2.0, 0.0, 1.0, 1.0),
}


def random_two_qubit_state(rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return StateVector(amps / np.linalg.norm(amps))


class TestBellBasis:
    def test_states_are_orthonormal(self):
        vectors = [bell_state(label).amplitudes for label in BellOutcome]
        gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)

    def test_singlet_amplitudes(self):
        got = bell_state(BellOutcome.PSI_MINUS).amplitudes
        np.testing.assert_allclose(
            got, [0, np.sqrt(0.5), -np.sqrt(0.5), 0], atol=1e-15
        )

    def test_measurement_order_is_signature_order(self):
        """Outcome index k has signature bits (sz^2, sx^2) == binary k."""
        for index, label in enumerate(MEASUREMENT_ORDER):
            sz_bit, sx_bit = label.signature
            assert 2 * sz_bit + sx_bit == index


class TestCommutation:
    def test_all_squared_pairs_commute(self):
        norms = commutator_norms(build_spin_observables())
        assert len(norms) == 6
        for pair, norm in norms.items():
            assert norm < ATOL_COMMUTE, pair

    def test_unsquared_components_do_not_commute(self):
        """Sanity check that the norm is not trivially zero: Sx and Sy clash."""
        sx = (np.kron(PAULI_X, PAULI_I) + np.kron(PAULI_I, PAULI_X)) / 2
        sy = (np.kron(PAULI_Y, PAULI_I) + np.kron(PAULI_I, PAULI_Y)) / 2
        assert np.max(np.abs(sx @ sy - sy @ sx)) > 0.5


class TestEigenTable:
    def test_matches_known_quadruples(self):
        table = verify_eigen_table(build_spin_observables())
        for label, expected in KNOWN_TABLE.items():
            assert table.rows[label] == pytest.approx(expected, abs=1e-12)

    def test_module_constant_agrees_with_frozen_copy(self):
        assert EXPECTED_EIGEN_TABLE == KNOWN_TABLE

    def test_bell_states_are_exact_eigenvectors(self):
        """Residual || O v - lambda v || vanishes for every entry."""
        observables = build_spin_observables().as_mapping()
        for label in BellOutcome:
            vec = bell_state(label).amplitudes
            for name, value in zip(observables, KNOWN_TABLE[label]):
                residual = observables[name].matrix @ vec - value * vec
                assert np.max(np.abs(residual)) < 1e-12, (label, name)

    def test_tampered_observables_are_rejected(self):
        good = build_spin_observables()
        bad = SpinObservableSet(
            s_total_sq=good.s_total_sq,
            sx_sq=good.sy_sq,  # swapped on purpose
            sy_sq=good.sx_sq,
            sz_sq=good.sz_sq,
        )
        with pytest.raises(ValueError, match="eigenvalue"):
            verify_eigen_table(bad)

    def test_total_spin_spectrum(self):
        """S^2 has the singlet eigenvalue 0 once and the triplet 2 thrice."""
        values = np.linalg.eigvalsh(build_spin_observables().s_total_sq.matrix)
        np.testing.assert_allclose(np.sort(values), [0, 2, 2, 2], atol=1e-12)


class TestSignatures:
    def test_component_pairs_separate_all_states(self):
        observables = build_spin_observables()
        for names in (("sx_sq", "sy_sq"), ("sy_sq", "sz_sq"), ("sz_sq", "sx_sq")):
            assert distinguishes_all(signature_table(observables, names)), names

    def test_total_and_z_pair_collides_on_phi_states(self):
        table = signature_table(build_spin_observables(), ("s_total_sq", "sz_sq"))
        assert table[BellOutcome.PHI_PLUS] == pytest.approx(
            table[BellOutcome.PHI_MINUS], abs=1e-12
        )
        assert not distinguishes_all(table)

    def test_minimal_pairs_enumerates_three(self):
        pairs = minimal_pairs()
        assert [p.names for p in pairs] == [
            ("sx_sq", "sy_sq"),
            ("sy_sq", "sz_sq"),
            ("sz_sq", "sx_sq"),
        ]
        for pair in pairs:
            assert distinguishes_all(pair.signatures)

    def test_unknown_observable_name_is_rejected(self):
        with pytest.raises(ValueError, match="unknown observable"):
            signature_table(build_spin_observables(), ("sx_sq", "bogus"))


class TestProjectorRoutes:
    def test_joint_eigenspace_route_matches_rank_one(self):
        assert verify_bell_projector_routes() < ATOL_ROUTES

    def test_pair_route_projectors_are_orthogonal_and_complete(self):
        from_pair = bell_projectors_from_pair()
        total = sum(p.matrix for p in from_pair.values())
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)
        for a in BellOutcome:
            for b in BellOutcome:
                product = from_pair[a].matrix @ from_pair[b].matrix
                expected = from_pair[a].matrix if a is b else np.zeros((4, 4))
                np.testing.assert_allclose(product, expected, atol=1e-12)

    def test_pair_route_projectors_have_rank_one(self):
        for label, projector in bell_projectors_from_pair().items():
            assert np.trace(projector.matrix).real == pytest.approx(1.0, abs=1e-12), label

    def test_embedded_projectors_resolve_identity(self):
        projectors = bell_projectors(3, (0, 1))
        total = sum(p.matrix for p in projectors)
        np.testing.assert_allclose(total, np.eye(8), atol=1e-12)


class TestBellMeasure:
    def test_each_bell_state_is_identified_deterministically(self):
        for label in BellOutcome:
            outcome, post = bell_measure(bell_state(label), (0, 1), 0.999)
            assert outcome is label
            overlap = abs(np.vdot(bell_state(label).amplitudes, post.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_identifies_pair_inside_larger_register(self):
        state = tensor(bell_state(BellOutcome.PHI_MINUS), StateVector(np.array([0.6, 0.8], dtype=complex)))
        outcome, post = bell_measure(state, (0, 1), 0.0)
        assert outcome is BellOutcome.PHI_MINUS
        np.testing.assert_allclose(
            post.tensor_view()[:, :, 0].ravel() * 0.6 + post.tensor_view()[:, :, 1].ravel() * 0.8,
            bell_state(BellOutcome.PHI_MINUS).amplitudes,
            atol=1e-12,
        )

    def test_rejects_wrong_qubit_count(self):
        with pytest.raises(ValueError, match="exactly two"):
            bell_measure(bell_state(BellOutcome.PSI_PLUS), (0,), 0.1)

    def test_rejects_non_integer_qubits(self):
        # int() would truncate (0.4, 1.6) to (0, 1).
        state = tensor(bell_state(BellOutcome.PSI_PLUS), StateVector(np.array([1, 0j])))
        with pytest.raises(ValueError, match=r"must be an integer, got 0\.4$"):
            bell_measure(state, (0.4, 1.6), 0.3)
        outcome, _ = bell_measure(state, (np.int64(0), np.int32(1)), 0.3)
        assert outcome is BellOutcome.PSI_PLUS

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_probabilities_sum_to_one(self, seed):
        state = random_two_qubit_state(np.random.default_rng(seed))
        total = 0.0
        for projector in bell_projectors(2, (0, 1)):
            amps = projector.matrix @ state.amplitudes
            total += float(np.vdot(state.amplitudes, amps).real)
        assert total == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_spectral_decomposition_reproduces_expectation(self, seed):
        """<S^2> equals the eigenvalue-weighted Bell probabilities."""
        state = random_two_qubit_state(np.random.default_rng(seed))
        s_total = build_spin_observables().s_total_sq.matrix
        direct = float(np.vdot(state.amplitudes, s_total @ state.amplitudes).real)
        weighted = 0.0
        for label in BellOutcome:
            vec = bell_state(label).amplitudes
            prob = abs(np.vdot(vec, state.amplitudes)) ** 2
            weighted += KNOWN_TABLE[label][0] * prob
        assert direct == pytest.approx(weighted, abs=1e-10)


def test_projector_product_order_is_irrelevant():
    """Commuting spectral projectors intersect the same way in either order."""
    observables = build_spin_observables()
    from bellcast.observables import _spectral_projector

    for label in BellOutcome:
        sz_val, sx_val = label.signature
        pz = _spectral_projector(observables.sz_sq, float(sz_val))
        px = _spectral_projector(observables.sx_sq, float(sx_val))
        np.testing.assert_allclose(pz @ px, px @ pz, atol=1e-13)


def test_operator_wrappers_expose_hermitian_matrices():
    for name, op in build_spin_observables().as_mapping().items():
        assert isinstance(op, Operator)
        np.testing.assert_allclose(op.matrix, op.matrix.conj().T, atol=0, err_msg=name)
