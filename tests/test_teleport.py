"""Tests for the spin-side teleportation protocol.

The branch table frozen below was worked out by hand from the Bell
expansion of (a|u> + b|d>) tensor the singlet, and the tests check both
directions: the table is what the decomposition produces, and reassembling
the branches recovers the three-qubit state exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcast.observables import BellOutcome, bell_state
from bellcast.qcore import StateVector, fidelity, tensor
from bellcast.teleport import (
    ClassicalMessage,
    TrialRecord,
    UnknownState,
    checked_input,
    correction_for,
    decompose_branches,
    haar_random_input,
    prepare_singlet,
    run_baseline_computational,
    run_entangled_input,
    run_trial,
)

ATOL_BRANCH = 1e-12
SUCCESS_FIDELITY = 1.0 - 1e-10

# Hand-derived conditional states of the receiver's qubit, one per Bell
# branch of the sender's pair, all with amplitude coefficient 1/2.
BRANCH_TABLE = {
    BellOutcome.PSI_MINUS: lambda a, b: (-a, -b),
    BellOutcome.PSI_PLUS: lambda a, b: (-a, b),
    BellOutcome.PHI_MINUS: lambda a, b: (b, a),
    BellOutcome.PHI_PLUS: lambda a, b: (-b, a),
}


@st.composite
def unknown_states(draw):
    re_a = draw(st.floats(-1, 1, allow_nan=False))
    im_a = draw(st.floats(-1, 1, allow_nan=False))
    re_b = draw(st.floats(-1, 1, allow_nan=False))
    im_b = draw(st.floats(-1, 1, allow_nan=False))
    a = re_a + 1j * im_a
    b = re_b + 1j * im_b
    if abs(a) ** 2 + abs(b) ** 2 < 1e-6:
        a = 1.0
        b = 0.0
    return UnknownState.normalized(a, b)


class TestUnknownState:
    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError, match="not normalized"):
            UnknownState(1.0, 1.0)

    def test_rejects_nan_amplitude(self):
        with pytest.raises(ValueError, match="not normalized"):
            UnknownState(float("nan"), 0)

    @pytest.mark.parametrize("a", [1e200, complex(1e308, 1e308)])
    def test_rejects_overflowing_amplitude(self, a):
        with pytest.raises(ValueError, match=r"not normalized: .* = inf$"):
            UnknownState(a, 0)

    def test_normalized_rejects_overflowing_amplitude(self):
        with pytest.raises(ValueError, match=r"cannot normalize .* = inf$"):
            UnknownState.normalized(1e200, 0)

    def test_normalized_constructor(self):
        state = UnknownState.normalized(3.0, 4.0j)
        assert state.a == pytest.approx(0.6)
        assert state.b == pytest.approx(0.8j)

    def test_normalized_rejects_zero(self):
        with pytest.raises(ValueError, match="zero input"):
            UnknownState.normalized(0.0, 0.0)

    def test_checked_input_rescales_within_1e_9(self):
        a, b = 0.6 + 4e-10, 0.8j
        assert checked_input(a, b) == UnknownState.normalized(a, b)

    @pytest.mark.parametrize("a, shown", [(0.6 + 1e-8, "1.000000012"), (1e200, "inf")])
    def test_checked_input_rejects(self, a, shown):
        message = rf"^input not normalized \(\|a\|\^2\+\|b\|\^2 = {shown}\)$"
        with pytest.raises(ValueError, match=message):
            checked_input(a, 0.8j)

    def test_haar_sampling_is_deterministic_per_seed(self):
        first = haar_random_input(np.random.default_rng(7))
        second = haar_random_input(np.random.default_rng(7))
        assert first == second

    def test_haar_mean_weight_is_balanced(self):
        """Uniform cos(theta) makes E[|a|^2] = 1/2."""
        rng = np.random.default_rng(101)
        weights = [abs(haar_random_input(rng).a) ** 2 for _ in range(4000)]
        assert np.mean(weights) == pytest.approx(0.5, abs=0.03)


class TestClassicalMessage:
    def test_roundtrip_through_bits(self):
        for outcome in BellOutcome:
            message = ClassicalMessage.from_outcome(outcome)
            assert message.to_outcome() is outcome

    def test_bit_strings(self):
        strings = {
            outcome: ClassicalMessage.from_outcome(outcome).as_string()
            for outcome in BellOutcome
        }
        assert strings == {
            BellOutcome.PSI_MINUS: "00",
            BellOutcome.PSI_PLUS: "01",
            BellOutcome.PHI_MINUS: "10",
            BellOutcome.PHI_PLUS: "11",
        }

    def test_rejects_non_binary_bits(self):
        with pytest.raises(ValueError, match="0/1"):
            ClassicalMessage((0, 2))


class TestBranchDecomposition:
    def test_matches_hand_derived_table(self):
        input_state = UnknownState.normalized(0.6, 0.8j)
        for label, branch, coefficient in decompose_branches(input_state):
            expected = BRANCH_TABLE[label](input_state.a, input_state.b)
            assert coefficient == pytest.approx(0.5, abs=0)
            np.testing.assert_allclose(
                branch.amplitudes, expected, atol=ATOL_BRANCH, err_msg=str(label)
            )

    def test_branch_order_follows_measurement_order(self):
        labels = [label for label, _, _ in decompose_branches(UnknownState(1.0, 0.0))]
        assert labels == list(BellOutcome)

    @settings(max_examples=50, deadline=None)
    @given(unknown_states())
    def test_branches_reassemble_the_full_state(self, input_state):
        """sum_k c_k |Bell_k> x |branch_k> is the input tensor the singlet."""
        full = tensor(input_state.state_vector(), prepare_singlet())
        rebuilt = np.zeros(8, dtype=complex)
        for label, branch, coefficient in decompose_branches(input_state):
            rebuilt += coefficient * np.kron(
                bell_state(label).amplitudes, branch.amplitudes
            )
        np.testing.assert_allclose(rebuilt, full.amplitudes, atol=ATOL_BRANCH)

    @settings(max_examples=50, deadline=None)
    @given(unknown_states())
    def test_every_branch_probability_is_one_quarter(self, input_state):
        for _, branch, coefficient in decompose_branches(input_state):
            prob = coefficient**2 * branch.norm**2
            assert prob == pytest.approx(0.25, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(unknown_states())
    def test_unconditioned_receiver_state_is_maximally_mixed(self, input_state):
        """Averaging the branches hides the input: no signalling without bits."""
        rho = np.zeros((2, 2), dtype=complex)
        for _, branch, _ in decompose_branches(input_state):
            rho += 0.25 * np.outer(branch.amplitudes, branch.amplitudes.conj())
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


class TestCorrections:
    def test_corrections_are_unitary(self):
        for outcome in BellOutcome:
            matrix = correction_for(outcome).matrix
            np.testing.assert_allclose(
                matrix @ matrix.conj().T, np.eye(2), atol=1e-12
            )

    @settings(max_examples=50, deadline=None)
    @given(unknown_states())
    def test_each_correction_restores_the_input(self, input_state):
        target = input_state.state_vector()
        for label, branch, _ in decompose_branches(input_state):
            fixed = StateVector(
                correction_for(label).matrix @ branch.normalized().amplitudes
            )
            assert fidelity(fixed, target) == pytest.approx(1.0, abs=1e-12), label


class TestRunTrial:
    def test_fidelity_is_always_one(self):
        rng = np.random.default_rng(13)
        for trial in range(200):
            record = run_trial(haar_random_input(rng), trial)
            assert record.fidelity_value >= SUCCESS_FIDELITY

    def test_same_seed_reproduces_the_record(self):
        input_state = UnknownState.normalized(1.0, 1.0j)
        first = run_trial(input_state, 99)
        second = run_trial(input_state, 99)
        assert first.outcome is second.outcome
        np.testing.assert_array_equal(
            first.bob_post.amplitudes, second.bob_post.amplitudes
        )

    def test_message_bits_track_the_outcome(self):
        for seed in range(40):
            record = run_trial(UnknownState.normalized(0.8, 0.6), seed)
            assert record.message is not None
            assert record.message.to_outcome() is record.outcome

    def test_all_four_outcomes_occur(self):
        seen = set()
        for seed in range(200):
            seen.add(run_trial(UnknownState(0.0, 1.0), seed).outcome)
            if len(seen) == 4:
                break
        assert seen == set(BellOutcome)

    def test_outcome_frequencies_are_uniform(self):
        counts = {outcome: 0 for outcome in BellOutcome}
        for seed in range(4000):
            counts[run_trial(UnknownState(1.0, 0.0), seed).outcome] += 1
        for outcome, count in counts.items():
            assert count / 4000 == pytest.approx(0.25, abs=0.03), outcome

    def test_pre_correction_state_differs_on_flip_branches(self):
        """Before the message arrives the receiver holds the raw branch."""
        input_state = UnknownState.normalized(1.0, 3.0)
        for seed in range(60):
            record = run_trial(input_state, seed)
            raw = fidelity(record.bob_pre, input_state.state_vector())
            if record.outcome in (BellOutcome.PHI_MINUS, BellOutcome.PHI_PLUS):
                assert raw < 0.999
        record = run_trial(input_state, 0)
        assert record.bob_pre.norm == pytest.approx(1.0, abs=1e-12)

    def test_record_validates_fidelity_range(self):
        with pytest.raises(ValueError, match="outside"):
            TrialRecord(
                input=UnknownState(1.0, 0.0),
                outcome=None,
                message=None,
                bob_pre=UnknownState(1.0, 0.0).state_vector(),
                bob_post=UnknownState(1.0, 0.0).state_vector(),
                fidelity_value=1.5,
                rng_seed=0,
            )


class TestEntangledInput:
    def test_swapped_pair_is_singlet_for_every_outcome(self):
        singlet = prepare_singlet()
        seen = set()
        for seed in range(120):
            outcome, final = run_entangled_input(seed)
            seen.add(outcome)
            assert fidelity(final, singlet) >= SUCCESS_FIDELITY
            if len(seen) == 4:
                break
        assert seen == set(BellOutcome)


class TestBaseline:
    def test_success_rate_is_one_quarter(self):
        input_state = UnknownState.normalized(0.6, 0.8)
        wins = sum(
            run_baseline_computational(input_state, seed)[0] for seed in range(3000)
        )
        assert wins / 3000 == pytest.approx(0.25, abs=0.03)

    def test_success_records_are_perfect_singlet_identifications(self):
        input_state = UnknownState.normalized(1.0, 2.0j)
        for seed in range(200):
            success, record = run_baseline_computational(input_state, seed)
            if success:
                assert record.outcome is BellOutcome.PSI_MINUS
                assert record.fidelity_value == pytest.approx(1.0, abs=1e-12)
            else:
                assert record.outcome is None
                assert record.message is None

    def test_failure_fidelity_for_up_input(self):
        """Input |u>: failures split into fidelity-0 collapses (pair read uu,
        weight 1/2) and unlucky coin flips that still hold |u> (weight 1/4),
        so the mean failure fidelity is 1/3."""
        input_state = UnknownState(1.0, 0.0)
        failures = []
        for seed in range(3000):
            success, record = run_baseline_computational(input_state, seed)
            if not success:
                failures.append(record.fidelity_value)
                assert record.fidelity_value == pytest.approx(
                    0.0, abs=1e-12
                ) or record.fidelity_value == pytest.approx(1.0, abs=1e-12)
        assert np.mean(failures) == pytest.approx(1 / 3, abs=0.04)

    def test_baseline_loses_where_bell_measurement_wins(self):
        rng = np.random.default_rng(401)
        inputs = [haar_random_input(rng) for _ in range(300)]
        baseline_wins = 0
        for seed, input_state in enumerate(inputs):
            success, _ = run_baseline_computational(input_state, seed)
            baseline_wins += success
            assert run_trial(input_state, seed).fidelity_value >= SUCCESS_FIDELITY
        assert baseline_wins < 150
