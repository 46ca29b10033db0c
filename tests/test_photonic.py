"""Tests for the photonic absorber cascade.

Two families of frozen oracles anchor this file.  The branch and transport
tables were derived by hand from the pair basis and the half-wave rotation;
the residual states after each failed absorption were likewise expanded by
hand and are rebuilt here term by term.  The parametric event distribution
under a partially transparent absorber (fire rate eta/4 per absorber, the
rest pooling in the coincidence signature) was derived independently of the
implementation and is pinned at several eta values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellcast.photonic import (
    CASCADE_DRAWS,
    EVENT_ORIGINAL_BRANCH,
    IDENTIFYING_EVENTS,
    WAVEPLATE,
    CascadeEventKind,
    CascadeStage,
    EfficiencyConfig,
    PairLabel,
    absorption_stage,
    analytic_distribution,
    build_three_mode,
    cascade_rows,
    correction_for_photonic,
    pair_basis_state,
    pair_components,
    pdc_pair,
    run_cascade,
    stage_final,
    waveplate,
)
from bellcast.qcore import StateVector, fidelity
from bellcast.teleport import UnknownState, haar_random_input

ATOL_STATE = 1e-12
SUCCESS_FIDELITY = 1.0 - 1e-10
IDEAL = EfficiencyConfig()

# Mode-2 branch component per pair label, for input a|R> + b|L>; every
# component carries amplitude 1/2 (branch probability 1/4).
BRANCH_COMPONENTS = {
    PairLabel.CHI_PLUS: lambda a, b: (b, -a),
    PairLabel.CHI_MINUS: lambda a, b: (-b, -a),
    PairLabel.GAMMA_PLUS: lambda a, b: (a, -b),
    PairLabel.GAMMA_MINUS: lambda a, b: (a, b),
}

# Half-wave rotation on the second photon of a pair state: label -> (sign,
# target label).
TRANSPORT = {
    PairLabel.CHI_PLUS: (-1, PairLabel.GAMMA_MINUS),
    PairLabel.CHI_MINUS: (-1, PairLabel.GAMMA_PLUS),
    PairLabel.GAMMA_PLUS: (1, PairLabel.CHI_MINUS),
    PairLabel.GAMMA_MINUS: (1, PairLabel.CHI_PLUS),
}


def pair_kron(label: PairLabel, mode2: tuple[complex, complex]) -> np.ndarray:
    return np.kron(pair_basis_state(label).amplitudes, np.array(mode2, dtype=complex))


@st.composite
def photon_inputs(draw):
    cos_theta = draw(st.floats(-1.0, 1.0, allow_nan=False))
    phi = draw(st.floats(0.0, 2 * np.pi, allow_nan=False))
    theta = np.arccos(cos_theta)
    return UnknownState(
        complex(np.cos(theta / 2)), np.exp(1j * phi) * np.sin(theta / 2)
    )


class TestPairBasis:
    def test_states_are_orthonormal(self):
        vectors = [pair_basis_state(label).amplitudes for label in PairLabel]
        gram = np.array([[np.vdot(u, v) for v in vectors] for u in vectors])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)

    def test_source_pair_is_the_odd_gamma_state(self):
        np.testing.assert_allclose(
            pdc_pair().amplitudes,
            [np.sqrt(0.5), 0, 0, -np.sqrt(0.5)],
            atol=1e-15,
        )

    def test_bell_analog_pairs_by_exchange_symmetry(self):
        from bellcast.observables import BellOutcome

        assert PairLabel.CHI_MINUS.bell_analog is BellOutcome.PSI_MINUS
        assert PairLabel.GAMMA_PLUS.bell_analog is BellOutcome.PHI_PLUS


class TestWaveplate:
    def test_matrix_action_on_circular_basis(self):
        np.testing.assert_allclose(WAVEPLATE.matrix @ [1, 0], [0, 1], atol=0)
        np.testing.assert_allclose(WAVEPLATE.matrix @ [0, 1], [-1, 0], atol=0)

    def test_is_unitary(self):
        product = WAVEPLATE.matrix @ WAVEPLATE.matrix.conj().T
        np.testing.assert_allclose(product, np.eye(2), atol=0)

    def test_double_pass_is_minus_identity(self):
        np.testing.assert_allclose(
            WAVEPLATE.matrix @ WAVEPLATE.matrix, -np.eye(2), atol=0
        )

    def test_transport_of_pair_states(self):
        """Rotating the second photon permutes the pair basis with signs."""
        for label, (sign, target) in TRANSPORT.items():
            moved = waveplate(pair_basis_state(label), 1)
            np.testing.assert_allclose(
                moved.amplitudes,
                sign * pair_basis_state(target).amplitudes,
                atol=ATOL_STATE,
                err_msg=f"{label} -> {target}",
            )


class TestBranchDecomposition:
    def test_components_match_hand_derived_table(self):
        input_state = UnknownState.normalized(0.6, 0.8j)
        components = pair_components(build_three_mode(input_state))
        for label, component in components.items():
            expected = np.array(
                BRANCH_COMPONENTS[label](input_state.a, input_state.b)
            ) * 0.5
            np.testing.assert_allclose(
                component.amplitudes, expected, atol=ATOL_STATE, err_msg=str(label)
            )

    @settings(max_examples=50, deadline=None)
    @given(photon_inputs())
    def test_every_branch_has_probability_one_quarter(self, input_state):
        components = pair_components(build_three_mode(input_state))
        for label, component in components.items():
            assert component.norm**2 == pytest.approx(0.25, abs=1e-12), label

    @settings(max_examples=50, deadline=None)
    @given(photon_inputs())
    def test_components_reassemble_the_state(self, input_state):
        state = build_three_mode(input_state)
        rebuilt = np.zeros(8, dtype=complex)
        for label, component in pair_components(state).items():
            rebuilt += np.kron(
                pair_basis_state(label).amplitudes, component.amplitudes
            )
        np.testing.assert_allclose(rebuilt, state.amplitudes, atol=ATOL_STATE)

    def test_corrections_match_hand_derived_matrices(self):
        """The corrections derived from the spin table, entry for entry."""
        hand_derived = {
            PairLabel.GAMMA_MINUS: [[1, 0], [0, 1]],  # already the input
            PairLabel.GAMMA_PLUS: [[1, 0], [0, -1]],  # flip the sign of |L>
            PairLabel.CHI_MINUS: [[0, 1], [1, 0]],  # swap R and L
            PairLabel.CHI_PLUS: [[0, -1], [1, 0]],  # |R> -> |L>, |L> -> -|R>
        }
        for label, matrix in hand_derived.items():
            expected = np.array(matrix, dtype=np.complex128)
            got = correction_for_photonic(label).matrix
            assert got.dtype == np.complex128, label
            assert np.array_equal(got, expected), label

    @settings(max_examples=50, deadline=None)
    @given(photon_inputs())
    def test_corrections_restore_the_input_per_branch(self, input_state):
        target = input_state.state_vector()
        components = pair_components(build_three_mode(input_state))
        for label, component in components.items():
            fixed = StateVector(
                correction_for_photonic(label).matrix
                @ component.normalized().amplitudes
            )
            assert fidelity(fixed, target) == pytest.approx(1.0, abs=1e-12), label


class TestCascadeResiduals:
    """Walk the ideal cascade stage by stage against hand-expanded states."""

    A = 0.6
    B = 0.8j

    def residual_after_first_miss(self) -> StateVector:
        a, b = self.A, self.B
        raw = (
            pair_kron(PairLabel.GAMMA_MINUS, (-b, a))
            + pair_kron(PairLabel.CHI_MINUS, (a, -b))
            + pair_kron(PairLabel.CHI_PLUS, (a, b))
        )
        return StateVector(raw / np.linalg.norm(raw))

    def residual_after_second_miss(self) -> StateVector:
        a, b = self.A, self.B
        raw = pair_kron(PairLabel.GAMMA_MINUS, (-b, a)) + pair_kron(
            PairLabel.CHI_PLUS, (a, b)
        )
        return StateVector(raw / np.linalg.norm(raw))

    def walk_to_second_absorber(self) -> StateVector:
        state = build_three_mode(UnknownState(self.A, self.B))
        absorbed, state = absorption_stage(state, 1.0, 0.9)
        assert not absorbed
        return waveplate(state, 1)

    def test_first_absorber_fire_probability(self):
        state = build_three_mode(UnknownState(self.A, self.B))
        absorbed, _ = absorption_stage(state, 1.0, 0.2499)
        assert absorbed

    def test_state_reaching_second_absorber(self):
        got = self.walk_to_second_absorber()
        assert fidelity(got, self.residual_after_first_miss()) > 1 - 1e-12

    def test_state_reaching_final_absorber(self):
        state = self.walk_to_second_absorber()
        absorbed, state = absorption_stage(state, 1.0, 0.9)
        assert not absorbed
        assert fidelity(state, self.residual_after_second_miss()) > 1 - 1e-12

    def test_final_absorber_splits_evenly(self):
        state = self.walk_to_second_absorber()
        _, state = absorption_stage(state, 1.0, 0.9)
        kind_fire, fired_state = stage_final(state, 1.0, 0.4999)
        assert kind_fire is CascadeEventKind.D4
        kind_miss, leftover = stage_final(state, 1.0, 0.5001)
        assert kind_miss is CascadeEventKind.D3_COINCIDENCE
        # The D4 branch holds the input unchanged on mode 2.
        fired = pair_components(fired_state)[PairLabel.CHI_PLUS].normalized()
        np.testing.assert_allclose(
            fired.amplitudes, [self.A, self.B], atol=ATOL_STATE
        )
        # The leftover is the rotated image of the symmetric-pair branch.
        expected = pair_kron(PairLabel.GAMMA_MINUS, (-self.B, self.A))
        np.testing.assert_allclose(
            leftover.amplitudes, expected / np.linalg.norm(expected), atol=ATOL_STATE
        )

    def test_window_draw_validation(self):
        state = build_three_mode(UnknownState(1.0, 0.0))
        for stage in (absorption_stage, stage_final):
            for bad in (1.0, float("nan")):
                with pytest.raises(ValueError, match=rf"rng_sample .*, got {bad}$"):
                    stage(state, 1.0, bad)
            with pytest.raises(ValueError, match=r"eta_abs .*, got 1.5$"):
                stage(state, 1.5, 0.5)


class TestEfficiencyConfig:
    def test_defaults_are_ideal(self):
        cfg = EfficiencyConfig()
        assert (cfg.eta_abs, cfg.eta_det, cfg.p_in, cfg.p_pdc) == (1, 1, 1, 1)

    @pytest.mark.parametrize("field", ["eta_abs", "eta_det", "p_in", "p_pdc"])
    def test_out_of_range_values_are_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            EfficiencyConfig(**{field: 1.2})


class TestIdealCascade:
    def test_every_trial_identifies_and_restores(self):
        rng = np.random.default_rng(6)
        for trial in range(300):
            record = run_cascade(haar_random_input(rng), IDEAL, trial)
            assert record.event.kind in IDENTIFYING_EVENTS
            assert record.fidelity_value is not None
            assert record.fidelity_value >= SUCCESS_FIDELITY

    def test_all_four_signatures_appear(self):
        seen = set()
        for seed in range(300):
            record = run_cascade(UnknownState(0.0, 1.0), IDEAL, seed)
            seen.add(record.event.kind)
            if len(seen) == 4:
                break
        assert seen == IDENTIFYING_EVENTS

    @pytest.mark.parametrize(
        "cfg",
        [IDEAL, EfficiencyConfig(eta_abs=0.5, eta_det=0.9, p_in=0.9, p_pdc=0.9)],
        ids=["ideal", "lossy"],
    )
    def test_event_metadata_names_stage_and_branch(self, cfg):
        expected_stage = {
            CascadeEventKind.D1: CascadeStage.FIRST_SINGLET_ABSORBER,
            CascadeEventKind.D2: CascadeStage.SECOND_SINGLET_ABSORBER,
            CascadeEventKind.D4: CascadeStage.FINAL_ABSORBER,
            CascadeEventKind.D3_COINCIDENCE: CascadeStage.FINAL_ABSORBER,
        }
        expected_kinds = set(CascadeEventKind) if cfg != IDEAL else IDENTIFYING_EVENTS
        seen = {}
        for seed in range(1000):
            record = run_cascade(UnknownState.normalized(1, 1), cfg, seed)
            seen[record.event.kind] = record.event
            if len(seen) == len(expected_kinds):
                break
        assert set(seen) == expected_kinds
        for kind, event in seen.items():
            assert event.stage is expected_stage.get(kind)
            assert event.original_bell is EVENT_ORIGINAL_BRANCH.get(kind)
            if kind not in IDENTIFYING_EVENTS:
                assert event.stage is None and event.original_bell is None

    def test_same_seed_reproduces_the_record(self):
        input_state = UnknownState.normalized(2.0, 1.0j)
        first = run_cascade(input_state, IDEAL, 512)
        second = run_cascade(input_state, IDEAL, 512)
        assert first.event == second.event
        np.testing.assert_array_equal(
            first.bob_post.amplitudes, second.bob_post.amplitudes
        )

    @settings(max_examples=30, deadline=None)
    @given(photon_inputs())
    def test_analytic_distribution_is_uniform(self, input_state):
        table = analytic_distribution(input_state, IDEAL)
        for kind in IDENTIFYING_EVENTS:
            assert table[kind] == pytest.approx(0.25, abs=1e-12), kind
        assert table[CascadeEventKind.NO_EVENT] == pytest.approx(0.0, abs=1e-12)


class TestLossyCascade:
    def test_fire_rates_scale_linearly_with_absorber_efficiency(self):
        """Each absorber fires at eta/4; everything else drains to the
        coincidence pair, giving D3C weight 1 - 3*eta/4."""
        input_state = UnknownState.normalized(0.6, 0.8)
        for eta in (0.3, 0.5, 0.75, 0.9):
            table = analytic_distribution(
                input_state, EfficiencyConfig(eta_abs=eta)
            )
            for kind in (
                CascadeEventKind.D1,
                CascadeEventKind.D2,
                CascadeEventKind.D4,
            ):
                assert table[kind] == pytest.approx(eta / 4, abs=1e-12), (eta, kind)
            assert table[CascadeEventKind.D3_COINCIDENCE] == pytest.approx(
                1 - 0.75 * eta, abs=1e-12
            )
            assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_half_transparent_absorbers_frozen_table(self):
        table = analytic_distribution(
            UnknownState(1.0, 0.0), EfficiencyConfig(eta_abs=0.5)
        )
        assert table[CascadeEventKind.D1] == pytest.approx(0.125, abs=1e-12)
        assert table[CascadeEventKind.D2] == pytest.approx(0.125, abs=1e-12)
        assert table[CascadeEventKind.D4] == pytest.approx(0.125, abs=1e-12)
        assert table[CascadeEventKind.D3_COINCIDENCE] == pytest.approx(
            0.625, abs=1e-12
        )

    def test_monte_carlo_tracks_the_analytic_table(self):
        cfg = EfficiencyConfig(eta_abs=0.5)
        input_state = UnknownState.normalized(1.0, 1.0)
        counts = {kind: 0 for kind in CascadeEventKind}
        trials = 4000
        for seed in range(trials):
            counts[run_cascade(input_state, cfg, seed).event.kind] += 1
        table = analytic_distribution(input_state, cfg)
        for kind in IDENTIFYING_EVENTS:
            assert counts[kind] / trials == pytest.approx(table[kind], abs=0.03), kind

    def test_fired_absorber_events_stay_faithful_under_leaks(self):
        """Absorber clicks certify their branch exactly even when earlier
        absorbers were transparent; only the passive coincidence inherits
        leaked branches."""
        cfg = EfficiencyConfig(eta_abs=0.5)
        input_state = UnknownState.normalized(0.6, 0.8)
        coincidence_fidelities = []
        for seed in range(1500):
            record = run_cascade(input_state, cfg, seed)
            if record.event.kind in (
                CascadeEventKind.D1,
                CascadeEventKind.D2,
                CascadeEventKind.D4,
            ):
                assert record.fidelity_value >= SUCCESS_FIDELITY
            elif record.event.kind is CascadeEventKind.D3_COINCIDENCE:
                coincidence_fidelities.append(record.fidelity_value)
        assert min(coincidence_fidelities) < 0.999
        assert max(coincidence_fidelities) >= SUCCESS_FIDELITY

    def test_detector_filter_scales_identifying_events(self):
        table = analytic_distribution(
            UnknownState(1.0, 0.0), EfficiencyConfig(eta_det=0.7)
        )
        for kind in IDENTIFYING_EVENTS:
            assert table[kind] == pytest.approx(0.175, abs=1e-12), kind
        assert table[CascadeEventKind.NO_EVENT] == pytest.approx(0.3, abs=1e-12)

    def test_zero_detector_efficiency_reports_nothing(self):
        cfg = EfficiencyConfig(eta_det=0.0)
        for seed in range(50):
            record = run_cascade(UnknownState(1.0, 0.0), cfg, seed)
            assert record.event.kind is CascadeEventKind.NO_EVENT
            assert record.fidelity_value is None


class TestAnalyticInputIndependence:
    """A Haar photon batch takes its chi-square reference table from
    ``UnknownState(1, 0)``, which holds only while the event table does not
    depend on the input.  The tables agree to about 1e-16 per cell, but not
    bit for bit, so the comparison keeps a 1e-12 tolerance."""

    @pytest.mark.parametrize(
        "cfg",
        [
            IDEAL,
            EfficiencyConfig(eta_abs=0.9, eta_det=0.8, p_in=0.95, p_pdc=0.95),
            EfficiencyConfig(eta_abs=0.5, eta_det=0.9, p_in=0.9, p_pdc=0.9),
            EfficiencyConfig(eta_abs=0.2),
        ],
        ids=["ideal", "a.9-d.8-p.95", "a.5-d.9-p.9", "a.2"],
    )
    def test_event_table_is_the_same_for_every_input(self, cfg):
        reference = analytic_distribution(UnknownState(1.0, 0.0), cfg)
        rng = np.random.default_rng(2718)
        inputs = [
            UnknownState(1.0, 0.0),
            UnknownState(0.0, 1.0),
            UnknownState.normalized(0.6, 0.8j),
            UnknownState.normalized(0.3, 0.2 + 0.7j),
        ]
        inputs += [haar_random_input(rng) for _ in range(20)]
        for input_state in inputs:
            table = analytic_distribution(input_state, cfg)
            for kind in CascadeEventKind:
                assert table[kind] == pytest.approx(reference[kind], abs=1e-12), kind


class TestAnalyticBits:
    """The oracle's exact floats, so a change to the operations it uses
    (``apply`` through ``waveplate``, the pair projection) shows up here and
    not only in the record digests."""

    @pytest.mark.parametrize(
        "cfg, input_state, expected",
        [
            pytest.param(
                EfficiencyConfig(eta_abs=0.9, eta_det=0.8, p_in=0.95, p_pdc=0.95),
                UnknownState.normalized(0.6, 0.8j),
                ["0.1624500000000001", "0.16244999999999996", "0.16244999999999996",
                 "0.23465", "0.038000000000000034", "0.038000000000000034", "0.202"],
                id="a.9-d.8-p.95-fixed",
            ),
            pytest.param(
                EfficiencyConfig(eta_abs=0.5, eta_det=0.9, p_in=0.9, p_pdc=0.9),
                UnknownState(1.0, 0.0),
                ["0.09112500000000004", "0.09112500000000004", "0.09112499999999998",
                 "0.45562499999999995", "0.08099999999999999", "0.08099999999999999",
                 "0.10899999999999996"],
                id="a.5-d.9-p.9-R",
            ),
        ],
    )
    def test_event_table_reprs(self, cfg, input_state, expected):
        table = analytic_distribution(input_state, cfg)
        assert list(table) == list(CascadeEventKind)
        assert [repr(value) for value in table.values()] == expected


class TestSourceFailures:
    def test_missing_input_photon_gives_lower_single(self):
        cfg = EfficiencyConfig(p_in=0.0)
        record = run_cascade(UnknownState(1.0, 0.0), cfg, 3)
        assert record.event.kind is CascadeEventKind.D3_SINGLE_LOWER
        assert record.bob_pre is None and record.bob_post is None

    def test_missing_pair_gives_top_single(self):
        cfg = EfficiencyConfig(p_pdc=0.0)
        record = run_cascade(UnknownState(1.0, 0.0), cfg, 3)
        assert record.event.kind is CascadeEventKind.D3_SINGLE_TOP

    def test_both_sources_dark_gives_no_event(self):
        cfg = EfficiencyConfig(p_in=0.0, p_pdc=0.0)
        record = run_cascade(UnknownState(1.0, 0.0), cfg, 3)
        assert record.event.kind is CascadeEventKind.NO_EVENT

    def test_analytic_source_split(self):
        cfg = EfficiencyConfig(p_in=0.8, p_pdc=0.9)
        table = analytic_distribution(UnknownState(1.0, 0.0), cfg)
        assert table[CascadeEventKind.D3_SINGLE_LOWER] == pytest.approx(
            0.2 * 0.9, abs=1e-12
        )
        assert table[CascadeEventKind.D3_SINGLE_TOP] == pytest.approx(
            0.8 * 0.1, abs=1e-12
        )
        for kind in IDENTIFYING_EVENTS:
            assert table[kind] == pytest.approx(0.72 / 4, abs=1e-12), kind
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_single_counts_respect_detector_efficiency(self):
        cfg = EfficiencyConfig(p_in=0.0, eta_det=0.5)
        kinds = {
            run_cascade(UnknownState(1.0, 0.0), cfg, seed).event.kind
            for seed in range(60)
        }
        assert kinds == {
            CascadeEventKind.D3_SINGLE_LOWER,
            CascadeEventKind.NO_EVENT,
        }


# Draw values that steer the cascade: a source is lit or dark against
# p = 0.5, an ideal absorber fires or passes (branch weights are 1/4, 1/3
# and 1/2 in turn), and the detection draw keeps or loses the signature
# against eta_det = 0.5.
LIT, DARK = 0.0, 0.99
FIRE, PASS = 0.0, 0.99
DETECTED, LOST = 0.0, 0.99


class TestDrawCount:
    """A trial reads only its path's first draws: rewriting any column past
    them with other valid draws leaves its outputs byte-identical, while
    some valid rewrite of the last column it reads changes them."""

    CFG = EfficiencyConfig(eta_det=0.5, p_in=0.5, p_pdc=0.5)
    INPUT = UnknownState(0.6, 0.8j).state_vector().amplitudes[None]
    # Valid draws for the rewrites: both ends of [0, 1) and points between.
    REWRITES = (0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0))

    def outputs(self, values) -> list[bytes]:
        """The bytes of the trial's code, ``bob_pre``, ``bob_post`` and
        fidelity."""
        draws = np.array([values], dtype=np.float64)
        return [column.tobytes() for column in cascade_rows(self.INPUT, self.CFG, draws)]

    @pytest.mark.parametrize(
        "steer, kind, expected",
        [
            pytest.param(steer, kind, expected, id=kind.value)
            for steer, kind, expected in [
                ((DARK, DARK), CascadeEventKind.NO_EVENT, 2),
                ((LIT, DARK), CascadeEventKind.D3_SINGLE_TOP, 3),
                ((DARK, LIT), CascadeEventKind.D3_SINGLE_LOWER, 3),
                ((LIT, LIT, FIRE), CascadeEventKind.D1, 4),
                ((LIT, LIT, PASS, FIRE), CascadeEventKind.D2, 5),
                ((LIT, LIT, PASS, PASS, FIRE), CascadeEventKind.D4, 6),
                ((LIT, LIT, PASS, PASS, PASS, 0.5), CascadeEventKind.D3_COINCIDENCE, 7),
            ]
        ],
    )
    @pytest.mark.parametrize("detection", [DETECTED, LOST], ids=["detected", "lost"])
    def test_draws_consumed_per_outcome(self, steer, kind, expected, detection):
        values = (steer + (detection,) + (0.5,) * CASCADE_DRAWS)[:CASCADE_DRAWS]
        codes, _, _, fidelities = cascade_rows(
            self.INPUT, self.CFG, np.array([values], dtype=np.float64)
        )
        if detection == LOST:
            kind = CascadeEventKind.NO_EVENT
        identifying = kind in IDENTIFYING_EVENTS
        assert list(CascadeEventKind)[codes[0]] is kind
        assert np.isfinite(fidelities[0]) == identifying
        # Every column past the first ``expected`` rewritten: each to one
        # value, and to random draws.
        outputs, unread = self.outputs(values), CASCADE_DRAWS - expected
        rng = np.random.default_rng(expected)
        rewrites = [(value,) * unread for value in self.REWRITES]
        rewrites += [tuple(rng.random(unread)) for _ in range(4)]
        for rewrite in rewrites:
            assert self.outputs(values[:expected] + rewrite) == outputs, rewrite
        # The last column read is read: some value of it changes the trial,
        # under one of the rewrites above (a lost single count hides a lit
        # source behind its detection draw).
        last = expected - 1
        assert any(
            self.outputs(values[:last] + (value,) + rewrite) != outputs
            for value in self.REWRITES
            for rewrite in rewrites
        )
