"""The row-batched kernel against the scalar rules it must reproduce bit for bit.

``measure_projective`` stays independent of the kernel, so it is the oracle
for ``measure_rows``.  Both get the same states and draws at the edges of the
outcome rule: a draw of 0.0, each exact cumulative edge (a draw on an edge
resolves to the next outcome), and ``nextafter(1, 0)``, which lies past every
edge of a slightly sub-normalized state and so exercises the fallback to the
highest outcome above ``MIN_PROBABILITY``.  The cascade's coincidence sampler
is checked the same way against its clamp rule, and every error a batch
raises must read as the one-trial call's.  The Haar inputs are checked
against the scalar numpy calls, and swap's once-per-outcome steps against
running them on every row.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from bellcast.observables import (
    MEASUREMENT_ORDER,
    BellOutcome,
    bell_projectors,
    bell_state,
)
from bellcast.photonic import (
    CASCADE_DRAWS,
    CascadeEventKind,
    EfficiencyConfig,
    PairLabel,
    _sample_pair_branch_rows,
    build_three_mode,
    cascade_rows,
    pair_basis_state,
    pair_components,
    run_cascade,
    waveplate,
)
from bellcast.qcore import (
    StateVector,
    fidelity_rows,
    measure_projective,
    measure_rows,
    normalized_rows,
    tensor,
)
from bellcast.stream import derive_seeds, uniforms
from bellcast.teleport import (
    _BELL_BRAS,
    _CORRECTION_MATRICES,
    _SWAP_STATE,
    _projector_stack,
    UnknownState,
    haar_from_uniforms,
    haar_random_input,
    haar_rows,
    prepare_singlet,
    run_entangled_input,
    run_trial,
    swap_rows,
    teleport_rows,
)

LAST_BELOW_ONE = float(np.nextafter(1.0, 0.0))
# Inside the 1e-9 normalization tolerance, but short of 1 by far more than
# rounding: every cumulative edge ends below LAST_BELOW_ONE.
SHORT = 1.0 - 1e-12


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(amps / np.linalg.norm(amps))


def scaled(state: StateVector, factor: float) -> StateVector:
    return StateVector(state.amplitudes * factor)


def edge_draws(state: StateVector, projectors) -> list[float]:
    """0.0, each cumulative edge below 1 and ``nextafter(1, 0)``, with the
    edges summed exactly as measure_projective sums them."""
    amps = state.amplitudes
    probs = [max(float(np.vdot(amps, p.matrix @ amps).real), 0.0) for p in projectors]
    edges = [edge for edge in np.cumsum(probs).tolist() if edge < 1.0]
    return [0.0, *edges, LAST_BELOW_ONE]


def measure_both(states: list[StateVector], projectors):
    """Every (state, edge draw) pair through the batch and the scalar rule."""
    cases = [(s, d) for s in states for d in edge_draws(s, projectors)]
    chosen, post = measure_rows(
        np.array([s.amplitudes for s, _ in cases]),
        np.array([p.matrix for p in projectors]),
        np.array([d for _, d in cases]),
    )
    for row, (state, draw) in enumerate(cases):
        expected = measure_projective(state, projectors, draw)
        assert chosen[row] == expected.outcome_index, (row, draw)
        assert post[row].tobytes() == expected.post_state.amplitudes.tobytes(), row
    return cases, chosen


class TestMeasureRowsEdges:
    def test_spin_register(self):
        rng = np.random.default_rng(3)
        projectors = bell_projectors(3, (0, 1))
        inputs = [UnknownState(1.0, 0.0), UnknownState.normalized(0.6, 0.8j)]
        inputs += [haar_random_input(rng) for _ in range(4)]
        protocol = [tensor(s.state_vector(), prepare_singlet()) for s in inputs]
        # Only PsiPlus is live: the fallback must pick it, not the last outcome.
        single = tensor(bell_state(BellOutcome.PSI_PLUS), StateVector([1.0, 0.0]))
        states = protocol + [random_state(rng, 8) for _ in range(4)]
        states += [scaled(s, SHORT) for s in states] + [scaled(single, SHORT)]
        cases, chosen = measure_both(states, projectors)
        assert cases[-1][1] == LAST_BELOW_ONE
        assert MEASUREMENT_ORDER[chosen[-1]] is BellOutcome.PSI_PLUS

    def test_swap_register(self):
        rng = np.random.default_rng(4)
        projectors = bell_projectors(4, (1, 2))
        # Qubits (1, 2) in PhiMinus: the fallback must not pick PhiPlus.
        phi_minus = tensor(
            tensor(StateVector([1.0, 0.0]), bell_state(BellOutcome.PHI_MINUS)),
            StateVector([0.0, 1.0]),
        )
        states = [tensor(prepare_singlet(), prepare_singlet())]
        states += [random_state(rng, 16) for _ in range(4)]
        states += [scaled(s, SHORT) for s in states] + [scaled(phi_minus, SHORT)]
        cases, chosen = measure_both(states, projectors)
        assert MEASUREMENT_ORDER[chosen[-1]] is BellOutcome.PHI_MINUS

    def test_degenerate_rows_raise_as_the_scalar_rule(self):
        # A projector set that misses the state: every probability is zero.
        state = tensor(bell_state(BellOutcome.PSI_MINUS), StateVector([1.0, 0.0]))
        projectors = bell_projectors(3, (0, 1))[1:]
        live = tensor(bell_state(BellOutcome.PSI_PLUS), StateVector([1.0, 0.0]))
        with pytest.raises(ValueError) as many:
            measure_rows(
                np.array([live.amplitudes, state.amplitudes]),
                np.array([p.matrix for p in projectors]),
                np.array([0.5, 0.5]),
            )
        assert str(many.value) == (
            "all outcome probabilities are degenerate (below 1e-15)"
        )
        # The scalar rule audits its projector set before it measures.
        with pytest.raises(ValueError) as one:
            measure_projective(state, projectors, 0.5)
        assert str(one.value) == "projector set incomplete: sum differs from identity"


def reference_branch(state: StateVector, u: float) -> np.ndarray:
    """The coincidence rule on scalar pair projections:
    ``searchsorted(cum, u * cum[-1], "right")``, clamped to the last branch."""
    components = list(pair_components(state).values())
    weights = [
        min(float(np.vdot(c.amplitudes, c.amplitudes).real), 1.0) for c in components
    ]
    cumulative = np.cumsum(weights)
    index = int(np.searchsorted(cumulative, u * cumulative[-1], side="right"))
    return components[min(index, len(components) - 1)].normalized().amplitudes


class TestCoincidenceClamp:
    def test_sampler_follows_the_clamp_rule(self):
        rng = np.random.default_rng(5)
        # Branch weights (w, w', 0, 0): past the last live edge the rule must
        # pick ChiMinus, never a branch of weight zero.
        leading = StateVector(
            np.kron(pair_basis_state(PairLabel.CHI_PLUS).amplitudes, [0.6, 0.8j])
            + np.kron(pair_basis_state(PairLabel.CHI_MINUS).amplitudes, [0.0, 1.0])
        ).normalized()
        states = [leading] + [random_state(rng, 8) for _ in range(6)]
        cases = [(s, u) for s in states for u in (0.0, 0.5, LAST_BELOW_ONE)]
        picked = _sample_pair_branch_rows(
            np.array([s.amplitudes for s, _ in cases]), np.array([u for _, u in cases])
        )
        for row, (state, u) in enumerate(cases):
            assert picked[row].tobytes() == reference_branch(state, u).tobytes(), row
        chi_minus = pair_components(leading)[PairLabel.CHI_MINUS].normalized()
        assert picked[2].tobytes() == chi_minus.amplitudes.tobytes()

    def test_coincidence_trial_at_the_last_draw(self):
        # Inactive absorbers (draw 0.99 >= eta_abs) leave all four branches to
        # the coincidence; the branch draw is nextafter(1, 0).
        cfg = EfficiencyConfig(eta_abs=0.5)
        input_state = UnknownState.normalized(0.6, 0.8j)
        draws = [0.0, 0.0, 0.99, 0.99, 0.99, LAST_BELOW_ONE, 0.0]
        record = run_cascade(input_state, cfg, 0, draws)
        assert record.event.kind is CascadeEventKind.D3_COINCIDENCE
        reaching = waveplate(build_three_mode(input_state), 1)
        expected = reference_branch(reaching, LAST_BELOW_ONE)
        assert record.bob_pre.amplitudes.tobytes() == expected.tobytes()


def batch_error(call) -> str:
    with pytest.raises(ValueError) as caught:
        call()
    return str(caught.value)


class TestBatchErrorsMatchTheOneTrialCall:
    ROWS = 6
    BAD_ROW = 3

    def inputs(self) -> np.ndarray:
        rng = np.random.default_rng(8)
        states = [haar_random_input(rng) for _ in range(self.ROWS)]
        return np.array([s.state_vector().amplitudes for s in states])

    @pytest.mark.parametrize("bad", [-0.25, 1.0, float("nan")])
    def test_out_of_range_spin_draw(self, bad):
        draws = np.full((self.ROWS, 1), 0.5)
        draws[self.BAD_ROW, 0] = bad
        one = batch_error(lambda: run_trial(UnknownState(1.0, 0.0), 0, [bad]))
        assert one == f"rng_sample must lie in [0, 1), got {bad}"
        assert batch_error(lambda: teleport_rows(self.inputs(), draws)) == one

    def test_unnormalized_spin_input(self):
        inputs = self.inputs()
        inputs[self.BAD_ROW] *= 1.001
        draws = np.full((self.ROWS, 1), 0.5)
        bad = slice(self.BAD_ROW, self.BAD_ROW + 1)
        one = batch_error(lambda: teleport_rows(inputs[bad], draws[bad]))
        scalar = batch_error(
            lambda: measure_projective(
                tensor(StateVector(inputs[self.BAD_ROW]), prepare_singlet()),
                bell_projectors(3, (0, 1)), 0.5,
            )
        )
        assert one == scalar
        assert "measured state must be normalized" in one
        assert batch_error(lambda: teleport_rows(inputs, draws)) == one

    @pytest.mark.parametrize("bad", [-0.25, 1.0])
    def test_out_of_range_absorber_draw(self, bad):
        cfg = EfficiencyConfig()
        draws = np.full((self.ROWS, CASCADE_DRAWS), 0.0)
        draws[self.BAD_ROW, 2] = bad
        one = batch_error(
            lambda: run_cascade(UnknownState(1.0, 0.0), cfg, 0, draws[self.BAD_ROW])
        )
        assert one == f"rng_sample must lie in [0, 1), got {bad}"
        batch = self.inputs()
        assert batch_error(lambda: cascade_rows(batch, cfg, draws)) == one

    def test_unnormalized_cascade_input(self):
        cfg = EfficiencyConfig()
        inputs = self.inputs()
        inputs[self.BAD_ROW] *= 1.001
        draws = np.zeros((self.ROWS, CASCADE_DRAWS))
        bad = slice(self.BAD_ROW, self.BAD_ROW + 1)
        one = batch_error(
            lambda: cascade_rows(inputs[bad], cfg, draws[bad])
        )
        assert "must be normalized" in one
        assert batch_error(lambda: cascade_rows(inputs, cfg, draws)) == one


def scalar_haar(u_cos: float, u_phi: float) -> tuple[complex, complex]:
    """The one-row Haar conversion as scalar numpy calls."""
    cos_theta = -1.0 + 2.0 * u_cos
    phi = 2.0 * np.pi * u_phi
    theta = np.arccos(cos_theta)
    return complex(np.cos(theta / 2.0)), np.exp(1j * phi) * np.sin(theta / 2.0)


class TestHaarRows:
    EDGES = [0.0, LAST_BELOW_ONE, 0.5, 0.25, 0.75, 2.0**-53]

    @staticmethod
    def assert_matches_scalar(draws: np.ndarray) -> None:
        expected = np.array([scalar_haar(*row) for row in draws.tolist()])
        assert haar_rows(draws).tobytes() == expected.tobytes()

    def test_edge_uniforms(self):
        self.assert_matches_scalar(
            np.array([(a, b) for a in self.EDGES for b in self.EDGES])
        )

    def test_batch_draws(self):
        seeds = derive_seeds(derive_seeds(5, np.arange(100_000, dtype=np.uint64)), 0)
        self.assert_matches_scalar(uniforms(seeds, 2))

    def test_one_row_call(self):
        state = haar_from_uniforms(0.3, 0.8)
        assert (state.a, state.b) == scalar_haar(0.3, 0.8)
        assert type(state.a) is complex and type(state.b) is complex

    def test_unnormalized_row_reads_as_the_scalar_check(self):
        draws = np.full((5, 2), 0.5)
        draws[2, 0] = draws[4, 1] = float("nan")
        amplitudes = [complex(z) for z in scalar_haar(float("nan"), 0.5)]
        one = batch_error(lambda: UnknownState(*amplitudes))
        assert batch_error(lambda: haar_rows(draws)) == one
        assert one == "input state not normalized: |a|^2+|b|^2 = nan"


def swap_every_row(draws: np.ndarray):
    """Swap's steps run on every row, each measuring its own copy of the state."""
    n = draws.shape[0]
    state = np.broadcast_to(_SWAP_STATE, (n, 16))
    outcome, post = measure_rows(state, _projector_stack(4, (1, 2)), draws[:, 0])
    moved = post.reshape(n, 8, 2).transpose(0, 2, 1)
    corrected = (_CORRECTION_MATRICES[outcome] @ moved).transpose(0, 2, 1)
    pair_first = corrected.reshape(n, 2, 4, 2).transpose(0, 2, 1, 3).reshape(n, 4, 4)
    final = normalized_rows((_BELL_BRAS[outcome][:, None, :] @ pair_first)[:, 0])
    target = np.broadcast_to(prepare_singlet().amplitudes, final.shape)
    return outcome, final, fidelity_rows(final, target)


class TestProjectorStackBits:
    """The Bell projector stacks built through ``embed_operator`` and
    ``apply``, pinned to their exact bytes."""

    @pytest.mark.parametrize(
        "n_qubits, qubits, digest",
        [
            (3, (0, 1), "596bce91683f01c4d070b2bbb4e7ff7a56ae1f916004aefbdafa65447b05863f"),
            (4, (1, 2), "50acb9370950a5f6bd6edef1a93d08ad94f653cc9ec27804733fdadbb812e75a"),
        ],
    )
    def test_sha256(self, n_qubits, qubits, digest):
        stack = _projector_stack(n_qubits, qubits)
        assert stack.shape == (4, 1 << n_qubits, 1 << n_qubits)
        assert stack.dtype == np.complex128
        assert hashlib.sha256(stack.tobytes()).hexdigest() == digest


class TestSwapRows:
    def test_once_per_outcome_equals_every_row(self):
        edges = [0.0, 0.25, 0.5, 0.75, LAST_BELOW_ONE]
        draws = np.concatenate(
            [np.array(edges)[:, None], uniforms(np.arange(3000, dtype=np.uint64), 1)]
        )
        outcome, final, fidelities = swap_rows(draws)
        expected = swap_every_row(draws)
        assert outcome.tolist() == expected[0].tolist()
        assert set(outcome.tolist()) == {0, 1, 2, 3}
        assert final.tobytes() == expected[1].tobytes()
        assert fidelities == expected[2]

    def test_one_outcome_chunk_and_one_row_call(self):
        draws = np.full((7, 1), 0.1)
        outcome, final, fidelities = swap_rows(draws)
        expected = swap_every_row(draws)
        assert final.tobytes() == expected[1].tobytes()
        assert fidelities == expected[2]
        label, state = run_entangled_input(0, [0.1])
        assert label is MEASUREMENT_ORDER[outcome[0]]
        assert state.amplitudes.tobytes() == final[0].tobytes()

    @pytest.mark.parametrize("bad", [-0.25, 1.0, float("nan")])
    def test_out_of_range_draw(self, bad):
        draws = np.full((6, 1), 0.5)
        draws[3, 0] = bad
        one = batch_error(lambda: run_entangled_input(0, [bad]))
        assert one == f"rng_sample must lie in [0, 1), got {bad}"
        assert batch_error(lambda: swap_rows(draws)) == one
