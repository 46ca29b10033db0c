"""The row-batched kernel against the scalar rules it must reproduce bit for bit.

``measure_projective`` stays independent of the kernel, so it is the oracle
for ``sample_rows`` then ``post_rows``, the calls the teleportation kernel
makes.  Both get the same states and draws at the edges of the
outcome rule: a draw of 0.0, each exact cumulative edge (a draw on an edge
resolves to the next outcome), and ``nextafter(1, 0)``, which lies past every
edge of a slightly sub-normalized state and so exercises the fallback to the
highest outcome above ``MIN_PROBABILITY``.  The cascade's coincidence sampler
(level 3 of the state tree's ``step``) is checked the same way against its
clamp rule, and the baseline's product-basis outcome against
``measure_projective`` on the four product projectors.  Every error a batch
raises must read as the one-row call's, and an input block of neither one
row nor one row per draw row is refused, as is an input or draw block of
another shape than the kernel's boundary check allows, and an input row of
another norm than 1: every kernel refuses it at entry, with one message,
before any physics runs.  The Haar inputs are
checked against the scalar numpy calls, with a first amplitude of imaginary
part +0.0 on every row.  ``sample_rows`` projects in one 2-D product: its
bytes are compared with the stacked per-row product's on Haar rows, the
swap state and one-row calls, and ``pick_rows`` with its rule written over
row-major weights.  Swapping is the teleportation kernel on the singlet
row: its once-per-outcome steps are checked against a hand-written
reference that runs them on every row.  A kernel call whose trials share one
input row must give the bytes of the same call on that row tiled over the
trials, per trial, a real or integer row the bytes of its complex row, and
the teleportation kernel must normalize only one post state per distinct
outcome of such a call.  A
cascade call on a shared row starts from one state: each trial must still
equal its one-row call, and the rows it projects must not grow with the
trials.  Such a call takes its state
tree from a cache keyed by its input and ``eta_abs``: a warm tree must
give the bytes of a cold one, whatever the other knobs, raise
every error a cold one raises, and project nothing it has projected before.
A tree corrects and scores each receiver row once, when the row is made, and
a trial without an identifying signature, one whose signature the detector
lost included, gathers zeros and a NaN.  Every test here starts on an empty
cache.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from bellcast import photonic, teleport
from bellcast.harness import CHUNK_TRIALS, Mode, parse_input
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
    IDENTIFYING_EVENTS,
    SHARED_TREES,
    PairLabel,
    _shared_tree,
    _StateTree,
    build_three_mode,
    cascade_rows,
    pair_basis_state,
    pair_components,
    waveplate,
)
from bellcast.qcore import (
    MIN_PROBABILITY,
    Operator,
    StateVector,
    contract_rows,
    contract_with,
    embed_operator,
    fidelity_rows,
    ket,
    measure_projective,
    normalized_rows,
    overlap_rows,
    pick_rows,
    post_rows,
    sample_rows,
    tensor,
    tensor_rows,
)
from bellcast.stream import derive_seeds, uniforms
from bellcast.teleport import (
    _BELL_BRAS,
    _SINGLET,
    _CORRECTION_MATRICES,
    BASELINE_DRAWS,
    SWAP_INPUT,
    TRIAL_DRAWS,
    _projector_stack,
    _seed_draws,
    HAAR_DRAWS,
    UnknownState,
    baseline_rows,
    haar_random_input,
    haar_rows,
    prepare_singlet,
    run_entangled_input,
    teleport_rows,
)

LAST_BELOW_ONE = float(np.nextafter(1.0, 0.0))
# Inside the 1e-9 normalization tolerance, but short of 1 by far more than
# rounding: every cumulative edge ends below LAST_BELOW_ONE.
SHORT = 1.0 - 1e-12
# The benchmark's fixed photon input, as the one row every trial of a
# harness chunk shares.
SHARED_INPUT = UnknownState.normalized(0.6, 0.8j).state_vector().amplitudes


@pytest.fixture(autouse=True)
def cold_trees():
    """An empty shared-tree cache for each test, and none left behind."""
    _shared_tree.cache_clear()
    yield
    _shared_tree.cache_clear()


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
    """Every (state, edge draw) pair through the batch and the scalar rule:
    ``sample_rows``, then ``post_rows`` of each row's outcome."""
    cases = [(s, d) for s in states for d in edge_draws(s, projectors)]
    chosen, projected, probs = sample_rows(
        np.array([s.amplitudes for s, _ in cases]),
        np.array([p.matrix for p in projectors]),
        np.array([d for _, d in cases]),
    )
    post = post_rows(projected, probs, np.arange(len(cases)), chosen)
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
            sample_rows(
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
        # Each state is one row of the tree's coincidence level, shared by
        # its three draws, and reached from the tree's one start.
        tree = _StateTree(SHARED_INPUT[None], 1.0)
        tree.add(3, np.array([s.amplitudes for s in states]), np.zeros(len(states), int))
        ended, at = tree.step(
            3, np.repeat(np.arange(len(states)), 3), np.array([u for _, u in cases])
        )
        assert ended.all()  # every trial that reaches the coincidence ends there
        picked = tree.bob_pre[at]
        assert np.isfinite(tree.fidelity[at]).all()  # scored when made
        for row, (state, u) in enumerate(cases):
            assert picked[row].tobytes() == reference_branch(state, u).tobytes(), row
        chi_minus = pair_components(leading)[PairLabel.CHI_MINUS].normalized()
        assert picked[2].tobytes() == chi_minus.amplitudes.tobytes()

    def test_coincidence_trial_at_the_last_draw(self):
        # Inactive absorbers (draw 0.99 >= eta_abs) leave all four branches to
        # the coincidence; the branch draw is nextafter(1, 0).
        cfg = EfficiencyConfig(eta_abs=0.5)
        input_state = UnknownState.normalized(0.6, 0.8j)
        draws = np.array([[0.0, 0.0, 0.99, 0.99, 0.99, LAST_BELOW_ONE, 0.0]])
        kinds, bob_pre, _, _ = cascade_rows(
            input_state.state_vector().amplitudes[None], cfg, draws
        )
        assert list(CascadeEventKind)[kinds[0]] is CascadeEventKind.D3_COINCIDENCE
        reaching = waveplate(build_three_mode(input_state), 1)
        expected = reference_branch(reaching, LAST_BELOW_ONE)
        assert bob_pre[0].tobytes() == expected.tobytes()


def trial_inputs(inputs: np.ndarray, n: int) -> np.ndarray:
    """Each of ``n`` trials' input row, from one row per trial or one shared
    row (see ``cascade_rows``)."""
    return np.broadcast_to(inputs, (n, inputs.shape[1]))


def assert_rows_equal_one_row_calls(inputs, cfg, draws) -> tuple[np.ndarray, ...]:
    """Every trial of one ``cascade_rows`` batch, byte for byte, against the
    one-row call on that trial's input and draws."""
    batch = cascade_rows(inputs, cfg, draws)
    rows = trial_inputs(inputs, len(draws))
    for row in range(len(draws)):
        one = cascade_rows(rows[row : row + 1], cfg, draws[row : row + 1])
        for got, expected in zip(batch, one):
            assert got[row : row + 1].tobytes() == expected.tobytes(), row
    return batch


def contracted_rows(monkeypatch, *calls: tuple, cold: bool = True) -> list[int]:
    """How many state rows reach ``contract_rows``, through which every pair
    projection goes, in the ``cascade_rows`` call of each argument tuple;
    each call on an empty tree cache unless ``cold`` is false."""
    counted = [0]

    def counting(states, *args):
        counted[0] += states.shape[0]
        return contract_rows(states, *args)

    monkeypatch.setattr(photonic, "contract_rows", counting)
    counts = []
    for args in calls:
        if cold:
            _shared_tree.cache_clear()
        counted[0] = 0
        cascade_rows(*args)
        counts.append(counted[0])
    return counts


def assert_same_bytes(got: tuple, expected: tuple) -> None:
    for got_column, expected_column in zip(got, expected, strict=True):
        assert got_column.tobytes() == expected_column.tobytes()


class TestSharedInputTable:
    """One input row shared by the trials starts the cascade from one state.
    Each trial must still read as its own one-row call, and the float work
    must not grow with the trials."""

    CFG = EfficiencyConfig(eta_abs=0.5, eta_det=0.9, p_in=0.9, p_pdc=0.9)

    def test_shared_input_rows_equal_the_one_row_calls(self):
        n = 2 * CHUNK_TRIALS[Mode.PHOTON] + 5
        draws = uniforms(np.arange(n, dtype=np.uint64), CASCADE_DRAWS)
        kinds = assert_rows_equal_one_row_calls(SHARED_INPUT[None], self.CFG, draws)[0]
        assert set(kinds.tolist()) == set(range(len(CascadeEventKind)))

    def test_signed_zeros_are_distinct_inputs(self, monkeypatch):
        plus = np.array([[0.6 + 0.0j, 0.8j]])
        minus = np.array([[complex(0.6, -0.0), 0.8j]])
        assert (plus == minus).all() and plus.tobytes() != minus.tobytes()
        draws = uniforms(np.arange(2, dtype=np.uint64), CASCADE_DRAWS)[[0, 0]]
        assert_rows_equal_one_row_calls(np.concatenate([plus, minus]), self.CFG, draws)
        # Kept apart, the two rows project twice the rows of one.
        both, one = contracted_rows(
            monkeypatch,
            (np.concatenate([plus, minus]), self.CFG, draws),
            (plus, self.CFG, draws[:1]),
        )
        assert both == 2 * one > 0
        # A chunk of each alone takes a tree of its own from the cache: the
        # second projects as much as the first does on an empty cache.
        _shared_tree.cache_clear()
        assert contracted_rows(
            monkeypatch, (plus, self.CFG, draws), (minus, self.CFG, draws),
            cold=False,
        ) == [one, one]
        assert _shared_tree.cache_info().currsize == 2

    def test_projected_rows_do_not_grow_with_the_trials(self, monkeypatch):
        # 64 trials, then the same 64 draw rows 64 times over: every
        # (state, window) pair of the larger batch occurs in the smaller.
        draws = uniforms(np.arange(64, dtype=np.uint64), CASCADE_DRAWS)
        small, large = contracted_rows(
            monkeypatch,
            *[
                (SHARED_INPUT[None], self.CFG, np.tile(draws, (repeat, 1)))
                for repeat in (1, 64)
            ],
        )
        assert small == large < 64
        # On the tree the first call left warm, the same draws project nothing.
        call = (SHARED_INPUT[None], self.CFG, draws)
        _shared_tree.cache_clear()
        assert contracted_rows(monkeypatch, call, call, cold=False) == [small, 0]


# The loss configs and fixed inputs of tools/record_digests.py.
LOSS_CONFIGS = (
    EfficiencyConfig(),
    EfficiencyConfig(eta_abs=0.9, eta_det=0.8, p_in=0.95, p_pdc=0.95),
    EfficiencyConfig(eta_abs=0.5, eta_det=0.9, p_in=0.9, p_pdc=0.9),
    EfficiencyConfig(eta_abs=0.2),
)
FIXED_INPUTS = ("fixed:0.6,0.8j", "fixed:1,0", "fixed:0,1")


class TestSharedTreeCache:
    """A fixed-input chunk gathers what earlier chunks of its configuration
    computed: the bytes must not depend on what the cache holds."""

    @staticmethod
    def chunk_draws(seed: int) -> np.ndarray:
        seeds = derive_seeds(seed, np.arange(CHUNK_TRIALS[Mode.PHOTON], dtype=np.uint64))
        return uniforms(derive_seeds(seeds, 1), CASCADE_DRAWS)

    @pytest.mark.parametrize("text", FIXED_INPUTS)
    @pytest.mark.parametrize("cfg", LOSS_CONFIGS, ids=["ideal", "benchmark", "lossy", "weak"])
    def test_cold_equals_warm(self, cfg, text):
        amplitudes = parse_input(text).state_vector().amplitudes
        inputs = amplitudes[None]
        draws = self.chunk_draws(1)
        cold = cascade_rows(inputs, cfg, draws)
        _shared_tree.cache_clear()
        cascade_rows(inputs, cfg, self.chunk_draws(2))
        hits = _shared_tree.cache_info().hits
        warm = cascade_rows(inputs, cfg, draws)
        assert _shared_tree.cache_info().hits == hits + 1
        assert_same_bytes(warm, cold)

    @pytest.mark.parametrize("cfg", LOSS_CONFIGS, ids=["ideal", "benchmark", "lossy", "weak"])
    def test_only_the_input_and_eta_abs_key_a_tree(self, cfg):
        # The detection and source knobs act after the walk, so a chunk under
        # other values of them gathers from the same tree.
        inputs = SHARED_INPUT[None]
        other = dataclasses.replace(cfg, eta_det=0.7, p_in=0.85, p_pdc=0.75)
        cold = cascade_rows(inputs, other, self.chunk_draws(1))
        _shared_tree.cache_clear()
        cascade_rows(inputs, cfg, self.chunk_draws(2))
        warm = cascade_rows(inputs, other, self.chunk_draws(1))
        info = _shared_tree.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert_same_bytes(warm, cold)

    def test_a_one_row_call_builds_a_tree_of_its_own(self):
        cascade_rows(SHARED_INPUT[None], EfficiencyConfig(), self.chunk_draws(4)[:1])
        assert _shared_tree.cache_info().misses == 0

    def test_the_cache_holds_at_most_its_bound(self):
        draws = self.chunk_draws(3)[:4]
        for k in range(SHARED_TREES + 3):
            theta = 0.1 * (k + 1)
            inputs = np.array([[np.cos(theta), np.sin(theta) + 0j]])
            cascade_rows(inputs, EfficiencyConfig(), draws)
            info = _shared_tree.cache_info()
            assert info.currsize == min(k + 1, SHARED_TREES)
        assert info.maxsize == SHARED_TREES


class TestReceiverRows:
    """A receiver row is corrected and scored against its start's input when
    it is made, once per row of the tree; a trial that lands on it later
    only gathers it."""

    # "blind" loses every signature to the detector: its rows are scored too.
    @pytest.mark.parametrize(
        "cfg",
        [*LOSS_CONFIGS, EfficiencyConfig(eta_abs=0.9, eta_det=0.0)],
        ids=["ideal", "benchmark", "lossy", "weak", "blind"],
    )
    def test_each_receiver_row_is_scored_once(self, monkeypatch, cfg):
        scored = []

        def counting(states, inputs):
            scored.append(states.shape[0])
            return fidelity_rows(states, inputs)

        monkeypatch.setattr(photonic, "fidelity_rows", counting)
        inputs = SHARED_INPUT[None]
        cascade_rows(inputs, cfg, TestSharedTreeCache.chunk_draws(1))
        tree = _shared_tree(SHARED_INPUT.tobytes(), np.float64(cfg.eta_abs).tobytes())
        # Row 0 is the dark trials' row, never scored.
        assert sum(scored) == len(tree.fidelity) - 1 > 0
        scored.clear()
        cascade_rows(inputs, cfg, TestSharedTreeCache.chunk_draws(1))
        assert scored == []
        made = len(tree.fidelity)
        cascade_rows(inputs, cfg, TestSharedTreeCache.chunk_draws(2))
        assert sum(scored) == len(tree.fidelity) - made

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-input", "haar"])
    def test_unidentified_rows_hold_no_receiver_state(self, shared):
        # At eta_det 0.5 about half of the signatures the absorbers and the
        # coincidence make are lost, and a lost trial reads as a dark one.
        cfg = EfficiencyConfig(eta_abs=0.9, eta_det=0.5, p_in=0.95, p_pdc=0.95)
        n = 400
        draws = TestSharedTreeCache.chunk_draws(1)[:n]
        if shared:
            inputs = SHARED_INPUT[None]
        else:
            inputs = haar_rows(uniforms(np.arange(n, dtype=np.uint64), HAAR_DRAWS))
        kinds, bob_pre, bob_post, fidelities = assert_rows_equal_one_row_calls(
            inputs, cfg, draws
        )
        identifying = [kind in IDENTIFYING_EVENTS for kind in CascadeEventKind]
        unidentified = ~np.array(identifying)[kinds]
        # Trials that reached a receiver row and lost its signature are among them.
        reached = (draws[:, 0] < cfg.p_in) & (draws[:, 1] < cfg.p_pdc)
        assert (unidentified & reached).sum() > n // 10
        assert not bob_pre[unidentified].any() and not bob_post[unidentified].any()
        assert np.isnan(fidelities[unidentified]).all()
        assert np.isfinite(fidelities[~unidentified]).all()


def per_trial(result: tuple) -> tuple:
    """``teleport_rows``' columns with one row per trial: its receiver rows
    gathered through ``inverse``."""
    outcome, bob_pre, bob_post, inverse, fidelities = result
    return outcome, bob_pre[inverse], bob_post[inverse], fidelities


# Each input-taking kernel as ``kernel(inputs, draws)``, with its draw width,
# returning one row per trial in every column.
input_kernels = pytest.mark.parametrize(
    "kernel, width",
    [
        (lambda inputs, draws: per_trial(teleport_rows(inputs, draws)), TRIAL_DRAWS),
        (baseline_rows, BASELINE_DRAWS),
        (lambda inputs, draws: cascade_rows(inputs, LOSS_CONFIGS[2], draws),
         CASCADE_DRAWS),
    ],
    ids=["spin", "baseline", "photon"],
)


class TestSharedInputRow:
    """A kernel call whose trials share one input row, as those of a
    fixed-input chunk do, gives the bytes of the same call on that row, as
    complex128, tiled over the trials, one row per trial."""

    # The fixed inputs' rows, then a real and an integer row: each kernel
    # reads its input block as complex128, shared by the trials or not.
    @pytest.mark.parametrize(
        "row",
        [
            *(
                pytest.param(parse_input(text).state_vector().amplitudes[None], id=text)
                for text in FIXED_INPUTS
            ),
            pytest.param(np.array([[0.6, 0.8]]), id="float64:0.6,0.8"),
            pytest.param(np.array([[1, 0]]), id="int64:1,0"),
        ],
    )
    @input_kernels
    def test_shared_row_equals_tiled_rows(self, kernel, width, row):
        draws = uniforms(np.arange(300, dtype=np.uint64), width)
        tiled = kernel(np.tile(row.astype(np.complex128), (len(draws), 1)), draws)
        assert len(tiled[0]) == len(draws)
        for block in (row, np.tile(row, (len(draws), 1))):
            assert_same_bytes(kernel(block, draws), tiled)

    def test_swap_singlet_row_equals_tiled_rows(self):
        draws = uniforms(np.arange(300, dtype=np.uint64), TRIAL_DRAWS)
        shared = teleport_rows(SWAP_INPUT, draws)
        tiled = teleport_rows(np.tile(SWAP_INPUT, (len(draws), 1)), draws)
        assert_same_bytes(per_trial(shared), per_trial(tiled))
        assert len(shared[1]) == 4 and len(tiled[1]) == len(draws)


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
        inputs = self.inputs()
        draws = np.full((self.ROWS, 1), 0.5)
        draws[self.BAD_ROW, 0] = bad
        row = slice(self.BAD_ROW, self.BAD_ROW + 1)
        one = batch_error(lambda: teleport_rows(inputs[row], draws[row]))
        assert one == f"rng_sample must lie in [0, 1), got {bad}"
        assert batch_error(lambda: teleport_rows(inputs, draws)) == one

    def test_unnormalized_spin_input(self):
        inputs = self.inputs()
        inputs[self.BAD_ROW] *= 1.001
        draws = np.full((self.ROWS, 1), 0.5)
        bad = slice(self.BAD_ROW, self.BAD_ROW + 1)
        one = batch_error(lambda: teleport_rows(inputs[bad], draws[bad]))
        assert one == "input state must be normalized (norm 1.001)"
        assert batch_error(lambda: teleport_rows(inputs, draws)) == one
        # The check is every kernel's boundary: the baseline and the cascade
        # refuse the row with the spin kernel's message.
        for kernel, k in (
            (baseline_rows, BASELINE_DRAWS),
            (lambda i, d: cascade_rows(i, EfficiencyConfig(), d), CASCADE_DRAWS),
        ):
            wide = np.full((self.ROWS, k), 0.5)
            assert batch_error(lambda: kernel(inputs[bad], wide[bad])) == one
            assert batch_error(lambda: kernel(inputs, wide)) == one

    def shared_inputs(self) -> np.ndarray:
        """One input row every trial shares, so the cascade starts from one
        state."""
        return SHARED_INPUT[None]

    def assert_cascade_draw_error(self, inputs: np.ndarray, bad: float) -> None:
        """A bad draw in any column is an error, whether or not its trial
        reads it: every trial here fires D1 on its draw 2 and never reads
        draws 4-6."""
        cfg = EfficiencyConfig()
        row = slice(self.BAD_ROW, self.BAD_ROW + 1)
        one_input = trial_inputs(inputs, self.ROWS)[row]
        for column in range(CASCADE_DRAWS):
            draws = np.full((self.ROWS, CASCADE_DRAWS), 0.0)
            draws[self.BAD_ROW, column] = bad
            one = batch_error(lambda: cascade_rows(one_input, cfg, draws[row]))
            assert one == f"rng_sample must lie in [0, 1), got {bad}", column
            # A shared input's tree stays cached across the failing calls.
            for _ in range(2):
                assert batch_error(lambda: cascade_rows(inputs, cfg, draws)) == one
            draws[self.BAD_ROW, column] = 0.5
            after_failures = cascade_rows(inputs, cfg, draws)
            _shared_tree.cache_clear()
            assert_same_bytes(after_failures, cascade_rows(inputs, cfg, draws))

    def assert_cascade_input_error(
        self, inputs: np.ndarray, cfg: EfficiencyConfig = EfficiencyConfig()
    ) -> None:
        draws = np.zeros((self.ROWS, CASCADE_DRAWS))
        bad = slice(self.BAD_ROW, self.BAD_ROW + 1)
        one_input = trial_inputs(inputs, self.ROWS)[bad]
        one = batch_error(lambda: cascade_rows(one_input, cfg, draws[bad]))
        assert "must be normalized" in one
        # The boundary check raises before a tree is looked up, so a repeated
        # call finds no tree that the first one left.
        for _ in range(2):
            assert batch_error(lambda: cascade_rows(inputs, cfg, draws)) == one

    @pytest.mark.parametrize("bad", [-0.25, 1.0, float("nan")])
    def test_out_of_range_absorber_draw(self, bad):
        self.assert_cascade_draw_error(self.inputs(), bad)

    @pytest.mark.parametrize("bad", [-0.25, 1.0, float("nan")])
    def test_out_of_range_absorber_draw_on_a_shared_input(self, bad):
        self.assert_cascade_draw_error(self.shared_inputs(), bad)

    def test_unnormalized_cascade_input(self):
        inputs = self.inputs()
        inputs[self.BAD_ROW] *= 1.001
        self.assert_cascade_input_error(inputs)

    def test_unnormalized_shared_cascade_input(self):
        self.assert_cascade_input_error(self.shared_inputs() * 1.001)

    # Every trial would fire D1 and then lose it to the detector: the input
    # is checked at entry though no trial is identified.
    def test_unnormalized_cascade_input_with_every_signature_lost(self):
        inputs = self.inputs()
        inputs[self.BAD_ROW] *= 1.001
        self.assert_cascade_input_error(inputs, EfficiencyConfig(eta_det=0.0))

    def test_unnormalized_shared_cascade_input_with_every_signature_lost(self):
        self.assert_cascade_input_error(
            self.shared_inputs() * 1.001, EfficiencyConfig(eta_det=0.0)
        )

    @pytest.mark.parametrize("column", [0, 1], ids=["outcome", "certify"])
    @pytest.mark.parametrize("bad", [1.0, -0.1, float("nan")])
    def test_out_of_range_baseline_draw(self, bad, column):
        draws = np.full((self.ROWS, BASELINE_DRAWS), 0.5)
        draws[self.BAD_ROW, column] = bad
        row = slice(self.BAD_ROW, self.BAD_ROW + 1)
        for inputs in (self.inputs(), self.shared_inputs()):
            one_input = trial_inputs(inputs, self.ROWS)[row]
            one = batch_error(lambda: baseline_rows(one_input, draws[row]))
            assert one == f"rng_sample must lie in [0, 1), got {bad}"
            assert batch_error(lambda: baseline_rows(inputs, draws)) == one

    # Neither one shared row nor one per draw row: more rows than draw rows
    # and fewer, both rejected at entry with one message.
    @pytest.mark.parametrize("rows", [2, 5])
    @input_kernels
    def test_input_count_must_match_the_draws(self, kernel, width, rows):
        draws = np.full((3, width), 0.5)
        error = batch_error(lambda: kernel(self.inputs()[:rows], draws))
        assert error == f"expected 1 or 3 input rows for 3 draw rows, got {rows}"

    # A trial whose source is dark reaches no receiver row, yet its input is
    # checked: the boundary check reads every input row, in one-row calls and
    # batches, shared row or not.
    def test_unnormalized_cascade_input_of_dark_trials(self):
        cfg = EfficiencyConfig(p_in=0.5)
        draws = np.full((self.ROWS, CASCADE_DRAWS), 0.5)
        per_trial_inputs = self.inputs()
        per_trial_inputs[self.BAD_ROW] *= 1.1
        draws[self.BAD_ROW, 0] = 0.99  # only the bad row's trial is dark
        bad = slice(self.BAD_ROW, self.BAD_ROW + 1)
        one = batch_error(lambda: cascade_rows(per_trial_inputs[bad], cfg, draws[bad]))
        assert one == "input state must be normalized (norm 1.1)"
        assert batch_error(lambda: cascade_rows(per_trial_inputs, cfg, draws)) == one
        draws[:, 0] = 0.99  # every trial dark
        shared = np.array([[0.66, 0.88j]])
        for inputs in (shared, np.tile(shared, (self.ROWS, 1))):
            assert batch_error(lambda: cascade_rows(inputs[:1], cfg, draws[:1])) == one
            # A shared row's tree is never made, so never cached.
            for _ in range(2):
                assert batch_error(lambda: cascade_rows(inputs, cfg, draws)) == one


# Each kernel as ``kernel(inputs, draws)``, with its draw count and the input
# widths its boundary check allows.
boundary_kernels = pytest.mark.parametrize(
    "kernel, k, widths",
    [
        (teleport_rows, TRIAL_DRAWS, (2, 4)),
        (baseline_rows, BASELINE_DRAWS, (2,)),
        (lambda inputs, draws: cascade_rows(inputs, EfficiencyConfig(), draws),
         CASCADE_DRAWS, (2,)),
    ],
    ids=["teleport", "baseline", "photon"],
)


class TestBoundaryCheck:
    """Each kernel's first statement checks its input and draw blocks: a 2-D
    block of input rows of an allowed width and a 2-D block of the kernel's
    draw count per row.  A block of another shape raises a bellcast error
    that names what was expected, the same from a batch as from its one-row
    call, before any physics runs."""

    ROWS = 6

    def assert_raises_alike(self, kernel, batch, one_row, message):
        assert batch_error(lambda: kernel(*one_row)) == message
        assert batch_error(lambda: kernel(*batch)) == message

    def haar_inputs(self) -> np.ndarray:
        return haar_rows(uniforms(np.arange(self.ROWS, dtype=np.uint64), HAAR_DRAWS))

    @boundary_kernels
    def test_input_rows_of_a_refused_width(self, kernel, k, widths):
        draws = np.full((self.ROWS, k), 0.5)
        allowed = " or ".join(map(str, widths))
        refused = [width for width in (1, 3, 4, 8) if width not in widths]
        assert refused
        for width in refused:
            inputs = np.full((self.ROWS, width), width**-0.5, dtype=np.complex128)
            self.assert_raises_alike(
                kernel, (inputs, draws), (inputs[:1], draws[:1]),
                f"expected 2-D input rows of width {allowed}, got width {width}",
            )

    @boundary_kernels
    def test_a_one_dimensional_input_block(self, kernel, k, widths):
        draws = np.full((self.ROWS, k), 0.5)
        allowed = " or ".join(map(str, widths))
        self.assert_raises_alike(
            kernel, (SHARED_INPUT, draws), (SHARED_INPUT, draws[:1]),
            f"expected 2-D input rows of width {allowed}, got 1-D",
        )

    @pytest.mark.parametrize("extra", [-1, 1])
    @boundary_kernels
    def test_a_draw_block_of_another_draw_count(self, kernel, k, widths, extra):
        inputs = self.haar_inputs()
        draws = np.full((self.ROWS, k + extra), 0.5)
        self.assert_raises_alike(
            kernel, (inputs, draws), (inputs[:1], draws[:1]),
            f"expected 2-D draw rows of width {k}, got width {k + extra}",
        )

    @boundary_kernels
    def test_a_one_dimensional_draw_block(self, kernel, k, widths):
        inputs = self.haar_inputs()
        draws = np.full((self.ROWS, k), 0.5)
        self.assert_raises_alike(
            kernel, (inputs, draws.ravel()), (inputs[:1], draws[0]),
            f"expected 2-D draw rows of width {k}, got 1-D",
        )

    @pytest.mark.parametrize("scale, norm", [(1.1, "1.1"), (0.0, "0"), (np.nan, "nan")])
    @boundary_kernels
    def test_an_unnormalized_input_row(
        self, monkeypatch, kernel, k, widths, scale, norm
    ):
        """One message per trial or shared, from a batch or its one-row call,
        and no physics on the failing call: no state is tensored with the
        channel and no state tree is made."""
        physics = []
        monkeypatch.setattr(teleport, "tensor_rows", lambda *a: physics.append(a))
        monkeypatch.setattr(photonic, "_StateTree", lambda *a: physics.append(a))
        draws = np.full((self.ROWS, k), 0.5)
        message = f"input state must be normalized (norm {norm})"
        for width in widths:
            inputs = np.tile(SWAP_INPUT, (self.ROWS, 1))
            if width == 2:
                inputs = self.haar_inputs()
            inputs[3] *= scale
            bad = inputs[3:4]
            for block in (inputs, bad):  # a row per trial, then one shared row
                self.assert_raises_alike(
                    kernel, (block, draws), (bad, draws[:1]), message
                )
        assert not physics


def product_projectors() -> list[Operator]:
    """The product projectors |uu>, |ud>, |du>, |dd> of qubits (0, 1),
    embedded in the 3-qubit register."""
    kets = [ket(bits).amplitudes for bits in ("00", "01", "10", "11")]
    return [embed_operator(Operator(np.outer(k, k)), 3, (0, 1)) for k in kets]


class TestBaselineOutcomeRule:
    """The baseline's product-basis analysis picks its outcome by
    ``measure_projective``'s rule, fallback included."""

    # Away from every cumulative edge but the last.  The two routes round the
    # weights differently, so a draw at an inner edge could split them by
    # rounding alone; past the last edge only the fallback rule decides.
    DRAWS = (0.1, 0.7, LAST_BELOW_ONE)

    @pytest.mark.parametrize("text", FIXED_INPUTS)
    def test_outcome_matches_measure_projective(self, text):
        state = parse_input(text).state_vector()
        register = tensor(state, prepare_singlet())
        # A certifying draw of 0.9 certifies nothing, so every receiver state
        # is the sampled product outcome's.
        draws = np.array([[draw, 0.9] for draw in self.DRAWS])
        codes, bob, _ = baseline_rows(state.amplitudes[None], draws)
        assert not codes.any()
        projectors = product_projectors()
        for row, draw in enumerate(self.DRAWS):
            result = measure_projective(register, projectors, draw)
            bits = ket(format(result.outcome_index, "02b"))
            expected = contract_with(result.post_state, (0, 1), bits)
            np.testing.assert_allclose(bob[row], expected.amplitudes, atol=1e-12)

    def test_a_draw_past_every_edge_skips_dead_outcomes(self):
        # |du> and |dd> weigh 0, and the four weights sum short of 1.
        inputs = np.array([[0.9999999999999999, 0.0]], dtype=np.complex128)
        draws = np.array([[LAST_BELOW_ONE, 0.9]])
        codes, bob, _ = baseline_rows(inputs, draws)
        assert codes.tolist() == [0]
        assert bob.tolist() == [[-1.0, 0.0]]


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
        for seed in (0, 7, 2**64 - 1):
            state = haar_random_input(np.random.default_rng(seed))
            expected = np.array(scalar_haar(*np.random.default_rng(seed).random(2)))
            assert np.array([state.a, state.b]).tobytes() == expected.tobytes()
            assert type(state.a) is complex and type(state.b) is complex

    def test_first_amplitude_has_no_imaginary_bits(self):
        """The record encoder writes every Haar ``a_im`` as the literal 0.0."""
        seeds = derive_seeds(derive_seeds(11, np.arange(100_000, dtype=np.uint64)), 0)
        edges = [(a, b) for a in self.EDGES for b in self.EDGES]
        draws = np.concatenate([edges, uniforms(seeds, 2)])
        assert not haar_rows(draws)[:, 0].imag.view(np.uint64).any()

    def test_unnormalized_row_reads_as_the_scalar_check(self):
        draws = np.full((5, 2), 0.5)
        draws[2, 0] = draws[4, 1] = float("nan")
        amplitudes = [complex(z) for z in scalar_haar(float("nan"), 0.5)]
        one = batch_error(lambda: UnknownState(*amplitudes))
        assert batch_error(lambda: haar_rows(draws)) == one
        assert one == "input state not normalized: |a|^2+|b|^2 = nan"


def swap_every_row(draws: np.ndarray):
    """Swap's steps run on every row, each measuring its own copy of the
    state: contract ``<Bell|`` over qubits (1, 2), normalize, then correct
    qubit 1 of the remaining pair (0, 3)."""
    n = draws.shape[0]
    singlet = prepare_singlet()
    state = np.broadcast_to(tensor(singlet, singlet).amplitudes, (n, 16))
    projectors = _projector_stack(4, (1, 2))
    outcome, projected, probs = sample_rows(state, projectors, draws[:, 0])
    post = post_rows(projected, probs, np.arange(n), outcome)
    pair_first = post.reshape(n, 2, 2, 2, 2).transpose(0, 2, 3, 1, 4).reshape(n, 4, 4)
    bob_pre = normalized_rows((_BELL_BRAS[outcome][:, None, :] @ pair_first)[:, 0])
    moved = bob_pre.reshape(n, 2, 2).transpose(0, 2, 1)
    bob_post = (_CORRECTION_MATRICES[outcome] @ moved).transpose(0, 2, 1).reshape(n, 4)
    target = np.broadcast_to(singlet.amplitudes, bob_post.shape)
    return outcome, bob_pre, bob_post, fidelity_rows(bob_post, target)


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


def stacked_projection(projectors: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Each row's projections as one stacked matrix-vector product per
    projector and row: the reference for ``sample_rows``' one 2-D product."""
    return (projectors @ states[:, None, :, None])[..., 0]


def reference_pick(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """``pick_rows``' rule written over the row-major ``(S, K)`` weights,
    each reduction along their strided axis 1."""
    if not (probs.max(axis=1) >= MIN_PROBABILITY).all():
        raise ValueError("all outcome probabilities are degenerate (below 1e-15)")
    passed = (np.cumsum(probs, axis=1).T <= draws).sum(axis=0)
    last_live = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > MIN_PROBABILITY, axis=1)
    return np.where(passed < probs.shape[1], passed, last_live)


class TestProjectionBits:
    """``sample_rows`` projects every row on every projector in one 2-D
    product.  Its bytes must equal the stacked product's, row by row; this
    is measured, not derived, so it is checked on many rows, at the draw
    edges and on one-row calls, which BLAS may run as another routine."""

    SPIN = _projector_stack(3, (0, 1))

    @staticmethod
    def assert_projects_as_stacked(states: np.ndarray, projectors: np.ndarray) -> None:
        _, projected, _ = sample_rows(states, projectors, np.full(len(states), 0.5))
        expected = stacked_projection(projectors, states)
        assert projected.tobytes() == expected.tobytes()

    def test_haar_rows(self):
        seeds = derive_seeds(derive_seeds(13, np.arange(100_008, dtype=np.uint64)), 0)
        edges = [(a, b) for a in TestHaarRows.EDGES for b in TestHaarRows.EDGES]
        states = tensor_rows(haar_rows(np.array(edges)), _SINGLET)
        self.assert_projects_as_stacked(states, self.SPIN)
        # Spin's chunks, the call shape the harness makes.
        states = tensor_rows(haar_rows(uniforms(seeds, 2)), _SINGLET)
        for chunk in np.array_split(states, len(states) // CHUNK_TRIALS[Mode.SPIN]):
            self.assert_projects_as_stacked(chunk, self.SPIN)

    def test_swap_state(self):
        state = tensor_rows(SWAP_INPUT, _SINGLET)
        self.assert_projects_as_stacked(state, _projector_stack(4, (1, 2)))

    def test_one_row_calls(self):
        seeds = derive_seeds(np.arange(64, dtype=np.uint64), 0)
        draws = np.concatenate([[(0.0, 0.0), (LAST_BELOW_ONE, 0.5)], uniforms(seeds, 2)])
        states = tensor_rows(haar_rows(draws), _SINGLET)
        for state in (*states, tensor_rows(SHARED_INPUT, _SINGLET)[0]):
            self.assert_projects_as_stacked(state[None], self.SPIN)


class TestPickRowsBits:
    """``pick_rows`` reduces one contiguous ``(K, S)`` copy of its weights;
    it must pick as the row-major rule does, error and fallback included."""

    @staticmethod
    def assert_picks_as_reference(probs: np.ndarray, draws: np.ndarray) -> None:
        expected = reference_pick(probs, draws)
        assert pick_rows(probs, draws).tobytes() == expected.tobytes()

    def test_haar_weights(self):
        seeds = derive_seeds(np.arange(20_000, dtype=np.uint64), 0)
        columns = uniforms(seeds, 3)
        states = tensor_rows(haar_rows(columns[:, :2]), _SINGLET)
        projected = stacked_projection(TestProjectionBits.SPIN, states)
        probs = np.maximum(overlap_rows(states[:, None, :], projected).real, 0.0)
        draws = columns[:, 2].copy()
        # A first draw, a last one, and one on an inner cumulative edge.
        draws[:3] = (0.0, LAST_BELOW_ONE, np.cumsum(probs[2])[1])
        self.assert_picks_as_reference(probs, draws)

    def test_shared_row(self):
        probs = np.array([[0.25, 0.125, 0.5, 0.125]])
        edges = [0.0, 0.25, 0.375, 0.875, LAST_BELOW_ONE]
        draws = np.concatenate([edges, uniforms(np.arange(500, dtype=np.uint64), 1)[:, 0]])
        self.assert_picks_as_reference(probs, draws)

    def test_nan_row_is_degenerate(self):
        probs = np.full((5, 4), 0.25)
        probs[3, 1] = float("nan")
        draws = np.full(5, 0.5)
        expected = batch_error(lambda: reference_pick(probs, draws))
        assert expected == "all outcome probabilities are degenerate (below 1e-15)"
        assert batch_error(lambda: pick_rows(probs, draws)) == expected

    def test_zero_trailing_weights_fall_back_to_the_last_live(self):
        # Both rows sum short of LAST_BELOW_ONE; the second's last two weights
        # are dead, one of them above 0 but below MIN_PROBABILITY.
        probs = np.array([[0.5, 0.25, 0.25 - 2.0**-40, 0.0], [1.0 - 2.0**-30, 1e-14, 1e-16, 0.0]])
        draws = np.array([LAST_BELOW_ONE, LAST_BELOW_ONE])
        self.assert_picks_as_reference(probs, draws)
        assert pick_rows(probs, draws).tolist() == [2, 1]


class TestSwapRows:
    """``teleport_rows`` on the singlet row ``SWAP_INPUT``: entanglement
    swapping."""

    @staticmethod
    def assert_equals_every_row(result: tuple, draws: np.ndarray) -> None:
        outcome, bob_pre, bob_post, inverse, fidelities = result
        expected = swap_every_row(draws)
        assert outcome.tolist() == expected[0].tolist()
        assert bob_pre[inverse].tobytes() == expected[1].tobytes()
        assert bob_post[inverse].tobytes() == expected[2].tobytes()
        assert fidelities.tobytes() == expected[3].tobytes()

    def test_once_per_outcome_equals_every_row(self):
        edges = [0.0, 0.25, 0.5, 0.75, LAST_BELOW_ONE]
        draws = np.concatenate(
            [np.array(edges)[:, None], uniforms(np.arange(3000, dtype=np.uint64), 1)]
        )
        result = teleport_rows(SWAP_INPUT, draws)
        self.assert_equals_every_row(result, draws)
        assert set(result[0].tolist()) == {0, 1, 2, 3}
        assert result[2].shape == (4, 4)

    def test_one_outcome_chunk_and_one_row_call(self):
        draws = np.full((7, 1), 0.1)
        result = teleport_rows(SWAP_INPUT, draws)
        self.assert_equals_every_row(result, draws)
        outcome, _, final, inverse, _ = result
        assert final.shape == (1, 4)
        row_outcome, _, row_final, row_inverse, _ = teleport_rows(SWAP_INPUT, draws[:1])
        assert row_outcome.tolist() == outcome[:1].tolist()
        assert row_final[row_inverse].tobytes() == final[inverse[:1]].tobytes()
        for seed in (0, 7, 2**64 - 1):
            label, state = run_entangled_input(seed)
            outcome, _, final, inverse, _ = teleport_rows(
                SWAP_INPUT, _seed_draws(seed, TRIAL_DRAWS)
            )
            assert label is MEASUREMENT_ORDER[outcome[0]]
            assert state.amplitudes.tobytes() == final[inverse[0]].tobytes()

    def test_normalizes_one_post_state_per_distinct_outcome(self, monkeypatch):
        normalized = []

        def counting_post_rows(*args):
            post = post_rows(*args)
            normalized.append(post.shape[0])
            return post

        monkeypatch.setattr(teleport, "post_rows", counting_post_rows)
        chunk = uniforms(np.arange(1024, dtype=np.uint64), 1)
        # Every trial of a swap chunk, and of a fixed-input spin chunk,
        # measures one shared state.
        for inputs in (SWAP_INPUT, SHARED_INPUT[None]):
            for draws in (np.full((1, 1), 0.1), chunk):
                outcome = teleport_rows(inputs, draws)[0]
                assert normalized.pop() == np.unique(outcome).size <= 4
        assert not normalized

    @pytest.mark.parametrize("bad", [-0.25, 1.0, float("nan")])
    def test_out_of_range_draw(self, bad):
        draws = np.full((6, 1), 0.5)
        draws[3, 0] = bad
        one = batch_error(lambda: teleport_rows(SWAP_INPUT, np.array([[bad]])))
        assert one == f"rng_sample must lie in [0, 1), got {bad}"
        assert batch_error(lambda: teleport_rows(SWAP_INPUT, draws)) == one
