"""End-to-end acceptance checks, one test per top-level claim.

Each test prints a single PASS or FAIL line (run ``pytest -s`` to see them)
and pins the tolerance it enforces.  The module gates every commit.  Its
trial loops run as batch kernel calls, with trial ``i`` drawing from
``rng_seed=i`` exactly as the one-trial entry points do.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np
import pytest

from bellcast.harness import Mode, RunConfig, run_batch
from bellcast.observables import (
    MEASUREMENT_ORDER,
    BellOutcome,
    bell_state,
    build_spin_observables,
    commutator_norms,
    verify_eigen_table,
)
from bellcast.photonic import (
    CASCADE_DRAWS,
    CascadeEventKind,
    EfficiencyConfig,
    IDENTIFYING_EVENTS,
    PairLabel,
    absorption_stage,
    analytic_distribution,
    build_three_mode,
    cascade_rows,
    pair_basis_state,
    pdc_pair,
    waveplate,
)
from bellcast.qcore import StateVector, contract_with, fidelity, tensor
from bellcast.stream import uniforms
from bellcast.teleport import (
    BASELINE_DRAWS,
    TRIAL_DRAWS,
    UnknownState,
    baseline_rows,
    decompose_branches,
    haar_random_input,
    prepare_singlet,
    run_entangled_input,
    teleport_rows,
)

ATOL_EXACT = 1e-12       # analytic identities evaluated in float64
ATOL_ENTRYWISE = 1e-13   # single linear-algebra steps, no accumulation
SUCCESS_FIDELITY = 1.0 - 1e-10
FREQ_TOL_10K = 0.02      # binomial spread at 10^4 trials
FREQ_TOL_100K = 0.005    # binomial spread at 10^5 trials

_EXPECTED_EIGEN = {
    BellOutcome.PSI_PLUS: (2, 1, 1, 0),
    BellOutcome.PSI_MINUS: (0, 0, 0, 0),
    BellOutcome.PHI_PLUS: (2, 1, 0, 1),
    BellOutcome.PHI_MINUS: (2, 0, 1, 1),
}

# Half-wave rotation of the second pair member relabels the pair basis.
_TRANSPORT = {
    PairLabel.CHI_PLUS: (-1.0, PairLabel.GAMMA_MINUS),
    PairLabel.CHI_MINUS: (-1.0, PairLabel.GAMMA_PLUS),
    PairLabel.GAMMA_PLUS: (1.0, PairLabel.CHI_MINUS),
    PairLabel.GAMMA_MINUS: (1.0, PairLabel.CHI_PLUS),
}


def criterion(name: str):
    """Emit one PASS/FAIL line for the wrapped test."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {name}")
                raise
            print(f"PASS  {name}: {detail}")

        return run

    return wrap


@pytest.fixture(scope="module")
def haar_inputs() -> list[UnknownState]:
    rng = np.random.default_rng(20260818)
    return [haar_random_input(rng) for _ in range(10_000)]


def amplitude_rows(states: list[UnknownState]) -> np.ndarray:
    return np.array([state.state_vector().amplitudes for state in states])


def seed_draws(seeds: range, k: int) -> np.ndarray:
    """Row ``i`` holds the first ``k`` uniforms of ``default_rng(seeds[i])``,
    the draws the trial entry points take from ``rng_seed``."""
    return uniforms(np.arange(seeds.start, seeds.stop, dtype=np.uint64), k)


def cascade_kinds_and_fidelities(
    states: list[UnknownState], cfg: EfficiencyConfig, trials: int
) -> tuple[Counter, list]:
    """Trial ``i`` runs ``states[i % len(states)]`` with ``rng_seed=i``, in
    chunks of 10^4 trials so that memory stays small."""
    inputs = amplitude_rows(states)
    counts: Counter[CascadeEventKind] = Counter()
    fidelities = []
    kinds = list(CascadeEventKind)
    for start in range(0, trials, 10_000):
        seeds = range(start, min(start + 10_000, trials))
        codes, _, _, values = cascade_rows(
            inputs[np.array(seeds) % len(states)], cfg,
            seed_draws(seeds, CASCADE_DRAWS),
        )
        counts.update(kinds[code] for code in codes.tolist())
        fidelities += values
    return counts, fidelities


@criterion("commuting-set verification")
def test_squared_spin_set_commutes_with_exact_eigen_table():
    start = time.perf_counter()
    observables = build_spin_observables()
    norms = commutator_norms(observables)
    assert len(norms) == 6
    worst = max(norms.values())
    assert worst < ATOL_EXACT

    table = verify_eigen_table(observables)
    rounded = {}
    for label, row in table.rows.items():
        assert max(abs(v - round(v)) for v in row) < ATOL_EXACT
        rounded[label] = tuple(int(round(v)) for v in row)
    assert rounded == _EXPECTED_EIGEN

    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    return f"max |[A,B]| = {worst:.1e}, eigen table exact, {elapsed * 1e3:.1f} ms"


@criterion("total teleportation")
def test_teleportation_succeeds_on_every_haar_input(haar_inputs):
    # Trial i runs haar_inputs[i] with rng_seed=i.
    trials = len(haar_inputs)
    outcomes, _, _, fidelities = teleport_rows(
        amplitude_rows(haar_inputs), seed_draws(range(trials), TRIAL_DRAWS)
    )
    counts = Counter(MEASUREMENT_ORDER[i] for i in outcomes.tolist())
    min_fid = min(fidelities)
    worst_branch_dev = 0.0
    for state in haar_inputs:
        for _, branch, coefficient in decompose_branches(state):
            weight = coefficient**2 * float(
                np.vdot(branch.amplitudes, branch.amplitudes).real
            )
            worst_branch_dev = max(worst_branch_dev, abs(weight - 0.25))

    assert min_fid >= SUCCESS_FIDELITY
    assert worst_branch_dev < ATOL_EXACT
    assert set(counts) == set(BellOutcome)
    for outcome in BellOutcome:
        assert abs(counts[outcome] / trials - 0.25) <= FREQ_TOL_10K
    spread = max(abs(c / trials - 0.25) for c in counts.values())
    return (
        f"min fidelity {min_fid:.12f} over {trials} trials, "
        f"outcome spread {spread:.4f}, branch weights off 1/4 by "
        f"{worst_branch_dev:.1e}"
    )


@criterion("no-signalling")
def test_receiver_density_is_maximally_mixed_before_message(haar_inputs):
    eye_half = np.eye(2, dtype=np.complex128) / 2.0
    worst = 0.0
    for state in haar_inputs[:100]:
        joint = tensor(state.state_vector(), prepare_singlet())
        rho = np.zeros((2, 2), dtype=np.complex128)
        for outcome in BellOutcome:
            component = contract_with(joint, (0, 1), bell_state(outcome))
            rho += np.outer(component.amplitudes, component.amplitudes.conj())
        worst = max(worst, float(np.max(np.abs(rho - eye_half))))
    assert worst < ATOL_EXACT
    return f"outcome-averaged receiver density within {worst:.1e} of I/2"


def _expected_residual(terms: list[tuple[PairLabel, tuple[complex, complex]]]):
    total = np.zeros(8, dtype=np.complex128)
    for label, (r, l) in terms:
        mode2 = np.array([r, l], dtype=np.complex128)
        total += np.multiply.outer(
            pair_basis_state(label).amplitudes, mode2
        ).ravel()
    return StateVector(total).normalized()


@criterion("cascade-oracle equivalence")
def test_cascade_distribution_residuals_and_event_fidelity(haar_inputs):
    ideal = EfficiencyConfig()

    for state in haar_inputs[:5]:
        dist = analytic_distribution(state, ideal)
        for kind in IDENTIFYING_EVENTS:
            assert abs(dist[kind] - 0.25) < ATOL_EXACT
        assert abs(sum(dist.values()) - 1.0) < ATOL_EXACT

    # Walk the declined-absorption path and compare each surviving state
    # against its closed-form expansion over the pair basis.
    worst_residual_err = 0.0
    for state in [UnknownState(0.6, 0.8j)] + haar_inputs[:3]:
        a, b = complex(state.a), complex(state.b)
        three = build_three_mode(state)
        fired, after_first = absorption_stage(three, 1.0, rng_sample=0.9)
        assert not fired
        at_second = waveplate(after_first, 1)
        expected_second = _expected_residual(
            [
                (PairLabel.GAMMA_MINUS, (-b, a)),
                (PairLabel.CHI_MINUS, (a, -b)),
                (PairLabel.CHI_PLUS, (a, b)),
            ]
        )
        worst_residual_err = max(
            worst_residual_err, 1.0 - fidelity(at_second, expected_second)
        )
        fired, after_second = absorption_stage(at_second, 1.0, rng_sample=0.9)
        assert not fired
        expected_final = _expected_residual(
            [
                (PairLabel.GAMMA_MINUS, (-b, a)),
                (PairLabel.CHI_PLUS, (a, b)),
            ]
        )
        worst_residual_err = max(
            worst_residual_err, 1.0 - fidelity(after_second, expected_final)
        )
    assert worst_residual_err < ATOL_EXACT

    trials = 100_000
    counts, fidelities = cascade_kinds_and_fidelities(haar_inputs, ideal, trials)
    min_fid = min(fidelities)

    assert set(counts) == IDENTIFYING_EVENTS
    for kind in IDENTIFYING_EVENTS:
        assert abs(counts[kind] / trials - 0.25) <= FREQ_TOL_100K
    assert min_fid >= SUCCESS_FIDELITY
    spread = max(abs(c / trials - 0.25) for c in counts.values())
    return (
        f"analytic events 1/4 each, residuals off by {worst_residual_err:.1e}, "
        f"min fidelity {min_fid:.12f} and frequency spread {spread:.4f} "
        f"over {trials} trials"
    )


@criterion("waveplate algebra")
def test_waveplate_creates_chi_plus_and_transports_pair_basis():
    rotated = waveplate(pdc_pair(), 0)
    target = pair_basis_state(PairLabel.CHI_PLUS)
    source_dev = float(np.max(np.abs(rotated.amplitudes - target.amplitudes)))
    assert source_dev < ATOL_ENTRYWISE

    worst = source_dev
    for label, (sign, image) in _TRANSPORT.items():
        moved = waveplate(pair_basis_state(label), 1)
        expected = sign * pair_basis_state(image).amplitudes
        worst = max(worst, float(np.max(np.abs(moved.amplitudes - expected))))
    assert worst < ATOL_ENTRYWISE
    return f"pair-source rotation and all four relabelings within {worst:.1e}"


@criterion("baseline contrast")
def test_product_basis_baseline_caps_at_one_quarter(haar_inputs):
    # Trial i runs haar_inputs[i] with rng_seed=i, in both protocols.
    trials = range(len(haar_inputs))
    inputs = amplitude_rows(haar_inputs)
    identified, _, _ = baseline_rows(inputs, seed_draws(trials, BASELINE_DRAWS))
    rate = int(identified.sum()) / len(trials)
    assert abs(rate - 0.25) <= FREQ_TOL_10K

    _, _, _, fidelities = teleport_rows(inputs, seed_draws(trials, TRIAL_DRAWS))
    min_fid = min(fidelities)
    assert min_fid >= SUCCESS_FIDELITY
    return (
        f"product-basis analysis certifies {rate:.4f} of trials, "
        f"full protocol min fidelity {min_fid:.12f} on the same inputs and seeds"
    )


@criterion("entanglement swapping")
def test_swapped_outer_pair_is_singlet_for_every_outcome():
    singlet = bell_state(BellOutcome.PSI_MINUS)
    fidelities: dict[BellOutcome, float] = {}
    for seed in range(200):
        outcome, final = run_entangled_input(seed)
        fidelities.setdefault(outcome, fidelity(final, singlet))
        if len(fidelities) == 4:
            break
    assert set(fidelities) == set(BellOutcome)
    worst = min(fidelities.values())
    assert worst >= SUCCESS_FIDELITY
    return f"outer-pair singlet fidelity at least {worst:.12f} on all 4 outcomes"


@criterion("loss model sanity")
def test_lossy_detection_keeps_conditional_results_ideal(haar_inputs):
    lossy = EfficiencyConfig(eta_det=0.7)
    dist = analytic_distribution(haar_inputs[0], lossy)
    detected = sum(dist[kind] for kind in IDENTIFYING_EVENTS)
    worst_cond = max(
        abs(dist[kind] / detected - 0.25) for kind in IDENTIFYING_EVENTS
    )
    assert worst_cond < ATOL_EXACT

    counts, fidelities = cascade_kinds_and_fidelities(haar_inputs[:2_000], lossy, 2_000)
    identified = sum(counts[kind] for kind in IDENTIFYING_EVENTS)
    missed = counts[CascadeEventKind.NO_EVENT]
    min_fid = min(value for value in fidelities if value is not None)
    assert identified > 0 and missed > 0
    assert min_fid >= SUCCESS_FIDELITY
    return (
        f"conditional event split off 1/4 by {worst_cond:.1e}, "
        f"conditional min fidelity {min_fid:.12f} "
        f"({identified} detected, {missed} lost)"
    )


@criterion("reproducibility")
def test_identical_configs_reproduce_byte_identical_records(tmp_path):
    paths = [tmp_path / "first.jsonl", tmp_path / "second.jsonl"]
    for path in paths:
        cfg = RunConfig(
            mode=Mode.PHOTON,
            trials=300,
            master_seed=7,
            efficiency=EfficiencyConfig(eta_det=0.85),
            output_path=str(path),
        )
        run_batch(cfg)
    first, second = (path.read_bytes() for path in paths)
    assert len(first) > 0
    assert first == second
    return f"two runs wrote identical files ({len(first)} bytes, 300 records)"
