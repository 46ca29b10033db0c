"""Teleportation of an unknown qubit through a shared singlet.

The unknown state ``a|up> + b|down>`` on qubit 0 joined to a singlet pair on
qubits (1, 2) splits into four equal-weight branches, one per Bell state of
qubits (0, 1):

    PsiMinus : -a|up> - b|down>      (identity correction)
    PsiPlus  : -a|up> + b|down>      (sigma_z)
    PhiMinus :  b|up> + a|down>      (sigma_x)
    PhiPlus  : -b|up> + a|down>      (sigma_x sigma_z)

Identifying the branch via the commuting squared-spin measurement and sending
two classical bits lets the receiver recover the input exactly, every trial.
The two message bits are simply the measured (Sz^2, Sx^2) pair.

Also provided: teleportation of a qubit that is itself half of another
singlet (entanglement swapping), and a baseline in which the sender measures
in the product basis and only ever identifies the singlet branch, succeeding
on a quarter of trials.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .observables import (
    MEASUREMENT_ORDER,
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    BellOutcome,
    bell_measure,  # noqa: F401 - perfbench's tracer looks it up here
    bell_projectors,
    bell_state,
)
from .qcore import (
    Operator,
    StateVector,
    apply,  # noqa: F401 - perfbench's tracer looks it up here
    apply_rows,
    contract_rows,
    contract_with,  # noqa: F401 - perfbench's tracer looks it up here
    fidelity,  # noqa: F401 - perfbench's tracer looks it up here
    fidelity_rows,
    measure_rows,
    normalized_rows,
    post_rows,
    sample_rows,
    tensor,
    tensor_rows,
    unitary_table,
)

_NORM_ATOL = 1e-12


@dataclass(frozen=True)
class UnknownState:
    """Single-qubit input ``a|up> + b|down>`` with ``|a|^2 + |b|^2 == 1``."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        total = abs(self.a) ** 2 + abs(self.b) ** 2
        if not abs(total - 1.0) <= _NORM_ATOL:  # NaN fails this too
            raise ValueError(f"input state not normalized: |a|^2+|b|^2 = {total!r}")

    def state_vector(self) -> StateVector:
        return StateVector([self.a, self.b])

    @staticmethod
    def normalized(a: complex, b: complex) -> "UnknownState":
        norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero input state")
        return UnknownState(complex(a) / norm, complex(b) / norm)


# Uniform draws each entry point consumes at most (see _seed_draws).
HAAR_DRAWS = 2
TRIAL_DRAWS = 1
SWAP_DRAWS = 1
BASELINE_DRAWS = 2


def _seed_draws(rng_seed: int, k: int) -> np.ndarray:
    """A one-trial call's ``(1, k)`` draw row: the first ``k`` uniforms on
    [0, 1) of ``default_rng(rng_seed)``.  Batches compute every trial's row
    in bulk, bit-identical to this (see :mod:`bellcast.stream`).
    """
    return np.random.default_rng(rng_seed).random((1, k))


def haar_rows(draws: np.ndarray) -> np.ndarray:
    """``(N, 2)`` Haar-uniform qubit inputs from ``(N, HAAR_DRAWS)`` uniforms:
    cos(theta) uniform on [-1, 1] and the phase on [0, 2 pi), scaled as
    ``Generator.uniform`` does.  Each row is checked as :class:`UnknownState`
    checks, and is bit-identical to the scalar numpy calls in this order.
    """
    cos_theta = -1.0 + 2.0 * draws[:, 0]
    phi = 2.0 * np.pi * draws[:, 1]
    theta = np.arccos(cos_theta)
    rows = np.empty((draws.shape[0], 2), dtype=np.complex128)
    rows[:, 0] = np.cos(theta / 2.0)
    rows[:, 1] = np.exp(1j * phi) * np.sin(theta / 2.0)
    totals = np.abs(rows[:, 0]) ** 2 + np.abs(rows[:, 1]) ** 2
    bad = ~(np.abs(totals - 1.0) <= _NORM_ATOL)
    if bad.any():
        total = float(totals[bad][0])
        raise ValueError(f"input state not normalized: |a|^2+|b|^2 = {total!r}")
    return rows


def haar_random_input(rng: np.random.Generator) -> UnknownState:
    """Haar-uniform qubit state from the generator's next two uniforms."""
    return UnknownState(*haar_rows(rng.random((1, HAAR_DRAWS))).tolist()[0])


@dataclass(frozen=True)
class ClassicalMessage:
    """Two-bit message carrying the measured (Sz^2, Sx^2) eigenvalue pair."""

    bits: tuple[int, int]

    def __post_init__(self) -> None:
        if len(self.bits) != 2 or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"message bits must be two 0/1 values, got {self.bits}")

    @staticmethod
    def from_outcome(outcome: BellOutcome) -> "ClassicalMessage":
        return ClassicalMessage(outcome.signature)

    def to_outcome(self) -> BellOutcome:
        for outcome in BellOutcome:
            if outcome.signature == self.bits:
                return outcome
        raise ValueError(f"no Bell outcome for bits {self.bits}")

    def as_string(self) -> str:
        return f"{self.bits[0]}{self.bits[1]}"


@dataclass(frozen=True)
class TrialRecord:
    """One teleportation trial: what was sent, measured, and recovered."""

    input: UnknownState
    outcome: BellOutcome | None
    message: ClassicalMessage | None
    bob_pre: StateVector
    bob_post: StateVector
    fidelity_value: float
    rng_seed: int

    def __post_init__(self) -> None:
        _require_fidelity_range([self.fidelity_value])


def _require_fidelity_range(values: np.ndarray | list[float]) -> None:
    """:class:`TrialRecord`'s fidelity check, over a batch's values."""
    array = np.asarray(values, dtype=np.float64)
    bad = ~((array >= -1e-12) & (array <= 1.0 + 1e-12))
    if bad.any():
        raise ValueError(f"fidelity {array[bad][0]} outside [0, 1]")


def prepare_singlet() -> StateVector:
    """The shared channel pair ``sqrt(1/2)(|ud> - |du>)``."""
    return bell_state(BellOutcome.PSI_MINUS)


_BRANCH_COEFFICIENT = 0.5


def decompose_branches(
    input_state: UnknownState,
) -> list[tuple[BellOutcome, StateVector, float]]:
    """The four (outcome, receiver-branch, coefficient) triples listed above.

    Every coefficient is 1/2, so each branch occurs with probability 1/4
    regardless of the input.  Branch signs are kept exactly as derived; they
    are global phases once the correction is applied.
    """
    a, b = complex(input_state.a), complex(input_state.b)
    branches = {
        BellOutcome.PSI_MINUS: (-a, -b),
        BellOutcome.PSI_PLUS: (-a, b),
        BellOutcome.PHI_MINUS: (b, a),
        BellOutcome.PHI_PLUS: (-b, a),
    }
    return [
        (label, StateVector(pair), _BRANCH_COEFFICIENT)
        for label, pair in branches.items()
    ]


_CORRECTIONS: dict[BellOutcome, np.ndarray] = {
    BellOutcome.PSI_MINUS: PAULI_I,
    BellOutcome.PSI_PLUS: PAULI_Z,
    BellOutcome.PHI_MINUS: PAULI_X,
    BellOutcome.PHI_PLUS: PAULI_X @ PAULI_Z,
}
_CORRECTION_OPS = unitary_table(_CORRECTIONS)


def correction_for(outcome: BellOutcome) -> Operator:
    """Receiver-side unitary that maps the branch back to the input state."""
    return _CORRECTION_OPS[outcome]


# The row-batched kernel.  Each protocol below runs a whole batch of trials
# as (N, 8) or (N, 16) complex arrays, one trial per row, with the same float
# operations in the same order as the scalar qcore calls (see qcore's
# row-batched forms), so every row is bit-identical to a one-trial call.
# Each kernel returns its ``(N,)`` intp codes first and its ``(N,)`` float64
# fidelities last; outcome indices follow MEASUREMENT_ORDER.
_SINGLET = prepare_singlet().amplitudes
_BELL_BRAS = np.array([bell_state(o).amplitudes.conj() for o in MEASUREMENT_ORDER])
_CORRECTION_MATRICES = np.array([_CORRECTION_OPS[o].matrix for o in MEASUREMENT_ORDER])
_SWAP_STATE = tensor(prepare_singlet(), prepare_singlet()).amplitudes


@functools.cache
def _projector_stack(n_qubits: int, qubits: tuple[int, int]) -> np.ndarray:
    """The Bell projectors on ``qubits`` as one read-only ``(4, dim, dim)``
    array, built on first use like :func:`bell_projectors` itself."""
    stack = np.array([p.matrix for p in bell_projectors(n_qubits, qubits)])
    stack.setflags(write=False)
    return stack


def teleport_rows(inputs: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`run_trial` for a batch: one ``(N, 2)`` input row and one
    ``(N, TRIAL_DRAWS)`` draw row per trial.

    Returns the outcome indices, ``bob_pre`` and ``bob_post`` as ``(N, 2)``
    arrays, and the ``(N,)`` float64 fidelities.
    """
    projectors = _projector_stack(3, (0, 1))
    outcome, post = measure_rows(tensor_rows(inputs, _SINGLET), projectors, draws[:, 0])
    bob_pre = normalized_rows(contract_rows(post, (0, 1), _BELL_BRAS[outcome]))
    bob_post = apply_rows(_CORRECTION_MATRICES[outcome], bob_pre, (0,))
    fidelities = fidelity_rows(bob_post, inputs)
    _require_fidelity_range(fidelities)
    return outcome, bob_pre, bob_post, fidelities


def run_trial(input_state: UnknownState, rng_seed: int) -> TrialRecord:
    """One full teleportation trial, deterministic in ``rng_seed``."""
    outcome, bob_pre, bob_post, fidelities = teleport_rows(
        input_state.state_vector().amplitudes[None],
        _seed_draws(rng_seed, TRIAL_DRAWS),
    )
    outcome = MEASUREMENT_ORDER[outcome[0]]
    return TrialRecord(
        input=input_state,
        outcome=outcome,
        message=ClassicalMessage.from_outcome(outcome),
        bob_pre=StateVector(bob_pre[0]),
        bob_post=StateVector(bob_post[0]),
        fidelity_value=float(fidelities[0]),
        rng_seed=rng_seed,
    )


def swap_rows(draws: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`run_entangled_input` for a batch of ``(N, SWAP_DRAWS)`` draw rows.

    Every trial starts from the same state, so one :func:`sample_rows` call
    measures it against all the draws, and the post state and every step
    after it run once per distinct outcome: at most 4 rows.  Returns the
    outcome indices, the ``(D, 4)`` states of qubits (0, 3) per distinct
    outcome, ascending, each trial's row ``inverse`` in them, and the
    ``(N,)`` float64 fidelities to the singlet.
    """
    projectors = _projector_stack(4, (1, 2))
    outcome, projected, probs = sample_rows(_SWAP_STATE[None], projectors, draws[:, 0])
    seen = np.bincount(outcome, minlength=len(projectors)) > 0
    distinct = np.flatnonzero(seen)
    inverse = (np.cumsum(seen) - 1)[outcome]
    post = post_rows(projected, probs, 0, distinct)
    # The correction on qubit 3, then <Bell| contracted over qubits (1, 2).
    corrected = apply_rows(_CORRECTION_MATRICES[distinct], post, (3,))
    final = normalized_rows(contract_rows(corrected, (1, 2), _BELL_BRAS[distinct]))
    values = fidelity_rows(final, np.broadcast_to(_SINGLET, final.shape))
    return outcome, final, inverse, values[inverse]


def run_entangled_input(rng_seed: int) -> tuple[BellOutcome, StateVector]:
    """Teleport a qubit that is half of another singlet (entanglement swap).

    Qubits (0, 1) and (2, 3) start as singlets; the Bell measurement lands on
    (1, 2) and the correction on qubit 3.  The returned state of qubits
    (0, 3) is again the singlet, for every outcome.
    """
    outcome, final, inverse, _ = swap_rows(_seed_draws(rng_seed, SWAP_DRAWS))
    return MEASUREMENT_ORDER[outcome[0]], StateVector(final[inverse[0]])


def baseline_rows(inputs: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`run_baseline_computational` for a batch: one ``(N, 2)`` input
    row and one ``(N, BASELINE_DRAWS)`` draw row per trial.

    Returns the codes, 1 where a trial was identified and 0 where not, the
    receiver states (``bob_pre``, which is also ``bob_post``) as an
    ``(N, 2)`` array, and the ``(N,)`` float64 fidelities.
    """
    n = inputs.shape[0]
    # Product outcomes on the measured pair: |uu>, |ud>, |du>, |dd>.
    psi = tensor_rows(inputs, _SINGLET).reshape(n, 4, 2)
    squares = np.abs(psi) ** 2
    cumulative = np.cumsum(squares[:, :, 0] + squares[:, :, 1], axis=1)
    # searchsorted(cumulative, draw, side="right"), clamped to the last outcome
    outcome = np.minimum((cumulative <= draws[:, :1]).sum(axis=1), 3)
    identified = ((outcome == 1) | (outcome == 2)) & (draws[:, 1] < 0.5)
    # A certified trial holds the singlet branch (-a, -b) of decompose_branches.
    bob = -inputs
    missed = np.flatnonzero(~identified)
    bob[missed] = normalized_rows(psi[missed, outcome[missed]])
    fidelities = fidelity_rows(bob, inputs)
    _require_fidelity_range(fidelities)
    return identified.astype(np.intp), bob, fidelities


def run_baseline_computational(
    input_state: UnknownState, rng_seed: int
) -> tuple[bool, TrialRecord]:
    """Baseline protocol: product-basis analysis instead of the Bell basis.

    The sender's apparatus resolves the measured pair in the product basis
    ``{|uu>, |ud>, |du>, |dd>}``.  A product outcome cannot separate the two
    odd-parity Bell branches, so the apparatus only ever certifies the
    singlet branch, and (absent any pair interaction) a fair post-selection
    does so for half of the odd-parity events: exactly 1/4 of all trials.

    On a certified trial the apparatus has projected onto the singlet branch
    and the identity correction restores the input with fidelity 1.  On all
    other trials the register has collapsed to the sampled product state; the
    receiver applies no correction and the fidelity is recorded as-is.
    """
    codes, bob, fidelities = baseline_rows(
        input_state.state_vector().amplitudes[None],
        _seed_draws(rng_seed, BASELINE_DRAWS),
    )
    identified = bool(codes[0])
    outcome = BellOutcome.PSI_MINUS if identified else None
    bob = StateVector(bob[0])
    record = TrialRecord(
        input=input_state,
        outcome=outcome,
        message=ClassicalMessage.from_outcome(outcome) if identified else None,
        bob_pre=bob,
        bob_post=bob,
        fidelity_value=float(fidelities[0]),
        rng_seed=rng_seed,
    )
    return identified, record
