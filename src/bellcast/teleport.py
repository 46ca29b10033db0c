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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .observables import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    BellOutcome,
    bell_measure,
    bell_state,
)
from .qcore import (
    Operator,
    StateVector,
    apply,
    contract_with,
    fidelity,
    tensor,
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
        # Amplitudes were validated in __post_init__, so the wrap is safe.
        return StateVector._trusted(np.array([self.a, self.b], dtype=np.complex128))

    @staticmethod
    def normalized(a: complex, b: complex) -> "UnknownState":
        norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero input state")
        return UnknownState(complex(a) / norm, complex(b) / norm)


# Uniform draws each entry point consumes at most (see uniform_draws).
HAAR_DRAWS = 2
TRIAL_DRAWS = 1
SWAP_DRAWS = 1
BASELINE_DRAWS = 2


def uniform_draws(rng_seed: int, k: int) -> list[float]:
    """The first ``k`` uniforms on [0, 1) of ``default_rng(rng_seed)``.

    Batches compute every trial's row in bulk, bit-identical to this (see
    :mod:`bellcast.stream`), and pass it in; a seed alone draws it here.
    """
    return np.random.default_rng(rng_seed).random(k).tolist()


def haar_from_uniforms(u_cos: float, u_phi: float) -> UnknownState:
    """Haar-uniform qubit state: cos(theta) uniform on [-1, 1], phase uniform.

    The two arguments are uniforms on [0, 1), scaled exactly as
    ``Generator.uniform(-1, 1)`` and ``Generator.uniform(0, 2 pi)`` do.
    """
    cos_theta = -1.0 + 2.0 * u_cos
    phi = 2.0 * np.pi * u_phi
    theta = np.arccos(cos_theta)
    return UnknownState(
        complex(np.cos(theta / 2.0)),
        np.exp(1j * phi) * np.sin(theta / 2.0),
    )


def haar_random_input(rng: np.random.Generator) -> UnknownState:
    """Haar-uniform qubit state from the generator's next two uniforms."""
    return haar_from_uniforms(*rng.random(HAAR_DRAWS).tolist())


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
        if not -1e-12 <= self.fidelity_value <= 1.0 + 1e-12:
            raise ValueError(f"fidelity {self.fidelity_value} outside [0, 1]")


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
        (label, StateVector(np.array(pair, dtype=np.complex128)), _BRANCH_COEFFICIENT)
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


def run_trial(
    input_state: UnknownState, rng_seed: int, draws: Sequence[float] | None = None
) -> TrialRecord:
    """One full teleportation trial, deterministic in ``rng_seed``.

    ``draws``, if given, must equal ``uniform_draws(rng_seed, TRIAL_DRAWS)``.
    """
    if draws is None:
        draws = uniform_draws(rng_seed, TRIAL_DRAWS)
    state = tensor(input_state.state_vector(), prepare_singlet())
    outcome, post = bell_measure(state, (0, 1), draws[0])
    bob_pre = contract_with(post, (0, 1), bell_state(outcome)).normalized()
    correction = correction_for(outcome)
    bob_post = StateVector._trusted(correction.matrix @ bob_pre.amplitudes)
    return TrialRecord(
        input=input_state,
        outcome=outcome,
        message=ClassicalMessage.from_outcome(outcome),
        bob_pre=bob_pre,
        bob_post=bob_post,
        fidelity_value=fidelity(bob_post, input_state.state_vector()),
        rng_seed=rng_seed,
    )


def run_entangled_input(
    rng_seed: int, draws: Sequence[float] | None = None
) -> tuple[BellOutcome, StateVector]:
    """Teleport a qubit that is half of another singlet (entanglement swap).

    Qubits (0, 1) and (2, 3) start as singlets; the Bell measurement lands on
    (1, 2) and the correction on qubit 3.  The returned state of qubits
    (0, 3) is again the singlet, for every outcome.  ``draws``, if given,
    must equal ``uniform_draws(rng_seed, SWAP_DRAWS)``.
    """
    if draws is None:
        draws = uniform_draws(rng_seed, SWAP_DRAWS)
    state = tensor(prepare_singlet(), prepare_singlet())
    outcome, post = bell_measure(state, (1, 2), draws[0])
    corrected = apply(correction_for(outcome), post, (3,))
    final = contract_with(corrected, (1, 2), bell_state(outcome)).normalized()
    return outcome, final


# Product basis on the measured pair, ordered |uu>, |ud>, |du>, |dd>.
_PRODUCT_LABELS = ("uu", "ud", "du", "dd")
_PSI_SECTOR = frozenset((1, 2))


def run_baseline_computational(
    input_state: UnknownState, rng_seed: int, draws: Sequence[float] | None = None
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
    ``draws``, if given, must equal ``uniform_draws(rng_seed, BASELINE_DRAWS)``.
    """
    if draws is None:
        draws = uniform_draws(rng_seed, BASELINE_DRAWS)
    state = tensor(input_state.state_vector(), prepare_singlet())
    psi = state.tensor_view()
    pair_probs = np.array(
        [float(np.sum(np.abs(psi[i >> 1, i & 1, :]) ** 2)) for i in range(4)]
    )
    cumulative = np.cumsum(pair_probs)
    outcome_index = int(np.searchsorted(cumulative, draws[0], side="right"))
    outcome_index = min(outcome_index, 3)

    identified = outcome_index in _PSI_SECTOR and draws[1] < 0.5
    if identified:
        outcome = BellOutcome.PSI_MINUS
        bob = next(
            vec for label, vec, _ in decompose_branches(input_state)
            if label is outcome
        )
    else:
        outcome = None
        bob = StateVector(psi[outcome_index >> 1, outcome_index & 1, :]).normalized()
    record = TrialRecord(
        input=input_state,
        outcome=outcome,
        message=ClassicalMessage.from_outcome(outcome) if identified else None,
        bob_pre=bob,
        bob_post=bob,
        fidelity_value=fidelity(bob, input_state.state_vector()),
        rng_seed=rng_seed,
    )
    return identified, record
