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

Entanglement swapping is the same procedure on a qubit that is itself half
of another singlet: one kernel, :func:`teleport_rows`, takes a one- or
two-qubit input register and Bell-measures its last qubit with the channel
pair's first.  Also provided: a baseline in which the sender measures in the
product basis and only ever identifies the singlet branch, succeeding on a
quarter of trials.
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
    _require_normalized_rows,
    apply,  # noqa: F401 - perfbench's tracer looks it up here
    apply_rows,
    contract_rows,
    contract_with,  # noqa: F401 - perfbench's tracer looks it up here
    distinct_keys,
    fidelity,  # noqa: F401 - perfbench's tracer looks it up here
    fidelity_rows,
    normalized_rows,
    pick_rows,
    post_rows,
    project_rows,
    require_draws_rows,
    sample_rows,
    tensor,  # noqa: F401 - perfbench's tracer looks it up here
    tensor_rows,
    unitary_table,
)

_NORM_ATOL = 1e-12


def _require_normalized(totals) -> None:
    """Every input state's check: each ``|a|^2 + |b|^2`` in ``totals`` is 1
    to within 1e-12 (NaN fails too), or ``ValueError`` shows the first that
    is not."""
    totals = np.atleast_1d(totals)
    bad = ~(np.abs(totals - 1.0) <= _NORM_ATOL)
    if bad.any():
        total = float(totals[bad][0])
        raise ValueError(f"input state not normalized: |a|^2+|b|^2 = {total!r}")


def _require_blocks(
    inputs: np.ndarray, widths: tuple[int, ...], draws: np.ndarray, k: int
) -> np.ndarray:
    """Every kernel's one boundary check, its first statement: a 2-D block
    of input rows of a width in ``widths``, a 2-D block of ``k`` draws per
    row, one input row per draw row or one row that every trial shares,
    every draw in [0, 1) (:func:`qcore.require_draws_rows`), each column of
    each row, whether or not its trial reads it, and every input row
    normalized to within 1e-9 (NaN fails), a dark trial's included.  No
    message about a block names its row count, so a batch and a
    one-row call raise alike.  Returns the input block as complex128, which
    the kernel then uses: a real or integer row reads as its complex row.
    Past it, a kernel and the row forms it calls trust their blocks."""
    for block, what, allowed in ((inputs, "input", widths), (draws, "draw", (k,))):
        if block.ndim != 2 or block.shape[1] not in allowed:
            got = f"width {block.shape[1]}" if block.ndim == 2 else f"{block.ndim}-D"
            expected = " or ".join(map(str, allowed))
            raise ValueError(f"expected 2-D {what} rows of width {expected}, got {got}")
    if len(inputs) not in (1, len(draws)):
        raise ValueError(
            f"expected 1 or {len(draws)} input rows for {len(draws)} draw rows,"
            f" got {len(inputs)}"
        )
    require_draws_rows(draws)
    inputs = np.asarray(inputs, np.complex128)
    _require_normalized_rows(inputs, "input state")
    return inputs


def _squared_modulus(a: complex, b: complex) -> float:
    """``|a|^2 + |b|^2``, or ``inf`` where Python's float arithmetic overflows."""
    try:
        return abs(a) ** 2 + abs(b) ** 2
    except OverflowError:
        return np.inf


@dataclass(frozen=True)
class UnknownState:
    """Single-qubit input ``a|up> + b|down>`` with ``|a|^2 + |b|^2 == 1``."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        _require_normalized(_squared_modulus(self.a, self.b))

    def state_vector(self) -> StateVector:
        return StateVector([self.a, self.b])

    @staticmethod
    def normalized(a: complex, b: complex) -> "UnknownState":
        norm = np.sqrt(_squared_modulus(a, b))
        if norm < 1e-12:
            raise ValueError("cannot normalize a zero input state")
        if norm == np.inf:
            raise ValueError("cannot normalize an input state: |a|^2+|b|^2 = inf")
        return UnknownState(complex(a) / norm, complex(b) / norm)


def checked_input(a: complex, b: complex) -> UnknownState:
    """A hand-given input (``fixed:a,b``): ``|a|^2 + |b|^2`` must be 1 to
    within 1e-9, and the state is then rescaled to norm 1."""
    total = _squared_modulus(a, b)
    if not abs(total - 1.0) <= 1e-9:  # NaN fails this too
        raise ValueError(f"input not normalized (|a|^2+|b|^2 = {total:.12g})")
    return UnknownState.normalized(a, b)


# Uniform draws each entry point consumes at most (see _seed_draws).
HAAR_DRAWS = 2
TRIAL_DRAWS = 1
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
    _require_normalized(np.abs(rows[:, 0]) ** 2 + np.abs(rows[:, 1]) ** 2)
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
        # The kernels' fidelities lie in [0, 1] by construction (fidelity_rows);
        # this checks a record built by hand.
        if not -1e-12 <= self.fidelity_value <= 1.0 + 1e-12:  # NaN fails this too
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


# The row-batched kernels.  Each protocol below runs a whole batch of trials
# as (N, 8) or (N, 16) complex arrays, one trial per row, with the same float
# operations in the same order as the scalar qcore calls (see qcore's
# row-batched forms), so every row is bit-identical to a one-trial call.
# Each kernel returns its ``(N,)`` intp codes first and its ``(N,)`` float64
# fidelities last; outcome indices follow MEASUREMENT_ORDER.
_SINGLET = prepare_singlet().amplitudes
_BELL_BRAS = np.array([bell_state(o).amplitudes.conj() for o in MEASUREMENT_ORDER])
_CORRECTION_MATRICES = np.array([_CORRECTION_OPS[o].matrix for o in MEASUREMENT_ORDER])
# Entanglement swapping's input register: qubits (0, 1) of another singlet.
SWAP_INPUT = _SINGLET[None]


@functools.cache
def _projector_stack(n_qubits: int, qubits: tuple[int, int]) -> np.ndarray:
    """The Bell projectors on ``qubits`` as one read-only ``(4, dim, dim)``
    array, built on first use like :func:`bell_projectors` itself."""
    stack = np.array([p.matrix for p in bell_projectors(n_qubits, qubits)])
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True, eq=False)
class OutcomeTable:
    """A shared input row's four Bell outcomes, finished: its ``(1, 4)``
    Born probabilities, and per outcome, in MEASUREMENT_ORDER, the
    ``bob_pre`` row, the corrected ``bob_post`` row and its fidelity.  Each
    outcome has probability 1/4 whatever the input, so a trial that shares
    the row only picks one of the four (:func:`teleport_rows`)."""

    probs: np.ndarray
    bob_pre: np.ndarray
    bob_post: np.ndarray
    fidelities: np.ndarray


def _channel(inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``inputs`` tensored with the channel singlet, and the Bell projectors
    of the measured pair: the input's last qubit and the channel's first."""
    n = inputs.shape[1].bit_length() - 1
    return tensor_rows(inputs, _SINGLET), _projector_stack(n + 2, (n - 1, n))


def _finished(inputs, projected, probs, keys) -> tuple[np.ndarray, ...]:
    """The receiver rows of outcomes ``keys`` of ``inputs``' rows (the two
    broadcast): the post state with the measured pair contracted out,
    normalized, corrected on the receiver (its last qubit) and scored
    against the input.  Returns ``bob_pre``, ``bob_post`` and the
    fidelities."""
    n = inputs.shape[1].bit_length() - 1
    post = post_rows(projected, probs, np.arange(len(inputs)), keys)
    bob_pre = normalized_rows(contract_rows(post, (n - 1, n), _BELL_BRAS[keys]))
    bob_post = apply_rows(_CORRECTION_MATRICES[keys], bob_pre, (n - 1,))
    return bob_pre, bob_post, fidelity_rows(bob_post, inputs)


def outcome_table(row: np.ndarray) -> OutcomeTable:
    """The :class:`OutcomeTable` of one checked ``(1, 2)`` or ``(1, 4)``
    complex input row, as :func:`_require_blocks` returns it.  Its rows are
    the ones :func:`teleport_rows` finishes per trial, over all four
    outcomes at once.  A harness batch builds it once and hands it to every
    chunk; it lives as long as the batch holds it."""
    projected, probs = project_rows(*_channel(row))
    keys = np.arange(len(MEASUREMENT_ORDER))
    return OutcomeTable(probs, *_finished(row, projected, probs, keys))


def teleport_rows(
    inputs: np.ndarray, draws: np.ndarray, table: OutcomeTable | None = None
) -> tuple[np.ndarray, ...]:
    """:func:`run_trial` and :func:`run_entangled_input` for a batch: one
    ``(N, TRIAL_DRAWS)`` draw row per trial, and one input row per trial or
    one ``(1, width)`` row that every trial shares.

    An input row holds a one-qubit state (width 2) or a two-qubit one (width
    4, as :data:`SWAP_INPUT`).  The input is tensored with the channel
    singlet, and its last qubit and the pair's first are Bell-measured.  The
    measured pair is contracted out, the rest normalized, corrected on the
    receiver (the last qubit) and scored against the input: once per trial,
    or, when every trial shares one input row, once per batch for all four
    outcomes, in the row's :class:`OutcomeTable`.  ``table`` is that row's
    table (:func:`outcome_table`), which a batch builds once and hands to
    each chunk; a shared-row call without one builds its own.  Each trial
    then only picks its outcome from the table's probabilities.

    Its first statement checks both blocks (:func:`_require_blocks`): input
    rows of width 2 or 4, each normalized, one draw per row, every draw in
    [0, 1).  Past it, the row forms trust their rows, and the fidelities lie
    in [0, 1] by construction (:func:`qcore.fidelity_rows`).

    Returns the ``(N,)`` outcome indices, ``bob_pre`` and ``bob_post`` with
    one row per trial or per distinct outcome, ascending, each trial's row
    ``inverse`` in them, and the ``(N,)`` float64 fidelities.
    """
    inputs = _require_blocks(inputs, (2, 4), draws, TRIAL_DRAWS)
    if len(inputs) == 1:  # one state for every trial
        if table is None:
            table = outcome_table(inputs)
        outcome = pick_rows(table.probs, draws[:, 0])
        keys, inverse = distinct_keys(outcome, len(MEASUREMENT_ORDER))
        bob_pre, bob_post = table.bob_pre[keys], table.bob_post[keys]
        return outcome, bob_pre, bob_post, inverse, table.fidelities[outcome]
    outcome, projected, probs = sample_rows(*_channel(inputs), draws[:, 0])
    bob_pre, bob_post, fidelities = _finished(inputs, projected, probs, outcome)
    return outcome, bob_pre, bob_post, np.arange(len(outcome)), fidelities


def run_trial(input_state: UnknownState, rng_seed: int) -> TrialRecord:
    """One full teleportation trial, deterministic in ``rng_seed``."""
    outcome, bob_pre, bob_post, _, fidelities = teleport_rows(
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


def run_entangled_input(rng_seed: int) -> tuple[BellOutcome, StateVector]:
    """Teleport a qubit that is half of another singlet (entanglement swap).

    The one-row :func:`teleport_rows` call on :data:`SWAP_INPUT`: qubits
    (0, 1) and (2, 3) start as singlets, the Bell measurement lands on
    (1, 2), and the correction on qubit 3 of the remaining pair (0, 3).  The
    returned state of that pair is again the singlet, for every outcome.
    """
    outcome, _, bob_post, _, _ = teleport_rows(
        SWAP_INPUT, _seed_draws(rng_seed, TRIAL_DRAWS)
    )
    return MEASUREMENT_ORDER[outcome[0]], StateVector(bob_post[0])


def baseline_rows(inputs: np.ndarray, draws: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`run_baseline_computational` for a batch: one
    ``(N, BASELINE_DRAWS)`` draw row per trial, and one ``(N, 2)`` input row
    per trial or one ``(1, 2)`` shared row.

    Returns the codes, 1 where a trial was identified and 0 where not, the
    receiver states (``bob_pre``, which is also ``bob_post``) as an
    ``(N, 2)`` array, and the ``(N,)`` float64 fidelities.

    Its first statement checks both blocks, as every kernel's does
    (:func:`_require_blocks`): input rows of width 2, each normalized, both
    draw columns, every draw in [0, 1).  A zero row is a norm error there,
    not a degenerate measurement.  The product-outcome weights are summed
    once per input row, and each trial's outcome comes from
    :func:`qcore.pick_rows`, the rule of every sampled measurement: a draw
    past every cumulative edge takes the last outcome that weighs more than
    ``MIN_PROBABILITY``.
    """
    inputs = _require_blocks(inputs, (2,), draws, BASELINE_DRAWS)
    # Product outcomes on the measured pair: |uu>, |ud>, |du>, |dd>, one row
    # of them and of their weights per input row.
    psi = tensor_rows(inputs, _SINGLET).reshape(-1, 4, 2)
    squares = np.abs(psi) ** 2
    outcome = pick_rows(squares[:, :, 0] + squares[:, :, 1], draws[:, 0])
    identified = ((outcome == 1) | (outcome == 2)) & (draws[:, 1] < 0.5)
    # A certified trial holds the singlet branch (-a, -b) of decompose_branches.
    bob = -np.broadcast_to(inputs, (len(draws), 2))
    missed = np.flatnonzero(~identified)
    # Trial i measured input row i, or row 0 where every trial shares it.
    bob[missed] = normalized_rows(psi[missed % len(psi), outcome[missed]])
    return identified.astype(np.intp), bob, fidelity_rows(bob, inputs)


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
    return identified, TrialRecord(
        input=input_state,
        outcome=outcome,
        message=ClassicalMessage.from_outcome(outcome) if identified else None,
        bob_pre=bob,
        bob_post=bob,
        fidelity_value=float(fidelities[0]),
        rng_seed=rng_seed,
    )
