"""Exact complex state-vector engine for small multi-qubit systems.

Conventions used throughout the package:

* Qubit 0 is the leftmost tensor factor.  Basis index ``i`` therefore holds
  qubit ``k`` in state ``(i >> (n - 1 - k)) & 1`` for an ``n``-qubit register,
  and ``|up> == (1, 0)`` maps to bit value 0.
* Amplitudes are plain ``complex128`` values; no wrapper type is used.
* Global phase is physically meaningless.  Comparisons that must ignore it go
  through :func:`fidelity`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance for exact algebraic identities (unitarity, completeness, ...).
ATOL_ALGEBRA = 1e-12
# Tolerance for eigen-decompositions.
ATOL_EIGEN = 1e-10
# Validation tolerance for projector sets handed to measure_projective.
ATOL_PROJECTOR = 1e-10
# Probabilities below this are treated as exactly zero when sampling.
MIN_PROBABILITY = 1e-15
# States fed to measurement / fidelity must be normalized this tightly.
_NORM_ATOL = 1e-9


def _require_power_of_two(value: int, what: str) -> int:
    if value < 2 or value & (value - 1):
        raise ValueError(f"{what} must be a power of two >= 2, got {value}")
    return value.bit_length() - 1


def _as_complex_array(data, what: str) -> np.ndarray:
    arr = np.array(data, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable complex amplitude vector over ``2**n_qubits`` basis states.

    The constructor copies any array-like of complex amplitudes into a
    read-only complex128 array, and rejects non-finite entries, more than one
    axis and a length that is not a power of two.  Norm is not enforced
    here: operations such as projector application legitimately produce
    sub-normalized intermediates.  Use :meth:`normalized` before handing a
    state to measurement or fidelity routines.
    """

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_complex_array(self.amplitudes, "state vector")
        if arr.ndim != 1:
            raise ValueError("state vector must be one-dimensional")
        _require_power_of_two(arr.shape[0], "state vector length")
        object.__setattr__(self, "amplitudes", arr)

    @property
    def n_qubits(self) -> int:
        return self.amplitudes.shape[0].bit_length() - 1

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm(self) -> float:
        # sqrt(<s|s>); vdot is markedly cheaper than np.linalg.norm here
        return math.sqrt(max(np.vdot(self.amplitudes, self.amplitudes).real, 0.0))

    def normalized(self) -> "StateVector":
        n = self.norm
        if n < 1e-12:
            raise ValueError("cannot normalize a (near-)zero state vector")
        return StateVector(self.amplitudes / n)

    def tensor_view(self) -> np.ndarray:
        """Read-only view reshaped to one axis per qubit."""
        return self.amplitudes.reshape((2,) * self.n_qubits)


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable square matrix acting on a register of qubits.

    ``hermitian_hint`` is verified at construction when set, so downstream
    code may rely on it.
    """

    matrix: np.ndarray
    hermitian_hint: bool = False

    def __post_init__(self) -> None:
        mat = _as_complex_array(self.matrix, "operator matrix")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        _require_power_of_two(mat.shape[0], "operator dimension")
        if self.hermitian_hint:
            dev = np.max(np.abs(mat - mat.conj().T))
            if dev > ATOL_ALGEBRA:
                raise ValueError(
                    f"operator marked hermitian deviates from M == M^dagger by {dev:.3e}"
                )
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.matrix.shape[0].bit_length() - 1


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of a projective measurement: index, Born probability, post state."""

    outcome_index: int
    probability: float
    post_state: StateVector


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis ket ``|index>`` on ``n_qubits`` qubits."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise IndexError(f"basis index {index} out of range for {n_qubits} qubit(s)")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def ket(bits: str) -> StateVector:
    """Build a product state from a string of '0'/'1' characters.

    '0' is ``|up>`` and '1' is ``|down>`` in the spin picture.
    """
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"ket label must be a nonempty string of 0/1, got {bits!r}")
    return basis_state(len(bits), int(bits, 2))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product with ``a`` as the leftmost (qubit-0-first) factor."""
    # outer + ravel is kron for vectors, at a fraction of the call overhead
    return StateVector(np.multiply.outer(a.amplitudes, b.amplitudes).ravel())


def _check_targets(targets, n_qubits: int, op_qubits: int) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if len(targets) != op_qubits:
        raise ValueError(
            f"operator acts on {op_qubits} qubit(s) but {len(targets)} target(s) given"
        )
    if len(set(targets)) != len(targets):
        raise ValueError(f"target qubits must be distinct, got {targets}")
    for t in targets:
        if not 0 <= t < n_qubits:
            raise IndexError(f"target qubit {t} out of range for {n_qubits}-qubit state")
    return targets


def apply(op: Operator, s: StateVector, targets) -> StateVector:
    """Apply ``op`` to the given target qubits of ``s``, in any order.

    Non-target qubits are acted on by the identity.  The norm is preserved
    exactly when ``op`` is unitary; projectors shrink it.
    """
    targets = _check_targets(targets, s.n_qubits, op.n_qubits)
    return StateVector(apply_rows(op.matrix, s.amplitudes[None], targets)[0])


def contract_with(s: StateVector, qubits, factor: StateVector) -> StateVector:
    """Contract ``<factor|`` against the given qubits of ``s``, in any order.

    Returns the (generally unnormalized) state of the remaining qubits, in
    ascending order; its squared norm is the Born probability of finding
    ``factor`` there.
    """
    qubits = _check_targets(qubits, s.n_qubits, factor.n_qubits)
    if len(qubits) >= s.n_qubits:
        raise ValueError("contraction must leave at least one qubit")
    bra = factor.amplitudes.conj()
    return StateVector(contract_rows(s.amplitudes[None], qubits, bra)[0])


def _require_normalized(s: StateVector, what: str) -> None:
    if abs(s.norm - 1.0) > _NORM_ATOL:
        raise ValueError(f"{what} must be normalized (norm {s.norm:.12g})")


def measure_projective(
    s: StateVector, projectors, rng_sample: float
) -> MeasurementResult:
    """Projective measurement of ``s`` against a complete projector set.

    ``rng_sample`` is a uniform draw from [0, 1).  The outcome is selected by
    cumulative probability; a draw landing exactly on a boundary resolves to
    the higher-indexed outcome.  The returned post state is renormalized.
    The projector set is audited first: each projector must be hermitian and
    idempotent, and together they must sum to the identity.
    """
    if not 0.0 <= rng_sample < 1.0:
        raise ValueError(f"rng_sample must lie in [0, 1), got {rng_sample}")
    _require_normalized(s, "measured state")
    projectors = list(projectors)
    if not projectors:
        raise ValueError("projector set is empty")
    dim = s.dim
    total = np.zeros((dim, dim), dtype=np.complex128)
    for i, proj in enumerate(projectors):
        mat = proj.matrix
        if mat.shape[0] != dim:
            raise ValueError(
                f"projector {i} has dimension {mat.shape[0]}, state has {dim}"
            )
        if np.max(np.abs(mat - mat.conj().T)) > ATOL_PROJECTOR:
            raise ValueError(f"projector {i} is not hermitian")
        if np.max(np.abs(mat @ mat - mat)) > ATOL_PROJECTOR:
            raise ValueError(f"projector {i} is not idempotent")
        total += mat
    if np.max(np.abs(total - np.eye(dim))) > ATOL_PROJECTOR:
        raise ValueError("projector set incomplete: sum differs from identity")

    amps = s.amplitudes
    projected = [proj.matrix @ amps for proj in projectors]
    probs = np.array([max(float(np.vdot(amps, p).real), 0.0) for p in projected])
    if float(np.max(probs)) < MIN_PROBABILITY:
        raise ValueError("all outcome probabilities are degenerate (below 1e-15)")

    cumulative = np.cumsum(probs)
    chosen = -1
    for i, edge in enumerate(cumulative):
        if rng_sample < edge:
            chosen = i
            break
    if chosen < 0:
        # Numerical slack: the cumulative sum can fall a hair short of 1.
        chosen = int(np.max(np.nonzero(probs > MIN_PROBABILITY)))
    post = StateVector(projected[chosen] / np.sqrt(probs[chosen]))
    return MeasurementResult(chosen, float(probs[chosen]), post)


def fidelity(s: StateVector, t: StateVector) -> float:
    """Squared overlap ``|<s|t>|**2``; insensitive to global phase.

    Clamped to 1.0 from above so rounding noise never produces an
    out-of-range probability.
    """
    if s.dim != t.dim:
        raise ValueError(f"dimension mismatch: {s.dim} vs {t.dim}")
    _require_normalized(s, "first state")
    _require_normalized(t, "second state")
    return min(float(abs(np.vdot(s.amplitudes, t.amplitudes)) ** 2), 1.0)


# Row-batched forms of the operations above.  A batch holds one state per row
# of an ``(N, dim)`` complex128 array.  Every contraction is a stacked ``@``:
# numpy hands each row to the same BLAS dot or gemv call as the scalar
# ``np.vdot`` or ``@``, so every row is bit-identical to the scalar result.
# ``einsum`` and ``.sum(-1)`` sum in another order and are not used.


def tensor_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`tensor` of ``a`` and ``b`` row by row, ``a`` leftmost.

    Either side may instead be one 1-d state, shared by every row.
    """
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    return (a[:, :, None] * b[:, None, :]).reshape(-1, a.shape[1] * b.shape[1])


def _targets_first_rows(states: np.ndarray, targets: tuple, dim: int):
    """Each row's ``targets`` axes moved to the front, in their order, then
    the rest ascending, as ``(N, dim, -1)``; and the order moving them back."""
    n = states.shape[1].bit_length() - 1
    rest = (q for q in range(n) if q not in targets)
    order = (0, *(1 + q for q in (*targets, *rest)))
    moved = states.reshape(-1, *(2,) * n).transpose(order)
    back = tuple(sorted(range(n + 1), key=order.__getitem__))
    return moved.reshape(states.shape[0], dim, states.shape[1] // dim), back


def apply_rows(matrices: np.ndarray, states: np.ndarray, targets: tuple) -> np.ndarray:
    """:func:`apply` of each row of ``states``, with one ``(d, d)`` matrix or
    one per row; ``targets`` are trusted."""
    moved, back = _targets_first_rows(states, targets, matrices.shape[-1])
    out = (matrices @ moved).reshape(-1, *(2,) * (len(back) - 1))
    return out.transpose(back).reshape(states.shape)


def contract_rows(states: np.ndarray, qubits: tuple, bras: np.ndarray) -> np.ndarray:
    """:func:`contract_with` of each row of ``states``, with one conjugated
    ``(d,)`` factor or one per row; ``qubits`` are trusted."""
    moved, _ = _targets_first_rows(states, qubits, bras.shape[-1])
    return (bras[..., None, :] @ moved)[:, 0]


def overlap_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.vdot(x[i], y[i])`` for every row, as an ``(N,)`` complex array."""
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]


def _norm_rows(x: np.ndarray) -> np.ndarray:
    """:attr:`StateVector.norm` of every row."""
    return np.sqrt(np.maximum(overlap_rows(x, x).real, 0.0))


def normalized_rows(x: np.ndarray) -> np.ndarray:
    """:meth:`StateVector.normalized` of every row, with the same error."""
    n = _norm_rows(x)
    if not (n >= 1e-12).all():  # NaN fails this too
        raise ValueError("cannot normalize a (near-)zero state vector")
    return x / n[:, None]


def _require_normalized_rows(x: np.ndarray, what: str) -> None:
    n = _norm_rows(x)
    ok = np.abs(n - 1.0) <= _NORM_ATOL  # NaN fails this too
    if not ok.all():
        raise ValueError(f"{what} must be normalized (norm {n[~ok][0]:.12g})")


def require_draws_rows(draws: np.ndarray) -> None:
    """Reject any draw outside [0, 1), with :func:`measure_projective`'s error."""
    bad = ~((draws >= 0.0) & (draws < 1.0))
    if bad.any():
        raise ValueError(f"rng_sample must lie in [0, 1), got {draws[bad][0]}")


def sample_rows(
    states: np.ndarray, projectors: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sampling half of :func:`measure_rows`, which checks its inputs and
    picks each draw's outcome.

    ``states`` is ``(S, dim)``: one state per draw, or one state (``S = 1``)
    that every draw measures.  ``projectors`` is a ``(K, dim, dim)`` array of
    a complete, audited set; ``draws`` holds one uniform per row.  Returns
    the ``(N,)`` outcome indices, the ``(S, K, dim)`` projected states and
    their ``(S, K)`` Born probabilities, for :func:`post_rows`.  The rules
    and errors are :func:`measure_projective`'s: the first cumulative edge
    above the draw wins, a draw past every edge falls back to the highest
    outcome above ``MIN_PROBABILITY``, and an all-degenerate row is an error.
    """
    require_draws_rows(draws)
    _require_normalized_rows(states, "measured state")
    projected = (projectors @ states[:, None, :, None])[..., 0]
    probs = np.maximum(overlap_rows(states[:, None, :], projected).real, 0.0)
    if not (probs.max(axis=1) >= MIN_PROBABILITY).all():  # NaN fails this too
        raise ValueError("all outcome probabilities are degenerate (below 1e-15)")
    # The cumulative edges only rise, so the first edge above a draw is the
    # number of edges at or below it; K means the draw passed every edge.
    passed = (np.cumsum(probs, axis=1).T <= draws).sum(axis=0)
    live = probs > MIN_PROBABILITY
    last_live = live.shape[1] - 1 - np.argmax(live[:, ::-1], axis=1)
    chosen = np.where(passed < probs.shape[1], passed, last_live)
    return chosen, projected, probs


def post_rows(
    projected: np.ndarray, probs: np.ndarray, rows, outcomes: np.ndarray
) -> np.ndarray:
    """The renormalized post states ``projected[rows, outcomes]`` of
    :func:`sample_rows`' output, as :func:`measure_projective` divides them;
    ``rows`` and ``outcomes`` broadcast against each other."""
    return projected[rows, outcomes] / np.sqrt(probs[rows, outcomes])[..., None]


def measure_rows(
    states: np.ndarray, projectors: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`measure_projective` of every row against one projector set:
    :func:`sample_rows`, then :func:`post_rows` of each row's outcome.

    Returns the ``(N,)`` outcome indices and the ``(N, dim)`` renormalized
    post states.
    """
    chosen, projected, probs = sample_rows(states, projectors, draws)
    return chosen, post_rows(projected, probs, np.arange(states.shape[0]), chosen)


def fidelity_rows(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """:func:`fidelity` of every row pair, with the same checks, as an array.

    Python's ``abs`` of a complex is libm ``hypot`` and its ``x ** 2`` is
    libm ``pow``; ``np.hypot`` and ``np.float_power`` call the same
    functions.  ``x * x``, ``np.square`` and ``np.power`` (which squares) do
    not: they differ from ``pow`` on about 0.09% of values.
    """
    if s.shape[-1] != t.shape[-1]:
        raise ValueError(f"dimension mismatch: {s.shape[-1]} vs {t.shape[-1]}")
    _require_normalized_rows(s, "first state")
    _require_normalized_rows(t, "second state")
    z = overlap_rows(s, t)
    return np.minimum(np.float_power(np.hypot(z.real, z.imag), 2.0), 1.0)


def embed_operator(op: Operator, n_qubits: int, targets) -> Operator:
    """Expand ``op`` to the full ``n_qubits`` register (identity elsewhere)."""
    dim = 1 << n_qubits
    cols = [apply(op, basis_state(n_qubits, j), targets).amplitudes for j in range(dim)]
    return Operator(np.column_stack(cols), hermitian_hint=op.hermitian_hint)


def unitarity_deviation(op: Operator) -> float:
    """Max-abs deviation of ``U^dagger U`` from the identity."""
    u = op.matrix
    return float(np.max(np.abs(u.conj().T @ u - np.eye(op.dim))))


def unitary_table(matrices: dict) -> dict:
    """Wrap each matrix as an :class:`Operator`, rejecting any non-unitary one."""
    ops = {}
    for key, matrix in matrices.items():
        op = Operator(matrix)
        dev = unitarity_deviation(op)
        if dev > ATOL_ALGEBRA:
            raise ValueError(f"operator for {key} not unitary ({dev:.3e})")
        ops[key] = op
    return ops
