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
import operator
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
        return StateVector(normalized_rows(self.amplitudes[None])[0])

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
    return StateVector(tensor_rows(a.amplitudes, b.amplitudes)[0])


def qubit_indices(qubits) -> tuple[int, ...]:
    """Each qubit index as an ``int``; one that is not an integer (a float
    included) is an error, never truncated."""
    indices = []
    for q in qubits:
        try:
            indices.append(operator.index(q))
        except TypeError:
            raise ValueError(f"qubit index must be an integer, got {q!r}") from None
    return tuple(indices)


def _check_targets(targets, n_qubits: int, op_qubits: int) -> tuple[int, ...]:
    targets = qubit_indices(targets)
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
    require_draws_rows(np.array([rng_sample]))
    _require_normalized_rows(s.amplitudes[None], "measured state")
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
    _require_normalized_rows(s.amplitudes[None], "first state")
    _require_normalized_rows(t.amplitudes[None], "second state")
    return min(float(abs(np.vdot(s.amplitudes, t.amplitudes)) ** 2), 1.0)


# Row-batched forms of the operations above.  A batch holds one state per row
# of an ``(N, dim)`` complex128 array.  Every contraction but one is a
# stacked ``@``: numpy hands each row to the same BLAS dot or gemv call as
# the scalar ``np.vdot`` or ``@``, so every row is bit-identical to the scalar
# result.  The one is :func:`project_rows`' projection, one 2-D product of
# all rows with all projectors.  Its bytes equal the stacked product's by
# measurement, not by derivation: each amplitude is a sum of two products of
# a projector entry (0 or +-0.5000000000000001) with an amplitude, and the
# tests and the record digests gate it under more than one BLAS kernel.
# ``einsum`` and ``.sum(-1)`` sum in another order and are not used.
# The row forms trust their rows' shapes, draws and norms: each kernel checks
# its input and draw blocks once, at entry (``teleport._require_blocks``).
# The scalar forms above keep their checks, as the references.
# :func:`pick_rows` is the one outcome rule of every sampled measurement: the
# Bell measurements reach it through :func:`sample_rows`, or with the
# probabilities of one shared state that :func:`project_rows` gave once, and
# the baseline's product-basis analysis hands it the weights it sums itself.
# A Bell measurement's caller then renormalizes, through :func:`post_rows`,
# only the post states it keeps: one per trial, or all four outcomes of a
# state that every trial shares, once.


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


def distinct_keys(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the int ``keys``, all in ``[0, size)``,
    ascending, and each key's index in them: ``np.unique(keys,
    return_inverse=True)`` without the sort.  The kernels run a step once per
    distinct key and index the results back per trial."""
    slot = np.zeros(size, dtype=np.intp)
    slot[keys] = 1
    distinct = slot.nonzero()[0]
    slot[distinct] = np.arange(len(distinct))
    return distinct, slot[keys]


def _require_normalized_rows(x: np.ndarray, what: str) -> None:
    """The norm check of :func:`measure_projective`, :func:`fidelity` and the
    kernels' input rows (``teleport._require_blocks``)."""
    n = _norm_rows(x)
    ok = np.abs(n - 1.0) <= _NORM_ATOL  # NaN fails this too
    if not ok.all():
        raise ValueError(f"{what} must be normalized (norm {n[~ok][0]:.12g})")


def require_draws_rows(draws: np.ndarray) -> None:
    """Reject any draw outside [0, 1), with :func:`measure_projective`'s error.

    Every draw check calls it: ``teleport._require_blocks``, the boundary
    check at the entry of each kernel (``teleport_rows``, ``baseline_rows``
    and ``cascade_rows``), on the kernel's whole draw block, and the scalar
    :func:`measure_projective` and ``photonic._stage`` on their one draw.
    """
    bad = ~((draws >= 0.0) & (draws < 1.0))
    if bad.any():
        raise ValueError(f"rng_sample must lie in [0, 1), got {draws[bad][0]}")


def pick_rows(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The outcome step of :func:`measure_projective` for a batch: each
    draw's outcome index, as an ``(N,)`` array.

    ``probs`` holds ``(S, K)`` Born weights: one row per draw, or one row
    (``S = 1``) that every draw shares.  ``draws`` holds ``N`` uniforms that
    the caller has already checked.  The first cumulative edge above a draw
    wins, a draw past every edge falls back to the highest outcome above
    ``MIN_PROBABILITY``, and a row with no weight at or above it is an error.
    """
    # One contiguous (K, S) copy: reductions over its first axis run over
    # whole rows, where the (S, K) axis 1 is a 4-wide strided one.
    weights = np.ascontiguousarray(probs.T)
    if not (weights.max(axis=0) >= MIN_PROBABILITY).all():  # NaN fails this too
        raise ValueError("all outcome probabilities are degenerate (below 1e-15)")
    # The cumulative edges only rise, so the first edge above a draw is the
    # number of edges at or below it; K means the draw passed every edge.
    passed = (np.cumsum(weights, axis=0) <= draws).sum(axis=0)
    last_live = len(weights) - 1 - np.argmax(weights[::-1] > MIN_PROBABILITY, axis=0)
    return np.where(passed < len(weights), passed, last_live)


def sample_rows(
    states: np.ndarray, projectors: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sampling half of :func:`measure_projective` for a batch: each
    draw's outcome.

    ``states`` is ``(S, dim)``: one normalized state per draw, or one state
    (``S = 1``) that every draw measures.  ``projectors`` is a
    ``(K, dim, dim)`` array of a complete, audited set; ``draws`` holds one
    uniform per row.  The caller has checked the states and draws, as
    :func:`pick_rows` takes them.  Returns the ``(N,)`` outcome indices, the
    ``(S, K, dim)`` projected states and their ``(S, K)`` Born
    probabilities, for :func:`post_rows`.  Its one error is
    :func:`pick_rows`' degenerate rule, which holds the outcome rule.
    """
    projected, probs = project_rows(states, projectors)
    return pick_rows(probs, draws), projected, probs


def project_rows(
    states: np.ndarray, projectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The projection half of :func:`sample_rows`: every state on every
    projector, in one 2-D product, and the Born probabilities."""
    k, dim, _ = projectors.shape
    projected = (states @ projectors.reshape(k * dim, dim).T).reshape(-1, k, dim)
    probs = np.maximum(overlap_rows(states[:, None, :], projected).real, 0.0)
    return projected, probs


def post_rows(
    projected: np.ndarray, probs: np.ndarray, rows, outcomes: np.ndarray
) -> np.ndarray:
    """The renormalized post states ``projected[rows, outcomes]`` of
    :func:`sample_rows`' output, as :func:`measure_projective` divides them;
    ``rows`` and ``outcomes`` broadcast against each other."""
    return projected[rows, outcomes] / np.sqrt(probs[rows, outcomes])[..., None]


def fidelity_rows(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """:func:`fidelity` of every row pair, as an array.  The rows are
    trusted: one dimension, each normalized.

    Python's ``abs`` of a complex is libm ``hypot`` and its ``x ** 2`` is
    libm ``pow``; ``np.hypot`` and ``np.float_power`` call the same
    functions.  ``x * x``, ``np.square`` and ``np.power`` (which squares) do
    not: they differ from ``pow`` on about 0.09% of values.
    """
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
