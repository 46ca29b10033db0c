"""Commuting squared-spin observables and the Bell measurement they realize.

For two spin-1/2 particles the total-spin components ``S_i = (sigma_i x I +
I x sigma_i) / 2`` (units of hbar) do not commute, but their squares do, and
the four Bell states are their joint eigenstates.  Measuring a pair of the
squared components, say (Sz^2, Sx^2), therefore identifies the Bell state in
a single simultaneous measurement:

    eigenvalues (S^2, Sx^2, Sy^2, Sz^2) in units of hbar^2

    PsiMinus -> (0, 0, 0, 0)
    PsiPlus  -> (2, 1, 1, 0)
    PhiMinus -> (2, 0, 1, 1)
    PhiPlus  -> (2, 1, 0, 1)

Any two of {Sx^2, Sy^2, Sz^2} separate all four states; S^2 paired with one
component does not (the Phi pair collides).  The Bell projectors are built
two independent ways -- rank-1 from the Bell kets and as joint eigenspaces of
a commuting pair -- and can be cross-checked with
:func:`verify_bell_projector_routes`.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .qcore import (
    ATOL_ALGEBRA,
    ATOL_EIGEN,
    ATOL_PROJECTOR,
    Operator,
    StateVector,
    embed_operator,
    measure_projective,
    qubit_indices,
)

# Tolerance used when matching computed eigenvalues against expected integers.
EIGENVALUE_MATCH_ATOL = 1e-9

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

SQRT_HALF = np.sqrt(0.5)


class BellOutcome(enum.Enum):
    """The four Bell states, ordered so that the (Sz^2, Sx^2) eigenvalue
    signature read as two bits equals the enum position."""

    PSI_MINUS = "PsiMinus"
    PSI_PLUS = "PsiPlus"
    PHI_MINUS = "PhiMinus"
    PHI_PLUS = "PhiPlus"

    @property
    def signature(self) -> tuple[int, int]:
        """(Sz^2, Sx^2) eigenvalue pair in units of hbar^2."""
        return _SIGNATURES[self]


_SIGNATURES: dict[BellOutcome, tuple[int, int]] = {
    BellOutcome.PSI_MINUS: (0, 0),
    BellOutcome.PSI_PLUS: (0, 1),
    BellOutcome.PHI_MINUS: (1, 0),
    BellOutcome.PHI_PLUS: (1, 1),
}

# Measurement outcomes are indexed in enum declaration order; by construction
# that index equals the signature bits (sz_sq, sx_sq) read as a binary number.
MEASUREMENT_ORDER: tuple[BellOutcome, ...] = tuple(BellOutcome)

_BELL_AMPLITUDES: dict[BellOutcome, tuple[complex, ...]] = {
    BellOutcome.PSI_PLUS: (0, SQRT_HALF, SQRT_HALF, 0),
    BellOutcome.PSI_MINUS: (0, SQRT_HALF, -SQRT_HALF, 0),
    BellOutcome.PHI_PLUS: (SQRT_HALF, 0, 0, SQRT_HALF),
    BellOutcome.PHI_MINUS: (SQRT_HALF, 0, 0, -SQRT_HALF),
}

EXPECTED_EIGEN_TABLE: dict[BellOutcome, tuple[float, float, float, float]] = {
    BellOutcome.PSI_PLUS: (2.0, 1.0, 1.0, 0.0),
    BellOutcome.PSI_MINUS: (0.0, 0.0, 0.0, 0.0),
    BellOutcome.PHI_PLUS: (2.0, 1.0, 0.0, 1.0),
    BellOutcome.PHI_MINUS: (2.0, 0.0, 1.0, 1.0),
}


@dataclass(frozen=True)
class SpinObservableSet:
    """Total squared spin and its squared components for a two-spin system."""

    s_total_sq: Operator
    sx_sq: Operator
    sy_sq: Operator
    sz_sq: Operator

    def as_mapping(self) -> dict[str, Operator]:
        return {
            "s_total_sq": self.s_total_sq,
            "sx_sq": self.sx_sq,
            "sy_sq": self.sy_sq,
            "sz_sq": self.sz_sq,
        }


@dataclass(frozen=True)
class EigenTable:
    """Eigenvalue quadruples (S^2, Sx^2, Sy^2, Sz^2) per Bell state."""

    rows: Mapping[BellOutcome, tuple[float, float, float, float]]


@dataclass(frozen=True)
class CommutingPair:
    """A pair of squared-spin components whose joint eigenvalues separate the
    Bell states, together with the signature each state produces."""

    names: tuple[str, str]
    signatures: Mapping[BellOutcome, tuple[float, float]]


def _total_component(sigma: np.ndarray) -> np.ndarray:
    return (np.kron(sigma, PAULI_I) + np.kron(PAULI_I, sigma)) / 2.0


def build_spin_observables() -> SpinObservableSet:
    """Construct S^2 and the squared components for two spin-1/2 particles."""
    squares = [_total_component(sigma) @ _total_component(sigma)
               for sigma in (PAULI_X, PAULI_Y, PAULI_Z)]
    total = squares[0] + squares[1] + squares[2]
    return SpinObservableSet(
        s_total_sq=Operator(total, hermitian_hint=True),
        sx_sq=Operator(squares[0], hermitian_hint=True),
        sy_sq=Operator(squares[1], hermitian_hint=True),
        sz_sq=Operator(squares[2], hermitian_hint=True),
    )


_BELL_STATES: dict[BellOutcome, StateVector] = {
    label: StateVector(amps)
    for label, amps in _BELL_AMPLITUDES.items()
}


def bell_state(label: BellOutcome) -> StateVector:
    """The Bell ket for ``label`` with the fixed sign convention
    ``Psi+- = sqrt(1/2)(|ud> +- |du>)``, ``Phi+- = sqrt(1/2)(|uu> +- |dd>)``."""
    return _BELL_STATES[label]


def verify_eigen_table(observables: SpinObservableSet) -> EigenTable:
    """Check every Bell state is an eigenstate with the expected eigenvalues.

    Raises ValueError if a residual ``||O v - lambda v||`` exceeds 1e-10 or a
    computed eigenvalue differs from the expected integer table.
    """
    ops = (
        observables.s_total_sq,
        observables.sx_sq,
        observables.sy_sq,
        observables.sz_sq,
    )
    rows: dict[BellOutcome, tuple[float, float, float, float]] = {}
    for label in BellOutcome:
        vec = bell_state(label).amplitudes
        values = []
        for op in ops:
            image = op.matrix @ vec
            lam = float(np.vdot(vec, image).real)
            residual = float(np.linalg.norm(image - lam * vec))
            if residual > ATOL_EIGEN:
                raise ValueError(
                    f"{label.value} is not an eigenstate: residual {residual:.3e}"
                )
            values.append(lam)
        quadruple = tuple(values)
        expected = EXPECTED_EIGEN_TABLE[label]
        if any(abs(v - e) > EIGENVALUE_MATCH_ATOL for v, e in zip(quadruple, expected)):
            raise ValueError(
                f"eigenvalues for {label.value} are {quadruple}, expected {expected}"
            )
        rows[label] = quadruple
    return EigenTable(rows=rows)


def commutator_norms(observables: SpinObservableSet) -> dict[tuple[str, str], float]:
    """Max-abs commutator for every unordered pair in the set."""
    mapping = observables.as_mapping()
    names = list(mapping)
    norms: dict[tuple[str, str], float] = {}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            comm = mapping[a].matrix @ mapping[b].matrix
            comm = comm - mapping[b].matrix @ mapping[a].matrix
            norms[(a, b)] = float(np.max(np.abs(comm)))
    return norms


def signature_table(
    observables: SpinObservableSet, names: tuple[str, str]
) -> dict[BellOutcome, tuple[float, float]]:
    """Joint eigenvalue pair of the two named observables per Bell state."""
    mapping = observables.as_mapping()
    try:
        first, second = (mapping[n] for n in names)
    except KeyError as exc:
        raise ValueError(f"unknown observable name {exc.args[0]!r}") from None
    table: dict[BellOutcome, tuple[float, float]] = {}
    for label in BellOutcome:
        vec = bell_state(label).amplitudes
        table[label] = (
            float(np.vdot(vec, first.matrix @ vec).real),
            float(np.vdot(vec, second.matrix @ vec).real),
        )
    return table


def distinguishes_all(table: Mapping[BellOutcome, tuple[float, float]]) -> bool:
    """True when every Bell state has a distinct signature pair."""
    seen = set()
    for pair in table.values():
        key = tuple(round(v) for v in pair)
        if key in seen:
            return False
        seen.add(key)
    return True


def minimal_pairs() -> list[CommutingPair]:
    """The three component pairs that each separate all four Bell states."""
    observables = build_spin_observables()
    pairs = [("sx_sq", "sy_sq"), ("sy_sq", "sz_sq"), ("sz_sq", "sx_sq")]
    result = []
    for names in pairs:
        table = signature_table(observables, names)
        if not distinguishes_all(table):
            raise ValueError(f"pair {names} fails to separate the Bell states")
        result.append(CommutingPair(names=names, signatures=table))
    return result


def _spectral_projector(op: Operator, eigenvalue: float) -> np.ndarray:
    values, vectors = np.linalg.eigh(op.matrix)
    selected = vectors[:, np.abs(values - eigenvalue) < EIGENVALUE_MATCH_ATOL]
    if selected.shape[1] == 0:
        raise ValueError(f"no eigenvalue near {eigenvalue} found")
    return selected @ selected.conj().T


def bell_projectors_from_pair(
    observables: SpinObservableSet | None = None,
) -> dict[BellOutcome, Operator]:
    """Bell projectors as joint eigenspaces of the commuting (Sz^2, Sx^2) pair.

    This route never looks at the Bell kets; it intersects the spectral
    projectors of the two squared components.  It exists as an independent
    cross-check of the rank-1 construction and must not be folded into it.
    """
    observables = observables or build_spin_observables()
    projectors: dict[BellOutcome, Operator] = {}
    for label in BellOutcome:
        sz_val, sx_val = label.signature
        pz = _spectral_projector(observables.sz_sq, float(sz_val))
        px = _spectral_projector(observables.sx_sq, float(sx_val))
        # The operators commute, so the product is the intersection projector.
        projectors[label] = Operator(pz @ px, hermitian_hint=True)
    return projectors


def verify_bell_projector_routes() -> float:
    """Max-abs deviation between rank-1 and joint-eigenspace Bell projectors.

    Returns the deviation (expected < 1e-12); raises if it exceeds tolerance.
    """
    from_pair = bell_projectors_from_pair()
    worst = 0.0
    for label in BellOutcome:
        vec = bell_state(label).amplitudes
        rank_one = np.outer(vec, vec.conj())
        dev = float(np.max(np.abs(rank_one - from_pair[label].matrix)))
        worst = max(worst, dev)
    if worst > ATOL_ALGEBRA:
        raise ValueError(
            f"Bell projector construction routes disagree by {worst:.3e}"
        )
    return worst


@functools.lru_cache(maxsize=None)
def bell_projectors(n_qubits: int, qubits: tuple[int, int]) -> tuple[Operator, ...]:
    """Full-register rank-1 Bell projectors on ``qubits``, in outcome order.

    Completeness is asserted here, once per cache entry, so a bad embedding
    fails where it is built.  It does not stand in for the projector audit:
    :func:`measure_projective` still runs that on every call.
    """
    projectors = []
    for label in MEASUREMENT_ORDER:
        vec = bell_state(label).amplitudes
        rank_one = Operator(np.outer(vec, vec.conj()), hermitian_hint=True)
        projectors.append(embed_operator(rank_one, n_qubits, qubits))
    total = sum(p.matrix for p in projectors)
    if np.max(np.abs(total - np.eye(1 << n_qubits))) > ATOL_PROJECTOR:
        raise ValueError("embedded Bell projectors do not resolve the identity")
    return tuple(projectors)


def bell_measure(
    s: StateVector, alice_qubits, rng_sample: float
) -> tuple[BellOutcome, StateVector]:
    """Simultaneous squared-spin measurement on two qubits of ``s``.

    Delegates to the generic projective measurement with the four Bell
    projectors; returns the identified Bell state and the collapsed register.
    """
    pair = qubit_indices(alice_qubits)
    if len(pair) != 2:
        raise ValueError(f"exactly two qubits must be measured, got {pair}")
    projectors = bell_projectors(s.n_qubits, pair)
    result = measure_projective(s, projectors, rng_sample)
    return MEASUREMENT_ORDER[result.outcome_index], result.post_state
