"""Photonic realization of the Bell analysis as an absorption cascade.

Three optical modes carry the protocol: mode 0 holds the unknown photon
``a|R> + b|L>`` and modes (1, 2) an entangled pair.  Circular polarization
maps onto the spin picture with ``|R> == |up>`` (index 0).  The two-photon
Bell-analog basis on a mode pair is

    chi+-   = sqrt(1/2)(|RL> +- |LR>)     (analog of Psi+-)
    gamma+- = sqrt(1/2)(|RR> +- |LL>)     (analog of Phi+-)

The three-mode input state expands over the (mode 0, mode 1) pair basis into
four equal-weight branches:

    chi+   : -a|L> + b|R>        chi-   : -a|L> - b|R>
    gamma+ :  a|R> - b|L>        gamma- :  a|R> + b|L>

The cascade identifies the branch without any polarization-resolving
measurement.  A first resonant two-photon absorber fires only on the
zero-spin pair state ``chi-`` (detector D1).  A half-wave rotation in mode 1
then relabels the surviving branches (``chi+- -> -gamma-+``, ``gamma+- ->
chi-+``), so a second identical absorber fires on what was originally
``gamma+`` (detector D2).  A final absorber selects the current ``chi+``
(originally ``gamma-``, detector D4); if nothing was absorbed both photons
reach a pair of single-photon detectors whose coincidence flags the remaining
branch, originally ``chi+``.  Every detector signature thus names exactly one
branch, and a fixed per-branch polarization correction on mode 2 restores the
input: teleportation succeeds on every identified trial.

Efficiencies: ``eta_abs`` gates whether an absorber interacts at all on a
given trial (an inactive absorber leaves the state unprojected), ``eta_det``
independently converts any fired detector signature into a missed event, and
``p_in`` / ``p_pdc`` model source availability, signalled by the two
single-detector noncoincidence events.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, fields

import numpy as np

from .observables import PAULI_X, BellOutcome, bell_state
from .qcore import (
    Operator,
    StateVector,
    apply,
    apply_rows,
    contract_rows,
    contract_with,  # noqa: F401 - perfbench's tracer looks it up here
    distinct_keys,
    fidelity,  # noqa: F401 - perfbench's tracer looks it up here
    fidelity_rows,
    normalized_rows,
    overlap_rows,
    require_draws_rows,
    tensor,
    tensor_rows,
    unitary_table,
)
from .teleport import UnknownState, _require_blocks, _seed_draws, correction_for


class PairLabel(enum.Enum):
    """Two-photon Bell-analog basis labels."""

    CHI_PLUS = "ChiPlus"
    CHI_MINUS = "ChiMinus"
    GAMMA_PLUS = "GammaPlus"
    GAMMA_MINUS = "GammaMinus"

    @property
    def bell_analog(self) -> BellOutcome:
        return _BELL_ANALOG[self]


_BELL_ANALOG = {
    PairLabel.CHI_PLUS: BellOutcome.PSI_PLUS,
    PairLabel.CHI_MINUS: BellOutcome.PSI_MINUS,
    PairLabel.GAMMA_PLUS: BellOutcome.PHI_PLUS,
    PairLabel.GAMMA_MINUS: BellOutcome.PHI_MINUS,
}

# The pair basis is the Bell basis under its photonic names.
_PAIR_STATES: dict[PairLabel, StateVector] = {
    label: bell_state(label.bell_analog) for label in PairLabel
}

# Conjugated rows of the pair basis, used as bras in hot-path contractions.
_PAIR_BRAS: dict[PairLabel, np.ndarray] = {
    label: state.amplitudes.conj() for label, state in _PAIR_STATES.items()
}


def pair_basis_state(label: PairLabel) -> StateVector:
    return _PAIR_STATES[label]


def pdc_pair() -> StateVector:
    """Down-conversion pair ``sqrt(1/2)(|RR> - |LL>)`` on modes (1, 2)."""
    return pair_basis_state(PairLabel.GAMMA_MINUS)


# Half-wave rotation |R> -> |L>, |L> -> -|R>, columns indexed (R, L).
WAVEPLATE = Operator(np.array([[0, -1], [1, 0]], dtype=np.complex128))


def waveplate(s: StateVector, mode: int) -> StateVector:
    """Apply the half-wave rotation to one mode of ``s``."""
    return apply(WAVEPLATE, s, (mode,))


def build_three_mode(input_state: UnknownState) -> StateVector:
    """Cascade input: unknown photon in mode 0 joined to the pair on (1, 2).

    The expansion of this state over the (mode 0, mode 1) pair basis is the
    four equal-weight branch table in the module docstring; every branch has
    probability 1/4 regardless of the input.
    """
    return tensor(input_state.state_vector(), pdc_pair())


def pair_components(s: StateVector) -> dict[PairLabel, StateVector]:
    """Unnormalized mode-2 component for each pair-basis label on (0, 1).

    The squared norm of each component is that branch's probability.
    """
    return {
        label: StateVector(_selected_component(s, label)[1]) for label in PairLabel
    }


class CascadeEventKind(enum.Enum):
    """Detector signatures, with their serialized wire strings."""

    D1 = "D1"
    D2 = "D2"
    D4 = "D4"
    D3_COINCIDENCE = "D3C"
    D3_SINGLE_TOP = "D3ST"
    D3_SINGLE_LOWER = "D3SL"
    NO_EVENT = "NONE"


class CascadeStage(enum.Enum):
    """Where in the cascade an event originated."""

    FIRST_SINGLET_ABSORBER = "C"
    SECOND_SINGLET_ABSORBER = "E"
    FINAL_ABSORBER = "F"


# Which original branch each identifying signature certifies.
EVENT_ORIGINAL_BRANCH: dict[CascadeEventKind, PairLabel] = {
    CascadeEventKind.D1: PairLabel.CHI_MINUS,
    CascadeEventKind.D2: PairLabel.GAMMA_PLUS,
    CascadeEventKind.D4: PairLabel.GAMMA_MINUS,
    CascadeEventKind.D3_COINCIDENCE: PairLabel.CHI_PLUS,
}
# The signatures that identify a branch: exactly those that certify one.
IDENTIFYING_EVENTS = frozenset(EVENT_ORIGINAL_BRANCH)

# Which absorber stage each identifying signature comes from.
EVENT_STAGE: dict[CascadeEventKind, CascadeStage] = {
    CascadeEventKind.D1: CascadeStage.FIRST_SINGLET_ABSORBER,
    CascadeEventKind.D2: CascadeStage.SECOND_SINGLET_ABSORBER,
    CascadeEventKind.D4: CascadeStage.FINAL_ABSORBER,
    CascadeEventKind.D3_COINCIDENCE: CascadeStage.FINAL_ABSORBER,
}


@dataclass(frozen=True)
class CascadeEvent:
    """A detector signature.  Its stage and certified original branch are
    fixed by the kind; both are ``None`` for a non-identifying signature."""

    kind: CascadeEventKind

    @property
    def stage(self) -> CascadeStage | None:
        return EVENT_STAGE.get(self.kind)

    @property
    def original_bell(self) -> PairLabel | None:
        return EVENT_ORIGINAL_BRANCH.get(self.kind)


@dataclass(frozen=True)
class EfficiencyConfig:
    """Loss model knobs; all probabilities in [0, 1], defaults ideal."""

    eta_abs: float = 1.0
    eta_det: float = 1.0
    p_in: float = 1.0
    p_pdc: float = 1.0

    def __post_init__(self) -> None:
        for name in EFFICIENCY_KNOBS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


EFFICIENCY_KNOBS = tuple(f.name for f in fields(EfficiencyConfig))


@dataclass(frozen=True)
class CascadeRecord:
    """One cascade trial.  Receiver-state fields are populated exactly when
    the event identifies a branch."""

    input: UnknownState
    event: CascadeEvent
    bob_pre: StateVector | None
    bob_post: StateVector | None
    fidelity_value: float | None
    rng_seed: int


def _selected_component(s: StateVector, label: PairLabel) -> tuple[float, np.ndarray]:
    # The (Born weight, mode-2 amplitudes) of ``label`` on modes (0, 1), for
    # pair_components and the analytic oracle.  Equivalent to
    # contract_with(s, (0, 1), pair_basis_state(label)).
    amps = _PAIR_BRAS[label] @ s.amplitudes.reshape(4, 2)
    probability = min(float(np.real(np.vdot(amps, amps))), 1.0)
    return probability, amps


def _declined(s: StateVector, label: PairLabel, component: np.ndarray) -> StateVector:
    # The oracle's active-negative absorber window: ``label``'s branch removed.
    pair = pair_basis_state(label)
    remainder = s.amplitudes - np.multiply.outer(pair.amplitudes, component).ravel()
    return StateVector(remainder).normalized()


def _project_rows(states: np.ndarray, label: PairLabel) -> tuple[np.ndarray, ...]:
    """The cascade's one pair-basis projection: each row's Born weight of
    ``label`` on modes (0, 1) and its unnormalized mode-2 component."""
    components = contract_rows(states, (0, 1), _PAIR_BRAS[label])
    return np.minimum(overlap_rows(components, components).real, 1.0), components


def _windows(draws: np.ndarray, eta_abs: float, thresholds: np.ndarray) -> np.ndarray:
    """Single-draw absorber model: the window each draw lands in.

    ``[0, eta*p)`` the absorber is active and fires (2: the state is
    conditioned on the selected branch), ``[eta*p, eta)`` it is active but
    the projection comes out negative (1: the selected branch is removed),
    ``[eta, 1)`` it is inactive this trial and the state passes through
    unprojected (0).  ``thresholds`` holds each draw's ``eta*p``.  With
    ``eta_abs == 1`` this is exactly the ideal projective selection.  The
    caller checks the draws and ``eta_abs``: :func:`cascade_rows` at its
    entry and :func:`_stage` on its arguments.
    """
    return np.add(draws < eta_abs, draws < thresholds, dtype=np.intp)


def _window_states(
    states: np.ndarray, components: np.ndarray, d: int, f: int, label: PairLabel
) -> np.ndarray:
    """The state each row leaves its absorber in, by its window (see
    :func:`_windows`): rows ``[:d]`` were inactive and pass unchanged, rows
    ``[d:f]`` declined and lose the selected branch, and rows ``[f:]`` fired
    and are conditioned on it.  ``components`` are the rows' mode-2
    components of ``label``; ``states`` is overwritten and returned."""
    pair = _PAIR_STATES[label].amplitudes
    # A window no row lands in costs nothing, not a numpy call on no rows.
    if f > d:
        states[d:f] = normalized_rows(states[d:f] - tensor_rows(pair, components[d:f]))
    if len(states) > f:
        states[f:] = tensor_rows(pair, normalized_rows(components[f:]))
    return states


def _stage(
    s: StateVector, label: PairLabel, eta_abs: float, rng_sample: float
) -> tuple[bool, StateVector]:
    require_draws_rows(np.array([rng_sample]))
    EfficiencyConfig(eta_abs=eta_abs)  # checks eta_abs
    states = s.amplitudes[None]
    probability, components = _project_rows(states, label)
    (window,) = _windows(np.array([rng_sample]), eta_abs, eta_abs * probability)
    d, f = int(window < 1), int(window < 2)
    post = _window_states(states.copy(), components, d, f, label)
    return bool(window == 2), StateVector(post[0])


def absorption_stage(
    s: StateVector, eta_abs: float, rng_sample: float
) -> tuple[bool, StateVector]:
    """Resonant two-photon absorber selecting the zero-spin pair ``chi-``."""
    return _stage(s, PairLabel.CHI_MINUS, eta_abs, rng_sample)


def stage_final(
    s: StateVector, eta_abs: float, rng_sample: float
) -> tuple[CascadeEventKind, StateVector]:
    """Last absorber: selects the current ``chi+`` pair state.

    Absorption fires D4; either non-absorption path sends both photons on to
    the coincidence detectors (D3 pair).
    """
    absorbed, post = _stage(s, PairLabel.CHI_PLUS, eta_abs, rng_sample)
    kind = CascadeEventKind.D4 if absorbed else CascadeEventKind.D3_COINCIDENCE
    return kind, post


# (1 x sigma_x)|Psi-> = |gamma->: each branch is sigma_x times its Bell analog's
# spin branch, so sigma_x C (C sigma_x up to a sign) restores the input.
_CORRECTION_OPS = unitary_table(
    {label: PAULI_X @ correction_for(label.bell_analog).matrix for label in PairLabel}
)


def correction_for_photonic(label: PairLabel) -> Operator:
    """Mode-2 polarization correction for the certified original branch."""
    return _CORRECTION_OPS[label]


# Uniform draws a cascade consumes at most: 2 availability, 3 absorbers,
# 1 coincidence unraveling, 1 detection.
CASCADE_DRAWS = 7


# Kinds by their index in the kernel's event codes.
_KINDS = tuple(CascadeEventKind)
_CODE = {kind: code for code, kind in enumerate(_KINDS)}
# The signature each level of the cascade ends trials in: the absorbers in
# cascade order, then the coincidence, which ends every trial it reaches.
_LEVEL_KINDS = (CascadeEventKind.D1, CascadeEventKind.D2, CascadeEventKind.D4,
                CascadeEventKind.D3_COINCIDENCE)
# Per absorber level, the pair state it selects, and whether the half-wave
# rotation on mode 1 comes before it.
_ABSORBERS = (
    (PairLabel.CHI_MINUS, False),
    (PairLabel.CHI_MINUS, True),
    (PairLabel.CHI_PLUS, False),
)
# An absorber's windows: inactive, declined, fired (see _windows).
_WINDOWS = 3
# A trial reads its draws in order from column 0: the two availability draws,
# one per level reached, then the detection draw.  Its column, by event code:
_DETECTION_COLUMN = np.full(len(_KINDS), 2)
_DETECTION_COLUMN[[_CODE[kind] for kind in _LEVEL_KINDS]] = 3 + np.arange(len(_LEVEL_KINDS))


class _Level:
    """One level of a :class:`_StateTree`: its distinct states, each one's
    start row, weights and mode-2 components, and its child per window or
    branch, flat: row ``r``'s child for outcome ``j`` of ``width`` is
    ``children[r * width + j]``."""

    __slots__ = ("states", "starts", "weights", "components", "children")

    def __init__(self, states, starts, weights, components, width: int) -> None:
        self.states, self.starts = states, starts
        self.weights, self.components = weights, components
        self.children = np.full(len(states) * width, -1, dtype=np.intp)

    def extend(self, other: "_Level") -> np.ndarray:
        """Append ``other``'s rows; returns their row indices."""
        start = len(self.states)
        for name in self.__slots__:
            setattr(self, name, np.concatenate([getattr(self, name), getattr(other, name)]))
        return np.arange(start, len(self.states))


class _StateTree:
    """The distinct states a cascade's trials reach from its start inputs
    under one ``eta_abs``, and what each leads to.

    Level 0 holds one start state (:func:`build_three_mode`) per input row;
    the rows are trusted, as :func:`cascade_rows` has checked them.
    Level ``k < 3`` holds the states entering absorber ``k`` (after the
    half-wave rotation, where one comes first), each with its start row, its
    fire threshold ``eta_abs * p``, its mode-2 component of the absorber's
    pair state, and its child per window (see :func:`_windows`): a row of
    level ``k + 1`` for the two that pass, a receiver row for the fired one.
    Level 3 holds the states reaching the coincidence detectors, each with
    its cumulative branch weights, its four components, and its receiver
    row per branch.  A trial walks the levels in order through :meth:`step`
    until one ends it in the level's signature (``_LEVEL_KINDS``).

    A receiver row is finished when it is made: every signature names one
    branch, so the level that makes the row fixes its correction, and its
    start fixes the input it is scored against.  It holds ``bob_pre``, the
    corrected state and the fidelity; row 0 holds zeros and a NaN (no
    fidelity), the row of every trial without an identifying signature.

    Every trial draws and compares alone, but each float step runs once per
    entry, the first time a trial lands on it, with the float operations of
    its scalar form (see qcore's row-batched forms), so each trial is
    bit-identical to a one-trial call.  A child of -1 is not computed yet;
    one no trial reaches, such as a window that ideal absorbers leave at
    zero norm, never is.  Every step that can raise runs before its entries
    are stored, so a failed call stores none.  Nothing in the tree depends
    on the other knobs.
    """

    def __init__(self, inputs: np.ndarray, eta_abs: float) -> None:
        self.inputs, self.eta_abs = inputs, eta_abs
        self.levels: list[_Level | None] = [None] * len(_LEVEL_KINDS)
        self.bob_pre = self.bob_post = np.zeros((1, 2), dtype=np.complex128)
        self.fidelity = np.full(1, np.nan)
        # Level 0 is build_three_mode of each input row.
        self.add(0, tensor_rows(inputs, pdc_pair().amplitudes), np.arange(len(inputs)))

    def add(self, level: int, states: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Add ``states``, reached from the start rows ``starts``, to
        ``level`` with their projections; returns their row indices."""
        if level < len(_ABSORBERS):
            probability, components = _project_rows(states, _ABSORBERS[level][0])
            weights, width = self.eta_abs * probability, _WINDOWS
        else:
            weights, components = zip(
                *(_project_rows(states, label) for label in PairLabel)
            )
            weights = np.cumsum(np.stack(weights, axis=1), axis=1)
            components, width = np.stack(components, axis=1), len(PairLabel)
        rows = _Level(states, starts, weights, components, width)
        if self.levels[level] is None:
            self.levels[level] = rows
            return np.arange(len(states))
        return self.levels[level].extend(rows)

    def _receive(
        self, kind: CascadeEventKind, bob_pre: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Add receiver rows made by signature ``kind`` from the start rows
        ``starts``, corrected and scored; returns their row indices."""
        correction = _CORRECTION_OPS[EVENT_ORIGINAL_BRANCH[kind]].matrix
        post = apply_rows(correction, bob_pre, (0,))
        fidelities = fidelity_rows(post, self.inputs[starts])
        start = len(self.bob_pre)
        self.bob_pre = np.concatenate([self.bob_pre, bob_pre])
        self.bob_post = np.concatenate([self.bob_post, post])
        self.fidelity = np.concatenate([self.fidelity, fidelities])
        return np.arange(start, len(self.bob_pre))

    def step(
        self, level: int, index: np.ndarray, draws: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Level ``level`` on the trials at its rows ``index``, one draw each.
        Returns which trials end here, in signature ``_LEVEL_KINDS[level]``,
        and each trial's child: its receiver row if it ended, else its row of
        the next level.

        An absorber (levels 0-2) picks each trial's window (:func:`_windows`)
        and ends the trials it fires on.  The coincidence (level 3) cannot
        resolve the pair state, so each trial unravels the receiver's branch
        mixture by sampling a branch with Born weights, and ends there.
        """
        node = self.levels[level]
        weights = node.weights[index]
        if level < len(_ABSORBERS):
            width, outcome = _WINDOWS, _windows(draws, self.eta_abs, weights)
            ended = outcome == 2
        else:
            # searchsorted(weights, u * weights[-1], side="right"), clamped
            target = (draws * weights[:, -1])[:, None]
            width = len(PairLabel)
            outcome = np.minimum((weights <= target).sum(axis=1), width - 1)
            ended = np.ones(len(index), dtype=bool)
        slots = index * width + outcome
        child = node.children[slots]
        missing = child < 0
        if missing.any():
            self._expand(level, slots[missing])
            child = node.children[slots]
        return ended, child

    def _expand(self, level: int, slots: np.ndarray) -> None:
        """Compute the child of each slot of ``level`` named (a row's window
        or branch, see :class:`_Level`).  A coincidence branch's receiver row
        holds its normalized component."""
        node, kind = self.levels[level], _LEVEL_KINDS[level]
        if level == len(_ABSORBERS):
            drawn, _ = distinct_keys(slots, len(node.children))
            bob_pre = normalized_rows(node.components.reshape(-1, 2)[drawn])
            starts = node.starts[drawn // len(PairLabel)]
            node.children[drawn] = self._receive(kind, bob_pre, starts)
            return
        m = len(node.states)
        parents, windows = np.divmod(slots, _WINDOWS)
        # Keys ordered by window (inactive, declined, fired), then by row.
        keys, _ = distinct_keys(windows * m + parents, _WINDOWS * m)
        windows, parents = np.divmod(keys, m)
        d, f = windows.searchsorted((1, 2))
        label = _ABSORBERS[level][0]
        out = _window_states(node.states[parents], node.components[parents], d, f, label)
        passed, conditioned = out[:f], out[f:]
        starts = node.starts[parents]
        # The receiver rows go first: their fidelity check is the last step
        # that can raise, and nothing is stored before it.
        entered = received = parents[:0]
        if len(conditioned):
            # bob_pre is projected back out of the conditioned state.  Taking
            # the component before conditioning would skip this round trip,
            # but it changes the last bits of Haar fidelities, so it stays,
            # once per distinct conditioned state.
            bob_pre = contract_rows(conditioned, (0, 1), _PAIR_BRAS[label])
            received = self._receive(kind, normalized_rows(bob_pre), starts[f:])
        if f:
            if level + 1 < len(_ABSORBERS) and _ABSORBERS[level + 1][1]:
                passed = apply_rows(WAVEPLATE.matrix, passed, (1,))  # waveplate(s, 1)
            entered = self.add(level + 1, passed, starts[:f])
        node.children[parents * _WINDOWS + windows] = np.concatenate([entered, received])


# Shared-input trees the cache keeps.  A tree holds at most 15 states and 40
# receiver rows, so the cache stays a few KB.
SHARED_TREES = 8


@functools.lru_cache(maxsize=SHARED_TREES)
def _shared_tree(input_bytes: bytes, eta_abs_bytes: bytes) -> _StateTree:
    """The one state tree of every call whose trials all share the complex128
    input row ``input_bytes``, under the ``eta_abs`` whose float64 bytes are
    ``eta_abs_bytes``; no other knob changes a tree.  It is built from that
    one start; the calls that share it fill in the rest.  Each call checks
    the row before it looks a tree up (see :func:`cascade_rows`)."""
    inputs = np.frombuffer(input_bytes, dtype=np.complex128)[None]
    return _StateTree(inputs, float(np.frombuffer(eta_abs_bytes)[0]))


def cascade_rows(
    inputs: np.ndarray, cfg: EfficiencyConfig, draws: np.ndarray
) -> tuple[np.ndarray, ...]:
    """:func:`run_cascade` for a batch: one ``(N, CASCADE_DRAWS)`` draw row
    per trial, which the trial reads in order from column 0 (see
    :func:`run_cascade`), and one ``(N, 2)`` input row per trial or one
    ``(1, 2)`` shared row.

    The trials walk a state tree (:class:`_StateTree`): each absorber
    window, coincidence branch, ``bob_pre`` round trip, correction and
    fidelity runs once per tree entry, the first time a trial lands on it,
    and each trial gathers its results from the tree.  A receiver row is
    corrected and scored when it is made, whether or not a trial's detection
    draw then loses the signature.  A shared row of more than one trial, as
    a fixed input's is, starts every trial from one state, and its tree
    comes from a cache of at most ``SHARED_TREES`` trees, least recently
    used first out, keyed by the bytes of the row and of ``eta_abs``, the
    one knob the tree depends on.  A cached tree lives as long as it stays
    in the cache of this process, so later chunks and batches of one input
    and ``eta_abs`` in one process only gather; a new process starts on an
    empty cache.  Any other call, Haar chunks and one-trial calls included,
    starts from one state per input row, a dark trial's included, in a tree
    of its own, dropped when the call returns.

    Its first statement checks both blocks, before any physics, as every
    kernel's does (``teleport._require_blocks``): input rows of width 2, one
    per draw row or one shared, each normalized, a draw block of
    ``CASCADE_DRAWS`` columns, and every draw of it, each column of each
    row, whether or not its trial reads it; ``cfg`` has checked ``eta_abs``.
    So a trial whose source is dark checks its input too, and a shared row
    is checked on every call, whether or not its tree is cached.  The rest
    of the call uses the complex128 block the check returns.

    Returns the event codes (indices into ``CascadeEventKind``), ``bob_pre``
    and ``bob_post`` as ``(N, 2)`` arrays and the ``(N,)`` float64
    fidelities, all four gathered through one receiver row per trial.  A row
    whose code is not identifying, a lost signature's included, holds zeros
    in ``bob_pre`` and ``bob_post`` and a NaN fidelity.
    """
    inputs = _require_blocks(inputs, (2,), draws, CASCADE_DRAWS)
    input_available = draws[:, 0] < cfg.p_in
    pair_available = draws[:, 1] < cfg.p_pdc
    n = len(input_available)
    kinds = np.full(n, _CODE[CascadeEventKind.NO_EVENT])
    kinds[pair_available & ~input_available] = _CODE[CascadeEventKind.D3_SINGLE_LOWER]
    kinds[input_available & ~pair_available] = _CODE[CascadeEventKind.D3_SINGLE_TOP]

    rows = np.flatnonzero(input_available & pair_available)
    # The tree, and each walking trial's row of its level 0: the one start of
    # a shared row's cached tree, or the trial's own start in a tree made from
    # every input row.
    if len(inputs) == 1 < n:
        tree = _shared_tree(inputs[0].tobytes(), np.float64(cfg.eta_abs).tobytes())
        index = np.zeros(len(rows), dtype=np.intp)
    else:
        tree, index = _StateTree(inputs, cfg.eta_abs), rows
    # Each trial's receiver row in the tree; row 0 holds zeros and a NaN.
    receiver = np.zeros(n, dtype=np.intp)
    # The walk stops once no trial is left.
    for level, kind in enumerate(_LEVEL_KINDS):
        if not len(rows):
            break
        ended, child = tree.step(level, index, draws[rows, 2 + level])
        hit, passed = rows[ended], ~ended
        kinds[hit], receiver[hit] = _CODE[kind], child[ended]
        rows, index = rows[passed], child[passed]

    signalled = np.flatnonzero(kinds != _CODE[CascadeEventKind.NO_EVENT])
    lost = signalled[draws[signalled, _DETECTION_COLUMN[kinds[signalled]]] >= cfg.eta_det]
    kinds[lost] = _CODE[CascadeEventKind.NO_EVENT]
    receiver[lost] = 0
    return kinds, tree.bob_pre[receiver], tree.bob_post[receiver], tree.fidelity[receiver]


def run_cascade(
    input_state: UnknownState, cfg: EfficiencyConfig, rng_seed: int
) -> CascadeRecord:
    """One full cascade trial, deterministic in ``rng_seed``.

    The trial decides only its detector signature and, for an identifying
    one, the receiver state ``bob_pre``; the signature alone then fixes the
    stage, the certified branch and the correction (see :class:`CascadeEvent`).

    Uniform draws are consumed in a fixed order: input availability, pair
    availability, one draw per absorber reached, one branch-unraveling draw
    on a coincidence, and one detection draw for any fired signature.  That
    is 2 draws when both sources are dark, 3 for a single-detector event, and
    4 / 5 / 6 / 7 for D1 / D2 / D4 / D3C, whether or not the detection draw
    then loses the signature; at most ``CASCADE_DRAWS`` (7) in all.  The
    consumed draws are pinned by ``TestDrawCount``.  A signature that
    identifies no branch, a lost one included, leaves ``bob_pre``,
    ``bob_post`` and ``fidelity_value`` None.
    """
    kinds, bob_pre, bob_post, fidelities = cascade_rows(
        input_state.state_vector().amplitudes[None],
        cfg,
        _seed_draws(rng_seed, CASCADE_DRAWS),
    )
    kind = _KINDS[kinds[0]]
    identified = kind in IDENTIFYING_EVENTS
    return CascadeRecord(
        input=input_state,
        event=CascadeEvent(kind),
        bob_pre=StateVector(bob_pre[0]) if identified else None,
        bob_post=StateVector(bob_post[0]) if identified else None,
        fidelity_value=float(fidelities[0]) if identified else None,
        rng_seed=rng_seed,
    )


def analytic_distribution(
    input_state: UnknownState, cfg: EfficiencyConfig
) -> dict[CascadeEventKind, float]:
    """Exact event probabilities for the full tree of stage outcomes.

    Enumerates every absorber window (fired / active-negative / inactive)
    with its weight and applies the detection filter to fired signatures;
    no sampling is involved.  The returned table covers all seven kinds and
    sums to 1.
    """
    table = {kind: 0.0 for kind in CascadeEventKind}

    def fire(kind: CascadeEventKind, weight: float) -> None:
        table[kind] += weight * cfg.eta_det
        table[CascadeEventKind.NO_EVENT] += weight * (1.0 - cfg.eta_det)

    fire(CascadeEventKind.D3_SINGLE_LOWER, (1.0 - cfg.p_in) * cfg.p_pdc)
    fire(CascadeEventKind.D3_SINGLE_TOP, cfg.p_in * (1.0 - cfg.p_pdc))
    table[CascadeEventKind.NO_EVENT] += (1.0 - cfg.p_in) * (1.0 - cfg.p_pdc)

    weight_full = cfg.p_in * cfg.p_pdc
    if weight_full <= 0.0:
        return table

    def survivors(
        nodes: list[tuple[float, StateVector]],
        label: PairLabel,
        fired_kind: CascadeEventKind,
    ) -> list[tuple[float, StateVector]]:
        remaining: list[tuple[float, StateVector]] = []
        for weight, state in nodes:
            probability, component = _selected_component(state, label)
            fired = weight * cfg.eta_abs * probability
            if fired > 0.0:
                fire(fired_kind, fired)
            miss_active = weight * cfg.eta_abs * (1.0 - probability)
            if miss_active > 1e-18:
                remaining.append(
                    (miss_active, _declined(state, label, component))
                )
            inactive = weight * (1.0 - cfg.eta_abs)
            if inactive > 1e-18:
                remaining.append((inactive, state))
        return remaining

    nodes = [(weight_full, build_three_mode(input_state))]
    nodes = survivors(nodes, PairLabel.CHI_MINUS, CascadeEventKind.D1)
    nodes = [(w, waveplate(s, 1)) for w, s in nodes]
    nodes = survivors(nodes, PairLabel.CHI_MINUS, CascadeEventKind.D2)
    for weight, state in nodes:
        probability, _ = _selected_component(state, PairLabel.CHI_PLUS)
        fired = weight * cfg.eta_abs * probability
        if fired > 0.0:
            fire(CascadeEventKind.D4, fired)
        coincidence = weight * (1.0 - cfg.eta_abs * probability)
        if coincidence > 0.0:
            fire(CascadeEventKind.D3_COINCIDENCE, coincidence)
    return table
