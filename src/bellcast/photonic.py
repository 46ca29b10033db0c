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
from .teleport import UnknownState, _seed_draws, correction_for


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


# The row-batched cascade.  States are (M, 8) arrays over modes (0, 1, 2):
# a table of distinct states, and each trial's row index in it.  Every trial
# draws and compares alone, but each float step runs once per distinct row,
# with the float operations of its scalar form (see qcore's row-batched
# forms), so each trial is bit-identical to a one-trial call.


def _project_rows(states: np.ndarray, label: PairLabel) -> tuple[np.ndarray, ...]:
    """The cascade's one pair-basis projection: each row's Born weight of
    ``label`` on modes (0, 1) and its unnormalized mode-2 component."""
    components = contract_rows(states, (0, 1), _PAIR_BRAS[label])
    return np.minimum(overlap_rows(components, components).real, 1.0), components


def _stage_rows(
    table: np.ndarray,
    index: np.ndarray,
    label: PairLabel,
    eta_abs: float,
    draws: np.ndarray,
) -> tuple[np.ndarray, tuple, tuple]:
    """Single-draw absorber model on the trials' states ``table[index]``,
    one draw per trial.

    The draw lands in one of three windows: ``[0, eta*p)`` the absorber is
    active and fires (state conditioned on the selected branch), ``[eta*p,
    eta)`` it is active but the projection comes out negative (selected
    branch removed), ``[eta, 1)`` it is inactive this trial and the state
    passes through unprojected.  With ``eta_abs == 1`` this is exactly the
    ideal projective selection.  The projection runs once per table row, and
    the conditioning or removal once per (row, window) pair some trial
    lands in.  Returns which trials fired, then the conditioned states of
    the fired trials and the new states of the rest, each as a table of
    distinct rows and one index per trial.
    """
    require_draws_rows(draws)
    if not 0.0 <= eta_abs <= 1.0:
        raise ValueError(f"eta_abs must lie in [0, 1], got {eta_abs}")
    probability, components = _project_rows(table, label)
    active = draws < eta_abs
    fired = draws < (eta_abs * probability)[index]
    # Keys ordered by window (inactive, declined, fired), then by row.
    m = len(table)
    windows = np.add(active, fired, dtype=np.intp)
    distinct, inverse = distinct_keys(windows * m + index, 3 * m)
    source = distinct % m
    d, f = distinct.searchsorted((m, 2 * m))
    pair = _PAIR_STATES[label].amplitudes
    out = table[source]
    # A window no trial lands in costs nothing, not a numpy call on no rows.
    if f > d:
        out[d:f] = normalized_rows(out[d:f] - tensor_rows(pair, components[source[d:f]]))
    if len(out) > f:
        out[f:] = tensor_rows(pair, normalized_rows(components[source[f:]]))
    return fired, (out[f:], inverse[fired] - f), (out[:f], inverse[~fired])


def _stage(
    s: StateVector, label: PairLabel, eta_abs: float, rng_sample: float
) -> tuple[bool, StateVector]:
    one = np.zeros(1, dtype=np.intp)
    fired, hit, missed = _stage_rows(
        s.amplitudes[None], one, label, eta_abs, np.array([rng_sample])
    )
    table, index = hit if fired[0] else missed
    return bool(fired[0]), StateVector(table[index[0]])


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


def _sample_pair_branch_rows(
    table: np.ndarray, index: np.ndarray, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sample which pair branch a polarization-blind coincidence consumed.

    The coincidence detectors cannot resolve the pair state, so the receiver
    mode is left in the branch mixture; per trial we unravel it by sampling a
    branch with Born weights and return its normalized mode-2 component.
    Under ideal absorbers only one branch survives to this point and the
    sampling is deterministic.  The trials' states are ``table[index]``;
    the weights run once per table row and the normalization once per
    (row, branch) pair drawn.  Returns the components as a table of
    distinct rows and each trial's index in it.
    """
    weights, components = zip(*(_project_rows(table, label) for label in PairLabel))
    cumulative = np.cumsum(np.stack(weights, axis=1), axis=1)[index]
    # searchsorted(cumulative, u * cumulative[-1], side="right"), clamped
    target = (draws * cumulative[:, -1])[:, None]
    k = len(PairLabel)
    branch = np.minimum((cumulative <= target).sum(axis=1), k - 1)
    distinct, inverse = distinct_keys(index * k + branch, len(table) * k)
    return normalized_rows(np.stack(components, axis=1).reshape(-1, 2)[distinct]), inverse


# Uniform draws a cascade consumes at most: 2 availability, 3 absorbers,
# 1 coincidence unraveling, 1 detection.
CASCADE_DRAWS = 7


# Kinds by their index in the kernel's event codes.
_KINDS = tuple(CascadeEventKind)
_CODE = {kind: code for code, kind in enumerate(_KINDS)}
# Per code, whether the trial identified a branch and so has a fidelity.
_IDENTIFYING_CODES = np.array([kind in IDENTIFYING_EVENTS for kind in _KINDS])
# The correction per event code; non-identifying codes, never corrected, get
# the identity (the gamma- correction).
_CORRECTION_BY_CODE = np.array(
    [
        _CORRECTION_OPS[EVENT_ORIGINAL_BRANCH.get(kind, PairLabel.GAMMA_MINUS)].matrix
        for kind in _KINDS
    ]
)
# The absorbers in cascade order: the signature each fires, the pair state it
# selects, and whether the half-wave rotation on mode 1 comes before it.
_ABSORBERS = (
    (CascadeEventKind.D1, PairLabel.CHI_MINUS, False),
    (CascadeEventKind.D2, PairLabel.CHI_MINUS, True),
    (CascadeEventKind.D4, PairLabel.CHI_PLUS, False),
)


def cascade_rows(
    inputs: np.ndarray, cfg: EfficiencyConfig, draws: np.ndarray
) -> tuple[np.ndarray, ...]:
    """:func:`run_cascade` for a batch: one ``(N, 2)`` input row and one
    ``(N, CASCADE_DRAWS)`` draw row per trial, which the trial reads in order
    through its own column cursor.

    The states are a table of distinct rows and one index per trial:
    byte-identical input rows start from one row, any other inputs from one
    row per trial.  Each absorber, the coincidence sampler, the ``bob_pre``
    round trip, the correction and the fidelity run once per distinct row,
    and each trial indexes its results back.

    Returns the event codes (indices into ``CascadeEventKind``), ``bob_pre``
    and ``bob_post`` as ``(N, 2)`` arrays and the ``(N,)`` float64
    fidelities; a row whose code is not identifying holds zeros in
    ``bob_post`` and a NaN, and ``bob_pre`` is zeros where a source was
    dark.
    """
    n = inputs.shape[0]
    cursor = np.zeros(n, dtype=np.intp)

    def draw(rows: np.ndarray) -> np.ndarray:
        values = draws[rows, cursor[rows]]
        cursor[rows] += 1
        return values

    every = np.arange(n)
    input_available = draw(every) < cfg.p_in
    pair_available = draw(every) < cfg.p_pdc
    kinds = np.full(n, _CODE[CascadeEventKind.NO_EVENT])
    kinds[pair_available & ~input_available] = _CODE[CascadeEventKind.D3_SINGLE_LOWER]
    kinds[input_available & ~pair_available] = _CODE[CascadeEventKind.D3_SINGLE_TOP]

    rows = np.flatnonzero(input_available & pair_available)
    # Byte-identical input rows, as in a fixed-input chunk, start from one
    # state; comparing bytes keeps 0.0 and -0.0 apart.
    words = inputs.view(np.uint64)
    if (words == words[:1]).all():
        starts, index = rows[:1], np.zeros(len(rows), dtype=np.intp)
    else:
        starts, index = rows, np.arange(len(rows))
    table = tensor_rows(inputs[starts], pdc_pair().amplitudes)  # build_three_mode
    # The receiver states bob_pre: a table of distinct rows, the first all
    # zeros, and each trial's row in it.
    receivers = [np.zeros((1, 2), dtype=np.complex128)]
    receiver = np.zeros(n, dtype=np.intp)
    for kind, label, rotate in _ABSORBERS:
        if rotate:  # waveplate(s, 1)
            table = apply_rows(WAVEPLATE.matrix, table, (1,))
        fired, (conditioned, at), (table, index) = _stage_rows(
            table, index, label, cfg.eta_abs, draw(rows)
        )
        hit = rows[fired]
        kinds[hit] = _CODE[kind]
        receiver[hit] = at + sum(map(len, receivers))
        # bob_pre is projected back out of the conditioned state.  Taking the
        # component before conditioning would skip this round trip, but it
        # changes the last bits of Haar fidelities, so it stays, once per
        # distinct conditioned state.
        receivers.append(normalized_rows(_project_rows(conditioned, label)[1]))
        rows = rows[~fired]
    kinds[rows] = _CODE[CascadeEventKind.D3_COINCIDENCE]
    sampled, at = _sample_pair_branch_rows(table, index, draw(rows))
    receiver[rows] = at + sum(map(len, receivers))
    receivers = np.concatenate([*receivers, sampled])
    bob_pre = receivers[receiver]

    signalled = np.flatnonzero(kinds != _CODE[CascadeEventKind.NO_EVENT])
    lost = draw(signalled) >= cfg.eta_det
    kinds[signalled[lost]] = _CODE[CascadeEventKind.NO_EVENT]

    # The correction and fidelity run once per distinct receiver state of an
    # identified trial.  The trials that share one share its code and their
    # input's bytes, so any one of them stands for all.
    identified = np.flatnonzero(_IDENTIFYING_CODES[kinds])
    distinct, at = distinct_keys(receiver[identified], len(receivers))
    trial = np.empty_like(distinct)
    trial[at] = identified
    post = apply_rows(_CORRECTION_BY_CODE[kinds[trial]], receivers[distinct], (0,))
    bob_post = np.zeros((n, 2), dtype=np.complex128)
    bob_post[identified] = post[at]
    fidelities = np.full(n, np.nan)
    fidelities[identified] = fidelity_rows(post, inputs[trial])[at]
    return kinds, bob_pre, bob_post, fidelities


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
    consumed draws are pinned by ``TestDrawCount``.
    """
    kinds, bob_pre, bob_post, fidelities = cascade_rows(
        input_state.state_vector().amplitudes[None],
        cfg,
        _seed_draws(rng_seed, CASCADE_DRAWS),
    )
    identified = bool(_IDENTIFYING_CODES[kinds[0]])
    return CascadeRecord(
        input=input_state,
        event=CascadeEvent(_KINDS[kinds[0]]),
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
