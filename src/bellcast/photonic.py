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

from .observables import BellOutcome, bell_state
from .qcore import (
    Operator,
    StateVector,
    apply,
    contract_with,
    fidelity,
    tensor,
    unitary_table,
)
from .teleport import UnknownState


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
        label: contract_with(s, (0, 1), pair_basis_state(label))
        for label in PairLabel
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


IDENTIFYING_EVENTS = frozenset(
    {
        CascadeEventKind.D1,
        CascadeEventKind.D2,
        CascadeEventKind.D4,
        CascadeEventKind.D3_COINCIDENCE,
    }
)


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


@dataclass(frozen=True)
class CascadeEvent:
    kind: CascadeEventKind
    stage: CascadeStage | None = None
    original_bell: PairLabel | None = None


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


def _selected_component(s: StateVector, label: PairLabel) -> tuple[float, StateVector]:
    # Equivalent to contract_with(s, (0, 1), pair_basis_state(label)) but
    # without per-call target checks; this runs several times per trial.
    amps = _PAIR_BRAS[label] @ s.amplitudes.reshape(4, 2)
    component = StateVector._trusted(amps)
    probability = min(float(np.real(np.vdot(amps, amps))), 1.0)
    return probability, component


def _conditioned(
    s: StateVector, label: PairLabel, component: StateVector, absorbed: bool
) -> StateVector:
    pair = pair_basis_state(label)
    if absorbed:
        return tensor(pair, component.normalized())
    remainder = s.amplitudes - np.multiply.outer(
        pair.amplitudes, component.amplitudes
    ).ravel()
    return StateVector._trusted(remainder).normalized()


def _stage_windows(
    s: StateVector, label: PairLabel, eta_abs: float, rng_sample: float
) -> tuple[bool, StateVector]:
    """Single-draw absorber model.

    The draw lands in one of three windows: ``[0, eta*p)`` the absorber is
    active and fires (state conditioned on the selected branch), ``[eta*p,
    eta)`` it is active but the projection comes out negative (selected
    branch removed), ``[eta, 1)`` it is inactive this trial and the state
    passes through unprojected.  With ``eta_abs == 1`` this is exactly the
    ideal projective selection.
    """
    if not 0.0 <= rng_sample < 1.0:
        raise ValueError(f"rng_sample must lie in [0, 1), got {rng_sample}")
    if not 0.0 <= eta_abs <= 1.0:
        raise ValueError(f"eta_abs must lie in [0, 1], got {eta_abs}")
    probability, component = _selected_component(s, label)
    if rng_sample < eta_abs * probability:
        return True, _conditioned(s, label, component, absorbed=True)
    if rng_sample < eta_abs:
        return False, _conditioned(s, label, component, absorbed=False)
    return False, s


def absorption_stage(
    s: StateVector, eta_abs: float, rng_sample: float
) -> tuple[bool, StateVector]:
    """Resonant two-photon absorber selecting the zero-spin pair ``chi-``."""
    return _stage_windows(s, PairLabel.CHI_MINUS, eta_abs, rng_sample)


def stage_final(
    s: StateVector, eta_abs: float, rng_sample: float
) -> tuple[CascadeEventKind, StateVector]:
    """Last absorber: selects the current ``chi+`` pair state.

    Absorption fires D4; either non-absorption path sends both photons on to
    the coincidence detectors (D3 pair).
    """
    absorbed, post = _stage_windows(s, PairLabel.CHI_PLUS, eta_abs, rng_sample)
    kind = CascadeEventKind.D4 if absorbed else CascadeEventKind.D3_COINCIDENCE
    return kind, post


_CORRECTIONS: dict[PairLabel, np.ndarray] = {
    # gamma-: branch already equals the input.
    PairLabel.GAMMA_MINUS: np.array([[1, 0], [0, 1]], dtype=np.complex128),
    # gamma+: flip the sign of |L>.
    PairLabel.GAMMA_PLUS: np.array([[1, 0], [0, -1]], dtype=np.complex128),
    # chi-: swap R and L.
    PairLabel.CHI_MINUS: np.array([[0, 1], [1, 0]], dtype=np.complex128),
    # chi+: |R> -> |L>, |L> -> -|R>.
    PairLabel.CHI_PLUS: np.array([[0, -1], [1, 0]], dtype=np.complex128),
}


_CORRECTION_OPS = unitary_table(_CORRECTIONS)


def correction_for_photonic(label: PairLabel) -> Operator:
    """Mode-2 polarization correction for the certified original branch."""
    return _CORRECTION_OPS[label]


_PAIR_ORDER = tuple(PairLabel)


def _sample_pair_branch(
    s: StateVector, rng_sample: float
) -> tuple[PairLabel, StateVector]:
    """Sample which pair branch a polarization-blind coincidence consumed.

    The coincidence detectors cannot resolve the pair state, so the receiver
    mode is left in the branch mixture; per trial we unravel it by sampling a
    branch with Born weights.  Under ideal absorbers only one branch survives
    to this point and the sampling is deterministic.
    """
    view = s.amplitudes.reshape(4, 2)
    weights = []
    components = []
    for label in _PAIR_ORDER:
        amps = _PAIR_BRAS[label] @ view
        weights.append(float(np.real(np.vdot(amps, amps))))
        components.append(StateVector._trusted(amps))
    cumulative = np.cumsum(weights)
    index = int(np.searchsorted(cumulative, rng_sample * cumulative[-1], side="right"))
    index = min(index, len(_PAIR_ORDER) - 1)
    return _PAIR_ORDER[index], components[index].normalized()


def run_cascade(
    input_state: UnknownState, cfg: EfficiencyConfig, rng_seed: int
) -> CascadeRecord:
    """One full cascade trial, deterministic in ``rng_seed``.

    Uniform draws are consumed in a fixed order: input availability, pair
    availability, one draw per absorber reached, one branch-unraveling draw
    on a coincidence, and one detection draw for any fired signature.
    """
    rng = np.random.default_rng(rng_seed)
    input_available = rng.random() < cfg.p_in
    pair_available = rng.random() < cfg.p_pdc

    if not (input_available and pair_available):
        if pair_available:
            kind = CascadeEventKind.D3_SINGLE_LOWER
        elif input_available:
            kind = CascadeEventKind.D3_SINGLE_TOP
        else:
            kind = CascadeEventKind.NO_EVENT
        if kind is not CascadeEventKind.NO_EVENT and rng.random() >= cfg.eta_det:
            kind = CascadeEventKind.NO_EVENT
        return CascadeRecord(
            input=input_state,
            event=CascadeEvent(kind=kind),
            bob_pre=None,
            bob_post=None,
            fidelity_value=None,
            rng_seed=rng_seed,
        )

    state = build_three_mode(input_state)

    absorbed, state = absorption_stage(state, cfg.eta_abs, rng.random())
    if absorbed:
        return _identified(
            input_state, state, CascadeEventKind.D1,
            CascadeStage.FIRST_SINGLET_ABSORBER, rng, cfg, rng_seed,
        )

    state = waveplate(state, 1)
    absorbed, state = absorption_stage(state, cfg.eta_abs, rng.random())
    if absorbed:
        return _identified(
            input_state, state, CascadeEventKind.D2,
            CascadeStage.SECOND_SINGLET_ABSORBER, rng, cfg, rng_seed,
        )

    kind, state = stage_final(state, cfg.eta_abs, rng.random())
    if kind is CascadeEventKind.D4:
        return _identified(
            input_state, state, CascadeEventKind.D4,
            CascadeStage.FINAL_ABSORBER, rng, cfg, rng_seed,
        )

    _, bob_pre = _sample_pair_branch(state, rng.random())
    return _finish_identifying(
        input_state, CascadeEventKind.D3_COINCIDENCE,
        CascadeStage.FINAL_ABSORBER, bob_pre, rng, cfg, rng_seed,
    )


def _identified(
    input_state: UnknownState,
    conditioned_state: StateVector,
    kind: CascadeEventKind,
    stage: CascadeStage,
    rng: np.random.Generator,
    cfg: EfficiencyConfig,
    rng_seed: int,
) -> CascadeRecord:
    selector = (
        PairLabel.CHI_PLUS
        if kind is CascadeEventKind.D4
        else PairLabel.CHI_MINUS
    )
    bob_pre = contract_with(
        conditioned_state, (0, 1), pair_basis_state(selector)
    ).normalized()
    return _finish_identifying(input_state, kind, stage, bob_pre, rng, cfg, rng_seed)


def _finish_identifying(
    input_state: UnknownState,
    kind: CascadeEventKind,
    stage: CascadeStage,
    bob_pre: StateVector,
    rng: np.random.Generator,
    cfg: EfficiencyConfig,
    rng_seed: int,
) -> CascadeRecord:
    if rng.random() >= cfg.eta_det:
        return CascadeRecord(
            input=input_state,
            event=CascadeEvent(kind=CascadeEventKind.NO_EVENT),
            bob_pre=None,
            bob_post=None,
            fidelity_value=None,
            rng_seed=rng_seed,
        )
    original = EVENT_ORIGINAL_BRANCH[kind]
    correction = correction_for_photonic(original)
    bob_post = StateVector._trusted(correction.matrix @ bob_pre.amplitudes)
    return CascadeRecord(
        input=input_state,
        event=CascadeEvent(kind=kind, stage=stage, original_bell=original),
        bob_pre=bob_pre,
        bob_post=bob_post,
        fidelity_value=fidelity(bob_post, input_state.state_vector()),
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
                    (miss_active, _conditioned(state, label, component, absorbed=False))
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
