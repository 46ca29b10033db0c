"""bellcast: exact simulation of deterministic Bell-measurement teleportation.

The package splits into an exact state-vector core (:mod:`bellcast.qcore`),
the commuting squared-spin observables that realize the Bell measurement
(:mod:`bellcast.observables`), the teleportation protocol and its baselines
(:mod:`bellcast.teleport`), a photonic absorption-cascade analyzer
(:mod:`bellcast.photonic`), and a reproducible Monte Carlo harness with a CLI
(:mod:`bellcast.harness`, :mod:`bellcast.cli`).
"""

from .observables import (
    BellOutcome,
    EigenTable,
    SpinObservableSet,
    bell_measure,
    bell_state,
    build_spin_observables,
    minimal_pairs,
    verify_eigen_table,
)
from .photonic import (
    CascadeEvent,
    CascadeEventKind,
    CascadeRecord,
    EfficiencyConfig,
    PairLabel,
    analytic_distribution,
    build_three_mode,
    run_cascade,
)
from .qcore import (
    MeasurementResult,
    Operator,
    StateVector,
    apply,
    fidelity,
    measure_projective,
    tensor,
)
from .teleport import (
    ClassicalMessage,
    TrialRecord,
    UnknownState,
    correction_for,
    decompose_branches,
    haar_random_input,
    prepare_singlet,
    run_baseline_computational,
    run_entangled_input,
    run_trial,
)
from .harness import BatchSummary, Mode, RunConfig, parse_config, run_batch, summarize

__all__ = [
    "BatchSummary",
    "BellOutcome",
    "CascadeEvent",
    "CascadeEventKind",
    "CascadeRecord",
    "ClassicalMessage",
    "EfficiencyConfig",
    "EigenTable",
    "MeasurementResult",
    "Mode",
    "Operator",
    "PairLabel",
    "RunConfig",
    "SpinObservableSet",
    "StateVector",
    "TrialRecord",
    "UnknownState",
    "analytic_distribution",
    "apply",
    "bell_measure",
    "bell_state",
    "build_spin_observables",
    "build_three_mode",
    "correction_for",
    "decompose_branches",
    "fidelity",
    "haar_random_input",
    "measure_projective",
    "minimal_pairs",
    "parse_config",
    "prepare_singlet",
    "run_baseline_computational",
    "run_batch",
    "run_cascade",
    "run_entangled_input",
    "run_trial",
    "summarize",
    "tensor",
    "verify_eigen_table",
]

__version__ = "0.1.0"
