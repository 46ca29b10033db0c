"""Correctness checks that every benchmarked batch must pass."""

from __future__ import annotations

import hashlib

from bellcast import harness

# Upper 1e-9 tail of the chi-square distribution by degrees of freedom
# (scipy.stats.chi2.isf(1e-9, df)).  A correct batch exceeds it about once
# in 10^9 batches, so a failure here means the cascade and its oracle
# disagree, not bad luck.
CHI_SQUARE_CRITICAL = {
    1: 37.3249,
    2: 41.4465,
    3: 44.8413,
    4: 47.8795,
    5: 50.6922,
    6: 53.3446,
}


def summary_failures(
    summary: harness.BatchSummary,
    trials: int,
    analytic: dict | None = None,
) -> list[str]:
    """What is wrong with one batch's summary; empty when it is correct.

    ``analytic`` is the photon oracle's event table the batch was run against.
    """
    failures = []
    if summary.trials != trials or sum(summary.counts.values()) != trials:
        failures.append(
            f"counts sum to {sum(summary.counts.values())} over "
            f"{summary.trials} trials, expected {trials}"
        )
    if summary.mode in (harness.Mode.SPIN, harness.Mode.SWAP):
        if summary.min_fidelity is None or summary.min_fidelity < harness.SUCCESS_FIDELITY:
            failures.append(f"min_fidelity {summary.min_fidelity} below threshold")
        if summary.success_rate != 1.0:
            failures.append(f"success_rate {summary.success_rate} is not 1")
    if summary.mode is harness.Mode.PHOTON:
        cells = sum(1 for p in analytic.values() if p > 0.0)
        critical = CHI_SQUARE_CRITICAL[cells - 1]
        if summary.chi_square is None or not summary.chi_square < critical:
            failures.append(
                f"chi_square {summary.chi_square} not below {critical} "
                f"({cells - 1} degrees of freedom)"
            )
    return failures


def as_printed(summary: harness.BatchSummary) -> dict:
    """``summary`` as ``python -m bellcast run-<mode>`` prints it, with every
    float rounded to 12 significant digits."""

    def rounded(obj):
        if isinstance(obj, float):
            return float(f"{obj:.12g}")
        if isinstance(obj, dict):
            return {key: rounded(value) for key, value in obj.items()}
        return obj

    return rounded(summary.to_json_obj())


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()
