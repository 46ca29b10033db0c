"""Print one digest line per config of the record byte-identity check.

The configs: photon mode at 4 efficiency configs x 4 inputs x master seeds
1 and 2, and spin, baseline and swap at the same 4 inputs and seed 1, all at
2x10^4 trials.  Each line holds the config, the SHA-256 of its record file,
the summary's counts, and the ``repr`` of its ``mean_fidelity``,
``min_fidelity``, ``success_rate`` and ``chi_square`` and of the mean
fidelity replayed from the file.  Every batch spans more than two chunks of
its mode (``harness.CHUNK_TRIALS``), so the same digests also check that
records do not depend on the chunking.  Seed 2 of each photon config runs
right after seed 1, so a fixed-input seed 2 batch walks the state tree its
seed 1 batch left in the kernel's cache, and the digests also check that a
warm tree changes no byte.  A change that keeps records byte-identical
prints exactly ``tools/record_digests.txt``:

    PYTHONPATH=src python3 tools/record_digests.py | diff tools/record_digests.txt -

Haar digests are defined on one platform only, the OpenBLAS kernel and
numpy SIMD level ``tools/digest_platform.py`` names.  So the tool first
writes that platform and the committed one to stderr, which the diff does
not read.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from digest_platform import describe

from bellcast.harness import (
    CHUNK_TRIALS,
    MODE_SPECS,
    Mode,
    RunConfig,
    load_records,
    parse_input,
    run_batch,
    summarize,
)
from bellcast.photonic import EfficiencyConfig

TRIALS = 20_000
# Each batch must span more than two chunks of its mode, or byte-identity
# here would no longer show that records do not depend on the chunking.
assert TRIALS > 2 * max(CHUNK_TRIALS.values()), "TRIALS must span two chunks"
INPUTS = ("haar-random", "fixed:0.6,0.8j", "fixed:1,0", "fixed:0,1")
EFFICIENCIES = (
    EfficiencyConfig(),
    EfficiencyConfig(eta_abs=0.9, eta_det=0.8, p_in=0.95, p_pdc=0.95),
    EfficiencyConfig(eta_abs=0.5, eta_det=0.9, p_in=0.9, p_pdc=0.9),
    EfficiencyConfig(eta_abs=0.2),
)


def configs():
    """(label, mode, efficiency, input text, master seed) of every config."""
    for efficiency in EFFICIENCIES:
        knobs = ",".join(f"{k}={v!r}" for k, v in vars(efficiency).items())
        for text in INPUTS:
            for seed in (1, 2):
                yield f"photon {knobs}", Mode.PHOTON, efficiency, text, seed
    for mode in (Mode.SPIN, Mode.BASELINE, Mode.SWAP):
        for text in INPUTS:
            yield mode.value, mode, EfficiencyConfig(), text, 1


def digest(directory: str, mode: Mode, efficiency, text: str, seed: int) -> str:
    path = os.path.join(directory, "records.jsonl")
    cfg = RunConfig(
        mode=mode, trials=TRIALS, master_seed=seed, efficiency=efficiency,
        fixed_input=parse_input(text), output_path=path,
    )
    summary = run_batch(cfg)
    with open(path, "rb") as handle:
        sha = hashlib.sha256(handle.read()).hexdigest()
    oracle = MODE_SPECS[mode].oracle
    replayed = summarize(load_records(path), mode, oracle and oracle(cfg))
    counts = json.dumps(dict(sorted(summary.counts.items())), separators=(",", ":"))
    return " ".join([
        sha,
        counts,
        f"mean={summary.mean_fidelity!r}",
        f"min={summary.min_fidelity!r}",
        f"success={summary.success_rate!r}",
        f"chi2={summary.chi_square!r}",
        f"replayed_mean={replayed.mean_fidelity!r}",
    ])


def main() -> None:
    # On stderr, so the digests on stdout still diff against the committed file.
    print(describe(), file=sys.stderr)
    with tempfile.TemporaryDirectory() as directory:
        for label, mode, efficiency, text, seed in configs():
            line = digest(directory, mode, efficiency, text, seed)
            print(f"{label} input={text} seed={seed} trials={TRIALS} {line}")


if __name__ == "__main__":
    main()
