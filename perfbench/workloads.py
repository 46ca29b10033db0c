"""The benchmark's workloads: which batches each one runs, and from which seed."""

from __future__ import annotations

import os
from dataclasses import dataclass

from bellcast import harness
# Bound here, not looked up on the module, so that a traced run's wrapper of
# harness.derive_seed counts only the library's own calls.
from bellcast.harness import derive_seed
from bellcast.photonic import EfficiencyConfig
from bellcast.teleport import UnknownState


@dataclass(frozen=True)
class Workload:
    name: str
    mode: harness.Mode
    # Extra `python -m bellcast run-<mode>` flags that give the same config.
    cli_flags: tuple[str, ...] = ()
    efficiency: EfficiencyConfig = EfficiencyConfig()
    fixed_input: UnknownState | None = None
    # Whether batches write their records to a file that is read back.
    records: bool = True

    def output_path(self, out_dir: str) -> str | None:
        return os.path.join(out_dir, f"{self.name}.jsonl") if self.records else None

    def config(self, seed: int, index: int, trials: int, out_dir: str) -> harness.RunConfig:
        """The ``index``-th batch of a run with workload seed ``seed``."""
        return harness.RunConfig(
            mode=self.mode,
            trials=trials,
            master_seed=derive_seed(seed, index),
            efficiency=self.efficiency,
            fixed_input=self.fixed_input,
            output_path=self.output_path(out_dir),
        )

    def cli_args(self, seed: int, index: int, trials: int, out_dir: str) -> list[str]:
        """`bellcast` arguments for the same batch as ``config``."""
        args = [f"run-{self.mode.value}", "--trials", str(trials)]
        args += ["--seed", str(derive_seed(seed, index)), *self.cli_flags]
        path = self.output_path(out_dir)
        if path is not None:
            args += ["--output", path]
        return args


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("spin-haar-records", harness.Mode.SPIN, ("--input", "haar-random")),
        Workload(
            "photon-lossy-records",
            harness.Mode.PHOTON,
            (
                "--input", "fixed:0.6,0.8j",
                "--eta-abs", "0.9", "--eta-det", "0.8",
                "--p-in", "0.95", "--p-pdc", "0.95",
            ),
            efficiency=EfficiencyConfig(eta_abs=0.9, eta_det=0.8, p_in=0.95, p_pdc=0.95),
            fixed_input=UnknownState.normalized(0.6, 0.8j),
        ),
        Workload("swap-inmemory", harness.Mode.SWAP, records=False),
    )
}
