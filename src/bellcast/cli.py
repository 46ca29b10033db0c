"""Command-line front end.

Subcommands: verify-observables, run-spin, run-photon, run-baseline,
run-swap, sweep-efficiency.  The BELLCAST_SEED environment variable, when
set, overrides the master seed from both config files and flags.  Numeric
output is printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

from .harness import (
    SEED_ENV_VAR,
    Mode,
    RunConfig,
    atomic_writer,
    master_seed_from,
    parse_config,
    parse_input,
    run_batch,
)
from .observables import (
    BellOutcome,
    build_spin_observables,
    commutator_norms,
    minimal_pairs,
    verify_bell_projector_routes,
    verify_eigen_table,
)
from .photonic import (
    EFFICIENCY_KNOBS,
    CascadeEventKind,
    EfficiencyConfig,
    analytic_distribution,
)
from .teleport import UnknownState


def _sig(value: float) -> str:
    return f"{value:.12g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(_sig(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    return obj


def _cmd_verify_observables(_: argparse.Namespace) -> int:
    observables = build_spin_observables()
    failures = []
    try:
        table = verify_eigen_table(observables)
    except ValueError as exc:
        print(f"eigen table FAILED: {exc}", file=sys.stderr)
        return 1
    print("eigenvalue table (units of hbar^2):")
    print(f"{'state':<10}{'S^2':>8}{'Sx^2':>8}{'Sy^2':>8}{'Sz^2':>8}")
    for label in BellOutcome:
        s2, sx, sy, sz = table.rows[label]
        print(f"{label.value:<10}{_sig(s2):>8}{_sig(sx):>8}{_sig(sy):>8}{_sig(sz):>8}")
    print("commutator max-abs norms:")
    for (a, b), norm in commutator_norms(observables).items():
        print(f"  [{a}, {b}] = {_sig(norm)}")
        if norm > 1e-12:
            failures.append(f"[{a}, {b}] does not vanish ({norm:.3e})")
    try:
        deviation = verify_bell_projector_routes()
        print(f"projector routes max deviation: {_sig(deviation)}")
    except ValueError as exc:
        failures.append(str(exc))
    try:
        pairs = minimal_pairs()
        names = ", ".join("(" + ", ".join(p.names) + ")" for p in pairs)
        print(f"minimal distinguishing pairs: {names}")
    except ValueError as exc:
        failures.append(str(exc))
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _load_base_config(args: argparse.Namespace, mode: Mode) -> RunConfig:
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
        if cfg.mode is not mode:
            raise ValueError(
                f"config sets mode {cfg.mode.value!r} but the subcommand runs "
                f"{mode.value!r}"
            )
        return cfg
    return RunConfig(mode=mode)


def _apply_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates: dict = {}
    if getattr(args, "trials", None) is not None:
        updates["trials"] = args.trials
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = master_seed_from(args.seed, "--seed")
    if getattr(args, "input", None) is not None:
        updates["fixed_input"] = parse_input(args.input)
    if getattr(args, "output", None) is not None:
        updates["output_path"] = args.output
    efficiency = cfg.efficiency
    eff_updates = {
        name: getattr(args, name)
        for name in EFFICIENCY_KNOBS
        if getattr(args, name, None) is not None
    }
    if eff_updates:
        updates["efficiency"] = dataclasses.replace(efficiency, **eff_updates)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        updates["master_seed"] = master_seed_from(env_seed, SEED_ENV_VAR)
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _cmd_run(mode: Mode, args: argparse.Namespace) -> int:
    cfg = _apply_overrides(_load_base_config(args, mode), args)
    if args.csv is None:
        summary = run_batch(cfg)
    else:
        # Opened before the batch, so a bad path fails before any trial.
        with atomic_writer(args.csv) as handle:
            summary = run_batch(cfg)
            handle.write("outcome,count,frequency\n")
            for key, count in sorted(summary.counts.items()):
                handle.write(f"{key},{count},{_sig(summary.frequencies[key])}\n")
    print(json.dumps(_round_floats(summary.to_json_obj()), allow_nan=False))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise ValueError("steps must be >= 2")
    if not 0.0 <= args.start <= 1.0 or not 0.0 <= args.stop <= 1.0:
        raise ValueError("sweep endpoints must lie in [0, 1]")
    kinds = list(CascadeEventKind)
    input_state = UnknownState(1.0, 0.0)
    stdout = contextlib.nullcontext(sys.stdout)
    with stdout if args.output is None else atomic_writer(args.output) as handle:
        handle.write("value," + ",".join(kind.value for kind in kinds) + "\n")
        for i in range(args.steps):
            value = args.start + (args.stop - args.start) * i / (args.steps - 1)
            cfg = EfficiencyConfig(**{args.param: value})
            table = analytic_distribution(input_state, cfg)
            row = [value] + [table[kind] for kind in kinds]
            handle.write(",".join(map(_sig, row)) + "\n")
    return 0


def _add_batch_flags(parser: argparse.ArgumentParser, photon: bool) -> None:
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--trials", type=int, help="number of trials")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument(
        "--input", help="'haar-random' or 'fixed:a,b' (ignored by run-swap)"
    )
    parser.add_argument("--output", help="JSON-lines record file")
    parser.add_argument("--csv", help="per-outcome CSV summary file")
    if photon:
        for name in EFFICIENCY_KNOBS:
            parser.add_argument(
                f"--{name.replace('_', '-')}",
                dest=name,
                type=float,
                help=f"{name} in [0, 1]",
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellcast",
        description="Deterministic Bell-measurement teleportation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "verify-observables",
        help="print the eigenvalue table and all commutator norms",
    ).set_defaults(func=_cmd_verify_observables)

    for name, mode in (
        ("run-spin", Mode.SPIN),
        ("run-photon", Mode.PHOTON),
        ("run-baseline", Mode.BASELINE),
        ("run-swap", Mode.SWAP),
    ):
        cmd = sub.add_parser(name, help=f"run a {mode.value}-mode batch")
        _add_batch_flags(cmd, photon=(mode is Mode.PHOTON))
        cmd.set_defaults(func=lambda args, m=mode: _cmd_run(m, args))

    sweep = sub.add_parser(
        "sweep-efficiency",
        help="emit analytic event probabilities over an efficiency sweep",
    )
    sweep.add_argument("--param", choices=EFFICIENCY_KNOBS, required=True)
    sweep.add_argument("--from", dest="start", type=float, required=True)
    sweep.add_argument("--to", dest="stop", type=float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--output", help="CSV output path (default stdout)")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
