"""Monte Carlo batch runner with reproducible seeding and JSON-lines output.

Seeding: each trial derives a 64-bit base seed from the master seed and the
trial index with a splitmix-style mix (constants 0x9E3779B97F4A7C15,
0xBF58476D1CE4E5B9, 0x94D049BB133111EB).  The base seed is mixed again with
stream tags 0 and 1 to give independent input-sampling and protocol seeds,
so identical configs reproduce byte-identical record streams.  A trial's
draws are the first uniforms of ``np.random.default_rng(seed)`` for each of
those seeds.  Batches compute seeds and draws in bulk, ``CHUNK_TRIALS``
trials at a time (:mod:`bellcast.stream`), bit-identical to building one
generator per trial, so a record's ``seed`` still replays it alone.

Physics: each chunk makes one call to its mode's batched kernel
(``teleport_rows``, ``baseline_rows``, ``swap_rows`` or ``cascade_rows``),
which runs every trial of the chunk as one row of an ``(N, 8)`` or
``(N, 16)`` state array.  The one-trial entry points (``run_trial``,
``run_baseline_computational``, ``run_entangled_input``, ``run_cascade``)
are the same kernels called with one row, and every row is bit-identical to
that call.  A Haar input is still converted from its draws one row at a
time (``haar_from_uniforms``).

Record schema (one JSON object per line, keys in this order):

    trial, seed, outcome, message_bits, fidelity, event*, a_re, a_im, b_re, b_im

``event`` appears in photon mode only.  ``outcome`` / ``message_bits`` /
``fidelity`` are null when the trial identified nothing, and the input
amplitude fields are null in swap mode, which has no single-qubit input.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import errno
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

import numpy as np

from .observables import MEASUREMENT_ORDER, BellOutcome, bell_state
from .photonic import (
    CASCADE_DRAWS,
    EFFICIENCY_KNOBS,
    EVENT_ORIGINAL_BRANCH,
    IDENTIFYING_EVENTS,
    CascadeEventKind,
    EfficiencyConfig,
    analytic_distribution,
    cascade_rows,
    run_cascade,  # noqa: F401 - perfbench's tracer looks it up here
)
from .qcore import (
    fidelity,  # noqa: F401 - perfbench's tracer looks it up here
    fidelity_rows,
)
from .stream import derive_seeds, uniforms
from .teleport import (
    BASELINE_DRAWS,
    HAAR_DRAWS,
    SWAP_DRAWS,
    TRIAL_DRAWS,
    ClassicalMessage,
    UnknownState,
    baseline_rows,
    haar_from_uniforms,
    haar_random_input,  # noqa: F401 - perfbench's tracer looks it up here
    run_entangled_input,  # noqa: F401 - perfbench's tracer looks it up here
    run_trial,  # noqa: F401 - perfbench's tracer looks it up here
    swap_rows,
    teleport_rows,
)

MASTER_SEED_MAX = (1 << 64) - 1

SUCCESS_FIDELITY = 1.0 - 1e-10
SEED_ENV_VAR = "BELLCAST_SEED"

# Trials whose seeds, draws and physics are computed in one bulk call.
CHUNK_TRIALS = 1024


def derive_seed(master_seed: int, index: int) -> int:
    """Splitmix-style 64-bit mix of (master_seed, index)."""
    return int(derive_seeds(master_seed, index)[0])


class Mode(enum.Enum):
    SPIN = "spin"
    PHOTON = "photon"
    BASELINE = "baseline"
    SWAP = "swap"


@dataclass(frozen=True)
class RunConfig:
    """Batch configuration.  ``fixed_input=None`` samples Haar-random inputs;
    ``output_path=None`` skips writing the record file."""

    mode: Mode
    trials: int = 10000
    master_seed: int = 42
    efficiency: EfficiencyConfig = field(default_factory=EfficiencyConfig)
    fixed_input: UnknownState | None = None
    output_path: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.master_seed <= MASTER_SEED_MAX:
            raise ValueError("master_seed must fit in 64 bits")


@dataclass(frozen=True)
class BatchSummary:
    """Aggregate of one batch; ``duration_seconds`` is excluded from
    equality so a summary recomputed from the record file compares equal."""

    mode: Mode
    trials: int
    counts: dict[str, int]
    frequencies: dict[str, float]
    mean_fidelity: float | None
    min_fidelity: float | None
    success_rate: float
    chi_square: float | None
    duration_seconds: float = field(compare=False, default=0.0)

    def to_json_obj(self) -> dict:
        return {
            "mode": self.mode.value,
            "trials": self.trials,
            "counts": dict(sorted(self.counts.items())),
            "frequencies": dict(sorted(self.frequencies.items())),
            "mean_fidelity": self.mean_fidelity,
            "min_fidelity": self.min_fidelity,
            "success_rate": self.success_rate,
            "chi_square": self.chi_square,
            "duration_seconds": self.duration_seconds,
        }


_MESSAGE_BITS = {
    outcome: ClassicalMessage.from_outcome(outcome).as_string()
    for outcome in BellOutcome
}
_NO_AMPLITUDES = (None, None, None, None)


def _wire_record(
    index: int,
    base_seed: int,
    outcome: str | None,
    message_bits: str | None,
    fidelity_value: float | None,
    amplitudes: tuple | list,
    event: str | None = None,
) -> dict:
    """One wire record, keys in schema order; ``event`` only in photon mode.

    ``amplitudes`` is ``(a_re, a_im, b_re, b_im)``, all None in swap mode.
    """
    record = {
        "trial": index,
        "seed": base_seed,
        "outcome": outcome,
        "message_bits": message_bits,
        "fidelity": fidelity_value,
    }
    if event is not None:
        record["event"] = event
    record["a_re"], record["a_im"], record["b_re"], record["b_im"] = amplitudes
    return record


_PROTOCOL_DRAWS = {
    Mode.SPIN: TRIAL_DRAWS,
    Mode.BASELINE: BASELINE_DRAWS,
    Mode.SWAP: SWAP_DRAWS,
    Mode.PHOTON: CASCADE_DRAWS,
}

# Wire (outcome, message_bits) per measurement outcome index, and (outcome,
# message_bits, event) per cascade event code.
_OUTCOME_WIRE = [(o.value, _MESSAGE_BITS[o]) for o in MEASUREMENT_ORDER]
_EVENT_WIRE = [
    (branch.value, _MESSAGE_BITS[branch.bell_analog], kind.value)
    if (branch := EVENT_ORIGINAL_BRANCH.get(kind))
    else (None, None, kind.value)
    for kind in CascadeEventKind
]
_SWAP_TARGET = bell_state(BellOutcome.PSI_MINUS).amplitudes


def _chunks(
    cfg: RunConfig,
) -> Iterator[tuple[int, list[int], np.ndarray | None, np.ndarray]]:
    """Per chunk: first trial index, base seeds, ``(n, 2)`` inputs and
    ``(n, k)`` protocol draws.  The inputs are None in swap mode, which has
    no single-qubit input."""
    for start in range(0, cfg.trials, CHUNK_TRIALS):
        stop = min(start + CHUNK_TRIALS, cfg.trials)
        indices = np.arange(start, stop, dtype=np.uint64)
        base_seeds = derive_seeds(cfg.master_seed, indices)
        protocol_seeds = derive_seeds(base_seeds, 1)
        if cfg.mode is Mode.SWAP:
            inputs = None
        elif cfg.fixed_input is None:
            # One UnknownState per row: vectorized arccos, cos, sin and exp
            # are not shown to round as their scalar calls do.
            rows = uniforms(derive_seeds(base_seeds, 0), HAAR_DRAWS).tolist()
            states = [haar_from_uniforms(*row) for row in rows]
            inputs = np.array([(s.a, s.b) for s in states], dtype=np.complex128)
        else:
            amplitudes = cfg.fixed_input.state_vector().amplitudes
            inputs = np.tile(amplitudes, (stop - start, 1))
        draws = uniforms(protocol_seeds, _PROTOCOL_DRAWS[cfg.mode])
        yield start, base_seeds.tolist(), inputs, draws


def _chunk_wire(cfg: RunConfig, inputs: np.ndarray | None, draws: np.ndarray):
    """Run one chunk through the mode's kernel; yield each trial's
    ``(outcome, message_bits, fidelity, event)`` in trial order."""
    if cfg.mode is Mode.SPIN:
        outcomes, _, _, fidelities = teleport_rows(inputs, draws)
        for outcome, value in zip(outcomes.tolist(), fidelities):
            yield (*_OUTCOME_WIRE[outcome], value, None)
    elif cfg.mode is Mode.BASELINE:
        identified, _, fidelities = baseline_rows(inputs, draws)
        certified = (BellOutcome.PSI_MINUS.value, _MESSAGE_BITS[BellOutcome.PSI_MINUS])
        for hit, value in zip(identified.tolist(), fidelities):
            yield (*(certified if hit else (None, None)), value, None)
    elif cfg.mode is Mode.SWAP:
        outcomes, final = swap_rows(draws)
        fidelities = fidelity_rows(final, np.broadcast_to(_SWAP_TARGET, final.shape))
        for outcome, value in zip(outcomes.tolist(), fidelities):
            yield (*_OUTCOME_WIRE[outcome], value, None)
    elif cfg.mode is Mode.PHOTON:
        kinds, _, _, fidelities = cascade_rows(
            inputs, cfg.efficiency, draws.__getitem__
        )
        for kind, value in zip(kinds.tolist(), fidelities):
            outcome, message_bits, event = _EVENT_WIRE[kind]
            yield outcome, message_bits, value, event
    else:  # pragma: no cover - Mode is exhaustive
        raise ValueError(f"unsupported mode {cfg.mode}")


def iter_records(cfg: RunConfig) -> Iterator[dict]:
    """Generate the batch's wire records in trial order, one kernel call per
    chunk of ``CHUNK_TRIALS`` trials."""
    for start, base_seeds, inputs, draws in _chunks(cfg):
        if inputs is None:
            amplitudes = itertools.repeat(_NO_AMPLITUDES)
        else:
            amplitudes = inputs.view(np.float64).tolist()
        trials = zip(
            itertools.count(start), base_seeds, _chunk_wire(cfg, inputs, draws),
            amplitudes,
        )
        for index, base_seed, (outcome, bits, value, event), amps in trials:
            yield _wire_record(index, base_seed, outcome, bits, value, amps, event)


def record_to_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


@contextlib.contextmanager
def atomic_writer(path: str) -> Iterator[IO[str]]:
    """A text file that replaces ``path`` only when the block exits cleanly.

    The temp file is created beside ``path`` on entry, with the mode
    ``open(path, "w")`` would give, so a bad path fails before the block
    runs.  On any error the temp file is removed and ``path`` is left
    untouched; an ``OSError`` comes out as ``ValueError``.
    """
    try:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        directory, name = os.path.split(os.path.abspath(path))
        while True:
            temp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
            with contextlib.suppress(FileExistsError):
                fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
    except OSError as exc:
        raise ValueError(f"cannot write output path {path!r}: {exc}")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(temp, path)
    except OSError as exc:
        raise ValueError(f"cannot write output path {path!r}: {exc}")
    finally:
        with contextlib.suppress(OSError):  # gone after a successful replace
            os.unlink(temp)


def _written(records: Iterable[dict], handle: IO[str]) -> Iterator[dict]:
    """Pass ``records`` through, writing each one's line to ``handle``."""
    for record in records:
        handle.write(record_to_line(record) + "\n")
        yield record


def run_batch(cfg: RunConfig) -> BatchSummary:
    """Run the batch in one streaming pass through :func:`summarize`, writing
    each record's JSON line as it passes when ``cfg.output_path`` is set."""
    start = time.perf_counter()
    analytic = None
    if cfg.mode is Mode.PHOTON:
        reference_input = cfg.fixed_input or UnknownState(1.0, 0.0)
        analytic = analytic_distribution(reference_input, cfg.efficiency)
    records = iter_records(cfg)
    with contextlib.ExitStack() as stack:
        if cfg.output_path is not None:
            handle = stack.enter_context(atomic_writer(cfg.output_path))
            records = _written(records, handle)
        summary = summarize(records, mode=cfg.mode, analytic=analytic)
    return dataclasses.replace(summary, duration_seconds=time.perf_counter() - start)


def load_records(path: str) -> Iterator[dict]:
    """Yield wire records back from a JSON-lines file."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


_IDENTIFYING_WIRE = frozenset(kind.value for kind in IDENTIFYING_EVENTS)


def summarize(
    records: Iterable[dict],
    mode: Mode,
    analytic: dict[CascadeEventKind, float] | None = None,
) -> BatchSummary:
    """Aggregate a stream of wire records in one pass, in constant memory.

    Counting key: the event string in photon mode, else the outcome string
    (missing outcomes count under "none").  Mean/min fidelity cover only the
    records that carry one.  Success means fidelity at the recovery threshold
    for spin/swap, an identified trial for baseline, and a detected
    branch-identifying event for photon mode.
    """
    counts: dict[str, int] = {}
    fidelity_count = 0
    fidelity_sum = 0.0
    fidelity_min = float("inf")
    successes = 0
    total = 0
    for record in records:
        total += 1
        value = record["fidelity"]
        if mode is Mode.PHOTON:
            key = record["event"]
            if key in _IDENTIFYING_WIRE:
                successes += 1
        else:
            key = record["outcome"] or "none"
            if mode is Mode.BASELINE:
                successes += record["outcome"] is not None
            elif value is not None:
                successes += value >= SUCCESS_FIDELITY
        counts[key] = counts.get(key, 0) + 1
        if value is not None:
            fidelity_count += 1
            fidelity_sum += value
            if value < fidelity_min:
                fidelity_min = value
    if total == 0:
        raise ValueError("cannot summarize an empty record stream")

    frequencies = {key: count / total for key, count in counts.items()}
    chi_square = None
    if analytic is not None:
        chi_square = 0.0
        for kind, probability in analytic.items():
            observed = counts.get(kind.value, 0)
            expected = probability * total
            if expected <= 0.0:
                if observed:
                    chi_square = float("inf")
                    break
                continue
            chi_square += (observed - expected) ** 2 / expected
    return BatchSummary(
        mode=mode,
        trials=total,
        counts=counts,
        frequencies=frequencies,
        mean_fidelity=fidelity_sum / fidelity_count if fidelity_count else None,
        min_fidelity=fidelity_min if fidelity_count else None,
        success_rate=successes / total,
        chi_square=chi_square,
    )


_CONFIG_KEYS = (
    "mode", "trials", "master_seed", *EFFICIENCY_KNOBS, "input", "output",
)


def parse_input(text: str) -> UnknownState | None:
    """Parse ``haar-random`` (None) or ``fixed:a,b`` with complex amplitudes."""
    if text == "haar-random":
        return None
    if not text.startswith("fixed:"):
        raise ValueError("input must be 'haar-random' or 'fixed:a,b'")
    value = text[len("fixed:"):]
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 2:
        raise ValueError("fixed input needs two comma-separated amplitudes")
    try:
        a, b = (complex(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse input amplitudes {value!r}")
    total = abs(a) ** 2 + abs(b) ** 2
    if not abs(total - 1.0) <= 1e-9:  # NaN fails this too
        raise ValueError(f"input not normalized (|a|^2+|b|^2 = {total:.12g})")
    return UnknownState.normalized(a, b)


def parse_config(text: str) -> RunConfig:
    """Parse a flat ``key=value`` config ('#' starts a comment).

    Recognized keys: mode, trials, master_seed, one per
    :class:`EfficiencyConfig` field, input (see :func:`parse_input`), output.
    Errors carry the offending line number and key.
    """
    mode: Mode | None = None
    values: dict[str, object] = {}
    efficiency_kwargs: dict[str, float] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {line_no}: unknown key {key!r}")
        if key == "mode":
            try:
                mode = Mode(value)
            except ValueError:
                raise ValueError(f"line {line_no}: unknown mode {value!r}")
        elif key == "trials":
            try:
                trials = int(value)
            except ValueError:
                raise ValueError(f"line {line_no}: trials must be an integer")
            if trials < 1:
                raise ValueError(f"line {line_no}: trials must be >= 1")
            values["trials"] = trials
        elif key == "master_seed":
            try:
                master_seed = int(value)
            except ValueError:
                raise ValueError(f"line {line_no}: master_seed must be an integer")
            if not 0 <= master_seed <= MASTER_SEED_MAX:
                raise ValueError(f"line {line_no}: master_seed must fit in 64 bits")
            values["master_seed"] = master_seed
        elif key in EFFICIENCY_KNOBS:
            try:
                number = float(value)
            except ValueError:
                raise ValueError(f"line {line_no}: {key} must be a number")
            if not 0.0 <= number <= 1.0:
                raise ValueError(f"line {line_no}: {key} must lie in [0, 1]")
            efficiency_kwargs[key] = number
        elif key == "input":
            try:
                values["fixed_input"] = parse_input(value)
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}")
        elif key == "output":
            values["output_path"] = value
    if mode is None:
        raise ValueError("config must set mode")
    return RunConfig(
        mode=mode, efficiency=EfficiencyConfig(**efficiency_kwargs), **values
    )
