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

Physics: each chunk makes one call to its mode's batched kernel (see
:mod:`bellcast.teleport`) on inputs from one ``haar_rows`` call; the
one-trial entry points are its one-row calls, bit-identical row for row.

Columns: a chunk stays numpy columns (seeds, codes, fidelities, inputs)
from the kernel to the summary's running totals, and whether a trial has a
fidelity comes from its code.  ``run_batch`` writes its lines in one write,
filled by one ``%`` into the chunk's template (its codes' line templates,
joined); only that text and ``iter_records``, which builds the same records
as dicts, turn columns into Python objects.  ``summarize`` feeds dicts to
the same totals a block at a time.

Record schema (one JSON object per line, keys in this order):

    trial, seed, outcome, message_bits, fidelity, event*, a_re, a_im, b_re, b_im

``event`` appears in photon mode only.  ``outcome`` / ``message_bits`` are
null when the trial identified nothing, ``fidelity`` only in photon mode,
and the input amplitude fields are null in swap mode, which has no
single-qubit input.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import enum
import errno
import itertools
import json
import operator
import os
import time
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .observables import MEASUREMENT_ORDER, BellOutcome
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
from .qcore import fidelity  # noqa: F401 - perfbench's tracer looks it up here
from .stream import derive_seeds, uniforms
from .teleport import (
    BASELINE_DRAWS,
    HAAR_DRAWS,
    SWAP_DRAWS,
    TRIAL_DRAWS,
    ClassicalMessage,
    UnknownState,
    baseline_rows,
    haar_rows,
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


def master_seed_from(value, name: str) -> int:
    """``value`` (an integer, or a string to parse) as a master seed.  Errors
    name ``name``, where the value came from, and show the value as given."""
    try:
        seed = int(value) if isinstance(value, str) else operator.index(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not 0 <= seed <= MASTER_SEED_MAX:
        raise ValueError(f"{name} must fit in 64 bits, got {value!r}")
    return seed


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
        try:
            trials = operator.index(self.trials)
        except TypeError:
            message = f"trials must be an integer, got {self.trials!r}"
            raise ValueError(message) from None
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        object.__setattr__(self, "trials", trials)
        seed = master_seed_from(self.master_seed, "master_seed")
        object.__setattr__(self, "master_seed", seed)


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
        """The fields in order, with the mode's value and sorted tables."""
        return {
            **dataclasses.asdict(self),
            "mode": self.mode.value,
            "counts": dict(sorted(self.counts.items())),
            "frequencies": dict(sorted(self.frequencies.items())),
        }


_MESSAGE_BITS = {
    outcome: ClassicalMessage.from_outcome(outcome).as_string()
    for outcome in BellOutcome
}
_NO_AMPLITUDES = (None, None, None, None)

_PROTOCOL_DRAWS = {
    Mode.SPIN: TRIAL_DRAWS,
    Mode.BASELINE: BASELINE_DRAWS,
    Mode.SWAP: SWAP_DRAWS,
    Mode.PHOTON: CASCADE_DRAWS,
}

# Per mode, the wire (outcome, message_bits, event) of each code its kernel
# returns: the measurement outcome index (spin, swap), whether the trial was
# identified (baseline), or the cascade event code (photon).
_OUTCOME_WIRE = [(o.value, _MESSAGE_BITS[o], None) for o in MEASUREMENT_ORDER]
_WIRE = {
    Mode.SPIN: _OUTCOME_WIRE,
    Mode.SWAP: _OUTCOME_WIRE,
    Mode.BASELINE: [
        (None, None, None),
        (BellOutcome.PSI_MINUS.value, _MESSAGE_BITS[BellOutcome.PSI_MINUS], None),
    ],
    Mode.PHOTON: [
        (branch.value, _MESSAGE_BITS[branch.bell_analog], kind.value)
        if (branch := EVENT_ORIGINAL_BRANCH.get(kind))
        else (None, None, kind.value)
        for kind in CascadeEventKind
    ],
}
_IDENTIFYING_WIRE = frozenset(kind.value for kind in IDENTIFYING_EVENTS)
# Per mode and code, whether the trial has a fidelity (not photon's misses).
_HAS_FIDELITY = {
    mode: np.array([mode != Mode.PHOTON or e in _IDENTIFYING_WIRE for *_, e in wire])
    for mode, wire in _WIRE.items()
}
# Per mode and code, the value of the field the summary counts by.
_COUNTED = {
    mode: [event if mode is Mode.PHOTON else outcome for outcome, _, event in wire]
    for mode, wire in _WIRE.items()
}
# Per mode and code, its record line up to the amplitudes, with everything
# the code decides pre-encoded; each trial fills in its index, seed and
# fidelity text, and its amplitudes unless the chunk shares one text for
# them.  Ints are ``str`` and floats ``repr``, as ``json.dumps`` writes them.
_LINE_HEADS = {
    mode: [
        f'{{"trial":%d,"seed":%d,"outcome":{json.dumps(outcome)},'
        f'"message_bits":{json.dumps(bits)},"fidelity":%s'
        + ("" if event is None else f',"event":{json.dumps(event)}')
        for outcome, bits, event in wire
    ]
    for mode, wire in _WIRE.items()
}
_AMPLITUDES = ',"a_re":%r,"a_im":%r,"b_re":%r,"b_im":%r'


class _Chunk(NamedTuple):
    """A chunk of a batch as numpy columns in trial order: ``uint64`` seeds,
    ``intp`` codes indexing the mode's ``_WIRE`` table, ``float64``
    fidelities, of which ``present`` holds the rows whose code has one, and
    inputs (None in swap mode)."""

    start: int
    seeds: np.ndarray
    codes: np.ndarray
    fidelities: np.ndarray
    present: np.ndarray
    inputs: np.ndarray | None


def _columns(cfg: RunConfig) -> Iterator[_Chunk]:
    """The batch's chunks, ``CHUNK_TRIALS`` trials each: their seeds, draws
    and inputs in bulk, then one call to the mode's kernel."""
    has = _HAS_FIDELITY[cfg.mode]
    for start in range(0, cfg.trials, CHUNK_TRIALS):
        stop = min(start + CHUNK_TRIALS, cfg.trials)
        indices = np.arange(start, stop, dtype=np.uint64)
        base_seeds = derive_seeds(cfg.master_seed, indices)
        if cfg.mode is Mode.SWAP:
            inputs = None
        elif cfg.fixed_input is None:
            inputs = haar_rows(uniforms(derive_seeds(base_seeds, 0), HAAR_DRAWS))
        else:
            amplitudes = cfg.fixed_input.state_vector().amplitudes
            inputs = np.tile(amplitudes, (stop - start, 1))
        draws = uniforms(derive_seeds(base_seeds, 1), _PROTOCOL_DRAWS[cfg.mode])
        # Each kernel returns its codes first and its fidelities last.
        if cfg.mode is Mode.SPIN:
            result = teleport_rows(inputs, draws)
        elif cfg.mode is Mode.BASELINE:
            result = baseline_rows(inputs, draws)
        elif cfg.mode is Mode.SWAP:
            result = swap_rows(draws)
        else:
            result = cascade_rows(inputs, cfg.efficiency, draws)
        codes, fidelities = result[0], result[-1]
        present = fidelities if has.all() else fidelities[has[codes]]
        yield _Chunk(start, base_seeds, codes, fidelities, present, inputs)


def iter_records(cfg: RunConfig) -> Iterator[dict]:
    """Generate the batch's wire records in trial order, built from the same
    chunks of columns as the record file."""
    wire = _WIRE[cfg.mode]
    has = _HAS_FIDELITY[cfg.mode].tolist()
    for chunk in _columns(cfg):
        if chunk.inputs is None:
            amplitudes = itertools.repeat(_NO_AMPLITUDES)
        else:
            amplitudes = chunk.inputs.view(np.float64).tolist()
        rows = zip(
            itertools.count(chunk.start), chunk.seeds.tolist(),
            chunk.codes.tolist(), chunk.fidelities.tolist(), amplitudes,
        )
        for index, seed, code, value, (a_re, a_im, b_re, b_im) in rows:
            outcome, bits, event = wire[code]
            record = dict(
                trial=index, seed=seed, outcome=outcome, message_bits=bits,
                fidelity=value if has[code] else None,
            )
            if event is not None:
                record["event"] = event
            record.update(a_re=a_re, a_im=a_im, b_re=b_re, b_im=b_im)
            yield record


def record_to_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


def _chunk_lines(cfg: RunConfig, chunk: _Chunk) -> str:
    """The chunk's record lines, each ``record_to_line`` of its record plus a
    newline, from one ``%`` of the chunk's line templates, joined.  A
    non-finite float raises ``ValueError``, as ``allow_nan=False`` does."""
    inputs = () if chunk.inputs is None else chunk.inputs
    if not (np.isfinite(chunk.present).all() and np.isfinite(inputs).all()):
        raise ValueError("Out of range float values are not JSON compliant")
    # Present values are finite, so no placeholder matches a key.
    texts = {value: repr(value) for value in set(chunk.present.tolist())}
    columns = [
        range(chunk.start, chunk.start + len(chunk.seeds)),
        chunk.seeds.tolist(),
        map(texts.get, chunk.fidelities.tolist(), itertools.repeat("null")),
    ]
    if chunk.inputs is None:
        amplitudes = _AMPLITUDES.replace("%r", "null")
    elif cfg.fixed_input is not None:  # every row holds the same input
        amplitudes = _AMPLITUDES % tuple(chunk.inputs[0].view(np.float64).tolist())
    else:
        amplitudes = _AMPLITUDES
        columns += chunk.inputs.view(np.float64).T.tolist()
    lines = [head + amplitudes + "}\n" for head in _LINE_HEADS[cfg.mode]]
    template = "".join(map(lines.__getitem__, chunk.codes.tolist()))
    return template % tuple(itertools.chain.from_iterable(zip(*columns)))


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


def run_batch(cfg: RunConfig) -> BatchSummary:
    """Run the batch one chunk of columns at a time: each chunk's lines go
    to ``cfg.output_path``, when set, in one write, and its codes and
    fidelities to the summary's running totals."""
    start = time.perf_counter()
    analytic = None
    if cfg.mode is Mode.PHOTON:
        reference_input = cfg.fixed_input or UnknownState(1.0, 0.0)
        analytic = analytic_distribution(reference_input, cfg.efficiency)
    tally = _Tally(cfg.mode)
    counted = _COUNTED[cfg.mode]
    output = contextlib.nullcontext()
    if cfg.output_path is not None:
        output = atomic_writer(cfg.output_path)
    with output as handle:
        for chunk in _columns(cfg):
            if handle is not None:
                handle.write(_chunk_lines(cfg, chunk))
            counts = np.bincount(chunk.codes, minlength=len(counted)).tolist()
            tally.add(zip(counted, counts), chunk.present)
    summary = tally.summary(analytic)
    return dataclasses.replace(summary, duration_seconds=time.perf_counter() - start)


_DECODER = json.JSONDecoder()


def load_records(path: str) -> Iterator[dict]:
    """Yield wire records back from a JSON-lines file.

    Each non-blank line must hold exactly one JSON value; anything else
    raises ``ValueError`` naming the path and the 1-based line number.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _DECODER.raw_decode(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path!r} line {line_no}: {exc.msg} at char {exc.pos}"
                ) from None
            if end != len(line):
                raise ValueError(f"{path!r} line {line_no}: extra data at char {end}")
            yield record


class _Tally:
    """The running totals behind a :class:`BatchSummary`, fed one block of
    trials at a time, in constant memory.

    Counting key: the event string in photon mode, else the outcome string
    (missing outcomes count under "none").  Mean/min fidelity cover only the
    trials that carry one; the sum runs in trial order, carried from block to
    block.  Success means fidelity at the recovery threshold for spin/swap,
    an identified trial for baseline, and a detected branch-identifying
    event for photon mode.
    """

    def __init__(self, mode: Mode) -> None:
        self.mode = mode
        self.counts: dict[str, int] = {}
        self.total = 0
        self.successes = 0
        self.fidelity_count = 0
        self.fidelity_sum = 0.0
        self.fidelity_min = float("inf")

    def add(
        self, counted: Iterable[tuple[str | None, int]], fidelities: np.ndarray
    ) -> None:
        """Add a block: ``(value, count)`` pairs of the field the key comes
        from (``event`` in photon mode, else ``outcome``), and the fidelities
        of the block's trials that have one, in trial order."""
        for value, count in counted:
            if not count:
                continue
            if self.mode is Mode.PHOTON:
                key, success = value, value in _IDENTIFYING_WIRE
            else:
                key = value or "none"
                success = self.mode is Mode.BASELINE and value is not None
            self.counts[key] = self.counts.get(key, 0) + count
            self.successes += count if success else 0
            self.total += count
        if not fidelities.size:
            return
        values = np.concatenate(([self.fidelity_sum], fidelities))
        # np.add.accumulate adds left to right, as a loop would; np.sum is
        # pairwise and would change the last bits of the mean.
        self.fidelity_sum = float(np.add.accumulate(values)[-1])
        self.fidelity_count += fidelities.size
        self.fidelity_min = min(self.fidelity_min, float(fidelities.min()))
        if self.mode in (Mode.SPIN, Mode.SWAP):
            self.successes += int(np.count_nonzero(fidelities >= SUCCESS_FIDELITY))

    def summary(
        self, analytic: dict[CascadeEventKind, float] | None
    ) -> BatchSummary:
        if self.total == 0:
            raise ValueError("cannot summarize an empty record stream")
        chi_square = None
        if analytic is not None:
            chi_square = 0.0
            for kind, probability in analytic.items():
                observed = self.counts.get(kind.value, 0)
                expected = probability * self.total
                if expected <= 0.0:
                    if observed:
                        chi_square = float("inf")
                        break
                    continue
                chi_square += (observed - expected) ** 2 / expected
        has_fidelity = self.fidelity_count > 0
        return BatchSummary(
            mode=self.mode,
            trials=self.total,
            counts=self.counts,
            frequencies={key: n / self.total for key, n in self.counts.items()},
            mean_fidelity=(
                self.fidelity_sum / self.fidelity_count if has_fidelity else None
            ),
            min_fidelity=self.fidelity_min if has_fidelity else None,
            success_rate=self.successes / self.total,
            chi_square=chi_square,
        )


def summarize(
    records: Iterable[dict],
    mode: Mode,
    analytic: dict[CascadeEventKind, float] | None = None,
) -> BatchSummary:
    """Aggregate a stream of wire records in one pass, in constant memory,
    through the running totals a batch keeps (see ``_Tally``).

    Only each record's ``fidelity`` and its ``event`` (photon mode) or
    ``outcome`` (other modes) are read.
    """
    tally = _Tally(mode)
    field = "event" if mode is Mode.PHOTON else "outcome"
    records = iter(records)
    while block := list(itertools.islice(records, CHUNK_TRIALS)):
        values = [record["fidelity"] for record in block]
        tally.add(
            collections.Counter([record[field] for record in block]).items(),
            np.array([value for value in values if value is not None], float),
        )
    return tally.summary(analytic)


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
    message = f"cannot parse input amplitudes {value!r}"
    a, b = (_parsed(complex, p, message) for p in parts)
    total = abs(a) ** 2 + abs(b) ** 2
    if not abs(total - 1.0) <= 1e-9:  # NaN fails this too
        raise ValueError(f"input not normalized (|a|^2+|b|^2 = {total:.12g})")
    return UnknownState.normalized(a, b)


def _parsed(kind: type, value: str, message: str):
    """``kind(value)``, or a ValueError that reads ``message``."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(message) from None


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
        key, sep, value = (part.strip() for part in line.partition("="))
        try:
            if not sep:
                raise ValueError(f"expected key=value, got {raw.strip()!r}")
            if key == "mode":
                mode = _parsed(Mode, value, f"unknown mode {value!r}")
            elif key == "trials":
                values["trials"] = _parsed(int, value, "trials must be an integer")
                if values["trials"] < 1:
                    raise ValueError("trials must be >= 1")
            elif key == "master_seed":
                values["master_seed"] = master_seed_from(value, key)
            elif key in EFFICIENCY_KNOBS:
                number = _parsed(float, value, f"{key} must be a number")
                EfficiencyConfig(**{key: number})  # the knob's range check
                efficiency_kwargs[key] = number
            elif key == "input":
                values["fixed_input"] = parse_input(value)
            elif key == "output":
                values["output_path"] = value
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    if mode is None:
        raise ValueError("config must set mode")
    return RunConfig(
        mode=mode, efficiency=EfficiencyConfig(**efficiency_kwargs), **values
    )
