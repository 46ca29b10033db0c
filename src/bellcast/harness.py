"""Monte Carlo batch runner with reproducible seeding and JSON-lines output.

Seeding: each trial derives a 64-bit base seed from the master seed and the
trial index with a splitmix-style mix (constants 0x9E3779B97F4A7C15,
0xBF58476D1CE4E5B9, 0x94D049BB133111EB).  The base seed is mixed again with
stream tags 0 and 1 to give independent input-sampling and protocol seeds,
so identical configs reproduce byte-identical record streams.  A trial's
draws are the first uniforms of ``np.random.default_rng(seed)`` for each of
those seeds.  Batches compute seeds and draws in bulk, a chunk of
``CHUNK_TRIALS[mode]`` trials at a time (:mod:`bellcast.stream`),
bit-identical to building one generator per trial, so a record's ``seed``
still replays it alone and no output depends on the chunk size.  A Haar
chunk draws both streams in one ``uniforms`` call.

Modes: what each mode is lives in one spec, ``MODE_SPECS[mode]`` (see
``ModeSpec``): its draw count, kernel call, whether it takes an input, the
wire of each code, the record field its summary counts by, its success rule,
its oracle and what its chunks share.  Everything else reads the spec and
never branches on the mode; only ``CHUNK_TRIALS``, the chunk sizes, is a
table of its own.

Physics: each chunk makes one call to its mode's batched kernel (see
:mod:`bellcast.teleport`), through the spec's ``kernel``, which looks the
kernel up by name in this module when the chunk runs.  It passes one draw
row per trial, and either one input row per trial, from one ``haar_rows``
call, or the fixed input as one row that every trial shares; the one-trial
entry points are its one-row calls, bit-identical row for row.  Spin and
swap share one kernel, ``teleport_rows``; swap takes no input, so its call
passes the singlet row ``teleport.SWAP_INPUT``, and its records write null
amplitudes.  A shared row is one state for every trial: a fixed-input spin
batch and every swap batch finish its four outcomes once per batch, in the
``teleport.OutcomeTable`` that ``_columns`` builds through the spec's
``shared`` and hands to every chunk, which only picks each trial's outcome
from it.  A fixed-input photon chunk walks the state tree that earlier
chunks and batches of its input and ``eta_abs`` left in the kernel's cache
in this process, so it computes only what none of them reached
(``photonic.cascade_rows``).

Columns: a chunk stays numpy columns (seeds, codes, fidelities, inputs)
from the kernel to the summary's running totals, and whether a trial has a
fidelity comes from its code, through the spec.  ``_chunk_lines`` is the one
record encoder: one ``%`` fills the chunk's template (the spec's line heads
of its codes, joined).
Float text is ``repr``'s, as ``json.dumps`` writes it.  A Haar chunk's
``a_re``, ``b_re`` and ``b_im`` columns get theirs from one
``floattext.reprs`` call, and its ``a_im`` is the literal ``0.0``, since
``haar_rows`` sets the first amplitude from a real cosine.  Text the chunk
shares among trials, its distinct fidelities and a fixed input's four
amplitudes, comes from ``repr`` itself.  ``run_batch`` writes the chunk's
text in one write, and ``iter_records`` yields its lines decoded; nothing
else turns columns into Python objects.  ``summarize`` feeds dicts to the
same totals a block at a time.

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
import math
import operator
import os
import reprlib
import struct
import sys
import time
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .floattext import reprs
from .observables import MEASUREMENT_ORDER, BellOutcome
from .photonic import (
    CASCADE_DRAWS,
    EFFICIENCY_KNOBS,
    EVENT_ORIGINAL_BRANCH,
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
    SWAP_INPUT,
    TRIAL_DRAWS,
    ClassicalMessage,
    UnknownState,
    baseline_rows,
    checked_input,
    haar_rows,
    haar_random_input,  # noqa: F401 - perfbench's tracer looks it up here
    outcome_table,
    run_entangled_input,  # noqa: F401 - perfbench's tracer looks it up here
    run_trial,  # noqa: F401 - perfbench's tracer looks it up here
    teleport_rows,
)

MASTER_SEED_MAX = (1 << 64) - 1

SUCCESS_FIDELITY = 1.0 - 1e-10
SEED_ENV_VAR = "BELLCAST_SEED"

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
        for name, kinds in (("mode", (Mode,)), ("efficiency", (EfficiencyConfig,)),
                            ("fixed_input", (UnknownState, type(None)))):
            value = getattr(self, name)
            if not isinstance(value, kinds):
                expected = " or ".join(kind.__name__ for kind in kinds)
                raise ValueError(f"{name} must be {expected}, got {value!r}")
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

# Per mode, the trials whose seeds, draws and physics are computed in one
# bulk call, and the records ``summarize`` reads per block.  No output
# depends on it.  Each chunk pays fixed costs, its ``uniforms`` and
# ``floattext.reprs`` calls among them, that a wider chunk spreads over more
# trials, and peak memory bounds it: the kernel and the encoder each hold
# about 1.1 KB per trial at their peaks.  Spin gains most from a wider
# chunk, and its size keeps well inside the benchmark's peak-RSS bound.
# Baseline's gain at 2048 costs nearly that whole bound, and photon's is
# unresolved, so both stay at 1024 (measurements: ROADMAP, Baseline).
# A swap chunk picks each draw's outcome from its batch's outcome table of
# the singlet row, so its arrays stay small, and a 4096-trial chunk spreads
# the fixed cost of each numpy call over four times the trials.
CHUNK_TRIALS = {
    Mode.SPIN: 1536,
    Mode.PHOTON: 1024,
    Mode.BASELINE: 1024,
    Mode.SWAP: 4096,
}


class ModeSpec(NamedTuple):
    """What a mode is, the one per-mode table of the harness (``MODE_SPECS``).

    ``draws``: the protocol draws per trial.  ``kernel(cfg, inputs, draws,
    shared)``: the mode's kernel call, codes first and fidelities last; it
    looks the kernel up by name when a chunk runs.  ``takes_input``: False
    for swap, which teleports the singlet row ``SWAP_INPUT``.  ``field``:
    the record field the summary counts by.  ``oracle(cfg)``: the analytic
    event table the chi-square is taken against, or None.
    ``shared(cfg, inputs)``: what the chunks of a batch share, built once
    per batch by ``_columns`` from the batch's input row (None for Haar and
    swap), handed to each chunk's kernel call and dropped with the batch;
    or None, for a mode whose chunks share nothing.  Spin and swap build a
    shared row's ``teleport.OutcomeTable`` there, once per batch, so each
    chunk only picks its trials' outcomes; a Haar spin batch has no table.
    The rest is derived from the mode's wire by ``_spec``, once, per code
    its kernel returns: the value of ``field`` that is counted, whether the
    trial has a fidelity, and the record line up to the amplitudes, with all
    the code decides pre-encoded; each trial fills in its index, seed and
    fidelity text.
    ``success_keys`` are the counted keys that are successes, or None when
    success is a fidelity at ``SUCCESS_FIDELITY``."""

    draws: int
    kernel: Callable
    takes_input: bool
    field: str
    oracle: Callable | None
    shared: Callable | None
    counted: list
    has_fidelity: np.ndarray
    success_keys: frozenset | None
    line_heads: list


def _spec(draws, kernel, wire, *, takes_input=True, field="outcome",
          by_fidelity=False, oracle=None, shared=None) -> ModeSpec:
    """A mode's spec from the wire (outcome, message_bits, event) of each
    code.  A code has a fidelity unless it is an event that identified
    nothing (a photon miss).  Unless success goes ``by_fidelity``, the
    successes are the counted keys whose wire carries an outcome (a
    certified trial, a branch-identifying event).  Ints are ``str`` and
    floats ``repr`` in the line heads, as ``json.dumps`` writes them."""
    counted = [event if field == "event" else outcome for outcome, _, event in wire]
    heads = [
        f'{{"trial":%d,"seed":%d,"outcome":{json.dumps(outcome)},'
        f'"message_bits":{json.dumps(bits)},"fidelity":%s'
        + ("" if event is None else f',"event":{json.dumps(event)}')
        for outcome, bits, event in wire
    ]
    has = np.array([outcome is not None or event is None for outcome, _, event in wire])
    successes = frozenset(key for key, (outcome, *_) in zip(counted, wire) if outcome)
    return ModeSpec(draws, kernel, takes_input, field, oracle, shared, counted,
                    has, None if by_fidelity else successes, heads)


# Spin and swap codes are the measurement outcome's index, baseline's
# whether the trial was identified, and photon's the cascade event.
_OUTCOME_WIRE = [(o.value, _MESSAGE_BITS[o], None) for o in MEASUREMENT_ORDER]
_CERTIFIED = BellOutcome.PSI_MINUS
MODE_SPECS: dict[Mode, ModeSpec] = {
    Mode.SPIN: _spec(
        TRIAL_DRAWS,
        lambda cfg, x, d, t: teleport_rows(x, d) if t is None else teleport_rows(x, d, t),
        _OUTCOME_WIRE, by_fidelity=True,
        shared=lambda cfg, x: None if x is None else outcome_table(x),
    ),
    Mode.PHOTON: _spec(
        CASCADE_DRAWS,
        lambda cfg, x, d, _: cascade_rows(x, cfg.efficiency, d),
        [
            (branch.value, _MESSAGE_BITS[branch.bell_analog], kind.value)
            if (branch := EVENT_ORIGINAL_BRANCH.get(kind))
            else (None, None, kind.value)
            for kind in CascadeEventKind
        ],
        field="event",
        oracle=lambda cfg: analytic_distribution(
            cfg.fixed_input or UnknownState(1.0, 0.0), cfg.efficiency
        ),
    ),
    Mode.BASELINE: _spec(
        BASELINE_DRAWS, lambda cfg, x, d, _: baseline_rows(x, d),
        [(None, None, None), (_CERTIFIED.value, _MESSAGE_BITS[_CERTIFIED], None)],
    ),
    Mode.SWAP: _spec(
        TRIAL_DRAWS, lambda cfg, x, d, t: teleport_rows(SWAP_INPUT, d, t), _OUTCOME_WIRE,
        takes_input=False, by_fidelity=True,
        shared=lambda cfg, x: outcome_table(SWAP_INPUT),
    ),
}
# Filled once per chunk: with null (swap), a fixed input's text, or, for
# Haar rows, placeholders for each trial's a_re, b_re and b_im around the
# a_im literal.
_AMPLITUDES = ',"a_re":%s,"a_im":%s,"b_re":%s,"b_im":%s'


class _Chunk(NamedTuple):
    """A chunk of a batch as numpy columns in trial order: ``uint64`` seeds,
    ``intp`` codes indexing the wire of the mode's spec, ``float64``
    fidelities, of which ``present`` holds the rows whose code has one, and
    inputs: a row per trial (Haar), one shared row (fixed) or None (swap)."""

    start: int
    seeds: np.ndarray
    codes: np.ndarray
    fidelities: np.ndarray
    present: np.ndarray
    inputs: np.ndarray | None


def _columns(cfg: RunConfig) -> Iterator[_Chunk]:
    """The batch's chunks, ``CHUNK_TRIALS[cfg.mode]`` trials each.  This
    frame keeps no chunk across a ``yield`` and ``_chunk``'s locals are gone
    when it returns, so a caller that drops each chunk before asking for the
    next holds one chunk at a time.  It holds the batch's ``spec.shared``
    state, built once before the first chunk, until the last."""
    spec, size = MODE_SPECS[cfg.mode], CHUNK_TRIALS[cfg.mode]
    # Swap has no input, and a fixed input is one row that every trial shares.
    fixed = cfg.fixed_input if spec.takes_input else None
    inputs = None if fixed is None else fixed.state_vector().amplitudes[None]
    shared = None if spec.shared is None else spec.shared(cfg, inputs)
    for start in range(0, cfg.trials, size):
        yield _chunk(cfg, spec, start, min(start + size, cfg.trials), inputs, shared)


def _chunk(
    cfg: RunConfig, spec: ModeSpec, start: int, stop: int, inputs, shared
) -> _Chunk:
    """Trials ``start:stop``: their seeds, draws and, unless ``inputs``
    holds the shared row or the mode takes none, Haar inputs in bulk, then
    one call to the mode's kernel, with the batch's ``shared`` state."""
    count = stop - start
    base_seeds = derive_seeds(cfg.master_seed, np.arange(start, stop, dtype=np.uint64))
    if spec.takes_input and inputs is None:
        # Input and protocol draws in one pass over both streams' seeds.
        # A row's first k uniforms are its random(k), so each stream's
        # block starts with its draws.
        seeds = np.concatenate([derive_seeds(base_seeds, tag) for tag in (0, 1)])
        both = uniforms(seeds, max(HAAR_DRAWS, spec.draws))
        inputs = haar_rows(both[:count, :HAAR_DRAWS])
        draws = both[count:, :spec.draws]
    else:
        draws = uniforms(derive_seeds(base_seeds, 1), spec.draws)
    codes, *_, fidelities = spec.kernel(cfg, inputs, draws, shared)
    has = spec.has_fidelity
    present = fidelities if has.all() else fidelities[has[codes]]
    return _Chunk(start, base_seeds, codes, fidelities, present, inputs)


def _interned(pairs: list[tuple[str, object]]) -> dict:
    """A decoded record with interned keys and string values: every record
    shares them, so a reader's lookups and counts compare by identity."""
    return {
        sys.intern(key): sys.intern(value) if type(value) is str else value
        for key, value in pairs
    }


_RECORD_DECODER = json.JSONDecoder(object_pairs_hook=_interned)


def iter_records(cfg: RunConfig) -> Iterator[dict]:
    """Generate the batch's wire records in trial order: the record file's
    lines, decoded.  A non-finite float raises ``ValueError``, as the
    writer does."""
    for chunk in _columns(cfg):
        yield from map(_RECORD_DECODER.decode, _chunk_lines(cfg, chunk).splitlines())


def record_to_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"), allow_nan=False)


def _chunk_lines(cfg: RunConfig, chunk: _Chunk) -> str:
    """The chunk's record lines, each ``record_to_line`` of its record plus a
    newline, from one ``%`` of the chunk's line templates, joined: the one
    record encoder, behind both the record file and ``iter_records``.

    Which text each float gets depends on its column's kind, never on its
    value: ``repr`` of each distinct fidelity and of a fixed input's
    amplitudes, and one ``floattext.reprs`` call over a Haar chunk's
    ``a_re``, ``b_re`` and ``b_im`` columns.  A non-finite float raises
    ``ValueError``, as ``allow_nan=False`` does."""
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
        amplitudes = _AMPLITUDES % (("null",) * 4)
    elif cfg.fixed_input is not None:  # one row, shared by every trial
        fixed = chunk.inputs[0].view(np.float64).tolist()
        amplitudes = _AMPLITUDES % tuple(map(repr, fixed))
    else:  # Haar rows
        amplitudes = _AMPLITUDES % ("%s", "0.0", "%s", "%s")
        haar = reprs(chunk.inputs.view(np.float64).T[[0, 2, 3]])
        size = len(chunk.seeds)
        columns += [haar[:size], haar[size : 2 * size], haar[2 * size :]]
    lines = [head + amplitudes + "}\n" for head in MODE_SPECS[cfg.mode].line_heads]
    template = "".join(map(lines.__getitem__, chunk.codes.tolist()))
    # Trial-major argument list, one column slice at a time: no tuple per trial.
    args = [None] * (len(columns) * len(chunk.seeds))
    for index, column in enumerate(columns):
        args[index :: len(columns)] = column
    return template % tuple(args)


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
    spec = MODE_SPECS[cfg.mode]
    analytic = None if spec.oracle is None else spec.oracle(cfg)
    tally = _Tally(cfg.mode)
    output = contextlib.nullcontext()
    if cfg.output_path is not None:
        output = atomic_writer(cfg.output_path)
    with output as handle:
        for chunk in _columns(cfg):
            if handle is not None:
                handle.write(_chunk_lines(cfg, chunk))
            counts = np.bincount(chunk.codes, minlength=len(spec.counted)).tolist()
            tally.add(zip(spec.counted, counts), chunk.present)
            del chunk  # released before _columns builds the next
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

    Counting key: the spec's ``field``, the event in photon mode, else the
    outcome; a null (or empty) value counts under "none" in every mode.  The
    trial total comes from the counts.  Mean/min fidelity cover only the
    trials that carry one; the sum runs in trial order, carried from block
    to block.  Success follows the spec: fidelity at the recovery threshold
    (spin, swap), counted as the blocks come, or a count of its
    ``success_keys`` (baseline, photon), the keys its kernel writes with an
    outcome (a certified trial, a detected branch-identifying event), so any
    other key, an empty or unknown one included, is never a success.
    """

    def __init__(self, mode: Mode) -> None:
        self.mode = mode
        self.success_keys = MODE_SPECS[mode].success_keys
        self.counts: dict[str, int] = {}
        self.successes = 0  # trials at SUCCESS_FIDELITY
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
            if count:
                key = value or "none"
                self.counts[key] = self.counts.get(key, 0) + count
        if not fidelities.size:
            return
        values = np.concatenate(([self.fidelity_sum], fidelities))
        # np.add.accumulate adds left to right, as a loop would; np.sum is
        # pairwise and would change the last bits of the mean.
        self.fidelity_sum = float(np.add.accumulate(values)[-1])
        self.fidelity_count += fidelities.size
        self.fidelity_min = min(self.fidelity_min, float(fidelities.min()))
        if self.success_keys is None:
            self.successes += int(np.count_nonzero(fidelities >= SUCCESS_FIDELITY))

    def summary(
        self, analytic: dict[CascadeEventKind, float] | None
    ) -> BatchSummary:
        total = sum(self.counts.values())
        if total == 0:
            raise ValueError("cannot summarize an empty record stream")
        successes = self.successes
        if self.success_keys is not None:
            successes = sum(self.counts.get(key, 0) for key in self.success_keys)
        chi_square = None
        if analytic is not None:
            chi_square = 0.0
            for kind, probability in analytic.items():
                observed = self.counts.get(kind.value, 0)
                expected = probability * total
                if expected <= 0.0:
                    if observed:
                        chi_square = float("inf")
                        break
                    continue
                chi_square += (observed - expected) ** 2 / expected
        has_fidelity = self.fidelity_count > 0
        return BatchSummary(
            mode=self.mode,
            trials=total,
            counts=self.counts,
            frequencies={key: n / total for key, n in self.counts.items()},
            mean_fidelity=(
                self.fidelity_sum / self.fidelity_count if has_fidelity else None
            ),
            min_fidelity=self.fidelity_min if has_fidelity else None,
            success_rate=successes / total,
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
    ``outcome`` (other modes) are read.  A record that is not a dict holding
    both, whose fidelity is neither null nor a finite number, or whose
    counted field is neither null nor a string, raises ``ValueError`` naming
    its 1-based position and the field.
    """
    tally = _Tally(mode)
    field = MODE_SPECS[mode].field
    records, seen = iter(records), 0
    while block := list(itertools.islice(records, CHUNK_TRIALS[mode])):
        # Checked a block at a time, in C: packing as doubles takes only real
        # numbers (``np.array`` would parse a string), ``isfinite`` runs over
        # them all, and each distinct label is checked once.
        try:
            values = [record["fidelity"] for record in block]
            labels = collections.Counter([record[field] for record in block])
            present = [value for value in values if value is not None]
            fidelities = np.frombuffer(struct.pack("%dd" % len(present), *present))
        except (KeyError, TypeError, struct.error):
            fidelities = None
        if (
            fidelities is None
            or not np.isfinite(fidelities).all()
            or not all(label is None or type(label) is str for label in labels)
        ):
            raise ValueError(_first_fault(block, seen, field))
        seen += len(block)
        tally.add(labels.items(), fidelities)
    return tally.summary(analytic)


def _finite_number(value) -> bool:
    """Whether ``value`` passes ``summarize``'s block check: it converts to
    a float, as ``struct.pack`` converts it, and the float is finite."""
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _first_fault(block: list, seen: int, field: str) -> str:
    """The message for the block's first malformed record, which follows
    ``seen`` records of the stream: its 1-based position and the field."""
    checks = (
        ("fidelity", _finite_number, "a finite number"),
        (field, lambda value: type(value) is str, "a string"),
    )
    for position, record in enumerate(block, seen + 1):
        for name, valid, kind in checks:
            if not isinstance(record, dict) or name not in record:
                return f"record {position} has no {name!r} field"
            value = record[name]
            if value is not None and not valid(value):
                return (
                    f"record {position} field {name!r} must be null or {kind},"
                    f" got {reprlib.repr(value)}"
                )
    raise AssertionError("the block has no malformed record")


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
    return checked_input(*(_parsed(complex, p, message) for p in parts))


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
    Each key may be set once.  Errors carry the offending line number and key.
    """
    values: dict[str, object] = {}
    efficiency_kwargs: dict[str, float] = {}
    first_lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        try:
            if not sep:
                raise ValueError(f"expected key=value, got {raw.strip()!r}")
            first = first_lines.setdefault(key, line_no)
            if first != line_no:
                raise ValueError(f"duplicate key {key!r} (first set on line {first})")
            if key == "mode":
                values["mode"] = _parsed(Mode, value, f"unknown mode {value!r}")
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
    if "mode" not in values:
        raise ValueError("config must set mode")
    return RunConfig(efficiency=EfficiencyConfig(**efficiency_kwargs), **values)
