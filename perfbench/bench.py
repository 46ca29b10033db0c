"""Batch benchmark for bellcast: timed runs, traced runs and cold starts.

A run takes a workload, a workload seed and a length.  With ``--trace 0`` it
times whole batches for ``--seconds`` seconds and reports the end-to-end
metrics; with ``--trace 1`` it runs a fixed set of batches twice, untraced
and then traced, and reports the per-layer metrics.  Every batch's output is
checked; a batch that fails a check counts in ``failed``.

Throughput, CPU time, replay and memory are measured on batches of
``RunConfig``'s default size, 10^4 trials.  Batch latency (median and tail)
is measured on a fixed number of short batches instead: a 30 s run holds
only about fifteen full-size batches, too few for a tail.

The library is driven only through ``harness.run_batch``,
``harness.load_records``, ``harness.summarize`` (plus ``harness.iter_records``
once per run, to hold the swap workload's records in memory) and, for cold
starts, ``python -m bellcast run-<mode>``.

Batch timings are scaled to a reference machine speed.  A shared 2-vCPU
virtual machine (2 GHz Xeon) was seen to switch between a fast and a slow
state, up to 2x apart, within tens of milliseconds, process CPU time with
it, so raw times from two runs there cannot be compared.  While batches run,
a SIGALRM timer interrupts them every ``SAMPLE_INTERVAL_S`` to time a fixed
reference kernel of the benchmark's own, made of the same kinds of work as
a trial (interpreter loop, tiny numpy calls, generator construction, JSON).
A batch's time ``t``, less the time the samples took, is reported as
``t * mean(SAMPLE_NOMINAL_S / r)`` over the sample times ``r`` taken during
it and within ``SAMPLE_WINDOW_S`` of it.  No change to bellcast can change
the reference kernel.  Raw times are printed beside the scaled ones.  The
vCPUs themselves can differ in speed for minutes, so a run first pins itself
to the one on which the kernel runs fastest.

Cold starts are scaled the same way by a reference cold start of their own,
``python -c "import numpy, json, argparse, dataclasses"``, run between them:
their time follows process start-up and import costs, which the in-process
kernel does not see.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field

import numpy as np

from bellcast import harness
from bellcast.photonic import IDENTIFYING_EVENTS, analytic_distribution

from . import THREAD_VARS, checks
from .tracer import Tracer
from .workloads import WORKLOADS, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "_out")
COLDSTART = os.path.join(ROOT, "perfbench", "coldstart.py")

# The sampled reference kernel: SAMPLE_ROUNDS rounds, about 0.5 ms on a quiet
# 2 GHz Xeon, every SAMPLE_INTERVAL_S of wall time.
SAMPLE_ROUNDS = 25
SAMPLE_NOMINAL_S = 0.0005
SAMPLE_INTERVAL_S = 0.02
# Samples this close to a batch count towards its scale, so that a short
# batch has about ten of them.
SAMPLE_WINDOW_S = 0.1
# Reference kernel runs per CPU when choosing the CPU to run on.
PIN_SAMPLES = 40
REFERENCE_COLD_START = "import numpy, json, argparse, dataclasses"
REFERENCE_COLD_START_NOMINAL_S = 0.2
# Full-size batches a timed run makes even when its time has run out.
MIN_BATCHES = 3
# Short batch ``j`` of a run uses batch index LATENCY_FIRST_INDEX + j, so
# its seed differs from every full-size batch's.
LATENCY_FIRST_INDEX = 1_000_000
SETUP_REPEATS = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
CHILD_TIMEOUT_S = 60
# Largest share of a traced batch's time that may fall outside every span.
SELF_SUM_TOLERANCE = 0.01

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "batch_ms_p50": "ms",
    "batch_ms_tail": "ms",
    "cpu_us_per_trial": "us",
    "replay_records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# (module, attribute, span name): each wrapped where it is looked up.
TRACE_POINTS = (
    ("numpy.random", "default_rng", "rng.default_rng"),
    ("bellcast.harness", "run_batch", "harness.run_batch"),
    ("bellcast.harness", "iter_records", "harness.iter_records"),
    ("bellcast.harness", "record_to_line", "harness.record_to_line"),
    ("bellcast.harness", "summarize", "harness.summarize"),
    ("bellcast.harness", "load_records", "harness.load_records"),
    ("bellcast.harness", "derive_seed", "harness.derive_seed"),
    ("bellcast.harness", "haar_random_input", "teleport.haar_random_input"),
    ("bellcast.harness", "run_trial", "teleport.run_trial"),
    ("bellcast.harness", "run_entangled_input", "teleport.run_entangled_input"),
    ("bellcast.harness", "run_cascade", "photonic.run_cascade"),
    ("bellcast.harness", "analytic_distribution", "photonic.analytic_distribution"),
    ("bellcast.harness", "fidelity", "qcore.fidelity"),
    ("bellcast.teleport", "bell_measure", "observables.bell_measure"),
    ("bellcast.observables", "measure_projective", "qcore.measure_projective"),
    ("bellcast.photonic", "absorption_stage", "photonic.absorption_stage"),
    ("bellcast.photonic", "stage_final", "photonic.stage_final"),
    ("bellcast.photonic", "waveplate", "photonic.waveplate"),
) + tuple(
    (module, fn, f"qcore.{fn}")
    for module in ("bellcast.teleport", "bellcast.photonic")
    for fn in ("tensor", "apply", "contract_with", "fidelity")
)
GENERATOR_SPANS = frozenset({"harness.iter_records", "harness.load_records"})
SIZED_SPANS = {"harness.record_to_line": len}

_CS = ("calls_per_trial", "self_us_per_trial")
# Per-layer metrics read off the spans, as (span name, stats).
SPAN_METRICS = (
    ("harness.derive_seed", _CS),
    ("rng.default_rng", _CS),
    ("harness.iter_records", ("self_us_per_trial",)),
    ("harness.record_to_line", _CS + ("bytes_per_trial",)),
    ("harness.run_batch", ("self_us_per_trial",)),
    ("harness.summarize", ("self_us_per_trial",)),
    ("harness.load_records", ("self_us_per_trial",)),
    ("teleport.haar_random_input", _CS),
    ("teleport.run_trial", _CS),
    ("teleport.run_entangled_input", _CS),
    ("observables.bell_measure", _CS),
    ("qcore.measure_projective", _CS),
    ("qcore.tensor", _CS),
    ("qcore.apply", _CS),
    ("qcore.contract_with", _CS),
    ("qcore.fidelity", _CS),
    ("photonic.run_cascade", _CS),
    ("photonic.absorption_stage", _CS),
    ("photonic.stage_final", _CS),
    ("photonic.waveplate", _CS),
    ("photonic.analytic_distribution", ("self_ms_per_batch",)),
)
STAT_UNITS = {
    "calls_per_trial": "calls/trial",
    "self_us_per_trial": "us/trial",
    "bytes_per_trial": "B/trial",
    "self_ms_per_batch": "ms/batch",
}
OTHER_LAYER_UNITS = {
    "harness.run_batch.peak_alloc_bytes_per_trial": "B/trial",
    "photonic.identified_ratio": "ratio",
    "photonic.physics_ratio": "ratio",
    "setup.import_s": "s",
    "setup.first_batch_s": "s",
    "trace.overhead_ratio": "ratio",
}
PER_LAYER_UNITS = {
    f"{span}.{stat}": STAT_UNITS[stat]
    for span, stats in SPAN_METRICS
    for stat in stats
} | OTHER_LAYER_UNITS



@dataclass(frozen=True)
class Plan:
    """Sizes and counts of the batches a run makes."""

    # Trials per full-size batch: RunConfig's default.
    batch_trials: int = 10_000
    # Short batches for the latency metrics.  150 of them put the tail at
    # p90 with 15 batches beyond it, well clear of the 200 at which it
    # would move to p95.
    latency_trials: int = 250
    latency_batches: int = 150
    # Full-size batches run untraced, then traced, in a traced run.
    traced_batches: int = 2


_REF_A = np.array([0.6, 0.8j])
_REF_B = np.array([0.0, np.sqrt(0.5), -np.sqrt(0.5), 0.0], dtype=np.complex128)


def reference_seconds(rounds: int = SAMPLE_ROUNDS) -> float:
    """Time ``rounds`` rounds of the fixed reference kernel."""
    start = time.perf_counter()
    total = 0.0
    for i in range(rounds):
        amps = np.multiply.outer(_REF_A, _REF_B).ravel()
        total += float(np.vdot(amps, amps).real)
        total += np.random.Generator(np.random.PCG64(i)).random()
        total += len(json.dumps({"i": i, "v": total, "s": None}))
    return time.perf_counter() - start


def pin_to_fastest_cpu() -> dict[int, float]:
    """Pin this process, and the processes it starts, to the CPU on which
    the reference kernel runs fastest.

    On a shared VM the vCPUs can differ in speed for long stretches (one ran
    the kernel 1.75x slower than the other for minutes), and a process that
    the scheduler moves between them changes speed with each move.  Returns
    the kernel's median time on each CPU tried.
    """
    medians = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        medians[cpu] = statistics.median(
            reference_seconds() for _ in range(PIN_SAMPLES)
        )
    os.sched_setaffinity(0, {min(medians, key=medians.get)})
    return medians


class SpeedSampler:
    """Times the reference kernel every ``SAMPLE_INTERVAL_S`` while active.

    The samples run in this thread, from a SIGALRM handler, in the middle of
    whatever bellcast is doing.  ``spent_s`` and ``spent_cpu_s`` add up the
    wall and CPU time they took, so that callers can take it out again.
    """

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._busy = False
        self._previous = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        cpu, start = time.process_time(), time.perf_counter()
        self.took.append(reference_seconds(SAMPLE_ROUNDS))
        self.at.append(start)
        self.spent_s += time.perf_counter() - start
        self.spent_cpu_s += time.process_time() - cpu
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """Mean speed over ``[start, end]``, widened by ``SAMPLE_WINDOW_S``
        each way, relative to the nominal speed; the nearest sample's if no
        sample falls in that range."""
        at = np.frombuffer(self.at)
        took = np.frombuffer(self.took)
        near = (at >= start - SAMPLE_WINDOW_S) & (at <= end + SAMPLE_WINDOW_S)
        if not near.any():
            near = np.argmin(np.abs(at - (start + end) / 2))
        return float(np.mean(SAMPLE_NOMINAL_S / took[near]))


@dataclass
class Batch:
    """One batch's times, less what the speed samples took, and its checks."""

    index: int
    trials: int
    wall_s: float
    cpu_s: float
    replay_s: float
    # Wall time the speed samples took during the batch and its replay.
    sampled_s: float
    failures: list[str]
    summary: harness.BatchSummary
    start: float = 0.0
    end: float = 0.0
    scale: float = 1.0
    spans: tuple[int, int] = (0, 0)


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed_frac(self) -> float:
        return self.failed / max(self.attempted, 1)

    def count(self, batches: list[Batch]) -> None:
        self.attempted += len(batches)
        for batch in batches:
            if batch.failures:
                self.failed += 1
                self.problems += [f"batch {batch.index}: {f}" for f in batch.failures]


class Runner:
    """One run of one workload: its seed, its oracle and its replay source."""

    def __init__(
        self, workload: Workload, seed: int, out_dir: str = OUT_DIR, plan: Plan = Plan()
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.plan = plan
        os.makedirs(out_dir, exist_ok=True)
        reference_seconds()  # the first call pays one-off costs; discard it
        self.analytic = None
        if workload.mode is harness.Mode.PHOTON:
            self.analytic = analytic_distribution(
                workload.fixed_input, workload.efficiency
            )
        self._memory_records: list[dict] | None = None
        self._memory_summary: harness.BatchSummary | None = None
        self._first_summary: harness.BatchSummary | None = None
        self._first_fingerprint: object = None

    def config(self, index: int, trials: int | None = None) -> harness.RunConfig:
        return self.workload.config(
            self.seed, index, trials or self.plan.batch_trials, self.out_dir
        )

    def _fingerprint(self, summary: harness.BatchSummary) -> object:
        path = self.workload.output_path(self.out_dir)
        return checks.file_sha256(path) if path else summary

    def warm_up(self) -> list[str]:
        """Run batch 0 untimed, so caches fill before timing starts.

        Its fingerprint (the record file's SHA-256, or the summary when
        nothing is written) is what timed batch 0 must reproduce.
        """
        cfg = self.config(0)
        summary = harness.run_batch(cfg)
        self._first_summary = summary
        self._first_fingerprint = self._fingerprint(summary)
        failures = checks.summary_failures(summary, cfg.trials, self.analytic)
        if not self.workload.records:
            self._memory_records = list(harness.iter_records(cfg))
            self._memory_summary = summary
            if harness.summarize(self._memory_records, mode=cfg.mode) != summary:
                failures.append("summary of the in-memory records differs")
        # Keep the collector off what exists now (modules, the swap
        # workload's records), so that a full collection costs the same
        # whichever batch it falls in.
        gc.collect()
        gc.freeze()
        return failures

    def cli_mismatches(self, cli: dict, cli_file: str | None) -> list[str]:
        """How the CLI's batch 0 differs from the in-process one (run first
        by :meth:`warm_up`): every field of the printed summary, and the
        record file's SHA-256."""
        problems = []
        if cli["exit_code"] != 0:
            problems.append(f"the CLI exited with {cli['exit_code']}")
            return problems
        printed = json.loads(cli["stdout"])
        expected = checks.as_printed(self._first_summary)
        for obj in (printed, expected):
            obj.pop("duration_seconds", None)
        if printed != expected:
            problems.append(f"the CLI printed {printed}, in process {expected}")
        if self.workload.records and cli_file != self._first_fingerprint:
            problems.append("the CLI wrote another record file than run_batch")
        return problems

    def run(
        self,
        index: int,
        trials: int | None = None,
        replay: bool = True,
        sampler: SpeedSampler | None = None,
    ) -> Batch:
        """Run, check and (if ``replay``) read back batch ``index``."""
        sampler = sampler or SpeedSampler()
        cfg = self.config(index, trials)
        spent0, spent_cpu0 = sampler.spent_s, sampler.spent_cpu_s
        cpu0, wall0 = time.process_time(), time.perf_counter()
        summary = harness.run_batch(cfg)
        wall1, cpu1 = time.perf_counter(), time.process_time()
        spent1, spent_cpu1 = sampler.spent_s, sampler.spent_cpu_s
        replayed = expected = None
        if replay and self.workload.records:
            replayed = harness.summarize(
                harness.load_records(cfg.output_path),
                mode=cfg.mode,
                analytic=self.analytic,
            )
            expected = summary
        elif replay:
            replayed = harness.summarize(self._memory_records, mode=cfg.mode)
            expected = self._memory_summary
        wall2 = time.perf_counter()
        spent2 = sampler.spent_s
        failures = checks.summary_failures(summary, cfg.trials, self.analytic)
        if replayed != expected:
            failures.append("summary recomputed from the records differs")
        if index == 0 and self._fingerprint(summary) != self._first_fingerprint:
            failures.append("repeating the seed changed the output")
        return Batch(
            index,
            cfg.trials,
            wall_s=wall1 - wall0 - (spent1 - spent0),
            cpu_s=cpu1 - cpu0 - (spent_cpu1 - spent_cpu0),
            replay_s=wall2 - wall1 - (spent2 - spent1),
            sampled_s=spent2 - spent0,
            failures=failures,
            summary=summary,
            start=wall0,
            end=wall1,
        )

    def batches(
        self,
        indices,
        trials: int | None = None,
        deadline: float | None = None,
        minimum: int = 0,
        replay: bool = True,
        tracer: Tracer | None = None,
    ) -> list[Batch]:
        """Run batches until ``indices`` run out, or the ``deadline`` does
        once ``minimum`` batches are done, sampling the machine's speed."""
        done = []
        with SpeedSampler() as sampler:
            for index in indices:
                if (
                    deadline is not None
                    and len(done) >= minimum
                    and time.perf_counter() >= deadline
                ):
                    break
                gc.collect()
                mark = tracer.span_count if tracer else 0
                batch = self.run(index, trials, replay, sampler)
                batch.spans = (mark, tracer.span_count if tracer else 0)
                done.append(batch)
        for batch in done:
            batch.scale = sampler.scale(batch.start, batch.end)
        return done

    def _child(self, args: list[str]) -> tuple[float, str]:
        """Run ``args`` in a fresh process; its wall time and stdout."""
        env = dict(os.environ)
        env.pop(harness.SEED_ENV_VAR, None)
        env.update({var: "1" for var in THREAD_VARS})
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        start = time.perf_counter()
        proc = subprocess.run(
            args, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(args)} failed: {proc.stderr.strip()}")
        return wall, proc.stdout

    def fresh_run(self, trials: int) -> dict:
        """Batch 0 with ``trials`` trials through the CLI, in a fresh
        interpreter; what ``coldstart.py`` reports of it."""
        args = self.workload.cli_args(self.seed, 0, trials, self.out_dir)
        return json.loads(self._child([sys.executable, COLDSTART, *args])[1])

    def cold_starts(self, argv_head: list[str]) -> tuple[list[tuple[float, str]], float]:
        """Run ``argv_head`` plus a one-trial batch 0 cold, ``SETUP_REPEATS``
        times.

        Returns (wall seconds, stdout) per run, and the speed scale from the
        reference cold starts run before, between and after them.
        """
        argv = argv_head + self.workload.cli_args(self.seed, 0, 1, self.out_dir)
        reference = [sys.executable, "-c", REFERENCE_COLD_START]
        references = [self._child(reference)[0]]
        runs = []
        for _ in range(SETUP_REPEATS):
            runs.append(self._child(argv))
            references.append(self._child(reference)[0])
        return runs, REFERENCE_COLD_START_NOMINAL_S / statistics.median(references)


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it.

    Falls back to the median when there are fewer than twenty samples.
    """
    n = len(values)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50.0))


def environment(runner: Runner) -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(ROOT),
        "workload": runner.workload.name,
        "seed": runner.seed,
        "plan": dataclasses.asdict(runner.plan),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def git_commit(root: str) -> str:
    """HEAD's commit if ``root`` is a git checkout, else "unknown".

    Git is kept from searching the directories above ``root``: a checkout
    without ``.git`` inside another repository would report that one's HEAD.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def timed_run(runner: Runner, seconds: float) -> Result:
    """End-to-end metrics from batches timed for ``seconds`` seconds."""
    plan = runner.plan
    result = Result(info=environment(runner))
    setup, setup_scale = runner.cold_starts([sys.executable, "-m", "bellcast"])
    # Peak RSS of a fresh interpreter that runs batch 0 through the CLI; the
    # same batch, run in process, must give the same summary and file.
    cli = runner.fresh_run(plan.batch_trials)
    path = runner.workload.output_path(runner.out_dir)
    cli_file = checks.file_sha256(path) if path else None
    result.problems += runner.warm_up()
    result.problems += runner.cli_mismatches(cli, cli_file)

    deadline = time.perf_counter() + seconds
    short = runner.batches(
        range(LATENCY_FIRST_INDEX, LATENCY_FIRST_INDEX + plan.latency_batches),
        plan.latency_trials,
        replay=runner.workload.records,
    )
    batches = runner.batches(
        itertools.count(),
        plan.batch_trials,
        deadline=deadline,
        minimum=MIN_BATCHES,
    )
    result.count(short)
    result.count(batches)

    trials = sum(b.trials for b in batches)
    short_ms = [b.wall_s * b.scale * 1e3 for b in short]
    tail_p, tail_ms = tail_percentile(short_ms)
    metrics = {
        "trials_per_s": statistics.median(
            b.trials / (b.wall_s * b.scale) for b in batches
        ),
        "batch_ms_p50": statistics.median(short_ms),
        "batch_ms_tail": tail_ms,
        "cpu_us_per_trial": statistics.median(
            b.cpu_s * b.scale / b.trials * 1e6 for b in batches
        ),
        "replay_records_per_s": statistics.median(
            b.trials / (b.replay_s * b.scale) for b in batches
        ),
        "peak_rss_mb": cli["peak_rss_mb"],
        "setup_s": statistics.median(wall for wall, _ in setup) * setup_scale,
    }
    result.metrics = {k: (float(v), END_TO_END_UNITS[k]) for k, v in metrics.items()}
    result.info.update(
        batches=len(batches),
        latency_batches=len(short),
        tail_percentile=tail_p,
        tail_samples=len(short),
        raw_trials_per_s=trials / sum(b.wall_s for b in batches),
        raw_batch_ms_p50=statistics.median(b.wall_s * 1e3 for b in short),
        raw_setup_s=statistics.median(wall for wall, _ in setup),
    )
    return result


def install_trace_points(tracer: Tracer) -> None:
    for module, attr, name in TRACE_POINTS:
        tracer.patch(
            module, attr, name,
            generator=name in GENERATOR_SPANS,
            size=SIZED_SPANS.get(name),
        )


def peak_alloc_bytes_per_trial(runner: Runner) -> float:
    """Peak bytes traced by tracemalloc over one untraced batch, per trial."""
    cfg = runner.config(0)
    tracemalloc.start()
    try:
        harness.run_batch(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / cfg.trials


def traced_run(runner: Runner) -> Result:
    """Per-layer metrics from a fixed set of batches, run untraced then traced."""
    result = Result(info=environment(runner))
    result.problems += runner.warm_up()
    indices = range(runner.plan.traced_batches)
    plain = runner.batches(indices)
    tracer = Tracer()
    with tracer:
        install_trace_points(tracer)
        traced = runner.batches(indices, tracer=tracer)

    trials = sum(b.trials for b in traced)
    self_s = np.zeros(len(tracer.names))
    for batch in traced:
        by_name = tracer.self_times(*batch.spans)
        # The speed samples ran inside the spans, spread evenly over time:
        # take each span's share of them out in proportion to its self time.
        net_s = batch.wall_s + batch.replay_s
        gross_s = net_s + batch.sampled_s
        if abs(by_name.sum() - gross_s) > SELF_SUM_TOLERANCE * gross_s:
            batch.failures.append(
                f"self times sum to {by_name.sum():.6f} s, batch took {gross_s:.6f} s"
            )
        self_s += by_name * (net_s / gross_s) * batch.scale
    result.count(plain)
    result.count(traced)

    metrics: dict[str, float] = {}
    for span, stats in SPAN_METRICS:
        i = tracer.name_id(span)
        values = {
            "calls_per_trial": tracer.calls[i] / trials,
            "self_us_per_trial": self_s[i] / trials * 1e6,
            "bytes_per_trial": tracer.sizes[i] / trials,
            "self_ms_per_batch": self_s[i] / len(traced) * 1e3,
        }
        for stat in stats:
            metrics[f"{span}.{stat}"] = values[stat]

    identifying = {kind.value for kind in IDENTIFYING_EVENTS}
    identified = sum(
        n for b in traced for k, n in b.summary.counts.items() if k in identifying
    )
    metrics["photonic.identified_ratio"] = identified / trials
    metrics["photonic.physics_ratio"] = (
        tracer.distinct_parents("photonic.absorption_stage") / trials
    )
    metrics["harness.run_batch.peak_alloc_bytes_per_trial"] = (
        peak_alloc_bytes_per_trial(runner)
    )
    plain_tps = trials / sum(b.wall_s * b.scale for b in plain)
    traced_tps = trials / sum(b.wall_s * b.scale for b in traced)
    metrics["trace.overhead_ratio"] = plain_tps / traced_tps

    splits, setup_scale = runner.cold_starts([sys.executable, COLDSTART])
    parsed = [json.loads(stdout) for _, stdout in splits]
    for part in ("import_s", "first_batch_s"):
        metrics[f"setup.{part}"] = setup_scale * statistics.median(
            p[part] for p in parsed
        )
    if any(p["exit_code"] != 0 for p in parsed):
        result.problems.append("a cold start through the CLI failed")

    result.metrics = {k: (float(metrics[k]), unit) for k, unit in PER_LAYER_UNITS.items()}
    spans_path = os.path.join(runner.out_dir, f"spans-{runner.workload.name}.npz")
    tracer.save(spans_path)
    result.info.update(
        traced_batches=len(traced),
        spans=tracer.span_count,
        spans_file=os.path.relpath(spans_path, ROOT),
    )
    return result


def report(result: Result) -> str:
    """Human-readable lines, then the one-line JSON result last."""
    lines = [f"env {json.dumps(result.info, sort_keys=True)}"]
    lines += [f"problem {p}" for p in result.problems]
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in result.metrics.items()]
    lines.append(f"failed_frac {result.failed_frac!r} ratio")
    lines.append(
        json.dumps(
            {
                "correct": not result.problems and result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    cpu_medians = pin_to_fastest_cpu()
    runner = Runner(WORKLOADS[args.workload], args.seed)
    if args.trace:
        result = traced_run(runner)
    else:
        result = timed_run(runner, args.seconds)
    result.info["cpu_kernel_s"] = cpu_medians
    result.info["cpu"] = sorted(os.sched_getaffinity(0))
    print(report(result))
    return 0
