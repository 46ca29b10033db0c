"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import os
import time

import pytest

from bellcast import harness

from perfbench import bench, checks
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

# Small batches, so that the tests run in seconds.
TINY = bench.Plan(batch_trials=300, latency_trials=20, latency_batches=30)


def _last_line(result: bench.Result) -> dict:
    return json.loads(bench.report(result).splitlines()[-1])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Tiny timed runs of every workload, and two traced runs of each."""
    out = {}
    for name, workload in WORKLOADS.items():
        out_dir = str(tmp_path_factory.mktemp(name))
        runner = bench.Runner(workload, 3, out_dir, TINY)
        out[name, 0] = _last_line(bench.timed_run(runner, 0.3))
        for repeat in (1, 2):
            runner = bench.Runner(workload, 3, out_dir, TINY)
            out[name, repeat] = _last_line(bench.traced_run(runner))
    return out


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_named_metric_with_its_unit(runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = runs[workload, trace]
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert all(m["value"] > 0 for m in runs[workload, 0]["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_calls_per_trial_repeat_exactly(runs, workload):
    first, second = (runs[workload, r]["metrics"] for r in (1, 2))
    counts = [name for name in first if name.endswith("calls_per_trial")]
    assert counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name


def test_rng_and_seed_counts_per_workload(runs):
    def value(workload, name):
        return runs[workload, 1]["metrics"][name]["value"]

    rng = "rng.default_rng.calls_per_trial"
    seeds = "harness.derive_seed.calls_per_trial"
    lines = "harness.record_to_line.calls_per_trial"
    assert [value(w, rng) for w in WORKLOADS] == [2.0, 1.0, 1.0]
    assert [value(w, seeds) for w in WORKLOADS] == [3.0, 2.0, 2.0]
    assert [value(w, lines) for w in WORKLOADS] == [1.0, 1.0, 0.0]
    physics = value("photon-lossy-records", "photonic.physics_ratio")
    assert 0.8 < physics < 1.0


def test_corrupted_summary_counts_in_failed_frac(monkeypatch, tmp_path):
    workload = WORKLOADS["swap-inmemory"]
    corrupt_seed = harness.derive_seed(5, 1)
    run_batch = harness.run_batch

    def corrupting(cfg):
        summary = run_batch(cfg)
        if cfg.master_seed == corrupt_seed:
            return dataclasses.replace(summary, min_fidelity=0.5)
        return summary

    monkeypatch.setattr(harness, "run_batch", corrupting)
    result = bench.timed_run(bench.Runner(workload, 5, str(tmp_path), TINY), 0.3)
    assert result.attempted >= TINY.latency_batches + bench.MIN_BATCHES
    assert result.failed == 1
    assert result.failed_frac == 1 / result.attempted
    line = _last_line(result)
    assert line["correct"] is False and line["failed"] == 1


def test_photon_chi_square_check_catches_skewed_counts(tmp_path):
    plan = bench.Plan(batch_trials=250)
    runner = bench.Runner(WORKLOADS["photon-lossy-records"], 1, str(tmp_path), plan)
    batch = runner.run(0)
    assert checks.summary_failures(batch.summary, batch.trials, runner.analytic) == []
    counts = dict(batch.summary.counts)
    counts["D1"], counts["NONE"] = counts["D1"] + 150, counts["NONE"] - 150
    skewed = harness.summarize(
        [{"event": k, "outcome": None, "fidelity": None} for k, n in counts.items() for _ in range(n)],
        mode=harness.Mode.PHOTON,
        analytic=runner.analytic,
    )
    assert any("chi_square" in f for f in checks.summary_failures(skewed, batch.trials, runner.analytic))


def test_cli_flag_that_changes_the_batch_is_caught(tmp_path):
    photon = WORKLOADS["photon-lossy-records"]
    flags = list(photon.cli_flags)
    flags[flags.index("--eta-abs") + 1] = "0.85"
    for workload in (photon, dataclasses.replace(photon, cli_flags=tuple(flags))):
        runner = bench.Runner(workload, 2, str(tmp_path), TINY)
        cli = runner.fresh_run(TINY.batch_trials)
        cli_file = checks.file_sha256(workload.output_path(str(tmp_path)))
        runner.warm_up()
        problems = runner.cli_mismatches(cli, cli_file)
        assert bool(problems) == (workload is not photon), problems


def test_peak_rss_moves_past_its_bound_when_the_records_held_double(tmp_path):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "peak_rss_mb")
    runner = bench.Runner(WORKLOADS["swap-inmemory"], 1, str(tmp_path))
    trials = runner.plan.batch_trials
    single, double = (runner.fresh_run(n)["peak_rss_mb"] for n in (trials, 2 * trials))
    assert double > single * (1 + bound)


def test_self_times_sum_to_the_root_span():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.002), "leaf")

    def produce():
        for _ in range(3):
            leaf()
            yield 1

    items = tracer.wrap_generator(produce, "items")

    def consume():
        time.sleep(0.001)
        return sum(items())

    root = tracer.wrap(consume, "root")
    assert root() == 3
    by_name = tracer.self_times(0, tracer.span_count)
    root_s = tracer.span_end[0] - tracer.span_start[0]
    assert by_name.sum() == pytest.approx(root_s, rel=1e-9)
    assert by_name[tracer.name_id("leaf")] >= 0.006
    assert by_name[tracer.name_id("root")] >= 0.001
    # One call of the generator, resumed four times, each leaf inside a resume.
    assert tracer.calls[tracer.name_id("items")] == 1
    assert tracer.distinct_parents("leaf") == 3
