"""Tests for batch running, record serialization, and config parsing.

The literal seed values and JSON lines below are regression pins: the
record stream is a reproducibility contract, so any byte-level drift in
seed derivation or serialization must fail loudly.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import pathlib
import re
import sys
import tracemalloc

import numpy as np
import pytest

from bellcast import harness
from bellcast.harness import (
    CHUNK_TRIALS,
    BatchSummary,
    Mode,
    RunConfig,
    derive_seed,
    iter_records,
    load_records,
    parse_config,
    record_to_line,
    run_batch,
    summarize,
)
from bellcast.observables import BellOutcome, bell_state
from bellcast.photonic import (
    CascadeEventKind,
    EfficiencyConfig,
    analytic_distribution,
    run_cascade,
)
from bellcast.qcore import fidelity
from bellcast.teleport import (
    UnknownState,
    haar_random_input,
    run_baseline_computational,
    run_entangled_input,
    run_trial,
)

# The digest pins hold on one platform (OpenBLAS kernel and numpy SIMD
# level); a mismatch names the platform it ran on.
_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "digest_platform.py"
_SPEC = importlib.util.spec_from_file_location("digest_platform", _PATH)
digest_platform = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digest_platform)

UP_INPUT = UnknownState(1.0, 0.0)

SPIN_KEYS = [
    "trial", "seed", "outcome", "message_bits", "fidelity",
    "a_re", "a_im", "b_re", "b_im",
]
PHOTON_KEYS = [
    "trial", "seed", "outcome", "message_bits", "fidelity", "event",
    "a_re", "a_im", "b_re", "b_im",
]

# Pinned outputs of the splitmix-style derivation.
KNOWN_SEEDS = {
    (42, 0): 13679457532755275413,
    (42, 1): 2949826092126892291,
    (0, 0): 16294208416658607535,
}

PINNED_SPIN_LINE = (
    '{"trial":0,"seed":13679457532755275413,"outcome":"PsiPlus",'
    '"message_bits":"01","fidelity":1.0,"a_re":1.0,"a_im":0.0,'
    '"b_re":0.0,"b_im":0.0}'
)

PINNED_PHOTON_LINE = (
    '{"trial":0,"seed":7191089600892374487,"outcome":"ChiMinus",'
    '"message_bits":"00","fidelity":1.0,"event":"D1","a_re":0.6,'
    '"a_im":0.0,"b_re":0.8,"b_im":0.0}'
)

# SHA-256 of the whole record file of a 2000-trial batch at master seed 7,
# one per mode; photon runs a lossy cascade on a fixed complex input.
PINNED_FILE_DIGESTS = {
    Mode.SPIN: "2c51b7ef9963e111499da48dc18e5768a991d23cb8699466f8dac9d22fc73418",
    Mode.BASELINE: "b910419bda88fd2bcda21dd859da5f33236e4b8312b21514b29676855debe847",
    Mode.SWAP: "241570fbb75bb3d4e9ea29b8eb085c037bf1ddbb3a032f6936943433c625eb2f",
    Mode.PHOTON: "39c4bb87fde8f98cfa5e490d8e8150a7769c6c1e58f77a943ce0f958b6733c88",
}

# The same pin for photon batches at eta_abs .5, eta_det .9, p_in = p_pdc = .9.
# These are the configs whose last bits of ``fidelity`` follow the float order
# of the cascade: the Haar ones move first when that order changes.
PINNED_PHOTON_DIGESTS = {
    "haar": "3112f23764ee296f462af7c287a01253b07d33505965df760b2b1bceaf310044",
    "fixed-1-0": "8ff29242bec1f5aed36033f5b694fad85b487ef0a955dccb59b6e523e2e420c8",
}


class TestSeedDerivation:
    def test_pinned_values(self):
        for (master, index), expected in KNOWN_SEEDS.items():
            assert derive_seed(master, index) == expected

    def test_outputs_fit_in_64_bits(self):
        for index in range(200):
            assert 0 <= derive_seed(123, index) < 1 << 64

    def test_nearby_indices_decorrelate(self):
        seeds = {derive_seed(42, index) for index in range(10000)}
        assert len(seeds) == 10000


class TestWireFormat:
    def test_spin_record_key_order(self):
        cfg = RunConfig(mode=Mode.SPIN, trials=1, fixed_input=UP_INPUT)
        record = next(iter_records(cfg))
        assert list(record.keys()) == SPIN_KEYS

    def test_photon_record_key_order(self):
        cfg = RunConfig(mode=Mode.PHOTON, trials=1, fixed_input=UP_INPUT)
        record = next(iter_records(cfg))
        assert list(record.keys()) == PHOTON_KEYS

    def test_pinned_spin_line(self):
        cfg = RunConfig(mode=Mode.SPIN, trials=1, master_seed=42, fixed_input=UP_INPUT)
        assert record_to_line(next(iter_records(cfg))) == PINNED_SPIN_LINE

    def test_pinned_photon_line(self):
        cfg = RunConfig(
            mode=Mode.PHOTON, trials=1, master_seed=7,
            fixed_input=UnknownState(0.6, 0.8),
        )
        assert record_to_line(next(iter_records(cfg))) == PINNED_PHOTON_LINE

    def test_swap_records_carry_no_input_amplitudes(self):
        cfg = RunConfig(mode=Mode.SWAP, trials=3, master_seed=5)
        for record in iter_records(cfg):
            assert record["a_re"] is None and record["b_im"] is None
            assert record["outcome"] is not None
            assert record["fidelity"] == pytest.approx(1.0, abs=1e-10)

    def test_baseline_failures_have_null_outcome_and_message(self):
        cfg = RunConfig(
            mode=Mode.BASELINE, trials=40, master_seed=11,
            fixed_input=UnknownState(0.6, 0.8),
        )
        records = list(iter_records(cfg))
        failures = [r for r in records if r["outcome"] is None]
        wins = [r for r in records if r["outcome"] is not None]
        assert failures and wins
        assert all(r["message_bits"] is None for r in failures)
        assert all(r["outcome"] == "PsiMinus" for r in wins)

    def test_photon_no_event_has_null_fidelity(self):
        cfg = RunConfig(
            mode=Mode.PHOTON, trials=10, master_seed=3, fixed_input=UP_INPUT,
            efficiency=EfficiencyConfig(eta_det=0.0),
        )
        for record in iter_records(cfg):
            assert record["event"] == "NONE"
            assert record["fidelity"] is None
            assert record["outcome"] is None

    def test_lines_round_trip_through_json(self):
        cfg = RunConfig(mode=Mode.SPIN, trials=5, master_seed=1)
        for record in iter_records(cfg):
            assert json.loads(record_to_line(record)) == record

    def test_haar_inputs_vary_but_replay_identically(self):
        cfg = RunConfig(mode=Mode.SPIN, trials=6, master_seed=77)
        first = [record_to_line(r) for r in iter_records(cfg)]
        second = [record_to_line(r) for r in iter_records(cfg)]
        assert first == second
        amplitudes = {line.split('"a_re":')[1] for line in first}
        assert len(amplitudes) == 6


def _per_seed_record(cfg: RunConfig, index: int) -> dict:
    """The schema fields of trial ``index``, from the physics entry points
    called with seeds alone (one ``default_rng`` per seed)."""
    base_seed = derive_seed(cfg.master_seed, index)
    protocol_seed = derive_seed(base_seed, 1)
    input_state = None  # swap has no single-qubit input, fixed or not
    if cfg.mode is not Mode.SWAP:
        input_rng = np.random.default_rng(derive_seed(base_seed, 0))
        input_state = cfg.fixed_input or haar_random_input(input_rng)
    event = None
    if cfg.mode is Mode.SPIN:
        record = run_trial(input_state, protocol_seed)
        outcome, fid = record.outcome, record.fidelity_value
    elif cfg.mode is Mode.BASELINE:
        _, record = run_baseline_computational(input_state, protocol_seed)
        outcome, fid = record.outcome, record.fidelity_value
    elif cfg.mode is Mode.SWAP:
        outcome, final = run_entangled_input(protocol_seed)
        fid = fidelity(final, bell_state(BellOutcome.PSI_MINUS))
    else:
        cascade = run_cascade(input_state, cfg.efficiency, protocol_seed)
        outcome, fid = cascade.event.original_bell, cascade.fidelity_value
        event = cascade.event.kind.value
    amplitudes = (
        dict(a_re=None, a_im=None, b_re=None, b_im=None)
        if input_state is None
        else dict(
            a_re=input_state.a.real, a_im=input_state.a.imag,
            b_re=input_state.b.real, b_im=input_state.b.imag,
        )
    )
    return dict(
        trial=index, seed=base_seed, outcome=outcome.value if outcome else None,
        fidelity=fid, event=event, **amplitudes,
    )


# Photon settings under which every draw count from 2 to 7 occurs: both
# availability draws can fail, and absorbers can miss through to D3C.
LOSSY = EfficiencyConfig(eta_abs=0.5, eta_det=0.9, p_in=0.9, p_pdc=0.9)
# A fixed input reaches every kernel as one row that the chunk's trials share.
FIXED_INPUT = UnknownState.normalized(0.6, 0.8j)


def with_fixed_inputs(cases: list[tuple], ids: list[str]) -> list:
    """Each case with Haar inputs under its id, then with ``FIXED_INPUT``
    under its id plus ``-fixed``."""
    return [
        pytest.param(*case, fixed_input, id=name + suffix)
        for fixed_input, suffix in ((None, ""), (FIXED_INPUT, "-fixed"))
        for case, name in zip(cases, ids)
    ]


class TestBulkDraws:
    @pytest.mark.parametrize(
        "mode, efficiency, fixed_input",
        with_fixed_inputs(
            [
                (Mode.SPIN, EfficiencyConfig()),
                (Mode.BASELINE, EfficiencyConfig()),
                (Mode.SWAP, EfficiencyConfig()),
                (Mode.PHOTON, LOSSY),
            ],
            ["spin", "baseline", "swap", "photon"],
        ),
    )
    def test_batch_equals_per_seed_path_across_chunks(
        self, mode, efficiency, fixed_input
    ):
        cfg = RunConfig(
            mode=mode, trials=2 * CHUNK_TRIALS[mode] + 3, master_seed=3,
            efficiency=efficiency, fixed_input=fixed_input,
        )
        records = list(iter_records(cfg))
        assert len(records) == cfg.trials
        for index, record in enumerate(records):
            expected = _per_seed_record(cfg, index)
            if mode is not Mode.PHOTON:
                expected.pop("event")
            assert {key: record[key] for key in expected} == expected
        if mode is Mode.PHOTON:
            assert {r["event"] for r in records} == {k.value for k in CascadeEventKind}

    @pytest.mark.parametrize(
        "mode, fixed_input",
        with_fixed_inputs([(mode,) for mode in Mode], [mode.value for mode in Mode]),
    )
    def test_output_does_not_depend_on_the_chunk_size(
        self, tmp_path, monkeypatch, mode, fixed_input
    ):
        path = tmp_path / "records.jsonl"
        cfg = RunConfig(
            mode=mode, trials=2 * 4096 + 3, master_seed=9, efficiency=LOSSY,
            fixed_input=fixed_input, output_path=str(path),
        )
        analytic = None
        if mode is Mode.PHOTON:
            analytic = analytic_distribution(fixed_input or UP_INPUT, LOSSY)
        outputs = []
        # Every mode's shipped size, a boundary that is no power of two, and
        # one that leaves a one-trial last chunk.
        for size in sorted({7, 1024, CHUNK_TRIALS[mode], 4096, cfg.trials - 1}):
            monkeypatch.setitem(harness.CHUNK_TRIALS, mode, size)
            summary = run_batch(cfg)
            assert summarize(load_records(str(path)), mode, analytic) == summary
            outputs.append((path.read_bytes(), summary, repr(summary.mean_fidelity)))
        assert all(output == outputs[0] for output in outputs[1:])


class TestRunBatch:
    def test_writes_byte_identical_files(self, tmp_path):
        paths = [tmp_path / "one.jsonl", tmp_path / "two.jsonl"]
        for path in paths:
            run_batch(
                RunConfig(
                    mode=Mode.PHOTON, trials=50, master_seed=13,
                    output_path=str(path),
                )
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
    def test_pinned_record_file_digest(self, tmp_path, mode):
        extra = {}
        if mode is Mode.PHOTON:
            extra = dict(
                fixed_input=UnknownState.normalized(0.6, 0.8j),
                efficiency=EfficiencyConfig(0.9, 0.8, 0.95, 0.95),
            )
        path = tmp_path / "records.jsonl"
        run_batch(
            RunConfig(
                mode=mode, trials=2000, master_seed=7, output_path=str(path),
                **extra,
            )
        )
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == PINNED_FILE_DIGESTS[mode], digest_platform.describe()

    @pytest.mark.parametrize("name", list(PINNED_PHOTON_DIGESTS))
    def test_pinned_lossy_photon_file_digest(self, tmp_path, name):
        path = tmp_path / "records.jsonl"
        run_batch(
            RunConfig(
                mode=Mode.PHOTON, trials=2000, master_seed=7, efficiency=LOSSY,
                fixed_input=None if name == "haar" else UP_INPUT,
                output_path=str(path),
            )
        )
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == PINNED_PHOTON_DIGESTS[name], digest_platform.describe()

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
    def test_summary_recomputes_from_the_record_file(self, tmp_path, mode):
        path = tmp_path / "records.jsonl"
        cfg = RunConfig(
            mode=mode, trials=30, master_seed=2, output_path=str(path),
            efficiency=LOSSY,  # read in photon mode only
        )
        summary = run_batch(cfg)
        analytic = None
        if mode is Mode.PHOTON:
            analytic = analytic_distribution(UP_INPUT, cfg.efficiency)
            assert summary.chi_square is not None
        reloaded = summarize(load_records(str(path)), mode=mode, analytic=analytic)
        assert reloaded == summary  # duration is excluded from equality

    def test_spin_batch_succeeds_every_trial(self):
        summary = run_batch(RunConfig(mode=Mode.SPIN, trials=60, master_seed=9))
        assert summary.success_rate == 1.0
        assert summary.min_fidelity == pytest.approx(1.0, abs=1e-10)

    def test_photon_batch_reports_chi_square(self):
        summary = run_batch(
            RunConfig(mode=Mode.PHOTON, trials=400, master_seed=21)
        )
        assert summary.chi_square is not None
        assert summary.chi_square < 16.266

    def test_unwritable_output_path_raises(self, tmp_path):
        cfg = RunConfig(
            mode=Mode.SPIN, trials=1,
            output_path=str(tmp_path / "missing" / "records.jsonl"),
        )
        with pytest.raises(ValueError, match="cannot write"):
            run_batch(cfg)

    def test_rejects_bad_trial_count(self):
        with pytest.raises(ValueError, match="trials"):
            RunConfig(mode=Mode.SPIN, trials=0)

    def test_rejects_oversized_master_seed(self):
        with pytest.raises(ValueError, match="64 bits"):
            RunConfig(mode=Mode.SPIN, master_seed=1 << 64)

    def test_rejects_non_integral_trial_count(self):
        with pytest.raises(ValueError, match="trials must be an integer, got 2.5"):
            RunConfig(mode=Mode.SPIN, trials=2.5)

    def test_rejects_non_integral_master_seed(self):
        # int(1.9) would run it silently as master seed 1.
        with pytest.raises(ValueError, match="master_seed must be an integer, got 1.9"):
            RunConfig(mode=Mode.SPIN, master_seed=1.9)

    # Each one ran until the batch first used it: run_batch raised KeyError
    # for the mode string, and AttributeError for the other two.
    def test_rejects_a_mode_that_is_not_a_mode(self):
        with pytest.raises(ValueError, match="^mode must be Mode, got 'spin'$"):
            RunConfig(mode="spin")

    def test_rejects_an_efficiency_that_is_not_a_config(self):
        message = "^efficiency must be EfficiencyConfig, got 0.9$"
        with pytest.raises(ValueError, match=message):
            RunConfig(mode=Mode.PHOTON, efficiency=0.9)

    def test_rejects_a_fixed_input_that_is_not_a_state(self):
        message = r"^fixed_input must be UnknownState or NoneType, got \(0.6, 0.8\)$"
        with pytest.raises(ValueError, match=message):
            RunConfig(mode=Mode.SPIN, fixed_input=(0.6, 0.8))

    def test_stores_the_checked_integers(self):
        cfg = RunConfig(mode=Mode.SPIN, master_seed="5")
        assert cfg.master_seed == 5 and type(cfg.master_seed) is int
        cfg = RunConfig(mode=Mode.SPIN, trials=np.int64(3), master_seed=np.uint64(5))
        assert (cfg.trials, cfg.master_seed) == (3, 5)
        assert type(cfg.trials) is int and type(cfg.master_seed) is int

    @pytest.mark.parametrize(
        "efficiency, kind",
        [
            (EfficiencyConfig(p_in=0.0), CascadeEventKind.D3_SINGLE_LOWER),
            (EfficiencyConfig(p_pdc=0.0), CascadeEventKind.D3_SINGLE_TOP),
            (EfficiencyConfig(p_in=0.0, p_pdc=0.0), CascadeEventKind.NO_EVENT),
        ],
    )
    def test_photon_batch_with_a_dark_source(self, efficiency, kind):
        table = analytic_distribution(UP_INPUT, efficiency)
        assert table == {k: 1.0 if k is kind else 0.0 for k in CascadeEventKind}
        summary = run_batch(RunConfig(
            mode=Mode.PHOTON, trials=300, master_seed=5,
            efficiency=efficiency, fixed_input=UP_INPUT,
        ))
        assert summary.counts == {kind.value: 300}
        assert summary.chi_square == 0.0
        assert summary.mean_fidelity is None

    @staticmethod
    def _count_calls(monkeypatch, name: str, fail_at: int | None = None) -> list[int]:
        """Wrap ``harness.<name>`` to count its calls and raise on call ``fail_at``."""
        original = getattr(harness, name)
        calls = [0]

        def counted(*args):
            calls[0] += 1
            if calls[0] == fail_at:
                raise RuntimeError(f"{name} failed")
            return original(*args)

        monkeypatch.setattr(harness, name, counted)
        return calls

    @pytest.mark.parametrize(
        "mode, kernel",
        [
            (Mode.SPIN, "teleport_rows"),
            (Mode.SWAP, "teleport_rows"),
            (Mode.BASELINE, "baseline_rows"),
            (Mode.PHOTON, "cascade_rows"),
        ],
        ids=lambda value: getattr(value, "value", value),
    )
    def test_kernel_and_oracle_are_looked_up_when_called(
        self, monkeypatch, mode, kernel
    ):
        # A patch of harness's names reaches a batch only if the mode table
        # looks them up when a chunk runs, not when the table is built: one
        # kernel call per chunk, and one oracle call per photon batch.
        kernel_calls = self._count_calls(monkeypatch, kernel)
        oracle_calls = self._count_calls(monkeypatch, "analytic_distribution")
        run_batch(RunConfig(mode=mode, trials=2 * CHUNK_TRIALS[mode] + 3))
        assert kernel_calls == [3]
        assert oracle_calls == [1 if mode is Mode.PHOTON else 0]

    @pytest.mark.parametrize("target", ["missing/records.jsonl", "."])
    def test_bad_output_path_fails_before_any_trial(
        self, tmp_path, monkeypatch, target
    ):
        calls = self._count_calls(monkeypatch, "teleport_rows")
        cfg = RunConfig(
            mode=Mode.SPIN, trials=5, output_path=str(tmp_path / target)
        )
        with pytest.raises(ValueError, match="cannot write"):
            run_batch(cfg)
        assert calls == [0]
        assert os.listdir(tmp_path) == []

    def test_empty_output_path_fails_before_any_trial(self, tmp_path, monkeypatch):
        # An empty path must not resolve to the working directory, whose
        # parent would then receive the temp file.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        calls = self._count_calls(monkeypatch, "teleport_rows")
        cfg = RunConfig(mode=Mode.SPIN, trials=5, output_path="")
        with pytest.raises(ValueError, match="cannot write output path ''"):
            run_batch(cfg)
        assert calls == [0]
        assert os.listdir(tmp_path) == ["work"]
        assert os.listdir(work) == []

    @pytest.mark.parametrize(
        "failing, fail_at, trials",
        [
            # The kernel runs once per chunk: its second call fails after
            # a whole chunk of records has been written.
            pytest.param(
                "teleport_rows", 2, CHUNK_TRIALS[Mode.SPIN] + 5, id="teleport_rows"
            ),
            # The writer encodes one chunk per call: its second call fails
            # after the first chunk's lines have been written.
            pytest.param(
                "_chunk_lines", 2, CHUNK_TRIALS[Mode.SPIN] + 5, id="_chunk_lines"
            ),
        ],
    )
    def test_failed_batch_leaves_existing_file_and_no_temp(
        self, tmp_path, monkeypatch, failing, fail_at, trials
    ):
        path = tmp_path / "records.jsonl"
        path.write_text("previous run\n")
        self._count_calls(monkeypatch, failing, fail_at=fail_at)
        cfg = RunConfig(mode=Mode.SPIN, trials=trials, output_path=str(path))
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            run_batch(cfg)
        assert path.read_text() == "previous run\n"
        assert os.listdir(tmp_path) == ["records.jsonl"]

    @pytest.mark.parametrize(
        "mode, fixed_input, efficiency",
        [
            (Mode.SPIN, None, EfficiencyConfig()),
            (Mode.BASELINE, None, EfficiencyConfig()),
            (Mode.SWAP, None, EfficiencyConfig()),
            (Mode.PHOTON, None, LOSSY),
            (Mode.PHOTON, UP_INPUT, LOSSY),
        ],
        ids=["spin", "baseline", "swap", "photon-haar", "photon-fixed-1-0"],
    )
    def test_file_is_record_to_line_of_every_record(
        self, tmp_path, mode, fixed_input, efficiency
    ):
        path = tmp_path / "records.jsonl"
        cfg = RunConfig(
            mode=mode, trials=2 * CHUNK_TRIALS[mode] + 3, master_seed=4,
            fixed_input=fixed_input, efficiency=efficiency, output_path=str(path),
        )
        run_batch(cfg)
        expected = "".join(record_to_line(r) + "\n" for r in iter_records(cfg))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_non_finite_fidelity_fails_the_writer(self, tmp_path, monkeypatch):
        original = harness.teleport_rows

        def infinite_fidelity(inputs, draws):
            *columns, fidelities = original(inputs, draws)
            fidelities[5] = float("inf")
            return *columns, fidelities

        monkeypatch.setattr(harness, "teleport_rows", infinite_fidelity)
        path = tmp_path / "records.jsonl"
        path.write_text("previous run\n")
        cfg = RunConfig(mode=Mode.SPIN, trials=20, output_path=str(path))
        with pytest.raises(ValueError, match="not JSON compliant"):
            list(iter_records(cfg))
        record = {**json.loads(PINNED_SPIN_LINE), "fidelity": float("inf")}
        with pytest.raises(ValueError, match="not JSON compliant"):
            record_to_line(record)
        with pytest.raises(ValueError, match="not JSON compliant"):
            run_batch(cfg)
        assert path.read_text() == "previous run\n"
        assert os.listdir(tmp_path) == ["records.jsonl"]

    @pytest.mark.parametrize("part", [0, 3])
    def test_non_finite_amplitude_fails_the_writer(self, part):
        cfg = RunConfig(mode=Mode.SPIN, trials=3)
        chunk = next(harness._columns(cfg))
        chunk.inputs.view(np.float64)[1, part] = float("nan")
        with pytest.raises(ValueError, match="not JSON compliant"):
            harness._chunk_lines(cfg, chunk)

    def test_pinned_baseline_mean_fidelity(self):
        # The fidelity sum runs in trial order across chunks; a pairwise sum
        # (np.sum) gives 0.5832671042758739 here.
        cfg = RunConfig(mode=Mode.BASELINE, trials=20_000, master_seed=1)
        assert run_batch(cfg).mean_fidelity == 0.5832671042758759

    @pytest.mark.parametrize(
        "mode, to_file",
        [(Mode.SPIN, True), (Mode.SWAP, False)],
        ids=["spin-file", "swap-inmemory"],
    )
    def test_memory_stays_flat_as_the_batch_grows(self, tmp_path, mode, to_file):
        path = str(tmp_path / "records.jsonl") if to_file else None

        def peak_bytes(trials: int) -> int:
            cfg = RunConfig(mode=mode, trials=trials, output_path=path)
            tracemalloc.start()
            try:
                run_batch(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_batch(RunConfig(mode=mode, trials=3))  # fill lazy caches first
        chunk = CHUNK_TRIALS[mode]
        assert peak_bytes(4 * chunk) <= 1.25 * peak_bytes(chunk)

    def test_output_file_mode_follows_umask(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        path = tmp_path / "records.jsonl"
        run_batch(RunConfig(mode=Mode.SPIN, trials=3, output_path=str(path)))
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask
        assert os.listdir(tmp_path) == ["records.jsonl"]


class TestSummarize:
    def test_empty_stream_is_an_error(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([], mode=Mode.SPIN)

    def test_baseline_counts_split_by_identification(self):
        cfg = RunConfig(
            mode=Mode.BASELINE, trials=400, master_seed=17,
            fixed_input=UnknownState(0.6, 0.8),
        )
        summary = run_batch(cfg)
        assert set(summary.counts) == {"PsiMinus", "none"}
        assert summary.success_rate == pytest.approx(0.25, abs=0.08)

    def test_chi_square_is_infinite_for_impossible_event(self):
        records = [
            {"trial": 0, "seed": 0, "outcome": None, "message_bits": None,
             "fidelity": None, "event": "D1",
             "a_re": 1.0, "a_im": 0.0, "b_re": 0.0, "b_im": 0.0},
        ]
        summary = summarize(
            records, mode=Mode.PHOTON,
            analytic={CascadeEventKind.D1: 0.0, CascadeEventKind.NO_EVENT: 1.0},
        )
        assert summary.chi_square == float("inf")

    def test_counts_any_key_and_only_keys_seen(self):
        # A null or empty counted field counts under "none" in every mode,
        # so the summary's tables still sort.
        for mode, field, success in (
            (Mode.SPIN, "outcome", 0.25), (Mode.PHOTON, "event", 0.0)
        ):
            records = [
                {field: "Xyz", "fidelity": 0.5},
                {field: None, "fidelity": None},
                {field: "Xyz", "fidelity": 1.0},
                {field: "", "fidelity": 0.25},
            ]
            summary = summarize(records, mode=mode)
            assert summary.counts == {"Xyz": 2, "none": 2}
            assert summary.mean_fidelity == (0.5 + 1.0 + 0.25) / 3
            assert summary.min_fidelity == 0.25
            assert summary.success_rate == success
            assert summary.to_json_obj()["counts"] == {"Xyz": 2, "none": 2}
        live = run_batch(RunConfig(mode=Mode.SPIN, trials=1, master_seed=3))
        assert len(live.counts) == 1

    def test_baseline_success_is_the_certified_key(self):
        # A baseline success is a count of the key its kernel writes with an
        # outcome, PsiMinus.  An empty outcome counts under "none", and one
        # no baseline code writes under its own key; neither is a success.
        for outcome, key in (("", "none"), (None, "none"), ("PsiPlus", "PsiPlus")):
            summary = summarize([{"outcome": outcome, "fidelity": 0.5}], Mode.BASELINE)
            assert summary.counts == {key: 1}
            assert summary.success_rate == 0.0
        records = [
            {"outcome": "PsiMinus", "fidelity": 1.0}, {"outcome": "", "fidelity": 0.5}
        ]
        assert summarize(records, Mode.BASELINE).success_rate == 0.5

    def test_summary_spans_blocks_in_trial_order(self):
        cfg = RunConfig(
            mode=Mode.PHOTON, trials=2 * CHUNK_TRIALS[Mode.PHOTON] + 3, master_seed=6,
            efficiency=LOSSY,
        )
        analytic = analytic_distribution(UP_INPUT, LOSSY)
        summary = summarize(iter_records(cfg), mode=Mode.PHOTON, analytic=analytic)
        assert summary == run_batch(cfg)
        values = [r["fidelity"] for r in iter_records(cfg) if r["fidelity"] is not None]
        total = 0.0
        for value in values:
            total += value
        assert summary.mean_fidelity == total / len(values)
        assert summary.min_fidelity == min(values)

    def test_record_without_a_field_in_a_file_names_its_position(self, tmp_path):
        path = tmp_path / "records.jsonl"
        run_batch(
            RunConfig(
                mode=Mode.SPIN, trials=CHUNK_TRIALS[Mode.SPIN] + 3,
                output_path=str(path),
            )
        )
        lines = path.read_text().splitlines()
        record = json.loads(lines[-2])
        del record["fidelity"]
        lines[-2] = record_to_line(record)
        path.write_text("\n".join(lines) + "\n")
        message = f"^record {len(lines) - 1} has no 'fidelity' field$"
        with pytest.raises(ValueError, match=message):
            summarize(load_records(str(path)), mode=Mode.SPIN)

    @pytest.mark.parametrize(
        "bad, mode, message",
        [
            (5, Mode.SPIN, "record 3 has no 'fidelity' field"),
            ([0.5], Mode.SPIN, "record 3 has no 'fidelity' field"),
            ({"fidelity": 1.0}, Mode.SPIN, "record 3 has no 'outcome' field"),
            ({"fidelity": None}, Mode.PHOTON, "record 3 has no 'event' field"),
            *(
                (
                    {"outcome": "X", "fidelity": value},
                    Mode.SPIN,
                    "record 3 field 'fidelity' must be null or a finite number,"
                    f" got {text}",
                )
                for value, text in [
                    ("0.5", "'0.5'"),
                    ("nan", "'nan'"),
                    ([0.5, 1], "[0.5, 1]"),
                    ({"re": 0.5}, "{'re': 0.5}"),
                    (float("nan"), "nan"),
                    (float("-inf"), "-inf"),
                    (10**400, "100000000000000000...0000000000000000000"),
                ]
            ),
            (
                {"outcome": [1], "fidelity": 1.0},
                Mode.SPIN,
                "record 3 field 'outcome' must be null or a string, got [1]",
            ),
            (
                {"outcome": 1, "fidelity": 1.0},
                Mode.SWAP,
                "record 3 field 'outcome' must be null or a string, got 1",
            ),
            (
                {"event": {"kind": "D1"}, "fidelity": None},
                Mode.PHOTON,
                "record 3 field 'event' must be null or a string,"
                " got {'kind': 'D1'}",
            ),
        ],
        ids=[
            "int", "list", "no-outcome", "no-event", "string-fidelity",
            "nan-string-fidelity", "list-fidelity", "object-fidelity",
            "nan-fidelity", "infinite-fidelity", "huge-int-fidelity",
            "list-outcome", "int-outcome", "object-event",
        ],
    )
    def test_malformed_record_in_a_list_names_its_position(self, bad, mode, message):
        good = {"outcome": None, "event": "NONE", "fidelity": None}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            summarize([good, good, bad, good], mode=mode)

    def test_json_view_is_serializable(self):
        summary = run_batch(RunConfig(mode=Mode.SWAP, trials=20, master_seed=8))
        text = json.dumps(summary.to_json_obj())
        assert json.loads(text)["mode"] == "swap"
        assert isinstance(summary, BatchSummary)


class TestPythonFloatEdges:
    """Fidelities leave the kernels as Python floats wherever a caller sees
    them, and summaries stay floats: under numpy 2 ``repr`` of an
    ``np.float64`` reads ``np.float64(0.5)``, not ``0.5``."""

    FIXED = UnknownState(0.6, 0.8j)

    def test_one_row_entry_points(self):
        assert type(run_trial(self.FIXED, 3).fidelity_value) is float
        for seed in range(8):
            _, record = run_baseline_computational(self.FIXED, seed)
            assert type(record.fidelity_value) is float
        identifying = run_cascade(self.FIXED, EfficiencyConfig(), 3)
        assert identifying.event.original_bell is not None
        assert type(identifying.fidelity_value) is float
        dark = run_cascade(self.FIXED, EfficiencyConfig(p_in=0.0), 3)
        assert dark.fidelity_value is None

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.value)
    def test_iter_records_in_every_mode(self, mode):
        cfg = RunConfig(
            mode=mode, trials=CHUNK_TRIALS[mode] + 5, master_seed=5,
            efficiency=LOSSY,
        )
        present = 0
        for record in iter_records(cfg):
            # Every record shares one object per key and string value.  With
            # fresh strings per record, perfbench's swap-inmemory replay
            # (summarize of 10^4 records) ran at 6.0M instead of 7.5M
            # records/s (medians of 4 alternating runs, 2-vCPU Xeon VM).
            strings = [*record, *(v for v in record.values() if type(v) is str)]
            assert all(text is sys.intern(text) for text in strings)
            assert type(record["seed"]) is int
            if record["fidelity"] is not None:
                assert type(record["fidelity"]) is float
                present += 1
        assert present > 0

    def test_lossy_photon_summary_across_a_chunk_boundary(self):
        cfg = RunConfig(
            mode=Mode.PHOTON, trials=CHUNK_TRIALS[Mode.PHOTON] + 5, master_seed=5,
            efficiency=LOSSY, fixed_input=self.FIXED,
        )
        analytic = analytic_distribution(self.FIXED, LOSSY)
        live = run_batch(cfg)
        assert summarize(iter_records(cfg), Mode.PHOTON, analytic) == live
        for value in (
            live.mean_fidelity, live.min_fidelity, live.success_rate,
            live.chi_square,
        ):
            assert type(value) is float


class TestLoadRecords:
    def test_reads_back_what_json_loads_reads(self, tmp_path):
        path = tmp_path / "records.jsonl"
        run_batch(RunConfig(mode=Mode.PHOTON, trials=40, output_path=str(path)))
        with open(path, "a") as handle:
            handle.write("\n  \n")
        lines = path.read_text().splitlines()
        expected = [json.loads(line) for line in lines if line.strip()]
        assert list(load_records(str(path))) == expected

    def test_truncated_line_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"trial":0,"seed":1}\n{"trial":1,\n{"trial":2}\n')
        records = load_records(str(path))
        assert next(records) == {"trial": 0, "seed": 1}
        with pytest.raises(ValueError) as caught:
            next(records)
        message = str(caught.value)
        assert message.startswith(f"{str(path)!r} line 2: ")
        assert "Expecting property name" in message

    @pytest.mark.parametrize(
        "text, line",
        [
            ('{"a":1} {"b":2}\n', 1),
            # Each line must parse alone, even where the lines joined would.
            ('{"a":[1\n2]},{"b":0}\n', 1),
            ('{"a":1}\n{"b":2}}\n', 2),
        ],
        ids=["two-values", "split-value", "trailing-brace"],
    )
    def test_each_line_holds_exactly_one_value(self, tmp_path, text, line):
        path = tmp_path / "records.jsonl"
        path.write_text(text)
        with pytest.raises(ValueError, match=f" line {line}: "):
            list(load_records(str(path)))


class TestParseConfig:
    GOOD = """
    # cascade batch
    mode = photon
    trials = 250
    master_seed = 7   # reproducible
    eta_abs = 0.5
    eta_det = 0.9
    input = fixed:0.6,0.8
    output = records.jsonl
    """

    def test_full_config(self):
        cfg = parse_config(self.GOOD)
        assert cfg.mode is Mode.PHOTON
        assert cfg.trials == 250
        assert cfg.master_seed == 7
        assert cfg.efficiency == EfficiencyConfig(eta_abs=0.5, eta_det=0.9)
        assert cfg.fixed_input == UnknownState(0.6, 0.8)
        assert cfg.output_path == "records.jsonl"

    def test_defaults_when_only_mode_is_given(self):
        cfg = parse_config("mode=spin")
        assert cfg.trials == 10000
        assert cfg.master_seed == 42
        assert cfg.fixed_input is None

    def test_haar_random_input_keyword(self):
        cfg = parse_config("mode=spin\ninput=haar-random")
        assert cfg.fixed_input is None

    def test_complex_amplitudes(self):
        cfg = parse_config("mode=spin\ninput=fixed:0.6j,0.8")
        assert cfg.fixed_input.a == 0.6j

    def test_missing_mode(self):
        with pytest.raises(ValueError, match="must set mode"):
            parse_config("trials=5")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("mode=spin\nmode=photon\ntrials=3\ntrials=4",
             "line 2: duplicate key 'mode' (first set on line 1)"),
            ("mode=photon\ntrials=3\n# again\ntrials = 4",
             "line 4: duplicate key 'trials' (first set on line 2)"),
            ("mode=photon\neta_abs=0.5\neta_det=0.9\neta_abs=0.5",
             "line 4: duplicate key 'eta_abs' (first set on line 2)"),
            ("mode=spin\ninput=haar-random\noutput=a\ninput=fixed:1,0",
             "line 4: duplicate key 'input' (first set on line 2)"),
        ],
        ids=["mode", "trials", "efficiency-knob", "input"],
    )
    def test_repeated_key_names_both_lines(self, text, message):
        with pytest.raises(ValueError) as caught:
            parse_config(text)
        assert str(caught.value) == message

    def test_unknown_key_names_the_line(self):
        with pytest.raises(ValueError, match=r"line 2: unknown key 'colour'"):
            parse_config("mode=spin\ncolour=red")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="line 1: expected key=value"):
            parse_config("just some words")

    def test_bad_trials(self):
        with pytest.raises(ValueError, match="line 2: trials"):
            parse_config("mode=spin\ntrials=zero")

    def test_trials_below_one_names_the_line(self):
        with pytest.raises(ValueError, match="line 2: trials must be >= 1"):
            parse_config("mode=spin\ntrials=0")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_master_seed_out_of_range_names_the_line(self, seed):
        with pytest.raises(ValueError, match="line 2: master_seed must fit in 64 bits"):
            parse_config(f"mode=spin\nmaster_seed={seed}")

    def test_efficiency_out_of_range(self):
        with pytest.raises(ValueError, match="line 2: eta_abs"):
            parse_config("mode=photon\neta_abs=1.5")

    def test_unnormalized_fixed_input(self):
        with pytest.raises(ValueError, match="not normalized"):
            parse_config("mode=spin\ninput=fixed:1,1")

    def test_nan_fixed_input(self):
        with pytest.raises(ValueError, match="line 2: input not normalized"):
            parse_config("mode=spin\ninput=fixed:nan,0")

    @pytest.mark.parametrize("text", ["fixed:1e200,0", "fixed:0,1e300+1e300j"])
    def test_overflowing_fixed_input(self, text):
        message = r"line 2: input not normalized \(\|a\|\^2\+\|b\|\^2 = inf\)"
        with pytest.raises(ValueError, match=message):
            parse_config(f"mode=spin\ninput={text}")

    @pytest.mark.parametrize("text", ["fixed:1", "fixed:1,0,0"])
    def test_fixed_input_needs_two_amplitudes(self, text):
        message = "line 2: fixed input needs two comma-separated amplitudes"
        with pytest.raises(ValueError, match=message):
            parse_config(f"mode=spin\ninput={text}")

    def test_unparseable_amplitudes(self):
        with pytest.raises(ValueError, match="cannot parse input"):
            parse_config("mode=spin\ninput=fixed:one,two")

    def test_bad_mode_name(self):
        with pytest.raises(ValueError, match="unknown mode 'warp'"):
            parse_config("mode=warp")
