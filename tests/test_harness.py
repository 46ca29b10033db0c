"""Tests for batch running, record serialization, and config parsing.

The literal seed values and JSON lines below are regression pins: the
record stream is a reproducibility contract, so any byte-level drift in
seed derivation or serialization must fail loudly.
"""

from __future__ import annotations

import hashlib
import json
import os
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
    input_state = cfg.fixed_input
    if input_state is None and cfg.mode is not Mode.SWAP:
        input_rng = np.random.default_rng(derive_seed(base_seed, 0))
        input_state = haar_random_input(input_rng)
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


class TestBulkDraws:
    @pytest.mark.parametrize(
        "mode, efficiency",
        [
            (Mode.SPIN, EfficiencyConfig()),
            (Mode.BASELINE, EfficiencyConfig()),
            (Mode.SWAP, EfficiencyConfig()),
            (Mode.PHOTON, LOSSY),
        ],
        ids=["spin", "baseline", "swap", "photon"],
    )
    def test_batch_equals_per_seed_path_across_chunks(self, mode, efficiency):
        cfg = RunConfig(
            mode=mode, trials=2 * CHUNK_TRIALS + 3, master_seed=3,
            efficiency=efficiency,
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
        assert digest == PINNED_FILE_DIGESTS[mode]

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
        assert digest == PINNED_PHOTON_DIGESTS[name]

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
            pytest.param("teleport_rows", 2, CHUNK_TRIALS + 5, id="teleport_rows"),
            # The writer encodes one chunk per call: its second call fails
            # after the first chunk's lines have been written.
            pytest.param("_chunk_lines", 2, CHUNK_TRIALS + 5, id="_chunk_lines"),
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
            mode=mode, trials=2 * CHUNK_TRIALS + 3, master_seed=4,
            fixed_input=fixed_input, efficiency=efficiency, output_path=str(path),
        )
        run_batch(cfg)
        expected = "".join(record_to_line(r) + "\n" for r in iter_records(cfg))
        assert path.read_bytes() == expected.encode("utf-8")

    def test_non_finite_fidelity_fails_the_writer(self, tmp_path, monkeypatch):
        original = harness.teleport_rows

        def infinite_fidelity(inputs, draws):
            outcomes, bob_pre, bob_post, fidelities = original(inputs, draws)
            fidelities[5] = float("inf")
            return outcomes, bob_pre, bob_post, fidelities

        monkeypatch.setattr(harness, "teleport_rows", infinite_fidelity)
        path = tmp_path / "records.jsonl"
        path.write_text("previous run\n")
        cfg = RunConfig(mode=Mode.SPIN, trials=20, output_path=str(path))
        record = list(iter_records(cfg))[5]
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

    def test_memory_stays_flat_as_the_batch_grows(self, tmp_path):
        path = str(tmp_path / "records.jsonl")

        def peak_bytes(trials: int) -> int:
            cfg = RunConfig(mode=Mode.SPIN, trials=trials, output_path=path)
            tracemalloc.start()
            try:
                run_batch(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        run_batch(RunConfig(mode=Mode.SPIN, trials=3))  # fill lazy caches first
        assert peak_bytes(4 * CHUNK_TRIALS) <= 1.25 * peak_bytes(CHUNK_TRIALS)

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
        records = [
            {"outcome": "Xyz", "fidelity": 0.5},
            {"outcome": None, "fidelity": None},
            {"outcome": "Xyz", "fidelity": 1.0},
            {"outcome": "", "fidelity": 0.25},
        ]
        summary = summarize(records, mode=Mode.SPIN)
        assert summary.counts == {"Xyz": 2, "none": 2}
        assert summary.mean_fidelity == (0.5 + 1.0 + 0.25) / 3
        assert summary.min_fidelity == 0.25
        assert summary.success_rate == 0.25
        live = run_batch(RunConfig(mode=Mode.SPIN, trials=1, master_seed=3))
        assert len(live.counts) == 1

    def test_summary_spans_blocks_in_trial_order(self):
        cfg = RunConfig(
            mode=Mode.PHOTON, trials=2 * CHUNK_TRIALS + 3, master_seed=6,
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
            mode=mode, trials=CHUNK_TRIALS + 5, master_seed=5, efficiency=LOSSY,
        )
        present = 0
        for record in iter_records(cfg):
            assert type(record["seed"]) is int
            if record["fidelity"] is not None:
                assert type(record["fidelity"]) is float
                present += 1
        assert present > 0

    def test_lossy_photon_summary_across_a_chunk_boundary(self):
        cfg = RunConfig(
            mode=Mode.PHOTON, trials=CHUNK_TRIALS + 5, master_seed=5,
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
