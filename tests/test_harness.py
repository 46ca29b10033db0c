"""Tests for batch running, record serialization, and config parsing.

The literal seed values and JSON lines below are regression pins: the
record stream is a reproducibility contract, so any byte-level drift in
seed derivation or serialization must fail loudly.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from bellcast.harness import (
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
from bellcast.photonic import CascadeEventKind, EfficiencyConfig
from bellcast.teleport import UnknownState

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

    def test_summary_recomputes_from_the_record_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        cfg = RunConfig(
            mode=Mode.SPIN, trials=30, master_seed=2, output_path=str(path)
        )
        summary = run_batch(cfg)
        reloaded = summarize(load_records(str(path)), mode=Mode.SPIN)
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

    def test_json_view_is_serializable(self):
        summary = run_batch(RunConfig(mode=Mode.SWAP, trials=20, master_seed=8))
        text = json.dumps(summary.to_json_obj())
        assert json.loads(text)["mode"] == "swap"
        assert isinstance(summary, BatchSummary)


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

    def test_efficiency_out_of_range(self):
        with pytest.raises(ValueError, match="line 2: eta_abs"):
            parse_config("mode=photon\neta_abs=1.5")

    def test_unnormalized_fixed_input(self):
        with pytest.raises(ValueError, match="not normalized"):
            parse_config("mode=spin\ninput=fixed:1,1")

    def test_nan_fixed_input(self):
        with pytest.raises(ValueError, match="line 2: input not normalized"):
            parse_config("mode=spin\ninput=fixed:nan,0")

    def test_unparseable_amplitudes(self):
        with pytest.raises(ValueError, match="cannot parse input"):
            parse_config("mode=spin\ninput=fixed:one,two")

    def test_bad_mode_name(self):
        with pytest.raises(ValueError, match="unknown mode 'warp'"):
            parse_config("mode=warp")
