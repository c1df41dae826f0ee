"""Benchmark harness: records, scaling checks, report format."""

import numpy as np
import pytest

from tpgn.bench import (BenchScenario, balanced_factors,
                        per_layer_scaling_exponent, run_scenario, sweep,
                        versioned_path)
from tpgn.errors import ConfigError
from tpgn.model import TpgnParams, flop_count


def quick(model, **overrides):
    base = dict(l_h=48, l_f=48, d_m=8, batch=2, repeat=3, warmup=1, period=24)
    base.update(overrides)
    return BenchScenario(model, **base)


class TestScenarioValidation:
    def test_repeat_floor(self):
        with pytest.raises(ConfigError):
            quick("TPGN", repeat=2)

    def test_warmup_floor(self):
        with pytest.raises(ConfigError):
            quick("TPGN", warmup=0)

    def test_model_names(self):
        with pytest.raises(ConfigError):
            quick("Transformer")


class TestRunScenario:
    def test_record_fields_populated(self):
        rec = run_scenario(quick("TPGN"))
        assert rec.ok
        assert rec.time_ms_median > 0.0
        assert rec.forward_ms_median > 0.0
        assert rec.peak_bytes > 0
        assert rec.macs > 0
        assert rec.graph_depth > 0

    def test_median_time_stability(self):
        # same scenario twice: medians within 20% of each other.  Shared CI
        # machines see multi-second contention bursts, so allow three
        # attempts; a quiet desktop passes on the first.
        scenario = quick("GRU-seq", l_h=96, d_m=16, batch=2, repeat=7, warmup=2)
        gaps = []
        for _ in range(3):
            a = run_scenario(scenario).time_ms_median
            b = run_scenario(scenario).time_ms_median
            gaps.append(abs(a - b) / max(a, b))
            if gaps[-1] < 0.20:
                break
        assert min(gaps) < 0.20, gaps

    def test_tpgn_mac_growth_matches_formula(self):
        # input 168 -> 672 at period 24: the recorded count scales exactly
        # as the closed-form cost predicts
        rec_small = run_scenario(quick("TPGN", l_h=168, l_f=168, d_m=8))
        rec_big = run_scenario(quick("TPGN", l_h=672, l_f=168, d_m=8))
        rng = np.random.default_rng(0)
        p_small = TpgnParams.init(168, 168, 24, 4, 8, rng)
        p_big = TpgnParams.init(672, 168, 24, 4, 8, rng)
        predicted = flop_count(p_big, 672, 168).total / flop_count(p_small, 168, 168).total
        assert rec_big.macs / rec_small.macs == predicted

    def test_depth_structure(self):
        gru = run_scenario(quick("GRU-seq", l_h=96))
        assert gru.graph_depth >= 96
        tpgn_a = run_scenario(quick("TPGN", l_h=48, l_f=48))
        tpgn_b = run_scenario(quick("TPGN", l_h=240, l_f=48))
        assert tpgn_a.graph_depth == tpgn_b.graph_depth

    def test_peak_bytes_deterministic(self):
        s = quick("PGN-raw")
        assert run_scenario(s).peak_bytes == run_scenario(s).peak_bytes


class TestSweep:
    def test_rows_and_schema(self, tmp_path):
        scenarios = [quick("TPGN"), quick("PGN-raw"), quick("GRU-seq"),
                     quick("LSTM-seq")]
        records, path = sweep(scenarios, tmp_path / "bench.csv")
        assert len(records) == 4
        lines = path.read_text().splitlines()
        assert lines[0] == ("model,L_h,L_f,d_m,batch,time_ms_median,"
                            "forward_ms_median,peak_bytes,macs,graph_depth")
        assert len(lines) == 5
        assert lines[1].startswith("TPGN,48,48,8,2,")

    def test_rerun_appends_versioned_file(self, tmp_path):
        target = tmp_path / "bench.csv"
        _, first = sweep([quick("TPGN")], target)
        _, second = sweep([quick("TPGN")], target)
        assert first != second
        assert first.exists() and second.exists()
        assert second.name == "bench.1.csv"

    def test_failed_scenario_still_emits_row(self, tmp_path):
        bad = quick("TPGN", l_h=50)  # 50 is not a multiple of the period
        records, path = sweep([bad, quick("PGN-raw")], tmp_path / "bench.csv")
        assert not records[0].ok and records[1].ok
        lines = path.read_text().splitlines()
        assert "failed" in lines[1]
        assert lines[1].count(",") == lines[0].count(",")
        assert len(lines) == 3


class TestScaling:
    def test_balanced_factors(self):
        assert balanced_factors(168) == (12, 14)
        assert balanced_factors(672) == (24, 28)
        assert balanced_factors(2688) == (48, 56)
        assert balanced_factors(49) == (7, 7)

    def test_per_layer_macs_scale_sublinearly(self):
        slope, per_layer = per_layer_scaling_exponent([168, 672, 2688])
        assert len(per_layer) == 3
        assert per_layer[0] < per_layer[1] < per_layer[2]
        assert slope <= 0.6

    def test_versioned_path(self, tmp_path):
        p = tmp_path / "x.csv"
        assert versioned_path(p) == p
        p.write_text("a")
        assert versioned_path(p).name == "x.1.csv"
