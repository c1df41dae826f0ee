"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them inline).

Criteria 7 and 8 need the ETTh1 CSV, which is not bundled; point
TPGN_ETTH1 at the file (or drop it at data/ETTh1.csv) to activate them.
They are skipped, never silently passed, when the data is absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import tpgn
from tpgn import data as data_mod
from tpgn import training
from tpgn.bench import BenchScenario, forward_ms_median, per_layer_scaling_exponent
from tpgn.baselines import GruParams, sequence_graph_depth
from tpgn.cli import main as cli_main
from tpgn.model import (VARIANTS, TpgnConfig, TpgnParams,
                        finite_diff_all_params, tpgn_graph_depth)
from tpgn.pgn import PgnParams, pgn_forward, pgn_forward_oracle


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def test_criterion_1_oracle_equivalence():
    """Batched cell forward matches the literal per-step oracle to 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2023)
    worst = 0.0
    for _ in range(100):
        L = int(rng.integers(2, 65))
        c = int(rng.integers(1, 4))
        d = int(rng.integers(1, 17))
        params = PgnParams.init(L, c, d, rng)
        x = rng.uniform(-1, 1, (L, c))
        fast = pgn_forward(x, params)
        slow = pgn_forward_oracle(x, params)
        for field in ("history", "gate", "candidate", "output"):
            diff = np.max(np.abs(getattr(fast, field).data - getattr(slow, field).data))
            worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(1, ok, f"oracle equivalence: max |diff| {worst:.3e} over 100 instances "
                   f"in {elapsed:.1f}s (bound 1e-12, 10s)")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_gradient_suite():
    """Finite differences confirm every parameter gradient end to end."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    params = TpgnParams.init(8, 8, 4, 1, 2, rng)
    window = tpgn.SeriesWindow(x_1d=rng.uniform(-1, 1, 8),
                               tf_enc=rng.uniform(-0.5, 0.5, (8, 1)),
                               y_true=rng.uniform(-1, 1, 8))
    errors = finite_diff_all_params(window, params, TpgnConfig(norm=1, period=4))
    elapsed = time.perf_counter() - t0
    worst = max(errors.values())
    ok = worst < 1e-5 and elapsed < 60.0
    _report(2, ok, f"gradient suite: {len(errors)} parameter tensors, max rel "
                   f"error {worst:.3e} in {elapsed:.1f}s (bound 1e-5, 60s)")
    assert worst < 1e-5, errors
    assert elapsed < 60.0


def test_criterion_3_path_length():
    """Cell/model graph depth is flat in L; the recurrent chain is not."""
    rng = np.random.default_rng(1)
    pgn_depths = [sequence_graph_depth(PgnParams.init(L, 1, 4, rng), L)
                  for L in (8, 64, 512)]
    tpgn_depths = []
    for l_h in (8, 64, 512):
        params = TpgnParams.init(l_h, 8, 4, 1, 2, rng)
        tpgn_depths.append(tpgn_graph_depth(params))
    cell = GruParams.init(1, 4, rng)
    gru_depths = {L: sequence_graph_depth(cell, L) for L in (8, 64, 512)}
    flat = len(set(pgn_depths)) == 1 and len(set(tpgn_depths)) == 1
    per_step = (gru_depths[512] - gru_depths[8]) / (512 - 8)
    growing = all(gru_depths[L] >= L for L in gru_depths) and per_step >= 1.0
    ok = flat and growing
    _report(3, ok, f"path length: cell depth {pgn_depths}, model depth "
                   f"{tpgn_depths} (constant); recurrent depth {gru_depths} "
                   f"grows >= 1 op per step")
    assert flat
    assert growing


def test_criterion_4_complexity_scaling():
    """Per-layer cost grows like sqrt(L) on near-square grids."""
    lengths = [168, 672, 2688]
    slope, per_layer = per_layer_scaling_exponent(lengths, d_m=128, c_time=4)
    ok = slope <= 0.6
    _report(4, ok, f"complexity: per-layer MACs {per_layer} over L_h {lengths}, "
                   f"log-log slope {slope:.3f} (bound 0.6)")
    assert slope <= 0.6


def test_criterion_5_practical_speed():
    """Parallel cell forward beats the sequential recurrence wall-clock."""
    shape = dict(l_h=1440, l_f=1440, d_m=128, batch=32, repeat=3, warmup=1)
    pgn_ms = forward_ms_median(BenchScenario("PGN-raw", **shape))
    gru_ms = forward_ms_median(BenchScenario("GRU-seq", **shape))
    ratio = gru_ms / pgn_ms
    ok = ratio > 1.0
    _report(5, ok, f"practical speed at L=1440, d_m=128, batch=32: parallel "
                   f"forward {pgn_ms:.0f} ms vs sequential {gru_ms:.0f} ms, ratio "
                   f"{ratio:.1f}x (hard floor 1.0x, expected >= 2x)")
    assert ratio > 1.0


def _fit_sinusoid(variant: str, drift: float) -> float:
    series = data_mod.synthetic_sinusoid(2200, period=24.0, phase_drift=drift)
    train_w, val_w, test_w = data_mod.split_and_window(
        series, data_mod.SplitSpec(l_h=168, l_f=168))
    # 31 optimizer steps per epoch, 6 epochs: 186 steps, inside the budget
    cfg = training.TrainConfig(l_h=168, l_f=168, period=24, d_m=32, norm=0,
                               max_epochs=6, patience=6, variant=variant)
    steps = ((len(train_w) + cfg.batch_size - 1) // cfg.batch_size) * cfg.max_epochs
    assert steps <= 200, steps
    params = TpgnParams.init(168, 168, 24, 4, 32,
                             np.random.default_rng(cfg.seed), VARIANTS[variant])
    ckpt, _ = training.fit(params, train_w, val_w, cfg)
    return training.evaluate(ckpt, test_w)["mse"]


def test_criterion_6_synthetic_forecasting():
    """Periodic signals are learned within 200 steps; the long branch is
    what tracks a drifting phase."""
    full = _fit_sinusoid("full", drift=0.0)
    long_only = _fit_sinusoid("long", drift=0.0)
    long_drift = _fit_sinusoid("long", drift=0.01)
    short_drift = _fit_sinusoid("short", drift=0.01)
    ratio = short_drift / long_drift
    ok = full < 1e-2 and long_only < 1e-2 and ratio >= 5.0
    _report(6, ok, f"synthetic sinusoid: full MSE {full:.2e}, long-only "
                   f"{long_only:.2e} (bound 1e-2); drifting phase: short-only "
                   f"{short_drift:.2e} vs long-only {long_drift:.2e}, ratio "
                   f"{ratio:.0f}x (bound 5x)")
    assert full < 1e-2
    assert long_only < 1e-2
    assert ratio >= 5.0


def _etth1_path():
    env = os.environ.get("TPGN_ETTH1")
    if env:
        p = Path(env)
        if p.exists():
            return p
    for candidate in (Path("data/ETTh1.csv"),
                      Path(__file__).resolve().parent.parent / "data" / "ETTh1.csv"):
        if candidate.exists():
            return candidate
    return None


_ETTH1_SKIP = ("ETTh1.csv not found: set TPGN_ETTH1 or place the file at "
               "data/ETTh1.csv (hourly ETT benchmark CSV with columns "
               "date,...,OT; see github.com/zhouhaoyi/ETDataset). This "
               "environment has no dataset egress, so the criterion runs "
               "only where the data is supplied.")


def _train_etth1(path, out_dir, noise_eps=0.0):
    args = ["train", "--data", str(path), "--target", "OT",
            "--lh", "168", "--lf", "168", "--period", "24", "--norm", "1",
            "--dm", "64", "--seed", "2023", "--out", str(out_dir)]
    if noise_eps:
        args += ["--noise-eps", str(noise_eps)]
    assert cli_main(args) == 0
    text = (Path(out_dir) / "metrics.csv").read_text().splitlines()[1]
    mse_value, _ = text.split(",")
    return float(mse_value)


@pytest.mark.slow
def test_criterion_7_etth1_reproduction(tmp_path):
    """Desk-scale benchmark run: hourly OT series, 168 -> 168."""
    path = _etth1_path()
    if path is None:
        _report(7, True, "etth1 reproduction: SKIPPED (dataset not supplied)")
        pytest.skip(_ETTH1_SKIP)
    mse_value = _train_etth1(path, tmp_path / "etth1")
    ok = mse_value <= 0.125
    _report(7, ok, f"etth1 168->168 (norm=1, P=24, seed 2023): test MSE "
                   f"{mse_value:.4f} (bound 0.125)")
    assert mse_value <= 0.125


@pytest.mark.slow
def test_criterion_8_noise_robustness(tmp_path):
    """10% training noise moves the ETTh1 test error by less than 10%."""
    path = _etth1_path()
    if path is None:
        _report(8, True, "noise robustness: SKIPPED (dataset not supplied)")
        pytest.skip(_ETTH1_SKIP)
    clean = _train_etth1(path, tmp_path / "clean")
    noisy = _train_etth1(path, tmp_path / "noisy", noise_eps=0.10)
    degradation = (noisy - clean) / clean
    ok = degradation < 0.10
    _report(8, ok, f"noise robustness: clean MSE {clean:.4f}, eps=10% MSE "
                   f"{noisy:.4f}, degradation {degradation * 100:.1f}% (bound 10%)")
    assert degradation < 0.10


def test_criterion_9_determinism(tmp_path):
    """Identical manifests give identical logged numbers, bit for bit."""
    data_path = tmp_path / "data.csv"
    assert cli_main(["synth", "--out", str(data_path), "--hours", "900"]) == 0
    out = tmp_path / "run"
    args = ["train", "--data", str(data_path), "--target", "value",
            "--out", str(out), "--lh", "48", "--lf", "24", "--dm", "8",
            "--max-epochs", "3", "--patience", "3"]
    assert cli_main(args) == 0
    assert cli_main(args) == 0

    manifest_same = (out / "manifest.txt").read_text() == \
        (out / "manifest.1.txt").read_text()

    def logged_numbers(name):
        # epoch, train_loss, val_loss; the wall-clock column is excluded
        lines = (out / name).read_text().splitlines()
        return [",".join(line.split(",")[:3]) for line in lines]

    logs_same = logged_numbers("epoch_log.csv") == logged_numbers("epoch_log.1.csv")
    metrics_same = (out / "metrics.csv").read_bytes() == \
        (out / "metrics.1.csv").read_bytes()
    ok = manifest_same and logs_same and metrics_same
    _report(9, ok, "determinism: repeated run reproduces manifest, epoch losses "
                   "and metrics bitwise (wall-clock column excluded)")
    assert manifest_same
    assert logs_same
    assert metrics_same
