#!/usr/bin/env python3
"""End-to-end pipeline on a CSV, exactly what `tpgn train` does.

Works on any CSV with a datetime column and a numeric target column.
Without arguments it writes and consumes a synthetic sinusoid; point it
at a real dataset to reproduce a benchmark number, e.g. the hourly ETT
oil-temperature series (ETTh1.csv from github.com/zhouhaoyi/ETDataset):

    python demos/05_full_pipeline.py ETTh1.csv OT

which with the default protocol below (168 -> 168, period 24, norm on,
seed 2023) lands around 0.11 test MSE in a few minutes on a CPU.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from tpgn import TpgnParams, VARIANTS
from tpgn.data import (SplitSpec, aggregate_hourly, format_stamps, load_csv,
                       save_csv, split_and_window, synthetic_sinusoid)
from tpgn.training import TrainConfig, evaluate, fit, write_epoch_log

if len(sys.argv) >= 3:
    csv_path, target = Path(sys.argv[1]), sys.argv[2]
    norm = 1
else:
    print("no dataset given; generating a synthetic one "
          "(usage: 05_full_pipeline.py data.csv TARGET_COLUMN)")
    csv_path = Path(tempfile.gettempdir()) / "tpgn_demo_sinusoid.csv"
    save_csv(synthetic_sinusoid(3000, period=24.0, noise=0.05, seed=1), csv_path)
    target, norm = "value", 0

print(f"loading {csv_path} (target {target!r})")
series = aggregate_hourly(load_csv(csv_path, target))
first, last = format_stamps(series.timestamps[[0, -1]])
print(f"hourly series: {len(series)} points, {first} .. {last}")

cfg = TrainConfig(l_h=168, l_f=168, period=24, d_m=64, norm=norm,
                  max_epochs=10, patience=5)
train_w, val_w, test_w = split_and_window(series, SplitSpec(cfg.l_h, cfg.l_f))
print(f"windows: {len(train_w)} train / {len(val_w)} val / {len(test_w)} test")

params = TpgnParams.init(cfg.l_h, cfg.l_f, cfg.period, 4, cfg.d_m,
                         np.random.default_rng(cfg.seed), VARIANTS[cfg.variant])
ckpt, log = fit(params, train_w, val_w, cfg)
for r in log:
    print(f"  epoch {r.epoch:>2}: train {r.train_loss:.5f}  "
          f"val {r.val_loss:.5f}  ({r.elapsed_seconds:.1f}s)")

metrics = evaluate(ckpt, test_w)
print(f"test MSE {metrics['mse']:.4f}  MAE {metrics['mae']:.4f} "
      f"(best val {ckpt.best_val_loss:.5f} at epoch {ckpt.epoch})")

out_dir = Path(tempfile.gettempdir())
ckpt.save(out_dir / "tpgn_demo.ckpt")
write_epoch_log(out_dir / "tpgn_demo_log.csv", log)
print(f"checkpoint and epoch log written under {out_dir}")
