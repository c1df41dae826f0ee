#!/usr/bin/env python3
"""Efficiency story in three measurements.

1. Wall clock: the parallel cell computes all steps as a few matrix
   products, the recurrent cell walks them one by one.
2. Cost scaling: on a near-square periods-by-phase grid both branch
   widths grow like sqrt(L), and a log-log fit of per-layer work confirms
   the exponent.
3. Memory: the tape's own count, the highest live total of the arrays
   a training step holds or hands out (repeatable, and not process RSS).

Shapes here are trimmed so the script finishes in about a minute; pass
--full for the benchmark-protocol sizes (d_m=128, batch=32, L up to 1440).
"""

import sys

from tpgn.bench import (BenchScenario, per_layer_scaling_exponent,
                        run_scenario, sweep)

full = "--full" in sys.argv
d_m, batch, length = (128, 32, 1440) if full else (32, 4, 480)

print(f"forward wall clock at L={length}, d_m={d_m}, batch={batch}:")
shape = dict(l_h=length, l_f=length, d_m=d_m, batch=batch, repeat=3, warmup=1)
records = {}
for model in ("PGN-raw", "GRU-seq"):
    records[model] = run_scenario(BenchScenario(model, **shape))
    r = records[model]
    print(f"  {model:>8}: forward {r.forward_ms_median:8.1f} ms | "
          f"train step {r.time_ms_median:8.1f} ms | depth {r.graph_depth:>5} | "
          f"peak {r.peak_bytes / 1e6:7.1f} MB")
ratio = records["GRU-seq"].forward_ms_median / records["PGN-raw"].forward_ms_median
print(f"  parallel cell is {ratio:.1f}x faster forward at these shapes\n")

lengths = [168, 672, 2688]
slope, per_layer = per_layer_scaling_exponent(lengths, d_m=d_m)
print(f"per-layer multiply-accumulates on near-square grids (d_m={d_m}):")
for l, macs in zip(lengths, per_layer):
    print(f"  L_h={l:>5}: {macs:>9} MACs")
print(f"  log-log slope {slope:.3f}  (sqrt-growth would be 0.5, linear 1.0)\n")

print("two-branch model train-step sweep (output length varies):")
scenarios = [BenchScenario("TPGN", l_h=168, l_f=l_f, d_m=d_m, batch=batch,
                           repeat=3, warmup=1)
             for l_f in ([168, 336, 720, 1440] if full else [48, 96, 168])]
rows, path = sweep(scenarios, None)
for r in rows:
    print(f"  L_f={r.scenario.l_f:>5}: step {r.time_ms_median:7.1f} ms | "
          f"{r.macs:>12} MACs | depth {r.graph_depth}")
print("depth stays flat as the horizon grows; cost grows in the head only")
