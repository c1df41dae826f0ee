"""Wall-clock, memory and cost measurements on synthetic data.

Each scenario times one training step (tracked forward plus backward) and
one tracked forward of a model kind at given history/horizon lengths,
reporting the median over repeats after warmup.  ``peak_bytes`` is the
tape's own byte counter, not process RSS: the cumulative bytes of the
arrays the tape has seen, so it is not a peak, though identical steps
report identical totals.
Multiply-accumulate counts come from the closed-form cost formulas.
The gated-cell and recurrent scenarios run one call per sequence of the
batch.  Scenarios run strictly one at a time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import baselines
from .errors import ConfigError, ContractError
from .model import (SeriesWindow, TpgnConfig, TpgnParams, flop_count,
                    stack_targets, tpgn_forward_batch, tpgn_graph_depth)

__all__ = [
    "BenchScenario",
    "BenchRecord",
    "run_scenario",
    "sweep",
    "versioned_path",
    "balanced_factors",
    "per_layer_scaling_exponent",
]

MODEL_KINDS = ("TPGN", "PGN-raw", "GRU-seq", "LSTM-seq")
_BARE_CELLS = {"PGN-raw": "pgn", "GRU-seq": "gru", "LSTM-seq": "lstm"}
CSV_HEADER = ("model,L_h,L_f,d_m,batch,time_ms_median,forward_ms_median,"
              "peak_bytes,macs,graph_depth")


@dataclass
class BenchScenario:
    model: str
    l_h: int
    l_f: int
    d_m: int = 128
    batch: int = 32
    repeat: int = 5
    warmup: int = 2
    period: int = 24
    seed: int = 2023

    def __post_init__(self):
        if self.model not in MODEL_KINDS:
            raise ConfigError(f"model must be one of {MODEL_KINDS}, got {self.model!r}")
        if self.repeat < 3:
            raise ConfigError(f"repeat must be >= 3, got {self.repeat}")
        if self.warmup < 1:
            raise ConfigError(f"warmup must be >= 1, got {self.warmup}")
        if self.l_h < 2 or self.l_f < 1 or self.d_m < 1 or self.batch < 1:
            raise ConfigError("scenario sizes must be positive (l_h >= 2)")


@dataclass
class BenchRecord:
    scenario: BenchScenario
    time_ms_median: float = 0.0      # one training step: tracked forward + backward
    forward_ms_median: float = 0.0   # tracked forward only
    peak_bytes: int = 0
    macs: int = 0
    graph_depth: int = 0
    ok: bool = True
    error: str = ""

    def csv_row(self) -> str:
        s = self.scenario
        return (f"{s.model},{s.l_h},{s.l_f},{s.d_m},{s.batch},"
                f"{self.time_ms_median:.3f},{self.forward_ms_median:.3f},"
                f"{self.peak_bytes},{self.macs},{self.graph_depth}")


def _tpgn_setup(s: BenchScenario):
    rng = np.random.default_rng(s.seed)
    params = TpgnParams.init(s.l_h, s.l_f, s.period, 4, s.d_m, rng)
    cfg = TpgnConfig(norm=0, period=s.period)
    windows = [SeriesWindow(x_1d=rng.uniform(-1, 1, s.l_h),
                            tf_enc=rng.uniform(-0.5, 0.5, (s.l_h, 4)),
                            y_true=rng.uniform(-1, 1, s.l_f))
               for _ in range(s.batch)]
    targets = stack_targets(windows)

    def forward(graph):
        leaves = params.leaf_into(graph)
        return tpgn_forward_batch(windows, params, cfg, weights=leaves)

    def loss_of(out):
        diff = ad.sub(out, ad.constant(targets))
        return ad.reduce_mean(ad.mul(diff, diff))

    macs = s.batch * flop_count(params, s.l_h, s.l_f).total
    depth = tpgn_graph_depth(params, cfg)
    return forward, loss_of, macs, depth


def _cell_setup(s: BenchScenario):
    """A bare cell over single-channel sequences, called once per sequence."""
    rng = np.random.default_rng(s.seed)
    kind = _BARE_CELLS[s.model]
    cell = baselines.CELLS[kind]
    params = baselines.new_cell(kind, s.l_h, 1, s.d_m, rng)
    macs = cell.macs(s.l_h, 1, s.d_m)
    depth = baselines.sequence_graph_depth(params, s.l_h)
    xs = [rng.uniform(-1, 1, (s.l_h, 1)) for _ in range(s.batch)]

    def forward(graph):
        w = params.leaf_into(graph)
        return ad.concat([cell.apply(ad.constant(x[None]), w) for x in xs], axis=0)

    def loss_of(out):
        return ad.reduce_mean(ad.mul(out, out))

    return forward, loss_of, s.batch * macs, depth


def run_scenario(s: BenchScenario) -> BenchRecord:
    """Measure one scenario; an out-of-memory failure is recorded, not raised."""
    try:
        setup = _tpgn_setup if s.model == "TPGN" else _cell_setup
        forward, loss_of, macs, depth = setup(s)

        def train_step() -> ad.Graph:
            graph = ad.Graph()
            out = forward(graph)
            ad.backward(loss_of(out))
            return graph

        def forward_only() -> ad.Graph:
            graph = ad.Graph()
            forward(graph)
            return graph

        for _ in range(s.warmup):
            train_step()
        step_times = []
        peak = 0
        for _ in range(s.repeat):
            t0 = time.perf_counter()
            graph = train_step()
            step_times.append((time.perf_counter() - t0) * 1e3)
            peak = max(peak, graph.peak_bytes)
        fwd_times = []
        for _ in range(s.repeat):
            t0 = time.perf_counter()
            forward_only()
            fwd_times.append((time.perf_counter() - t0) * 1e3)
        return BenchRecord(scenario=s,
                           time_ms_median=statistics.median(step_times),
                           forward_ms_median=statistics.median(fwd_times),
                           peak_bytes=peak, macs=macs, graph_depth=depth)
    except MemoryError as exc:
        return BenchRecord(scenario=s, ok=False, error=f"out of memory: {exc}")


def versioned_path(path):
    """``path`` if free, else path.1, path.2, ... - never overwrites."""
    import pathlib

    p = pathlib.Path(path)
    if not p.exists():
        return p
    n = 1
    while True:
        candidate = p.with_name(f"{p.stem}.{n}{p.suffix}")
        if not candidate.exists():
            return candidate
        n += 1


def sweep(scenarios, out_path=None) -> tuple[list[BenchRecord], "object | None"]:
    """Run scenarios serially; emit one CSV row each (failures included)."""
    from .errors import TpgnError

    records = []
    for s in scenarios:
        try:
            records.append(run_scenario(s))
        except TpgnError as exc:
            records.append(BenchRecord(scenario=s, ok=False, error=str(exc)))
    written = None
    if out_path is not None:
        written = versioned_path(out_path)
        with open(written, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in records:
                if r.ok:
                    fh.write(r.csv_row() + "\n")
                else:
                    s = r.scenario
                    fh.write(f"{s.model},{s.l_h},{s.l_f},{s.d_m},{s.batch},"
                             + ",".join(["failed"] * 5) + "\n")
    return records, written


# ---------------------------------------------------------------------------
# cost scaling

def balanced_factors(n: int) -> tuple[int, int]:
    """(rows, period) with rows*period = n and rows the largest factor <= sqrt(n)."""
    if n < 1:
        raise ContractError(f"need a positive length, got {n}")
    r = int(np.sqrt(n))
    while r >= 1:
        if n % r == 0:
            return r, n // r
        r -= 1
    raise ContractError(f"unreachable for {n}")  # pragma: no cover


def per_layer_scaling_exponent(l_h_list, d_m: int = 128, c_time: int = 4,
                               ) -> tuple[float, list[int]]:
    """Log-log slope of per-layer multiply-accumulates versus history length.

    Each length is factored into a near-square rows x period grid (horizon
    length tied to the history so the head shrinks with the period count),
    which is the regime where both branch widths grow like sqrt(L).
    """
    per_layer = []
    for l_h in l_h_list:
        rows, period = balanced_factors(l_h)
        params = TpgnParams.init(l_h, l_h, period, c_time, d_m,
                                 np.random.default_rng(0))
        per_layer.append(flop_count(params, l_h, l_h).per_layer)
    slope = float(np.polyfit(np.log(np.asarray(l_h_list, dtype=np.float64)),
                             np.log(np.asarray(per_layer, dtype=np.float64)), 1)[0])
    return slope, per_layer
