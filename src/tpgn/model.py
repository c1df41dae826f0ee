"""Two-branch forecaster over a period-reshaped series.

A history of length L_h is cut into R consecutive periods of length P and
stacked into a grid of shape [R, P, c] where element (r, p, channel) is
1-D timestep t = r*P + p; channel 0 is the (optionally normalized) target
value and the remaining channels are calendar features.

Two branches read the grid:

* long branch - each of the P grid columns is a length-R sequence sampled
  one period apart; the long-branch cell (the parallel gated cell, or a
  GRU/LSTM/MLP from the cell table, weights shared across columns) turns
  it into R hidden states, which a shared length-R weight
  vector collapses to one vector per column -> [P, hidden].
* short branch - each grid row (one full period) is flattened and mapped
  to a patch vector; a second length-R weight vector collapses the
  patches to one global vector, repeated P times -> [P, hidden].

The head concatenates both branches per column and maps each column to
its R_f future values (weights shared across columns by default, one map
per phase, run as one stacked product, when head sharing is off).  The
resulting [P, R_f] grid is transposed and flattened so output index
i = r_f*P + p, then de-normalized back to original units when
normalization is on.

Everything here is pure in (windows, params) and batch-first:
:func:`prepare_input` turns a batch of windows into one grid tensor
[B, R, P, c] plus the batch's normalization stats, and the branches and
the head each run the whole batch through the same handful of matrix
products.  There is one forward over that tensor: training, evaluation
and the benchmark feed it constant grids, and the depth probe feeds it a
tracked one.  The parameters hold only the weights their variant uses,
and the variant is read off them.

The forward has two paths, each covering every variant and both head
modes.  A tracked pass runs the taped branch and head functions over
every column, because anything else would sum each weight gradient in
another order.  An untracked pass (:func:`_blocked_head`) exploits that
the long branch's column sequences are independent and that windows cut
one step apart share them: column p of window i+1 is column p+1 of
window i, so N consecutive windows hold N+P-1 distinct columns, not N*P.
It finds these repeats by comparing the values (shuffled batches and
norm=1 grids have none), gathers each distinct column from the grid and
runs it once, in cache-sized blocks (:func:`autodiff.sequence_blocks`),
and maps cache-sized blocks of windows through the head without building
the [B*P, 2d] joint array.  No GEMM crosses OpenBLAS's small-matrix limit
and no GEMV is split, so the result is byte-equal to the tracked pass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import baselines
from .autodiff import Graph, ParamSet, Tensor, fan_in_uniform
from .errors import ConfigError, ContractError, DimensionError

__all__ = [
    "SeriesWindow",
    "NormStats",
    "TpgnVariant",
    "TpgnParams",
    "TpgnConfig",
    "VARIANTS",
    "FlopCount",
    "prepare_input",
    "stack_grid",
    "stack_targets",
    "long_branch",
    "short_branch",
    "forecast_head",
    "tpgn_forward",
    "tpgn_forward_batch",
    "param_count",
    "flop_count",
    "finite_diff_all_params",
    "tpgn_graph_depth",
]

logger = logging.getLogger(__name__)

SIGMA_FLOOR = 1e-5  # smallest sigma a history window is normalized with


@dataclass
class SeriesWindow:
    """One training sample: history, calendar features and future targets.

    Values are kept in original units; :func:`prepare_input` normalizes
    each window's history by its own moments.  Float64 arrays are kept as
    given (views, for the windows of a split); :func:`prepare_input` and
    :func:`stack_targets` reject NaN or Inf once per stacked batch.
    """

    x_1d: np.ndarray    # [L_h]
    tf_enc: np.ndarray  # [L_h, C_time], already scaled to [-0.5, 0.5]
    y_true: np.ndarray  # [L_f]

    def __post_init__(self):
        self.x_1d = np.asarray(self.x_1d, dtype=np.float64)
        self.tf_enc = np.asarray(self.tf_enc, dtype=np.float64)
        self.y_true = np.asarray(self.y_true, dtype=np.float64)
        if self.x_1d.ndim != 1 or self.y_true.ndim != 1:
            raise DimensionError("x_1d and y_true must be 1-D")
        if self.tf_enc.ndim != 2 or self.tf_enc.shape[0] != self.x_1d.shape[0]:
            raise DimensionError(
                f"tf_enc shape {self.tf_enc.shape} does not match history length "
                f"{self.x_1d.shape[0]}")

    @property
    def l_h(self) -> int:
        return self.x_1d.shape[0]

    @property
    def l_f(self) -> int:
        return self.y_true.shape[0]

    @property
    def c_time(self) -> int:
        return self.tf_enc.shape[1]


@dataclass
class NormStats:
    """Normalization state of a batch: population moments of each history."""

    mu: np.ndarray     # [B]
    sigma: np.ndarray  # [B], floored at SIGMA_FLOOR


_LONG_KINDS = (*baselines.CELLS, "off")


@dataclass(frozen=True)
class TpgnVariant:
    """Which cell drives the long branch, and whether the short branch runs."""

    long_branch: str = "pgn"
    short_branch: bool = True

    def __post_init__(self):
        if self.long_branch not in _LONG_KINDS:
            raise ConfigError(
                f"long_branch must be one of {_LONG_KINDS}, got {self.long_branch!r}")
        if self.long_branch == "off" and not self.short_branch:
            raise ConfigError("at least one branch must be active")

    def __str__(self) -> str:
        return (f"long-branch cell {self.long_branch}, short branch "
                f"{'on' if self.short_branch else 'off'}")


VARIANTS = {
    "full": TpgnVariant("pgn", True),
    "long": TpgnVariant("pgn", False),
    "short": TpgnVariant("off", True),
    "gru": TpgnVariant("gru", True),
    "lstm": TpgnVariant("lstm", True),
    "mlp": TpgnVariant("mlp", True),
}


@dataclass
class TpgnParams(ParamSet):
    """The forecaster's live weights plus its structural sizes.

    ``cell`` (any kind in :data:`baselines.CELLS`) and ``long_w``/``long_b``
    exist only when the long branch runs, ``row_*``/``col_*`` only when the
    short branch runs; :attr:`variant` is read off which are present.
    """

    rows: int          # R, periods in the history
    period: int        # P
    channels: int      # c = 1 + C_time
    hidden: int        # d_m
    horizon_rows: int  # R_f, future periods; L_f = R_f * P
    head_w: np.ndarray = None  # [R_f, 2*hidden], or [P, R_f, 2*hidden] per-phase
    head_b: np.ndarray = None  # [R_f], or [P, R_f] per-phase
    head_shared: bool = True
    cell: ParamSet | None = None
    long_w: np.ndarray | None = None  # [R], shared across columns and channels
    long_b: np.ndarray | None = None  # scalar
    row_w: np.ndarray | None = None   # [hidden, P*c]
    row_b: np.ndarray | None = None   # [hidden]
    col_w: np.ndarray | None = None   # [R]
    col_b: np.ndarray | None = None   # scalar

    @classmethod
    def init(cls, l_h: int, l_f: int, period: int, c_time: int, hidden: int,
             rng: np.random.Generator, variant: TpgnVariant = VARIANTS["full"],
             head_shared: bool = True) -> "TpgnParams":
        """Draw the live weights in one order: head, cell, long, row, col."""
        if period < 1:
            raise ConfigError(f"period must be positive, got {period}")
        if l_h % period:
            raise ConfigError(f"history length {l_h} is not a multiple of period {period}")
        if l_f % period:
            raise ConfigError(f"horizon length {l_f} is not a multiple of period {period}")
        rows = l_h // period
        if rows < 2:
            raise ConfigError(
                f"history must span at least 2 periods, got {rows} (l_h={l_h}, P={period})")
        if c_time < 0 or hidden < 1:
            raise ConfigError(f"need c_time >= 0 and hidden >= 1, got {c_time}, {hidden}")
        channels = 1 + c_time
        params = cls(rows, period, channels, hidden, l_f // period,
                     head_shared=head_shared)
        head = params.shapes()["head_w"]
        params.head_w, params.head_b = fan_in_uniform(rng, *head), np.zeros(head[:-1])
        if variant.long_branch != "off":
            params.cell = baselines.new_cell(variant.long_branch, rows, channels,
                                             hidden, rng)
            params.long_w, params.long_b = fan_in_uniform(rng, rows), np.zeros(())
        if variant.short_branch:
            params.row_w = fan_in_uniform(rng, hidden, period * channels)
            params.row_b = np.zeros(hidden)
            params.col_w, params.col_b = fan_in_uniform(rng, rows), np.zeros(())
        return params

    def shapes(self) -> dict[str, tuple[int, ...]]:
        head = (self.horizon_rows, 2 * self.hidden)
        if not self.head_shared:
            head = (self.period, *head)
        out = {"head_w": head, "head_b": head[:-1]}
        if self.cell is not None:
            out.update({f"cell.{k}": v for k, v in self.cell.shapes().items()})
            out.update(long_w=(self.rows,), long_b=())
        if self.row_w is not None:
            out.update(row_w=(self.hidden, self.period * self.channels),
                       row_b=(self.hidden,), col_w=(self.rows,), col_b=())
        return out

    def validate(self) -> None:
        super().validate()
        grid = {"seq_len": self.rows, "in_channels": self.channels, "hidden": self.hidden}
        if self.cell is not None and any(getattr(self.cell, k, v) != v
                                         for k, v in grid.items()):
            raise DimensionError("cell sizes disagree with the grid structure")
        live = self.shapes()
        # row_w is not listed: its presence is what turns the short branch on
        for name in ("long_w", "long_b", "row_b", "col_w", "col_b"):
            if getattr(self, name) is not None and name not in live:
                raise DimensionError(f"{name} is set but its branch does not run")

    @property
    def variant(self) -> TpgnVariant:
        """The variant these weights implement."""
        kind = "off" if self.cell is None else baselines.cell_kind(self.cell)
        return TpgnVariant(kind, self.row_w is not None)

    @property
    def l_h(self) -> int:
        return self.rows * self.period

    @property
    def l_f(self) -> int:
        return self.horizon_rows * self.period


@dataclass
class TpgnConfig:
    """Behavioral switches of a forward pass."""

    norm: int = 0
    period: int = 24
    variant: TpgnVariant = field(default_factory=lambda: VARIANTS["full"])

    def __post_init__(self):
        if self.norm not in (0, 1):
            raise ConfigError(f"norm must be 0 or 1, got {self.norm}")
        if self.period < 1:
            raise ConfigError(f"period must be positive, got {self.period}")


# ---------------------------------------------------------------------------
# input preparation

def prepare_input(windows, norm: int, period: int,
                  ) -> tuple[np.ndarray, NormStats | None]:
    """Normalize each history and stack the batch into grids [B, R, P, c].

    The batch is written once, into the one buffer of :func:`stack_grid`,
    and channel 0 is normalized in place.  The moments use the population
    divisor L_h.  Under norm=1 a constant or near-constant history (sigma
    below SIGMA_FLOOR) is normalized with sigma = SIGMA_FLOOR, so rounding
    noise stays near zero instead of being blown up to unit scale; the
    number of such windows is logged.  Under norm=0 the values pass through
    unchanged and the stats are None.  A NaN or Inf in any history or time
    feature raises ContractError.
    """
    if norm not in (0, 1):
        raise ConfigError(f"norm must be 0 or 1, got {norm}")
    grid = stack_grid(windows)
    batch, l_h, c = grid.shape
    if period < 1 or l_h % period:
        raise ConfigError(f"history length {l_h} is not a multiple of period {period}")
    stats = None
    if norm == 1:
        x = grid[:, :, 0]
        mu = x.mean(axis=1)
        dev = x - mu[:, None]
        sigma = np.sqrt((dev ** 2).mean(axis=1))
        flat = np.count_nonzero(sigma < SIGMA_FLOOR)
        if flat:
            logger.warning("%d of %d history windows are near-constant (sigma < %g); "
                           "normalizing them with sigma=%g", flat, batch,
                           SIGMA_FLOOR, SIGMA_FLOOR)
        stats = NormStats(mu, np.maximum(sigma, SIGMA_FLOOR))
        np.divide(dev, stats.sigma[:, None], out=x)
    return grid.reshape(batch, l_h // period, period, c), stats


def stack_grid(windows) -> np.ndarray:
    """The batch's histories and time features in one array [B, L_h, 1+C_time].

    Channel 0 is the history.  Windows of unequal lengths raise ConfigError,
    a NaN or Inf raises ContractError.
    """
    if not windows:
        raise ContractError("empty window batch")
    first = windows[0]
    grid = np.empty((len(windows), first.l_h, 1 + first.c_time))
    try:
        np.stack([w.x_1d for w in windows], out=grid[:, :, 0])
        np.stack([w.tf_enc for w in windows], out=grid[:, :, 1:])
    except ValueError:
        raise ConfigError("windows of one batch differ in history length or "
                          "time features") from None
    if not np.isfinite(grid).all():
        raise ContractError("history or time features contain NaN or Inf")
    return grid


def stack_targets(windows) -> np.ndarray:
    """The batch's targets [B, L_f].  An empty batch or a NaN or Inf raises
    ContractError, windows of unequal horizons raise ConfigError."""
    if not windows:
        raise ContractError("empty window batch")
    try:
        y = np.stack([w.y_true for w in windows])
    except ValueError:
        raise ConfigError("windows of one batch differ in horizon length") from None
    if not np.isfinite(y).all():
        raise ContractError("targets contain NaN or Inf")
    return y


# ---------------------------------------------------------------------------
# branches and head over a grid tensor [B, R, P, c].  The grid is constant
# for forecasting and a tracked leaf for depth probing; on a constant grid
# the reshapes and permutes that regroup it record nothing.

def _cell_keys(w: dict[str, Tensor], prefix: str) -> dict[str, Tensor]:
    cut = len(prefix)
    return {k[cut:]: v for k, v in w.items() if k.startswith(prefix)}


def _collapse_rows(x: Tensor, groups: int, rows: int, weight: Tensor,
                   bias: Tensor) -> Tensor:
    """Weighted sum over the R axis: x [groups*R, d], rows group-major ->
    [groups, d], one matmul for every group and channel."""
    d = x.shape[1]
    by_step = ad.permute(ad.reshape(x, (groups, rows, d)), (1, 0, 2))
    flat = ad.reshape(by_step, (rows, groups * d))
    agg = ad.matmul(ad.reshape(weight, (1, rows)), flat)
    return ad.add(ad.reshape(agg, (groups, d)), bias)


def _first_columns(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of the columns [B, P, R, c] run, and where each one's summary is.

    Window i continues window i-1 when its columns 0..P-2 equal the
    predecessor's columns 1..P-1 bit for bit (so -0.0 never stands in for
    0.0), as for windows cut one step apart from one series.  Column p of window i then repeats column
    p+k of window i-k, k = min(windows since the run began, P-1-p), so only
    the columns with k = 0 run.  Returns their flat (b, p)-major indices and,
    for every column, the position of its source among them.
    """
    b, period = cols.shape[:2]
    bits = cols.view(np.uint64)
    follows = np.zeros(b, dtype=bool)
    follows[1:] = (bits[1:, :-1] == bits[:-1, 1:]).all(axis=(1, 2, 3))
    i = np.arange(b)
    since = i - np.maximum.accumulate(np.where(follows, 0, i))
    k = np.minimum(since[:, None], np.arange(period - 1, -1, -1))
    first = (k == 0).ravel()
    source = (i[:, None] - k) * period + np.arange(period) + k
    return np.flatnonzero(first), (np.cumsum(first) - 1)[source.ravel()]


def long_branch(grid: Tensor, w: dict[str, Tensor], kind: str) -> Tensor:
    """Column summaries [B*P, hidden] through the ``kind`` cell, rows (b, p)-major.

    One pass over every column, as training differentiates it; the
    untracked forward runs each distinct column once instead
    (:func:`_distinct_summaries`).
    """
    b, rows, period, c = grid.shape
    seqs = ad.reshape(ad.permute(grid, (0, 2, 1, 3)), (b * period, rows, c))
    cells = baselines.CELLS[kind].apply(seqs, _cell_keys(w, "cell."))
    return _collapse_rows(cells, b * period, rows, w["long_w"], w["long_b"])


def _distinct_summaries(grid: np.ndarray, w: dict[str, Tensor], kind: str,
                        ) -> tuple[np.ndarray, np.ndarray | None]:
    """Untracked: summaries [n, hidden] of the distinct columns, gathered
    from the grid (:func:`_first_columns`) and run in the cache-sized
    blocks of :func:`autodiff.sequence_blocks`, and each column's row among
    them (None when every column ran).  Every column runs when dropping the
    repeats would take the smallest GEMM under OpenBLAS's small-matrix
    limit, or at hidden = 1, where the cell's GEMVs sum by row count.
    """
    b, rows, period, c = grid.shape
    m = b * period
    apply, cell_w = baselines.CELLS[kind].apply, _cell_keys(w, "cell.")
    d = next(iter(cell_w.values())).shape[0]  # every cell weight has d rows
    cols = grid.transpose(0, 2, 1, 3)
    run, source = _first_columns(cols)
    if d > 1 and len(run) < m and ad.small_gemm(len(run) * d) == ad.small_gemm(m * d):
        todo = grid[run // period, :, run % period]
    else:
        todo, source = cols.reshape(m, rows, c), None
    out = np.empty((len(todo), d))
    for s, e in ad.sequence_blocks(len(todo), rows * d * 8, d, d):
        part = apply(ad.constant(todo[s:e]), cell_w)
        out[s:e] = _collapse_rows(part, e - s, rows, w["long_w"], w["long_b"]).data
    return out, source


def _global_vector(grid: Tensor, w: dict[str, Tensor]) -> Tensor:
    """The short branch's patch summary of each grid: [B, hidden]."""
    b, rows, period, c = grid.shape
    rows_flat = ad.reshape(grid, (b * rows, period * c))
    patches = ad.linear(rows_flat, w["row_w"], w["row_b"])  # [B*R, d]
    return _collapse_rows(patches, b, rows, w["col_w"], w["col_b"])


def short_branch(grid: Tensor, w: dict[str, Tensor]) -> Tensor:
    """Global patch summary of each grid, repeated per column: [B*P, hidden]."""
    return ad.repeat_rows(_global_vector(grid, w), grid.shape[2])


def forecast_head(h_long: Tensor, h_rep: Tensor, w: dict[str, Tensor],
                  params: TpgnParams, stats: NormStats | None, batch: int) -> Tensor:
    """Branch outputs [B*P, hidden] -> forecasts [B, L_f], index i = r_f*P + p.

    With ``stats`` the forecasts are de-normalized to sigma*y + mu per window.
    """
    period, r_f, d = params.period, params.horizon_rows, params.hidden
    joint = ad.concat([h_long, h_rep], axis=1)  # [B*P, 2d]
    if params.head_shared:
        y2d = ad.linear(joint, w["head_w"], w["head_b"])  # [B*P, R_f]
        y3 = ad.permute(ad.reshape(y2d, (batch, period, r_f)), (0, 2, 1))
    else:
        # one map per phase column: regroup the rows phase-major and run
        # the [P, R_f, 2d] weights as one stacked product
        by_phase = ad.permute(ad.reshape(joint, (batch, period, 2 * d)), (1, 0, 2))
        y3 = ad.permute(ad.linear(by_phase, w["head_w"], w["head_b"]), (1, 2, 0))
    return _forecasts(y3, stats)


def _forecasts(y3: Tensor, stats: NormStats | None) -> Tensor:
    """Head outputs [B, R_f, P] -> forecasts [B, L_f], de-normalized with ``stats``."""
    out = ad.reshape(y3, (y3.shape[0], y3.shape[1] * y3.shape[2]))
    if stats is not None:
        out = ad.add(ad.mul(out, ad.constant(stats.sigma[:, None])),
                     ad.constant(stats.mu[:, None]))
    return out


def _blocked_head(grid: np.ndarray, w: dict[str, Tensor],
                  params: TpgnParams) -> np.ndarray:
    """The untracked head's outputs [B, P, R_f], one block of windows at a time.

    Each block fills one reused [block*P, 2d] buffer, the left half from
    the distinct long summaries by index and the right half from each
    window's global vector, and maps it with one GEMM, or with one stacked
    GEMM of ``block`` rows per phase for the per-phase head.  The plan
    (:func:`autodiff.sequence_blocks`) keeps every GEMM above the
    small-matrix limit and never splits a GEMV (R_f = 1), so each row sums
    as in one product over the whole batch.
    """
    batch, period, d, r_f = grid.shape[0], params.period, params.hidden, params.horizon_rows
    variant, head_w = params.variant, w["head_w"].data
    gemm_outputs = period * r_f if params.head_shared else r_f  # per window
    blocks = ad.sequence_blocks(batch, period * 2 * d * 8, gemm_outputs, r_f)
    buf = np.zeros((max(e - s for s, e in blocks) * period, 2 * d))
    y = np.empty((batch, period, r_f))
    if variant.long_branch != "off":
        long_out, source = _distinct_summaries(grid, w, variant.long_branch)
    if variant.short_branch:
        global_vec = _global_vector(ad.constant(grid), w).data
    for s, e in blocks:
        joint, cols = buf[:(e - s) * period], slice(s * period, e * period)
        if variant.long_branch != "off":
            joint[:, :d] = long_out[cols if source is None else source[cols]]
        if variant.short_branch:
            joint.reshape(e - s, period, 2 * d)[:, :, d:] = global_vec[s:e, None]
        if params.head_shared:
            np.matmul(joint, head_w.T, out=y[s:e].reshape(-1, r_f))
        else:
            np.matmul(joint.reshape(e - s, period, 2 * d).transpose(1, 0, 2),
                      head_w.transpose(0, 2, 1), out=y[s:e].transpose(1, 0, 2))
    y += w["head_b"].data
    return y


def _forward_core(grid: Tensor, stats: NormStats | None,
                  w: dict[str, Tensor], params: TpgnParams) -> Tensor:
    """The model forward: grid [B, R, P, c] -> predictions [B, L_f].

    A tracked pass runs the branches and the head as taped ops over every
    column; an untracked one runs :func:`_blocked_head`.
    """
    batch, _, period, _ = grid.shape
    if not (grid.tracked or any(t.tracked for t in w.values())):
        y = _blocked_head(grid.data, w, params)  # [B, P, R_f]
        return _forecasts(ad.constant(y.transpose(0, 2, 1)), stats)
    zeros = ad.constant(np.zeros((batch * period, params.hidden)))
    variant = params.variant
    kind = variant.long_branch
    h_long = zeros if kind == "off" else long_branch(grid, w, kind)
    h_rep = short_branch(grid, w) if variant.short_branch else zeros
    return forecast_head(h_long, h_rep, w, params, stats, batch)


# ---------------------------------------------------------------------------
# public operations

def _check_model(params: TpgnParams, cfg: TpgnConfig) -> None:
    params.validate()
    if cfg.period != params.period:
        raise ConfigError(
            f"config period {cfg.period} does not match model period {params.period}")
    if cfg.variant != params.variant:
        raise ConfigError(f"config variant ({cfg.variant}) does not match the "
                          f"weights the model holds ({params.variant})")


def tpgn_forward(window: SeriesWindow, params: TpgnParams, cfg: TpgnConfig,
                 weights: dict[str, Tensor] | None = None) -> Tensor:
    """Forecast one window: predictions [L_f] in original units."""
    out = tpgn_forward_batch([window], params, cfg, weights)
    return ad.reshape(out, (params.l_f,))


def tpgn_forward_batch(windows, params: TpgnParams, cfg: TpgnConfig,
                       weights: dict[str, Tensor] | None = None) -> Tensor:
    """Forecast a batch of windows at once: predictions [B, L_f].

    Pass ``weights = params.leaf_into(graph)`` to make the pass
    differentiable; by default everything stays plain numpy.
    """
    _check_model(params, cfg)
    grids, stats = prepare_input(windows, cfg.norm, cfg.period)
    want = (params.rows, params.period, params.channels)
    horizons = {w.l_f for w in windows}
    if grids.shape[1:] != want or horizons != {params.l_f}:
        raise ConfigError(
            f"window lengths give grids of shape {grids.shape[1:]} and horizons "
            f"{sorted(horizons)}; the model expects {want} and [{params.l_f}]")
    w = params.constants() if weights is None else weights
    return _forward_core(ad.constant(grids), stats, w, params)


# ---------------------------------------------------------------------------
# size and cost accounting

def param_count(params: TpgnParams) -> int:
    """Total learnable scalars."""
    return int(sum(a.size for a in params.named_arrays().values()))


@dataclass
class FlopCount:
    """Multiply-accumulate counts of one forward pass.

    ``total`` splits into the two branches plus the head.  ``per_layer``
    sums the cost of a single application of each linear layer (one step,
    one patch, one column) - the quantity whose growth the square-root
    complexity claim is about.

    These are the nominal dense counts for one window, every column through
    the cell.  An untracked batch of consecutive windows runs each shared
    column once (:func:`_distinct_summaries`), so it executes fewer
    long-branch MACs than the batch size times ``long_branch``.
    """

    long_branch: int
    short_branch: int
    head: int
    total: int
    per_layer: int


def flop_count(params: TpgnParams, l_h: int, l_f: int,
               variant: TpgnVariant | None = None) -> FlopCount:
    """Cost of ``variant`` at the params' sizes; by default the params' own."""
    variant = params.variant if variant is None else variant
    rows, period, c, d = params.rows, params.period, params.channels, params.hidden
    r_f = params.horizon_rows
    if rows * period != l_h or r_f * period != l_f:
        raise ConfigError(
            f"lengths ({l_h}, {l_f}) do not match the model structure "
            f"({rows}x{period}, {r_f}x{period})")

    per_layer = 0
    long_total = 0
    if variant.long_branch != "off":
        # one cell pass per column, then the shared weighted sum over R;
        # every cell costs the same at each of its R steps
        cell_macs = baselines.CELLS[variant.long_branch].macs(rows, c, d)
        long_total = period * cell_macs + period * rows * d
        per_layer += cell_macs // rows + rows * d

    short_total = 0
    if variant.short_branch:
        short_total = rows * (period * c) * d + rows * d
        per_layer += (period * c) * d + rows * d

    head_total = period * (2 * d) * r_f
    per_layer += 2 * d * r_f
    return FlopCount(
        long_branch=long_total, short_branch=short_total, head=head_total,
        total=long_total + short_total + head_total, per_layer=per_layer)


# ---------------------------------------------------------------------------
# structural depth

def tpgn_graph_depth(params: TpgnParams, cfg: TpgnConfig | None = None) -> int:
    """Longest op chain from the prepared input grid to the forecast.

    Runs the model forward on a tracked one-window grid, so the path is
    measured on the same code that forecasts.
    """
    if cfg is None:
        cfg = TpgnConfig(norm=0, period=params.period)
    _check_model(params, cfg)
    graph = Graph()
    grid = graph.leaf(np.zeros((1, params.rows, params.period, params.channels)),
                      op="input")
    stats = NormStats(np.zeros(1), np.ones(1)) if cfg.norm else None
    out = _forward_core(grid, stats, params.leaf_into(graph), params)
    return graph.longest_path(grid.node_id, out.node_id)


# ---------------------------------------------------------------------------
# verification helper

def finite_diff_all_params(window: SeriesWindow, params: TpgnParams,
                           cfg: TpgnConfig, h: float = 1e-4) -> dict[str, float]:
    """Finite-difference error of d(sum of predictions)/d(theta), per tensor."""
    params.validate()
    arrays = params.named_arrays()
    errors = {}
    for name in arrays:
        def f(t, _name=name):
            w = params.constants()
            w[_name] = t
            out = tpgn_forward_batch([window], params, cfg, weights=w)
            return ad.reduce_sum(out)

        errors[name] = ad.finite_diff_check(f, arrays[name], h)
    return errors
