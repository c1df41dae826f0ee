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

A batch of windows is a :class:`WindowSet`: one series, its calendar
features and the start of every window, so a split of thousands of
windows holds no per-window object, and a batch is a slice or an index
array of it.  A list of :class:`SeriesWindow` is copied into a set once
(:func:`as_window_set`), so every path below reads a set.

Everything here is pure in (windows, params) and batch-first: the
branches and the head each run the whole batch through the same handful
of matrix products.  The parameters hold only the weights their variant
uses, and the variant is read off them.

The forward has three paths, each covering every variant and both head
modes.  A tracked pass runs the taped branch and head functions over the
grids of :func:`prepare_input` ([B, R, P, c] plus the batch's
normalization stats), every column and patch, because anything else
would sum each weight gradient in another order; the depth probe feeds
it a tracked grid.  An untracked pass (:func:`_untracked_head`) reads
each window's column sequences and patches as strided views of history
rows: under norm=1 the rows of the stacked grids, under norm=0 the
set's series itself, where windows whose starts are one apart form a
run, and a run of N windows holds N+P-1 distinct column sequences
(column p of window i+1 is column p+1 of window i) and N+(R-1)*P
distinct patches, run once each where that keeps the bits.  It runs the
long branch's sequences and the patch map in cache-sized blocks
(:func:`autodiff.sequence_blocks`), gathering only what a block runs,
collapses shared patches over strided per-run views of their summaries,
and maps blocks of windows through the head (:func:`_blocked_head`)
without building the [B*P, 2d] joint array, as the transposed product
``head_w @ joint.T`` where that keeps the bits (:func:`_head_product`),
so each block lands in the [B, R_f, P] forecast layout and the
forecasts are a reshape of it.  No GEMM crosses OpenBLAS's small-matrix
limit and no GEMV is split, so at the widths ``TestWideModels`` pins the
result is byte-equal to the tracked pass; at d_m=300 it is not (README,
reproducibility).  :func:`tpgn_predict` runs a norm=0 set as one
untracked pass, whatever its size, unless a product with one output
column (d_m = 1 or R_f = 1) would then span the whole set, and a norm=1
set one chunk of grids at a time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from . import autodiff as ad
from . import baselines
from .autodiff import Graph, ParamSet, Tensor, fan_in_uniform
from .errors import ConfigError, ContractError, DimensionError

__all__ = [
    "SeriesWindow",
    "WindowSet",
    "as_window_set",
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
    "tpgn_predict",
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
    given (views, for a window taken from a :class:`WindowSet`); the
    forward and :func:`stack_targets` reject NaN or Inf once per batch.
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


_MIXED_WINDOWS = "windows of one batch differ in history length, horizon length or time features"


@dataclass(eq=False)
class WindowSet:
    """Windows cut from one series, held as the series and where they start.

    Window i is the ``l_h`` points from ``starts[i]`` with their calendar
    features, then the ``l_f`` points after them.  No window is held as an
    object: an int index (negative too) or iteration gives a
    :class:`SeriesWindow` of views, a slice or an index array gives the set
    of those windows, and ``a + b`` holds the windows of ``a`` then those of
    ``b``, over the same arrays when both cut one series and else over the
    two series joined.  :meth:`histories`, :meth:`calendars` and
    :meth:`targets` read the whole set at once, each with one
    ``sliding_window_view`` index.
    """

    values: np.ndarray  # [n]
    feats: np.ndarray   # [n, C_time]
    l_h: int
    l_f: int
    starts: np.ndarray  # [N], each in [0, n - l_h - l_f]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.feats = np.asarray(self.feats, dtype=np.float64)
        self.starts = np.asarray(self.starts, dtype=np.intp)
        n = len(self.values)
        if self.values.ndim != 1 or self.feats.ndim != 2 or len(self.feats) != n:
            raise DimensionError(f"windows need values [n] and features [n, c], got "
                                 f"shapes {self.values.shape} and {self.feats.shape}")
        if self.l_h < 1 or self.l_f < 1:
            raise ConfigError(f"window lengths must be positive, got {self.l_h}, {self.l_f}")
        if self.starts.ndim != 1 or (self.starts.size and not (
                0 <= self.starts.min() and self.starts.max() <= n - self.l_h - self.l_f)):
            raise DimensionError(f"window starts must be 1-D and within the {n} points")

    @classmethod
    def packed(cls, histories: np.ndarray, calendars: np.ndarray,
               targets: np.ndarray) -> "WindowSet":
        """The windows of stacked arrays [N, L_h], [N, L_h, C_time] and
        [N, L_f], copied: window i is segment i of a series of N segments of
        L_h + L_f points (its target points have zero calendar features)."""
        n, l_h = histories.shape
        l_f, c = targets.shape[1], calendars.shape[2]
        feats = np.zeros((n, l_h + l_f, c))
        feats[:, :l_h] = calendars
        return cls(np.concatenate([histories, targets], axis=1).reshape(-1),
                   feats.reshape(n * (l_h + l_f), c), l_h, l_f, np.arange(n) * (l_h + l_f))

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            s = int(self.starts[index])
            window = SeriesWindow.__new__(SeriesWindow)  # views of arrays checked once
            window.x_1d = self.values[s:s + self.l_h]
            window.tf_enc = self.feats[s:s + self.l_h]
            window.y_true = self.values[s + self.l_h:s + self.l_h + self.l_f]
            return window
        return replace(self, starts=self.starts[index])

    def __iter__(self):
        for i in range(len(self.starts)):
            yield self[i]

    def __add__(self, other: "WindowSet") -> "WindowSet":
        if not isinstance(other, WindowSet):
            return NotImplemented
        if (self.l_h, self.l_f, self.c_time) != (other.l_h, other.l_f, other.c_time):
            raise ConfigError(_MIXED_WINDOWS)
        if other.values is self.values and other.feats is self.feats:
            return replace(self, starts=np.concatenate([self.starts, other.starts]))
        return WindowSet(np.concatenate([self.values, other.values]),
                         np.concatenate([self.feats, other.feats]), self.l_h, self.l_f,
                         np.concatenate([self.starts, other.starts + len(self.values)]))

    @property
    def c_time(self) -> int:
        return self.feats.shape[1]

    def _rows(self) -> slice | np.ndarray:
        """The starts as a slice when they are evenly spaced (a split, a
        slice of one, a packed set), so that :meth:`histories`,
        :meth:`calendars` and :meth:`targets` are views of the set's arrays
        and a copy into a batch buffer makes no temporary; other starts
        gather into a new array.  Copy a view before writing to it."""
        starts = self.starts
        step = starts[1] - starts[0] if len(starts) > 1 else 1
        if len(starts) and step > 0 and (np.diff(starts) == step).all():
            return slice(starts[0], starts[-1] + 1, step)
        return starts

    def histories(self) -> np.ndarray:
        """Every window's history: [N, L_h]."""
        return sliding_window_view(self.values, self.l_h)[self._rows()]

    def calendars(self) -> np.ndarray:
        """Every window's calendar features: [N, L_h, C_time]."""
        view = sliding_window_view(self.feats, self.l_h, axis=0)  # [.., C_time, L_h]
        return view.transpose(0, 2, 1)[self._rows()]

    def targets(self) -> np.ndarray:
        """Every window's targets: [N, L_f]."""
        return sliding_window_view(self.values[self.l_h:], self.l_f)[self._rows()]

    def history_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each point under some window's history once, in series order, as
        rows [n, 1+C_time] of its value and calendar features, and the row
        where each window starts.  A NaN or Inf among them raises
        ContractError."""
        span, covered = _covered(self.starts, self.l_h)
        values = self.values[span][covered]
        rows = np.empty((len(values), 1 + self.c_time))
        rows[:, 0] = values
        rows[:, 1:] = self.feats[span][covered]
        if not np.isfinite(rows).all():
            raise ContractError("history or time features contain NaN or Inf")
        at = self.starts - span.start
        return rows, at if isinstance(covered, slice) else (np.cumsum(covered) - 1)[at]

    def check_finite(self) -> None:
        """Raise ContractError on a NaN or Inf at any point the windows read
        (:meth:`history_rows`, then the target values), each point once."""
        if len(self):
            self.history_rows()
            span, covered = _covered(self.starts + self.l_h, self.l_f)
            if not np.isfinite(self.values[span][covered]).all():
                raise ContractError("targets contain NaN or Inf")


def _covered(starts: np.ndarray, length: int) -> tuple[slice, slice | np.ndarray]:
    """The points that runs of ``length`` from ``starts`` cover: the slice
    of the series from the first to the last, and which of its points are
    covered, a full slice when starts rise by at most ``length`` each."""
    gaps = np.diff(starts)
    if ((gaps > 0) & (gaps <= length)).all():
        return slice(starts[0], starts[-1] + length), slice(None)
    lo, hi = starts.min(), starts.max() + length
    edges = (np.bincount(starts - lo, minlength=hi - lo + 1)
             - np.bincount(starts - lo + length, minlength=hi - lo + 1))
    return slice(lo, hi), np.cumsum(edges[:-1]) > 0


def as_window_set(windows) -> WindowSet:
    """``windows`` as a :class:`WindowSet`: a set as it is, a sequence of
    :class:`SeriesWindow` copied into one (:meth:`WindowSet.packed`).  An
    empty sequence raises ContractError, windows of unequal lengths or
    feature counts ConfigError."""
    if isinstance(windows, WindowSet):
        return windows
    if not len(windows):
        raise ContractError("empty window batch")
    try:
        arrays = [np.stack([getattr(w, name) for w in windows])
                  for name in ("x_1d", "tf_enc", "y_true")]
    except ValueError:
        raise ConfigError(_MIXED_WINDOWS) from None
    return WindowSet.packed(*arrays)


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
        params = cls._sized(l_h, l_f, period, c_time, hidden, head_shared)
        rows, channels = params.rows, params.channels
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

    @classmethod
    def layout(cls, l_h: int, l_f: int, period: int, c_time: int, hidden: int,
               variant: TpgnVariant = VARIANTS["full"],
               head_shared: bool = True) -> dict[str, tuple[int, ...]]:
        """Name -> shape of every weight :meth:`init` draws at these sizes,
        which are checked as init checks them; nothing is allocated."""
        params = cls._sized(l_h, l_f, period, c_time, hidden, head_shared)
        if variant.long_branch != "off":
            params.cell = baselines.new_cell(variant.long_branch, params.rows,
                                             params.channels, hidden)
        return params._shapes(variant.short_branch)

    @classmethod
    def _sized(cls, l_h: int, l_f: int, period: int, c_time: int, hidden: int,
               head_shared: bool) -> "TpgnParams":
        """The checked structural sizes, with no weights yet."""
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
        return cls(rows, period, 1 + c_time, hidden, l_f // period,
                   head_shared=head_shared)

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return self._shapes(self.row_w is not None)

    def _shapes(self, short_branch: bool) -> dict[str, tuple[int, ...]]:
        head = (self.horizon_rows, 2 * self.hidden)
        if not self.head_shared:
            head = (self.period, *head)
        out = {"head_w": head, "head_b": head[:-1]}
        if self.cell is not None:
            out.update({f"cell.{k}": v for k, v in self.cell.shapes().items()})
            out.update(long_w=(self.rows,), long_b=())
        if short_branch:
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

    ``windows`` is a :class:`WindowSet` or a sequence of windows, as
    :func:`stack_grid` takes them.  The batch is written once, into the one
    buffer of :func:`stack_grid`, and channel 0 is normalized in place.  The
    moments use the population divisor L_h.  Under norm=1 a constant or near-constant history (sigma
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

    Channel 0 is the history.  ``windows`` is a :class:`WindowSet` or a
    sequence of :class:`SeriesWindow` (:func:`as_window_set`, so windows of
    unequal lengths raise ConfigError).  An empty batch or a NaN or Inf
    raises ContractError.
    """
    windows = as_window_set(windows)
    if not len(windows):
        raise ContractError("empty window batch")
    grid = np.empty((len(windows), windows.l_h, 1 + windows.c_time))
    grid[:, :, 0] = windows.histories()
    grid[:, :, 1:] = windows.calendars()
    if not np.isfinite(grid).all():
        raise ContractError("history or time features contain NaN or Inf")
    return grid


def stack_targets(windows) -> np.ndarray:
    """The batch's targets [B, L_f], from a set or a sequence of windows as
    :func:`stack_grid` takes them.  An empty batch or a NaN or Inf raises
    ContractError."""
    windows = as_window_set(windows)
    if not len(windows):
        raise ContractError("empty window batch")
    y = np.array(windows.targets())
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


def long_branch(grid: Tensor, w: dict[str, Tensor], kind: str) -> Tensor:
    """Column summaries [B*P, hidden] through the ``kind`` cell, rows (b, p)-major.

    One pass over every column, as training differentiates it; the
    untracked forward runs its columns in blocks (:func:`_column_summaries`).
    """
    b, rows, period, c = grid.shape
    seqs = ad.reshape(ad.permute(grid, (0, 2, 1, 3)), (b * period, rows, c))
    cells = baselines.CELLS[kind].apply(seqs, _cell_keys(w, "cell."))
    return ad.add(ad.collapse_rows(cells, w["long_w"], b * period), w["long_b"])


def short_branch(grid: Tensor, w: dict[str, Tensor]) -> Tensor:
    """Global patch summary of each grid, repeated per column: [B*P, hidden]."""
    b, rows, period, c = grid.shape
    rows_flat = ad.reshape(grid, (b * rows, period * c))
    patches = ad.linear(rows_flat, w["row_w"], w["row_b"])  # [B*R, d]
    summary = ad.add(ad.collapse_rows(patches, w["col_w"], b), w["col_b"])
    return ad.repeat_rows(summary, period)


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


# ---------------------------------------------------------------------------
# the untracked pass: plain arrays, run in cache-sized blocks

@dataclass
class _Items:
    """The column sequences or the patches of a window set, each a row of ``view``.

    Owner k (one window, or a run of consecutive windows that share their
    items) holds items ``starts[k]`` to ``starts[k+1] - 1``, at view rows
    ``rows[k]``, ``rows[k] + step``, ...  Part j of window q (its column
    or row j) is item ``base[q] + j*part``, and within an owner window
    q+1's parts are window q's moved ``stride`` items on.  No array here
    grows with the windows times their parts.
    """

    view: np.ndarray    # [n_view, ...]
    starts: np.ndarray  # [owners + 1], the last one the item count
    rows: np.ndarray    # [owners]
    step: int
    base: np.ndarray    # [B]
    stride: int
    part: int
    parts: int

    @classmethod
    def of(cls, view: np.ndarray, first: np.ndarray, breaks: np.ndarray, parts: int,
           spacing: int, shared: bool) -> "_Items":
        """The items of windows whose part j is view row ``first[q] + j*spacing``.

        With ``shared``, each run of windows whose first rows are one apart
        (split at ``breaks``) owns its distinct items, (parts-1)*spacing
        more than it has windows, in order; otherwise each window owns its
        parts, window-major.
        """
        b = len(first)
        if not shared:
            return cls(view, np.arange(b + 1) * parts, first, spacing,
                       np.arange(b) * parts, parts, 1, parts)
        extra = (parts - 1) * spacing
        if not len(breaks):  # one run
            return cls(view, np.array([0, b + extra]), first[:1], 1, np.arange(b), 1,
                       spacing, parts)
        opens = np.concatenate(([0], breaks))  # each run's first window
        sizes = np.diff(opens, append=b) + extra
        runs_before = np.searchsorted(breaks, np.arange(b), side="right")
        return cls(view, np.concatenate(([0], np.cumsum(sizes))), first[opens], 1,
                   np.arange(b) + runs_before * extra, 1, spacing, parts)

    def __len__(self) -> int:
        return int(self.starts[-1])

    def data(self, s: int, e: int) -> np.ndarray:
        """Items [s, e), gathered from the view into one new array."""
        i = np.arange(s, e)
        k = np.searchsorted(self.starts, i, side="right") - 1
        return self.view[self.rows[k] + (i - self.starts[k]) * self.step]

    def of_windows(self, values: np.ndarray, s: int, e: int) -> np.ndarray:
        """The rows of ``values`` [len(self), d] that windows [s, e) read, as
        [e-s, parts, d]: a strided view where the windows' first items are
        evenly spaced (they lie in one owner), else gathered."""
        n, first = e - s, self.base[s]
        if self.base[e - 1] - first == (n - 1) * self.stride:
            row, item = values.strides
            return as_strided(values[first:], (n, self.parts, values.shape[1]),
                              (self.stride * row, self.part * row, item), writeable=False)
        return values[self.base[s:e, None] + np.arange(self.parts) * self.part]


# a block of column sequences is planned from one [R, d] activation per
# sequence, but the cells hold 2 to 7 times that (measured: pgn 5-7x, gru
# and lstm 2-4x, mlp 2-2.5x); counting at least 2 KiB keeps a narrow model's
# blocks to 512 sequences, whose work a one-pass prediction holds beside
# its result
_MIN_SEQUENCE_BYTES = 2048


def _column_summaries(columns: _Items, w: dict[str, Tensor], kind: str) -> np.ndarray:
    """Untracked: the summaries [n, hidden] of the column sequences, run in
    the cache-sized blocks of :func:`autodiff.sequence_blocks`, each
    block's sequences [block, R, c] gathered as it runs."""
    apply, cell_w = baselines.CELLS[kind].apply, _cell_keys(w, "cell.")
    d = next(iter(cell_w.values())).shape[0]  # every cell weight has d rows
    rows = columns.view.shape[1]
    out = np.empty((len(columns), d))
    item_bytes = max(rows * d * 8, _MIN_SEQUENCE_BYTES)
    for s, e in ad.sequence_blocks(len(columns), item_bytes, d, d):
        part = apply(ad.constant(columns.data(s, e)), cell_w)
        out[s:e] = ad.add(ad.collapse_rows(part, w["long_w"], e - s), w["long_b"]).data
    return out


def _patch_summaries(patches: _Items, w: dict[str, Tensor], batch: int) -> np.ndarray:
    """Untracked: each window's patch summary [B, hidden].

    Shared patches are mapped in blocks of distinct patches; each block of
    windows then reads its R mapped patches (:meth:`_Items.of_windows`, a
    strided view within a run) and collapses them with ``[1, R] @ [R, d]``
    products, as :func:`autodiff.collapse_rows` sums them.  Unshared
    patches are mapped and collapsed one block of windows at a time.  Both
    block plans come from :func:`autodiff.sequence_blocks`.
    """
    row_w, row_b = w["row_w"], w["row_b"]
    d, k = row_w.shape
    col_w, rows = w["col_w"].data.reshape(1, -1), patches.parts
    shared = patches.stride == 1

    def mapped(s: int, e: int) -> np.ndarray:  # patches [s, e) -> [e-s, d]
        return ad.linear(ad.constant(patches.data(s, e)), row_w, row_b).data

    if shared:
        summaries = np.empty((len(patches), d))
        for s, e in ad.sequence_blocks(len(patches), k * 8, d, d):
            summaries[s:e] = mapped(s, e)
    out = np.empty((batch, d))
    for s, e in ad.sequence_blocks(batch, rows * k * 8, rows * d, d):
        by_window = (patches.of_windows(summaries, s, e) if shared
                     else mapped(s * rows, e * rows).reshape(e - s, rows, d))
        out[s:e] = np.matmul(col_w, by_window).reshape(e - s, d) + w["col_b"].data
    return out


def _head_product(head_w: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``head_w @ rows.T`` [.., R_f, n] for weights [.., R_f, K] and rows
    [.., n, K], written into the flat buffer ``out``, with the bits of
    ``rows @ head_w.T``.  OpenBLAS sums the two alike unless R_f >= 12 and n
    is over 192 and not a multiple of eight, whatever K; there the direct
    product runs and its transpose is returned (README, reproducibility).
    """
    r_f, n = head_w.shape[-2], rows.shape[-2]
    if r_f < 12 or n <= 192 or n % 8 == 0:
        return np.matmul(head_w, rows.swapaxes(-1, -2),
                         out=out.reshape(*head_w.shape[:-2], r_f, n))
    return np.matmul(rows, head_w.swapaxes(-1, -2),
                     out=out.reshape(*rows.shape[:-1], r_f)).swapaxes(-1, -2)


def _blocked_head(columns: _Items | None, long_out: np.ndarray | None,
                  global_vec: np.ndarray | None, w: dict[str, Tensor],
                  params: TpgnParams, y: np.ndarray) -> np.ndarray:
    """The untracked head's outputs, written into ``y`` [B, R_f, P] one
    block of windows at a time.

    ``long_out`` holds the long branch's column summaries, the items of
    ``columns``, and ``global_vec`` each window's short-branch vector [B, d];
    either is None when its branch is off.  Each block fills one reused
    [block*P, 2d] buffer, the left half from the summaries of its windows'
    columns (a strided [block, P, d] view of them where the windows form
    one run, :meth:`_Items.of_windows`) and the right half from each
    window's global vector.  The block is mapped transposed
    (:func:`_head_product`), ``head_w @ joint.T`` with one GEMM, or for the
    per-phase head one stacked GEMM [P, R_f, 2d] @ [P, 2d, block], with the
    bits of the tracked head's ``joint @ head_w.T``, and copied into the
    [B, R_f, P] result, which is the forecast layout.  The plan
    (:func:`autodiff.sequence_blocks`) keeps every GEMM above the
    small-matrix limit and never splits a GEMV (R_f = 1), so each output
    sums as in one product over the whole batch.
    """
    period, d, r_f = params.period, params.hidden, params.horizon_rows
    head_w, batch = w["head_w"].data, len(y)
    gemm_outputs = period * r_f if params.head_shared else r_f  # per window
    blocks = ad.sequence_blocks(batch, period * 2 * d * 8, gemm_outputs, r_f)
    most = max(e - s for s, e in blocks) * period
    buf, product = np.zeros((most, 2 * d)), np.empty(most * r_f)
    for s, e in blocks:
        n = e - s
        joint = buf[:n * period]
        by_window = joint.reshape(n, period, 2 * d)
        if long_out is not None:
            by_window[:, :, :d] = columns.of_windows(long_out, s, e)
        if global_vec is not None:
            by_window[:, :, d:] = global_vec[s:e, None]
        out = product[:n * period * r_f]
        if params.head_shared:  # [R_f, block*P]
            mapped = _head_product(head_w, joint, out)
            y[s:e] = mapped.reshape(r_f, n, period).transpose(1, 0, 2)
        else:  # [P, R_f, block]
            mapped = _head_product(head_w, by_window.transpose(1, 0, 2), out)
            y[s:e] = mapped.transpose(2, 1, 0)
    bias = w["head_b"].data
    y += bias[:, None] if params.head_shared else bias.T
    return y


def _untracked_head(points: np.ndarray, first: np.ndarray, w: dict[str, Tensor],
                    params: TpgnParams) -> np.ndarray:
    """The untracked head outputs [B, R_f, P] of windows whose histories are
    the L_h rows [n, c] of ``points`` from row ``first[q]``: the checked
    points under a set's histories (:meth:`WindowSet.history_rows`) or a
    stack of grids, one window after another.

    Column p of window q is the sequence from row first[q] + p, its row r
    the patch from row first[q] + r*P, both read as strided views of
    ``points``.  Windows whose first rows are one apart form a run, and a run
    of N windows holds N+P-1 distinct column sequences (column p of window
    q+1 is column p+1 of window q) and N+(R-1)*P distinct patches, which
    run once each where that keeps the bits (:class:`_Items`).  Each block
    of work gathers only the sequences and patches it runs.
    """
    n_points, c = points.shape
    (step, item), batch = points.strides, len(first)
    rows, period, d = params.rows, params.period, params.hidden
    variant = params.variant
    # the result first, before the pass's other arrays: on glibc's heap those
    # are then freed above it and coalesce, so later allocations reuse the
    # space (allocated last, it raised forecast_eval's peak RSS by about 5%)
    y = np.empty((batch, params.horizon_rows, period))
    breaks = np.flatnonzero(first[1:] - first[:-1] != 1) + 1
    runs = len(breaks) + 1
    columns = long_out = global_vec = None
    if variant.long_branch != "off":
        # distinct columns run alone unless that would take the smallest
        # GEMM under OpenBLAS's small-matrix limit while every column would
        # not, or at hidden = 1, where the cell's GEMVs sum by row count
        distinct = batch + runs * (period - 1)
        shared = d > 1 and (ad.small_gemm(distinct * d)
                            == ad.small_gemm(batch * period * d))
        seqs = as_strided(points, (n_points - (rows - 1) * period, rows, c),
                          (step, period * step, item), writeable=False)
        columns = _Items.of(seqs, first, breaks, period, 1, shared)
        long_out = _column_summaries(columns, w, variant.long_branch)
    if variant.short_branch:
        # distinct patches are mapped alone only where that keeps the bits
        # of mapping every row: hidden a multiple of eight, fewer rows, and
        # the GEMM on the same side of the small-matrix limit
        distinct = batch + runs * (rows - 1) * period
        shared = d % 8 == 0 and distinct < batch * rows and (
            ad.small_gemm(distinct * d) == ad.small_gemm(batch * rows * d))
        patches = as_strided(points, (n_points - period + 1, period * c), (step, item),
                             writeable=False)
        global_vec = _patch_summaries(
            _Items.of(patches, first, breaks, rows, period, shared), w, batch)
    return _blocked_head(columns, long_out, global_vec, w, params, y)


def _forward_core(grid: Tensor, stats: NormStats | None,
                  w: dict[str, Tensor], params: TpgnParams) -> Tensor:
    """The model forward: grid [B, R, P, c] -> predictions [B, L_f].

    A tracked pass runs the branches and the head as taped ops over every
    column; an untracked one runs :func:`_untracked_head` over the grids'
    rows, every column and patch.
    """
    batch, rows, period, c = grid.shape
    if not (grid.tracked or any(t.tracked for t in w.values())):
        y = _untracked_head(grid.data.reshape(batch * rows * period, c),
                            np.arange(batch) * rows * period, w, params)
        return _forecasts(ad.constant(y), stats)
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
    differentiable; by default everything stays plain numpy.  An untracked
    norm=0 pass reads the windows straight from their series
    (:func:`_untracked_head` over :meth:`WindowSet.history_rows`); any
    other pass runs on the grids of :func:`prepare_input`.
    """
    _check_model(params, cfg)
    windows = as_window_set(windows)
    if not len(windows):
        raise ContractError("empty window batch")
    have = (windows.l_h, 1 + windows.c_time, windows.l_f)
    want = (params.l_h, params.channels, params.l_f)
    if have != want:
        raise ConfigError(f"window lengths and channels {have} (history, channels, "
                          f"horizon) differ from the model's {want}")
    w = params.constants() if weights is None else weights
    if cfg.norm == 0 and not any(t.tracked for t in w.values()):
        points, first = windows.history_rows()
        return _forecasts(ad.constant(_untracked_head(points, first, w, params)), None)
    grids, stats = prepare_input(windows, cfg.norm, cfg.period)
    return _forward_core(ad.constant(grids), stats, w, params)


# windows per forward of an untracked prediction that cannot run as one
# cache-blocked pass: under norm=1 it bounds the stacked [chunk, L_h, c]
# grids, and where a product has one output column (d_m = 1 in the long
# branch and the patch map, R_f = 1 in the head), which is never split
# because OpenBLAS's GEMV sums by row count, it bounds that product's
# operands.  Each chunk's forecasts are copied once into the result.
_PREDICT_CHUNK = 512


def tpgn_predict(windows, params: TpgnParams, cfg: TpgnConfig) -> np.ndarray:
    """Untracked predictions [N, L_f] of a window set, in original units.

    Under norm=0, with d_m and R_f above 1, one :func:`tpgn_forward_batch`
    over the whole set, which blocks all its work by cache size, so each
    prediction has the bits of the tracked forward over the same set at
    the widths the README names.  Otherwise one forward per chunk of
    ``_PREDICT_CHUNK`` windows.
    """
    windows = as_window_set(windows)
    one_pass = cfg.norm == 0 and params.hidden > 1 and params.horizon_rows > 1
    if one_pass or len(windows) <= _PREDICT_CHUNK:
        return tpgn_forward_batch(windows, params, cfg).data
    preds = np.empty((len(windows), params.l_f))
    for lo in range(0, len(windows), _PREDICT_CHUNK):
        preds[lo:lo + _PREDICT_CHUNK] = tpgn_forward_batch(
            windows[lo:lo + _PREDICT_CHUNK], params, cfg).data
    return preds


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
    the cell.  An untracked norm=0 batch of consecutive windows runs each
    shared column, and at some widths each shared patch, once
    (:func:`_untracked_head`), so it executes fewer branch MACs than the batch
    size times ``long_branch`` and ``short_branch``.
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
