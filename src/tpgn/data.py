"""Dataset ingest and sample generation.

CSV in (one datetime column plus named value columns), hourly-aggregated
series out, cut 6:2:2 in time order into train/validation/test, then
swept into stride-1 windows that never cross a split boundary.  Each
part's windows are one :class:`~tpgn.model.WindowSet`: the part's values,
its calendar features (extra channels for the model) and the start of
every window, with no per-window object.  :func:`apply_noise` perturbs
training histories.
Timestamps are one ``datetime64[us]`` array throughout.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import ConfigError, DataError
from .model import WindowSet, as_window_set

__all__ = [
    "RawSeries",
    "SplitSpec",
    "load_csv",
    "save_csv",
    "format_stamps",
    "aggregate_hourly",
    "standardize_series",
    "split_points",
    "windows_of",
    "window_split",
    "split_and_window",
    "make_time_features",
    "apply_noise",
    "synthetic_sinusoid",
]

logger = logging.getLogger(__name__)

TRAIN_FRACTION = 0.6
VAL_FRACTION = 0.2

_EPOCH = datetime(1970, 1, 1)
_EPOCH_UTC = _EPOCH.replace(tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


@dataclass
class RawSeries:
    """One value column with ``datetime64[us]`` timestamps; NaN marks a missing record."""

    timestamps: np.ndarray
    values: np.ndarray
    target_name: str

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype="datetime64[us]")
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.timestamps) != len(self.values):
            raise DataError("timestamps and values differ in length")
        bad = np.flatnonzero(self.timestamps[1:] <= self.timestamps[:-1])
        if bad.size:
            raise DataError("timestamps not strictly increasing at "
                            f"{format_stamps(self.timestamps[bad[:1] + 1])[0]}")

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class SplitSpec:
    """Window lengths for the fixed 6:2:2 split at stride 1."""

    l_h: int
    l_f: int

    def __post_init__(self):
        if self.l_h < 1 or self.l_f < 1:
            raise ConfigError("window lengths must be positive")


def _parse_timestamp(text: str, row: int) -> int:
    """Microseconds since 1970 of one stamp; one with an offset is read as UTC."""
    try:
        ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError:
        raise DataError(f"row {row}: cannot parse timestamp {text!r}") from None
    return (ts - (_EPOCH if ts.tzinfo is None else _EPOCH_UTC)) // _MICROSECOND


def _parse_value(text: str, row: int, column: str) -> float:
    cell = text.strip()
    if cell in ("", "NA", "NaN", "nan"):
        return math.nan
    try:
        value = float(cell)
    except ValueError:
        raise DataError(f"row {row}: cannot parse {column!r} value {cell!r}") from None
    if not math.isfinite(value):
        raise DataError(f"row {row}: {column!r} value {cell!r} is not finite")
    return value


# A plain stamp, ``YYYY-MM-DD HH:MM:SS``: ASCII digits everywhere but the
# separators.  numpy's parser reads every such stamp with a year from 0001
# as ``fromisoformat`` does, and raises ValueError where it does (a day,
# hour or second out of range).
_PLAIN_FORM = np.frombuffer(b"0000-00-00 00:00:00", dtype=np.uint8)
_PLAIN_DIGITS = _PLAIN_FORM == ord("0")  # the year's four come first


def _plain_stamps(cells: list[str]) -> np.ndarray | None:
    """All stamps as ``datetime64[us]`` when every cell is a plain stamp
    that numpy parses, else None (the cells then go row by row)."""
    try:
        text = np.array(cells, dtype="S")  # ASCII, NUL-padded to the longest
    except UnicodeEncodeError:
        return None
    if text.itemsize != _PLAIN_FORM.size:
        return None
    codes = text.view(np.uint8).reshape(len(cells), _PLAIN_FORM.size)
    digits = codes[:, _PLAIN_DIGITS]
    digits -= ord("0")  # a code below "0" wraps high
    separators = codes[:, ~_PLAIN_DIGITS]
    if not ((digits <= 9).all() and (separators == _PLAIN_FORM[~_PLAIN_DIGITS]).all()
            and digits[:, :4].any(axis=1).all()):  # fromisoformat rejects year 0000
        return None
    try:
        return text.astype("datetime64[us]")
    except ValueError:
        return None


def _finite_values(cells: list[str]) -> np.ndarray | None:
    """All cells as floats (``float`` per cell) when every one is finite,
    else None (a missing marker, a bad or non-finite cell goes row by row)."""
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def load_csv(path, target_column: str, timestamp_column: str = "date") -> RawSeries:
    """Parse one target column; empty cells become NaN (counted as missing).

    Any other value cell must parse to a finite float: ``inf`` or an
    overflowing literal such as ``1e999`` is a DataError naming the row.

    Rows are sorted by timestamp; an exact duplicate timestamp is an error
    since it would make the aggregation ambiguous.  Field counts, stamps and
    values are checked in that order, each over all rows.  A column of
    plain ``YYYY-MM-DD HH:MM:SS`` stamps, or of finite values, is parsed
    as one array; any other column is read row by row with the same result.
    A file that is not UTF-8 text, or a row the ``csv`` module rejects
    (a field over its size limit), is a DataError naming the path.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from None
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path} is empty") from None
            header = [h.strip() for h in header]
            for col in (timestamp_column, target_column):
                if col not in header:
                    raise DataError(f"{path} has no column {col!r} (header: {header})")
            t_idx = header.index(timestamp_column)
            v_idx = header.index(target_column)
            width = max(t_idx, v_idx)
            # only the two columns are kept; blank lines (every cell whitespace)
            # are skipped but keep their number
            stamp_cells, value_cells, blank = [], [], []
            for row_no, row in enumerate(reader, start=2):
                if not "".join(row).strip():
                    blank.append(row_no)
                elif len(row) <= width:
                    raise DataError(f"row {row_no}: expected {len(header)} fields, "
                                    f"got {len(row)}")
                else:
                    stamp_cells.append(row[t_idx])
                    value_cells.append(row[v_idx])
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{path} row {reader.line_num}: {exc}") from None
    n = len(stamp_cells)
    if not n:
        raise DataError(f"{path} has no data rows")
    # the file row of each record, for the row-by-row parses' errors
    row_nos = np.delete(np.arange(2, 2 + n + len(blank)), np.array(blank, dtype=int) - 2)
    stamps = _plain_stamps(stamp_cells)
    if stamps is None:
        stamps = np.fromiter(map(_parse_timestamp, stamp_cells, row_nos.tolist()),
                             dtype=np.int64, count=n).view("datetime64[us]")
    values = _finite_values(value_cells)
    if values is None:
        values = np.fromiter((_parse_value(cell, row_no, target_column)
                              for cell, row_no in zip(value_cells, row_nos.tolist())),
                             dtype=np.float64, count=n)
    order = np.argsort(stamps, kind="stable")
    stamps, values = stamps[order], values[order]
    dup = np.flatnonzero(stamps[1:] == stamps[:-1])
    if dup.size:
        raise DataError(f"duplicated timestamp {format_stamps(stamps[dup[:1]])[0]}")
    if missing := int(np.isnan(values).sum()):
        logger.info("%s: %d missing %s entries", path, missing, target_column)
    return RawSeries(timestamps=stamps, values=values, target_name=target_column)


def format_stamps(stamps) -> list[str]:
    """Each datetime64 stamp as ``YYYY-MM-DD HH:MM:SS``, with ``.ffffff``
    added when it has a fraction of a second (``datetime.isoformat``)."""
    # whole-second stamps, the usual case, format without the longer strings
    unit = "s" if (stamps == stamps.astype("datetime64[s]")).all() else "us"
    return [s.replace("T", " ").removesuffix(".000000")
            for s in np.datetime_as_string(stamps, unit=unit).tolist()]


def save_csv(series: RawSeries, path, timestamp_column: str = "date") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([timestamp_column, series.target_name])
        writer.writerows(zip(format_stamps(series.timestamps),
                             map(repr, series.values.tolist())))


def aggregate_hourly(series: RawSeries) -> RawSeries:
    """Mean of all records within each clock hour, on a gapless hourly axis.

    Hours without a usable record are filled by linear interpolation over
    time (clamped at the ends); the fill count is logged.  A series without
    a non-NaN record raises DataError.
    """
    seen = ~np.isnan(series.values)
    if not seen.any():
        raise DataError("no usable records to aggregate")
    hours = series.timestamps.astype("datetime64[h]")
    slot = (hours - hours[0]).astype(np.int64)  # stamps increase: slot[-1] is the last
    n = int(slot[-1]) + 1
    # bincount adds each hour's values in record order from 0.0, as a running sum would
    sums = np.bincount(slot[seen], weights=series.values[seen], minlength=n)
    counts = np.bincount(slot[seen], minlength=n)
    values = sums / np.maximum(counts, 1)  # an empty hour reads 0 until interpolated
    valid = np.flatnonzero(counts)
    if gaps := n - valid.size:
        values = np.interp(np.arange(n), valid, values[valid])
        logger.info("interpolated %d empty hours (of %d)", gaps, n)
    return RawSeries(timestamps=hours[0] + np.arange(n), values=values,
                     target_name=series.target_name)


def make_time_features(timestamps) -> np.ndarray:
    """Hour-of-day, day-of-week, day-of-month, day-of-year in [-0.5, 0.5].

    Each feature maps its first calendar value (midnight, Monday, day 1,
    Jan 1) to -0.5 and its last to +0.5.
    """
    stamps = np.asarray(timestamps, dtype="datetime64[us]")
    days = stamps.astype("datetime64[D]")
    hour = (stamps.astype("datetime64[h]") - days).astype(np.int64)
    weekday = (days.astype(np.int64) + 3) % 7  # day 0, 1970-01-01, was a Thursday
    day = (days - days.astype("datetime64[M]").astype(days.dtype)).astype(np.int64)
    yday = (days - days.astype("datetime64[Y]").astype(days.dtype)).astype(np.int64)
    return np.stack([hour, weekday, day, yday], axis=1) / [23.0, 6.0, 30.0, 365.0] - 0.5


def standardize_series(series: RawSeries) -> tuple[RawSeries, float, float]:
    """Z-score the whole series by the training split's mean and std.

    This is the benchmark convention: statistics come from the first 60%
    of the points only (no test leakage), the transform applies
    everywhere, and downstream losses/metrics are reported in these
    scaled units.  Returns (scaled series, mean, std).
    """
    n_train, _, _ = split_points(len(series))
    if n_train < 2:
        raise DataError(f"series too short to standardize ({len(series)} points)")
    head = series.values[:n_train]
    mean = float(head.mean())
    std = float(head.std())
    if std == 0.0:
        raise DataError("training split is constant; cannot standardize")
    scaled = (series.values - mean) / std
    return RawSeries(timestamps=series.timestamps, values=scaled,
                     target_name=series.target_name), mean, std


def split_points(n: int) -> tuple[int, int, int]:
    """Partition sizes of the fixed 6:2:2 split (test takes the remainder)."""
    n_train = int(n * TRAIN_FRACTION)
    n_val = int(n * VAL_FRACTION)
    return n_train, n_val, n - n_train - n_val


def windows_of(values, l_h: int, l_f: int, feats=None) -> WindowSet:
    """All stride-1 windows of one split: count = n - l_h - l_f + 1.

    ``values`` must be 1-D and ``feats`` ``[n, c]``, else DimensionError.
    The set holds ``values`` and ``feats`` themselves (when float64), so
    every window taken from it is a view of the split.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    feats = np.zeros((n, 0)) if feats is None else feats
    return WindowSet(values, feats, l_h, l_f, np.arange(max(n - l_h - l_f + 1, 0)))


def window_split(series: RawSeries, spec: SplitSpec, split: str) -> WindowSet:
    """The stride-1 windows of one part of the 60/20/20 partition
    (``"train"``, ``"validation"`` or ``"test"``), with calendar features
    from that part's own stamps.  A part shorter than one window raises
    ConfigError naming it."""
    n = len(series)
    n_train, n_val, _ = split_points(n)
    lo, hi = {"train": (0, n_train), "validation": (n_train, n_train + n_val),
              "test": (n_train + n_val, n)}[split]
    need = spec.l_h + spec.l_f
    if hi - lo < need:
        raise ConfigError(
            f"{split} split has {hi - lo} points, needs at least {need} "
            f"for l_h={spec.l_h}, l_f={spec.l_f}")
    return windows_of(series.values[lo:hi], spec.l_h, spec.l_f,
                      make_time_features(series.timestamps[lo:hi]))


def split_and_window(series: RawSeries, spec: SplitSpec,
                     ) -> tuple[WindowSet, WindowSet, WindowSet]:
    """Contiguous 60/20/20 partition, then stride-1 windows inside each part.

    Windows never straddle a boundary, so every test timestamp is strictly
    after every train timestamp.
    """
    return tuple(window_split(series, spec, split)
                 for split in ("train", "validation", "test"))


def apply_noise(windows, epsilon: float, seed: int):
    """Perturb floor(epsilon * L_h) distinct history points of every window.

    Window i draws from ``default_rng(seed + i)``: first the points, then
    for each chosen point x an additive Uniform(-2|x|, +2|x|), so a zero
    stays a zero and a positive value lands in [-x, 3x].  The targets and
    features are untouched.  The noisy windows come back as a new
    :class:`WindowSet` (:meth:`WindowSet.packed`); when no point is drawn
    the windows are returned as given.  An epsilon outside [0, 1] raises
    ConfigError.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigError(f"epsilon must be in [0, 1], got {epsilon}")
    if not len(windows):
        return windows
    clean = as_window_set(windows)
    k = int(epsilon * clean.l_h)
    if k == 0:
        return windows
    x = np.array(clean.histories())
    for i, row in enumerate(x):
        rng = np.random.default_rng(seed + i)
        idx = rng.choice(clean.l_h, size=k, replace=False)
        span = 2.0 * np.abs(row[idx])
        row[idx] += rng.uniform(-span, span)
    return WindowSet.packed(x, clean.calendars(), clean.targets())


def synthetic_sinusoid(n_hours: int, period: float = 24.0, amplitude: float = 1.0,
                       mean: float = 0.0, phase_drift: float = 0.0,
                       noise: float = 0.0, seed: int = 0,
                       start: str = "2020-01-01 00:00:00") -> RawSeries:
    """Hourly sinusoid benchmark series.

    ``phase_drift`` (radians per hour) slides the within-period pattern
    over time, which separates models that track the period axis from
    models that only summarize whole periods.  A length under 1, a period
    that is not positive, a negative noise or a non-finite setting raises
    ConfigError.
    """
    if (n_hours < 1 or not period > 0 or not noise >= 0
            or not np.isfinite([period, amplitude, mean, phase_drift, noise]).all()):
        raise ConfigError(
            f"synthetic series needs n_hours >= 1, period > 0, noise >= 0 and finite "
            f"settings; got n_hours={n_hours}, period={period}, amplitude={amplitude}, "
            f"mean={mean}, phase_drift={phase_drift}, noise={noise}")
    t = np.arange(n_hours)
    values = mean + amplitude * np.sin(2.0 * np.pi * t / period + phase_drift * t)
    if noise > 0.0:
        values = values + noise * np.random.default_rng(seed).standard_normal(n_hours)
    stamps = np.datetime64(datetime.fromisoformat(start), "us") + t.astype("timedelta64[h]")
    return RawSeries(timestamps=stamps, values=values, target_name="value")
