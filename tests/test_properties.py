"""Property tests: the causal linear map, the batched gated cell,
broadcasting vjps, batched input normalization, and the datetime64
ingest (hour flooring, calendar features, offset stamps) against the
per-stamp ``datetime`` formulas."""

import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpgn import autodiff as ad
from tpgn.data import RawSeries, aggregate_hourly, load_csv, make_time_features
from tpgn.errors import DataError
from tpgn.model import (SIGMA_FLOOR, SeriesWindow, TpgnParams, forecast_head,
                        prepare_input)
from tpgn.pgn import PgnParams, pgn_apply, pgn_forward_oracle

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
FIELDS = ("history", "gate", "candidate", "output")


@SETTINGS
@given(m=st.integers(1, 4), length=st.integers(2, 12), c=st.integers(1, 3),
       d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_batched_cell_blocks_match_oracle(m, length, c, d, seed):
    rng = np.random.default_rng(seed)
    params = PgnParams.init(length, c, d, rng)
    x = rng.uniform(-2, 2, (m, length, c))
    w = {k: ad.constant(v) for k, v in params.named_arrays().items()}
    out = pgn_apply(ad.constant(x), w)
    for i in range(m):
        oracle = pgn_forward_oracle(x[i], params)
        rows = slice(i * length, (i + 1) * length)
        for field in FIELDS:
            got = getattr(out, field).data[rows]
            assert np.max(np.abs(got - getattr(oracle, field).data)) <= 1e-12, field


@SETTINGS
@given(m=st.integers(1, 3), length=st.integers(2, 6), c=st.integers(1, 3),
       d=st.integers(1, 3), operand=st.sampled_from(["x", "w", "b"]),
       seed=st.integers(0, 2**32 - 1))
def test_causal_linear_gradient(m, length, c, d, operand, seed):
    rng = np.random.default_rng(seed)
    values = {"x": rng.uniform(-1, 1, (m, length, c)),
              "w": rng.uniform(-1, 1, (d, (length - 1) * c)), "b": rng.uniform(-1, 1, d)}
    probe = ad.constant(rng.uniform(-1, 1, (m * length, d)))

    def f(t):
        args = {k: t if k == operand else ad.constant(v) for k, v in values.items()}
        return ad.reduce_sum(ad.mul(ad.causal_linear(args["x"], args["w"], args["b"]), probe))

    assert ad.finite_diff_check(f, values[operand]) <= 1e-9


@SETTINGS
@given(m=st.integers(1, 20000), rows=st.integers(1, 200), d=st.integers(1, 256))
def test_sequence_blocks_tile_evenly_above_the_small_gemm_limit(m, rows, d):
    blocks = ad.sequence_blocks(m, rows * d * 8, d, d)
    assert blocks[0][0] == 0 and blocks[-1][1] == m
    assert all(e == s2 for (_, e), (s2, _) in zip(blocks, blocks[1:]))
    sizes = [e - s for s, e in blocks]
    assert max(sizes) - min(sizes) <= 1
    if len(blocks) > 1:
        assert min(sizes) * d > 1200 and d > 1


@st.composite
def _broadcast_pair(draw):
    """Two operand shapes that broadcast under the trailing-dimension rule."""
    full = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))

    def operand():
        rank = draw(st.integers(1, len(full)))
        return tuple(draw(st.sampled_from([n, 1])) for n in full[len(full) - rank:])

    return operand(), operand()


@SETTINGS
@given(op=st.sampled_from([ad.add, ad.sub, ad.mul]), shapes=_broadcast_pair(),
       tracked=st.sampled_from(["a", "b", "both"]), seed=st.integers(0, 2**32 - 1))
def test_broadcasting_vjps(op, shapes, tracked, seed):
    ashape, bshape = shapes
    rng = np.random.default_rng(seed)
    a0, b0 = rng.uniform(-1, 1, ashape), rng.uniform(-1, 1, bshape)
    out_shape = np.broadcast_shapes(ashape, bshape)
    weight = ad.constant(rng.uniform(-1, 1, out_shape))
    na = a0.size if tracked != "b" else 0
    point = np.concatenate([a0.ravel()[:na], b0.ravel() if tracked != "a" else []])

    def f(t):
        # the tracked operands are cut from one probe vector
        a = ad.reshape(ad.slice_rows(t, 0, na), ashape) if na else ad.constant(a0)
        b = (ad.reshape(ad.slice_rows(t, na, t.shape[0]), bshape) if tracked != "a"
             else ad.constant(b0))
        return ad.reduce_sum(ad.mul(op(a, b), weight))

    assert ad.finite_diff_check(f, point) <= 1e-9


@st.composite
def _window_batch(draw):
    """Windows of one shape; each history is random, constant or near-constant."""
    rows, period = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    c_time, l_h = draw(st.integers(0, 2)), rows * period
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    windows = []
    for kind in draw(st.lists(st.sampled_from(["random", "constant", "near"]),
                              min_size=1, max_size=5)):
        level = rng.uniform(-50, 50)
        if kind == "random":
            x = level + rng.uniform(-3, 3, l_h)
        elif kind == "near":
            x = level + rng.uniform(-1e-7, 1e-7, l_h)
        else:
            x = np.full(l_h, level)
        windows.append(SeriesWindow(x_1d=x, tf_enc=rng.uniform(-0.5, 0.5, (l_h, c_time)),
                                    y_true=np.zeros(period)))
    return windows, rows, period


def _reference_grid(window, norm, rows, period):
    """One window the way a per-window loop would prepare it."""
    x = window.x_1d
    mu = x.mean()
    sigma = max(np.sqrt(((x - mu) ** 2).mean()), SIGMA_FLOOR)
    values = (x - mu) / sigma if norm else x
    grid = np.concatenate([values[:, None], window.tf_enc], axis=1)
    return grid.reshape(rows, period, grid.shape[1]), mu, sigma


@SETTINGS
@given(batch=_window_batch(), norm=st.sampled_from([0, 1]))
def test_batched_normalization_matches_per_window_reference(batch, norm):
    windows, rows, period = batch
    grids, stats = prepare_input(windows, norm, period)
    assert grids.shape == (len(windows), rows, period, 1 + windows[0].c_time)
    assert (stats is None) == (norm == 0)
    for i, window in enumerate(windows):
        grid, mu, sigma = _reference_grid(window, norm, rows, period)
        assert grids[i].tobytes() == grid.tobytes()
        if norm:
            assert stats.mu[i] == mu and stats.sigma[i] == sigma


@SETTINGS
@given(batch=_window_batch(), hidden=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_head_denormalization_is_exact(batch, hidden, seed):
    windows, rows, period = batch
    rng = np.random.default_rng(seed)
    params = TpgnParams.init(rows * period, period, period, windows[0].c_time,
                             hidden, rng)
    _, stats = prepare_input(windows, 1, period)
    b = len(windows)
    h_long = ad.constant(rng.uniform(-1, 1, (b * period, hidden)))
    h_rep = ad.constant(rng.uniform(-1, 1, (b * period, hidden)))
    w = params.constants()
    raw = forecast_head(h_long, h_rep, w, params, None, b).data
    denormed = forecast_head(h_long, h_rep, w, params, stats, b).data
    expected = stats.sigma[:, None] * raw + stats.mu[:, None]
    assert denormed.tobytes() == expected.tobytes()


# --- datetime64 ingest against the per-stamp datetime formulas -------------

STAMPS = st.datetimes(min_value=datetime(1900, 1, 1),
                      max_value=datetime(2100, 12, 31, 23, 59, 59, 999999))
HOUR_US = 3600 * 10**6


def _oracle_features(stamps):
    """The per-stamp formulas of the calendar features."""
    out = np.empty((len(stamps), 4))
    for i, ts in enumerate(stamps):
        out[i, 0] = ts.hour / 23.0 - 0.5
        out[i, 1] = ts.weekday() / 6.0 - 0.5
        out[i, 2] = (ts.day - 1) / 30.0 - 0.5
        out[i, 3] = (ts.timetuple().tm_yday - 1) / 365.0 - 0.5
    return out


def _oracle_hourly(stamps, values):
    """Per-record hourly means: a running sum and count per clock hour."""
    sums, counts = {}, {}
    for ts, value in zip(stamps, values):
        hour = ts.replace(minute=0, second=0, microsecond=0)
        if not math.isnan(value):
            sums[hour] = sums.get(hour, 0.0) + value
            counts[hour] = counts.get(hour, 0) + 1
        else:
            sums.setdefault(hour, 0.0)
            counts.setdefault(hour, 0)
    first = min(sums)
    n = int((max(sums) - first) / timedelta(hours=1)) + 1
    hours = [first + timedelta(hours=i) for i in range(n)]
    means = np.full(n, np.nan)
    for i, hour in enumerate(hours):
        if counts.get(hour, 0):
            means[i] = sums[hour] / counts[hour]
    valid = np.flatnonzero(~np.isnan(means))
    return hours, np.interp(np.arange(n), valid, means[valid])


@SETTINGS
@given(stamps=st.lists(STAMPS, min_size=1, max_size=40))
@example(stamps=[datetime(1969, 12, 31, 23, 59, 59, 500000),  # floor, not truncate
                 datetime(1900, 1, 1), datetime(1900, 12, 31, 23),
                 datetime(2000, 2, 29, 12), datetime(2000, 12, 31, 23, 59),
                 datetime(2096, 2, 29), datetime(2096, 12, 31, 5),
                 datetime(2100, 12, 31, 23, 59, 59, 999999)])
def test_time_features_match_per_stamp_formulas(stamps):
    got = make_time_features(np.array(stamps, dtype="datetime64[us]"))
    assert got.tobytes() == _oracle_features(stamps).tobytes()


@SETTINGS
@given(base=STAMPS.filter(lambda t: t < datetime(2100, 12, 20)),
       offsets=st.lists(st.integers(0, 5 * 24 * HOUR_US), min_size=1, max_size=40,
                        unique=True),
       data=st.data())
@example(base=datetime(1969, 12, 31, 22, 59, 59, 999999),
         offsets=[0, 1, 30 * 60 * 10**6, HOUR_US + 1, 3 * HOUR_US], data=None)
@example(base=datetime(2000, 2, 28, 23, 30), offsets=[0, HOUR_US, 25 * HOUR_US],
         data=None)
def test_hourly_means_match_per_record_sums(base, offsets, data):
    stamps = [base + timedelta(microseconds=o) for o in sorted(offsets)]
    if data is None:
        values = [float(i) * 0.1 for i in range(len(stamps))]
    else:
        values = data.draw(st.lists(st.floats(-1e6, 1e6) | st.just(math.nan),
                                    min_size=len(stamps), max_size=len(stamps)))
    series = RawSeries(stamps, values, "v")
    if all(math.isnan(v) for v in values):
        with pytest.raises(DataError):
            aggregate_hourly(series)
        return
    hours, means = _oracle_hourly(stamps, values)
    out = aggregate_hourly(series)
    assert out.timestamps.tolist() == hours
    assert out.values.tobytes() == means.tobytes()


@SETTINGS
@given(utc=st.lists(STAMPS, min_size=1, max_size=20, unique=True),
       suffixes=st.lists(st.sampled_from(["", "Z", "+05:30", "-08:00", "+00:00"]),
                         min_size=20, max_size=20))
@example(utc=[datetime(1969, 12, 31, 20, 15, 0, 1), datetime(2000, 2, 29, 23, 30)],
         suffixes=["+05:30", "Z"] + [""] * 18)
def test_offset_stamps_load_as_naive_utc(tmp_path_factory, utc, suffixes):
    lines = ["date,v"]
    for i, (ts, suffix) in enumerate(zip(utc, suffixes)):
        if suffix in ("", "Z", "+00:00"):
            local = ts
        else:
            sign = 1 if suffix[0] == "+" else -1
            local = ts + sign * timedelta(hours=int(suffix[1:3]), minutes=int(suffix[4:]))
        lines.append(f"{local.isoformat()}{suffix},{i}")
    path = tmp_path_factory.mktemp("stamps") / "stamps.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def oracle(text):
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
        return ts if ts.tzinfo is None else (ts - ts.utcoffset()).replace(tzinfo=None)

    expected = sorted(oracle(line.split(",")[0]) for line in lines[1:])
    series = load_csv(path, "v")
    assert series.timestamps.tolist() == expected
    assert (make_time_features(series.timestamps).tobytes()
            == _oracle_features(expected).tobytes())
