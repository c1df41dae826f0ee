"""Property tests: the batched causal-window op, the batched gated cell,
broadcasting vjps and batched input normalization."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tpgn import autodiff as ad
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
       seed=st.integers(0, 2**32 - 1))
def test_causal_windows_gradient(m, length, c, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (m, length, c))
    weight = ad.constant(rng.uniform(-1, 1, (m * length, (length - 1) * c)))
    err = ad.finite_diff_check(
        lambda t: ad.reduce_sum(ad.mul(ad.causal_windows(t), weight)), x)
    assert err <= 1e-9


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
