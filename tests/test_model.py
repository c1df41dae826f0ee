"""Two-branch forecaster: grid layout, branches, head mapping, costs."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from tpgn import autodiff as ad
from tpgn import baselines
from tpgn import model as tpgn_model
from tpgn.data import (SplitSpec, make_time_features, split_and_window,
                       synthetic_sinusoid, windows_of)
from tpgn.errors import ConfigError, ContractError
from tpgn.model import (SIGMA_FLOOR, VARIANTS, NormStats, SeriesWindow,
                        TpgnConfig, TpgnParams, _forward_core, _head_product,
                        finite_diff_all_params, flop_count, forecast_head,
                        long_branch, param_count, prepare_input, short_branch,
                        stack_grid, stack_targets, tpgn_forward, tpgn_forward_batch,
                        tpgn_graph_depth)
from tpgn.pgn import pgn_forward_oracle
from tpgn.training import predict_windows


def make_window(l_h, l_f, c_time=1, seed=0, x=None):
    rng = np.random.default_rng(seed)
    return SeriesWindow(
        x_1d=rng.uniform(-1, 1, l_h) if x is None else np.asarray(x, dtype=float),
        tf_enc=rng.uniform(-0.5, 0.5, (l_h, c_time)),
        y_true=rng.uniform(-1, 1, l_f))


def one_grid(arr):
    """A single [R, P, c] grid as a constant batch of one."""
    return ad.constant(np.asarray(arr)[None])


def make_model(l_h=8, l_f=8, period=4, c_time=1, hidden=2, seed=0, variant="full"):
    params = TpgnParams.init(l_h, l_f, period, c_time, hidden,
                             np.random.default_rng(seed), VARIANTS[variant])
    cfg = TpgnConfig(norm=0, period=period, variant=VARIANTS[variant])
    return params, cfg


class TestPrepareInput:
    def test_reshape_definition(self):
        w = SeriesWindow(x_1d=[1.0, 2.0, 3.0, 4.0], tf_enc=np.zeros((4, 0)),
                         y_true=[0.0, 0.0])
        grid, stats = prepare_input([w], norm=0, period=2)
        assert grid.shape == (1, 2, 2, 1)
        assert np.array_equal(grid[0, :, :, 0], [[1.0, 2.0], [3.0, 4.0]])
        assert stats is None

    def test_grid_index_mapping(self):
        l_h, period = 12, 4
        w = SeriesWindow(x_1d=np.arange(12.0), tf_enc=np.zeros((12, 0)),
                         y_true=np.zeros(4))
        grid, _ = prepare_input([w], norm=0, period=period)
        for r in range(3):
            for p in range(period):
                assert grid[0, r, p, 0] == float(r * period + p)

    def test_normalization_moments(self):
        # mu = 2, population variance 2/3 for [1, 2, 3]
        w = SeriesWindow(x_1d=[1.0, 2.0, 3.0], tf_enc=np.zeros((3, 0)),
                         y_true=[0.0])
        grid, stats = prepare_input([w], norm=1, period=1)
        assert stats.mu[0] == 2.0
        assert abs(stats.sigma[0] - np.sqrt(2.0 / 3.0)) < 1e-15
        values = grid[0, :, 0, 0]
        root = np.sqrt(1.5)
        assert np.allclose(values, [-root, 0.0, root], atol=1e-12)
        assert abs(values.mean()) < 1e-9
        assert abs(values.var() - 1.0) < 1e-6

    def test_constant_series_uses_sigma_floor(self):
        w = SeriesWindow(x_1d=np.full(6, 4.2), tf_enc=np.zeros((6, 0)),
                         y_true=np.zeros(2))
        grid, stats = prepare_input([w], norm=1, period=2)
        assert np.all(grid[0, :, :, 0] == 0.0)
        assert stats.sigma[0] == 1e-5

    def test_near_constant_series_uses_sigma_floor(self):
        # sigma ~ 3e-17 here: dividing by it would blow rounding noise up to +-1
        w = SeriesWindow(x_1d=np.full(168, 0.1), tf_enc=np.zeros((168, 0)),
                         y_true=np.zeros(24))
        grid, stats = prepare_input([w], norm=1, period=24)
        assert np.all(np.abs(grid[0, :, :, 0]) <= 1e-9)
        assert stats.sigma[0] == 1e-5

    def test_time_features_ride_along_unnormalized(self):
        rng = np.random.default_rng(1)
        tf = rng.uniform(-0.5, 0.5, (4, 2))
        w = SeriesWindow(x_1d=[10.0, 20.0, 30.0, 40.0], tf_enc=tf, y_true=[0.0, 0.0])
        grid, _ = prepare_input([w], norm=1, period=2)
        assert np.array_equal(grid[0, :, :, 1:].reshape(4, 2), tf)

    def test_indivisible_length_rejected(self):
        w = SeriesWindow(x_1d=np.zeros(5), tf_enc=np.zeros((5, 0)), y_true=[0.0])
        with pytest.raises(ConfigError, match="multiple"):
            prepare_input([w], norm=0, period=2)

    @pytest.mark.parametrize("l_h", [168, 1440])
    @pytest.mark.parametrize("norm", [0, 1])
    def test_one_buffer_matches_stack_then_concatenate(self, l_h, norm):
        # the grid builder writes each value once and normalizes in place;
        # the reference stacks both fields, normalizes a copy and concatenates
        hours = 40 + l_h
        rng = np.random.default_rng(l_h)
        windows = windows_of(3.0 * rng.normal(size=hours) + 1.0, l_h, 24,
                             rng.uniform(-0.5, 0.5, (hours, 4)))
        x = np.stack([w.x_1d for w in windows])
        tf = np.stack([w.tf_enc for w in windows])
        if norm:
            mu = x.mean(axis=1)
            sigma = np.maximum(np.sqrt(((x - mu[:, None]) ** 2).mean(axis=1)),
                               SIGMA_FLOOR)
            x = (x - mu[:, None]) / sigma[:, None]
        want = np.concatenate([x[:, :, None], tf], axis=2)
        grid, stats = prepare_input(windows, norm, 24)
        assert grid.tobytes() == want.reshape(grid.shape).tobytes()
        if norm:
            assert stats.mu.tobytes() == mu.tobytes()
            assert stats.sigma.tobytes() == sigma.tobytes()
        else:
            assert stats is None


class TestLongBranch:
    def test_zero_grid_gives_long_bias(self):
        params, _ = make_model(hidden=3)
        for b in (params.cell.hie_b, params.cell.gate_b, params.cell.cand_b):
            b[:] = 0.0
        params.long_b = np.asarray(0.7)
        grid = np.zeros((2, 4, 2))
        out = long_branch(one_grid(grid), params.constants(), "pgn")
        assert np.allclose(out.data, 0.7, atol=0)

    def test_matches_composed_oracles(self):
        # per-column gated-cell oracle followed by an explicit weighted sum
        params, cfg = make_model(l_h=12, l_f=8, period=4, c_time=2, hidden=3, seed=2)
        w = make_window(12, 8, c_time=2, seed=3)
        grid, _ = prepare_input([w], 0, 4)
        got = long_branch(ad.constant(grid), params.constants(), "pgn").data
        arr = grid[0]
        for p in range(4):
            col = arr[:, p, :]
            cell = pgn_forward_oracle(col, params.cell).output.data  # [R, d]
            expected = params.long_w @ cell + params.long_b
            assert np.max(np.abs(got[p] - expected)) < 1e-12

    def test_column_permutation_equivariance(self):
        params, _ = make_model(l_h=12, l_f=8, period=4, hidden=2, seed=4)
        rng = np.random.default_rng(5)
        arr = rng.uniform(-1, 1, (3, 4, 2))
        swapped = arr.copy()
        swapped[:, [1, 2], :] = swapped[:, [2, 1], :]
        a = long_branch(one_grid(arr), params.constants(), "pgn").data
        b = long_branch(one_grid(swapped), params.constants(), "pgn").data
        assert np.array_equal(a[[2, 1]], b[[1, 2]])

    def test_column_independence(self):
        params, _ = make_model(l_h=12, l_f=8, period=4, hidden=2, seed=6)
        rng = np.random.default_rng(7)
        arr = rng.uniform(-1, 1, (3, 4, 2))
        base = long_branch(one_grid(arr), params.constants(), "pgn").data
        zeroed = arr.copy()
        zeroed[:, 2, :] = 0.0
        out = long_branch(one_grid(zeroed), params.constants(), "pgn").data
        for q in range(4):
            if q == 2:
                continue
            assert np.array_equal(base[q], out[q])


class TestShortBranch:
    def test_zero_grid_zero_biases(self):
        params, _ = make_model(hidden=3)
        params.row_b[:] = 0.0
        params.col_b = np.asarray(0.0)
        out = short_branch(one_grid(np.zeros((2, 4, 2))), params.constants())
        assert np.all(out.data == 0.0)

    def test_single_row_weight_selects_patch(self):
        # col weights [alpha, 0]: every output row is alpha*patch_0 + col bias
        params, _ = make_model(l_h=8, l_f=8, period=4, hidden=3, seed=8)
        alpha = 1.7
        params.col_w = np.array([alpha, 0.0])
        params.col_b = np.asarray(0.25)
        rng = np.random.default_rng(9)
        arr = rng.uniform(-1, 1, (2, 4, 2))
        out = short_branch(one_grid(arr), params.constants()).data
        patch0 = params.row_w @ arr[0].reshape(-1) + params.row_b
        expected = alpha * patch0 + 0.25
        for p in range(4):
            assert np.allclose(out[p], expected, atol=1e-12)

    def test_matches_two_matmul_oracle(self):
        params, _ = make_model(l_h=4, l_f=4, period=2, c_time=0, hidden=1, seed=10)
        rng = np.random.default_rng(11)
        arr = rng.uniform(-1, 1, (2, 2, 1))
        got = short_branch(one_grid(arr), params.constants()).data
        patches = arr.reshape(2, 2) @ params.row_w.T + params.row_b  # [R, d]
        global_vec = params.col_w @ patches + params.col_b
        assert np.allclose(got, np.tile(global_vec, (2, 1)), atol=1e-12)

    def test_rows_flattened_step_major(self):
        # a weight that reads channel 1 of step p=1 sees exactly that entry
        params, _ = make_model(l_h=4, l_f=4, period=2, c_time=1, hidden=1, seed=12)
        params.row_w = np.zeros((1, 4))
        params.row_w[0, 3] = 1.0  # step-major flatten: (p=1, ch=1) -> index 3
        params.row_b[:] = 0.0
        params.col_w = np.array([1.0, 0.0])
        params.col_b = np.asarray(0.0)
        arr = np.zeros((2, 2, 2))
        arr[0, 1, 1] = 5.0
        out = short_branch(one_grid(arr), params.constants()).data
        assert np.allclose(out, 5.0, atol=0)


class TestForecastHead:
    def test_constant_head_tiles_bias(self):
        params, _ = make_model(l_h=8, l_f=8, period=4, hidden=2, seed=13)
        params.head_w[:] = 0.0
        beta = np.array([1.5, -2.5])
        params.head_b = beta
        h = ad.constant(np.zeros((4, 2)))
        out = forecast_head(h, h, params.constants(), params, None, 1).data[0]
        for i in range(8):
            r_f, p = divmod(i, 4)
            assert out[i] == beta[r_f]

    def test_index_mapping_oracle(self):
        # y2d rows (per column p) [[a, b], [c, d]] flatten to [a, c, b, d]
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        params, _ = make_model(l_h=4, l_f=4, period=2, hidden=2, seed=14)
        params.head_b[:] = 0.0
        params.head_w = np.zeros((2, 4))
        params.head_w[0, :2] = [a, c]
        params.head_w[1, :2] = [b, d]
        h_long = ad.constant(np.eye(2))  # one-hot per column
        h_rep = ad.constant(np.zeros((2, 2)))
        out = forecast_head(h_long, h_rep, params.constants(), params, None, 1).data[0]
        assert np.array_equal(out, [a, c, b, d])

    @pytest.mark.parametrize("r_f,p", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_delta_probe_mapping(self, r_f, p):
        # exactly one nonzero y2d entry lands at output index r_f*P + p
        params, _ = make_model(l_h=4, l_f=4, period=2, hidden=2, seed=15)
        params.head_b[:] = 0.0
        params.head_w = np.zeros((2, 4))
        params.head_w[r_f, p] = 1.0
        h_long = ad.constant(np.eye(2))
        h_rep = ad.constant(np.zeros((2, 2)))
        out = forecast_head(h_long, h_rep, params.constants(), params, None, 1).data[0]
        expected = np.zeros(4)
        expected[r_f * 2 + p] = 1.0
        assert np.array_equal(out, expected)

    def test_denormalization_is_affine(self):
        params, _ = make_model(l_h=8, l_f=8, period=4, hidden=2, seed=16)
        rng = np.random.default_rng(17)
        h_long = ad.constant(rng.uniform(-1, 1, (4, 2)))
        h_rep = ad.constant(rng.uniform(-1, 1, (4, 2)))
        w = params.constants()
        raw = forecast_head(h_long, h_rep, w, params, None, 1).data
        denormed = forecast_head(h_long, h_rep, w, params,
                                 NormStats(np.array([10.0]), np.array([2.0])), 1).data
        assert np.allclose(denormed, 2.0 * raw + 10.0, atol=1e-12)


class TestTpgnForward:
    def test_constant_model_prediction(self):
        params, cfg = make_model(l_h=8, l_f=8, period=4, hidden=2, seed=18)
        for name, arr in params.named_arrays().items():
            arr[...] = 0.0
        beta = np.array([0.5, -1.0])
        params.head_b[:] = beta
        w = make_window(8, 8, seed=19)
        out = tpgn_forward(w, params, cfg).data
        expected = np.concatenate([np.full(4, beta[0]), np.full(4, beta[1])])
        assert np.array_equal(out, expected)
        # hand MSE against the window targets
        assert abs(np.mean((out - w.y_true) ** 2) -
                   np.mean((expected - w.y_true) ** 2)) == 0.0

    def test_long_off_equals_zeroed_long_branch(self):
        params, cfg_short = make_model(l_h=8, l_f=8, period=4, hidden=2, seed=20,
                                       variant="short")
        w = make_window(8, 8, seed=21)
        got = tpgn_forward(w, params, cfg_short).data
        grid, stats = prepare_input([w], 0, 4)
        weights = params.constants()
        h_short = short_branch(ad.constant(grid), weights)
        zeros = ad.constant(np.zeros((4, 2)))
        expected = forecast_head(zeros, h_short, weights, params, stats, 1).data[0]
        assert np.array_equal(got, expected)

    def test_full_forward_equals_chained_oracles(self):
        params, cfg = make_model(l_h=8, l_f=8, period=4, c_time=1, hidden=2, seed=22)
        cfg = TpgnConfig(norm=1, period=4)
        w = make_window(8, 8, seed=23)
        got = tpgn_forward(w, params, cfg).data

        # chain: normalize -> grid -> per-column cell oracle -> weighted sums
        x = w.x_1d
        mu = x.mean()
        sigma = np.sqrt(((x - mu) ** 2).mean())
        arr = np.concatenate([((x - mu) / sigma)[:, None], w.tf_enc], 1).reshape(2, 4, 2)
        h_long = np.empty((4, 2))
        for p in range(4):
            cell = pgn_forward_oracle(arr[:, p, :], params.cell).output.data
            h_long[p] = params.long_w @ cell + params.long_b
        patches = arr.reshape(2, 8) @ params.row_w.T + params.row_b
        h_global = params.col_w @ patches + params.col_b
        y2d = np.concatenate([h_long, np.tile(h_global, (4, 1))], 1) @ params.head_w.T \
            + params.head_b
        expected = y2d.T.reshape(-1) * sigma + mu
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_batch_equals_single(self):
        params, cfg = make_model(l_h=8, l_f=8, period=4, hidden=3, seed=24)
        windows = [make_window(8, 8, seed=s) for s in range(5)]
        batch = tpgn_forward_batch(windows, params, cfg).data
        for i, w in enumerate(windows):
            single = tpgn_forward(w, params, cfg).data
            # BLAS may round stacked and single matmuls differently by one ulp
            assert np.max(np.abs(batch[i] - single)) <= 1e-12

    @pytest.mark.parametrize("l_h,l_f,period,hidden", [
        (8, 8, 4, 2), (48, 48, 24, 3), (12, 36, 6, 4), (16, 8, 4, 5)])
    def test_output_length_contract(self, l_h, l_f, period, hidden):
        params, cfg = make_model(l_h, l_f, period, 1, hidden, seed=25)
        out = tpgn_forward(make_window(l_h, l_f, seed=26), params, cfg)
        assert out.shape == (l_f,)

    def test_normalization_affine_invariance(self):
        # value-only input, norm=1: scaling/shifting the window scales the output
        params, _ = make_model(l_h=8, l_f=8, period=4, c_time=0, hidden=3, seed=27)
        cfg = TpgnConfig(norm=1, period=4)
        rng = np.random.default_rng(28)
        x = rng.uniform(-1, 1, 8)
        w1 = SeriesWindow(x_1d=x, tf_enc=np.zeros((8, 0)), y_true=np.zeros(8))
        a_scale, b_shift = 3.0, -2.0
        w2 = SeriesWindow(x_1d=a_scale * x + b_shift, tf_enc=np.zeros((8, 0)),
                          y_true=np.zeros(8))
        p1 = tpgn_forward(w1, params, cfg).data
        p2 = tpgn_forward(w2, params, cfg).data
        assert np.max(np.abs(p2 - (a_scale * p1 + b_shift))) <= 1e-9

    def test_window_length_mismatch_rejected(self):
        params, cfg = make_model()
        with pytest.raises(ConfigError, match="lengths"):
            tpgn_forward(make_window(12, 8), params, cfg)

    @pytest.mark.parametrize("shapes", [
        [(8, 4, 1)],              # horizon
        [(8, 8, 2)],              # time features
        [(8, 8, 1), (12, 8, 1)],  # two history lengths in one batch
    ])
    def test_batch_disagreeing_with_model_rejected(self, shapes):
        params, cfg = make_model()
        windows = [make_window(l_h, l_f, c_time) for l_h, l_f, c_time in shapes]
        with pytest.raises(ConfigError):
            tpgn_forward_batch(windows, params, cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["x_1d", "tf_enc"])
    def test_non_finite_input_rejected(self, field, value):
        params, cfg = make_model()
        good = make_window(8, 8, seed=1)
        arr = getattr(good, field).copy()
        arr.flat[3] = value
        bad = replace(good, **{field: arr})
        for batch in ([good, bad], [bad, good]):
            with pytest.raises(ContractError, match="NaN or Inf"):
                tpgn_forward_batch(batch, params, cfg)
            with pytest.raises(ContractError, match="NaN or Inf"):
                stack_grid(batch)

    @pytest.mark.parametrize("windows,error", [
        ([], ContractError),
        ([make_window(8, 8), make_window(8, 4)], ConfigError),
    ], ids=["empty", "two horizons"])
    def test_stack_targets_rejects_bad_batch(self, windows, error):
        with pytest.raises(error):
            stack_targets(windows)

    def test_variant_cell_mismatch_rejected(self):
        params, _ = make_model()  # no cell attached
        cfg = TpgnConfig(norm=0, period=4, variant=VARIANTS["gru"])
        with pytest.raises(ConfigError, match="cell"):
            tpgn_forward(make_window(8, 8), params, cfg)

    def test_both_branches_off_rejected(self):
        from tpgn.model import TpgnVariant

        with pytest.raises(ConfigError, match="at least one branch"):
            TpgnVariant("off", False)


class TestTrackedGridForward:
    def test_matches_fast_path(self):
        # the one model forward, fed a leaf grid as depth probing does,
        # reproduces the untracked batch path for every variant
        w = make_window(12, 8, seed=30)
        for variant in VARIANTS:
            params, cfg = make_model(l_h=12, l_f=8, period=4, hidden=3, seed=29,
                                     variant=variant)
            fast = tpgn_forward(w, params, cfg).data
            grid, stats = prepare_input([w], cfg.norm, cfg.period)
            g = ad.Graph()
            leaf = g.leaf(grid, op="input")
            tracked = _forward_core(leaf, stats, params.leaf_into(g), params)
            assert tracked.tracked
            assert np.array_equal(tracked.data[0], fast), variant
            grad = ad.backward(ad.reduce_sum(tracked))[leaf]
            assert grad.shape == leaf.shape and np.any(grad != 0.0), variant

    @pytest.mark.parametrize("variant", ["full", "long", "gru", "lstm", "mlp"])
    def test_blocked_long_branch_matches_tracked(self, variant):
        # 128 windows at 168->168 with d_m=32: the untracked long branch
        # runs in several sequence blocks, the tracked one in a single block
        assert len(ad.sequence_blocks(128 * 24, 7 * 32 * 8, 32, 32)) > 1
        windows = [make_window(168, 168, c_time=4, seed=s) for s in range(128)]
        for norm in (0, 1):
            for shared in (True, False):
                params = TpgnParams.init(168, 168, 24, 4, 32, np.random.default_rng(36),
                                         VARIANTS[variant], head_shared=shared)
                cfg = TpgnConfig(norm=norm, period=24, variant=VARIANTS[variant])
                fast = tpgn_forward_batch(windows, params, cfg)
                grid, stats = prepare_input(windows, norm, 24)
                g = ad.Graph()
                tracked = _forward_core(g.leaf(grid, op="input"), stats,
                                        params.leaf_into(g), params)
                assert not fast.tracked and tracked.tracked
                assert np.array_equal(fast.data, tracked.data), (norm, shared)

    def test_depth_constant_across_history_lengths(self):
        depths = []
        for l_h in (8, 64, 512):
            params, cfg = make_model(l_h=l_h, l_f=8, period=4, hidden=2, seed=31)
            depths.append(tpgn_graph_depth(params, cfg))
        assert depths[0] == depths[1] == depths[2]


def consecutive_windows(n, l_h=48, l_f=16, c_time=4, seed=60):
    """The first ``n`` stride-1 windows of one random series."""
    rng = np.random.default_rng(seed)
    hours = n + l_h + l_f - 1
    return windows_of(rng.uniform(-1, 1, hours), l_h, l_f,
                      rng.uniform(-0.5, 0.5, (hours, c_time)))


class TestRepeatedColumns:
    """Consecutive windows share columns and patches; the untracked forward
    runs each distinct column once, and each distinct patch once where that
    keeps the bits."""

    # gru/lstm at d=32 with a few windows are where the distinct columns
    # alone would fall under OpenBLAS's small-GEMM limit
    CASES = [(d, n) for d in (8, 32) for n in (1, 2, 3, 5, 9, 13, 40)]

    @pytest.mark.parametrize("kind", sorted(baselines.CELLS))
    def test_long_branch_matches_shuffled_batch(self, kind, monkeypatch):
        # shuffling breaks the runs of consecutive windows, so nearly every
        # column runs; long_branch runs every column in one pass
        variant = "full" if kind == "pgn" else kind
        column_summaries, ran = tpgn_model._column_summaries, []

        def recording(columns, *args):
            # each window's column summaries, as the head reads them
            out = column_summaries(columns, *args)
            ran.append(columns.of_windows(out, 0, len(columns.base)))
            return out

        monkeypatch.setattr(tpgn_model, "_column_summaries", recording)
        for d, n in self.CASES:
            windows = consecutive_windows(n)
            order = np.random.default_rng(n).permutation(n)
            params = TpgnParams.init(48, 16, 8, 4, d, np.random.default_rng(d),
                                     VARIANTS[variant])
            w = params.constants()

            def summaries(batch, norm):
                # the untracked long branch: runs of the set under norm=0,
                # every column of the grids under norm=1
                ran.clear()
                untracked_forward(batch, params, norm)
                (per_window,) = ran
                return per_window

            for norm in (0, 1):
                grid, _ = prepare_input(windows, norm, 8)
                fast = summaries(windows, norm)
                every = np.empty_like(fast)
                every[order] = summaries(windows[order], norm)
                assert np.array_equal(fast, every), (d, n, norm)
                one_pass = long_branch(ad.constant(grid), w, kind).data
                assert np.array_equal(fast, one_pass.reshape(n, 8, d)), (d, n, norm)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_forward_matches_one_pass_over_every_column(self, variant):
        # the tracked forward runs every column in one pass; the batch keeps
        # its order, because the per-phase head's small GEMMs are not
        # byte-equal across row orders
        for d, n in self.CASES:
            windows = consecutive_windows(n)
            for norm in (0, 1):
                grid, stats = prepare_input(windows, norm, 8)
                for shared in (True, False):
                    params = TpgnParams.init(48, 16, 8, 4, d, np.random.default_rng(d),
                                             VARIANTS[variant], head_shared=shared)
                    cfg = TpgnConfig(norm=norm, period=8, variant=VARIANTS[variant])
                    fast = tpgn_forward_batch(windows, params, cfg).data
                    g = ad.Graph()
                    every = _forward_core(g.leaf(grid, op="input"), stats,
                                          params.leaf_into(g), params).data
                    assert np.array_equal(fast, every), (d, n, norm, shared)

    @pytest.mark.parametrize("kind", ["pgn", "gru"])
    def test_cell_sees_each_distinct_column_once(self, kind, monkeypatch):
        seen = []
        cell = baselines.CELLS[kind]

        def counting(x, w):
            seen.append(x.shape[0])
            return cell.apply(x, w)

        monkeypatch.setitem(baselines.CELLS, kind, replace(cell, apply=counting))
        variant = "full" if kind == "pgn" else kind
        params = TpgnParams.init(48, 16, 8, 4, 32, np.random.default_rng(61),
                                 VARIANTS[variant])
        windows = consecutive_windows(40)

        def columns_run(batch, norm):
            seen.clear()
            tpgn_forward_batch(batch, params,
                               TpgnConfig(norm=norm, period=8, variant=VARIANTS[variant]))
            return sum(seen)

        assert columns_run(windows, 0) == 40 + 8 - 1
        assert columns_run(windows[::-1], 0) == 40 * 8
        odd_then_even = [*windows[1::2], *windows[::2]]  # no window follows its predecessor
        assert columns_run(odd_then_even, 0) == 40 * 8
        assert columns_run(windows, 1) == 40 * 8  # each window z-scored apart
        assert columns_run(windows[:1], 0) == 8
        # two runs of consecutive windows: each starts with all its columns
        assert columns_run(windows[:20] + windows[25:], 0) == 2 * (8 - 1) + 35

    @pytest.mark.parametrize("d,shared_patches", [(32, True), (64, True), (12, False)])
    def test_patch_map_sees_each_distinct_patch_once(self, d, shared_patches, monkeypatch):
        # a run of N windows holds N+(R-1)*P distinct patches; the map runs
        # once per distinct patch only at widths a multiple of eight
        rows_mapped = []
        linear = ad.linear

        def counting(x, w, b):
            rows_mapped.append(x.shape[0])
            return linear(x, w, b)

        monkeypatch.setattr(ad, "linear", counting)
        params = TpgnParams.init(48, 16, 8, 4, d, np.random.default_rng(65),
                                 VARIANTS["short"])
        windows = consecutive_windows(70)
        two_runs = windows[:30] + windows[35:]
        untracked_forward(two_runs, params, 0)
        # P=8, R=6: runs of 30 and 35 windows hold 70 and 75 patches
        assert rows_mapped == [(30 + 40) + (35 + 40) if shared_patches else 65 * 6]
        rows_mapped.clear()
        untracked_forward(windows[:5], params, 0)  # 45 distinct patches > 30 rows
        assert rows_mapped == [5 * 6]
        rows_mapped.clear()
        untracked_forward(two_runs, params, 1)  # each window z-scored apart
        assert rows_mapped == [65 * 6]

    @pytest.mark.parametrize("n,l_h,norm", [
        (1500, 168, 0),  # 1,523 distinct of 36,000 columns
        (301, 1440, 1),  # every column distinct: 3.5 MB of activations
    ])
    def test_hidden_one_runs_every_column_in_one_pass(self, n, l_h, norm):
        # at d_m = 1 the cell's [n, c] @ [c, 1] products are GEMVs, whose
        # sums depend on their row count: neither dropping the repeats nor
        # splitting into sequence blocks is byte-equal there
        windows = consecutive_windows(n, l_h=l_h, l_f=24)
        params = TpgnParams.init(l_h, 24, 24, 4, 1, np.random.default_rng(62),
                                 VARIANTS["mlp"])
        assert np.array_equal(untracked_forward(windows, params, norm),
                              tracked_forward(windows, params, norm))


def untracked_forward(windows, params, norm):
    cfg = TpgnConfig(norm=norm, period=params.period, variant=params.variant)
    return tpgn_forward_batch(windows, params, cfg).data


def tracked_forward(windows, params, norm):
    """The forward as training runs it: one pass over every column and window."""
    grid, stats = prepare_input(windows, norm, params.period)
    g = ad.Graph()
    return _forward_core(g.leaf(grid, op="input"), stats, params.leaf_into(g),
                         params).data


def at_widths(values):
    """Each value at d_m 32, 1, 5 and 8, the first under the value's own id."""
    return [pytest.param(v, d, id=str(v) if d == 32 else f"{v}-d{d}")
            for v in values for d in (32, 1, 5, 8)]


def head_plan(n, period=8, d=32, r_f=2, shared=True):
    """The window blocks of the untracked head: a shared GEMM has P*R_f
    outputs per window, each phase's GEMM R_f."""
    return ad.sequence_blocks(n, period * 2 * d * 8, (period if shared else 1) * r_f, r_f)


class TestBlockedSharedHead:
    """The untracked shared head maps a cache-sized block of windows at a time."""

    def test_plan_fits_one_mebibyte(self):
        # [P, 2d] = 4 KiB of head operands per window at P=8, d=32
        assert head_plan(256) == [(0, 256)]
        assert head_plan(257) == [(0, 128), (128, 257)]
        assert head_plan(512) == [(0, 256), (256, 512)]
        assert head_plan(600) == [(0, 200), (200, 400), (400, 600)]

    def test_no_block_at_or_under_the_small_gemm_limit(self):
        # 192 KiB per window at P=24, d=512 would want 19 blocks of 100
        # windows, but a block needs 26 windows (26*24*2 = 1248 outputs)
        assert head_plan(51, period=24, d=512) == [(0, 51)]
        assert head_plan(52, period=24, d=512) == [(0, 26), (26, 52)]
        assert head_plan(100, period=24, d=512) == [(0, 33), (33, 66), (66, 100)]
        for n in range(1, 400, 7):
            blocks = head_plan(n, period=24, d=512)
            assert len(blocks) == 1 or min(e - s for s, e in blocks) * 48 > 1200

    def test_one_output_column_never_splits(self):
        # [n, 2d] @ [2d, 1] runs OpenBLAS's GEMV path: its row blocks do not
        # sum like the whole product
        assert head_plan(600, r_f=1) == [(0, 600)]
        assert head_plan(100, period=24, d=512, r_f=1) == [(0, 100)]

    @pytest.mark.parametrize("variant", ["full", "long", "short", "gru"])
    @pytest.mark.parametrize("n", [100, 256, 257, 512, 600])
    def test_matches_tracked_forward(self, variant, n):
        # one block (100, 256), two of unequal size, exactly two, and three
        windows = consecutive_windows(n)
        for norm in (0, 1):
            params = TpgnParams.init(48, 16, 8, 4, 32, np.random.default_rng(n),
                                     VARIANTS[variant])
            assert np.array_equal(untracked_forward(windows, params, norm),
                                  tracked_forward(windows, params, norm)), norm

    @pytest.mark.parametrize("r_f,n", [(1, 601), (7, 6144), (11, 1500), (12, 192),
                                       (12, 200), (12, 257), (30, 1500)])
    def test_transposed_product_keeps_the_direct_bits(self, r_f, n):
        # OpenBLAS sums head_w @ rows.T like rows @ head_w.T except at
        # R_f >= 12 with over 192 rows not a multiple of eight (the last two)
        rng = np.random.default_rng(n)
        w, rows = rng.standard_normal((r_f, 64)), rng.standard_normal((n, 64))
        assert np.array_equal(_head_product(w, rows, np.empty(r_f * n)), (rows @ w.T).T)

    @pytest.mark.parametrize("shared", [True, False])
    def test_long_horizon_at_odd_period_matches_tracked_forward(self, shared):
        # P=5, R_f=12: one block of 300 windows, so 1500 rows (shared) or
        # 300 per phase, the side of the rule where the direct product runs
        assert head_plan(300, period=5, d=8, r_f=12, shared=shared) == [(0, 300)]
        windows = consecutive_windows(300, l_h=20, l_f=60)
        params = TpgnParams.init(20, 60, 5, 4, 8, np.random.default_rng(66),
                                 VARIANTS["full"], head_shared=shared)
        for norm in (0, 1):
            assert np.array_equal(untracked_forward(windows, params, norm),
                                  tracked_forward(windows, params, norm)), norm

    @pytest.mark.parametrize("variant,d", at_widths(["full", "short"]))
    def test_one_output_column_matches_tracked_forward(self, variant, d):
        # the transposed head product is a GEMV too, and sums like the tracked one
        windows = consecutive_windows(600, l_f=8)
        for shared in (True, False):
            params = TpgnParams.init(48, 8, 8, 4, d, np.random.default_rng(63),
                                     VARIANTS[variant], head_shared=shared)
            assert params.horizon_rows == 1
            for norm in (0, 1):
                assert np.array_equal(untracked_forward(windows, params, norm),
                                      tracked_forward(windows, params, norm)), (norm, shared)


class TestBlockedPerPhaseHead:
    """The untracked per-phase head maps the same window blocks, each with
    one stacked GEMM of block rows per phase."""

    def test_plan_counts_one_phase_gemm(self):
        # at P=24, R_f=7 a per-phase block needs 172 windows (172*7 = 1204
        # outputs), a shared one 8 (8*24*7 = 1344)
        per_phase = dict(period=24, r_f=7, shared=False)
        assert head_plan(343, **per_phase) == [(0, 343)]
        assert head_plan(344, **per_phase) == [(0, 172), (172, 344)]
        assert head_plan(600, **per_phase) == [(0, 200), (200, 400), (400, 600)]
        assert len(head_plan(600, period=24, r_f=7)) == 8
        assert head_plan(600, r_f=1, shared=False) == [(0, 600)]

    @pytest.mark.parametrize("shared", [True, False])
    def test_forward_runs_the_plan(self, shared, monkeypatch):
        want = head_plan(600, r_f=12, shared=shared)
        assert len(want) == 3
        plans = []

        def recording(*args):
            plans.append(sequence_blocks(*args))
            return plans[-1]

        sequence_blocks = ad.sequence_blocks
        monkeypatch.setattr(ad, "sequence_blocks", recording)
        params = TpgnParams.init(48, 96, 8, 4, 32, np.random.default_rng(64),
                                 VARIANTS["short"], head_shared=shared)
        untracked_forward(consecutive_windows(600, l_f=96), params, 0)
        # the short branch plans first: its 640 distinct patches [P*c = 40]
        # through the map, then the 600 windows' collapse of R = 6 each
        patch_plans = [sequence_blocks(640, 40 * 8, 32, 32),
                       sequence_blocks(600, 6 * 40 * 8, 6 * 32, 32)]
        assert patch_plans == [[(0, 640)], [(0, 300), (300, 600)]]
        assert plans == [*patch_plans, want]

    @pytest.mark.parametrize("variant", ["full", "short", "gru"])
    @pytest.mark.parametrize("n,d", at_widths([100, 257, 600]))
    def test_matches_tracked_forward(self, variant, n, d):
        # at 48->96 (R_f = 12), d_m=32: one block, two of unequal size, and
        # three; the narrower models map every window in one block
        blocks = {100: 1, 257: 2, 600: 3}[n] if d == 32 else 1
        assert len(head_plan(n, d=d, r_f=12, shared=False)) == blocks
        windows = consecutive_windows(n, l_f=96)
        params = TpgnParams.init(48, 96, 8, 4, d, np.random.default_rng(n),
                                 VARIANTS[variant], head_shared=False)
        for norm in (0, 1):
            assert np.array_equal(untracked_forward(windows, params, norm),
                                  tracked_forward(windows, params, norm)), norm


class TestWideModels:
    """Wide models whose untracked forward runs several sequence and head
    blocks.  At these widths, multiples of eight, it is byte-equal to the
    tracked forward; at d_m such as 196 or 300 it is not."""

    @pytest.mark.parametrize("variant", ["full", "gru"])
    @pytest.mark.parametrize("d", [200, 256])
    def test_predict_windows_matches_tracked_forward(self, variant, d):
        # 160 consecutive windows at 168->168, P=24: 183 distinct columns
        # in 2 (d=200) or 3 (d=256) sequence blocks, the head in window blocks
        n, rows = 160, 7
        assert len(ad.sequence_blocks(n + 23, rows * d * 8, d, d)) > 1
        assert len(head_plan(n, period=24, d=d, r_f=rows)) > 1
        windows = consecutive_windows(n, l_h=168, l_f=168)
        params = TpgnParams.init(168, 168, 24, 4, d, np.random.default_rng(d),
                                 VARIANTS[variant])
        for norm in (0, 1):
            cfg = TpgnConfig(norm=norm, period=24, variant=VARIANTS[variant])
            assert (predict_windows(params, windows, cfg).tobytes()
                    == tracked_forward(windows, params, norm).tobytes()), norm


class TestGradients:
    def test_every_parameter_tensor(self):
        params, _ = make_model(l_h=8, l_f=8, period=4, c_time=1, hidden=2, seed=32)
        cfg = TpgnConfig(norm=1, period=4)
        w = make_window(8, 8, seed=33)
        errors = finite_diff_all_params(w, params, cfg)
        assert len(errors) == 14
        worst = max(errors.values())
        assert worst < 1e-5, errors

    @pytest.mark.parametrize("variant", ["gru", "lstm", "mlp"])
    def test_cell_variants_differentiable(self, variant):
        params, cfg = make_model(l_h=8, l_f=8, period=4, hidden=2, seed=34,
                                 variant=variant)
        w = make_window(8, 8, seed=35)
        errors = finite_diff_all_params(w, params, cfg)
        assert max(errors.values()) < 1e-5, errors


class TestLiveWeights:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_tensor_gets_a_gradient(self, variant):
        params, cfg = make_model(l_h=12, l_f=8, period=4, c_time=1, hidden=3,
                                 seed=50, variant=variant)
        windows = [make_window(12, 8, seed=s) for s in (51, 52, 53)]
        g = ad.Graph()
        leaves = params.leaf_into(g)
        preds = tpgn_forward_batch(windows, params, cfg, weights=leaves)
        diff = ad.sub(preds, ad.constant(np.stack([w.y_true for w in windows])))
        grads = ad.backward(ad.reduce_mean(ad.mul(diff, diff)))
        for name, leaf in leaves.items():
            assert np.any(grads[leaf] != 0.0), f"{variant}: {name} is dead"

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_variant_read_off_weights(self, variant):
        params, _ = make_model(variant=variant)
        assert params.variant == VARIANTS[variant]

    def test_param_count_per_variant_by_hand(self):
        # R=2, P=4, c=2, d=2, R_f=2
        head = 2 * 4 + 2
        gate = 2 * 4 + 2  # one [d, c+d] map and its bias
        cells = {"pgn": 2 * 2 + 2 + 2 * gate,            # hie + gate + cand
                 "gru": 2 * gate + 2 * 2 + 2 * 2 + 2,     # update, reset, cand x/h/b
                 "lstm": 4 * gate,
                 "mlp": 2 * 2 + 2 + 2 * 2 + 2}
        long_agg = 2 + 1
        short = 2 * 8 + 2 + 2 + 1
        expected = {"full": head + cells["pgn"] + long_agg + short,
                    "long": head + cells["pgn"] + long_agg,
                    "short": head + short,
                    **{k: head + cells[k] + long_agg + short
                       for k in ("gru", "lstm", "mlp")}}
        for variant, count in expected.items():
            params, _ = make_model(l_h=8, l_f=8, period=4, c_time=1, hidden=2,
                                   variant=variant)
            assert param_count(params) == count, variant
        assert len({expected["full"], expected["long"], expected["short"]}) == 3

    def test_config_variant_must_match_weights(self):
        params, _ = make_model(variant="short")
        with pytest.raises(ConfigError, match="does not match"):
            tpgn_forward(make_window(8, 8), params, TpgnConfig(norm=0, period=4))

    def test_stray_weight_rejected(self):
        from tpgn.errors import DimensionError

        params, _ = make_model(variant="short")
        params.long_w = np.zeros(2)
        with pytest.raises(DimensionError, match="long_w"):
            params.validate()


class TestCostAccounting:
    def test_param_count_by_hand(self):
        # R=2, P=4, c=2, d=2, R_f=2
        params, _ = make_model(l_h=8, l_f=8, period=4, c_time=1, hidden=2)
        pgn = 2 * 2 + 2 + 2 * 4 + 2 + 2 * 4 + 2  # hie + gate + cand (w and b)
        rest = 2 + 1 + 2 * 8 + 2 + 2 + 1 + 2 * 4 + 2
        assert param_count(params) == pgn + rest

    def test_hie_macs_per_timestep(self):
        params, _ = make_model(l_h=8, l_f=8, period=4, c_time=1, hidden=2)
        fc = flop_count(params, 8, 8)
        rows, c, d, period = 2, 2, 2, 4
        hie_total = period * rows * (rows - 1) * c * d
        gates_total = period * 2 * rows * (d + c) * d
        agg_total = period * rows * d
        assert fc.long_branch == hie_total + gates_total + agg_total

    def test_doubling_period_keeps_per_column_gate_macs(self):
        p1, _ = make_model(l_h=8, l_f=8, period=4, c_time=1, hidden=2)
        p2, _ = make_model(l_h=16, l_f=16, period=8, c_time=1, hidden=2)
        # same R: per-column long-branch work identical, total scales with P
        f1 = flop_count(p1, 8, 8)
        f2 = flop_count(p2, 16, 16)
        assert f1.long_branch // 4 == f2.long_branch // 8

    def test_quadrupling_length_doubles_layer_widths(self):
        # R=P=sqrt(L): 4x the history doubles both grid sides
        p1, _ = make_model(l_h=144, l_f=144, period=12, c_time=1, hidden=2)
        p2, _ = make_model(l_h=576, l_f=576, period=24, c_time=1, hidden=2)
        assert (p1.rows, p2.rows) == (12, 24)
        assert p2.row_w.shape[1] == 2 * p1.row_w.shape[1]
        assert p1.cell.hie_w.shape[1] == (12 - 1) * 2
        assert p2.cell.hie_w.shape[1] == (24 - 1) * 2
        assert p2.long_w.shape[0] == 2 * p1.long_w.shape[0]

    def test_totals_split_per_branch(self):
        params, _ = make_model(l_h=8, l_f=8, period=4, c_time=1, hidden=2)
        fc = flop_count(params, 8, 8)
        assert fc.total == fc.long_branch + fc.short_branch + fc.head
        fc_long = flop_count(params, 8, 8, VARIANTS["long"])
        assert fc_long.short_branch == 0
        fc_short = flop_count(params, 8, 8, VARIANTS["short"])
        assert fc_short.long_branch == 0

    def test_length_mismatch_rejected(self):
        params, _ = make_model()
        with pytest.raises(ConfigError):
            flop_count(params, 12, 8)

    @pytest.mark.parametrize("variant", ["gru", "short"])
    def test_default_variant_is_the_params_own(self, variant):
        params, _ = make_model(l_h=168, l_f=168, period=24, c_time=4, hidden=32,
                               variant=variant)
        assert flop_count(params, 168, 168) == flop_count(params, 168, 168,
                                                          VARIANTS[variant])
        assert flop_count(params, 168, 168).total != \
            flop_count(params, 168, 168, VARIANTS["full"]).total

    def test_short_model_cost_by_hand(self):
        # R=7, P=24, c=5, d=32, R_f=7: patches + column sum, then the head
        params, _ = make_model(l_h=168, l_f=168, period=24, c_time=4, hidden=32,
                               variant="short")
        assert flop_count(params, 168, 168).total == \
            7 * (24 * 5) * 32 + 7 * 32 + 24 * (2 * 32) * 7 == 37856


class TestPerPhaseHead:
    def test_copies_of_shared_weights_match_shared_head(self):
        rng = np.random.default_rng(40)
        shared = TpgnParams.init(8, 8, 4, 1, 2, rng)
        per_phase = TpgnParams.init(8, 8, 4, 1, 2, np.random.default_rng(40),
                                    head_shared=False)
        # same non-head weights, every phase holding the shared head's map
        for name in ("long_w", "long_b", "row_w", "row_b", "col_w", "col_b"):
            getattr(per_phase, name)[...] = getattr(shared, name)
        for name, arr in shared.cell.named_arrays().items():
            getattr(per_phase.cell, name)[...] = arr
        per_phase.head_w[...] = np.broadcast_to(shared.head_w, (4, 2, 4))
        per_phase.head_b[...] = np.broadcast_to(shared.head_b, (4, 2))
        cfg = TpgnConfig(norm=0, period=4)
        w = make_window(8, 8, seed=41)
        a = tpgn_forward(w, shared, cfg).data
        b = tpgn_forward(w, per_phase, cfg).data
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_phase_weights_act_only_on_their_column(self):
        params = TpgnParams.init(8, 8, 4, 1, 2, np.random.default_rng(42),
                                 head_shared=False)
        params.head_w[...] = 0.0
        params.head_b[...] = 0.0
        params.head_b[2, 1] = 7.0  # phase p=2, future row r_f=1
        cfg = TpgnConfig(norm=0, period=4)
        out = tpgn_forward(make_window(8, 8, seed=43), params, cfg).data
        expected = np.zeros(8)
        expected[1 * 4 + 2] = 7.0
        assert np.array_equal(out, expected)

    def test_gradients(self):
        params = TpgnParams.init(8, 8, 4, 1, 2, np.random.default_rng(44),
                                 head_shared=False)
        cfg = TpgnConfig(norm=1, period=4)
        errors = finite_diff_all_params(make_window(8, 8, seed=45), params, cfg)
        assert max(errors.values()) < 1e-5, errors

    def test_tracked_step_one_node_above_shared_head(self):
        # the stacked product adds only the phase-major regroup to the
        # shared head's tape: 168->168, P=24, d_m=32, forward and loss
        windows = [make_window(168, 168, c_time=4, seed=s) for s in (65, 66)]
        nodes = {}
        for shared in (True, False):
            params = TpgnParams.init(168, 168, 24, 4, 32, np.random.default_rng(67),
                                     head_shared=shared)
            g = ad.Graph()
            preds = tpgn_forward_batch(windows, params, TpgnConfig(norm=0, period=24),
                                       weights=params.leaf_into(g))
            diff = ad.sub(preds, ad.constant(stack_targets(windows)))
            ad.reduce_mean(ad.mul(diff, diff))
            nodes[shared] = len(g)
        assert nodes == {True: 30, False: 31}

    def test_batch_equals_single(self):
        params = TpgnParams.init(8, 8, 4, 1, 3, np.random.default_rng(46),
                                 head_shared=False)
        cfg = TpgnConfig(norm=0, period=4)
        windows = [make_window(8, 8, seed=s) for s in (47, 48, 49)]
        batch = tpgn_forward_batch(windows, params, cfg).data
        for i, w in enumerate(windows):
            single = tpgn_forward(w, params, cfg).data
            assert np.max(np.abs(batch[i] - single)) <= 1e-12


class TestLayout:
    @pytest.mark.parametrize("head_shared", [True, False])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_layout_is_what_init_draws(self, variant, head_shared):
        params = TpgnParams.init(48, 16, 8, 4, 6, np.random.default_rng(0),
                                 VARIANTS[variant], head_shared=head_shared)
        assert TpgnParams.layout(48, 16, 8, 4, 6, VARIANTS[variant], head_shared) == {
            name: arr.shape for name, arr in params.named_arrays().items()}

    def test_layout_allocates_nothing(self):
        shapes = TpgnParams.layout(24 * 10**11, 24, 24, 4, 10**12)
        assert shapes["cell.hie_w"] == (10**12, (10**11 - 1) * 5)

    def test_layout_checks_sizes_as_init_does(self):
        with pytest.raises(ConfigError, match="not a multiple of period"):
            TpgnParams.layout(50, 16, 8, 4, 6)


def golden_step_hashes(variant):
    """sha256 of the loss and of every gradient of one training step at a
    small long-history shape: 240->48, P=24, d_m=16, 8 consecutive windows."""
    l_h, l_f, period, n = 240, 48, 24, 8
    series = synthetic_sinusoid(l_h + l_f + n - 1, noise=0.05, seed=25)
    windows = windows_of(series.values, l_h, l_f,
                         make_time_features(series.timestamps))
    params = TpgnParams.init(l_h, l_f, period, 4, 16, np.random.default_rng(25),
                             VARIANTS[variant])
    g = ad.Graph()
    leaves = params.leaf_into(g)
    cfg = TpgnConfig(norm=0, period=period, variant=VARIANTS[variant])
    preds = tpgn_forward_batch(windows, params, cfg, weights=leaves)
    diff = ad.sub(preds, ad.constant(stack_targets(windows)))
    loss = ad.reduce_mean(ad.mul(diff, diff))
    grads = ad.backward(loss)
    arrays = {"loss": loss.data, **{k: grads[leaf] for k, leaf in leaves.items()}}
    return {k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
            for k, v in arrays.items()}


class TestGoldenStep:
    """The loss and the gradients of one ``full`` and one ``gru`` step, pinned
    bit for bit, so that a memory or speed change to the cells, the tape or
    the recurrence shows if it moves a single bit (numpy 2.4.6, OpenBLAS
    0.3.31, as in CI)."""

    GOLDEN = {
        "full": {
            "loss": "72bf2beca82d3376e5c5568cf6aefb857deb7206031729c8483e765a614ddb39",
            "head_w": "c728e728dc32cd6d8de3ee8b6f9b48229a075356ffc57cd625bf738724181c3f",
            "head_b": "12b9894c7ebe2be1ad674116dd864b66320bf70a9658b2a5030899bed30f8fc1",
            "cell.hie_w": "fb8c4dcf57200264a63e5ab027493130b9bc8945d2d983431b37d9651ccbaf17",
            "cell.hie_b": "17ad834a2a74b4aa41f02f2df86d62fe12d8a7a97c27a400915ece5d6396e60e",
            "cell.gate_w": "454f15749363a45a774190f0b9e5da97b0c24865e5b1f2c759cd5cb985537ff5",
            "cell.gate_b": "f4db54ced642e2bf781676218e6d7700545c713a575dc6dc6d1e92fd52b48ab1",
            "cell.cand_w": "9cb6728c0d2f7c2d385e5a60d94ea97e78881c16de3533bf2d5c4f46ab59a5af",
            "cell.cand_b": "135b6388732256ccd441a5e2d9f06422b8207cabc6b7fe16ef5df276adcd7865",
            "long_w": "a4ca3cc3ebb3b6e14e7e0230818ff25fcf3231814aa699ea58cd7a4c968211d7",
            "long_b": "48d385f251987f7173eb37f85d912d5bae49e9abe4f6ea294f961bd86b038b8e",
            "row_w": "5367fcc55cc1df57199f6a958586b668eaf9c436cf05af4a9b6f38b56f23e726",
            "row_b": "1fc4db434e84ebf4a913cc4ef2251b3e19c2497a124900a1296d8ce82b6a8b70",
            "col_w": "4aa9b978b538cfcaa0d639f868a2d7785901509aad0b0e62183dfe511cc820e0",
            "col_b": "ac911cf99d1cd94c7b6d9f718a2621d7a6b850d1136e4dd75baac53b74b8ae7d",
        },
        "gru": {
            "loss": "56e1a54ca23da0f1d478471d038725fada012dc505f57452d5b0998af123affe",
            "head_w": "a0196cee2d14add33cf8e2680fd89c0ae1026660fb6208dad395d5bbf294074d",
            "head_b": "ba3e99cbc4f366c567499f5d839461f164a418644804a6371c82000186208114",
            "cell.update_w": "d1cbd9210cd808ca290cface3ba593cc4268108371664112f01d9bcea29843fd",
            "cell.update_b": "2ef314145f330606b0548bad85b3c5643a5a7b40f33a8e9b81b16eabd8108dfc",
            "cell.reset_w": "bfb370579917d131947dec06fb82ef2e163e305849b7494fc8fa38d0c4f6fc3a",
            "cell.reset_b": "a299716b892092ec06a0b9ef4752e83615079ec97b63300ac8261d1a1dbb8722",
            "cell.cand_xw": "2e1279cc890dd9362a96a7a27a7e73c9e9d7dca9629b6439d97eb10da4707b73",
            "cell.cand_hw": "99838f6fa091c5ee29fe826b5cae8dd5cb92f51a089e31183ec1a8a482494c2f",
            "cell.cand_b": "828fa18e7cc07a9c2b710252c93b2093fe9e1a7b78504e720c0655f255379873",
            "long_w": "5ed532b6b82f6794fa3ca3cbdb57013dae634a01c7462e484a5480ec96396555",
            "long_b": "760e77cd2ad3e48f47cc67bc9343669a53c5066fbb2f45ae4e8506c8eb451a09",
            "row_w": "8cb28f6bfe8d3d667d3a69d9435266639c971b19f67f9accb1a47af794d01ca3",
            "row_b": "8a4182678c29fa3d1bfc7f066301b9dcd38e0c7f7bcbceee826c910b4373935d",
            "col_w": "a7ea1c094b868037463e5de261c15add260d7984043829786fa1cb904758a932",
            "col_b": "15ac012d573a151d599aba55e7fc574b10d34f8462f4ffaabf69bd1c261dac97",
        },
    }

    @pytest.mark.parametrize("variant", ["full", "gru"])
    def test_step_bytes(self, variant):
        assert golden_step_hashes(variant) == self.GOLDEN[variant]


def golden_val_test():
    """Validation plus test windows of a fixed series: 257 + 257 at 96->48,
    one forward under norm=0; under norm=1 ``predict_windows`` stacks one
    full 512-window chunk of grids and one of two."""
    series = synthetic_sinusoid(2000, noise=0.05, seed=26)
    _, val_w, test_w = split_and_window(series, SplitSpec(l_h=96, l_f=48))
    return val_w + test_w


def golden_model(variant, norm):
    params = TpgnParams.init(96, 48, 24, 4, 16, np.random.default_rng(26),
                             VARIANTS[variant])
    return params, TpgnConfig(norm=norm, period=24, variant=VARIANTS[variant])


class TestGoldenPredictions:
    """``predict_windows`` over validation plus test windows, pinned bit for
    bit, so that a change to the windows, the batching or the untracked
    forward shows if it moves a single bit (numpy 2.4.6, OpenBLAS 0.3.31,
    as in CI)."""

    GOLDEN = {
        ("full", 0): "ce3820a7dab86b8e3258fb52f25c8d41ee42a8e19ad9a27aac1e94275ead924e",
        ("full", 1): "3aef9ddff7f9bcaf29129f2787be535f936f07951320744685cb07277e20888c",
        ("gru", 0): "99da0415f8925af836522f9ff7b94d04a1de6c6d1d922aea283f47ca1b4a41af",
        ("gru", 1): "da9cb48acc5ef2e61dcd41dc10459a29beee8989daa6e1f448bdbf386e650236",
        ("short", 0): "60b8be2d032661719a1f7ff668a249445fc49a880aa1ad3afa62f501f4b8ead3",
        ("short", 1): "65e89c17d2b1857502e78c31c1b3e6b893d14c630c3eacce1213de3e788795bc",
    }

    @pytest.mark.parametrize("variant, norm", list(GOLDEN))
    def test_prediction_bytes(self, variant, norm):
        params, cfg = golden_model(variant, norm)
        preds = predict_windows(params, golden_val_test(), cfg)
        assert preds.shape == (514, 48)
        assert hashlib.sha256(preds.tobytes()).hexdigest() == self.GOLDEN[variant, norm]


class TestPredictionsMatchTrackedForward:
    """Under norm=0 ``predict_windows`` is one forward over the whole set, so
    a set a few windows longer than 512 has no small tail run apart: its
    predictions are the bytes of the tracked forward over the same set."""

    @pytest.mark.parametrize("variant", ["full", "gru", "short"])
    @pytest.mark.parametrize("d", [8, 16, 32])
    def test_sets_of_513_to_530_windows(self, variant, d):
        series = synthetic_sinusoid(2000, noise=0.05, seed=26)
        train, _, _ = split_and_window(series, SplitSpec(l_h=96, l_f=48))
        cfg = TpgnConfig(norm=0, period=24, variant=VARIANTS[variant])
        for shared in (True, False):
            params = TpgnParams.init(96, 48, 24, 4, d, np.random.default_rng(d),
                                     VARIANTS[variant], head_shared=shared)
            for n in range(513, 531):  # tails of 1 to 18 past 512
                windows = train[:n]
                g = ad.Graph()
                tracked = tpgn_forward_batch(windows, params, cfg, params.leaf_into(g))
                assert (predict_windows(params, windows, cfg).tobytes()
                        == tracked.data.tobytes()), (shared, n)

    @pytest.mark.parametrize("norm,d,l_f,chunked", [
        (0, 8, 48, False),  # one pass
        (1, 8, 48, True),  # stacked grids
        (0, 1, 48, True),  # the long branch's GEMVs
        (0, 8, 24, True),  # the head's GEMV (R_f = 1)
    ])
    def test_chunks_only_grids_and_one_column_products(self, norm, d, l_f, chunked,
                                                       monkeypatch):
        sizes, forward = [], tpgn_forward_batch

        def recording(windows, *args):
            sizes.append(len(windows))
            return forward(windows, *args)

        monkeypatch.setattr(tpgn_model, "tpgn_forward_batch", recording)
        windows = consecutive_windows(1030, l_h=96, l_f=l_f)
        params = TpgnParams.init(96, l_f, 24, 4, d, np.random.default_rng(d),
                                 VARIANTS["full"])
        cfg = TpgnConfig(norm=norm, period=24, variant=VARIANTS["full"])
        assert predict_windows(params, windows, cfg).shape == (1030, l_f)
        assert sizes == ([512, 512, 6] if chunked else [1030])


class TestStridedPatchCollapse:
    """Shared patches are collapsed by ``[1, R] @ [R, d]`` products over
    strided per-run views of the distinct patch summaries; at the widths
    where patches are shared, multiples of eight, that has the bytes of the
    collapse over the gathered [B*R, d] rows."""

    # first history rows of each window: one run, runs with breaks, and
    # index sets (every third window, a sorted random subset)
    SETS = {"run": np.arange(40), "breaks": np.r_[0:15, 20:45, 47:50],
            "every-third": np.arange(0, 24, 3),
            "subset": np.sort(np.random.default_rng(5).choice(50, 40, replace=False))}

    @pytest.mark.parametrize("d", [8, 16, 24, 32, 64, 128])
    @pytest.mark.parametrize("period", [8, 24])
    def test_matches_gathered_collapse(self, d, period):
        rng = np.random.default_rng(d + period)
        c = 5
        w = {"row_w": ad.constant(rng.uniform(-0.3, 0.3, (d, period * c))),
             "row_b": ad.constant(rng.uniform(-0.1, 0.1, d)),
             "col_b": ad.constant(np.array(0.05))}
        for rows in range(2, 61):
            w["col_w"] = ad.constant(rng.uniform(-0.5, 0.5, rows))
            for name, first in self.SETS.items():
                points = rng.uniform(-1, 1, (first[-1] + rows * period, c))
                view = np.lib.stride_tricks.as_strided(
                    points, (len(points) - period + 1, period * c), points.strides)
                breaks = np.flatnonzero(np.diff(first) != 1) + 1
                patches = tpgn_model._Items.of(view, first, breaks, rows, period, True)
                mapped = ad.linear(patches.data(0, len(patches)), w["row_w"], w["row_b"])
                index = patches.base[:, None] + np.arange(rows) * period
                gathered = ad.add(ad.collapse_rows(mapped.data[index.ravel()], w["col_w"],
                                                   len(first)), w["col_b"]).data
                strided = tpgn_model._patch_summaries(patches, w, len(first))
                assert strided.tobytes() == gathered.tobytes(), (rows, name)


class TestSetAndList:
    """A window set and the list of its windows give the same bytes."""

    # starts evenly spaced (read as views) and not (gathered): a run, every
    # 7th window, and a run from validation into test
    @pytest.mark.parametrize("index", [slice(40, 60), slice(0, 250, 7), slice(250, 270)])
    def test_grids_targets_and_predictions(self, index):
        windows = golden_val_test()[index]
        as_list = list(windows)
        for norm in (0, 1):
            (grid, stats), (ref, ref_stats) = (prepare_input(w, norm, 24)
                                               for w in (windows, as_list))
            assert grid.tobytes() == ref.tobytes()
            assert (stats is None and ref_stats is None) or (
                (stats.mu.tobytes(), stats.sigma.tobytes())
                == (ref_stats.mu.tobytes(), ref_stats.sigma.tobytes()))
            params, cfg = golden_model("full", norm)
            assert (predict_windows(params, windows, cfg).tobytes()
                    == predict_windows(params, as_list, cfg).tobytes())
        targets = stack_targets(windows)
        assert targets.tobytes() == stack_targets(as_list).tobytes()
        assert not np.shares_memory(targets, windows.values)


def grid_forward(windows, params, norm):
    """The untracked forward over grids: every column and patch run."""
    grid, stats = prepare_input(windows, norm, params.period)
    return _forward_core(ad.constant(grid), stats, params.constants(), params).data


class TestRunPath:
    """Under norm=0 the untracked forward reads runs of consecutive windows
    from the series; it gives the bytes of the grid path and of the tracked
    forward, which run every column and patch."""

    # one run, no run (every 7th window), a run from validation into test,
    # and a run longer than a period, where patches are shared
    INDEXES = [slice(40, 60), slice(0, 250, 7), slice(250, 270), slice(200, 330)]

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_matches_grid_path_and_tracked_forward(self, variant):
        both = golden_val_test()
        batches = [both[i] for i in self.INDEXES]
        batches += [both[77:78], list(both[40:90])]  # one window, a list
        for d in (1, 2, 4, 5, 8, 32):
            for shared in (True, False):
                params = TpgnParams.init(96, 48, 24, 4, d, np.random.default_rng(d),
                                         VARIANTS[variant], head_shared=shared)
                for k, windows in enumerate(batches):
                    run = untracked_forward(windows, params, 0).tobytes()
                    assert run == grid_forward(windows, params, 0).tobytes(), (d, shared, k)
                    assert run == tracked_forward(windows, params, 0).tobytes(), (d, shared, k)
                    assert (untracked_forward(windows, params, 1).tobytes()
                            == tracked_forward(windows, params, 1).tobytes()), (d, shared, k)
