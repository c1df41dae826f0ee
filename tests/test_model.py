"""Two-branch forecaster: grid layout, branches, head mapping, costs."""

import numpy as np
import pytest

from tpgn import autodiff as ad
from tpgn.errors import ConfigError
from tpgn.model import (VARIANTS, NormStats, SeriesWindow, TpgnConfig,
                        TpgnParams, _forward_core, finite_diff_all_params,
                        flop_count, forecast_head, long_branch, param_count,
                        prepare_input, short_branch, tpgn_forward,
                        tpgn_forward_batch, tpgn_graph_depth)
from tpgn.pgn import pgn_forward_oracle


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

    def test_depth_constant_across_history_lengths(self):
        depths = []
        for l_h in (8, 64, 512):
            params, cfg = make_model(l_h=l_h, l_f=8, period=4, hidden=2, seed=31)
            depths.append(tpgn_graph_depth(params, cfg))
        assert depths[0] == depths[1] == depths[2]


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

    def test_batch_equals_single(self):
        params = TpgnParams.init(8, 8, 4, 1, 3, np.random.default_rng(46),
                                 head_shared=False)
        cfg = TpgnConfig(norm=0, period=4)
        windows = [make_window(8, 8, seed=s) for s in (47, 48, 49)]
        batch = tpgn_forward_batch(windows, params, cfg).data
        for i, w in enumerate(windows):
            single = tpgn_forward(w, params, cfg).data
            assert np.max(np.abs(batch[i] - single)) <= 1e-12
