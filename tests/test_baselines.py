"""Sequential reference cells: recurrences, causality, gradients."""

import numpy as np
import pytest

from tpgn import autodiff as ad
from tpgn.baselines import (CELLS, GruParams, LstmParams, MlpParams, cell_forward,
                            cell_kind, gru_macs, lstm_macs, mlp_macs, new_cell,
                            sequence_graph_depth)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class TestGru:
    def test_zero_fixed_point(self):
        p = GruParams.init(2, 3, np.random.default_rng(0))
        out = cell_forward(np.zeros((5, 2)), p)
        assert np.all(out.data == 0.0)  # zero biases keep the zero state

    def test_hand_recurrence(self):
        rng = np.random.default_rng(1)
        p = GruParams.init(1, 2, rng)
        p.update_b[:] = rng.uniform(-0.5, 0.5, 2)
        p.reset_b[:] = rng.uniform(-0.5, 0.5, 2)
        p.cand_b[:] = rng.uniform(-0.5, 0.5, 2)
        x = rng.uniform(-1, 1, (2, 1))
        h = np.zeros(2)
        expected = []
        for t in range(2):
            joint = np.concatenate([x[t], h])
            z = sigmoid(p.update_w @ joint + p.update_b)
            r = sigmoid(p.reset_w @ joint + p.reset_b)
            n = np.tanh(p.cand_xw @ x[t] + p.cand_b + r * (p.cand_hw @ h))
            h = z * h + (1.0 - z) * n
            expected.append(h.copy())
        out = cell_forward(x, p)
        assert np.allclose(out.data, np.stack(expected), atol=1e-12)

    def test_causality(self):
        rng = np.random.default_rng(2)
        p = GruParams.init(1, 3, rng)
        x = rng.uniform(-1, 1, (6, 1))
        base = cell_forward(x, p).data
        x2 = x.copy()
        x2[4, 0] += 1.0
        bumped = cell_forward(x2, p).data
        assert np.array_equal(base[:4], bumped[:4])
        assert not np.allclose(base[4:], bumped[4:])

    def test_gradient_check(self):
        rng = np.random.default_rng(3)
        p = GruParams.init(1, 2, rng)
        x = rng.uniform(-1, 1, (3, 1))
        arrays = p.named_arrays()
        for name in arrays:
            def f(t, _name=name):
                w = {k: ad.constant(v) for k, v in arrays.items()}
                w[_name] = t
                h = ad.constant(np.zeros((1, 2)))
                from tpgn.baselines import gru_step
                for step in range(3):
                    h = gru_step(ad.constant(x[step:step + 1]), h, w)
                return ad.reduce_sum(h)

            assert ad.finite_diff_check(f, arrays[name]) < 1e-5, name


class TestLstm:
    def test_zero_fixed_point(self):
        p = LstmParams.init(2, 3, np.random.default_rng(4))
        out = cell_forward(np.zeros((4, 2)), p)
        assert np.all(out.data == 0.0)

    def test_hand_recurrence(self):
        rng = np.random.default_rng(5)
        p = LstmParams.init(1, 2, rng)
        for b in (p.input_b, p.forget_b, p.output_b, p.cell_b):
            b[:] = rng.uniform(-0.5, 0.5, 2)
        x = rng.uniform(-1, 1, (2, 1))
        h = np.zeros(2)
        c = np.zeros(2)
        expected = []
        for t in range(2):
            joint = np.concatenate([x[t], h])
            i = sigmoid(p.input_w @ joint + p.input_b)
            f = sigmoid(p.forget_w @ joint + p.forget_b)
            o = sigmoid(p.output_w @ joint + p.output_b)
            g = np.tanh(p.cell_w @ joint + p.cell_b)
            c = f * c + i * g
            h = o * np.tanh(c)
            expected.append(h.copy())
        out = cell_forward(x, p)
        assert np.allclose(out.data, np.stack(expected), atol=1e-12)

    def test_causality(self):
        rng = np.random.default_rng(6)
        p = LstmParams.init(1, 3, rng)
        x = rng.uniform(-1, 1, (5, 1))
        x2 = x.copy()
        x2[3, 0] -= 0.5
        assert np.array_equal(cell_forward(x, p).data[:3],
                              cell_forward(x2, p).data[:3])

    def test_gradient_check(self):
        rng = np.random.default_rng(7)
        p = LstmParams.init(1, 2, rng)
        x = rng.uniform(-1, 1, (3, 1))
        arrays = p.named_arrays()
        for name in ("input_w", "forget_w", "cell_w", "output_b"):
            def f(t, _name=name):
                w = {k: ad.constant(v) for k, v in arrays.items()}
                w[_name] = t
                from tpgn.baselines import lstm_step
                state = (ad.constant(np.zeros((1, 2))), ad.constant(np.zeros((1, 2))))
                for step in range(3):
                    state = lstm_step(ad.constant(x[step:step + 1]), state, w)
                return ad.reduce_sum(state[0])

            assert ad.finite_diff_check(f, arrays[name]) < 1e-5, name


class TestMlp:
    def test_zero_input_bias_path(self):
        rng = np.random.default_rng(8)
        p = MlpParams.init(2, 3, rng)
        p.b1[:] = rng.uniform(-1, 1, 3)
        p.b2[:] = rng.uniform(-1, 1, 3)
        out = cell_forward(np.zeros((4, 2)), p)
        expected = p.w2 @ np.tanh(p.b1) + p.b2
        assert np.allclose(out.data, np.tile(expected, (4, 1)), atol=1e-12)

    def test_hand_single_instance(self):
        p = MlpParams.init(1, 1, np.random.default_rng(9))
        p.w1[:] = 2.0
        p.b1[:] = 0.1
        p.w2[:] = -1.5
        p.b2[:] = 0.3
        out = cell_forward(np.array([[0.4]]), p)
        assert abs(out.data[0, 0] - (-1.5 * np.tanh(0.9) + 0.3)) < 1e-12

    def test_timestep_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        p = MlpParams.init(2, 3, rng)
        x = rng.uniform(-1, 1, (6, 2))
        perm = rng.permutation(6)
        assert np.array_equal(cell_forward(x[perm], p).data, cell_forward(x, p).data[perm])

    def test_gradient_check(self):
        rng = np.random.default_rng(11)
        p = MlpParams.init(2, 2, rng)
        x = rng.uniform(-1, 1, (3, 2))
        arrays = p.named_arrays()
        for name in arrays:
            def f(t, _name=name):
                w = {k: ad.constant(v) for k, v in arrays.items()}
                w[_name] = t
                from tpgn.baselines import mlp_step
                return ad.reduce_sum(mlp_step(ad.constant(x), w))

            assert ad.finite_diff_check(f, arrays[name]) < 1e-5, name


class TestStructure:
    @pytest.mark.parametrize("length", [8, 24])
    def test_sequential_depth_at_least_linear(self, length):
        rng = np.random.default_rng(12)
        assert sequence_graph_depth(GruParams.init(1, 2, rng), length) >= length
        assert sequence_graph_depth(LstmParams.init(1, 2, rng), length) >= length

    def test_mlp_depth_constant(self):
        rng = np.random.default_rng(13)
        p = MlpParams.init(1, 2, rng)
        assert sequence_graph_depth(p, 8) == sequence_graph_depth(p, 64)

    def test_variant_swap_preserves_shapes(self):
        import tpgn

        rng = np.random.default_rng(14)
        window = tpgn.SeriesWindow(x_1d=rng.uniform(-1, 1, 12),
                                   tf_enc=rng.uniform(-0.5, 0.5, (12, 1)),
                                   y_true=rng.uniform(-1, 1, 12))
        for name in ("gru", "lstm", "mlp"):
            variant = tpgn.VARIANTS[name]
            params = tpgn.TpgnParams.init(12, 12, 4, 1, 3, rng, variant)
            cfg = tpgn.TpgnConfig(norm=0, period=4, variant=variant)
            out = tpgn.tpgn_forward(window, params, cfg)
            assert out.shape == (12,)

    def test_mac_formulas(self):
        assert gru_macs(10, 1, 4) == 10 * 3 * 5 * 4
        assert lstm_macs(10, 1, 4) == 10 * 4 * 5 * 4
        assert mlp_macs(10, 2, 4) == 10 * (8 + 16)


class TestCellTable:
    @pytest.mark.parametrize("kind", sorted(CELLS))
    def test_every_kind_builds_runs_and_costs(self, kind):
        params = new_cell(kind, 6, 2, 3, np.random.default_rng(15))
        assert cell_kind(params) == kind
        x = np.random.default_rng(16).uniform(-1, 1, (6, 2))
        assert cell_forward(x, params).shape == (6, 3)
        assert CELLS[kind].macs(6, 2, 3) % 6 == 0  # the same cost at every step

    def test_unknown_parameters_rejected(self):
        from tpgn.errors import ContractError

        with pytest.raises(ContractError, match="unsupported"):
            cell_kind(object())
