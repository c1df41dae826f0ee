"""Parallel gated cell: window semantics, oracle equivalence, structure."""

import math

import numpy as np
import pytest

from tpgn import autodiff as ad
from tpgn.baselines import GruParams, sequence_graph_depth
from tpgn.errors import ContractError, DimensionError
from tpgn.pgn import (PgnParams, pgn_apply, pgn_forward, pgn_forward_oracle,
                      pgn_macs)


def make_params(seq_len, channels, hidden, seed=0):
    return PgnParams.init(seq_len, channels, hidden, np.random.default_rng(seed))


class TestHie:
    def test_zero_history_gives_bias(self):
        p = make_params(6, 2, 3, seed=1)
        p.hie_b = np.array([0.5, -1.0, 2.0])
        h = pgn_forward(np.zeros((6, 2)), p).history
        assert np.allclose(h.data, np.tile(p.hie_b, (6, 1)), atol=0)

    def test_hand_case(self):
        # L=3, c=1, d=1, weights [1, 1] oldest-first: H = [0, x0, x0+x1]
        p = make_params(3, 1, 1)
        p.hie_w = np.array([[1.0, 1.0]])
        p.hie_b = np.zeros(1)
        h = pgn_forward(np.array([[1.0], [2.0], [3.0]]), p).history
        assert np.array_equal(h.data.ravel(), [0.0, 1.0, 3.0])

    def test_oldest_first_window_orientation(self):
        # weight only the newest slot (last window position): H_t = x_{t-1}
        p = make_params(4, 1, 1)
        p.hie_w = np.array([[0.0, 0.0, 1.0]])
        p.hie_b = np.zeros(1)
        h = pgn_forward(np.array([[1.0], [2.0], [3.0], [4.0]]), p).history
        assert np.array_equal(h.data.ravel(), [0.0, 1.0, 2.0, 3.0])

    def test_random_against_per_step_oracle(self):
        rng = np.random.default_rng(2)
        L, c, d = 16, 2, 5
        p = make_params(L, c, d, seed=3)
        x = rng.uniform(-1, 1, (L, c))
        h = pgn_forward(x, p).history.data
        for t in range(L):
            window = np.zeros((L - 1) * c)
            for j, src in enumerate(range(t - (L - 1), t)):
                if src >= 0:
                    window[j * c:(j + 1) * c] = x[src]
            expected = p.hie_w @ window + p.hie_b
            assert np.allclose(h[t], expected, atol=1e-12)

    def test_short_sequences_rejected(self):
        with pytest.raises(ContractError):
            make_params(1, 1, 1)
        p = make_params(2, 1, 1)
        p.seq_len = 1  # corrupt after the fact
        with pytest.raises((ContractError, DimensionError)):
            pgn_forward(np.zeros((1, 1)), p)

    def test_input_shape_checked(self):
        p = make_params(4, 1, 2)
        with pytest.raises(DimensionError):
            pgn_forward(np.zeros((5, 1)), p)


class TestPgnForward:
    def test_zero_input_zero_biases(self):
        p = make_params(5, 1, 3, seed=4)
        p.hie_b[:] = 0.0
        p.gate_b[:] = 0.0
        p.cand_b[:] = 0.0
        out = pgn_forward(np.zeros((5, 1)), p)
        assert np.all(out.history.data == 0.0)
        assert np.all(out.candidate.data == 0.0)
        assert np.allclose(out.gate.data, 0.5, atol=0)
        assert np.all(out.output.data == 0.0)

    def test_saturated_gate_passes_history(self):
        p = make_params(6, 1, 4, seed=5)
        p.gate_b[:] = 50.0
        x = np.random.default_rng(6).uniform(-1, 1, (6, 1))
        out = pgn_forward(x, p)
        assert np.allclose(out.gate.data, 1.0, atol=1e-12)
        assert np.max(np.abs(out.output.data - out.history.data)) < 1e-12

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            L = int(rng.integers(2, 33))
            c = int(rng.integers(1, 4))
            d = int(rng.integers(1, 9))
            p = PgnParams.init(L, c, d, rng)
            x = rng.uniform(-1, 1, (L, c))
            fast = pgn_forward(x, p)
            slow = pgn_forward_oracle(x, p)
            for field in ("history", "gate", "candidate", "output"):
                a = getattr(fast, field).data
                b = getattr(slow, field).data
                assert np.max(np.abs(a - b)) <= 1e-12, field

    def test_minimal_length_hand_computation(self):
        # L=2, c=1, d=1: sequential evaluation of the gate equations
        p = make_params(2, 1, 1, seed=8)
        x = np.array([[0.7], [-0.3]])
        w = float(p.hie_w[0, 0])
        hb = float(p.hie_b[0])
        histories = [hb, w * 0.7 + hb]
        out = pgn_forward(x, p)
        for t, h_t in enumerate(histories):
            joint = np.array([x[t, 0], h_t])
            g_t = 1.0 / (1.0 + math.exp(-(p.gate_w @ joint + p.gate_b)[0]))
            c_t = math.tanh((p.cand_w @ joint + p.cand_b)[0])
            expected = g_t * h_t + (1.0 - g_t) * c_t
            assert abs(out.history.data[t, 0] - h_t) < 1e-12
            assert abs(out.output.data[t, 0] - expected) < 1e-12

    def test_causality_single_spike(self):
        # history at steps <= k ignores a spike at k
        p = make_params(8, 1, 3, seed=9)
        x = np.zeros((8, 1))
        k = 4
        x[k, 0] = 10.0
        out = pgn_forward(x, p)
        for t in range(k + 1):
            assert np.allclose(out.history.data[t], p.hie_b, atol=0)

    def test_causality_gradient(self):
        # d out_t / d x_s = 0 for every s > t
        p = make_params(6, 1, 2, seed=10)
        x = np.random.default_rng(11).uniform(-1, 1, (6, 1))
        for t in range(6):
            g = ad.Graph()
            xt = g.leaf(x, op="input")
            out = pgn_forward_tracked(xt, p)
            root = ad.reduce_sum(ad.slice_rows(out.output, t, t + 1))
            grad_x = ad.backward(root)[xt]
            assert np.all(grad_x[t + 1:] == 0.0), f"future leak at t={t}"
            if t > 0:
                assert np.any(grad_x[:t] != 0.0)

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            L = int(rng.integers(2, 17))
            p = PgnParams.init(L, 1, 4, rng)
            x = rng.uniform(-5, 5, (L, 1))
            out = pgn_forward(x, p)
            assert np.all((out.gate.data > 0.0) & (out.gate.data < 1.0))
            assert np.all((out.candidate.data > -1.0) & (out.candidate.data < 1.0))

    def test_fusion_identity_holds(self):
        p = make_params(7, 2, 3, seed=13)
        x = np.random.default_rng(14).uniform(-1, 1, (7, 2))
        out = pgn_forward(x, p)
        manual = out.gate.data * out.history.data + \
            (1.0 - out.gate.data) * out.candidate.data
        assert np.max(np.abs(out.output.data - manual)) < 1e-15


def pgn_forward_tracked(xt, params):
    return pgn_apply(ad.reshape(xt, (1,) + xt.shape), params.leaf_into(xt.graph))


class TestGradients:
    def test_every_parameter_tensor_passes_fd(self):
        p = make_params(6, 2, 3, seed=15)
        x = np.random.default_rng(16).uniform(-1, 1, (6, 2))
        arrays = p.named_arrays()
        for name in arrays:
            def f(t, _name=name):
                w = {k: ad.constant(v) for k, v in arrays.items()}
                w[_name] = t
                out = pgn_apply(ad.constant(x[None]), w)
                return ad.reduce_sum(out.output)

            err = ad.finite_diff_check(f, arrays[name])
            assert err < 1e-5, f"{name}: {err}"


class TestGraphDepth:
    def test_constant_across_lengths(self):
        depths = [sequence_graph_depth(make_params(L, 1, 4, seed=17), L)
                  for L in (8, 64, 512)]
        assert depths[0] == depths[1] == depths[2]

    def test_reference_decomposition_is_shallow(self):
        assert sequence_graph_depth(make_params(16, 1, 4), 16) <= 8

    def test_sequential_oracle_depth_grows_with_length(self):
        for L in (8, 32):
            cell = GruParams.init(1, 3, np.random.default_rng(18))
            assert sequence_graph_depth(cell, L) >= L


class TestCost:
    def test_mac_formula_values(self):
        # L=4, c=1, d=2: HIE 4*3*1*2 = 24, gates 2*4*(2+1)*2 = 48
        assert pgn_macs(4, 1, 2) == 72

    def test_quadratic_in_length(self):
        # window width tracks L, so doubling L roughly quadruples HIE work
        lo, hi = pgn_macs(64, 1, 8), pgn_macs(128, 1, 8)
        assert hi / lo > 3.5
