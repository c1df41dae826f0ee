"""Tensor/tape engine: op semantics, gradients, determinism."""

import itertools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tpgn import autodiff as ad
from tpgn.errors import ContractError, DimensionError


def _backward_leaves_clean(loss, tensors):
    """Run backward twice on one tape and check what adoption must keep.

    No forward value and no gradient returned by the first run may change;
    every leaf gradient is C-contiguous, writable, leaf-shaped and shares
    no memory with another.  Returns the second run's gradients.
    """
    values = [t.data.tobytes() for t in tensors]
    first = ad.backward(loss)
    kept = {nid: g.tobytes() for nid, g in first.items()}
    second = ad.backward(loss)
    assert [t.data.tobytes() for t in tensors] == values
    assert {nid: g.tobytes() for nid, g in first.items()} == kept
    grads = [g for _, g in first.items()] + [g for _, g in second.items()]
    for nid, g in second.items():
        assert g.flags.c_contiguous and g.flags.writeable
        assert g.shape == loss.graph.nodes[nid].shape
    for i, g in enumerate(grads):
        for h in grads[i + 1:]:
            assert not np.shares_memory(g, h)
    return second


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(ad.constant(np.eye(2)), ad.constant(a))
        assert np.array_equal(out.data, a)

    def test_hand_dot_product(self):
        # scalar-loop oracle: sum_k a[0,k]*b[k,0] = 1*3 + 2*4 = 11
        out = ad.matmul(ad.constant([[1.0, 2.0]]), ad.constant([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == 11.0

    def test_zero_case(self):
        rng = np.random.default_rng(0)
        out = ad.matmul(ad.constant(np.zeros((3, 5))),
                        ad.constant(rng.uniform(-1, 1, (5, 2))))
        assert out.data.shape == (3, 2)
        assert np.all(out.data == 0.0)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 2))))

    def test_random_against_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-1, 1, (4, 6))
        b = rng.uniform(-1, 1, (6, 3))
        expected = np.empty((4, 3))
        for i in range(4):
            for j in range(3):
                acc = 0.0
                for k in range(6):
                    acc += a[i, k] * b[k, j]
                expected[i, j] = acc
        out = ad.matmul(ad.constant(a), ad.constant(b))
        assert np.allclose(out.data, expected, atol=1e-12)


class TestElementwise:
    def test_add_scalar_loop_oracle(self):
        out = ad.add(ad.constant([1.0, 2.0]), ad.constant([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_mul_identity_and_zero(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, (3, 4))
        assert np.array_equal(ad.mul(ad.constant(x), ad.constant(np.ones_like(x))).data, x)
        assert np.all(ad.mul(ad.constant(x), ad.constant(np.zeros_like(x))).data == 0.0)

    def test_sub(self):
        out = ad.sub(ad.constant([5.0, 1.0]), ad.constant([2.0, 3.0]))
        assert np.array_equal(out.data, [3.0, -2.0])

    def test_non_broadcastable_rejected(self):
        with pytest.raises(DimensionError, match="broadcast"):
            ad.add(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((3, 2))))

    def test_broadcast_exhaustive_against_materialized_expansion(self):
        """Every shape pair up to 4 dims of size <= 3, vs np.broadcast_to."""
        shapes = [()]
        for rank in range(1, 5):
            shapes += list(itertools.product((1, 2, 3), repeat=rank))
        checked = 0
        for sa, sb in itertools.product(shapes, repeat=2):
            try:
                target = np.broadcast_shapes(sa, sb)
            except ValueError:
                with pytest.raises(DimensionError):
                    ad.add(ad.constant(np.zeros(sa)), ad.constant(np.zeros(sb)))
                continue
            a = (np.arange(int(np.prod(sa, dtype=int)), dtype=np.float64) + 1.0).reshape(sa)
            b = (np.arange(int(np.prod(sb, dtype=int)), dtype=np.float64) + 2.0).reshape(sb) * 0.5
            ea = np.broadcast_to(a, target)
            eb = np.broadcast_to(b, target)
            assert np.array_equal(ad.add(ad.constant(a), ad.constant(b)).data, ea + eb)
            assert np.array_equal(ad.mul(ad.constant(a), ad.constant(b)).data, ea * eb)
            checked += 1
        assert checked > 1000  # the space is genuinely covered

    def test_broadcast_gradients(self):
        # gradient of a broadcast operand sums over the stretched axes
        g = ad.Graph()
        b = g.leaf(np.array([1.0, 2.0, 3.0]))
        out = ad.reduce_sum(ad.mul(ad.constant(np.ones((4, 3))), b))
        grads = ad.backward(out)
        assert np.array_equal(grads[b], np.full(3, 4.0))


class TestActivations:
    def test_sigmoid_symmetry(self):
        assert ad.sigmoid(ad.constant(0.0)).data == 0.5

    def test_tanh_zero(self):
        assert ad.tanh(ad.constant(0.0)).data == 0.0

    def test_sigmoid_saturation_against_high_precision(self):
        import mpmath

        mpmath.mp.dps = 50
        expected = float(1 / (1 + mpmath.exp(-50)))
        got = ad.sigmoid(ad.constant(50.0)).item()
        assert abs(got - expected) < 1e-15
        assert abs(got - 1.0) < 1e-12

    def test_no_overflow_for_huge_inputs(self):
        out = ad.sigmoid(ad.constant([-1e4, 1e4]))
        assert np.array_equal(out.data, [0.0, 1.0])
        out = ad.tanh(ad.constant([-1e4, 1e4]))
        assert np.array_equal(out.data, [-1.0, 1.0])

    def test_ranges(self):
        # strict bounds hold until float64 rounding saturates the tails
        # (sigmoid near |x|=37, tanh near |x|=19)
        s = ad.sigmoid(ad.constant(np.linspace(-36, 36, 101))).data
        t = ad.tanh(ad.constant(np.linspace(-18, 18, 101))).data
        assert np.all((s > 0.0) & (s < 1.0))
        assert np.all((t > -1.0) & (t < 1.0))


class TestConcat:
    def test_length_one_parts(self):
        out = ad.concat([ad.constant([1.0]), ad.constant([2.0])], axis=0)
        assert np.array_equal(out.data, [1.0, 2.0])

    def test_index_mapping_oracle(self):
        # columns of A come first, then columns of B
        a = np.arange(4.0).reshape(2, 2)
        b = np.arange(6.0).reshape(2, 3) + 10.0
        out = ad.concat([ad.constant(a), ad.constant(b)], axis=1)
        assert out.data.shape == (2, 5)
        for i in range(2):
            for j in range(5):
                expected = a[i, j] if j < 2 else b[i, j - 2]
                assert out.data[i, j] == expected

    def test_zero_width_part(self):
        a = np.ones((2, 2))
        out = ad.concat([ad.constant(a), ad.constant(np.zeros((2, 0)))], axis=1)
        assert np.array_equal(out.data, a)

    def test_mismatched_off_axis_dims(self):
        with pytest.raises(DimensionError, match="disagree"):
            ad.concat([ad.constant(np.zeros((2, 2))), ad.constant(np.zeros((3, 3)))],
                      axis=1)

    def test_repeated_part_gradients_accumulate(self):
        g = ad.Graph()
        x = g.leaf(np.array([[1.0, 2.0]]))
        out = ad.reduce_sum(ad.concat([x, x, x], axis=0))
        assert np.array_equal(ad.backward(out)[x], [[3.0, 3.0]])


def _dense_windows(x):
    """The zero-padded window matrix [M*L, (L-1)*c], built step by step."""
    m, length, c = x.shape
    windows = np.zeros((m, length, length - 1, c))
    for t in range(length):
        windows[:, t, length - 1 - t:] = x[:, :t]
    return windows.reshape(m * length, (length - 1) * c)


def _causal_identity(x):
    """causal_linear with w = I and b = 0, which returns the windows."""
    width = (x.shape[1] - 1) * x.shape[2]
    return ad.causal_linear(ad.constant(x), ad.constant(np.eye(width)),
                            ad.constant(np.zeros(width))).data


class TestCausalLinear:
    def test_definition(self):
        # L=3, c=1: step t sees the two steps before it, oldest first
        out = _causal_identity(np.array([[[1.0], [2.0], [3.0]]]))
        assert np.array_equal(out, [[0.0, 0.0], [0.0, 1.0], [1.0, 2.0]])

    def test_two_steps_is_a_shift(self):
        out = _causal_identity(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert np.array_equal(out, [[0.0, 0.0], [1.0, 2.0]])

    def test_zero_input(self):
        b = np.array([0.5, -1.0])
        out = ad.causal_linear(ad.constant(np.zeros((2, 4, 3))),
                               ad.constant(np.ones((2, 9))), ad.constant(b))
        assert np.array_equal(out.data, np.tile(b, (8, 1)))

    def test_short_sequence_rejected(self):
        w, b = ad.constant(np.zeros((2, 0))), ad.constant(np.zeros(2))
        with pytest.raises(DimensionError, match="L >= 2"):
            ad.causal_linear(ad.constant(np.zeros((2, 1, 3))), w, b)
        with pytest.raises(DimensionError, match="L >= 2"):
            ad.causal_linear(ad.constant(np.zeros((4, 3))), w, b)

    def test_weight_shapes_checked(self):
        x = ad.constant(np.zeros((2, 4, 3)))
        with pytest.raises(DimensionError, match="disagree"):
            ad.causal_linear(x, ad.constant(np.zeros((2, 8))), ad.constant(np.zeros(2)))
        with pytest.raises(DimensionError, match="disagree"):
            ad.causal_linear(x, ad.constant(np.zeros((2, 9))), ad.constant(np.zeros(3)))
        with pytest.raises(DimensionError, match="expects"):
            ad.causal_linear(x, ad.constant(np.zeros(9)), ad.constant(np.zeros(2)))
        with pytest.raises(DimensionError, match="expects"):
            ad.causal_linear(x, ad.constant(np.zeros((2, 9))), ad.constant(np.zeros((2, 1))))

    def test_layout(self):
        # row t holds steps t-3 .. t-1 flattened time-major, channels within a step
        out = _causal_identity(np.arange(8.0).reshape(1, 4, 2))
        assert out.shape == (4, 6)
        assert np.array_equal(out[2], [0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(out[3], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])

    def test_batched_rows_match_single_sequences(self):
        # 32 sequences of 30 steps run in step blocks; one sequence runs whole
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (32, 30, 1))
        w, b = ad.constant(rng.uniform(-1, 1, (64, 29))), ad.constant(rng.uniform(-1, 1, 64))
        assert len(ad.causal_blocks(32, 30, 1, 64)) > 1
        assert len(ad.causal_blocks(1, 30, 1, 64)) == 1
        out = ad.causal_linear(ad.constant(x), w, b).data
        for m in range(32):
            single = ad.causal_linear(ad.constant(x[m:m + 1]), w, b).data
            assert np.array_equal(out[m * 30:(m + 1) * 30], single)

    # blocked forwards (the long-history cell, and a batch of one window of
    # it), one-block short sequences, one block when (L-1)*c > 384, and one
    # block at d = 1, where a split summed the GEMV rows of this shape apart
    @pytest.mark.parametrize("m,length,c,d", [(768, 60, 5, 128), (24, 60, 5, 128),
                                              (768, 7, 5, 32), (32, 78, 5, 32),
                                              (5001, 30, 5, 1)])
    def test_byte_equal_to_dense_product(self, m, length, c, d):
        rng = np.random.default_rng(m + length + d)
        x = rng.uniform(-1, 1, (m, length, c))
        w = rng.uniform(-1, 1, (d, (length - 1) * c))
        b = rng.uniform(-1, 1, d)
        g = rng.uniform(-1, 1, (m * length, d))
        windows = _dense_windows(x)
        graph = ad.Graph()
        wt, bt = graph.leaf(w), graph.leaf(b)
        out = ad.causal_linear(ad.constant(x), wt, bt)
        assert np.array_equal(out.data, windows @ w.T + b)
        _, dw, db = graph.nodes[out.node_id].vjp(g)
        assert np.array_equal(dw, g.T @ windows)
        assert np.array_equal(db, g.sum(axis=0))


class TestCausalBlocks:
    # (M, L, c, d) of every cell the repo runs, with its step blocks
    # (None: one block): the model's long branch has M = batch*P sequences
    # of R = L_h/P steps and c = 5 channels, the bare cells one sequence of
    # L_h steps and c = 1
    PLANS = {
        "protocol 168->168": ((32 * 24, 7, 5, 32), None),
        "long_history 1440->720": ((32 * 24, 60, 5, 128), [(0, 4)] + [
            (s, s + 4) for s in range(4, 60, 4)]),
        "long_history batch of one": ((24, 60, 5, 128), [(0, 4)] + [
            (s, s + 4) for s in range(4, 60, 4)]),
        "bench L_h=336": ((32 * 24, 14, 5, 128), None),
        "bench L_h=720": ((32 * 24, 30, 5, 128), [(0, 6)] + [
            (s, s + 4) for s in range(6, 30, 4)]),
        "bench --quick L_h=48": ((32 * 24, 2, 5, 128), None),
        "bench --quick L_h=96": ((32 * 24, 4, 5, 128), None),
        "bare cell L=168": ((1, 168, 1, 128), None),
        "bare cell L=336": ((1, 336, 1, 128), None),
        "bare cell L=720": ((1, 720, 1, 128), None),
        "bare cell L=1440 (criterion 5)": ((1, 1440, 1, 128), None),
        "demo 04 TPGN L_h=480": ((4 * 24, 20, 5, 32), None),
        "demo 04 bare cell L=480": ((1, 480, 1, 32), None),
    }

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_plan_of_each_cell_shape(self, name):
        shape, blocks = self.PLANS[name]
        assert ad.causal_blocks(*shape) == (blocks or [(0, shape[1])])

    def test_one_block_at_seven_steps_and_past_one_k_block(self):
        for m, d in [(1, 1), (768, 32), (4096, 512)]:
            assert ad.causal_blocks(m, 7, 5, d) == [(0, 7)]
            assert ad.causal_blocks(m, 78, 5, d) == [(0, 78)]  # K = 385
            assert ad.causal_blocks(m, 386, 1, d) == [(0, 386)]
            assert ad.causal_blocks(m, 1440, 1, d) == [(0, 1440)]

    def test_one_block_at_one_output(self):
        # [M*e, K] @ [K, 1] per block is a GEMV, whose row sums depend on
        # the row count; at d = 2 the same shape splits
        assert ad.causal_blocks(5001, 30, 5, 1) == [(0, 30)]
        assert ad.causal_blocks(4096, 60, 5, 1) == [(0, 60)]
        assert len(ad.causal_blocks(5001, 30, 5, 2)) == 7

    @pytest.mark.parametrize("length", range(24, 80))
    def test_blocks_tile_the_steps(self, length):
        blocks = ad.causal_blocks(4096, length, 1, 64)
        assert blocks[0][0] == 0 and blocks[-1][1] == length
        assert all(e == s2 for (_, e), (s2, _) in zip(blocks, blocks[1:]))
        assert all(4 <= e - s < 8 for s, e in blocks)


class TestSequenceBlocks:
    # (M, R, d) of every untracked long branch the repo runs, with its number
    # of sequence blocks and their sizes: M = windows*24 columns of R steps
    PLANS = {
        "eval chunk of 512 windows": ((512 * 24, 7, 32), 21, {585, 586}),
        "eval remainder of 154 windows": ((154 * 24, 7, 32), 7, {528}),
        "train_protocol validation, 105 windows": ((105 * 24, 7, 32), 5, {504}),
        "32-window forward": ((32 * 24, 7, 32), 2, {384}),
        "one window at 168->168": ((24, 7, 32), 1, {24}),
        "long_history 3-window check": ((3 * 24, 60, 128), 5, {14, 15}),
    }

    @staticmethod
    def plan(m, rows, d):
        """The long branch's plan: R steps of d outputs per sequence."""
        return ad.sequence_blocks(m, rows * d * 8, d, d)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_plan_of_each_untracked_shape(self, name):
        shape, count, sizes = self.PLANS[name]
        blocks = self.plan(*shape)
        assert len(blocks) == count
        assert {e - s for s, e in blocks} == sizes

    def test_long_history_blocks_in_order(self):
        assert self.plan(72, 60, 128) == [
            (0, 14), (14, 28), (28, 43), (43, 57), (57, 72)]

    def test_no_block_at_or_under_the_small_gemm_limit(self):
        # 1 MiB would want 4 blocks of 150 sequences, but 150*8 = 1200
        # outputs is small-matrix territory, so three blocks of 200
        assert self.plan(600, 109, 8) == [(0, 200), (200, 400), (400, 600)]
        assert self.plan(1201, 1000, 2) == [(0, 1201)]
        assert self.plan(1202, 1000, 2) == [(0, 601), (601, 1202)]

    def test_one_output_column_never_splits(self):
        # at d = 1 the cell's products are GEMVs, whose row blocks do not
        # sum like the whole product
        assert self.plan(1201, 1000, 1) == [(0, 1201)]
        assert self.plan(2402, 1000, 1) == [(0, 2402)]


class TestReduce:
    def test_mean_scalar_loop_oracle(self):
        x = [1.0, 2.0, 3.0]
        acc = 0.0
        for v in x:
            acc += v
        assert ad.reduce_mean(ad.constant(x), axis=0).item() == acc / 3

    def test_sum_zero(self):
        assert ad.reduce_sum(ad.constant(np.zeros(5)), axis=0).item() == 0.0

    def test_mean_of_constant(self):
        out = ad.reduce_mean(ad.constant(np.full((3, 4), 2.5)), axis=1)
        assert np.array_equal(out.data, np.full(3, 2.5))

    def test_axis_out_of_range(self):
        with pytest.raises(DimensionError, match="axis"):
            ad.reduce_sum(ad.constant(np.zeros((2, 2))), axis=2)

    def test_full_reduction_is_scalar(self):
        out = ad.reduce_sum(ad.constant(np.ones((2, 3))))
        assert out.shape == ()
        assert out.item() == 6.0


class TestReshapePermute:
    def test_reshape_round_trip_bitwise(self):
        x = np.arange(1.0, 7.0)
        there = ad.reshape(ad.constant(x), (2, 3))
        back = ad.reshape(there, (6,))
        assert np.array_equal(back.data, x)

    def test_permute_involution_bitwise(self):
        x = np.arange(6.0).reshape(2, 3)
        twice = ad.permute(ad.permute(ad.constant(x), (1, 0)), (1, 0))
        assert np.array_equal(twice.data, x)

    def test_row_major_flat_index(self):
        # element (1, 2) of a 2x3 row-major array sits at flat index 1*3+2 = 5
        x = np.arange(6.0)
        m = ad.reshape(ad.constant(x), (2, 3))
        assert m.data[1, 2] == x[5]

    def test_count_mismatch(self):
        with pytest.raises(DimensionError, match="element counts"):
            ad.reshape(ad.constant(np.zeros(6)), (4, 2))

    def test_invalid_permutation(self):
        with pytest.raises(DimensionError, match="permutation"):
            ad.permute(ad.constant(np.zeros((2, 3))), (0, 0))


class TestStructuredOps:
    def test_slice_rows(self):
        x = np.arange(12.0).reshape(4, 3)
        out = ad.slice_rows(ad.constant(x), 1, 3)
        assert np.array_equal(out.data, x[1:3])
        with pytest.raises(DimensionError):
            ad.slice_rows(ad.constant(x), 2, 6)

    def test_linear_matches_manual(self):
        rng = np.random.default_rng(3)
        x, w, b = rng.standard_normal((4, 3)), rng.standard_normal((2, 3)), rng.standard_normal(2)
        out = ad.linear(ad.constant(x), ad.constant(w), ad.constant(b))
        assert np.allclose(out.data, x @ w.T + b, atol=1e-15)

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_stacked_linear_matches_each_slice(self, lead):
        # one product over stacked maps, byte for byte the 2-D map of each
        # slice, for the value and all three gradients
        rng = np.random.default_rng(len(lead))
        x = rng.standard_normal((*lead, 40, 6))
        w, b = rng.standard_normal((*lead, 5, 6)), rng.standard_normal((*lead, 5))
        g = rng.standard_normal((*lead, 40, 5))
        graph = ad.Graph()
        out = ad.linear(graph.leaf(x), graph.leaf(w), graph.leaf(b))
        grads = graph.nodes[out.node_id].vjp(g)
        for i in np.ndindex(lead):
            sub = ad.Graph()
            one = ad.linear(sub.leaf(x[i]), sub.leaf(w[i]), sub.leaf(b[i]))
            assert one.data.tobytes() == out.data[i].tobytes()
            for got, want in zip(grads, sub.nodes[one.node_id].vjp(g[i])):
                assert got[i].tobytes() == want.tobytes()

    def test_stacked_linear_shapes_checked(self):
        x = ad.constant(np.zeros((3, 4, 2)))
        with pytest.raises(DimensionError, match="leading"):
            ad.linear(x, ad.constant(np.zeros((2, 5, 2))), ad.constant(np.zeros((3, 5))))
        with pytest.raises(DimensionError, match="leading"):
            ad.linear(x, ad.constant(np.zeros((5, 2))), ad.constant(np.zeros(5)))
        with pytest.raises(DimensionError, match="leading"):
            ad.linear(x, ad.constant(np.zeros((3, 5, 2))), ad.constant(np.zeros(5)))
        with pytest.raises(DimensionError, match="disagree"):
            ad.linear(x, ad.constant(np.zeros((3, 5, 3))), ad.constant(np.zeros((3, 5))))

    def test_lerp_matches_manual(self):
        rng = np.random.default_rng(4)
        g, a, b = rng.uniform(0, 1, (3, 2)), rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
        out = ad.lerp(ad.constant(g), ad.constant(a), ad.constant(b))
        assert np.allclose(out.data, g * a + (1 - g) * b, atol=1e-15)

    def test_repeat_rows(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.repeat_rows(ad.constant(x), 3)
        assert out.data.shape == (6, 2)
        assert np.array_equal(out.data[:3], np.tile(x[0], (3, 1)))


class TestBackward:
    def test_sum_gives_ones(self):
        g = ad.Graph()
        x = g.leaf(np.arange(6.0).reshape(2, 3))
        grads = ad.backward(ad.reduce_sum(x))
        assert np.array_equal(grads[x], np.ones((2, 3)))

    def test_square_analytic(self):
        g = ad.Graph()
        x = g.leaf(np.array([1.0, 2.0]))
        grads = ad.backward(ad.reduce_sum(ad.mul(x, x)))
        assert np.array_equal(grads[x], [2.0, 4.0])

    def test_disconnected_leaf_gets_zeros(self):
        g = ad.Graph()
        x = g.leaf(np.array([1.0, 2.0]))
        y = g.leaf(np.array([3.0]))
        grads = ad.backward(ad.reduce_sum(ad.mul(x, x)))
        assert np.array_equal(grads[y], [0.0])

    def test_non_scalar_root_rejected(self):
        g = ad.Graph()
        x = g.leaf(np.zeros(3))
        with pytest.raises(ContractError, match="scalar"):
            ad.backward(ad.mul(x, x))

    def test_untracked_root_rejected(self):
        with pytest.raises(ContractError, match="tracked"):
            ad.backward(ad.constant(1.0))

    def test_fanout_accumulation(self):
        # d/dx of x*x summed through two copies: concat([x, x]) path
        g = ad.Graph()
        x = g.leaf(np.array([3.0]))
        both = ad.concat([x, x], axis=0)
        grads = ad.backward(ad.reduce_sum(ad.mul(both, both)))
        assert np.array_equal(grads[x], [12.0])  # 2 * 3 * 2 copies

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((6, 4))
        w = rng.standard_normal((3, 4))

        def run():
            g = ad.Graph()
            x = g.leaf(data)
            wt = g.leaf(w)
            h = ad.tanh(ad.linear(x, wt, ad.constant(np.zeros(3))))
            loss = ad.reduce_mean(ad.mul(h, h))
            gm = ad.backward(loss)
            return gm[x].copy(), gm[wt].copy()

        gx1, gw1 = run()
        gx2, gw2 = run()
        assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)

    def test_mixed_graphs_rejected(self):
        g1, g2 = ad.Graph(), ad.Graph()
        a = g1.leaf(np.ones(2))
        b = g2.leaf(np.ones(2))
        with pytest.raises(ContractError, match="different graphs"):
            ad.add(a, b)

    def test_one_array_handed_to_both_operands(self):
        # add's vjp returns one array for both operands: of add(x, x), and of
        # add(p, q), whose leaves must still get separate gradients
        g = ad.Graph()
        x = g.leaf(np.array([1.0, -2.0, 3.0]))
        p = g.leaf(np.array([0.0, 4.0, -1.0]))
        q = g.leaf(np.array([2.0, 2.0, 5.0]))
        c = np.array([0.5, 2.0, -1.5])
        s, t = ad.add(x, x), ad.add(p, q)
        loss = ad.reduce_sum(ad.mul(ad.add(s, t), ad.constant(c)))
        grads = _backward_leaves_clean(loss, [x, p, q, s, t, loss])
        assert np.array_equal(grads[x], 2.0 * c)
        assert np.array_equal(grads[p], c) and np.array_equal(grads[q], c)

    def test_shared_array_adopted_then_added_to(self):
        # both leaves adopt the array add's vjp returns; a then gets a second
        # contribution, which must not land in b's gradient
        g = ad.Graph()
        a = g.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = g.leaf(np.array([[-1.0, 0.5], [2.0, 0.0]]))
        c1 = np.array([[0.25, -1.0], [2.0, 3.0]])
        c2 = np.array([[1.0, 1.5], [-0.5, 4.0]])
        u = ad.mul(a, ad.constant(c2))  # recorded first, so reached last
        s = ad.add(a, b)
        loss = ad.reduce_sum(ad.add(ad.mul(s, ad.constant(c1)), u))
        grads = _backward_leaves_clean(loss, [a, b, u, s, loss])
        assert np.array_equal(grads[a], c1 + c2)
        assert np.array_equal(grads[b], c1)

    @pytest.mark.parametrize("via", ["reshape", "permute"])
    def test_view_chain_then_second_contribution(self, via):
        # h first adopts a view of a later node's gradient (contiguous after
        # reshape, transposed after permute); its direct use adds to it last
        rng = np.random.default_rng(3)
        g = ad.Graph()
        x = g.leaf(rng.uniform(-1, 1, (4, 6)))
        c1 = rng.uniform(-1, 1, (4, 6))
        c2 = rng.uniform(-1, 1, (6, 4))
        h = ad.tanh(x)
        direct = ad.mul(h, ad.constant(c1))  # recorded first, so reached last
        if via == "reshape":
            view, back = ad.reshape(ad.reshape(h, (2, 12)), (6, 4)), c2.reshape(4, 6)
        else:
            view, back = ad.reshape(ad.permute(h, (1, 0)), (6, 4)), c2.T
        loss = ad.add(ad.reduce_sum(direct),
                      ad.reduce_sum(ad.mul(view, ad.constant(c2))))
        grads = _backward_leaves_clean(loss, [x, h, direct, view, loss])
        expected = (1.0 - h.data * h.data) * (back + c1)
        assert np.array_equal(grads[x], expected)

    def test_transposed_view_adopted_contiguous(self):
        g = ad.Graph()
        x = g.leaf(np.arange(6.0).reshape(2, 3))
        c = np.array([[1.0, -1.0], [2.0, 0.5], [3.0, 4.0]])
        loss = ad.reduce_sum(ad.mul(ad.permute(x, (1, 0)), ad.constant(c)))
        grads = _backward_leaves_clean(loss, [x, loss])
        assert np.array_equal(grads[x], c.T)


class TestNeedsGrad:
    @pytest.mark.parametrize("norm", [0, 1])
    @pytest.mark.parametrize("variant", ["full", "long", "short", "gru", "lstm", "mlp"])
    def test_no_vjp_output_for_untracked_operands(self, variant, norm):
        # e.g. the constant input grid fed to the history extractor: its
        # g @ W would be the largest GEMM of a long-history backward
        from tpgn.model import (VARIANTS, SeriesWindow, TpgnConfig, TpgnParams,
                                tpgn_forward_batch)

        rng = np.random.default_rng(4)
        params = TpgnParams.init(168, 168, 24, 4, 32, rng, VARIANTS[variant])
        windows = [SeriesWindow(x_1d=rng.uniform(-1, 1, 168),
                                tf_enc=rng.uniform(-0.5, 0.5, (168, 4)),
                                y_true=rng.uniform(-1, 1, 168)) for _ in range(2)]
        graph = ad.Graph()
        cfg = TpgnConfig(norm=norm, variant=VARIANTS[variant])
        preds = tpgn_forward_batch(windows, params, cfg, weights=params.leaf_into(graph))
        diff = ad.sub(preds, ad.constant(np.stack([w.y_true for w in windows])))
        ad.reduce_mean(ad.mul(diff, diff))
        untracked = 0
        for node in graph.nodes:
            if node.vjp is None:
                continue
            contributions = node.vjp(np.ones(node.shape))
            assert len(contributions) == len(node.parents)
            for pid, pg in zip(node.parents, contributions):
                if pid is None:
                    untracked += 1
                    assert pg is None, f"{node.op} computed a gradient nobody reads"
                else:
                    # backward adopts contributions as they are
                    assert pg.shape == graph.nodes[pid].shape, node.op
        assert untracked > 0


class TestFiniteDiff:
    def test_linear_function_is_exact(self):
        err = ad.finite_diff_check(ad.reduce_sum, np.random.default_rng(6).uniform(-1, 1, 5))
        assert err < 1e-10

    def test_tanh_sum(self):
        x = np.random.default_rng(7).uniform(-1, 1, 6)
        err = ad.finite_diff_check(lambda t: ad.reduce_sum(ad.tanh(t)), x)
        assert err < 1e-6

    def test_sigmoid_of_linear_map(self):
        rng = np.random.default_rng(8)
        w = rng.uniform(-0.5, 0.5, (3, 4))
        x = rng.uniform(-1, 1, (2, 4))
        err = ad.finite_diff_check(
            lambda t: ad.reduce_sum(ad.sigmoid(ad.linear(ad.constant(x), t,
                                                         ad.constant(np.zeros(3))))), w)
        assert err < 1e-5

    def test_bad_step_rejected(self):
        with pytest.raises(ContractError):
            ad.finite_diff_check(ad.reduce_sum, np.zeros(2), h=0.0)

    def test_every_primitive_under_tolerance(self):
        from tpgn.cli import _op_gradient_suite

        errors = _op_gradient_suite(seed=0)
        assert len(errors) >= 15
        assert {"matmul.b", "add.b", "sub.a", "mul.b", "concat.b", "linear.w",
                "linear.b", "linear.stacked", "lerp.b"} <= set(errors)
        worst = max(errors.values())
        assert worst < 1e-5, f"worst op error {worst}: {errors}"


class TestGraph:
    def test_topological_parent_order(self):
        g = ad.Graph()
        x = g.leaf(np.ones(3))
        y = ad.mul(ad.add(x, x), x)
        for i, node in enumerate(g.nodes):
            for p in node.parents:
                assert p is None or p < i
        assert y.node_id == len(g.nodes) - 1

    def test_monotone_growth(self):
        g = ad.Graph()
        x = g.leaf(np.ones(3))
        n0 = len(g)
        ad.add(x, x)
        assert len(g) == n0 + 1

    def test_longest_path(self):
        g = ad.Graph()
        x = g.leaf(np.ones(3))
        y = ad.tanh(ad.add(ad.mul(x, x), x))
        assert g.longest_path(x.node_id, y.node_id) == 3

    def test_unreachable_raises(self):
        g = ad.Graph()
        x = g.leaf(np.ones(3))
        y = g.leaf(np.ones(3))
        z = ad.add(y, y)
        with pytest.raises(ContractError, match="not reachable"):
            g.longest_path(x.node_id, z.node_id)

    def test_byte_accounting_grows(self):
        g = ad.Graph()
        x = g.leaf(np.ones(100))
        assert g.peak_bytes == 800
        ad.add(x, x)
        assert g.peak_bytes == 1600

    def test_gradient_shapes_match_forward(self):
        g = ad.Graph()
        x = g.leaf(np.ones((3, 2)))
        w = g.leaf(np.ones((4, 2)))
        out = ad.reduce_sum(ad.linear(x, w, ad.constant(np.zeros(4))))
        gm = ad.backward(out)
        for nid, grad in gm.items():
            assert grad.shape == g.nodes[nid].shape


class TestFiniteOutputs:
    def test_all_values_finite_after_public_ops(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-50, 50, (5, 4))
        outs = [
            ad.sigmoid(ad.constant(x)), ad.tanh(ad.constant(x)),
            ad.add(ad.constant(x), ad.constant(x)),
            ad.matmul(ad.constant(x), ad.constant(x.T)),
            ad.reduce_mean(ad.constant(x), axis=0),
        ]
        for out in outs:
            assert np.all(np.isfinite(out.data))


# A fresh process that never calls fit: an untracked forward leaves the
# allocator alone, then tracked steps of a bare cell at the long branch's
# shape for 1440->720 (B*P = 768 sequences of R = 60 steps, d = 128), whose
# [768*60, 128] activations (47 MB) lie above glibc's largest dynamic mmap
# threshold.  Prints the policy's call count and each step's minor faults.
_CELL_STEPS = """
import json, resource
import numpy as np
from tpgn import autodiff as ad
from tpgn.pgn import PgnParams, pgn_apply

params = PgnParams.init(60, 1, 128, np.random.default_rng(0))
x = ad.constant(np.random.default_rng(1).standard_normal((768, 60, 1)))
pgn_apply(x, params.constants())
untracked_calls = ad._keep_step_memory.cache_info().misses
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = pgn_apply(x, params.leaf_into(ad.Graph())).output
    ad.backward(ad.reduce_sum(ad.mul(out, out)))
    del out
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps([untracked_calls, faults]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is a glibc setting")
def test_tape_steps_reuse_freed_memory_without_fit():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", _CELL_STEPS], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    untracked_calls, faults = json.loads(result.stdout)
    assert untracked_calls == 0
    # about 12k faults per step under glibc's defaults
    assert max(faults[2:]) < 200, faults
