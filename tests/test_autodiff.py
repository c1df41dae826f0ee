"""Tensor/tape engine: op semantics, gradients, determinism."""

import itertools

import numpy as np
import pytest

from tpgn import autodiff as ad
from tpgn.errors import ContractError, DimensionError


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


class TestCausalWindows:
    def test_definition(self):
        # L=3, c=1: step t sees the two steps before it, oldest first
        out = ad.causal_windows(ad.constant([[[1.0], [2.0], [3.0]]]))
        assert np.array_equal(out.data, [[0.0, 0.0], [0.0, 1.0], [1.0, 2.0]])

    def test_two_steps_is_a_shift(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = ad.causal_windows(ad.constant(x))
        assert np.array_equal(out.data, [[0.0, 0.0], [1.0, 2.0]])

    def test_zero_input(self):
        out = ad.causal_windows(ad.constant(np.zeros((2, 4, 3))))
        assert np.array_equal(out.data, np.zeros((8, 9)))

    def test_short_sequence_rejected(self):
        with pytest.raises(DimensionError):
            ad.causal_windows(ad.constant(np.zeros((2, 1, 3))))
        with pytest.raises(DimensionError):
            ad.causal_windows(ad.constant(np.zeros((4, 3))))

    def test_layout(self):
        # row t holds steps t-3 .. t-1 flattened time-major, channels within a step
        x = np.arange(8.0).reshape(1, 4, 2)
        out = ad.causal_windows(ad.constant(x))
        assert out.data.shape == (4, 6)
        assert np.array_equal(out.data[2], [0.0, 0.0, 0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(out.data[3], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])

    def test_batched_rows_match_single_sequences(self):
        x = np.random.default_rng(4).uniform(-1, 1, (3, 5, 2))
        out = ad.causal_windows(ad.constant(x)).data
        for m in range(3):
            single = ad.causal_windows(ad.constant(x[m:m + 1])).data
            assert np.array_equal(out[m * 5:(m + 1) * 5], single)


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

    def test_monotone_growth_and_reset(self):
        g = ad.Graph()
        x = g.leaf(np.ones(3))
        n0 = len(g)
        ad.add(x, x)
        assert len(g) == n0 + 1
        g.reset()
        assert len(g) == 0 and g.peak_bytes == 0

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
