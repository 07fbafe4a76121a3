import gc
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from slotgnn import tensor as T
from slotgnn.config import from_profile
from slotgnn.graph import SyntheticSpec, load_dataset, save_dataset, synthetic_generate
from slotgnn.training import evaluate, init_model, train

from . import oracles

ROOT = Path(__file__).resolve().parent.parent


def rng(seed=0):
    return np.random.default_rng(seed)


def view(src, dst, num_src: int, num_dst: int) -> T.BipartiteView:
    """The edges ``src[e] -> dst[e]``, targets ascending, as the edge ops take them."""
    return T.BipartiteView(np.asarray(src), T.Segments(dst, num_dst), num_src)


def edge_softmax(keys: T.Tensor, dst: T.Segments, mode: str, heads: int = 1) -> T.Tensor:
    """The softmax of ``T.edge_attention`` alone: every edge is its own source
    node, and the attention weights and queries are identities, so the logits
    (K W) q^T are the keys scaled by 1/sqrt(F_t): logit (e, m, i, j) is
    ``keys[e, i, m F_t + j] / sqrt(F_t)``. One head's keys (E, F_s, F_t) are
    its logits so scaled; the result is (E, H, F_s, F_t), or (E, F_s, F_t)
    for one head."""
    e, _, width = keys.shape
    eye = np.eye(width // heads)
    q = T.Tensor(np.tile(eye, (dst.num_segments, 1, heads)), dtype=keys.dtype)
    att = T.Tensor(np.tile(eye, (heads, 1, 1)), dtype=keys.dtype)
    y = T.edge_attention(keys, q, att, T.BipartiteView(np.arange(e), dst, e), mode)
    # the mean over a single head is that head, to the bit
    return y if heads > 1 else T.reduce_mean(y, axis=1)


def head_keys(logits: np.ndarray) -> np.ndarray:
    """The keys ``edge_softmax`` reads as the logits (E, H, F_s, F_t)."""
    e, heads, f_s, f_t = logits.shape
    return logits.transpose(0, 2, 1, 3).reshape(e, f_s, heads * f_t)


def slot_softmax(rows, dtype=np.float32) -> np.ndarray:
    """The softmax over slots inside ``T.slot_fusion`` alone, per row of
    ``rows`` (n, F): one head of width 1, unit queries and unit key and value
    maps, so the slot logits are ``rows`` exactly."""
    rows = np.asarray(rows, dtype=dtype)
    one = T.Tensor(np.ones((1, 1)), dtype=dtype)
    hl = T.Tensor(rows.reshape(rows.shape + (1,)), dtype=dtype)
    q = T.Tensor(np.ones((rows.shape[0], 1)), dtype=dtype)
    return T.slot_fusion(q, hl, one, one, heads=1)[1][:, 0]


class TestMatmul:
    """``T.affine`` without a bias: the matrix product alone."""

    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(T.affine(a, b).data, [[1, 2], [3, 4]])

    def test_row_sums(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        ones = T.Tensor([[1.0], [1.0]])
        assert np.allclose(T.affine(a, ones).data, [[3.0], [7.0]])

    def test_against_triple_loop(self):
        a = rng(1).normal(size=(3, 4))
        b = rng(2).normal(size=(4, 2))
        got = T.affine(T.Tensor(a), T.Tensor(b)).data
        want = oracles.naive_matmul(a, b)
        assert np.allclose(got, want, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.affine(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))

    def test_stacked_lhs(self):
        a = rng(3).normal(size=(5, 2, 4))
        b = rng(4).normal(size=(4, 3))
        got = T.affine(T.Tensor(a), T.Tensor(b)).data
        for i in range(5):
            assert np.allclose(got[i], oracles.naive_matmul(a[i], b), atol=1e-5)


class TestFlatMatmul:
    """A stack (N, F, k) @ (k, n) runs as one (N*F, k) GEMM. Each entry is then
    a k-term dot product rounded by another kernel than the per-row one (a
    matrix-vector kernel when F = 1), so entries are held to the rounding bound
    of two such sums, 2 k eps (|a| @ |b|), not to the bit."""

    @staticmethod
    def assert_within_rounding(got, want, magnitude, terms):
        eps = np.finfo(got.dtype).eps
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 2 * terms * eps * magnitude)

    @pytest.mark.parametrize("f", [1, 3])
    def test_stack_and_gradients_match_per_row_products(self, f):
        g = rng(7)
        n_rows, k, n = 6, 5, 4
        a = T.Tensor(g.normal(size=(n_rows, f, k)), requires_grad=True)
        b = T.Tensor(g.normal(size=(k, n)), requires_grad=True)
        up = g.normal(size=(n_rows, f, n)).astype(np.float32)
        with T.Tape() as tape:
            y = T.affine(a, b)
            grads = tape.backward(T.reduce_sum(T.mul(y, T.Tensor(up))))
        a_, b_ = a.data, b.data
        self.assert_within_rounding(
            y.data, np.stack([a_[i] @ b_ for i in range(n_rows)]), np.abs(a_) @ np.abs(b_), k
        )
        self.assert_within_rounding(
            grads[a], np.stack([up[i] @ b_.T for i in range(n_rows)]), np.abs(up) @ np.abs(b_.T), n
        )
        self.assert_within_rounding(
            grads[b],
            sum(a_[i].T @ up[i] for i in range(n_rows)),
            sum(np.abs(a_[i].T) @ np.abs(up[i]) for i in range(n_rows)),
            n_rows * f,
        )

    def test_stack_gradients_match_finite_differences(self):
        a = T.Tensor(rng(8).normal(size=(4, 3, 5)), requires_grad=True, dtype=np.float64)
        b = T.Tensor(rng(9).normal(size=(5, 2)), requires_grad=True, dtype=np.float64)

        def f():
            y = T.affine(a, b)
            return T.reduce_sum(T.mul(y, y))

        assert max(T.finite_diff_check(f, [a, b])) < 1e-6


class TestAffine:
    @staticmethod
    def operands(shape, dtype=np.float32, seed=50):
        g = rng(seed)
        x = T.Tensor(g.normal(size=shape), requires_grad=True, dtype=dtype)
        w = T.Tensor(g.normal(size=(shape[-1], 4)), requires_grad=True, dtype=dtype)
        b = T.Tensor(g.normal(size=4), requires_grad=True, dtype=dtype)
        return x, w, b

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(6, 5), (6, 3, 5)])
    def test_forward_and_gradients_equal_add_of_affine_without_bias_to_the_bit(self, shape, dtype):
        x, w, b = self.operands(shape, dtype)
        up = T.Tensor(rng(51).normal(size=shape[:-1] + (4,)), dtype=dtype)
        outs, tables = [], []
        for f in (T.affine, lambda x, w, b: T.add(T.affine(x, w), b)):
            with T.Tape() as tape:
                y = f(x, w, b)
                tables.append(tape.backward(T.reduce_sum(T.mul(y, up))))
            outs.append(y.data)
        assert outs[0].dtype == dtype and outs[0].tobytes() == outs[1].tobytes()
        for p in (x, w, b):
            got, want = tables[0][p], tables[1][p]
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_one_tape_node_and_no_gradient_for_a_constant_input(self):
        x, w, b = self.operands((6, 3, 5))
        x.requires_grad = False
        with T.Tape() as tape:
            y = T.affine(x, w, b)
            assert len(tape.nodes) == 1
            g_x, g_w, g_b = tape.nodes[0].backward(np.ones(y.shape, dtype=y.dtype))
        assert g_x is None and g_w.shape == w.shape and g_b.shape == b.shape

    def test_without_bias_one_node_with_two_parents(self):
        x, w, _ = self.operands((6, 3, 5))
        x.requires_grad = False
        with T.Tape() as tape:
            y = T.affine(x, w)
            (node,) = tape.nodes
            assert node.parents == (x, w)
            g_x, g_w = node.backward(np.ones(y.shape, dtype=y.dtype))
        assert g_x is None and g_w.shape == w.shape

    def test_gradients_match_finite_differences(self):
        x, w, b = self.operands((4, 3, 5), np.float64, seed=52)

        def f():
            y = T.affine(x, w, b)
            return T.reduce_sum(T.mul(y, y))

        assert max(T.finite_diff_check(f, [x, w, b])) < 1e-6

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((6, 5), (5, 4), (3,)),  # bias of another width
        ((6, 5), (5, 4), (1, 4)),  # bias not a vector
        ((6, 5), (4, 4), (4,)),  # inner dims differ
        ((6, 5), (5,), (5,)),  # weight not a matrix
        ((5,), (5, 4), (4,)),  # input a vector
        ((2, 6, 3, 5), (5, 4), (4,)),  # input of rank 4
    ])
    def test_bad_shapes_raise(self, x_shape, w_shape, b_shape):
        x, w, b = (T.Tensor(np.ones(s)) for s in (x_shape, w_shape, b_shape))
        with pytest.raises(T.ShapeError):
            T.affine(x, w, b)


class TestMul:
    def test_per_slot_scale_broadcasts_and_its_gradient_sums(self):
        g = rng(53)
        a = T.Tensor(g.normal(size=(3, 2, 4)), requires_grad=True, dtype=np.float64)
        s = T.Tensor(g.normal(size=(3, 2, 1)), requires_grad=True, dtype=np.float64)
        up = g.normal(size=(3, 2, 4))
        with T.Tape() as tape:
            y = T.mul(a, s)
            grads = tape.backward(T.reduce_sum(T.mul(y, T.Tensor(up, dtype=np.float64))))
        assert np.array_equal(y.data, a.data * s.data)
        assert np.array_equal(grads[a], up * s.data)
        assert np.array_equal(grads[s], (up * a.data).sum(axis=2, keepdims=True))

        def f():
            y = T.mul(a, s)
            return T.reduce_sum(T.mul(y, y))

        assert max(T.finite_diff_check(f, [a, s])) < 1e-6

    def test_input_without_gradient_gets_none(self):
        a = T.Tensor(np.ones((3, 2, 4)), requires_grad=True)
        s, b = T.Tensor(np.full((3, 2, 1), 2.0)), T.Tensor(np.ones((3, 2, 4)))
        g = np.ones((3, 2, 4), dtype=np.float32)
        with T.Tape() as tape:
            T.mul(a, s)
            T.mul(b, a)
            (g_a, g_s), (g_b, g_a2) = (node.backward(g) for node in tape.nodes)
        assert g_s is None and g_b is None
        assert np.array_equal(g_a, 2.0 * g) and np.array_equal(g_a2, g)

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3, 2, 4), (3, 2, 2)), ((3, 2, 4), (3, 8)), ((3, 2, 1), (3, 2, 4)), ((3, 2, 4), (4,)),
    ])
    def test_bad_shapes_raise(self, a_shape, b_shape):
        with pytest.raises(T.ShapeError):
            T.mul(T.Tensor(np.ones(a_shape)), T.Tensor(np.ones(b_shape)))


class TestSoftmax:
    def test_uniform(self):
        y = slot_softmax([[0.0, 0.0, 0.0]])[0]
        assert np.allclose(y, [1 / 3] * 3)

    def test_large_logit_stability(self):
        y = slot_softmax([[1000.0, 0.0]])[0]
        assert np.all(np.isfinite(y))
        assert y[0] > 0.999 and y[1] < 1e-6

    def test_matches_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        y = slot_softmax([x])[0]
        assert np.allclose(y, oracles.softmax_formula(x, 0), atol=1e-7)

    def test_empty_axis(self):
        with pytest.raises(T.ShapeError):
            slot_softmax(np.zeros((2, 0)))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one(self, values):
        y = slot_softmax([values])[0]
        assert np.all(y >= 0)
        assert abs(float(y.sum()) - 1.0) < 1e-6

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=8))
    def test_rows_sum_to_one_float64(self, values):
        y = slot_softmax([values], dtype=np.float64)[0]
        assert abs(float(y.sum()) - 1.0) < 1e-12


class TestConcat:
    def test_single_input(self):
        a = T.Tensor([[1.0, 2.0]])
        assert np.array_equal(T.concat([a], axis=0).data, a.data)

    def test_row_order(self):
        a = T.Tensor([[1.0, 2.0]])
        b = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
        got = T.concat([a, b], axis=0).data
        assert np.array_equal(got, [[1, 2], [3, 4], [5, 6]])

    def test_dimension_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.concat([T.Tensor(np.ones((1, 2))), T.Tensor(np.ones((1, 3)))], axis=0)

    @pytest.mark.parametrize("axis", [2, -1])
    def test_axis_out_of_range(self, axis):
        a = T.Tensor(np.ones((2, 3)))
        with pytest.raises(T.ShapeError, match="out of range"):
            T.concat([a, a], axis=axis)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4), st.integers(1, 4))
    def test_slice_after_concat_identity(self, seed, n1, n2):
        g = np.random.default_rng(seed)
        a = T.Tensor(g.normal(size=(n1, 3)))
        b = T.Tensor(g.normal(size=(n2, 3)))
        c = T.concat([a, b], axis=0)
        back_a = c.data[0:n1]
        back_b = c.data[n1:n1 + n2]
        assert np.array_equal(back_a, a.data) and np.array_equal(back_b, b.data)


class TestReduceMean:
    def test_single_row(self):
        a = T.Tensor([[1.0, 2.0, 3.0]])
        assert np.allclose(T.reduce_mean(a, axis=0).data, [1, 2, 3])

    def test_symmetry(self):
        v = rng(5).normal(size=(3,))
        a = T.Tensor(np.stack([v, -v]))
        assert np.allclose(T.reduce_mean(a, axis=0).data, 0, atol=1e-7)

    def test_matches_sum_oracle(self):
        x = rng(6).normal(size=(4, 3))
        got = T.reduce_mean(T.Tensor(x), axis=0).data
        assert np.allclose(got, x.sum(axis=0) / 4.0, atol=1e-6)


class TestBackward:
    def test_linear_map_gradient(self):
        w = T.Tensor(rng(7).normal(size=(2, 3)), requires_grad=True, dtype=np.float64)
        x = T.Tensor(rng(8).normal(size=(3, 1)), dtype=np.float64)
        with T.Tape() as tape:
            loss = T.reduce_sum(T.affine(w, x))
            grads = tape.backward(loss)
        assert np.allclose(grads[w], np.tile(x.data.T, (2, 1)))

    def test_unused_parameter_gets_zero(self):
        w = T.Tensor(np.ones((2, 2)), requires_grad=True)
        unused = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            _ = T.mul(unused, T.Tensor(np.full((2, 2), 2.0)))  # recorded but not on the loss path
            loss = T.reduce_sum(w)
            table = tape.backward(loss)
        assert np.array_equal(table[unused], np.zeros((2, 2)))

    def test_table_holds_only_the_leaves_the_pass_recorded(self):
        w = T.Tensor(np.ones((2, 2)), requires_grad=True)
        never_read = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            table = tape.backward(T.reduce_sum(w))
        assert list(table) == [w] and never_read not in table

    def test_recorded_outputs_are_no_leaves(self):
        # an op's output requires a gradient and feeds later ops, but the
        # tape recorded it, so the table does not hold it
        w = T.Tensor(np.ones((2, 2)), requires_grad=True)
        with T.Tape() as tape:
            hidden = T.mul(w, w)
            table = tape.backward(T.reduce_sum(T.mul(hidden, hidden)))
        assert hidden.requires_grad and list(table) == [w]

    def test_composite_matches_finite_differences(self):
        w = T.Tensor(rng(9).normal(size=(3, 3)), requires_grad=True, dtype=np.float64)
        x = T.Tensor(rng(10).normal(size=(4, 3)), dtype=np.float64)

        def value():
            h = T.reduce_mean(T.mul(T.affine(x, w), T.affine(x, w)), axis=1)
            return float(T.reduce_sum(T.mul(h, h)).data)

        with T.Tape() as tape:
            h = T.reduce_mean(T.mul(T.affine(x, w), T.affine(x, w)), axis=1)
            loss = T.reduce_sum(T.mul(h, h))
            grad = tape.backward(loss)[w]
        fd = oracles.central_diff(value, w.data)
        rel = np.abs(grad - fd) / np.maximum(1e-8, np.abs(grad) + np.abs(fd))
        assert rel.max() < 1e-6

    def test_backward_twice_raises(self):
        w = T.Tensor([1.0], requires_grad=True)
        with T.Tape() as tape:
            loss = T.reduce_sum(w)
        tape.backward(loss)
        with pytest.raises(T.TapeError):
            tape.backward(loss)

    def test_non_scalar_loss_rejected(self):
        w = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(w, T.Tensor([2.0, 2.0]))
            with pytest.raises(T.ShapeError):
                tape.backward(y)

    def test_step_tensors_freed_without_cyclic_gc(self):
        w = T.Tensor(rng(11).normal(size=(3, 3)), requires_grad=True)
        x = T.Tensor(rng(12).normal(size=(4, 3)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            with T.Tape() as tape:
                hidden = T.affine(x, w)
                loss = T.reduce_sum(T.mul(hidden, hidden))
                tape.backward(loss)
            # a Tensor takes no weak reference, but it holds its array, so
            # the array's going shows the tensor's
            ref = weakref.ref(hidden.data)
            del hidden, loss
            # reference counting alone must free it: the tape stays alive
            assert tape.consumed and ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_grad_accumulates_across_uses(self):
        w = T.Tensor([[2.0]], requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            y = T.add(T.affine(w, w), w)  # w^2 + w, d/dw = 2w + 1 = 5
            grads = tape.backward(T.reduce_sum(y))
        assert np.allclose(grads[w], [[5.0]])


class TestFiniteDiffCheck:
    def test_square_at_three(self):
        w = T.Tensor([[3.0]], requires_grad=True, dtype=np.float64)

        def f():
            return T.reduce_sum(T.affine(w, w))

        err = max(T.finite_diff_check(f, [w]))
        assert err < 1e-9
        # both routes should see the derivative 2w = 6
        with T.Tape() as tape:
            grads = tape.backward(f())
        assert abs(grads[w][0, 0] - 6.0) < 1e-9

    def test_constant_function(self):
        w = T.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float64)
        c = T.Tensor([5.0], dtype=np.float64)

        def f():
            return T.reduce_sum(T.mul(c, c))

        assert T.finite_diff_check(f, [w]) == [0.0]

    def test_two_layer_toy_model(self):
        g = rng(11)
        w1 = T.Tensor(g.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
        b1 = T.Tensor(g.normal(size=(4,)), requires_grad=True, dtype=np.float64)
        w2 = T.Tensor(g.normal(size=(4, 2)), requires_grad=True, dtype=np.float64)
        x = T.Tensor(g.normal(size=(5, 3)), dtype=np.float64)
        y = np.array([0, 1, 0, 1, 1])

        def f():
            z = T.add(T.affine(x, w1), b1)
            return T.softmax_cross_entropy(T.affine(T.mul(z, z), w2), y)

        assert max(T.finite_diff_check(f, [w1, b1, w2])) < 1e-6

    def test_one_error_per_parameter_in_the_order_given(self):
        # w's gradient is scaled by 1.5, b's is right: the report tells them
        # apart, and equals one call per parameter
        def bad_matmul(a, b):
            return T._make(a.data @ b.data, (a, b), lambda g: (g @ b.data.T * 1.5, a.data.T @ g))

        g = rng(14)
        w = T.Tensor(g.normal(size=(2, 2)), requires_grad=True, dtype=np.float64)
        b = T.Tensor(g.normal(size=(2,)), requires_grad=True, dtype=np.float64)
        x = T.Tensor(g.normal(size=(2, 2)), dtype=np.float64)

        def f():
            y = T.add(bad_matmul(w, x), b)
            return T.reduce_sum(T.mul(y, y))

        errors = T.finite_diff_check(f, [w, b])
        assert errors[0] > 1e-2 and errors[1] < 1e-8
        assert T.finite_diff_check(f, [b, w]) == errors[::-1]
        assert errors == [T.finite_diff_check(f, [p])[0] for p in (w, b)]

    def test_random_directions_tell_the_groups_apart(self):
        # w's gradient is 1% off, b's is right; each is stepped along two
        # directions of its own, drawn in order from the generator, and left
        # as it was
        def bad_matmul(a, b):
            return T._make(a.data @ b.data, (a, b), lambda g: (g @ b.data.T * 1.01, a.data.T @ g))

        g = rng(15)
        w = T.Tensor(g.normal(size=(3, 2)), requires_grad=True, dtype=np.float64)
        b = T.Tensor(g.normal(size=(2,)), requires_grad=True, dtype=np.float64)
        x = T.Tensor(g.normal(size=(2, 2)), dtype=np.float64)
        before = w.data.tobytes(), b.data.tobytes()

        def f():
            y = T.add(bad_matmul(w, x), b)
            return T.reduce_sum(T.mul(y, y))

        errors = T.finite_diff_check(f, [w, b], rng=rng(16))
        assert errors[0] > 1e-3 and errors[1] < 1e-8
        assert (w.data.tobytes(), b.data.tobytes()) == before
        assert T.finite_diff_check(f, [w, b], rng=rng(16)) == errors
        drawn = rng(16)
        drawn.normal(size=12)
        assert T.finite_diff_check(f, [b], rng=drawn) == errors[1:]

    def test_nondeterministic_function_rejected(self):
        w = T.Tensor([1.0], requires_grad=True, dtype=np.float64)
        state = {"calls": 0}

        def f():
            state["calls"] += 1
            return T.reduce_sum(T.mul(w, T.Tensor([float(state["calls"])], dtype=np.float64)))

        with pytest.raises(ValueError, match="deterministic"):
            T.finite_diff_check(f, [w])

    def test_corrupted_backward_rule_detected(self):
        # register a matmul with a deliberately wrong gradient and make sure
        # the checker flags it
        def bad_matmul(a, b):
            def back(g):
                return g @ b.data.T * 1.5, a.data.T @ g

            return T._make(a.data @ b.data, (a, b), back)

        w = T.Tensor(rng(12).normal(size=(2, 2)), requires_grad=True, dtype=np.float64)
        x = T.Tensor(rng(13).normal(size=(2, 2)), dtype=np.float64)

        def f():
            return T.reduce_sum(bad_matmul(x, w) if False else bad_matmul(w, x))

        assert max(T.finite_diff_check(f, [w])) > 1e-2


class TestIndexedOps:
    def test_gather_scatters_gradient(self):
        a = T.Tensor(rng(14).normal(size=(4, 3)), requires_grad=True, dtype=np.float64)
        idx = T.Segments(np.array([0, 2, 2]), 4)
        with T.Tape() as tape:
            out = T.gather(a, idx)
            grads = tape.backward(T.reduce_sum(out))
        want = np.zeros((4, 3))
        want[0] = 1
        want[2] = 2
        assert np.allclose(grads[a], want)

    def test_segment_sum_forward_and_backward(self):
        # edge_aggregate with one slot, one head and unit weights is a segment sum
        a = T.Tensor(np.arange(6, dtype=np.float64).reshape(3, 1, 2), requires_grad=True)
        ones = T.Tensor(np.ones((3, 1, 1, 1)))
        with T.Tape() as tape:
            out = T.edge_aggregate(ones, a, view(np.arange(3), [0, 0, 1], 3, 2))
            assert np.array_equal(out.data[:, 0], [[2.0, 4.0], [4.0, 5.0]])
            grads = tape.backward(T.reduce_sum(out))
        assert np.allclose(grads[a], np.ones((3, 1, 2)))

    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_edge_softmax_gradient(self, mode):
        g = rng(15)
        logits = T.Tensor(g.normal(size=(4, 2, 3)), requires_grad=True, dtype=np.float64)
        dst = T.Segments(np.array([0, 0, 1, 1]), 2)

        def f():
            y = edge_softmax(logits, dst, mode=mode)
            return T.reduce_sum(T.mul(y, y))

        assert max(T.finite_diff_check(f, [logits])) < 1e-6

    def test_edge_softmax_joint_sums(self):
        g = rng(16)
        logits = T.Tensor(g.normal(size=(5, 2, 3)))
        dst = np.array([0, 0, 1, 1, 1])
        y = edge_softmax(logits, T.Segments(dst, 3), mode="joint").data
        # per target slot j, mass over (incident edges x source slots) is 1
        for t in (0, 1):
            mask = dst == t
            assert np.allclose(y[mask].sum(axis=(0, 1)), 1.0, atol=1e-6)

    def test_edge_softmax_literal_sums(self):
        g = rng(17)
        logits = T.Tensor(g.normal(size=(5, 2, 3)))
        dst = np.array([0, 0, 1, 1, 1])
        y = edge_softmax(logits, T.Segments(dst, 3), mode="literal").data
        for t in (0, 1):
            mask = dst == t
            assert np.allclose(y[mask].sum(axis=0), 1.0, atol=1e-6)


    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_edge_softmax_head_axis_matches_per_head_calls(self, mode):
        logits = rng(18).normal(size=(5, 3, 2, 4))
        dst = T.Segments(np.array([0, 0, 1, 1, 1]), 3)
        y = edge_softmax(T.Tensor(head_keys(logits)), dst, mode=mode, heads=3).data
        for h in range(3):
            want = edge_softmax(T.Tensor(logits[:, h]), dst, mode=mode).data
            assert np.array_equal(y[:, h], want)

    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_edge_softmax_head_axis_gradient(self, mode):
        logits = rng(19).normal(size=(4, 2, 2, 3))
        keys = T.Tensor(head_keys(logits), requires_grad=True, dtype=np.float64)
        dst = T.Segments(np.array([0, 0, 1, 1]), 2)

        def f():
            y = edge_softmax(keys, dst, mode=mode, heads=2)
            return T.reduce_sum(T.mul(y, y))

        assert max(T.finite_diff_check(f, [keys])) < 1e-6


class TestFusedEdgeOps:
    # five edges, sources unsorted and repeated, target 3 with no edges; the
    # targets ascend, and shuffled, the edges of each target come in another
    # order, so its edge-matrix rows list their columns out of order
    SRC = np.array([2, 0, 2, 1, 3])
    DST = np.array([0, 0, 1, 2, 2])
    SHUFFLE = np.array([1, 0, 2, 4, 3])

    @staticmethod
    def one_in_degree():
        """Twelve edges, three into each target, one from every other node:
        shuffled, then sorted by target as a graph sorts them, so each
        target's edges come out of source order."""
        src, dst = np.nonzero(~np.eye(4, dtype=bool))
        order = rng(39).permutation(src.size)
        order = order[np.argsort(dst[order], kind="stable")]
        return view(src[order], dst[order], 4, 4)

    def graph(self, f_s=3, f_t=2, heads=2, d_h=2, seed=40, dtype=np.float64, shuffled=False,
              even=False):
        g = rng(seed)
        keys = T.Tensor(g.normal(size=(4, f_s, heads * d_h)), requires_grad=True, dtype=dtype)
        q = T.Tensor(g.normal(size=(4, f_t, heads * d_h)), requires_grad=True, dtype=dtype)
        att = T.Tensor(g.normal(size=(heads, d_h, d_h)), requires_grad=True, dtype=dtype)
        ext = T.Tensor(g.normal(size=(4, f_s, heads * d_h)), requires_grad=True, dtype=dtype)
        if even:
            return keys, q, att, ext, self.one_in_degree()
        order = self.SHUFFLE if shuffled else np.arange(5)
        return keys, q, att, ext, view(self.SRC[order], self.DST[order], 4, 4)

    @staticmethod
    def reference(keys, q, att, ext, mode, scale_outside, edges):
        """Per-edge logits, scaled by 1/sqrt(d_h) before the softmax or by
        1/sqrt(H d_h) after it, the softmax by its formula over each target's
        group, and the messages summed edge by edge, in float64."""
        keys, q, att, ext = (t.data.astype(np.float64) for t in (keys, q, att, ext))
        heads, d_h = att.shape[:2]
        scale = 1.0 / np.sqrt(heads * d_h if scale_outside else d_h)

        def split(x):  # (n, F, d) -> (n, H, F, d_h)
            return x.reshape(x.shape[0], x.shape[1], heads, d_h).transpose(0, 2, 1, 3)

        kw, qh = split(keys) @ att, split(q)
        dst = edges.dst.ids
        logits = np.stack([kw[s] @ np.swapaxes(qh[t], -1, -2) for s, t in zip(edges.src, dst)])
        logits *= 1.0 if scale_outside else scale
        attn = np.zeros_like(logits)
        for t in np.unique(dst):
            mine = dst == t
            if mode == "joint":  # over (edge, source slot) per head and target slot
                block = np.moveaxis(logits[mine], 0, 1)  # (H, deg, F_s, F_t)
                flat = block.reshape(heads, -1, block.shape[-1])
                attn[mine] = np.moveaxis(
                    oracles.softmax_formula(flat, axis=1).reshape(block.shape), 1, 0
                )
            else:
                attn[mine] = oracles.softmax_formula(logits[mine], axis=0)
        attn *= scale if scale_outside else 1.0
        return attn, TestFusedEdgeOps.mix(attn, ext, edges, heads)

    @staticmethod
    def mix(attn, ext, edges, heads):
        """attn[e]^T ext[s] per head, summed into each target edge by edge."""
        d_h = ext.shape[2] // heads
        out = np.zeros((edges.dst.num_segments, attn.shape[3], ext.shape[2]))
        for e, (s, t) in enumerate(zip(edges.src, edges.dst.ids)):
            for m in range(heads):
                cols = slice(m * d_h, (m + 1) * d_h)
                out[t, :, cols] += attn[e, m].T.astype(np.float64) @ ext[s, :, cols]
        return out

    def check_gradients(self, mode, scale_outside, **graph):
        keys, q, att, ext, edges = self.graph(**graph)
        w = T.Tensor(rng(41).normal(size=(4, q.shape[1], 4)), dtype=np.float64)

        def f():
            attn = T.edge_attention(keys, q, att, edges, mode, scale_outside)
            return T.reduce_sum(T.mul(T.edge_aggregate(attn, ext, edges), w))

        assert max(T.finite_diff_check(f, [keys, q, att, ext])) < 1e-6

    def check_reference(self, mode, scale_outside, **graph):
        keys, q, att, ext, edges = self.graph(**graph)
        attn = T.edge_attention(keys, q, att, edges, mode, scale_outside)
        out = T.edge_aggregate(attn, ext, edges)
        want_attn, want_out = self.reference(keys, q, att, ext, mode, scale_outside, edges)
        np.testing.assert_allclose(attn.data, want_attn, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(out.data, want_out, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("scale_outside", [False, True])
    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_gradients_match_finite_differences(self, mode, scale_outside):
        self.check_gradients(mode, scale_outside)

    @pytest.mark.parametrize("scale_outside", [False, True])
    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_match_per_edge_reference(self, mode, scale_outside):
        self.check_reference(mode, scale_outside, seed=42)

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_one_source_slot_three_target_slots(self, mode, shuffled):
        # the shape of a second layer's relation out of a type that receives none
        self.check_reference(mode, False, f_s=1, f_t=3, seed=44, shuffled=shuffled)
        self.check_gradients(mode, False, f_s=1, f_t=3, seed=44, shuffled=shuffled)

    @pytest.mark.parametrize("scale_outside", [False, True])
    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_one_in_degree_three_by_three_slots(self, mode, scale_outside):
        # every target has three edges and both slot counts exceed one: the
        # logits and the attention gradient run one product per target and head
        self.check_reference(mode, scale_outside, f_t=3, seed=45, even=True)
        self.check_gradients(mode, scale_outside, f_t=3, seed=45, even=True)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_float32_aggregate_within_rounding_of_float64(self, shuffled):
        # each entry is a sum of products, rounded once per term: the
        # messages sum deg(t) F_s terms per target, the ext gradient
        # outdeg(s) F_t per source and the attention gradient d_h per edge;
        # each is held to 2 k eps (sum of |terms|), as in TestFlatMatmul
        _, _, _, ext, edges = self.graph(f_s=3, f_t=2, heads=2, d_h=3, seed=46,
                                         dtype=np.float32, shuffled=shuffled)
        g = rng(47)
        attn = T.Tensor(g.uniform(0, 1, size=(5, 2, 3, 2)), requires_grad=True)
        up = g.normal(size=(4, 2, 6)).astype(np.float32)
        with T.Tape() as tape:
            out = T.edge_aggregate(attn, ext, edges)
            grads = tape.backward(T.reduce_sum(T.mul(out, T.Tensor(up))))
        eps = np.finfo(np.float32).eps
        a, x = attn.data, ext.data
        terms = np.bincount(edges.dst.ids, minlength=4).max() * 3
        bound = 2 * terms * eps * self.mix(np.abs(a), np.abs(x), edges, 2)
        assert out.dtype == np.float32
        assert np.all(np.abs(out.data - self.mix(a, x, edges, 2)) <= bound)
        # ext gradient: the transposed mix, each source summing over its edges
        want_ext, mag_ext = np.zeros((4, 3, 6)), np.zeros((4, 3, 6))
        want_attn, mag_attn = np.zeros(a.shape), np.zeros(a.shape)
        for e, (s, t) in enumerate(zip(edges.src, edges.dst.ids)):
            for m in range(2):
                cols = slice(3 * m, 3 * m + 3)
                a_em, u = a[e, m].astype(np.float64), up[t, :, cols].astype(np.float64)
                want_ext[s, :, cols] += a_em @ u
                mag_ext[s, :, cols] += np.abs(a_em) @ np.abs(u)
                want_attn[e, m] = x[s, :, cols].astype(np.float64) @ u.T
                mag_attn[e, m] = np.abs(x[s, :, cols]).astype(np.float64) @ np.abs(u.T)
        terms = np.bincount(edges.src, minlength=4).max() * 2
        assert np.all(np.abs(grads[ext] - want_ext) <= 2 * terms * eps * mag_ext)
        assert np.all(np.abs(grads[attn] - want_attn) <= 2 * 3 * eps * mag_attn)

    def test_edge_index_built_once_per_view_and_shape(self, monkeypatch, tmp_path):
        builds, wanted = [], set()
        build, lookup = T._build_edge_index, T.BipartiteView.edge_index

        def counting_build(*args):
            builds.append(args)
            return build(*args)

        def recording_lookup(edges, *shape):
            wanted.add((id(edges), *shape))
            return lookup(edges, *shape)

        monkeypatch.setattr(T, "_build_edge_index", counting_build)
        monkeypatch.setattr(T.BipartiteView, "edge_index", recording_lookup)
        g = synthetic_generate(SyntheticSpec(), seed=101)
        save_dataset(g, tmp_path)
        loaded = load_dataset(tmp_path)
        for rel in loaded.schema.relations:
            loaded.bipartite(rel)
        assert builds == []  # loading and the views leave the index to the first product
        cfg = from_profile("desk").replace(epochs=1)
        model = init_model(loaded, cfg)
        train(model, loaded, cfg)  # one full-batch step and evaluate("valid")
        evaluate(model, loaded, "test")
        built = len(builds)
        evaluate(model, loaded, "test")
        assert len(builds) == built  # the test blocks' views kept theirs
        assert 0 < len(builds) == len(wanted)

    @staticmethod
    def fresh_edge_matrix(w, edges):
        """The edge matrix of ``T._edge_matrix`` entry by entry, handed to
        scipy anew: row (m, j, t) lists the edges into t in storage order and
        each edge's source slots i, at column (m, s, i)."""
        e, heads, f_s, f_t = w.shape
        src, dst = edges.src, edges.dst
        n_s, n_t = edges.num_src, dst.num_segments
        data, indices, indptr = [], [], [0]
        for m in range(heads):
            for j in range(f_t):
                for t in range(n_t):
                    for k in np.flatnonzero(dst.ids == t):
                        for i in range(f_s):
                            data.append(w[k, m, i, j])
                            indices.append((m * n_s + src[k]) * f_s + i)
                    indptr.append(len(data))
        arrays = (np.array(data, dtype=w.dtype), np.array(indices), np.array(indptr))
        return scipy.sparse.csr_array(arrays, shape=(heads * f_t * n_t, heads * f_s * n_s))

    @staticmethod
    def assert_products_equal(a, fresh, right, left):
        """Both products of the built matrix ``a`` equal ``fresh``'s, to the bit."""
        got_right, got_left = T._csr_product(a, right), T._csr_product(a, left, transpose=True)
        for got, want in ((got_right, fresh @ right), (got_left, fresh.T @ left)):
            assert got.dtype == want.dtype == a[2].dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_products_equal_a_fresh_matrix_to_the_bit(self, dtype, shuffled):
        *_, edges = self.graph(shuffled=shuffled)
        heads, f_s, f_t, d_h = 2, 3, 2, 3
        g = rng(48)
        matrices = []
        for _ in range(2):  # the second call's data must replace the first's
            w = g.normal(size=(5, heads, f_s, f_t)).astype(dtype)
            right = g.normal(size=(heads * 4 * f_s, d_h)).astype(dtype)
            left = g.normal(size=(heads * f_t * 4, d_h)).astype(dtype)
            fresh = self.fresh_edge_matrix(w, edges)
            a = T._edge_matrix(w, edges)
            assert a[2].dtype == dtype and a[3] == fresh.shape
            self.assert_products_equal(a, fresh, right, left)
            matrices.append((a, fresh, right, left))
        # each matrix owns its data, as the aggregate's, kept for its backward,
        # needs: building the second left the first's products as they were
        self.assert_products_equal(*matrices[0])
        # the kept structure is as built: nothing of a call stays in it
        (index,) = edges._edge_index.values()
        built = T._build_edge_index(edges.src, edges.dst.indptr, edges.num_src, heads, f_s, f_t)
        assert index.shape == built.shape
        for kept, want in ((index.cols, built.cols), (index.indptr, built.indptr)):
            assert kept.dtype == want.dtype and kept.tobytes() == want.tobytes()

    def test_products_run_on_read_only_kept_structure(self):
        # so threads that share a view share its structure safely: a product
        # that wrote into it would raise
        *_, edges = self.graph(shuffled=True)
        g = rng(49)
        a = T._edge_matrix(g.normal(size=(5, 2, 3, 2)), edges)
        right, left = g.normal(size=(2 * 4 * 3, 3)), g.normal(size=(2 * 2 * 4, 3))
        got = T._csr_product(a, right), T._csr_product(a, left, transpose=True)
        assert all(np.isfinite(x).all() for x in got)
        edges.dst.sum(g.normal(size=(5, 2)))
        (index,) = edges._edge_index.values()
        for kept in (index.cols, index.indptr, *edges.dst._matrix[:3]):
            with pytest.raises(ValueError, match="read-only"):
                kept[...] = 0

    @staticmethod
    def assert_same_bits(got, want):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("scale_outside", [False, True])
    @pytest.mark.parametrize("mode", ["joint", "literal"])
    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("f_s, f_t", [(1, 1), (1, 3), (2, 3), (3, 3), (9, 1)])
    def test_slot_pair_passes_equal_the_broadcast_formulas_to_the_bit(
        self, monkeypatch, f_s, f_t, dtype, shuffled, mode, scale_outside
    ):
        # the softmax and its gradient run one slot pair at a time; with the
        # whole-array broadcasts they replaced, the attention and every
        # gradient must keep every bit
        keys, q, att, ext, edges = self.graph(f_s, f_t, seed=51, dtype=dtype, shuffled=shuffled)
        up = T.Tensor(rng(52).normal(size=(4, f_t, 4)), dtype=dtype)

        def run():
            with T.Tape() as tape:
                attn = T.edge_attention(keys, q, att, edges, mode, scale_outside)
                out = T.edge_aggregate(attn, ext, edges)
                grads = tape.backward(T.reduce_sum(T.mul(out, up)))
            return [attn.data, out.data] + [grads[t] for t in (keys, q, att, ext)]

        got = run()
        monkeypatch.setattr(T, "_edge_softmax", oracles.edge_softmax_by_broadcast)
        monkeypatch.setattr(T, "_edge_softmax_grad", oracles.edge_softmax_grad_by_broadcast)
        for a, b in zip(got, run(), strict=True):
            self.assert_same_bits(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("f_s, f_t", [(2, 2), (3, 3), (3, 9), (1, 1), (1, 3), (3, 1)])
    @pytest.mark.parametrize("degrees", ["one", "two", "three", "uneven", "one empty"])
    def test_edge_pairs_equal_per_edge_products_to_the_bit(self, degrees, f_s, f_t, dtype):
        # the products per target and head that one in-degree and slot counts
        # above one allow keep every bit of the products per edge and head; a
        # slot count of 1, uneven in-degrees and a target without edges keep
        # the per-edge products, as stacking those would change last bits
        g = rng(54)
        n_s, n_t, heads, d_h = 30, 40, 8, 8
        counts = {
            "one": np.ones(n_t, dtype=int), "two": np.full(n_t, 2), "three": np.full(n_t, 3),
            "uneven": g.integers(1, 4, n_t), "one empty": np.where(np.arange(n_t) == 5, 0, 2),
        }[degrees]
        edges = view(g.integers(0, n_s, counts.sum()), np.repeat(np.arange(n_t), counts), n_s, n_t)
        dst_t = g.normal(size=(n_t, heads, d_h, f_t)).astype(dtype)
        kw = g.normal(size=(heads, n_s, f_s, d_h)).astype(dtype)
        ext = g.normal(size=(n_s, f_s, heads, d_h)).astype(dtype).transpose(2, 0, 1, 3)
        for src_h in (kw, ext):  # K W's layout in edge_attention, ext's in edge_aggregate
            got = T._edge_pairs(src_h, dst_t, edges)
            # each node's blocks C-contiguous, as a product of strided rows rounds otherwise
            src = np.ascontiguousarray(src_h.transpose(1, 0, 2, 3))
            want = src[edges.src] @ dst_t[edges.dst.ids]
            assert got.flags.c_contiguous
            self.assert_same_bits(got, want)

    @pytest.mark.parametrize("f_s, even, grouped", [
        (3, True, True), (1, True, False), (3, False, False),
    ])
    def test_one_product_per_target_and_head_where_every_target_has_one_in_degree(
        self, monkeypatch, f_s, even, grouped
    ):
        # the target blocks count the products they enter, in both ops: the
        # logits in the attention's forward, its gradient in the aggregate's
        # backward
        products = []

        class Spy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *ins, **kwargs):
                a, b = (np.asarray(x) for x in ins)
                if ufunc is np.matmul:
                    products.append((np.broadcast_shapes(a.shape[:-2], b.shape[:-2]),
                                     a.shape[-2:], b.shape[-2:]))
                return getattr(ufunc, method)(a, b, **kwargs)

        heads_t = T._heads_t
        monkeypatch.setattr(T, "_heads_t", lambda x, h: heads_t(x, h).view(Spy))
        keys, q, att, ext, edges = self.graph(f_s=f_s, f_t=3, even=even)
        with T.Tape() as tape:
            out = T.edge_aggregate(T.edge_attention(keys, q, att, edges), ext, edges)
            tape.backward(T.reduce_sum(T.mul(out, out)))
        e = edges.src.size
        if grouped:  # 4 targets x 2 heads, each a (3 edges x 3 slots, d_h) @ (d_h, 3) product
            assert products == [((2, 4), (3 * f_s, 2), (2, 3))] * 2
        else:  # one per edge and head
            assert products == [((e, 2), (f_s, 2), (2, 3))] * 2

    @pytest.mark.parametrize("f", [1, 3])
    def test_heads_t_copies_slot_by_slot_to_the_bit(self, f):
        x = rng(53).normal(size=(f, 4, 6)).astype(np.float32).transpose(1, 0, 2)  # not contiguous
        got = T._heads_t(x, 2)
        assert got.flags.c_contiguous
        self.assert_same_bits(got, np.ascontiguousarray(x.reshape(4, f, 2, 3).transpose(0, 2, 3, 1)))

    def test_target_without_edges_gets_a_zero_block(self):
        keys, q, att, ext, edges = self.graph(dtype=np.float32)
        with T.Tape() as tape:
            out = T.edge_aggregate(T.edge_attention(keys, q, att, edges), ext, edges)
            grads = tape.backward(T.reduce_sum(T.mul(out, out)))
        assert np.all(out.data[3] == 0) and np.all(out.data[:3] != 0)
        assert np.all(grads[q][3] == 0)

    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_many_source_slots_one_target_slot(self, mode):
        # numpy sums 9 slots pairwise when the target slot axis has length 1;
        # the fused op adds slot after slot
        keys, q, att, ext, edges = self.graph(f_s=9, f_t=1, seed=43)
        attn = T.edge_attention(keys, q, att, edges, mode)
        want_attn, want_out = self.reference(keys, q, att, ext, mode, False, edges)
        np.testing.assert_allclose(attn.data, want_attn, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(
            T.edge_aggregate(attn, ext, edges).data, want_out, rtol=1e-12, atol=1e-14
        )
        for t in range(3):
            mass = attn.data[self.DST == t].sum(axis=(0, 2) if mode == "joint" else 0)
            np.testing.assert_allclose(mass, 1.0, rtol=1e-12)

        def f():
            out = T.edge_aggregate(T.edge_attention(keys, q, att, edges, mode), ext, edges)
            return T.reduce_sum(T.mul(out, out))

        assert max(T.finite_diff_check(f, [keys, q, att, ext])) < 1e-6

    def test_no_source_nodes_give_zero_blocks(self):
        # a block can hold no rows of a source type: zero-size operands throughout
        keys, q, att, ext, _ = self.graph()
        keys, ext = (T.Tensor(t.data[:0], requires_grad=True) for t in (keys, ext))
        edges = view(np.zeros(0, dtype=np.int64), np.zeros(0), 0, 4)
        with T.Tape() as tape:
            out = T.edge_aggregate(T.edge_attention(keys, q, att, edges), ext, edges)
            grads = tape.backward(T.reduce_sum(T.mul(out, out)))
        assert out.shape == (4, 2, 4) and np.all(out.data == 0)
        assert grads[keys].shape == (0, 3, 4) and np.all(grads[att] == 0)

    def test_each_op_records_one_tape_node(self):
        keys, q, att, ext, edges = self.graph()
        with T.Tape() as tape:
            attn = T.edge_attention(keys, q, att, edges)
            assert len(tape.nodes) == 1
            T.edge_aggregate(attn, ext, edges)
            assert len(tape.nodes) == 2

    def test_each_op_lays_its_edge_matrix_out_once(self, monkeypatch):
        # the attention lays out its softmax-input gradient in backward; the
        # aggregate lays out the attention in forward and its backward reuses it
        keys, q, att, ext, edges = self.graph(shuffled=True)
        laid, edge_matrix = [], T._edge_matrix
        monkeypatch.setattr(T, "_edge_matrix", lambda w, v: laid.append(w) or edge_matrix(w, v))
        attn = T.Tensor(rng(50).uniform(size=(5, 2, 3, 2)), requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            out = T.edge_aggregate(attn, ext, edges)
            assert len(laid) == 1 and laid[0] is attn.data
            grads = tape.backward(T.reduce_sum(T.mul(out, out)))
        assert len(laid) == 1 and grads[ext].shape == ext.shape
        laid.clear()
        with T.Tape() as tape:
            attn = T.edge_attention(keys, q, att, edges)
            assert laid == []
            grads = tape.backward(T.reduce_sum(T.mul(attn, attn)))
        assert len(laid) == 1 and laid[0].shape == attn.shape and grads[q].shape == q.shape

    def test_overflowing_logit_raises(self):
        # the +inf logits make NaN attention, which the op passes on: the
        # loss on top catches it
        keys, q, att, _, edges = self.graph(dtype=np.float32)
        att.data[...] = np.eye(2)  # K W is the keys, so only the logits overflow
        keys.data[2] = 3e38  # source 2's logits overflow float32 on edges 0 and 2
        q.data[...] = 10.0
        with np.errstate(all="ignore"):
            attn = T.edge_attention(keys, q, att, edges)
            assert np.isnan(attn.data).any()
            with pytest.raises(T.NonFiniteError):
                T.logistic_loss(attn, np.zeros(attn.shape))

    def test_overflowing_key_product_raises(self):
        # K W of source 2 is -inf, but its logits are -inf and get weight 0
        # next to source 0's, so the attention blocks would be finite: only
        # the screen of K W itself catches the overflow
        keys, q, att, _, _ = self.graph(dtype=np.float32)
        att.data[...] = 10.0 * np.eye(2)
        keys.data[2] = -3e38
        q.data[...] = 1.0
        edges = view([2, 0], [0, 0], 4, 4)
        with np.errstate(all="ignore"), pytest.raises(T.NonFiniteError):
            T.edge_attention(keys, q, att, edges)
        att.data[...] = np.eye(2)
        keys.data[2] = -1e3  # the same weights with a finite K W
        assert np.all(np.isfinite(T.edge_attention(keys, q, att, edges).data))

    def test_blocks_must_fit_the_edges(self):
        keys, q, att, _, edges = self.graph()
        with pytest.raises(T.ShapeError):
            T.edge_attention(keys, q, T.Tensor(np.ones((2, 2, 3))), edges)
        with pytest.raises(T.ShapeError):
            T.edge_attention(keys, q, att, view(self.SRC, self.DST, 4, 5))
        with pytest.raises(T.ShapeError):
            T.edge_attention(keys, q, att, view(self.SRC, self.DST, 5, 4))


class TestCsrProduct:
    """``T._csr_product``, every sparse product of the module, calls scipy's
    private CSR kernel on bare arrays, from scipy's extension file loaded
    without ``scipy.sparse`` (``T._load_sparsetools``); a scipy release that
    moves that file or changes the kernel's arguments or results fails here."""

    @staticmethod
    def record(g, index, data, shape=(7, 9)):
        """A CSR record whose rows have many lengths, one empty, columns out of
        order and repeated, and values over six decades, so any change in the
        order of a row's additions shows."""
        indptr = np.cumsum([0, 3, 0, 5, 1, 4, 9, 6]).astype(index)
        indices = g.integers(0, shape[1], size=indptr[-1]).astype(index)
        values = g.normal(size=indices.size) * 10.0 ** g.uniform(-3, 3, size=indices.size)
        a = values.astype(data) if data is not bool else np.ones(indices.size, dtype=bool)
        return indptr, indices, a, shape

    @staticmethod
    def dense(g, rows, width, dtype):
        return (g.normal(size=(rows, width)) * 10.0 ** g.uniform(-3, 3, size=(rows, 1))).astype(dtype)

    @pytest.mark.parametrize("width", [1, 4])
    @pytest.mark.parametrize("data, x", [
        (np.float32, np.float32), (np.float64, np.float64), (bool, np.float32), (bool, np.int64),
    ])
    @pytest.mark.parametrize("index", [np.int32, np.int64])
    def test_equals_scipy_csr_array_to_the_bit(self, index, data, x, width):
        # scipy runs another kernel at width 1
        g = rng(60)
        indptr, indices, a, shape = record = self.record(g, index, data)
        m = scipy.sparse.csr_array((a, indices, indptr), shape=shape)
        right, left = self.dense(g, shape[1], width, x), self.dense(g, shape[0], width, x)
        got = T._csr_product(record, right)
        got_t = T._csr_product(record, left, transpose=True)
        for got, want in ((got, m @ right), (got_t, m.T @ left)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_importing_the_package_leaves_scipy_sparse_out(self):
        # a fresh interpreter, since this one imported scipy.sparse long ago;
        # it imports what the benchmark imports, then scipy.sparse, which
        # loads the kernels' file a second time
        code = """
import importlib.util, os, sys
import numpy as np
import slotgnn.cli
from slotgnn import artifacts, config, graph, layer, model, tensor as T, training
assert not [m for m in sys.modules if m.startswith("scipy.")], sorted(sys.modules)
sparse = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "sparse")
assert os.path.dirname(T._sparsetools.__file__) == sparse, T._sparsetools.__file__
import scipy.sparse
g = np.random.default_rng(61)
for dtype in (np.float32, np.float64):
    a = scipy.sparse.csr_array(scipy.sparse.random(40, 30, density=0.2, random_state=g, dtype=dtype))
    a.indices, a.indptr = a.indices.astype(np.int32), a.indptr.astype(np.int32)
    record = a.indptr, a.indices, a.data, a.shape
    right, left = g.normal(size=(30, 5)).astype(dtype), g.normal(size=(40, 5)).astype(dtype)
    assert T._csr_product(record, right).tobytes() == (a @ right).tobytes()
    assert T._csr_product(record, left, transpose=True).tobytes() == (a.T @ left).tobytes()
print("ok")
"""
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"

    def test_loader_takes_an_imported_module_as_it_is(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", None)  # not reached
        modules = dict(sys.modules)
        assert T._load_sparsetools() is scipy.sparse._sparsetools
        assert dict(sys.modules) == modules

    @pytest.mark.parametrize("broken", [False, True], ids=["missing", "broken"])
    def test_loader_falls_back_to_the_regular_import(self, tmp_path, monkeypatch, broken):
        # the kernels' module not yet imported, and scipy found in a folder
        # where their file is missing, or is there but does not load
        if broken:
            (tmp_path / "sparse").mkdir()
            suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
            (tmp_path / "sparse" / f"_sparsetools{suffix}").write_bytes(b"not an extension")
        found = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        found.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: found)
        monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools")
        modules = dict(sys.modules)
        got = T._load_sparsetools()
        assert dict(sys.modules) == modules
        assert got is scipy.sparse._sparsetools
        monkeypatch.undo()

        g = rng(62)
        record = self.record(g, np.int32, np.float32)
        right, left = self.dense(g, 9, 4, np.float32), self.dense(g, 7, 4, np.float32)
        want = T._csr_product(record, right), T._csr_product(record, left, transpose=True)
        monkeypatch.setattr(T, "_sparsetools", got)
        fell_back = T._csr_product(record, right), T._csr_product(record, left, transpose=True)
        assert [a.tobytes() for a in fell_back] == [a.tobytes() for a in want]


class TestSegments:
    # rows per segment vary from none to dozens, and magnitudes span six
    # decades, so any change in the order of a segment's additions shows
    CASES = {
        "with_empty": (np.sort(rng(30).choice([0, 2, 3, 6], size=200)), 7),
        "sorted": (np.sort(rng(31).integers(0, 5, size=60)), 5),
        "no_rows": (np.zeros(0, dtype=np.int64), 3),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sum_and_max_match_ufunc_at(self, case, dtype):
        ids, n = self.CASES[case]
        g = rng(32)
        scale = 10.0 ** g.uniform(-3, 3, size=(ids.size, 1, 1))
        x = (g.normal(size=(ids.size, 3, 2)) * scale).astype(dtype)
        seg = T.Segments(ids, n)
        want_sum = np.zeros((n, 3, 2), dtype=dtype)
        np.add.at(want_sum, ids, x)
        got_sum = seg.sum(x)
        assert got_sum.dtype == dtype
        assert np.array_equal(got_sum, want_sum)
        if np.issubdtype(dtype, np.integer):
            return  # an empty segment's max is -inf, which no integer holds
        want_max = np.full((n, 3, 2), -np.inf, dtype=dtype)
        np.maximum.at(want_max, ids, x)
        got_max = seg.max(x)
        assert got_max.dtype == dtype
        assert np.array_equal(got_max, want_max)

    # rows per segment of each layout. The sweep takes the layouts whose
    # non-empty segments all have one length.
    LAYOUTS = {
        "uniform": lambda g: np.full(40, 3),
        "long": lambda g: np.full(8, 20),
        "one_row": lambda g: np.ones(40, dtype=np.int64),
        "random": lambda g: g.integers(1, 7, size=40),
        "hub": lambda g: np.maximum(1, 90 // np.arange(1, 41) ** 2),  # 90, 22, 10, 5, ...
        "empty": lambda g: np.tile([2, 0, 3, 0, 1], 8),
    }
    SWEPT = {"uniform", "long", "one_row"}

    def layout_ids(self, layout, g) -> tuple[np.ndarray, int]:
        counts = self.LAYOUTS[layout](g)
        return np.repeat(np.arange(counts.size), counts), counts.size

    @staticmethod
    def plant_specials(x, g):
        """NaNs with payloads and either sign, +-inf and +-0 at random places."""
        bits = {
            np.float32: (0x7FC00005, 0xFFC00009),
            np.float64: (0x7FF8000000000005, 0xFFF8000000000009),
        }
        nans = np.array(bits[x.dtype.type], dtype=f"u{x.itemsize}").view(x.dtype)
        specials = np.array([nans[0], nans[1], np.inf, -np.inf, 0.0, -0.0], dtype=x.dtype)
        where = g.random(x.shape) < 0.3
        x[where] = specials[g.integers(0, specials.size, size=int(where.sum()))]
        return x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [8, 24])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_sweep_and_reduceat_maxima_equal_the_scan_to_the_bit(
        self, layout, width, dtype, monkeypatch
    ):
        g = rng(35)
        ids, n = self.layout_ids(layout, g)
        # laid out as the pooled logits (E, H, 1, F_t) of the edge softmax
        x = self.plant_specials(g.normal(size=(ids.size, 8, 1, width // 8)).astype(dtype), g)
        want = oracles.segment_reduce_by_scan(ids, x, n, np.maximum, -np.inf)
        sweeps = []
        sweep = T._rank_sweep_max
        monkeypatch.setattr(T, "_rank_sweep_max", lambda *a: sweeps.append(a) or sweep(*a))
        for cost in (0, 10 ** 9):  # force each path where both can run
            monkeypatch.setattr(T, "SWEEP_CALL_COST", cost)
            sweeps.clear()
            got = T.Segments(ids, n).max(x)
            swept = cost == 0 and layout in self.SWEPT
            assert bool(sweeps) == swept
            assert got.dtype == dtype and got.shape == want.shape
            if swept or np.bincount(ids).max() < 17:
                assert got.tobytes() == want.tobytes()
                continue
            # numpy's reduceat folds a segment of 17 or more rows in SIMD
            # lanes, so of several NaNs in a column it may return another
            # than a fold in row order does; all else is to the bit
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("layout", ["random", "empty"])
    def test_spread_equals_indexing_by_ids_to_the_bit(self, layout):
        g = rng(36)
        ids, n = self.layout_ids(layout, g)
        seg = T.Segments(ids, n)
        v = self.plant_specials(g.normal(size=(n, 8, 1, 3)), g)
        got = seg.spread(v)
        assert got.shape == v[ids].shape and got.tobytes() == v[ids].tobytes()

    @pytest.mark.parametrize("heads, f_s, n_src, dtype", [
        (1, 1, 2 ** 31 - 1, np.int32),
        (1, 1, 2 ** 31, np.int64),
        (2, 2, 2 ** 29 - 1, np.int32),
        (2, 2, 2 ** 29, np.int64),
    ])
    def test_edge_index_dtype_at_the_int32_bound(self, heads, f_s, n_src, dtype):
        # the column count H F_s n_src is the largest size the bound checks:
        # 2**31 - 1 or less fits int32, 2**31 does not; a huge source count
        # reaches it with three edges, and nothing of that size is built
        sources, indptr = np.array([0, n_src - 1, 5]), np.array([0, 2, 3])
        ix = T._build_edge_index(sources, indptr, n_src, heads, f_s, 2)
        assert ix.cols.dtype == dtype and ix.indptr.dtype == dtype
        assert ix.shape == (heads * 2 * 2, heads * f_s * n_src)
        # the top source's last slot in the last head is the last column
        assert int(ix.cols.max()) == heads * f_s * n_src - 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reductions_and_edge_matrix_match_the_scan_oracles(self, dtype):
        g = rng(34)
        src_ids, dst_ids = g.integers(0, 5, size=40), np.sort(g.integers(0, 6, size=40))
        edges = view(src_ids, dst_ids, 5, 7)  # target 6 has no edges
        dst = edges.dst
        x = g.normal(size=(40, 3, 2)).astype(dtype)
        assert np.array_equal(dst.sum(x), oracles.segment_reduce_by_scan(dst_ids, x, 7, np.add, 0))
        assert np.array_equal(
            dst.max(x), oracles.segment_reduce_by_scan(dst_ids, x, 7, np.maximum, -np.inf)
        )
        # with unit weights, row (m, j, t) of the edge matrix times the one-hot
        # source of each column (m, s, i) counts F_s per edge s -> t
        heads, f_s, f_t = 2, 2, 3
        onehot = np.tile(np.repeat(np.eye(5, dtype=dtype), f_s, axis=0), (heads, 1))
        ones = np.ones((40, heads, f_s, f_t), dtype=dtype)
        counts = T._csr_product(T._edge_matrix(ones, edges), onehot)
        counts = counts.reshape(heads, f_t, 7, 5)
        edges = np.stack([src_ids, dst_ids], axis=1)
        for t, sources in enumerate(oracles.csr_slices_by_filter(edges, 7)):
            assert np.all(counts[:, :, t] == f_s * np.bincount(sources, minlength=5))

    def test_ops_accept_segments_or_ids(self):
        a = T.Tensor(rng(33).normal(size=(4, 2)))
        ids = np.array([0, 2, 2])
        assert np.array_equal(T.gather(a, T.Segments(ids, 4)).data, a.data[ids])
        with pytest.raises(T.ShapeError):
            T.gather(a, T.Segments(ids, 5))

    def test_gather_refuses_a_plain_index_array(self):
        # an array would skip the range check a Segments makes when built:
        # -1 would read the last row
        a = T.Tensor(rng(33).normal(size=(4, 2)), requires_grad=True)
        for idx in (np.array([2, 0]), np.array([-1]), [0]):
            with pytest.raises(TypeError, match="Segments"):
                T.gather(a, idx)

    def test_out_of_range_ids_rejected(self):
        for ids in ([0, 3], [-1, 0], [[0, 1]]):
            with pytest.raises(T.ShapeError):
                T.Segments(np.array(ids), 3)

    @pytest.mark.parametrize("ids", [[1, 0], [0, 2, 1], [0, 0, 2, 1, 2]])
    def test_descending_ids_rejected(self, ids):
        with pytest.raises(T.ShapeError, match="ascending"):
            T.Segments(np.array(ids), 3)

    @pytest.mark.parametrize("src", [[0, -1, 2], [0, 1, 4], [0, 1], [0, 1, 2, 3], [[0, 1, 2]]],
                             ids=["negative", "too-large", "short", "long", "not-a-vector"])
    def test_view_rejects_bad_source_ids(self, src):
        with pytest.raises(T.ShapeError, match=r"source ids must be 3 ids in \[0, 4\)"):
            T.BipartiteView(np.array(src), T.Segments(np.array([0, 1, 1]), 2), 4)


class TestLosses:
    def test_uniform_logits_give_log_c(self):
        logits = T.Tensor(np.zeros((5, 4)))
        loss = T.softmax_cross_entropy(logits, np.zeros(5, dtype=int))
        assert abs(loss.item() - np.log(4)) < 1e-6

    def test_confident_correct_is_near_zero(self):
        logits = np.zeros((3, 4), dtype=np.float32)
        labels = np.array([1, 2, 0])
        logits[np.arange(3), labels] = 20.0
        loss = T.softmax_cross_entropy(T.Tensor(logits), labels)
        assert loss.item() < 1e-3

    def test_matches_direct_formula(self):
        g = rng(18)
        x = g.normal(size=(3, 3))
        labels = np.array([2, 0, 1])
        loss = T.softmax_cross_entropy(T.Tensor(x, dtype=np.float64), labels)
        p = oracles.softmax_formula(x, axis=1)
        want = -np.mean([np.log(p[i, labels[i]]) for i in range(3)])
        assert abs(loss.item() - want) < 1e-7

    def test_negative_infinite_logit_raises(self):
        # a -inf logit of a class other than the label leaves the
        # cross-entropy finite, so the loss screens the logits it reads
        with np.errstate(over="ignore"):
            logits = T.mul(T.Tensor([[1.0, -3e38, 0.5]]), T.Tensor([[1.0, 10.0, 1.0]]))
        assert logits.data[0, 1] == -np.inf
        with pytest.raises(T.NonFiniteError):
            T.softmax_cross_entropy(logits, np.array([0]))
        for flag in (0.0, 1.0):
            with pytest.raises(T.NonFiniteError):
                T.logistic_loss(logits, np.array([[1.0, flag, 0.0]]))

    def test_overflowing_loss_raises(self):
        # finite logits whose cross-entropy overflows float32
        logits = T.Tensor([[3e38, -3e38]])
        with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError):
            T.softmax_cross_entropy(logits, np.array([1]))
        with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError):
            T.logistic_loss(logits, np.array([[0.0, 1.0]]))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_logistic_loss_formula(self):
        g = rng(19)
        x = g.normal(size=(2, 3))
        y = (g.random(size=(2, 3)) > 0.5).astype(np.float64)
        loss = T.logistic_loss(T.Tensor(x, dtype=np.float64), y)
        p = 1 / (1 + np.exp(-x))
        want = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert abs(loss.item() - want) < 1e-7

    def test_logistic_gradient_where_exp_overflows(self):
        # exp(100) overflows float32: the sigmoid is its limit 0, with no
        # warning, so the gradient there is (0 - target) / count
        logits = T.Tensor([[-100.0, -100.0], [2.0, -1.0]], requires_grad=True)
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with T.Tape() as tape:
                grad = tape.backward(T.logistic_loss(logits, targets))[logits]
        assert grad.dtype == np.float32
        assert grad[0, 0] == (0.0 - 1.0) / 4 and grad[0, 1] == 0.0

    def test_loss_gradients(self):
        g = rng(20)
        logits = T.Tensor(g.normal(size=(4, 3)), requires_grad=True, dtype=np.float64)
        labels = np.array([0, 2, 1, 1])
        errors = T.finite_diff_check(lambda: T.softmax_cross_entropy(logits, labels), [logits])
        assert max(errors) < 1e-6
        targets = (g.random(size=(4, 3)) > 0.5).astype(np.float64)
        assert max(T.finite_diff_check(lambda: T.logistic_loss(logits, targets), [logits])) < 1e-6


class TestInvariants:
    def test_nan_detection(self):
        # no op screens its output: the inf and the NaN it makes reach the loss
        with np.errstate(all="ignore"):
            inf = T.mul(T.Tensor([3e38]), T.Tensor([10.0]))  # overflows to inf in float32
            nan = T.add(inf, T.mul(inf, T.Tensor([-1.0])))
            for bad in (inf, nan):
                with pytest.raises(T.NonFiniteError):
                    T.logistic_loss(bad, np.zeros(1))

    def test_inf_from_matmul_raises(self):
        a = T.Tensor([[3e38, 3e38]], requires_grad=True)
        with np.errstate(over="ignore"), T.Tape():
            out = T.affine(a, T.Tensor([[10.0], [10.0]]))
            with pytest.raises(T.NonFiniteError):
                T.softmax_cross_entropy(out, np.array([0]))

    def test_value_moving_ops_skip_the_screen(self, monkeypatch):
        # no op screens its output, whether it moves values or computes them:
        # raw data and the loss are screened
        calls = []
        screen = T._check_finite
        monkeypatch.setattr(T, "_check_finite", lambda arr: calls.append(arr.shape) or screen(arr))
        a = T.Tensor(np.ones((4, 3)), requires_grad=True)
        w = T.Tensor(np.ones((3, 3)), requires_grad=True)
        b = T.Tensor(np.ones(3), requires_grad=True)
        attn = T.Tensor(np.ones((2, 1, 1, 4)), requires_grad=True)
        ext = T.Tensor(np.ones((4, 1, 3)), requires_grad=True)
        raw = [(4, 3), (3, 3), (3,), (2, 1, 1, 4), (4, 1, 3)]
        assert calls == raw
        with T.Tape():
            T.gather(a, T.Segments(np.array([1, 3]), 4))
            T.concat([a, a], axis=0)
            T.add(a, b)
            T.mul(a, a)
            T.affine(a, w)
            T.reduce_sum(a)
            T.reduce_mean(a, axis=0)
            T.edge_aggregate(attn, ext, view([0, 3], [1, 1], 4, 2))
            logits = T.affine(a, w, b)
            assert calls == raw
            T.softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert calls == raw + [(4, 3), ()]  # the logits the loss reads, and the loss

    def test_operations_deterministic(self):
        g = rng(21)
        a = g.normal(size=(6, 5)).astype(np.float32)
        b = g.normal(size=(5, 4)).astype(np.float32)

        def run():
            h = T.affine(T.Tensor(a), T.Tensor(b))
            return T.reduce_mean(T.mul(h, h), axis=0).data.tobytes()

        assert run() == run()

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_gradients_match_finite_differences(self, seed):
        g = np.random.default_rng(seed)
        w = T.Tensor(g.normal(size=(3, 3)), requires_grad=True, dtype=np.float64)
        b = T.Tensor(g.normal(size=(3,)), requires_grad=True, dtype=np.float64)
        x = T.Tensor(g.normal(size=(2, 3)), dtype=np.float64)
        labels = g.integers(0, 3, size=2)
        # the bounded nonlinearity: per column, an attention over four slots
        slots = T.Tensor(g.normal(size=(2, 4, 3)), dtype=np.float64)
        eye = T.Tensor(np.eye(3), dtype=np.float64)

        def f():
            h, _ = T.slot_fusion(T.add(T.affine(x, w), b), slots, eye, eye, heads=3)
            return T.softmax_cross_entropy(T.affine(h, w), labels)

        with T.Tape() as tape:
            table = tape.backward(f())
        # a second-order difference at h = 1e-5 has a rounding floor near
        # 1e-6 relative on gradients as small as 1e-6 (seen at seed 306688919)
        for p in (w, b):
            fd = oracles.central_diff4(lambda: f().item(), p.data)
            rel = np.abs(table[p] - fd) / np.maximum(1e-8, np.abs(table[p]) + np.abs(fd))
            assert rel.max() < 1e-6
