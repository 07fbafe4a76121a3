import gc
import weakref

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


def rng(seed=0):
    return np.random.default_rng(seed)


def edge_softmax(keys: T.Tensor, dst: T.Segments, mode: str, heads: int = 1) -> T.Tensor:
    """The softmax of ``T.edge_attention`` alone: every edge is its own source
    node, and the attention weights and queries are identities, so the logits
    (K W) q^T are the keys exactly: logit (e, m, i, j) is ``keys[e, i, m F_t +
    j]``. One head's keys (E, F_s, F_t) are its logits; the result is
    (E, H, F_s, F_t), or (E, F_s, F_t) for one head."""
    e, _, width = keys.shape
    eye = np.eye(width // heads)
    q = T.Tensor(np.tile(eye, (dst.num_segments, 1, heads)), dtype=keys.dtype)
    att = T.Tensor(np.tile(eye, (heads, 1, 1)), dtype=keys.dtype)
    y = T.edge_attention(keys, q, att, T.Segments(np.arange(e), e), dst, mode)
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
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(T.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_row_sums(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        ones = T.Tensor([[1.0], [1.0]])
        assert np.allclose(T.matmul(a, ones).data, [[3.0], [7.0]])

    def test_against_triple_loop(self):
        a = rng(1).normal(size=(3, 4))
        b = rng(2).normal(size=(4, 2))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        want = oracles.naive_matmul(a, b)
        assert np.allclose(got, want, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((2, 3))))

    def test_stacked_lhs(self):
        a = rng(3).normal(size=(5, 2, 4))
        b = rng(4).normal(size=(4, 3))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
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
            y = T.matmul(a, b)
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
            y = T.matmul(a, b)
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
    def test_forward_and_gradients_equal_add_of_matmul_to_the_bit(self, shape, dtype):
        x, w, b = self.operands(shape, dtype)
        up = T.Tensor(rng(51).normal(size=shape[:-1] + (4,)), dtype=dtype)
        outs, tables = [], []
        for f in (T.affine, lambda x, w, b: T.add(T.matmul(x, w), b)):
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
            loss = T.reduce_sum(T.matmul(w, x))
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

    def test_composite_matches_finite_differences(self):
        w = T.Tensor(rng(9).normal(size=(3, 3)), requires_grad=True, dtype=np.float64)
        x = T.Tensor(rng(10).normal(size=(4, 3)), dtype=np.float64)

        def value():
            h = T.reduce_mean(T.mul(T.matmul(x, w), T.matmul(x, w)), axis=1)
            return float(T.reduce_sum(T.mul(h, h)).data)

        with T.Tape() as tape:
            h = T.reduce_mean(T.mul(T.matmul(x, w), T.matmul(x, w)), axis=1)
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
                hidden = T.matmul(x, w)
                loss = T.reduce_sum(T.mul(hidden, hidden))
                tape.backward(loss)
            ref = weakref.ref(hidden)
            del hidden, loss
            # reference counting alone must free it: the tape stays alive
            assert tape.consumed and ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_grad_accumulates_across_uses(self):
        w = T.Tensor([[2.0]], requires_grad=True, dtype=np.float64)
        with T.Tape() as tape:
            y = T.add(T.matmul(w, w), w)  # w^2 + w, d/dw = 2w + 1 = 5
            grads = tape.backward(T.reduce_sum(y))
        assert np.allclose(grads[w], [[5.0]])


class TestFiniteDiffCheck:
    def test_square_at_three(self):
        w = T.Tensor([[3.0]], requires_grad=True, dtype=np.float64)

        def f():
            return T.reduce_sum(T.matmul(w, w))

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
            z = T.add(T.matmul(x, w1), b1)
            return T.softmax_cross_entropy(T.matmul(T.mul(z, z), w2), y)

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
        seg = T.Segments(np.array([1, 1, 0]), 2)
        ones = T.Tensor(np.ones((3, 1, 1, 1)))
        with T.Tape() as tape:
            out = T.edge_aggregate(ones, a, T.Segments(np.arange(3), 3), seg)
            assert np.array_equal(out.data[:, 0], [[4.0, 5.0], [2.0, 4.0]])
            grads = tape.backward(T.reduce_sum(out))
        assert np.allclose(grads[a], np.ones((3, 1, 2)))

    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_edge_softmax_gradient(self, mode):
        g = rng(15)
        logits = T.Tensor(g.normal(size=(4, 2, 3)), requires_grad=True, dtype=np.float64)
        dst = T.Segments(np.array([0, 1, 0, 1]), 2)

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
        dst = T.Segments(np.array([1, 0, 1, 1, 0]), 3)
        y = edge_softmax(T.Tensor(head_keys(logits)), dst, mode=mode, heads=3).data
        for h in range(3):
            want = edge_softmax(T.Tensor(logits[:, h]), dst, mode=mode).data
            assert np.array_equal(y[:, h], want)

    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_edge_softmax_head_axis_gradient(self, mode):
        logits = rng(19).normal(size=(4, 2, 2, 3))
        keys = T.Tensor(head_keys(logits), requires_grad=True, dtype=np.float64)
        dst = T.Segments(np.array([0, 1, 0, 1]), 2)

        def f():
            y = edge_softmax(keys, dst, mode=mode, heads=2)
            return T.reduce_sum(T.mul(y, y))

        assert max(T.finite_diff_check(f, [keys])) < 1e-6


class TestFusedEdgeOps:
    # five edges, sources unsorted and repeated, target 3 with no edges; in
    # storage order the targets are sorted, shuffled they are not, so the
    # edge matrix is built through the targets' sort
    SRC = np.array([2, 0, 2, 1, 3])
    DST = np.array([0, 0, 1, 2, 2])
    SHUFFLE = np.array([3, 0, 4, 2, 1])

    def graph(self, f_s=3, f_t=2, heads=2, d_h=2, seed=40, dtype=np.float64, shuffled=False):
        g = rng(seed)
        keys = T.Tensor(g.normal(size=(4, f_s, heads * d_h)), requires_grad=True, dtype=dtype)
        q = T.Tensor(g.normal(size=(4, f_t, heads * d_h)), requires_grad=True, dtype=dtype)
        att = T.Tensor(g.normal(size=(heads, d_h, d_h)), requires_grad=True, dtype=dtype)
        ext = T.Tensor(g.normal(size=(4, f_s, heads * d_h)), requires_grad=True, dtype=dtype)
        order = self.SHUFFLE if shuffled else np.arange(5)
        return keys, q, att, ext, T.Segments(self.SRC[order], 4), T.Segments(self.DST[order], 4)

    @staticmethod
    def reference(keys, q, att, ext, mode, scale, scale_outside, src, dst):
        """Per-edge logits, the softmax by its formula over each target's
        group, and the messages summed edge by edge, in float64."""
        keys, q, att, ext = (t.data.astype(np.float64) for t in (keys, q, att, ext))
        heads, d_h = att.shape[:2]

        def split(x):  # (n, F, d) -> (n, H, F, d_h)
            return x.reshape(x.shape[0], x.shape[1], heads, d_h).transpose(0, 2, 1, 3)

        kw, qh = split(keys) @ att, split(q)
        logits = np.stack([kw[s] @ np.swapaxes(qh[t], -1, -2) for s, t in zip(src.ids, dst.ids)])
        logits *= 1.0 if scale_outside else scale
        attn = np.zeros_like(logits)
        for t in np.unique(dst.ids):
            mine = dst.ids == t
            if mode == "joint":  # over (edge, source slot) per head and target slot
                block = np.moveaxis(logits[mine], 0, 1)  # (H, deg, F_s, F_t)
                flat = block.reshape(heads, -1, block.shape[-1])
                attn[mine] = np.moveaxis(
                    oracles.softmax_formula(flat, axis=1).reshape(block.shape), 1, 0
                )
            else:
                attn[mine] = oracles.softmax_formula(logits[mine], axis=0)
        attn *= scale if scale_outside else 1.0
        return attn, TestFusedEdgeOps.mix(attn, ext, src, dst, heads)

    @staticmethod
    def mix(attn, ext, src, dst, heads):
        """attn[e]^T ext[s] per head, summed into each target edge by edge."""
        d_h = ext.shape[2] // heads
        out = np.zeros((dst.num_segments, attn.shape[3], ext.shape[2]))
        for e, (s, t) in enumerate(zip(src.ids, dst.ids)):
            for m in range(heads):
                cols = slice(m * d_h, (m + 1) * d_h)
                out[t, :, cols] += attn[e, m].T.astype(np.float64) @ ext[s, :, cols]
        return out

    def check_gradients(self, mode, scale_outside, **graph):
        keys, q, att, ext, src, dst = self.graph(**graph)
        w = T.Tensor(rng(41).normal(size=(4, q.shape[1], 4)), dtype=np.float64)

        def f():
            attn = T.edge_attention(keys, q, att, src, dst, mode, 0.7, scale_outside)
            return T.reduce_sum(T.mul(T.edge_aggregate(attn, ext, src, dst), w))

        assert max(T.finite_diff_check(f, [keys, q, att, ext])) < 1e-6

    def check_reference(self, mode, scale_outside, **graph):
        keys, q, att, ext, src, dst = self.graph(**graph)
        attn = T.edge_attention(keys, q, att, src, dst, mode, 0.7, scale_outside)
        out = T.edge_aggregate(attn, ext, src, dst)
        want_attn, want_out = self.reference(keys, q, att, ext, mode, 0.7, scale_outside, src, dst)
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

    @pytest.mark.parametrize("scale_outside", [False, True])
    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_shuffled_edges_match_reference_and_finite_differences(self, mode, scale_outside):
        assert self.graph(shuffled=True)[-1].order is not None
        self.check_reference(mode, scale_outside, seed=42, shuffled=True)
        self.check_gradients(mode, scale_outside, shuffled=True)

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_one_source_slot_three_target_slots(self, mode, shuffled):
        # the shape of a second layer's relation out of a type that receives none
        self.check_reference(mode, False, f_s=1, f_t=3, seed=44, shuffled=shuffled)
        self.check_gradients(mode, False, f_s=1, f_t=3, seed=44, shuffled=shuffled)

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_float32_aggregate_within_rounding_of_float64(self, shuffled):
        # each entry is a sum of products, rounded once per term: the
        # messages sum deg(t) F_s terms per target, the ext gradient
        # outdeg(s) F_t per source and the attention gradient d_h per edge;
        # each is held to 2 k eps (sum of |terms|), as in TestFlatMatmul
        _, _, _, ext, src, dst = self.graph(f_s=3, f_t=2, heads=2, d_h=3, seed=46,
                                            dtype=np.float32, shuffled=shuffled)
        g = rng(47)
        attn = T.Tensor(g.uniform(0, 1, size=(5, 2, 3, 2)), requires_grad=True)
        up = g.normal(size=(4, 2, 6)).astype(np.float32)
        with T.Tape() as tape:
            out = T.edge_aggregate(attn, ext, src, dst)
            grads = tape.backward(T.reduce_sum(T.mul(out, T.Tensor(up))))
        eps = np.finfo(np.float32).eps
        a, x = attn.data, ext.data
        terms = np.bincount(dst.ids, minlength=4).max() * 3
        bound = 2 * terms * eps * self.mix(np.abs(a), np.abs(x), src, dst, 2)
        assert out.dtype == np.float32
        assert np.all(np.abs(out.data - self.mix(a, x, src, dst, 2)) <= bound)
        # ext gradient: the transposed mix, each source summing over its edges
        want_ext, mag_ext = np.zeros((4, 3, 6)), np.zeros((4, 3, 6))
        want_attn, mag_attn = np.zeros(a.shape), np.zeros(a.shape)
        for e, (s, t) in enumerate(zip(src.ids, dst.ids)):
            for m in range(2):
                cols = slice(3 * m, 3 * m + 3)
                a_em, u = a[e, m].astype(np.float64), up[t, :, cols].astype(np.float64)
                want_ext[s, :, cols] += a_em @ u
                mag_ext[s, :, cols] += np.abs(a_em) @ np.abs(u)
                want_attn[e, m] = x[s, :, cols].astype(np.float64) @ u.T
                mag_attn[e, m] = np.abs(x[s, :, cols]).astype(np.float64) @ np.abs(u.T)
        terms = np.bincount(src.ids, minlength=4).max() * 2
        assert np.all(np.abs(grads[ext] - want_ext) <= 2 * terms * eps * mag_ext)
        assert np.all(np.abs(grads[attn] - want_attn) <= 2 * 3 * eps * mag_attn)

    def test_edge_index_built_once_per_view_and_shape(self, monkeypatch, tmp_path):
        builds, wanted = [], set()
        build, lookup = T._build_edge_index, T.Segments.edge_index

        def counting_build(*args):
            builds.append(args)
            return build(*args)

        def recording_lookup(dst, src, *shape):
            wanted.add((id(dst), id(src), *shape))
            return lookup(dst, src, *shape)

        monkeypatch.setattr(T, "_build_edge_index", counting_build)
        monkeypatch.setattr(T.Segments, "edge_index", recording_lookup)
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
    def fresh_edge_matrix(w, src, dst):
        """The edge matrix of ``T._edge_products`` entry by entry, handed to
        scipy anew: row (m, j, t) lists the edges into t in storage order and
        each edge's source slots i, at column (m, s, i)."""
        e, heads, f_s, f_t = w.shape
        n_s, n_t = src.num_segments, dst.num_segments
        data, indices, indptr = [], [], [0]
        for m in range(heads):
            for j in range(f_t):
                for t in range(n_t):
                    for k in np.flatnonzero(dst.ids == t):
                        for i in range(f_s):
                            data.append(w[k, m, i, j])
                            indices.append((m * n_s + src.ids[k]) * f_s + i)
                    indptr.append(len(data))
        arrays = (np.array(data, dtype=w.dtype), np.array(indices), np.array(indptr))
        return scipy.sparse.csr_array(arrays, shape=(heads * f_t * n_t, heads * f_s * n_s))

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_products_equal_a_fresh_matrix_to_the_bit(self, dtype, shuffled):
        *_, src, dst = self.graph(shuffled=shuffled)
        heads, f_s, f_t, d_h = 2, 3, 2, 3
        g = rng(48)
        for _ in range(2):  # the second call's data must replace the first's
            w = g.normal(size=(5, heads, f_s, f_t)).astype(dtype)
            right = g.normal(size=(heads * 4 * f_s, d_h)).astype(dtype)
            left = g.normal(size=(heads * f_t * 4, d_h)).astype(dtype)
            fresh = self.fresh_edge_matrix(w, src, dst)
            got_right, got_left = T._edge_products(w, src, dst, right, left)
            for got, want in ((got_right, fresh @ right), (got_left, fresh.T @ left)):
                assert got.dtype == dtype and got.tobytes() == want.tobytes()
            assert T._edge_products(w, src, dst, right=right)[1] is None
        (index,) = dst._edge_index.values()
        for m in (index.csr, index.csc):
            assert m.data is None and m.indices is None  # nothing of a call stays

    def test_target_without_edges_gets_a_zero_block(self):
        keys, q, att, ext, src, dst = self.graph(dtype=np.float32)
        with T.Tape() as tape:
            out = T.edge_aggregate(T.edge_attention(keys, q, att, src, dst), ext, src, dst)
            grads = tape.backward(T.reduce_sum(T.mul(out, out)))
        assert np.all(out.data[3] == 0) and np.all(out.data[:3] != 0)
        assert np.all(grads[q][3] == 0)

    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_many_source_slots_one_target_slot(self, mode):
        # numpy sums 9 slots pairwise when the target slot axis has length 1;
        # the fused op adds slot after slot
        keys, q, att, ext, src, dst = self.graph(f_s=9, f_t=1, seed=43)
        attn = T.edge_attention(keys, q, att, src, dst, mode, 0.7)
        want_attn, want_out = self.reference(keys, q, att, ext, mode, 0.7, False, src, dst)
        np.testing.assert_allclose(attn.data, want_attn, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(
            T.edge_aggregate(attn, ext, src, dst).data, want_out, rtol=1e-12, atol=1e-14
        )
        for t in range(3):
            mass = attn.data[self.DST == t].sum(axis=(0, 2) if mode == "joint" else 0)
            np.testing.assert_allclose(mass, 1.0, rtol=1e-12)

        def f():
            out = T.edge_aggregate(T.edge_attention(keys, q, att, src, dst, mode, 0.7), ext, src, dst)
            return T.reduce_sum(T.mul(out, out))

        assert max(T.finite_diff_check(f, [keys, q, att, ext])) < 1e-6

    def test_no_source_nodes_give_zero_blocks(self):
        # a block can hold no rows of a source type: zero-size operands throughout
        keys, q, att, ext, _, _ = self.graph()
        keys, ext = (T.Tensor(t.data[:0], requires_grad=True) for t in (keys, ext))
        src, dst = T.Segments(np.zeros(0, dtype=np.int64), 0), T.Segments(np.zeros(0), 4)
        with T.Tape() as tape:
            out = T.edge_aggregate(T.edge_attention(keys, q, att, src, dst), ext, src, dst)
            grads = tape.backward(T.reduce_sum(T.mul(out, out)))
        assert out.shape == (4, 2, 4) and np.all(out.data == 0)
        assert grads[keys].shape == (0, 3, 4) and np.all(grads[att] == 0)

    def test_each_op_records_one_tape_node(self):
        keys, q, att, ext, src, dst = self.graph()
        with T.Tape() as tape:
            attn = T.edge_attention(keys, q, att, src, dst)
            assert len(tape.nodes) == 1
            T.edge_aggregate(attn, ext, src, dst)
            assert len(tape.nodes) == 2

    def test_overflowing_logit_raises(self):
        # the +inf logits make NaN attention, which the op passes on: the
        # loss on top catches it
        keys, q, att, _, src, dst = self.graph(dtype=np.float32)
        att.data[...] = np.eye(2)  # K W is the keys, so only the logits overflow
        keys.data[2] = 3e38  # source 2's logits overflow float32 on edges 0 and 2
        q.data[...] = 10.0
        with np.errstate(all="ignore"):
            attn = T.edge_attention(keys, q, att, src, dst)
            assert np.isnan(attn.data).any()
            with pytest.raises(T.NonFiniteError):
                T.logistic_loss(attn, np.zeros(attn.shape))

    def test_overflowing_key_product_raises(self):
        # K W of source 2 is -inf, but its logits are -inf and get weight 0
        # next to source 0's, so the attention blocks would be finite: only
        # the screen of K W itself catches the overflow
        keys, q, att, _, _, _ = self.graph(dtype=np.float32)
        att.data[...] = 10.0 * np.eye(2)
        keys.data[2] = -3e38
        q.data[...] = 1.0
        src, dst = T.Segments(np.array([2, 0]), 4), T.Segments(np.array([0, 0]), 4)
        with np.errstate(all="ignore"), pytest.raises(T.NonFiniteError):
            T.edge_attention(keys, q, att, src, dst)
        att.data[...] = np.eye(2)
        keys.data[2] = -1e3  # the same weights with a finite K W
        assert np.all(np.isfinite(T.edge_attention(keys, q, att, src, dst).data))

    def test_blocks_must_fit_the_edges(self):
        keys, q, att, _, src, dst = self.graph()
        with pytest.raises(T.ShapeError):
            T.edge_attention(keys, q, T.Tensor(np.ones((2, 2, 3))), src, dst)
        with pytest.raises(T.ShapeError):
            T.edge_attention(keys, q, att, src, T.Segments(self.DST, 5))


class TestSegments:
    # rows per segment vary from none to dozens, and magnitudes span six
    # decades, so any change in the order of a segment's additions shows
    CASES = {
        "unsorted_with_empty": (rng(30).choice([0, 2, 3, 6], size=200), 7),
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

    def test_order_is_sorted_only_when_read(self):
        seg = T.Segments(np.array([2, 0, 2, 1]), 3)
        assert not seg.sorted and "order" not in vars(seg)
        seg.max(np.ones((4, 1)))
        assert np.array_equal(vars(seg)["order"], [1, 3, 0, 2])
        assert T.Segments(np.array([0, 0, 2]), 3).order is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_unsorted_reductions_and_edge_matrix_match_the_scan_oracles(self, dtype):
        g = rng(34)
        src_ids, dst_ids = g.integers(0, 5, size=40), g.integers(0, 6, size=40)
        src, dst = T.Segments(src_ids, 5), T.Segments(dst_ids, 7)  # target 6 has no edges
        assert not dst.sorted
        x = g.normal(size=(40, 3, 2)).astype(dtype)
        assert np.array_equal(dst.sum(x), oracles.segment_reduce_by_scan(dst_ids, x, 7, np.add, 0))
        assert np.array_equal(
            dst.max(x), oracles.segment_reduce_by_scan(dst_ids, x, 7, np.maximum, -np.inf)
        )
        # with unit weights, row (m, j, t) of the edge matrix times the one-hot
        # source of each column (m, s, i) counts F_s per edge s -> t
        heads, f_s, f_t = 2, 2, 3
        onehot = np.tile(np.repeat(np.eye(5, dtype=dtype), f_s, axis=0), (heads, 1))
        counts, _ = T._edge_products(np.ones((40, heads, f_s, f_t), dtype=dtype), src, dst, onehot)
        counts = counts.reshape(heads, f_t, 7, 5)
        edges = np.stack([src_ids, dst_ids], axis=1)
        for t, sources in enumerate(oracles.csr_slices_by_filter(edges, 7)):
            assert np.all(counts[:, :, t] == f_s * np.bincount(sources, minlength=5))

    def test_no_source_segments_sorted_in_a_desk_train_step(self):
        # only reductions into targets read ``order``; the sources of a view
        # are read by id, so their sort would be wasted
        g = synthetic_generate(SyntheticSpec(), seed=101)
        cfg = from_profile("desk").replace(epochs=1)
        train(init_model(g, cfg), g, cfg)  # one full-batch step and evaluate("valid")
        blocks = [b for plan in g._blocks.values() for b in plan.layers]
        views = list(g._views.values()) + [view for b in blocks for view in b.views.values()]
        sources = [view.src for view in views]
        assert len(g._blocks) == 2 and any(not s.sorted for s in sources)
        assert not any("order" in vars(s) for s in sources)

    def test_ops_accept_segments_or_ids(self):
        a = T.Tensor(rng(33).normal(size=(4, 2)))
        ids = np.array([2, 0, 2])
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
            out = T.matmul(a, T.Tensor([[10.0], [10.0]]))
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
            T.gather(a, T.Segments(np.array([3, 1]), 4))
            T.concat([a, a], axis=0)
            T.add(a, b)
            T.mul(a, a)
            T.matmul(a, w)
            T.reduce_sum(a)
            T.reduce_mean(a, axis=0)
            src, dst = T.Segments(np.array([0, 3]), 4), T.Segments(np.array([1, 1]), 2)
            T.edge_aggregate(attn, ext, src, dst)
            logits = T.affine(a, w, b)
            assert calls == raw
            T.softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert calls == raw + [(4, 3), ()]  # the logits the loss reads, and the loss

    def test_operations_deterministic(self):
        g = rng(21)
        a = g.normal(size=(6, 5)).astype(np.float32)
        b = g.normal(size=(5, 4)).astype(np.float32)

        def run():
            h = T.matmul(T.Tensor(a), T.Tensor(b))
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
            h, _ = T.slot_fusion(T.add(T.matmul(x, w), b), slots, eye, eye, heads=3)
            return T.softmax_cross_entropy(T.matmul(h, w), labels)

        with T.Tape() as tape:
            table = tape.backward(f())
        # a second-order difference at h = 1e-5 has a rounding floor near
        # 1e-6 relative on gradients as small as 1e-6 (seen at seed 306688919)
        for p in (w, b):
            fd = oracles.central_diff4(lambda: f().item(), p.data)
            rel = np.abs(table[p] - fd) / np.maximum(1e-8, np.abs(table[p]) + np.abs(fd))
            assert rel.max() < 1e-6
