import numpy as np
import pytest

from slotgnn import tensor as T
from slotgnn.fusion import (
    FusionParams,
    classify,
    f1_metrics,
    fuse,
    loss,
    mean_fuse,
    metapath_report,
    predict,
)
from slotgnn.graph import NodeType, Relation, Schema
from slotgnn.seq import slot_paths

from . import oracles


def make_params(dim=4, classes=3, heads=1, seed=0):
    return FusionParams.create(dim, classes, heads, np.random.default_rng(seed))


def target_schema():
    return Schema(
        node_types=[NodeType("a", 1, 2), NodeType("b", 1, 2), NodeType("t", 1, 2)],
        relations=[Relation("a", "ra", "t"), Relation("b", "rb", "t")],
        target_type="t",
        num_classes=2,
    )


class TestFuse:
    def test_single_slot_gets_weight_one(self):
        params = make_params()
        rng = np.random.default_rng(1)
        h0 = T.Tensor(rng.normal(size=(3, 1, 4)).astype(np.float32))
        hl = T.Tensor(rng.normal(size=(3, 1, 4)).astype(np.float32))
        out = fuse(h0, hl, params)
        assert np.allclose(out.attn[:, 0], 1.0)
        want = hl.data[:, 0, :] @ params.fv.data
        assert np.allclose(out.fused.data, want, atol=1e-6)

    def test_identical_keys_give_uniform_attention(self):
        params = make_params()
        rng = np.random.default_rng(2)
        h0 = T.Tensor(rng.normal(size=(2, 1, 4)).astype(np.float32))
        row = rng.normal(size=(1, 1, 4)).astype(np.float32)
        hl = T.Tensor(np.tile(row, (2, 5, 1)))
        out = fuse(h0, hl, params)
        assert np.allclose(out.attn[:, 0], 0.2, atol=1e-6)

    def test_matches_dense_formula(self):
        params = make_params(dim=2, heads=1, seed=3)
        rng = np.random.default_rng(4)
        h0 = T.Tensor(rng.normal(size=(2, 2, 2)).astype(np.float32))
        hl = T.Tensor(rng.normal(size=(2, 3, 2)).astype(np.float32))
        out = fuse(h0, hl, params)
        want_fused, want_attn = oracles.dense_fuse_reference(h0.data, hl.data, params)
        assert np.allclose(out.fused.data, want_fused, atol=1e-6)
        assert np.allclose(out.attn[:, 0], want_attn[0], atol=1e-6)

    def test_multi_head_matches_dense_formula(self):
        params = make_params(dim=8, heads=4, seed=5)
        rng = np.random.default_rng(6)
        h0 = T.Tensor(rng.normal(size=(3, 2, 8)).astype(np.float32))
        hl = T.Tensor(rng.normal(size=(3, 4, 8)).astype(np.float32))
        out = fuse(h0, hl, params)
        want_fused, want_attn = oracles.dense_fuse_reference(h0.data, hl.data, params)
        assert np.allclose(out.fused.data, want_fused, rtol=1e-5, atol=1e-6)
        for m in range(4):
            assert np.allclose(out.attn[:, m], want_attn[m], atol=1e-6)

    def test_attention_rows_are_probabilities(self):
        params = make_params(dim=8, heads=2, seed=7)
        rng = np.random.default_rng(8)
        h0 = T.Tensor(rng.normal(size=(5, 2, 8)).astype(np.float32))
        hl = T.Tensor(rng.normal(size=(5, 6, 8)).astype(np.float32))
        out = fuse(h0, hl, params)
        for m in range(out.attn.shape[1]):
            head = out.attn[:, m]
            assert np.all(head >= 0)
            assert np.allclose(head.sum(axis=1), 1.0, atol=1e-6)

    def test_fused_in_convex_hull_of_values(self):
        params = make_params(dim=4, heads=1, seed=9)
        rng = np.random.default_rng(10)
        h0 = T.Tensor(rng.normal(size=(4, 2, 4)).astype(np.float32))
        hl = T.Tensor(rng.normal(size=(4, 5, 4)).astype(np.float32))
        out = fuse(h0, hl, params)
        v = hl.data @ params.fv.data
        assert np.all(out.fused.data <= v.max(axis=1) + 1e-5)
        assert np.all(out.fused.data >= v.min(axis=1) - 1e-5)

    def test_argmax_slot_invariant_to_positive_key_scaling(self):
        params = make_params(dim=4, heads=1, seed=11)
        rng = np.random.default_rng(12)
        h0 = T.Tensor(rng.normal(size=(6, 2, 4)).astype(np.float32))
        hl = T.Tensor(rng.normal(size=(6, 5, 4)).astype(np.float32))
        before = fuse(h0, hl, params).attn[:, 0].argmax(axis=1)
        params.fk.data = params.fk.data * 3.5
        after = fuse(h0, hl, params).attn[:, 0].argmax(axis=1)
        assert np.array_equal(before, after)

    def test_mean_fuse_is_slot_average(self):
        rng = np.random.default_rng(13)
        hl = T.Tensor(rng.normal(size=(3, 4, 2)).astype(np.float32))
        assert np.allclose(mean_fuse(hl).data, hl.data.mean(axis=1), atol=1e-7)


class TestSlotFusion:
    """``T.slot_fusion``: the whole head after the query, one tape node."""

    def inputs(self, n=3, f=9, heads=8, d=16, seed=20, dtype=np.float64):
        g = np.random.default_rng(seed)
        q = T.Tensor(g.normal(size=(n, d)), requires_grad=True, dtype=dtype)
        hl = T.Tensor(g.normal(size=(n, f, d)), requires_grad=True, dtype=dtype)
        fk = T.Tensor(g.normal(size=(d, d)) / 4, requires_grad=True, dtype=dtype)
        fv = T.Tensor(g.normal(size=(d, d)) / 4, requires_grad=True, dtype=dtype)
        return q, hl, fk, fv

    @pytest.mark.parametrize("f,heads", [(1, 1), (9, 8)])
    def test_gradients_match_finite_differences(self, f, heads):
        q, hl, fk, fv = self.inputs(f=f, heads=heads)
        w = T.Tensor(np.random.default_rng(21).normal(size=(3, 16)), dtype=np.float64)

        def loss_fn():
            out, _ = T.slot_fusion(q, hl, fk, fv, heads)
            return T.reduce_sum(T.mul(out, w))

        assert max(T.finite_diff_check(loss_fn, [q, hl, fk, fv])) < 1e-6

    @pytest.mark.parametrize("f,heads", [(1, 1), (9, 8)])
    def test_matches_dense_reference(self, f, heads):
        params = FusionParams.create(16, 3, heads, np.random.default_rng(22), np.float64)
        g = np.random.default_rng(23)
        h0 = T.Tensor(g.normal(size=(4, 2, 16)), dtype=np.float64)
        hl = T.Tensor(g.normal(size=(4, f, 16)), dtype=np.float64)
        out = fuse(h0, hl, params)
        want_fused, want_attn = oracles.dense_fuse_reference(h0.data, hl.data, params)
        assert out.attn.shape == (4, heads, f)
        np.testing.assert_allclose(out.fused.data, want_fused, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(out.attn, want_attn.transpose(1, 0, 2), rtol=1e-12, atol=1e-14)

    def test_records_one_tape_node(self):
        q, hl, fk, fv = self.inputs()
        with T.Tape() as tape:
            T.slot_fusion(q, hl, fk, fv, 8)
            assert len(tape.nodes) == 1

    def test_zero_rows(self):
        _, _, fk, fv = self.inputs()
        q, hl = (
            T.Tensor(np.zeros(shape), requires_grad=True, dtype=np.float64)
            for shape in [(0, 16), (0, 9, 16)]
        )
        with T.Tape() as tape:
            out, attn = T.slot_fusion(q, hl, fk, fv, 8)
            grads = tape.backward(T.reduce_sum(T.mul(out, out)))
        assert out.shape == (0, 16) and attn.shape == (0, 8, 9)
        assert grads[q].shape == (0, 16) and grads[hl].shape == (0, 9, 16)
        assert np.all(grads[fk] == 0) and np.all(grads[fv] == 0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflowing_logit_raises(self, sign):
        # with the sign -1 only slot 2's logit overflows, to -inf, and gets
        # weight 0: the fused rows would be finite, so only the logit screen
        # catches it
        q, hl, fk, fv = self.inputs(dtype=np.float32)
        fk.data[...] = np.eye(16)
        q.data[...] = 10.0
        hl.data[0, 2] = sign * 3e38
        with np.errstate(all="ignore"), pytest.raises(T.NonFiniteError):
            T.slot_fusion(q, hl, fk, fv, 8)

    def test_shapes_must_fit(self):
        q, hl, fk, fv = self.inputs()
        with pytest.raises(T.ShapeError):
            T.slot_fusion(q, hl, fk, fv, 3)
        with pytest.raises(T.ShapeError):
            T.slot_fusion(q, T.Tensor(hl.data[:, :0]), fk, fv, 8)


class TestClassify:
    def test_zero_weights_give_bias(self):
        params = make_params(dim=4, classes=3)
        params.classifier_weight.data = np.zeros_like(params.classifier_weight.data)
        params.classifier_bias.data = np.array([0.1, 0.2, 0.3], dtype=np.float32)
        h = T.Tensor(np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32))
        logits = classify(h, params)
        assert np.allclose(logits.data, np.tile([0.1, 0.2, 0.3], (5, 1)), atol=1e-7)

    def test_identity_two_class_case(self):
        params = make_params(dim=2, classes=2)
        params.classifier_weight.data = np.eye(2, dtype=np.float32)
        params.classifier_bias.data = np.zeros(2, dtype=np.float32)
        logits = classify(T.Tensor([[1.0, 0.0]]), params)
        assert np.allclose(logits.data, [[1.0, 0.0]])
        assert predict(logits.data)[0] == 0

    def test_matches_matmul_oracle(self):
        params = make_params(dim=3, classes=4, seed=14)
        h = np.random.default_rng(15).normal(size=(2, 3))
        logits = classify(T.Tensor(h), params)
        want = oracles.naive_matmul(h, params.classifier_weight.data) + params.classifier_bias.data
        assert np.allclose(logits.data, want, atol=1e-5)

    def test_argmax_tie_breaks_to_lowest_class(self):
        logits = np.array([[1.0, 1.0, 0.5]])
        assert predict(logits)[0] == 0


class TestLoss:
    def test_uniform_logits(self):
        out = loss(T.Tensor(np.zeros((4, 5))), np.zeros(4, dtype=int))
        assert abs(out.item() - np.log(5)) < 1e-6

    def test_confident_correct(self):
        logits = np.full((3, 4), 0.0, dtype=np.float32)
        labels = np.array([0, 1, 2])
        logits[np.arange(3), labels] = 20.0
        assert loss(T.Tensor(logits), labels).item() < 1e-3

    def test_hand_computed_cross_entropy(self):
        x = np.random.default_rng(16).normal(size=(3, 3))
        labels = np.array([1, 0, 2])
        got = loss(T.Tensor(x, dtype=np.float64), labels).item()
        p = oracles.softmax_formula(x, axis=1)
        want = -np.mean([np.log(p[i, labels[i]]) for i in range(3)])
        assert abs(got - want) < 1e-7

    def test_multilabel_mode(self):
        x = np.random.default_rng(17).normal(size=(2, 3))
        y = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.float64)
        got = loss(T.Tensor(x, dtype=np.float64), y, multilabel=True).item()
        p = 1 / (1 + np.exp(-x))
        want = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
        assert abs(got - want) < 1e-7

    def test_multilabel_prediction_threshold(self):
        logits = np.array([[0.2, -0.1, 0.0]])
        assert np.array_equal(predict(logits, multilabel=True), [[1, 0, 0]])


class TestF1Metrics:
    def test_all_correct(self):
        m = f1_metrics(np.array([0, 1, 2]), np.array([0, 1, 2]), 3)
        assert m.micro_f1 == m.macro_f1 == m.accuracy == 1.0

    def test_binary_confusion_case(self):
        preds = np.array([1, 1, 0, 0])
        labels = np.array([1, 0, 1, 0])  # TP=1 FP=1 FN=1 TN=1 on class 1
        m = f1_metrics(preds, labels, 2)
        assert abs(m.micro_f1 - 0.5) < 1e-12

    def test_never_predicted_class_drags_macro_below_micro(self):
        preds = np.array([0, 0, 1, 1, 0, 1])
        labels = np.array([0, 2, 1, 2, 0, 1])
        m = f1_metrics(preds, labels, 3)
        assert m.macro_f1 < m.micro_f1
        micro, macro = oracles.multiclass_f1(preds, labels, 3)
        assert abs(m.micro_f1 - micro) < 1e-12
        assert abs(m.macro_f1 - macro) < 1e-12

    def test_absent_class_counts_zero_in_macro(self):
        preds = np.array([0, 0])
        labels = np.array([0, 0])
        m = f1_metrics(preds, labels, 4)
        assert abs(m.macro_f1 - 0.25) < 1e-12

    def test_multilabel_metrics(self):
        preds = np.array([[1, 0], [1, 1], [0, 0]])
        labels = np.array([[1, 0], [0, 1], [0, 0]])
        m = f1_metrics(preds, labels, 2, multilabel=True)
        # class 0: TP=1 FP=1 FN=0; class 1: TP=1 FP=0 FN=0
        assert abs(m.micro_f1 - (2 * 2 / (2 * 2 + 1 + 0))) < 1e-12
        assert abs(m.accuracy - 2 / 3) < 1e-12

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            f1_metrics(np.array([]), np.array([]), 2)


class TestMetaPathReport:
    def make_fusion(self, weights):
        from slotgnn.fusion import FusionOutput

        attn = np.stack([np.asarray(w, dtype=np.float32) for w in weights], axis=1)
        return FusionOutput(fused=T.Tensor(np.zeros((attn.shape[0], 2))), attn=attn)

    def test_slot_rendering(self):
        schema = target_schema()
        paths = slot_paths(schema, 2)
        assert paths[0] == "t"
        assert paths[1] == "a-ra->(t)"
        assert paths[2] == "b-rb->(t)"
        # layer-2 message over ra whose parent is the layer-1 rb message
        assert paths[5] == "a-ra->(b-rb->(t))"

    def test_single_slot_report(self):
        schema = target_schema()
        fus = self.make_fusion([np.ones((3, 1))])
        report = metapath_report(fus, slot_paths(schema, 0), "t", k=5)
        assert report.per_type["t"] == [("t", 1.0)]

    def test_group_mass_partition(self):
        schema = target_schema()
        paths = slot_paths(schema, 2)
        rng = np.random.default_rng(18)
        raw = rng.random((4, 9))
        raw /= raw.sum(axis=1, keepdims=True)
        fus = self.make_fusion([raw])
        report = metapath_report(fus, paths, "t", k=9, include_per_node=True)
        assert len(report.per_node[0]) == len(set(paths)) < 9
        for rows in report.per_node.values():
            assert abs(sum(w for _, w in rows) - 1.0) < 1e-6
        assert abs(sum(w for _, w in report.per_type["t"]) - 1.0) < 1e-6

    def test_grouping_merges_same_path_across_layers(self):
        schema = target_schema()
        paths = slot_paths(schema, 2)
        # slots 1 (layer 1) and 3 (layer 2, over the base slot) are both a-ra->(t)
        assert paths[1] == paths[3]
        w = np.zeros((1, 9), dtype=np.float32)
        w[0, 1] = 0.25
        w[0, 3] = 0.25
        w[0, 0] = 0.5
        report = metapath_report(self.make_fusion([w]), paths, "t", k=2)
        assert report.per_type["t"][0] in [("t", 0.5), ("a-ra->(t)", 0.5)]
        paths = {p for p, _ in report.per_type["t"]}
        assert paths == {"t", "a-ra->(t)"}

    def test_descending_sort_with_lexicographic_ties(self):
        schema = target_schema()
        paths = slot_paths(schema, 1)
        w = np.array([[0.2, 0.4, 0.4]], dtype=np.float32)
        report = metapath_report(self.make_fusion([w]), paths, "t", k=3)
        assert [p for p, _ in report.per_type["t"]] == ["a-ra->(t)", "b-rb->(t)", "t"]

    def test_top_k_cut_and_default(self):
        schema = target_schema()
        paths = slot_paths(schema, 2)
        rng = np.random.default_rng(19)
        raw = rng.random((2, 9)).astype(np.float32)
        raw /= raw.sum(axis=1, keepdims=True)
        report = metapath_report(self.make_fusion([raw]), paths, "t")  # default k=5
        assert len(report.per_type["t"]) == 5

    def test_per_node_rows(self):
        schema = target_schema()
        paths = slot_paths(schema, 1)
        raw = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=np.float32)
        report = metapath_report(self.make_fusion([raw]), paths, "t", k=1, include_per_node=True)
        assert report.per_node[0][0][0] == "t"
        assert report.per_node[1][0][0] == "a-ra->(t)"

    def test_k_below_one_rejected(self):
        schema = target_schema()
        paths = slot_paths(schema, 0)
        with pytest.raises(ValueError):
            metapath_report(self.make_fusion([np.ones((1, 1))]), paths, "t", k=0)

    def test_json_shape(self):
        schema = target_schema()
        paths = slot_paths(schema, 1)
        raw = np.full((2, 3), 1 / 3, dtype=np.float32)
        report = metapath_report(self.make_fusion([raw]), paths, "t", k=2)
        obj = report.to_json()
        assert set(obj["per_type"]) == {"t"}
        assert {"path", "weight"} <= set(obj["per_type"]["t"][0])
