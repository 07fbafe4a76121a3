import math

import numpy as np
import pytest

from slotgnn import tensor as T
from slotgnn.graph import HeteroGraph, NodeType, Relation, Schema
from slotgnn.layer import (
    LayerParams,
    aggregate_messages,
    encode_relations,
    extract_messages,
    layer_forward,
    project_qkv,
    relation_attention,
    update_sequences,
)
from slotgnn.seq import InputProjection, project_features

from . import oracles
from .randgraphs import random_graph


def fig_one_graph(n_target=2, n_a=3, n_b=2, seed=0):
    """One target type fed by two relations; layer-0 slot count is 1."""
    schema = Schema(
        node_types=[NodeType("a", 1, 2), NodeType("b", 1, 2), NodeType("t", 1, 2)],
        relations=[Relation("a", "ra", "t"), Relation("b", "rb", "t")],
        target_type="t",
        num_classes=2,
    )
    rng = np.random.default_rng(seed)
    counts = {"a": n_a, "b": n_b, "t": n_target}
    features = {
        name: rng.normal(size=(n, 1, 2)).astype(np.float32) for name, n in counts.items()
    }
    edges = {
        Relation("a", "ra", "t"): np.array(
            [(i % n_a, i % n_target) for i in range(max(n_a, n_target))], dtype=np.int64
        ),
        Relation("b", "rb", "t"): np.array(
            [(i % n_b, i % n_target) for i in range(max(n_b, n_target))], dtype=np.int64
        ),
    }
    g = HeteroGraph(
        schema, counts, features, edges,
        labels=rng.integers(0, 2, size=n_target),
        labeled_mask=np.ones(n_target, dtype=bool),
        splits={},
    )
    return g


def init_state(graph, dim, seed=0):
    proj = InputProjection.create(graph.schema, dim, np.random.default_rng(seed))
    return project_features(graph, proj)


def make_params(graph, dim, heads, seed=1, index=1):
    return LayerParams.create(graph.schema, dim, heads, np.random.default_rng(seed), index)


class TestProjectQKV:
    def test_identity_weights_pass_slots_through(self):
        g = fig_one_graph()
        state = init_state(g, 4)
        params = make_params(g, 4, 2)
        for name in g.counts:
            w, b = params.query[name]
            w.data = np.eye(4, dtype=w.data.dtype)
            b.data = np.zeros(4, dtype=b.data.dtype)
        queries, _, _ = project_qkv(state, params)
        for name in g.counts:
            assert np.allclose(queries[name].data, state[name].data, atol=1e-6)

    def test_zero_input_gives_bias(self):
        g = fig_one_graph()
        state = init_state(g, 4)
        zero_state = {n: T.Tensor(np.zeros_like(t.data)) for n, t in state.items()}
        params = make_params(g, 4, 2)
        w, b = params.value["t"]
        b.data = np.arange(4, dtype=b.data.dtype)
        _, _, values = project_qkv(zero_state, params)
        assert np.allclose(values["t"].data, np.broadcast_to(b.data, values["t"].shape))

    def test_head_views_tile_the_full_projection(self):
        g = fig_one_graph(seed=3)
        state = init_state(g, 4, seed=3)
        params = make_params(g, 4, 2, seed=4)
        queries, _, _ = project_qkv(state, params)
        q = queries["t"]
        halves = [q.data[:, :, 0:2], q.data[:, :, 2:4]]
        assert np.array_equal(np.concatenate(halves, axis=2), q.data)


class TestRelationAttention:
    def test_single_source_single_slot_weight_one(self):
        g = fig_one_graph(n_target=1, n_a=1, n_b=1)
        rel = g.schema.relations[0]
        g.edges[rel] = np.array([[0, 0]], dtype=np.int64)
        state = init_state(g, 4)
        params = make_params(g, 4, 1)
        q, k, _ = project_qkv(state, params)
        attn = relation_attention(k["a"], q["t"], params.att[rel], g.bipartite(rel))
        assert np.allclose(attn.data[:, 0], 1.0)

    def test_identical_keys_split_evenly(self):
        g = fig_one_graph(n_target=1, n_a=2, n_b=1)
        rel = g.schema.relations[0]
        g.edges[rel] = np.array([[0, 0], [1, 0]], dtype=np.int64)
        g.features["a"][1] = g.features["a"][0]
        state = init_state(g, 4)
        params = make_params(g, 4, 1)
        q, k, _ = project_qkv(state, params)
        attn = relation_attention(k["a"], q["t"], params.att[rel], g.bipartite(rel))
        assert np.allclose(attn.data[:, 0], 0.5, atol=1e-6)

    def test_matches_dense_evaluation(self):
        g = fig_one_graph(n_target=1, n_a=2, n_b=1, seed=9)
        rel = g.schema.relations[0]
        g.edges[rel] = np.array([[0, 0], [1, 0]], dtype=np.int64)
        state = init_state(g, 2, seed=9)
        params = make_params(g, 2, 1, seed=10)
        q, k, _ = project_qkv(state, params)
        view = g.bipartite(rel)
        attn = relation_attention(k["a"], q["t"], params.att[rel], view)
        # direct per-edge evaluation: softmax over sources of K W Q^T / sqrt(d)
        w = params.att[rel].data[0]
        logits = np.array(
            [float(k["a"].data[s, 0] @ w @ q["t"].data[0, 0]) for s in view.src]
        ) / math.sqrt(2)
        want = np.exp(logits - logits.max())
        want /= want.sum()
        assert np.allclose(attn.data[:, 0][:, 0, 0], want, atol=1e-6)

    def test_records_one_tape_node(self):
        g = fig_one_graph(seed=2)
        rel = g.schema.relations[0]
        params = make_params(g, 4, 2, seed=3)
        q, k, _ = project_qkv(init_state(g, 4, seed=2), params)
        with T.Tape() as tape:
            relation_attention(k["a"], q["t"], params.att[rel], g.bipartite(rel))
        assert len(tape.nodes) == 1

    @pytest.mark.parametrize("scale_outside", [False, True])
    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_shifting_every_key_changes_nothing(self, mode, scale_outside):
        # a vector added to every key adds b W q_t to every logit of a softmax
        # group, so it cancels; this is why keys carry no bias
        g = fig_one_graph(n_target=2, n_a=3)  # target 0 has two edges, target 1 one
        rel = g.schema.relations[0]
        params = make_params(g, 4, 2, seed=61)
        rng = np.random.default_rng(62)
        keys, queries = (T.Tensor(rng.normal(size=shape)) for shape in ((3, 3, 4), (2, 2, 4)))
        shifted = T.Tensor(keys.data + rng.normal(size=4).astype(np.float32))
        got, want = (
            relation_attention(k, queries, params.att[rel], g.bipartite(rel), mode, scale_outside)
            for k in (shifted, keys)
        )
        np.testing.assert_allclose(got.data, want.data, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_empty_neighborhood_yields_empty_block(self, mode):
        g = fig_one_graph()
        rel = g.schema.relations[0]
        g.edges[rel] = np.zeros((0, 2), dtype=np.int64)
        state = init_state(g, 4)
        params = make_params(g, 4, 2)
        q, k, _ = project_qkv(state, params)
        attn = relation_attention(k["a"], q["t"], params.att[rel], g.bipartite(rel), mode=mode)
        assert attn.data[:, 0].shape[0] == 0


class TestExtractAggregate:
    def test_identity_transforms_return_state(self):
        g = fig_one_graph()
        rel = g.schema.relations[0]
        state = init_state(g, 4)
        params = make_params(g, 4, 2)
        w, b = params.value["a"]
        w.data = np.eye(4, dtype=w.data.dtype)
        b.data = np.zeros(4, dtype=b.data.dtype)
        params.ext[rel].data = np.eye(4, dtype=w.data.dtype)
        _, _, values = project_qkv(state, params)
        ext = extract_messages(values["a"], params, rel)
        assert np.allclose(ext.data, state["a"].data, atol=1e-6)

    def test_zero_input_zero_bias_gives_zero(self):
        g = fig_one_graph()
        rel = g.schema.relations[0]
        params = make_params(g, 4, 2)
        zero = T.Tensor(np.zeros((3, 1, 4)))
        w, b = params.value["a"]
        values = T.add(T.affine(zero, w), b)  # bias is zero-initialized
        ext = extract_messages(values, params, rel)
        assert np.allclose(ext.data, 0.0)

    def test_two_stage_composition(self):
        g = fig_one_graph(seed=5)
        rel = g.schema.relations[0]
        params = make_params(g, 2, 1, seed=6)
        h = np.random.default_rng(7).normal(size=(1, 2, 2)).astype(np.float32)
        w, b = params.value["a"]
        values = T.add(T.affine(T.Tensor(h), w), b)
        ext = extract_messages(values, params, rel)
        for j in range(2):
            want = (h[0, j] @ w.data + b.data) @ params.ext[rel].data
            assert np.allclose(ext.data[0, j], want, atol=1e-6)

    def test_empty_neighborhood_gets_zero_block(self):
        g = fig_one_graph()
        rel = g.schema.relations[0]
        g.edges[rel] = np.zeros((0, 2), dtype=np.int64)
        state = init_state(g, 4)
        params = make_params(g, 4, 2)
        q, k, values = project_qkv(state, params)
        view = g.bipartite(rel)
        attn = relation_attention(k["a"], q["t"], params.att[rel], view)
        msg = aggregate_messages(attn, extract_messages(values["a"], params, rel), view)
        assert msg.shape == (g.counts["t"], 1, 4)
        assert np.all(msg.data == 0)

    def test_uniform_weights_average_source_slots(self):
        # one source with several slots and zero attention logits: every
        # target slot becomes the mean of the source's extracted slots
        g = fig_one_graph(n_target=1, n_a=1, n_b=1, seed=8)
        rel = g.schema.relations[0]
        g.edges[rel] = np.array([[0, 0]], dtype=np.int64)
        params = make_params(g, 4, 1, seed=8)
        for w_att in params.att.values():
            w_att.data = np.zeros_like(w_att.data)
        src_state = T.Tensor(np.random.default_rng(9).normal(size=(1, 3, 4)).astype(np.float32))
        dst_state = T.Tensor(np.random.default_rng(10).normal(size=(1, 2, 4)).astype(np.float32))
        state = {"a": src_state, "b": T.Tensor(np.zeros((1, 1, 4))), "t": dst_state}
        q, k, values = project_qkv(state, params)
        view = g.bipartite(rel)
        attn = relation_attention(k["a"], q["t"], params.att[rel], view)
        ext = extract_messages(values["a"], params, rel)
        msg = aggregate_messages(attn, ext, view)
        want = ext.data[0].mean(axis=0)
        for j in range(2):
            assert np.allclose(msg.data[0, j], want, atol=1e-6)

    def test_matches_per_edge_loop(self):
        g = fig_one_graph(n_target=2, n_a=3, n_b=1, seed=11)
        rel = g.schema.relations[0]
        g.edges[rel] = np.array([[0, 0], [1, 0], [2, 1]], dtype=np.int64)
        state = init_state(g, 4, seed=11)
        params = make_params(g, 4, 2, seed=12)
        q, k, values = project_qkv(state, params)
        view = g.bipartite(rel)
        attn = relation_attention(k["a"], q["t"], params.att[rel], view)
        ext = extract_messages(values["a"], params, rel)
        msg = aggregate_messages(attn, ext, view)
        want = np.zeros((2, 1, 4))
        for m in range(2):
            lo, hi = 2 * m, 2 * m + 2
            for e, (s, t) in enumerate(zip(view.src, view.dst.ids)):
                want[t, :, lo:hi] += attn.data[:, m][e].T @ ext.data[s, :, lo:hi]
        assert np.allclose(msg.data, want, atol=1e-6)


class TestEncodeUpdate:
    def setup_blocks(self, dim=4):
        g = fig_one_graph(seed=13)
        params = make_params(g, dim, 2, seed=14)
        rng = np.random.default_rng(15)
        msgs = {
            rel: T.Tensor(rng.normal(size=(2, 1, dim)).astype(np.float32))
            for rel in g.schema.relations
        }
        return g, params, msgs

    def test_zero_encodings_give_plain_concatenation(self):
        g, params, msgs = self.setup_blocks()
        out = encode_relations(msgs, params, g.schema, "t")
        want = np.concatenate([msgs[r].data for r in g.schema.relations], axis=1)
        assert np.array_equal(out.data, want)

    def test_identical_messages_differ_by_encoding_difference(self):
        g, params, msgs = self.setup_blocks()
        ra, rb = g.schema.relations
        msgs[rb] = T.Tensor(msgs[ra].data.copy())
        params.enc[ra].data = np.arange(4, dtype=np.float32)
        params.enc[rb].data = -np.arange(4, dtype=np.float32)
        out = encode_relations(msgs, params, g.schema, "t")
        diff = out.data[:, 0, :] - out.data[:, 1, :]
        assert np.allclose(diff, params.enc[ra].data - params.enc[rb].data, atol=1e-6)

    def test_slot_index_arithmetic(self):
        g, params, msgs = self.setup_blocks()
        params.enc[g.schema.relations[0]].data = np.random.default_rng(16).normal(size=4).astype(np.float32)
        out = encode_relations(msgs, params, g.schema, "t")
        for bi, rel in enumerate(g.schema.relations):
            assert np.allclose(
                out.data[:, bi, :], msgs[rel].data[:, 0, :] + params.enc[rel].data, atol=1e-6
            )

    def test_missing_relation_block_raises(self):
        g, params, msgs = self.setup_blocks()
        del msgs[g.schema.relations[0]]
        with pytest.raises(KeyError):
            encode_relations(msgs, params, g.schema, "t")

    def test_update_prefix_is_bit_exact(self):
        g, params, _ = self.setup_blocks()
        rng = np.random.default_rng(17)
        prev = T.Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32))
        encoded = T.Tensor(rng.normal(size=(2, 6, 4)).astype(np.float32))
        out = update_sequences(prev, encoded, params.adopt["t"])
        assert out.shape == (2, 9, 4)
        assert np.array_equal(out.data[:, :3, :], prev.data)


class TestLayerForward:
    def test_growth_one_three_nine(self):
        g = fig_one_graph(seed=18)
        state = init_state(g, 4, seed=18)
        p1 = make_params(g, 4, 2, seed=19, index=1)
        p2 = make_params(g, 4, 2, seed=20, index=2)
        s1 = layer_forward(state, g, p1, layer_index=1)
        assert s1["t"].shape[1] == 3
        s2 = layer_forward(s1, g, p2, layer_index=2)
        assert s2["t"].shape[1] == 9
        # source types have no incoming relations and keep their sequences
        assert s2["a"].shape[1] == 1

    def test_type_without_incoming_relations_unchanged(self):
        g = fig_one_graph(seed=21)
        state = init_state(g, 4, seed=21)
        out = layer_forward(state, g, make_params(g, 4, 2, seed=22), layer_index=1)
        assert out["a"] is state["a"]

    def test_prefix_preservation(self):
        g = fig_one_graph(seed=23)
        state = init_state(g, 4, seed=23)
        out = layer_forward(state, g, make_params(g, 4, 2, seed=24), layer_index=1)
        assert np.array_equal(out["t"].data[:, :1, :], state["t"].data)

    def test_permutation_equivariance(self):
        g = fig_one_graph(n_target=3, n_a=4, n_b=2, seed=25)
        params = make_params(g, 4, 2, seed=26)
        proj = InputProjection.create(g.schema, 4, np.random.default_rng(27))
        perm = {"a": np.array([2, 0, 3, 1]), "b": np.array([1, 0]), "t": np.array([2, 1, 0])}
        g2 = HeteroGraph(
            g.schema,
            dict(g.counts),
            {n: g.features[n][np.argsort(perm[n])] for n in g.counts},
            {
                rel: np.stack(
                    [perm[rel.src][g.edges[rel][:, 0]], perm[rel.dst][g.edges[rel][:, 1]]], axis=1
                )
                for rel in g.schema.relations
            },
            labels=g.labels[np.argsort(perm["t"])],
            labeled_mask=np.ones(3, dtype=bool),
            splits={},
        )
        out1 = layer_forward(project_features(g, proj), g, params, layer_index=1)
        out2 = layer_forward(project_features(g2, proj), g2, params, layer_index=1)
        for name in g.counts:
            assert np.allclose(
                out2[name].data[perm[name]], out1[name].data, atol=1e-5
            )

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, max_nodes=4, max_edges=6)
        state = init_state(g, 4, seed=seed)
        params = make_params(g, 4, 2, seed=seed + 1)
        out = layer_forward(state, g, params, layer_index=1)
        want = oracles.dense_layer_reference(
            g, {n: t.data for n, t in state.items()}, params
        )
        for name in g.counts:
            assert np.allclose(out[name].data, want[name], rtol=1e-5, atol=1e-6)

    def test_no_seq_layer_matches_dense_reference(self):
        # two relations into t: their blocks are averaged into its one slot
        g = fig_one_graph(n_target=3, n_a=4, n_b=2, seed=50)
        state = init_state(g, 4, seed=50)
        params = make_params(g, 4, 2, seed=51)
        out = layer_forward(state, g, params, layer_index=1, sequence_update=False)
        want = oracles.dense_layer_reference(
            g, {n: t.data for n, t in state.items()}, params, sequence_update=False
        )
        for name in g.counts:
            assert out[name].shape == want[name].shape
            assert np.allclose(out[name].data, want[name], rtol=1e-5, atol=1e-6)

    def test_no_seq_layer_rejects_a_state_of_several_slots(self):
        g = fig_one_graph(seed=52)
        state = init_state(g, 4, seed=52)
        state["t"] = T.concat([state["t"], state["t"]], axis=1)
        with pytest.raises(T.ShapeError, match="'t' has 2 slots"):
            layer_forward(
                state, g, make_params(g, 4, 2, seed=53), layer_index=1, sequence_update=False
            )

    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_dense_reference_other_modes(self, mode):
        rng = np.random.default_rng(77)
        g = random_graph(rng, max_nodes=4, max_edges=5)
        state = init_state(g, 4, seed=78)
        params = make_params(g, 4, 2, seed=79)
        out = layer_forward(state, g, params, layer_index=1, attention_norm=mode, scale_outside=True)
        want = oracles.dense_layer_reference(
            g, {n: t.data for n, t in state.items()}, params,
            mode=mode, scale_outside=True,
        )
        for name in g.counts:
            assert np.allclose(out[name].data, want[name], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("mode", ["joint", "literal"])
    def test_many_source_slots_match_dense_reference(self, mode):
        # nine source slots into one target slot: numpy would sum the slot
        # axis pairwise here, the fused attention adds slot after slot
        schema = Schema(
            node_types=[NodeType("a", 9, 2), NodeType("t", 1, 2)],
            relations=[Relation("a", "ra", "t")],
            target_type="t",
            num_classes=2,
        )
        rng = np.random.default_rng(80)
        g = HeteroGraph(
            schema, {"a": 3, "t": 3},
            {"a": rng.normal(size=(3, 9, 2)).astype(np.float32),
             "t": rng.normal(size=(3, 1, 2)).astype(np.float32)},
            {schema.relations[0]: np.array([[2, 0], [0, 0], [1, 1], [2, 1]], dtype=np.int64)},
            labels=np.zeros(3, dtype=np.int64), labeled_mask=np.ones(3, dtype=bool), splits={},
        )
        state = init_state(g, 4, seed=81)
        params = make_params(g, 4, 2, seed=82)
        out = layer_forward(state, g, params, layer_index=1, attention_norm=mode)
        want = oracles.dense_layer_reference(
            g, {n: t.data for n, t in state.items()}, params, mode=mode
        )
        for name in g.counts:
            assert np.allclose(out[name].data, want[name], rtol=1e-5, atol=1e-6)

    def test_attention_mass_sums_per_mode(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            g = random_graph(rng, max_nodes=5, max_edges=8)
            state = init_state(g, 4, seed=seed)
            params = make_params(g, 4, 2, seed=seed)
            q, k, _ = project_qkv(state, params)
            for mode, axes in (("joint", (0, 1)), ("literal", (0,))):
                for rel in g.schema.relations:
                    view = g.bipartite(rel)
                    attn = relation_attention(k[rel.src], q[rel.dst], params.att[rel], view, mode=mode)
                    dst = view.dst.ids
                    for m in range(attn.shape[1]):
                        head = attn.data[:, m]
                        for t in np.unique(dst):
                            sums = head[dst == t].sum(axis=axes)
                            assert np.allclose(sums, 1.0, atol=1e-6)

    def test_message_locality(self):
        g = fig_one_graph(n_target=2, n_a=3, n_b=2, seed=40)
        rel = g.schema.relations[0]
        g.edges[rel] = np.array([[0, 0], [1, 1]], dtype=np.int64)  # source 2 feeds nobody
        params = make_params(g, 4, 2, seed=41)
        proj = InputProjection.create(g.schema, 4, np.random.default_rng(42))
        out1 = layer_forward(project_features(g, proj), g, params, layer_index=1)
        g.features["a"][2] += 5.0  # node outside N(t=0) under both relations
        out2 = layer_forward(project_features(g, proj), g, params, layer_index=1)
        assert np.array_equal(out1["t"].data[0], out2["t"].data[0])

    def test_neighbor_storage_order_does_not_matter(self):
        g = fig_one_graph(n_target=2, n_a=3, n_b=2, seed=43)
        params = make_params(g, 4, 2, seed=44)
        proj = InputProjection.create(g.schema, 4, np.random.default_rng(45))
        out1 = layer_forward(project_features(g, proj), g, params, layer_index=1)
        g2 = HeteroGraph(
            g.schema, dict(g.counts), g.features,
            {rel: pairs[::-1].copy() for rel, pairs in g.edges.items()},
            g.labels, g.labeled_mask, {},
        )
        out2 = layer_forward(project_features(g2, proj), g2, params, layer_index=1)
        for name in g.counts:
            assert np.array_equal(out1[name].data, out2[name].data)
