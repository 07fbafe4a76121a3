import numpy as np
import pytest

from slotgnn import tensor as T
from slotgnn.graph import NodeType, Relation, Schema
from slotgnn.seq import (
    BaseSlot,
    InputProjection,
    MsgSlot,
    project_features,
    slot_dropout,
    slot_labels,
)
from slotgnn.fixtures import gradcheck_graph

from .randgraphs import random_schema


def two_relation_schema():
    return Schema(
        node_types=[NodeType("a", 1, 2), NodeType("b", 1, 2), NodeType("t", 1, 2)],
        relations=[Relation("a", "ra", "t"), Relation("b", "rb", "t")],
        target_type="t",
        num_classes=2,
    )


class TestProjectFeatures:
    def test_identity_projection(self):
        g = gradcheck_graph()
        proj = InputProjection.create(g.schema, 3, np.random.default_rng(0))
        w, b = proj.weights[("alpha", 0)]
        w.data = np.eye(3, dtype=w.data.dtype)
        b.data = np.zeros(3, dtype=b.data.dtype)
        g.features["alpha"][0, 0] = [1.0, 0.0, 0.0]
        state = project_features(g, proj)
        assert np.allclose(state["alpha"].data[0, 0], [1.0, 0.0, 0.0])

    def test_hand_computed_affine_map(self):
        g = gradcheck_graph()
        proj = InputProjection.create(g.schema, 2, np.random.default_rng(0))
        w, b = proj.weights[("beta", 0)]
        # the map is v -> M v for M = [[1,2],[3,4]]; weights store M transposed
        w.data = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=w.data.dtype).T
        b.data = np.array([0.5, 0.5], dtype=b.data.dtype)
        g.features["beta"][1, 0] = [1.0, 1.0]
        state = project_features(g, proj)
        assert np.allclose(state["beta"].data[1, 0], [3.5, 7.5])

    def test_single_feature_gives_length_one_sequence(self):
        g = gradcheck_graph()
        proj = InputProjection.create(g.schema, 4, np.random.default_rng(1))
        state = project_features(g, proj)
        for name in g.counts:
            assert state[name].shape[1] == 1

    def test_featureless_type_gets_shared_embedding_slot(self):
        schema = Schema(
            node_types=[NodeType("x", 0, 0), NodeType("y", 1, 2)],
            relations=[Relation("x", "r", "y"), Relation("y", "s", "x")],
            target_type="y",
            num_classes=2,
        )
        from slotgnn.graph import HeteroGraph

        g = HeteroGraph(
            schema,
            counts={"x": 3, "y": 2},
            features={"x": np.zeros((3, 0, 0), np.float32), "y": np.ones((2, 1, 2), np.float32)},
            edges={r: np.zeros((0, 2), dtype=np.int64) for r in schema.relations},
            labels=np.zeros(2, dtype=np.int64),
            labeled_mask=np.ones(2, dtype=bool),
            splits={},
        )
        proj = InputProjection.create(schema, 4, np.random.default_rng(2))
        state = project_features(g, proj)
        assert state["x"].shape == (3, 1, 4)
        # all nodes of the type share the one embedding
        assert np.allclose(state["x"].data[0], state["x"].data[2])

    def test_slots_are_made_in_their_final_shape(self):
        # one tape node per slot (its affine map, or ones times the
        # embedding) and a concat for a type with several features: no node
        # only reshapes
        from slotgnn.graph import HeteroGraph

        schema = Schema(
            node_types=[NodeType("x", 0, 0), NodeType("y", 3, 2), NodeType("z", 1, 4)],
            relations=[Relation("x", "r", "y"), Relation("z", "s", "y")],
            target_type="y",
            num_classes=2,
        )
        rng = np.random.default_rng(3)
        features = {
            "x": np.zeros((4, 0, 0), np.float32),
            "y": rng.normal(size=(5, 3, 2)).astype(np.float32),
            "z": rng.normal(size=(3, 1, 4)).astype(np.float32),
        }
        g = HeteroGraph(
            schema, {"x": 4, "y": 5, "z": 3}, features,
            {r: np.zeros((0, 2), dtype=np.int64) for r in schema.relations},
            labels=np.zeros(5, dtype=np.int64), labeled_mask=np.ones(5, dtype=bool), splits={},
        )
        proj = InputProjection.create(schema, 4, rng, dtype=np.float64)
        rows = {"x": np.array([0, 3]), "y": np.array([1, 2, 4]), "z": np.array([2])}
        with T.Tape() as tape:
            state = project_features(g, proj, rows)
        assert len(tape.nodes) == 1 + (3 + 1) + 1
        shapes = {n: t.shape for n, t in state.items()}
        assert shapes == {"x": (2, 1, 4), "y": (3, 3, 4), "z": (1, 1, 4)}
        emb = proj.embeddings["x"].data
        assert state["x"].data.tobytes() == np.concatenate([emb, emb])[:, None].tobytes()
        for name, f in (("y", 0), ("y", 1), ("y", 2), ("z", 0)):
            w, b = proj.weights[(name, f)]
            want = features[name][rows[name], f].astype(np.float64) @ w.data + b.data
            assert state[name].data[:, f].tobytes() == want.tobytes()


class TestSlotLabels:
    def test_fig_one_growth_one_to_three_to_nine(self):
        tables = slot_labels(two_relation_schema(), 2)["t"]
        assert [len(t) for t in tables] == [1, 3, 9]

    def test_no_incoming_relations_stays_constant(self):
        tables = slot_labels(two_relation_schema(), 3)["a"]
        assert [len(t) for t in tables] == [1, 1, 1, 1]

    def test_prefix_extension(self):
        tables = slot_labels(two_relation_schema(), 3)["t"]
        for layer in range(1, 4):
            assert tables[layer][: len(tables[layer - 1])] == tables[layer - 1]

    def test_block_structure_in_schema_order(self):
        schema = two_relation_schema()
        tables = slot_labels(schema, 2)["t"]
        ra, rb = schema.relations
        assert tables[1] == [BaseSlot(0), MsgSlot(ra, 0, 1), MsgSlot(rb, 0, 1)]
        # layer 2 appends one block of three per relation, in order
        assert tables[2][3:6] == [MsgSlot(ra, j, 2) for j in range(3)]
        assert tables[2][6:9] == [MsgSlot(rb, j, 2) for j in range(3)]

    def test_growth_law_over_random_schemas(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            schema = random_schema(rng)
            layers = int(rng.integers(0, 4))
            tables = slot_labels(schema, layers)
            for nt in schema.node_types:
                growth = len(schema.relations_into(nt.name)) + 1
                want = schema.base_slots(nt.name)
                for layer in range(layers + 1):
                    assert len(tables[nt.name][layer]) == want
                    want *= growth

    def test_label_table_bijection(self):
        tables = slot_labels(two_relation_schema(), 3)["t"]
        for table in tables:
            for idx, label in enumerate(table):
                assert table.index(label) == idx


class TestSlotDropout:
    def make_state(self, n=100, f=10, d=4, seed=0):
        g = np.random.default_rng(seed)
        return {"t": T.Tensor(g.normal(size=(n, f, d)))}

    def test_p_zero_is_identity(self):
        state = self.make_state()
        out = slot_dropout(state, 0.0, seed=1)
        assert out["t"] is state["t"]

    def test_p_at_least_one_rejected(self):
        with pytest.raises(ValueError):
            slot_dropout(self.make_state(), 1.0, seed=1)

    def test_drop_fraction_and_survivor_scaling(self):
        state = self.make_state(n=1000, f=10)
        out = slot_dropout(state, 0.5, seed=3)
        data = out["t"].data
        dropped = np.all(data == 0, axis=2)
        frac = dropped.mean()
        assert abs(frac - 0.5) < 0.02
        survivors = ~dropped
        assert np.allclose(data[survivors], 2.0 * state["t"].data[survivors], rtol=1e-6)

    def test_expectation_preserved(self):
        state = self.make_state(n=20, f=4)
        x = state["t"].data
        p = 0.3
        draws = np.stack(
            [slot_dropout(state, p, seed=s)["t"].data for s in range(600)]
        )
        mean = draws.mean(axis=0)
        # per-element Monte Carlo noise: sd of the scaled Bernoulli estimate
        sigma = np.abs(x) * np.sqrt(p / (1 - p) / draws.shape[0])
        assert np.all(np.abs(mean - x) <= 3 * sigma + 1e-7)

    def test_mask_addressed_by_original_ids(self):
        # a node must keep its mask when seen through an induced subgraph
        from slotgnn.graph import sample_subgraph, synthetic_generate, SyntheticSpec

        g = synthetic_generate(SyntheticSpec(num_targets=30, num_mid=12, num_attr=6, num_junk=6), 0)
        sub = sample_subgraph(g, g.splits["train"][:5], depth=3, budget=10 ** 6, seed=0).graph
        f, d = 3, 2
        full_state = {n: T.Tensor(np.ones((g.counts[n], f, d))) for n in g.counts}
        sub_state = {n: T.Tensor(np.ones((sub.counts[n], f, d))) for n in sub.counts}
        full_out = slot_dropout(full_state, 0.4, seed=9, graph=g)
        sub_out = slot_dropout(sub_state, 0.4, seed=9, graph=sub)
        for name in g.counts:
            rows = sub.orig_ids[name]
            assert np.array_equal(sub_out[name].data, full_out[name].data[rows])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_per_slot_scale_equals_the_materialized_mask_product(self, dtype):
        # the (n, F, 1) scale gives the bytes of a product with the whole
        # (n, F, d) mask, forward and backward
        from slotgnn.graph import sample_subgraph, synthetic_generate, SyntheticSpec

        g = synthetic_generate(SyntheticSpec(num_targets=30, num_mid=12, num_attr=6, num_junk=6), 0)
        sub = sample_subgraph(g, g.splits["train"][:5], depth=2, budget=4, seed=1).graph
        p, seed, draw = 0.3, (5, 1), np.random.default_rng(2)
        state = {
            n: T.Tensor(draw.normal(size=(sub.counts[n], 3, 4)), requires_grad=True, dtype=dtype)
            for n in sub.counts
        }
        ups = {n: T.Tensor(draw.normal(size=t.shape), dtype=dtype) for n, t in state.items()}
        with T.Tape() as tape:
            out = slot_dropout(state, p, seed=seed, graph=sub)
            grads = tape.backward(T.reduce_sum(T.concat([T.mul(out[n], ups[n]) for n in state], 0)))
        for ti, (name, tens) in enumerate(state.items()):
            ids = sub.orig_ids[name]
            rng = np.random.default_rng(np.random.SeedSequence([seed, ti]))
            keep = rng.random((ids.max(initial=-1) + 1, 3))[ids] >= p
            mask = np.broadcast_to((keep / (1.0 - p))[:, :, None], tens.shape)
            mask = T.Tensor(np.ascontiguousarray(mask), dtype=dtype)
            assert out[name].dtype == dtype
            assert out[name].data.tobytes() == T.mul(tens, mask).data.tobytes()
            assert grads[tens].tobytes() == (ups[name].data * mask.data).tobytes()

    def test_mask_stream_is_pinned(self):
        # type ti's kept slots are the draw default_rng([seed, ti]).random((n, f)) >= p
        # over the root graph's n nodes, read at each node's original id
        from slotgnn.graph import sample_subgraph, synthetic_generate, SyntheticSpec

        g = synthetic_generate(SyntheticSpec(num_targets=30, num_mid=12, num_attr=6, num_junk=6), 0)
        sub = sample_subgraph(g, g.splits["train"][:5], depth=2, budget=4, seed=1).graph
        assert any(sub.orig_ids[n].max() + 1 < g.counts[n] for n in g.counts)
        f, p, seed = 3, 0.4, 9
        for graph in (g, sub):
            state = {n: T.Tensor(np.ones((graph.counts[n], f, 2))) for n in graph.counts}
            out = slot_dropout(state, p, seed=seed, graph=graph)
            for ti, name in enumerate(state):
                rng = np.random.default_rng(np.random.SeedSequence([seed, ti]))
                root = rng.random((g.counts[name], f)) >= p
                kept = np.all(out[name].data != 0, axis=2)
                assert np.array_equal(kept, root[graph.orig_ids[name]])
        # without a graph the rows are the nodes themselves
        state = {"t": T.Tensor(np.ones((7, f, 2)))}
        kept = np.all(slot_dropout(state, p, seed=seed)["t"].data != 0, axis=2)
        want = np.random.default_rng(np.random.SeedSequence([seed, 0])).random((7, f)) >= p
        assert np.array_equal(kept, want)
