"""Per-layer blocks and the forward pass restricted to some target rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slotgnn import tensor as T
from slotgnn.config import from_profile
from slotgnn.graph import (
    HeteroGraph,
    NodeType,
    Relation,
    Schema,
    SyntheticSpec,
    sample_subgraph,
    synthetic_generate,
)
from slotgnn.training import head_loss, init_model

from . import oracles
from .randgraphs import random_graph


def small_graph(seed=0):
    return synthetic_generate(
        SyntheticSpec(num_targets=60, num_mid=30, num_attr=10, num_junk=12), seed=seed
    )


def view_pairs(block, rel):
    """The (source id, target id) pairs of one block's sub-view, in storage order."""
    view = block.views[rel]
    dst_ids = block.inputs[rel.dst][block.outputs[rel.dst].ids]
    return list(zip(block.inputs[rel.src][view.src].tolist(), dst_ids[view.dst.ids].tolist()))


class TestBlocks:
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("pick", ["valid", "chosen", "all"])
    def test_inputs_and_views_match_the_k_hop_reference(self, layers, pick):
        g = small_graph()
        rows = {
            "valid": g.splits["valid"],
            "chosen": np.array([0, 3, 17, 40]),
            "all": None,
        }[pick]
        plan = g.blocks(rows, layers)
        final = np.arange(g.counts["item"]) if rows is None else rows
        want = oracles.in_neighbourhoods(g, final, layers)
        assert len(plan.layers) == layers
        for block, reads in zip(plan.layers, want):
            assert {n: set(ids.tolist()) for n, ids in block.inputs.items()} == reads
            for ids in block.inputs.values():
                assert np.all(np.diff(ids) > 0)
        last = {n: final if n == "item" else np.zeros(0, dtype=np.int64) for n in g.counts}
        writes = [b.inputs for b in plan.layers[1:]] + [last]
        for block, out in zip(plan.layers, writes):
            for name in g.counts:
                assert np.array_equal(block.inputs[name][block.outputs[name].ids], out[name])
            for rel in g.schema.relations:
                every_src = set(range(g.counts[rel.src]))
                got = view_pairs(block, rel)
                # the graph's (target, source) order, so segment sums add as in a full pass
                assert got == sorted(got, key=lambda p: (p[1], p[0]))
                assert sorted(got) == oracles.induced_pairs(
                    g.edges[rel], every_src, set(out[rel.dst].tolist())
                )

    def test_last_block_has_no_edges_into_other_types(self):
        g = small_graph()
        last = g.blocks(g.splits["train"], 2).layers[-1]
        for rel in g.schema.relations:
            if rel.dst != g.schema.target_type:
                assert last.views[rel].src.size == 0
                assert last.views[rel].dst.num_segments == 0
        assert {n for n, ids in last.outputs.items() if ids.ids.size} == {"item"}

    def test_depth_three_nodes_of_a_sample_are_left_out(self):
        # a chain d -> c -> b -> t, so a depth-3 sample reaches d, which
        # cannot reach a target within 2 layers
        schema = Schema(
            [NodeType(name, 1, 2) for name in ("t", "b", "c", "d")],
            [Relation("b", "r1", "t"), Relation("c", "r2", "b"), Relation("d", "r3", "c")],
            target_type="t",
            num_classes=2,
        )
        g = random_graph(np.random.default_rng(0), schema, max_nodes=6, max_edges=12)
        sub = sample_subgraph(g, np.array([0, 1]), depth=3, budget=10 ** 6, seed=0)
        batch = sub.batch_local
        two_hops = oracles.in_neighbourhoods(sub.graph, batch, 2)[0]
        far = {n: set(range(c)) - two_hops[n] for n, c in sub.graph.counts.items()}
        assert far["d"]
        for block in sub.graph.blocks(batch, 2).layers:
            for name, ids in block.inputs.items():
                assert not far[name].intersection(ids.tolist())

    def test_built_at_the_first_forward_and_cached(self):
        g = small_graph()
        for rel in g.schema.relations:
            g.bipartite(rel)
        model = init_model(g, from_profile("desk").replace(dim=16, heads=2))
        assert g._blocks == {}
        model.forward(g, rows=g.splits["test"])
        assert g.blocks(g.splits["test"], 2) is g.blocks(g.splits["test"].copy(), 2)

    def test_rows_out_of_range_rejected(self):
        g = small_graph()
        with pytest.raises(ValueError, match="item"):
            g.blocks(np.array([0, g.counts["item"]]), 2)

    @pytest.mark.parametrize("rows", [[3, 1, 7], [1, 3, 3, 7], [[1, 3]]])
    def test_unsorted_or_repeated_rows_rejected(self, rows):
        g = small_graph()
        model = init_model(g, from_profile("desk").replace(dim=8, heads=2))
        rows = np.array(rows)
        for call in (lambda: g.blocks(rows, 2), lambda: model.forward(g, rows=rows)):
            with pytest.raises(ValueError, match="distinct and ascending"):
                call()
        assert g._blocks == {}


CONFIGS = {
    "default": {},
    "no-seq": {"use_seq": False},
    "no-fusion": {"use_fusion": False},
    "literal-outside": {"attention_norm": "literal", "scale_outside": True},
    "float64": {"precision": "float64"},
}


class TestRestrictedForward:
    @pytest.fixture(scope="class")
    def desk(self):
        return synthetic_generate(SyntheticSpec(), seed=101)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_split_logits_equal_the_full_pass_to_the_bit(self, desk, config):
        model = init_model(desk, from_profile("desk").replace(**CONFIGS[config]))
        full = model.forward(desk).logits.data
        for split in ("train", "valid", "test"):
            ids = desk.splits[split]
            assert np.array_equal(model.forward(desk, rows=ids).logits.data, full[ids]), split

    def test_sampled_training_pass_with_dropout(self):
        g = small_graph(seed=4)
        sub = sample_subgraph(g, g.splits["train"][:12], depth=3, budget=15, seed=2)
        model = init_model(g, from_profile("desk").replace(dim=16, heads=4, dropout=0.5))
        full = model.forward(sub.graph, training=True, dropout_seed=(3, 1)).logits.data
        part = model.forward(sub.graph, training=True, dropout_seed=(3, 1), rows=sub.batch_local)
        assert np.array_equal(part.logits.data, full[sub.batch_local])
        # the masks matter: another seed gives other logits
        other = model.forward(sub.graph, training=True, dropout_seed=(4, 1), rows=sub.batch_local)
        assert not np.array_equal(other.logits.data, part.logits.data)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_shuffled_edges_give_identical_views_logits_and_gradients(self, config):
        # the graph sorts every relation's edges, so no later step sees the
        # order they were given in
        g = small_graph(seed=3)
        perm = np.random.default_rng(8).permutation
        shuffled = HeteroGraph(
            g.schema, g.counts, g.features, {rel: e[perm(len(e))] for rel, e in g.edges.items()},
            g.labels, g.labeled_mask, g.splits,
        )
        assert any(not np.array_equal(shuffled.edges[rel], g.edges[rel]) for rel in g.edges)

        def same_views(a, b):
            assert a.src.tobytes() == b.src.tobytes() and a.num_src == b.num_src
            assert a.dst.ids.tobytes() == b.dst.ids.tobytes()
            assert a.dst.num_segments == b.dst.num_segments

        for rel in g.schema.relations:
            same_views(g.bipartite(rel), shuffled.bipartite(rel))
        model = init_model(g, from_profile("desk").replace(dim=16, heads=2, **CONFIGS[config]))
        rows = g.splits["train"]
        runs = []
        for graph in (g, shuffled):
            for a, b in zip(g.blocks(rows, 2).layers, graph.blocks(rows, 2).layers):
                for rel in g.schema.relations:
                    same_views(a.views[rel], b.views[rel])
            with T.Tape() as tape:
                out = model.forward(graph, training=True, dropout_seed=(5,), rows=rows)
                grads = tape.backward(head_loss(out.logits, graph.labels[rows]))
            full = model.forward(graph).logits
            none = np.zeros(0, dtype=full.dtype)  # a parameter the pass does not reach
            grads = [grads.get(p, none) for p in model.parameters()]
            runs.append([out.logits.data, full.data] + grads)
        for a, b in zip(*runs, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_row_subsets_match_the_full_pass(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, max_nodes=6)
        n = g.counts[g.schema.target_type]
        rows = np.unique(rng.integers(0, n, size=int(rng.integers(1, 2 * n + 2))))
        config = from_profile("desk").replace(
            dim=4, heads=2, layers=int(rng.integers(1, 4)), precision="float64"
        )
        model = init_model(g, config)
        full = model.forward(g).logits.data
        part = model.forward(g, rows=rows).logits.data
        # a 2-D BLAS product may round differently for another row count
        # (one row takes the matrix-vector kernel), so the full pass's rows
        # are matched to 1e-12
        np.testing.assert_allclose(part, full[rows], rtol=1e-12, atol=1e-15)
