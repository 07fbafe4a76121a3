"""Random schema/graph generators shared by property and acceptance tests."""

from __future__ import annotations

import numpy as np

from slotgnn.graph import HeteroGraph, NodeType, Relation, Schema


def random_schema(
    rng: np.random.Generator,
    max_types: int = 5,
    max_relations: int = 6,
    max_features: int = 3,
    max_feature_dim: int = 3,
    featureless: bool = False,
    multilabel: bool = False,
) -> Schema:
    """A random schema. ``featureless`` then makes each type featureless with
    probability 1/2, and ``multilabel`` gives it a multi-label head; both
    draw after everything else, so the schema is otherwise the one drawn
    without them."""
    n_types = int(rng.integers(2, max_types + 1))
    names = [f"t{i}" for i in range(n_types)]
    node_types = [
        NodeType(
            name,
            int(rng.integers(1, max_features + 1)),
            int(rng.integers(1, max_feature_dim + 1)),
        )
        for name in names
    ]
    n_rel = int(rng.integers(1, max_relations + 1))
    triples: set[tuple[str, str, str]] = set()
    while len(triples) < n_rel:
        src = names[int(rng.integers(0, n_types))]
        dst = names[int(rng.integers(0, n_types))]
        triples.add((src, f"r{len(triples)}", dst))
    relations = [Relation(*t) for t in sorted(triples)]
    if n_types + len(relations) <= 2:
        relations.append(Relation(names[0], "extra", names[-1]))
    target = names[int(rng.integers(0, n_types))]
    num_classes = int(rng.integers(2, 4))
    if featureless:
        bare = rng.random(n_types) < 0.5
        node_types = [NodeType(nt.name, 0, 0) if b else nt for nt, b in zip(node_types, bare)]
    return Schema(node_types, relations, target, num_classes, multilabel)


def random_graph(
    rng: np.random.Generator,
    schema: Schema | None = None,
    max_nodes: int = 4,
    max_edges: int = 6,
) -> HeteroGraph:
    if schema is None:
        schema = random_schema(rng)
    counts = {nt.name: int(rng.integers(1, max_nodes + 1)) for nt in schema.node_types}
    features = {
        nt.name: rng.normal(size=(counts[nt.name], nt.num_features, nt.feature_dim)).astype(
            np.float32
        )
        for nt in schema.node_types
    }
    edges = {}
    for rel in schema.relations:
        n_e = int(rng.integers(0, max_edges + 1))
        pairs = np.stack(
            [
                rng.integers(0, counts[rel.src], size=n_e),
                rng.integers(0, counts[rel.dst], size=n_e),
            ],
            axis=1,
        ).astype(np.int64)
        edges[rel] = pairs.reshape(n_e, 2)
    n_target = counts[schema.target_type]
    ids = np.arange(n_target)
    if schema.multilabel:  # a 0/1 row per target
        labels = rng.integers(0, 2, size=(n_target, schema.num_classes)).astype(np.float32)
    else:
        labels = rng.integers(0, schema.num_classes, size=n_target)
    return HeteroGraph(
        schema=schema,
        counts=counts,
        features=features,
        edges=edges,
        labels=labels,
        labeled_mask=np.ones(n_target, dtype=bool),
        splits={"train": ids, "valid": ids[:1], "test": ids[:1]},
    )
