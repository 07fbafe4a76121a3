"""Small deterministic graphs bundled for gradient checking and demos."""

from __future__ import annotations

import numpy as np

from .graph import HeteroGraph, NodeType, Relation, Schema

GRADCHECK_SEED = 2
# what a finite-difference check of a model needs: float64, and no dropout
CHECKABLE = {"precision": "float64", "dropout": 0.0}
# the settings the bundled graph's model is checked with
GRADCHECK_MODEL = {"dim": 8, "heads": 2, "layers": 2, "seed": GRADCHECK_SEED, **CHECKABLE}


def gradcheck_graph() -> HeteroGraph:
    """Six nodes over three types, two relations into the target type.

    Small enough for coordinate-wise finite differences yet deep enough to
    exercise two layers of sequence growth (1 -> 3 -> 9 target slots). The
    feature draw is chosen so that, with ``GRADCHECK_SEED`` initialization,
    no parameter coordinate has a gradient small enough for central
    differences at h = 1e-5 to drown in rounding noise.
    """
    schema = Schema(
        node_types=[
            NodeType("alpha", 1, 3),
            NodeType("beta", 1, 2),
            NodeType("tee", 1, 3),
        ],
        relations=[Relation("alpha", "ra", "tee"), Relation("beta", "rb", "tee")],
        target_type="tee",
        num_classes=2,
    )
    rng = np.random.default_rng(5)
    features = {
        "alpha": rng.normal(size=(2, 1, 3)).astype(np.float32),
        "beta": rng.normal(size=(2, 1, 2)).astype(np.float32),
        "tee": rng.normal(size=(2, 1, 3)).astype(np.float32),
    }
    edges = {
        Relation("alpha", "ra", "tee"): np.array([[0, 0], [1, 0], [1, 1]], dtype=np.int64),
        Relation("beta", "rb", "tee"): np.array([[0, 0], [1, 1]], dtype=np.int64),
    }
    return HeteroGraph(
        schema=schema,
        counts={"alpha": 2, "beta": 2, "tee": 2},
        features=features,
        edges=edges,
        labels=np.array([0, 1], dtype=np.int64),
        labeled_mask=np.ones(2, dtype=bool),
        splits={"train": np.array([0, 1]), "valid": np.array([0]), "test": np.array([1])},
    )
