"""Multi-slot node representations: input projection, slot provenance, dropout.

A node's representation is an ordered sequence of d-vectors ("slots"). At
layer 0 there is one slot per raw feature; each layer appends one message
block per incoming relation, so the slot count per type grows by the factor
(#incoming relations + 1) per layer. Every slot has a provenance label that
decodes back to either a base feature or a relation-derived message; the
labels depend only on the schema, so ``slot_labels`` computes them once and
a forward pass carries only the per-type tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import tensor as T
from .graph import HeteroGraph, Relation, Schema


@dataclass(frozen=True)
class BaseSlot:
    """Slot holding the projection of one raw feature."""

    feature: int


@dataclass(frozen=True)
class MsgSlot:
    """Slot holding a layer-``layer`` message over ``relation``.

    ``parent`` indexes the target's own slot table one layer below: message
    blocks are shaped like the target's previous sequence, so each new slot
    extends one existing provenance chain by one hop.
    """

    relation: Relation
    parent: int
    layer: int


@dataclass(frozen=True)
class LayerSlot:
    """Per-layer summary slot used by the no-sequence ablation."""

    layer: int


SlotLabel = Union[BaseSlot, MsgSlot, LayerSlot]


def slot_labels(schema: Schema, num_layers: int) -> dict[str, list[list[SlotLabel]]]:
    """Provenance tables for layers 0..num_layers, per node type.

    Each layer's table extends the previous one: the old labels stay as a
    prefix, then one block of message labels per incoming relation in schema
    declaration order.
    """
    if num_layers < 0:
        raise ValueError("num_layers must be non-negative")
    tables: dict[str, list[list[SlotLabel]]] = {}
    for nt in schema.node_types:
        per_layer: list[list[SlotLabel]] = [
            [BaseSlot(f) for f in range(schema.base_slots(nt.name))]
        ]
        incoming = schema.relations_into(nt.name)
        for layer in range(1, num_layers + 1):
            prev = per_layer[-1]
            table = list(prev)
            for rel in incoming:
                table.extend(MsgSlot(rel, j, layer) for j in range(len(prev)))
            per_layer.append(table)
        tables[nt.name] = per_layer
    return tables


@dataclass
class InputProjection:
    """Per (type, feature) affine maps into the shared d-dimensional space.

    Weights are stored input_dim x d and applied as ``x @ W + b``. Featureless
    types get a single trainable embedding shared by all their nodes.
    """

    weights: dict[tuple[str, int], tuple[T.Tensor, T.Tensor]]
    embeddings: dict[str, T.Tensor]
    dim: int

    @staticmethod
    def create(
        schema: Schema, dim: int, rng: np.random.Generator, dtype=np.float32
    ) -> "InputProjection":
        weights = {}
        embeddings = {}
        for nt in schema.node_types:
            if nt.num_features == 0:
                embeddings[nt.name] = T.xavier_uniform(
                    rng, 1, dim, shape=(1, dim), name=f"proj.{nt.name}.embedding", dtype=dtype
                )
                continue
            for f in range(nt.num_features):
                weights[(nt.name, f)] = (
                    T.xavier_uniform(
                        rng, nt.feature_dim, dim, name=f"proj.{nt.name}.f{f}.weight", dtype=dtype
                    ),
                    T.zero_param((dim,), name=f"proj.{nt.name}.f{f}.bias", dtype=dtype),
                )
        return InputProjection(weights, embeddings, dim)

    def parameters(self) -> list[T.Tensor]:
        out = []
        for w, b in self.weights.values():
            out.extend([w, b])
        out.extend(self.embeddings.values())
        return out


def project_features(
    graph: HeteroGraph, proj: InputProjection, rows: dict[str, np.ndarray] | None = None
) -> dict[str, T.Tensor]:
    """Layer-0 sequences: slot f of node i is the affine image of its feature f.

    ``rows`` names the nodes to project per type (every node when None); the
    result holds their sequences in that order, every type in schema order.
    Each slot is built as an (n, 1, d) block: the affine map of the (n, 1, k)
    feature slice, or for a featureless type a stack of ones times its
    embedding.
    """
    state: dict[str, T.Tensor] = {}
    for nt in graph.schema.node_types:
        ids = np.arange(graph.counts[nt.name]) if rows is None else rows[nt.name]
        if nt.num_features == 0:
            emb = proj.embeddings[nt.name]
            state[nt.name] = T.matmul(T.Tensor(np.ones((ids.size, 1, 1)), dtype=emb.dtype), emb)
        else:
            feats = graph.features[nt.name]
            if feats.shape[1] != nt.num_features or feats.shape[2] != nt.feature_dim:
                raise T.ShapeError(
                    f"features of {nt.name!r} have shape {feats.shape[1:]}, "
                    f"schema declares ({nt.num_features}, {nt.feature_dim})"
                )
            slots = []
            for f in range(nt.num_features):
                w, b = proj.weights[(nt.name, f)]
                slots.append(T.affine(T.Tensor(feats[ids, f:f + 1], dtype=w.dtype), w, b))
            state[nt.name] = slots[0] if len(slots) == 1 else T.concat(slots, axis=1)
    return state


def slot_dropout(
    state: dict[str, T.Tensor],
    p: float,
    seed: int | tuple[int, ...],
    graph: HeteroGraph | None = None,
    rows: dict[str, np.ndarray] | None = None,
) -> dict[str, T.Tensor]:
    """Zero whole slots with probability p, scaling survivors by 1/(1-p).

    ``state`` holds every node type in schema order. The mask of the type at
    position ``ti`` comes from the stream (*seed, ti): ``SlotModel.forward``
    passes (dropout root, layer), and an int seed acts as (seed,). A type with
    no rows keeps its position. ``rows`` names the graph's nodes that ``state``
    holds per type (every node when None). Masks are addressed by original node
    id: the uniform draw for a type spans ids 0..max(orig_ids[rows]), and numpy
    fills it row by row, so a node gets the same mask whether it is visited in
    a full-graph pass, in a pass restricted to some rows or inside a sampled
    subgraph, and results do not depend on evaluation order. The mask is one
    scale per slot, (n, F, 1), which the product spreads over the slot's d
    columns. Identity at p = 0.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return state
    out: dict[str, T.Tensor] = {}
    for ti, (name, tens) in enumerate(state.items()):
        n, f = tens.shape[:2]
        ids = np.arange(n) if rows is None else rows[name]
        if graph is not None:
            ids = graph.orig_ids[name][ids]
        rng = np.random.default_rng(np.random.SeedSequence([seed, ti]))
        keep = rng.random((ids.max(initial=-1) + 1, f))[ids] >= p
        out[name] = T.mul(tens, T.Tensor((keep / (1.0 - p))[:, :, None], dtype=tens.dtype))
    return out
