"""One message-passing layer over the relational bipartite views.

Per relation, every (source slot, target slot) pair gets its own attention
weight, so the attention between two nodes is a matrix rather than a scalar.
Messages are convex combinations of extracted source slots, one block per
relation; blocks get a learnable per-relation encoding added, are concatenated
in schema order, mapped once per target type, and appended to the previous
sequence, which stays intact as a prefix.

A layer computes only the output rows of its :class:`~slotgnn.graph.Block`:
queries at the output rows of types that receive messages, keys and values at
the input rows of types that send them, and nothing for relations into types
with no output rows. A full layer is the block whose output rows are every node.
Per relation, two fused tape ops do the edge work: ``T.edge_attention`` (K W,
logits and edge softmax) and ``T.edge_aggregate`` (mix, sum into targets, merge
heads). Both read keys, queries and values as the (n, F, d) blocks the
projections make, so the layer itself changes no layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .graph import Block, HeteroGraph, Relation, Schema


@dataclass
class LayerParams:
    """Learnable maps for one layer: type-wise Q/K/V/Adopt, relation-wise
    attention/extraction/encoding. Attention weights are one d_h x d_h block
    per head. Keys have no bias: it would add b W q_t to every logit of a
    softmax group, in both modes, and so cancel."""

    query: dict[str, tuple[T.Tensor, T.Tensor]]
    key: dict[str, T.Tensor]
    value: dict[str, tuple[T.Tensor, T.Tensor]]
    adopt: dict[str, T.Tensor]
    att: dict[Relation, T.Tensor]  # stacked per-head blocks, (heads, d_h, d_h)
    ext: dict[Relation, T.Tensor]
    enc: dict[Relation, T.Tensor]
    heads: int
    dim: int

    @staticmethod
    def create(
        schema: Schema, dim: int, heads: int, rng: np.random.Generator, index: int,
        dtype=np.float32,
    ) -> "LayerParams":
        if dim % heads:
            raise ValueError(f"dim {dim} not divisible by heads {heads}")
        d_h = dim // heads
        query, key, value, adopt = {}, {}, {}, {}
        for nt in schema.node_types:
            prefix = f"layer{index}.{nt.name}"
            for role, store in (("query", query), ("key", key), ("value", value)):
                w = T.xavier_uniform(rng, dim, dim, name=f"{prefix}.{role}.weight", dtype=dtype)
                store[nt.name] = w if role == "key" else (
                    w, T.zero_param((dim,), name=f"{prefix}.{role}.bias", dtype=dtype)
                )
            if schema.relations_into(nt.name):
                adopt[nt.name] = T.xavier_uniform(rng, dim, dim, name=f"{prefix}.adopt", dtype=dtype)
        att, ext, enc = {}, {}, {}
        for rel in schema.relations:
            prefix = f"layer{index}.{rel.key}"
            att[rel] = T.xavier_uniform(
                rng, d_h, d_h, shape=(heads, d_h, d_h), name=f"{prefix}.att", dtype=dtype
            )
            ext[rel] = T.xavier_uniform(rng, dim, dim, name=f"{prefix}.ext", dtype=dtype)
            # zero encodings make the no-encoding ablation the exact initial state
            enc[rel] = T.zero_param((dim,), name=f"{prefix}.enc", dtype=dtype)
        return LayerParams(query, key, value, adopt, att, ext, enc, heads, dim)

    def parameters(self) -> list[T.Tensor]:
        query, value = ([t for pair in s.values() for t in pair] for s in (self.query, self.value))
        return [
            *query, *self.key.values(), *value, *self.adopt.values(),
            *self.att.values(), *self.ext.values(), *self.enc.values(),
        ]


def project_qkv(
    state: dict[str, T.Tensor],
    params: LayerParams,
    query_state: dict[str, T.Tensor] | None = None,
) -> tuple[dict[str, T.Tensor], dict[str, T.Tensor], dict[str, T.Tensor]]:
    """Apply the per-type shared Q/K/V maps: keys and values to every slot of
    every type in ``state``, queries to every slot of every type in
    ``query_state`` (by default ``state``). Keys are linear, the others affine."""
    query_state = state if query_state is None else query_state
    queries = {name: T.affine(tens, *params.query[name]) for name, tens in query_state.items()}
    keys = {name: T.affine(tens, params.key[name]) for name, tens in state.items()}
    values = {name: T.affine(tens, *params.value[name]) for name, tens in state.items()}
    return queries, keys, values


def relation_attention(
    src_keys: T.Tensor,
    dst_queries: T.Tensor,
    att_weights: T.Tensor,
    view: T.BipartiteView,
    mode: str = "joint",
    scale_outside: bool = False,
) -> T.Tensor:
    """Per-head attention weights over one relation's edges, all heads in one
    pass: (E, heads, F_src, F_dst).

    Logits for edge (s, t) are K[s] W Q[t]^T per head; by default they are
    scaled by 1/sqrt(d_h) inside the softmax, with ``scale_outside`` moving a
    1/sqrt(d) factor after normalization instead. K W is computed once per
    source node, inside the fused op, and then gathered onto the edges.
    """
    return T.edge_attention(src_keys, dst_queries, att_weights, view, mode, scale_outside)


def extract_messages(src_values: T.Tensor, params: LayerParams, rel: Relation) -> T.Tensor:
    """Relation-specific extraction applied on top of the type's Value slots."""
    return T.affine(src_values, params.ext[rel])


def aggregate_messages(attn: T.Tensor, ext: T.Tensor, view: T.BipartiteView) -> T.Tensor:
    """Sum attention-mixed source slots into each target: (n_dst, F_dst, d),
    a zero block for a target with no edges."""
    return T.edge_aggregate(attn, ext, view)


def encode_relations(
    messages: dict[Relation, T.Tensor],
    params: LayerParams,
    schema: Schema,
    type_name: str,
    relation_encoding: bool = True,
) -> T.Tensor:
    """Add each relation's encoding to its block and concatenate in schema order."""
    blocks = []
    for rel in schema.relations_into(type_name):
        if rel not in messages:
            raise KeyError(f"missing message block for relation {rel}")
        msg = messages[rel]
        if relation_encoding:
            msg = T.add(msg, params.enc[rel])
        blocks.append(msg)
    return blocks[0] if len(blocks) == 1 else T.concat(blocks, axis=1)


def update_sequences(prev: T.Tensor, encoded: T.Tensor, adopt: T.Tensor) -> T.Tensor:
    """Append the adopted message blocks after the unchanged previous slots."""
    return T.concat([prev, T.affine(encoded, adopt)], axis=1)


def _relation_messages(
    state: dict[str, T.Tensor],
    query_state: dict[str, T.Tensor],
    params: LayerParams,
    block: Block,
    active: list[Relation],
    attention_norm: str,
    scale_outside: bool,
) -> dict[Relation, T.Tensor]:
    """Each active relation's message block at its targets' output rows, from
    keys and values of ``state`` and queries of ``query_state``."""
    senders = {rel.src for rel in active}
    queries, keys, values = project_qkv(
        {name: tens for name, tens in state.items() if name in senders}, params, query_state
    )
    messages: dict[Relation, T.Tensor] = {}
    for rel in active:
        view = block.views[rel]
        attn = relation_attention(
            keys[rel.src], queries[rel.dst], params.att[rel], view,
            mode=attention_norm, scale_outside=scale_outside,
        )
        ext = extract_messages(values[rel.src], params, rel)
        messages[rel] = aggregate_messages(attn, ext, view)
    return messages


def layer_forward(
    state: dict[str, T.Tensor],
    graph: HeteroGraph,
    params: LayerParams,
    layer_index: int,
    attention_norm: str = "joint",
    scale_outside: bool = False,
    relation_encoding: bool = True,
    sequence_update: bool = True,
    block: Block | None = None,
) -> dict[str, T.Tensor]:
    """Full layer: project, attend, extract, aggregate, encode, update.

    ``state`` holds every type in schema order at the input rows of
    ``block`` (by default ``graph.block()``, every node); the result holds
    every type at its output rows, and a type with no output rows keeps an
    empty tensor. With ``sequence_update`` off (the no-sequence ablation)
    every receiving type holds one slot, and its relation blocks are averaged
    into one new slot that replaces it; a type with more slots raises
    :class:`~slotgnn.tensor.ShapeError`.
    The relation messages are computed in a helper whose Q/K/V, extracted
    values and attention blocks are gone when it returns, so with no tape
    recording they are freed before the update allocates.
    ``layer_index`` (from 1) only identifies the layer; no result depends on it.
    """
    schema = graph.schema
    block = graph.block() if block is None else block
    prev = {name: T.gather(tens, block.outputs[name]) for name, tens in state.items()}
    active = [rel for rel in schema.relations if block.views[rel].dst.num_segments]
    receivers = {rel.dst for rel in active}
    messages = _relation_messages(
        state, {name: tens for name, tens in prev.items() if name in receivers},
        params, block, active, attention_norm, scale_outside,
    )

    out: dict[str, T.Tensor] = {}
    for name, tens in prev.items():
        if name not in receivers:
            out[name] = tens
            continue
        encoded = encode_relations(messages, params, schema, name, relation_encoding)
        if sequence_update:
            out[name] = update_sequences(tens, encoded, params.adopt[name])
            continue
        if tens.shape[1] != 1:
            raise T.ShapeError(f"no-sequence layer: {name!r} has {tens.shape[1]} slots, want 1")
        if encoded.shape[1] > 1:
            encoded = T.reduce_mean(encoded, axis=1, keepdims=True)
        out[name] = T.affine(encoded, params.adopt[name])
    return out
