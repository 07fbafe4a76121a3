"""Whole-model assembly: input projection, stacked layers, fusion, classifier.

The forward, one step a line, beside the function that computes it. Node t
of type tau receives over each relation r = (sigma -> tau) from its sources
s; l = 1..L counts layers; [a; b] appends b's slots to a's, and every map
acts slot by slot. Attention runs per head on the head's d_h = d / H
columns of each vector it reads:

  h0 = [x_f W_f + b_f]_f, or [e_tau] if featureless            seq.project_features
  no-seq: h0 = mean_f h0_f                                     SlotModel.forward
  Q_t = h_t W^Q + b^Q;  K_s = h_s W^K;  V_s = h_s W^V + b^V    layer.project_qkv
  a_r(s, t)_ij = softmax((K_s,i W^att_r) . Q_t,j / sqrt(d_h))  layer.relation_attention [2, 3]
  M_r(t)_j = sum_s sum_i a_r(s, t)_ij V_s,i W^ext_r            layer.aggregate_messages [4]
  E_t = [M_r(t) + enc_r]_r, r into tau in schema order         layer.encode_relations
  h^l_t = [h^(l-1)_t; E_t W^adopt_tau]                         layer.update_sequences [1]
  no-seq: h^l_t = (mean_j E_t,j) W^adopt_tau                   layer.layer_forward [1]
  q_t = mean_f h0_t,f W^fq                                     fusion.fuse
  b_t,f = softmax_f((h^L_t,f W^fk) . q_t / sqrt(d_h))          tensor.slot_fusion
  z_t = sum_f b_t,f h^L_t,f W^fv                               tensor.slot_fusion
  no-fusion: z_t = mean_f h^L_t,f                              fusion.mean_fuse
  y_t = z_t W^c + b^c; softmax or logistic cross-entropy       fusion.classify, loss

A type no relation enters keeps its sequence. The no-seq fusion reads one
slot per layer, [h^1_t; ...; h^L_t]. In training, ``seq.slot_dropout``
zeroes whole slots before each layer. The paper's abstract fixes only that a
node is a sequence of meta-path representations, which an attention module
fuses; the steps above follow HGT (arXiv:2003.01332) and recollection of the
paper, not its text. The marked steps are readings that nothing in the repo
settles, where the code can switch or HGT does otherwise:
  [1] no nonlinearity before ``adopt``; HGT applies one and adds a residual.
  [2] ``attention_norm``: ``joint`` (as written) normalizes a_r over a
      target's (s, i) pairs for each j, ``literal`` over its sources s for
      each (i, j).
  [3] where the scale goes: by default the logits are scaled by 1 / sqrt(d_h)
      as written; ``scale_outside`` scales the softmax's output by 1 / sqrt(d).
  [4] message blocks are indexed by the target's query slot j, so with R_tau
      relations into tau its slots grow as F_l = F_(l-1) (1 + R_tau); indexed by
      source slot i, as F_tau^l = F_tau^(l-1) + sum_r F_src(r)^(l-1), each a meta-path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .fusion import FusionOutput, FusionParams, classify, fuse, mean_fuse
from .graph import HeteroGraph, Schema
from .layer import LayerParams, layer_forward
from .seq import InputProjection, project_features, slot_dropout, slot_paths


@dataclass
class ModelOutput:
    logits: T.Tensor
    fusion: FusionOutput | None


class SlotModel:
    """The full network for one schema, holding every trainable tensor in the
    dtype ``config.precision`` names; a forward pass computes in that dtype.

    ``head_labels`` names each slot the fusion head reads by its meta-path,
    which depends only on the schema and the config.
    """

    def __init__(self, schema: Schema, config: TrainConfig, rng: np.random.Generator):
        config.validate()
        self.schema = schema
        self.config = config
        self.head_labels = (
            slot_paths(schema, config.layers)
            if config.use_seq
            else [f"{schema.target_type}:layer{i}" for i in range(1, config.layers + 1)]
        )
        dtype = np.dtype(config.precision)
        self.proj = InputProjection.create(schema, config.dim, rng, dtype)
        self.layers = [
            LayerParams.create(schema, config.dim, config.heads, rng, index, dtype)
            for index in range(1, config.layers + 1)
        ]
        self.fusion_params = FusionParams.create(
            config.dim, schema.num_classes, config.heads, rng, dtype
        )

    def parameters(self) -> list[T.Tensor]:
        out = list(self.proj.parameters())
        for lp in self.layers:
            out.extend(lp.parameters())
        out.extend(self.fusion_params.parameters())
        return out

    def named_parameters(self) -> list[tuple[str, T.Tensor]]:
        return [(p.name or f"param{i}", p) for i, p in enumerate(self.parameters())]

    def forward(
        self,
        graph: HeteroGraph,
        training: bool = False,
        dropout_seed: tuple[int, ...] = (0,),
        rows: np.ndarray | None = None,
    ) -> ModelOutput:
        """Logits of the target nodes ``rows``, distinct and ascending (others
        raise ValueError); None means every target node in id order.

        Each layer computes only the rows of its block in
        ``graph.blocks(rows, layers)``: the nodes that can reach a requested
        logit. A row's logits match the full pass up to the rounding of
        BLAS products whose size follows the row count. ``fusion`` covers
        the same rows.
        """
        cfg = self.config
        target = self.schema.target_type
        plan = graph.blocks(rows, len(self.layers))
        state = project_features(graph, self.proj, plan.layers[0].inputs)
        if not cfg.use_seq:
            state = {n: T.reduce_mean(t, axis=1, keepdims=True) for n, t in state.items()}
        # fusion queries use the pre-dropout layer-0 state
        h0 = T.gather(state[target], plan.heads[0])
        per_layer = []
        for index, (params, block) in enumerate(zip(self.layers, plan.layers), start=1):
            if training and cfg.dropout > 0.0:
                state = slot_dropout(
                    state, cfg.dropout, seed=(*dropout_seed, index), graph=graph, rows=block.inputs
                )
            state = layer_forward(
                state,
                graph,
                params,
                layer_index=index,
                attention_norm=cfg.attention_norm,
                scale_outside=cfg.scale_outside,
                relation_encoding=cfg.use_relation_encoding,
                sequence_update=cfg.use_seq,
                block=block,
            )
            if not cfg.use_seq:
                per_layer.append(T.gather(state[target], plan.heads[index]))

        if cfg.use_seq:
            head_input = state[target]
        else:
            head_input = per_layer[0] if len(per_layer) == 1 else T.concat(per_layer, axis=1)

        fusion_out: FusionOutput | None = None
        if cfg.use_fusion:
            fusion_out = fuse(h0, head_input, self.fusion_params)
            fused = fusion_out.fused
        else:
            fused = mean_fuse(head_input)
        return ModelOutput(classify(fused, self.fusion_params), fusion_out)
