"""Whole-model assembly: input projection, stacked layers, fusion, classifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .fusion import FusionOutput, FusionParams, classify, fuse, mean_fuse
from .graph import HeteroGraph, Schema
from .layer import LayerParams, layer_forward
from .seq import InputProjection, LayerSlot, SlotLabel, project_features, slot_dropout, slot_labels


@dataclass
class ModelOutput:
    logits: T.Tensor
    fusion: FusionOutput | None


class SlotModel:
    """The full network for one schema, holding every trainable tensor in the
    dtype ``config.precision`` names; a forward pass computes in that dtype.

    ``head_labels`` is the provenance of each slot the fusion head reads,
    which depends only on the schema and the config.
    """

    def __init__(self, schema: Schema, config: TrainConfig, rng: np.random.Generator):
        config.validate()
        self.schema = schema
        self.config = config
        self.head_labels: list[SlotLabel] = (
            slot_labels(schema, config.layers)[schema.target_type][-1]
            if config.use_seq
            else [LayerSlot(i) for i in range(1, config.layers + 1)]
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
        """Logits of the target nodes ``rows``, one row each in the order
        given, repeats included; None means every target node in id order.

        Each layer computes only the rows of its block in
        ``graph.blocks(rows, layers)``: the nodes that can reach a requested
        logit. A row's logits match the full pass up to the rounding of
        BLAS products whose size follows the row count. ``fusion`` covers
        the distinct requested rows, ascending.
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
        logits = T.gather(classify(fused, self.fusion_params), plan.order)
        return ModelOutput(logits, fusion_out)
