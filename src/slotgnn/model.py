"""Whole-model assembly: input projection, stacked layers, fusion, classifier."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .fusion import FusionOutput, FusionParams, classify, fuse, mean_fuse
from .graph import HeteroGraph, Schema
from .layer import LayerParams, layer_forward
from .seq import InputProjection, LayerSlot, SeqState, SlotLabel, project_features, slot_dropout, slot_labels


@dataclass
class ModelOutput:
    logits: T.Tensor
    fusion: FusionOutput | None
    head_labels: list[SlotLabel]
    states: list[SeqState]


class SlotModel:
    """The full network for one schema, holding every trainable tensor in the
    dtype ``config.precision`` names; a forward pass computes in that dtype."""

    def __init__(self, schema: Schema, config: TrainConfig, rng: np.random.Generator):
        config.validate()
        self.schema = schema
        self.config = config
        self.tables = slot_labels(schema, config.layers)
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
        collect: dict | None = None,
    ) -> ModelOutput:
        cfg = self.config
        target = self.schema.target_type
        state = project_features(graph, self.proj)
        if not cfg.use_seq:
            state = SeqState(
                {n: T.reduce_mean(t, axis=1, keepdims=True) for n, t in state.tensors.items()},
                {n: [LayerSlot(0)] for n in state.tensors},
                0,
            )
        h0 = state.tensors[target]  # fusion queries use the pre-dropout layer-0 state
        per_layer = [state]
        for index, params in enumerate(self.layers, start=1):
            if training and cfg.dropout > 0.0:
                state = slot_dropout(
                    state, cfg.dropout, True, seed=(*dropout_seed, index), graph=graph
                )
            state = layer_forward(
                state,
                graph,
                params,
                layer_index=index,
                tables=self.tables,
                attention_norm=cfg.attention_norm,
                scale_outside=cfg.scale_outside,
                relation_encoding=cfg.use_relation_encoding,
                sequence_update=cfg.use_seq,
                collect=collect,
            )
            per_layer.append(state)

        if cfg.use_seq:
            head_input = state.tensors[target]
            head_labels = list(state.labels[target])
        else:
            blocks = [s.tensors[target] for s in per_layer[1:]]
            head_input = blocks[0] if len(blocks) == 1 else T.concat(blocks, axis=1)
            head_labels = [LayerSlot(i) for i in range(1, len(per_layer))]

        fusion_out: FusionOutput | None = None
        if cfg.use_fusion:
            fusion_out = fuse(h0, head_input, self.fusion_params)
            fused = fusion_out.fused
        else:
            fused = mean_fuse(head_input)
        logits = classify(fused, self.fusion_params)
        return ModelOutput(logits, fusion_out, head_labels, per_layer)
