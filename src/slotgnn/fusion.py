"""Fusion of a node's slot sequence into one vector, plus heads and reports.

The fusion query comes from the layer-0 sequence, keys/values from the final
sequence; the per-head attention row over final slots doubles as a per-node
importance estimate of each slot's meta-path, which the report sums by name.
With one query per node the key and value maps are applied on the node, not
on each slot: (h W_k) q = h (W_k q) and sum_f a_f h_f W_v = (sum_f a_f h_f) W_v,
in the one tape op :func:`tensor.slot_fusion`. The attention rows are kept as
(nodes, heads, final slot count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class FusionParams:
    fq: T.Tensor
    fk: T.Tensor
    fv: T.Tensor
    classifier_weight: T.Tensor
    classifier_bias: T.Tensor
    heads: int

    @staticmethod
    def create(
        dim: int, num_classes: int, heads: int, rng: np.random.Generator, dtype=np.float32
    ) -> "FusionParams":
        return FusionParams(
            fq=T.xavier_uniform(rng, dim, dim, name="fusion.fq", dtype=dtype),
            fk=T.xavier_uniform(rng, dim, dim, name="fusion.fk", dtype=dtype),
            fv=T.xavier_uniform(rng, dim, dim, name="fusion.fv", dtype=dtype),
            classifier_weight=T.xavier_uniform(
                rng, dim, num_classes, name="classifier.weight", dtype=dtype
            ),
            classifier_bias=T.zero_param((num_classes,), name="classifier.bias", dtype=dtype),
            heads=heads,
        )

    def parameters(self) -> list[T.Tensor]:
        return [self.fq, self.fk, self.fv, self.classifier_weight, self.classifier_bias]


@dataclass
class FusionOutput:
    fused: T.Tensor
    attn: np.ndarray  # (nodes, heads, final slot count)


def fuse(h0: T.Tensor, hl: T.Tensor, params: FusionParams) -> FusionOutput:
    """Attention-compress the final sequence, queried by the mean layer-0 slot."""
    n, _, d = hl.shape
    if h0.shape[0] != n or h0.shape[2] != d:
        raise T.ShapeError(f"fuse: layer-0 {h0.shape} incompatible with final {hl.shape}")
    q = T.reduce_mean(T.affine(h0, params.fq), axis=1)
    fused, attn = T.slot_fusion(q, hl, params.fk, params.fv, params.heads)
    return FusionOutput(fused, attn)


def mean_fuse(hl: T.Tensor) -> T.Tensor:
    """No-fusion ablation: plain average over the final slots."""
    return T.reduce_mean(hl, axis=1)


def classify(fused: T.Tensor, params: FusionParams) -> T.Tensor:
    return T.affine(fused, params.classifier_weight, params.classifier_bias)


def loss(logits: T.Tensor, labels: np.ndarray, multilabel: bool = False) -> T.Tensor:
    if multilabel:
        return T.logistic_loss(logits, labels)
    return T.softmax_cross_entropy(logits, labels)


def predict(logits: np.ndarray, multilabel: bool = False) -> np.ndarray:
    """Class ids (argmax, ties to the lowest index) or 0/1 flags at p = 0.5."""
    if multilabel:
        return (logits > 0).astype(np.int64)
    return np.argmax(logits, axis=1)


@dataclass
class Metrics:
    micro_f1: float
    macro_f1: float
    accuracy: float

    def to_dict(self) -> dict[str, float]:
        return {"micro_f1": self.micro_f1, "macro_f1": self.macro_f1, "accuracy": self.accuracy}


def _f1(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def f1_metrics(
    predictions: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    multilabel: bool = False,
) -> Metrics:
    """Micro-F1 from global counts, macro-F1 over all declared classes.

    Classes absent from both predictions and labels contribute F1 = 0 to the
    macro average. Multi-label accuracy is the exact-match ratio.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if len(predictions) == 0:
        raise ValueError("f1_metrics: empty input")
    g_tp = g_fp = g_fn = 0
    per_class = []
    for c in range(num_classes):
        if multilabel:
            pred_c = predictions[:, c] == 1
            true_c = labels[:, c] == 1
        else:
            pred_c = predictions == c
            true_c = labels == c
        tp = int((pred_c & true_c).sum())
        fp = int((pred_c & ~true_c).sum())
        fn = int((~pred_c & true_c).sum())
        g_tp, g_fp, g_fn = g_tp + tp, g_fp + fp, g_fn + fn
        per_class.append(_f1(tp, fp, fn))
    if multilabel:
        accuracy = float(np.all(predictions == labels, axis=1).mean())
    else:
        accuracy = float((predictions == labels).mean())
    return Metrics(_f1(g_tp, g_fp, g_fn), float(np.mean(per_class)), accuracy)


# ---------------------------------------------------------------------------
# meta-path importance report


@dataclass
class MetaPathReport:
    """Ranked (path, weight) pairs of the target type, optionally per node.
    ``per_type`` holds one entry, keyed by the target type's name."""

    per_type: dict[str, list[tuple[str, float]]]
    per_node: dict[int, list[tuple[str, float]]] | None = None

    def to_json(self) -> dict:
        obj: dict = {
            "per_type": {
                name: [{"path": p, "weight": w} for p, w in rows]
                for name, rows in self.per_type.items()
            }
        }
        if self.per_node is not None:
            obj["per_node"] = {
                str(i): [{"path": p, "weight": w} for p, w in rows]
                for i, rows in self.per_node.items()
            }
        return obj

    def render_text(self) -> str:
        lines = []
        for name, rows in self.per_type.items():
            lines.append(f"node type {name}")
            width = max((len(p) for p, _ in rows), default=4)
            for path, weight in rows:
                lines.append(f"  {path.ljust(width)}  {weight:.4f}")
        return "\n".join(lines) + "\n"


def metapath_report(
    fusion: FusionOutput,
    paths: list[str],
    target_type: str,
    k: int = 5,
    include_per_node: bool = False,
) -> MetaPathReport:
    """Sum head-averaged fusion attention by meta-path: ``paths`` names each
    final slot (``SlotModel.head_labels``), and slots of one name share a row
    of the report on ``target_type``.

    Grouped weights partition each node's attention mass; the per-type rows
    average over nodes, sort descending with lexicographic tie-breaks, and
    keep the top k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    weights = fusion.attn.mean(axis=1)
    n, f_l = weights.shape
    if len(paths) != f_l:
        raise ValueError(f"{len(paths)} slot paths != slot count {f_l}")
    keys = sorted(set(paths))
    group_of = {key: i for i, key in enumerate(keys)}
    grouped = np.zeros((n, len(keys)), dtype=np.float64)
    for slot, key in enumerate(paths):
        grouped[:, group_of[key]] += weights[:, slot]

    def ranked(values: np.ndarray) -> list[tuple[str, float]]:
        order = sorted(range(len(keys)), key=lambda i: (-values[i], keys[i]))
        return [(keys[i], float(values[i])) for i in order[:k]]

    per_type = {target_type: ranked(grouped.mean(axis=0))}
    per_node = None
    if include_per_node:
        per_node = {i: ranked(grouped[i]) for i in range(n)}
    return MetaPathReport(per_type, per_node)
