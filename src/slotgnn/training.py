"""Optimization, training/evaluation loops, model-level gradient checking."""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .config import TrainConfig
from .fusion import f1_metrics, loss as head_loss, predict
from .graph import HeteroGraph, sample_subgraph
from .model import SlotModel


# Adam's moment decay rates and the guard on its denominator
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# the one-cycle schedule's warmup share of the steps, and the divisors of
# max_lr that give its first and last rates
START_FRACTION, LR_DIV, LR_FINAL_DIV = 0.3, 25.0, 1e4


class OptimizerError(Exception):
    pass


def _stream_key(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")


@dataclass
class RngStreams:
    """Named random streams derived from one seed as (seed, sha256(name))."""

    seed: int

    def generator(self, name: str) -> np.random.Generator:
        return np.random.default_rng([self.seed, _stream_key(name)])

    @property
    def dropout_root(self) -> tuple[int, int]:
        return (self.seed, _stream_key("dropout"))


def init_model(graph: HeteroGraph, config: TrainConfig) -> SlotModel:
    """Build a model whose parameters come from the seed's init stream."""
    return SlotModel(graph.schema, config, RngStreams(config.seed).generator("init"))


class AdamW:
    """Adam with decoupled weight decay applied before the moment update.

    The optimizer owns one contiguous vector of the parameters' values, in
    the order given, and rebinds each parameter's ``data`` to a view of its
    slice; the moments ``m`` and ``v`` and the gradient are vectors of the
    same layout. A step is a few in-place vector operations, in this order:
    ``w *= 1 - lr wd``; ``m = b1 m + (1 - b1) g``; ``v = b2 v + ((1 - b2) g) g``;
    ``w -= (lr (m / c1)) / (sqrt(v / c2) + eps)`` with ``c = 1 - b ** t``,
    where b1, b2 and eps are ``BETA1``, ``BETA2`` and ``EPS``.
    Write parameters in place (``p.data[...] = x``) once the optimizer is
    built; a rebound parameter would silently stop training, so a step
    refuses it. The gradient vector is the one screen for NaN and inf after
    the loss (see :mod:`slotgnn.tensor`): a non-finite gradient raises
    :class:`OptimizerError` naming its parameter.
    """

    def __init__(self, named_params: list[tuple[str, T.Tensor]], weight_decay: float = 0.01):
        self.params = list(named_params)
        self.weight_decay = weight_decay
        dtypes = {p.dtype for _, p in self.params}
        if len(dtypes) != 1:
            raise ValueError(
                f"AdamW needs parameters of one dtype, got {sorted(map(str, dtypes))}"
            )
        self.vector = np.concatenate([p.data.reshape(-1) for _, p in self.params])
        self.m = np.zeros_like(self.vector)
        self.v = np.zeros_like(self.vector)
        self._grad = np.empty_like(self.vector)
        self._scratch = np.empty_like(self.vector)
        self._views, self._grad_views = [], []
        offset = 0
        for _, p in self.params:
            end = offset + p.data.size
            p.data = self.vector[offset:end].reshape(p.shape)
            self._views.append(p.data)
            self._grad_views.append(self._grad[offset:end].reshape(p.shape))
            offset = end
        self.t = 0

    def _gather(self, grads: dict[T.Tensor, np.ndarray]) -> None:
        """Copy the gradient table into the gradient vector and screen it."""
        for (name, p), view, g_view in zip(self.params, self._views, self._grad_views):
            if p.data is not view:
                raise OptimizerError(
                    f"parameter {name!r} no longer views the optimizer's vector; "
                    "write into p.data[...] instead of rebinding it"
                )
            g_view[...] = grads.get(p, 0)
        if np.isfinite(self._grad).all():
            return
        # only a failed screen searches the slices, to name the parameter
        for (name, _), g_view in zip(self.params, self._grad_views):
            if not np.all(np.isfinite(g_view)):
                raise OptimizerError(f"non-finite gradient in parameter {name!r}")

    def step(self, grads: dict[T.Tensor, np.ndarray], lr: float) -> None:
        """One update from the gradient table ``Tape.backward`` returns; a
        parameter missing from it gets a zero gradient. A step that raises
        has changed nothing."""
        self._gather(grads)
        self.t += 1
        b1, b2 = BETA1, BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        w, m, v, g, tmp = self.vector, self.m, self.v, self._grad, self._scratch
        if self.weight_decay:
            w *= 1.0 - lr * self.weight_decay
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=tmp)
        v *= b2
        np.multiply(g, 1.0 - b2, out=tmp)
        tmp *= g
        v += tmp
        # the gradient is spent: its vector now holds the denominator
        np.divide(v, c2, out=g)
        np.sqrt(g, out=g)
        g += EPS
        np.divide(m, c1, out=tmp)
        tmp *= lr
        tmp /= g
        w -= tmp


def onecycle_lr(step: int, total_steps: int, max_lr: float) -> float:
    """Cosine warmup over the first ``START_FRACTION`` of the steps from
    max_lr / ``LR_DIV`` to max_lr, then cosine anneal to max_lr /
    ``LR_FINAL_DIV``. The warmup ends strictly inside (0, total_steps)."""
    if total_steps <= 0:
        raise ValueError("total_steps must be positive")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    warmup = START_FRACTION * total_steps
    initial = max_lr / LR_DIV
    final = max_lr / LR_FINAL_DIV
    if step <= warmup:
        t = step / warmup
        return initial + (max_lr - initial) * (1.0 - math.cos(math.pi * t)) / 2.0
    t = (step - warmup) / (total_steps - warmup)
    return final + (max_lr - final) * (1.0 + math.cos(math.pi * t)) / 2.0


@dataclass
class TrainResult:
    log: list[dict] = field(default_factory=list)
    seed: int = 0
    diverged: bool = False
    stopped_early: bool = False


def _split_ids(graph: HeteroGraph, split) -> np.ndarray:
    if isinstance(split, str):
        ids = graph.splits.get(split)
        if ids is None:
            raise KeyError(f"graph has no split {split!r}")
    else:
        ids = np.sort(np.asarray(split, dtype=np.int64))
    if ids.size == 0:
        raise ValueError("empty split")
    return ids


def evaluate(model: SlotModel, graph: HeteroGraph, split) -> dict[str, float]:
    """Deterministic metrics on one split: micro/macro F1, accuracy, mean loss."""
    ids = _split_ids(graph, split)
    multilabel = graph.schema.multilabel
    logits = model.forward(graph, training=False, rows=ids).logits
    mean_loss = head_loss(logits, graph.labels[ids], multilabel).item()
    preds = predict(logits.data, multilabel)
    metrics = f1_metrics(preds, graph.labels[ids], graph.schema.num_classes, multilabel)
    result = metrics.to_dict()
    result["loss"] = mean_loss
    return result


def _train_step(model, graph, local_ids, labels, lr, opt, dropout_seed, multilabel) -> float:
    # parameters the pass does not reach, such as queries of a type no
    # requested row needs, are not in the table: the optimizer reads zeros
    with T.Tape() as tape:
        out = model.forward(graph, training=True, dropout_seed=dropout_seed, rows=local_ids)
        batch_loss = head_loss(out.logits, labels, multilabel)
        grads = tape.backward(batch_loss)
    opt.step(grads, lr)
    return batch_loss.item()


def train(model: SlotModel, graph: HeteroGraph, config: TrainConfig) -> TrainResult:
    """Run the configured loop; deterministic for a fixed seed.

    On divergence (non-finite loss or gradient) the parameters are restored
    to the start of the failing epoch and the result is marked diverged.
    """
    config.validate()
    streams = RngStreams(config.seed)
    sampler_rng = streams.generator("sampler")
    droot = streams.dropout_root
    opt = AdamW(model.named_parameters(), weight_decay=config.weight_decay)
    train_ids = _split_ids(graph, "train")
    # a graph without a valid split logs NaN metrics; any other fault raises
    has_valid = len(graph.splits.get("valid", ())) > 0
    multilabel = graph.schema.multilabel
    full = config.batch_mode == "full"
    steps_per_epoch = 1 if full else config.batches_per_epoch
    total_steps = config.epochs * steps_per_epoch

    result = TrainResult(seed=config.seed)
    best_val = -math.inf
    stall = 0
    step = 0
    for epoch in range(1, config.epochs + 1):
        snapshot = opt.vector.copy()
        losses = []
        try:
            for _ in range(steps_per_epoch):
                batch_graph, batch_ids = graph, train_ids
                if not full:
                    size = min(config.batch_size, train_ids.size)
                    batch = sampler_rng.choice(train_ids, size=size, replace=False)
                    sub_seed = int(sampler_rng.integers(0, 2 ** 62))
                    sub = sample_subgraph(
                        graph, batch, config.sample_depth, config.sample_budget, sub_seed
                    )
                    batch_graph, batch_ids = sub.graph, sub.batch_local
                lr = onecycle_lr(step, total_steps, config.max_lr)
                losses.append(_train_step(
                    model, batch_graph, batch_ids, batch_graph.labels[batch_ids],
                    lr, opt, (*droot, step), multilabel,
                ))
                step += 1
            entry = {"epoch": epoch, "loss": float(np.mean(losses)), "lr": lr}
            entry["val_micro_f1"] = entry["val_macro_f1"] = math.nan
            if has_valid:
                val = evaluate(model, graph, "valid")
                entry["val_micro_f1"], entry["val_macro_f1"] = val["micro_f1"], val["macro_f1"]
        except (T.NonFiniteError, OptimizerError):
            opt.vector[...] = snapshot
            result.diverged = True
            break
        result.log.append(entry)

        if config.early_stop_patience > 0 and not math.isnan(entry["val_micro_f1"]):
            if entry["val_micro_f1"] > best_val:
                best_val = entry["val_micro_f1"]
                stall = 0
            else:
                stall += 1
                if stall >= config.early_stop_patience:
                    result.stopped_early = True
                    break
    return result


def gradcheck_loss(model: SlotModel, graph: HeteroGraph) -> Callable[[], T.Tensor]:
    """The loss ``grad_check_model`` differentiates: an inference-mode
    forward over the train split and the head's loss."""
    ids = _split_ids(graph, "train")
    multilabel = graph.schema.multilabel

    def f() -> T.Tensor:
        out = model.forward(graph, training=False, rows=ids)
        return head_loss(out.logits, graph.labels[ids], multilabel)

    return f


def grad_check_model(
    model: SlotModel,
    graph: HeteroGraph,
    h: float = 1e-5,
    seed: int | None = None,
) -> dict[str, float]:
    """Finite-difference check of every parameter group.

    Requires a model built in float64 with dropout effectively off (the loss
    is evaluated in inference mode). Returns the worst relative error per
    named parameter, from one ``finite_diff_check`` over all of them: over
    every coordinate, two forwards each, which suits a small graph; or, with
    ``seed``, along ``T.GRADCHECK_DIRECTIONS`` random directions per
    parameter, drawn from a generator of that seed.
    """
    if model.config.precision != "float64":
        raise ValueError("grad_check_model requires a float64 model")
    names, params = zip(*model.named_parameters())
    loss = gradcheck_loss(model, graph)
    rng = None if seed is None else np.random.default_rng(seed)
    return dict(zip(names, T.finite_diff_check(loss, params, h=h, rng=rng)))
