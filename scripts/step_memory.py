#!/usr/bin/env python3
"""Print where one training step's memory high-water sits, stage by stage.

    PYTHONPATH=src python3 scripts/step_memory.py [--targets 5000 --mids 1500 ...]

On a planted graph (``SyntheticSpec``, sized by the flags) and the desk
profile, it runs two full-batch steps and reports the second, after the first
has built what the graph's views keep: the forward pass and loss,
``Tape.backward`` and the optimizer step, then one ``evaluate`` of the valid
split. For each stage it prints the bytes ``tracemalloc`` sees live at the
stage's start (graph, model and optimizer included) and the high-water the
stage reached above them, in MiB.
"""

import argparse
import tracemalloc

from slotgnn import tensor as T
from slotgnn.config import from_profile
from slotgnn.fusion import loss as head_loss
from slotgnn.graph import SyntheticSpec, synthetic_generate
from slotgnn.training import AdamW, RngStreams, evaluate, init_model

MIB = float(1 << 20)

# flag -> SyntheticSpec field; each flag defaults to the field's default
SPEC_FLAGS = {"targets": "num_targets", "mids": "num_mid", "attrs": "num_attr", "junk": "num_junk"}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    for flag, name in SPEC_FLAGS.items():
        ap.add_argument(f"--{flag}", type=int, default=getattr(SyntheticSpec, name))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    tracemalloc.start()
    spec = SyntheticSpec(**{name: getattr(args, flag) for flag, name in SPEC_FLAGS.items()})
    graph = synthetic_generate(spec, seed=args.seed)
    config = from_profile("desk").replace(seed=args.seed)
    model = init_model(graph, config)
    opt = AdamW(model.named_parameters(), weight_decay=config.weight_decay)
    ids = graph.splits["train"]
    labels = graph.labels[ids]
    droot = RngStreams(config.seed).dropout_root
    multilabel = graph.schema.multilabel

    rows = []

    def stage(name, fn):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        rows.append((name, live, tracemalloc.get_traced_memory()[1] - live))
        return out

    for step in range(2):
        rows.clear()
        with T.Tape() as tape:
            loss = stage("forward", lambda: head_loss(
                model.forward(graph, training=True, dropout_seed=(*droot, step), rows=ids).logits,
                labels, multilabel,
            ))
            grads = stage("backward", lambda: tape.backward(loss))
        stage("step", lambda: opt.step(grads, config.max_lr))
        del tape, loss, grads
    stage("evaluate", lambda: evaluate(model, graph, "valid"))
    tracemalloc.stop()

    print(f"{'stage':<9} {'live_mib':>9} {'high_mib':>9}")
    for name, live, high in rows:
        print(f"{name:<9} {live / MIB:>9.2f} {high / MIB:>9.2f}")


if __name__ == "__main__":
    main()
