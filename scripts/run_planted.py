#!/usr/bin/env python3
"""Train on the planted-path task and print metrics plus the top meta-paths."""

import argparse
import time

from slotgnn.config import TrainConfig
from slotgnn.fusion import metapath_report
from slotgnn.graph import SyntheticSpec, synthetic_generate
from slotgnn.training import evaluate, init_model, train


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--heads", type=int, default=4)
    ap.add_argument("--max-lr", type=float, default=0.005)
    ap.add_argument("--dropout", type=float, default=0.5)
    ap.add_argument("--top-k", type=int, default=5)
    args = ap.parse_args()

    graph = synthetic_generate(SyntheticSpec(), seed=args.seed)
    cfg = TrainConfig(
        dim=args.dim, heads=args.heads, layers=2, dropout=args.dropout,
        epochs=args.epochs, max_lr=args.max_lr, seed=args.seed,
    )
    model = init_model(graph, cfg)
    started = time.time()
    result = train(model, graph, cfg)
    print(f"trained {len(result.log)} epochs in {time.time() - started:.0f}s")
    for split in ("train", "valid", "test"):
        metrics = evaluate(model, graph, split)
        print(f"{split}: acc={metrics['accuracy']:.4f} micro={metrics['micro_f1']:.4f} "
              f"macro={metrics['macro_f1']:.4f} loss={metrics['loss']:.4f}")

    out = model.forward(graph, training=False)
    report = metapath_report(out.fusion, model.head_labels, graph.schema.target_type, k=args.top_k)
    print(report.render_text(), end="")


if __name__ == "__main__":
    main()
