#!/usr/bin/env python3
"""Compare the full model against the no-sequence, no-fusion and no-encoding
variants.

Runs each variant over several seeds of the planted task and prints mean
held-out accuracy with the per-seed figures. Every variant sees the same
seeds, so it also prints the full model's per-seed lead over each variant
and how many seeds it wins.
"""

import argparse
import time

import numpy as np

from slotgnn.config import TrainConfig
from slotgnn.graph import SyntheticSpec, synthetic_generate
from slotgnn.training import evaluate, init_model, train

VARIANTS = {
    "full": {},
    "w/o seq": {"use_seq": False},
    "w/o fus": {"use_fusion": False},
    "w/o rel": {"use_relation_encoding": False},
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=200)
    args = ap.parse_args()

    started = time.time()
    seeds = range(args.seeds)
    accs: dict[str, list[float]] = {}
    for name, ablation in VARIANTS.items():
        accs[name] = []
        for seed in seeds:
            graph = synthetic_generate(SyntheticSpec(), seed=seed)
            cfg = TrainConfig(
                dim=32, heads=4, layers=2, dropout=0.5, epochs=args.epochs,
                max_lr=0.005, seed=seed, **ablation,
            )
            model = init_model(graph, cfg)
            train(model, graph, cfg)
            accs[name].append(evaluate(model, graph, "test")["accuracy"])
        mean = float(np.mean(accs[name]))
        sd = float(np.std(accs[name]))
        per_seed = " ".join(f"{a:.4f}" for a in accs[name])
        print(f"{name:8s}  test acc {mean:.4f} +- {sd:.4f}  ({args.seeds} seeds)  "
              f"per seed: {per_seed}")
    # every variant runs on the same seeds, so the comparison is paired: the
    # per-seed difference removes the seed-to-seed spread the means carry
    full = np.array(accs["full"])
    for name in VARIANTS:
        if name == "full":
            continue
        diff = full - np.array(accs[name])
        wins, losses = int((diff > 0).sum()), int((diff < 0).sum())
        per_seed = " ".join(f"{d:+.4f}" for d in diff)
        print(
            f"full - {name:8s}  mean {diff.mean():+.4f}  per seed: {per_seed}  "
            f"full wins {wins}, loses {losses}, ties {len(diff) - wins - losses}"
        )
    print(f"total {time.time() - started:.0f}s")

if __name__ == "__main__":
    main()
