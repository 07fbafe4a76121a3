#!/usr/bin/env python3
"""Write a synthetic planted-path dataset directory for the CLI to consume."""

import argparse

from slotgnn.graph import SyntheticSpec, save_dataset, synthetic_generate

# flag -> SyntheticSpec field; each flag defaults to the field's default
SPEC_FLAGS = {
    "targets": "num_targets",
    "classes": "num_classes",
    "mids": "num_mid",
    "attrs": "num_attr",
    "junk": "num_junk",
    "coherence": "coherence",
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out", help="dataset directory to create")
    for flag, name in SPEC_FLAGS.items():
        default = getattr(SyntheticSpec, name)
        ap.add_argument(f"--{flag}", type=type(default), default=default)
    ap.add_argument("--no-planted", action="store_true", help="distractor relations only")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = SyntheticSpec(
        **{name: getattr(args, flag) for flag, name in SPEC_FLAGS.items()},
        planted=not args.no_planted,
    )
    graph = synthetic_generate(spec, seed=args.seed)
    save_dataset(graph, args.out)
    edge_total = sum(len(e) for e in graph.edges.values())
    print(f"wrote {args.out}: {sum(graph.counts.values())} nodes, {edge_total} edges")


if __name__ == "__main__":
    main()
