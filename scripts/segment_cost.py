#!/usr/bin/env python3
"""Time the two paths of ``Segments.max`` on segments of one length, to
re-derive ``tensor.SWEEP_CALL_COST`` on this host.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/segment_cost.py

For each segment length and row width it prints the best time of
``np.maximum.reduceat`` and of the rank sweep, which was faster, the path the
constant picks, and the break-even constant: one sweep call's cost in
reduceat inner loops, ``(sweep / length) / (reduceat / (segments * width))``.
The constant picks the faster path on a layout when it lies on the same side
of ``segments * width / length`` as the break-even does, so set it near the
break-even of the layouts whose paths cost about the same. Both paths are
checked to give the same bytes.
"""

import argparse
import math
import timeit

import numpy as np

from slotgnn import tensor as T


def best_time(fn, repeats: int) -> float:
    number = max(1, repeats // 5)
    return min(timeit.repeat(fn, number=number, repeat=5)) / number


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rows", type=int, default=20_000)
    ap.add_argument("--lengths", type=int, nargs="+", default=[2, 3, 8, 32, 128, 512])
    ap.add_argument("--widths", type=int, nargs="+", default=[8, 24])
    ap.add_argument("--repeats", type=int, default=50, help="calls per timed path")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"SWEEP_CALL_COST = {T.SWEEP_CALL_COST}")
    print(f"{'length':>6} {'segments':>8} {'width':>5} {'reduceat_us':>11} "
          f"{'sweep_us':>9} {'faster':>8} {'picks':>8} {'break_even':>10}")
    for length in args.lengths:
        segments = max(1, args.rows // length)
        starts = np.arange(segments) * length
        for width in args.widths:
            x = rng.normal(size=(segments * length, width)).astype(np.float32)
            by_reduceat = np.maximum.reduceat(x, starts, axis=0)
            if by_reduceat.tobytes() != T._rank_sweep_max(x, length).tobytes():
                raise SystemExit(f"length {length}, width {width}: the two paths differ")
            t_reduceat = best_time(lambda: np.maximum.reduceat(x, starts, axis=0), args.repeats)
            t_sweep = best_time(lambda: T._rank_sweep_max(x, length), args.repeats)
            loops = segments * width
            faster = "sweep" if t_sweep < t_reduceat else "reduceat"
            picks = "sweep" if length * T.SWEEP_CALL_COST <= loops else "reduceat"
            even = (t_sweep / length) / (t_reduceat / loops)
            print(f"{length:>6} {segments:>8} {width:>5} {t_reduceat * 1e6:>11.1f} "
                  f"{t_sweep * 1e6:>9.1f} {faster:>8} {picks:>8} {math.floor(even):>10}")


if __name__ == "__main__":
    main()
