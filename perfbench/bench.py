"""Training benchmark for slotgnn, driven through the public API.

One run loads a generated dataset the way ``slotgnn train`` does
(``load_dataset`` -> ``init_model`` -> ``train`` -> ``evaluate``), repeats a
fixed-length training from the same seed until ``--seconds`` have passed, and
prints one JSON result as its last line of standard output. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports per-layer metrics from
spans recorded around calls into the package (see ``spans.py``). Every timing
is scaled by the host's speed, probed around it (see ``hostspeed.py``). See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

from slotgnn import artifacts, layer, model, tensor, training
from slotgnn.config import TrainConfig, from_profile
from slotgnn.graph import SyntheticSpec, load_dataset

from hostspeed import HostClock
from spans import Tracer, roots, self_times

HERE = Path(__file__).resolve().parent

# Every metric the benchmark can print, with its unit. --trace 0 prints the
# end-to-end ones, --trace 1 the per-layer ones.
END_TO_END = {
    "setup_s": "s",
    "epoch_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "final_loss": "nats",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "tensor.backward_ms": "ms",
    "tensor.tape_nodes": "count",
    "tensor.tape_mb": "MB",
    "layer.qkv_ms": "ms",
    "layer.attention_ms": "ms",
    "layer.aggregate_ms": "ms",
    "layer.l1_ms": "ms",
    "layer.l2_ms": "ms",
    "fusion.fuse_ms": "ms",
    "fusion.loss_ms": "ms",
    "model.forward_train_ms": "ms",
    "model.forward_eval_ms": "ms",
    "seq.project_ms": "ms",
    "seq.dropout_ms": "ms",
    "graph.load_s": "s",
    "graph.views_ms": "ms",
    "graph.sample_ms": "ms",
    "graph.sample_nodes": "count",
    "graph.sample_edges": "count",
    "training.eval_ms": "ms",
    "training.opt_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.coverage_pct": "%",
}

# Per-layer metrics that are a span's total time per epoch of train(),
# summed over the train-mode and validation forwards.
PER_EPOCH_SPANS = {
    "tensor.backward_ms": "tensor.backward",
    "layer.qkv_ms": "layer.qkv",
    "layer.attention_ms": "layer.attention",
    "layer.aggregate_ms": "layer.aggregate",
    "layer.l1_ms": "layer.l1",
    "layer.l2_ms": "layer.l2",
    "fusion.fuse_ms": "fusion.fuse",
    "fusion.loss_ms": "fusion.loss",
    "model.forward_train_ms": "model.forward_train",
    "model.forward_eval_ms": "model.forward_eval",
    "seq.project_ms": "seq.project",
    "seq.dropout_ms": "seq.dropout",
    "training.eval_ms": "training.evaluate",
    "training.opt_ms": "training.opt_step",
}

MIB = float(1 << 20)

# Full-batch training never samples; the traced run then times this many
# sampler calls on the workload's graph after training.
SAMPLER_PROBE_CALLS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    spec: SyntheticSpec
    config: TrainConfig
    setup_reps: int  # set-ups before each rep; the rep trains on the last one
    eval_reps: int  # evaluate(test) calls after each training


# Both workloads use the desk profile (dim 64, 8 heads, 2 layers, dropout
# 0.5). Epoch counts are fixed so that final_loss is a function of the seed
# alone, and long enough that the loss falls on every seed. The sampled
# graph has 5k targets: at 20k, epochs of 3-5 s left too few samples per run
# for the timings to be steady on a shared 2-vCPU host (see README.md).
DESK = from_profile("desk")
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-full",
            SyntheticSpec(),
            DESK.replace(epochs=20),
            setup_reps=9,
            eval_reps=10,
        ),
        Workload(
            "scaled-sampled",
            SyntheticSpec(num_targets=5_000, num_mid=1_500, num_attr=100, num_junk=500),
            DESK.replace(
                epochs=3, batch_mode="sampled", batch_size=256, sample_depth=3,
                sample_budget=1800, batches_per_epoch=5,
            ),
            setup_reps=4,
            eval_reps=3,
        ),
    )
}


# ---------------------------------------------------------------------------
# inputs


def dataset_dir(root: Path, spec: SyntheticSpec, seed: int) -> Path:
    key = json.dumps(dataclasses.asdict(spec), sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return root / ".perfbench_cache" / "datasets" / f"{digest}-seed{seed}"


def ensure_dataset(path: Path, spec: SyntheticSpec, seed: int) -> None:
    """Generate and save the dataset once per (spec, seed), in a child process
    so that generation neither counts in this process's peak RSS nor in any
    timed region."""
    if path.is_dir():
        return
    subprocess.run(
        [sys.executable, str(HERE / "gendata.py"), str(path),
         json.dumps(dataclasses.asdict(spec)), str(seed)],
        check=True,
    )


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Setup:
    start: float
    end: float
    load_s: float
    views_s: float
    scale: float = math.nan  # reference speed / host speed, from the probes around it

    @property
    def total_s(self) -> float:
        return self.end - self.start


def set_up(path: Path, config: TrainConfig):
    """The user's load path, with every lazy CSR view built."""
    t0 = time.perf_counter()
    graph = load_dataset(path)
    t1 = time.perf_counter()
    for rel in graph.schema.relations:
        graph.bipartite(rel)
    t2 = time.perf_counter()
    training.init_model(graph, config)
    t3 = time.perf_counter()
    return graph, Setup(t0, t3, t1 - t0, t2 - t1)


@dataclass
class Rep:
    """The set-ups, one training from the seed, then the evaluate(test) calls
    after it."""

    traced: bool
    setups: list[Setup] = field(default_factory=list)
    # Wall times leave out the probes run inside them; scaled ones are at
    # the reference speed (see hostspeed.py).
    train_s: float = math.nan  # wall time of train(), if it returned
    train_scaled_s: float = math.nan
    epoch_s: list[float] = field(default_factory=list)  # scaled time of each epoch
    eval_s: list[float] = field(default_factory=list)
    eval_scaled_s: list[float] = field(default_factory=list)
    train_span: int = -1


@dataclass
class Ledger:
    """Operations (training epochs and eval calls) attempted and failed."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.reasons.append(reason)


PROBE_SPAN = "host.probe"


def install_epoch_marks(tracer: Tracer, clock: HostClock) -> None:
    """The only wrapper of an untraced rep: train() calls evaluate once at the
    end of every epoch, so these spans' ends split train() into epochs. The
    host's speed is probed after each, in a span of its own."""

    def probe(_result) -> dict:
        with tracer.span(PROBE_SPAN):
            clock.probe()
        return {}

    tracer.wrap(training, "evaluate", "training.evaluate", after=probe)


def install_spans(tracer: Tracer, clock: HostClock) -> None:
    """Wrap the package's functions at the attribute each caller looks up."""
    install_epoch_marks(tracer, clock)
    w = tracer.wrap
    w(training, "head_loss", "fusion.loss")
    w(training, "sample_subgraph", "graph.sample", after=lambda sub: {
        "nodes": sum(sub.graph.counts.values()),
        "edges": sum(int(e.shape[0]) for e in sub.graph.edges.values()),
    })
    w(training.AdamW, "step", "training.opt_step")
    w(tensor.Tape, "backward", "tensor.backward", before=lambda tape, loss: {
        "nodes": len(tape.nodes),
        "bytes": sum(node.out.data.nbytes for node in tape.nodes),
    })
    w(model.SlotModel, "forward",
      lambda self, graph, training=False, **kw: f"model.forward_{'train' if training else 'eval'}")
    w(model, "project_features", "seq.project")
    w(model, "slot_dropout", "seq.dropout")
    w(model, "layer_forward", lambda *a, **kw: f"layer.l{kw['layer_index']}")
    w(model, "fuse", "fusion.fuse")
    w(model, "classify", "fusion.classify")
    w(layer, "project_qkv", "layer.qkv")
    w(layer, "relation_attention", "layer.attention")
    w(layer, "extract_messages", "layer.extract")
    w(layer, "aggregate_messages", "layer.aggregate")
    w(layer, "encode_relations", "layer.encode")
    w(layer, "update_sequences", "layer.update")


def run_rep(rep: Rep, w: Workload, graph, ledger: Ledger, reference: dict, tracer: Tracer,
            clock: HostClock) -> None:
    """Train from the seed, check the run, then time the evaluate calls.

    ``reference`` holds the first rep's final loss and test metrics; every
    later rep must reproduce them exactly. The host's speed is probed before
    and after each timed call.
    """
    config = w.config
    ledger.attempted += config.epochs
    net = training.init_model(graph, config)
    (install_spans if rep.traced else install_epoch_marks)(tracer, clock)
    clock.probe()
    try:
        with tracer.span("training.train") as rep.train_span:
            result = training.train(net, graph, config)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        ledger.fail(config.epochs, "train raised")
        return
    finally:
        tracer.restore()
        clock.probe()
    train = tracer.spans[rep.train_span]
    rep.train_s = clock.wall(train.start, train.end)
    rep.train_scaled_s = clock.scaled(train.start, train.end)
    start = train.start
    for s in tracer.spans[rep.train_span + 1:]:
        if s.parent == rep.train_span and s.name == "training.evaluate":
            rep.epoch_s.append(clock.scaled(start, s.end))
            start = s.end

    losses = [entry["loss"] for entry in result.log]
    last = config.epochs - 1
    bad = set(range(len(losses), config.epochs))
    reasons = [f"diverged={result.diverged} after {len(losses)} epochs"] if bad else []
    bad.update(i for i, v in enumerate(losses) if not math.isfinite(v))
    if losses and not losses[-1] < losses[0]:
        bad.add(last)
        reasons.append(f"final loss {losses[-1]!r} not below first {losses[0]!r}")
    if losses:
        if reference.setdefault("final_loss", losses[-1]) != losses[-1]:
            bad.add(last)
            reasons.append(f"final loss {losses[-1]!r} != {reference['final_loss']!r} from the same seed")
    if bad:
        ledger.fail(len(bad), "; ".join(reasons) or "non-finite epoch loss")

    for _ in range(w.eval_reps):
        ledger.attempted += 1
        t0 = time.perf_counter()
        try:
            metrics = training.evaluate(net, graph, "test")
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ledger.fail(1, "evaluate raised")
            continue
        finally:
            t1 = time.perf_counter()
            clock.probe()
        rep.eval_s.append(t1 - t0)
        rep.eval_scaled_s.append(clock.scaled(t0, t1))
        if reference.setdefault("test_metrics", metrics) != metrics:
            ledger.fail(1, f"evaluate returned {metrics}, expected {reference['test_metrics']}")


def probe_sampler(w: Workload, graph, seed: int) -> None:
    config = w.config
    rng = np.random.default_rng(seed)
    train_ids = graph.splits["train"]
    for _ in range(SAMPLER_PROBE_CALLS):
        batch = rng.choice(train_ids, size=min(config.batch_size, train_ids.size), replace=False)
        training.sample_subgraph(
            graph, batch, config.sample_depth, config.sample_budget, int(rng.integers(0, 2 ** 62))
        )


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


# A run reports the median of each end-to-end timing's samples, scaled to the
# reference speed: every set-up, every rep's train() time divided by epochs,
# and every evaluate(test) call. A rep's train() time counts every epoch, with
# the cyclic-GC passes and the warm-up that fall on some epochs and not others.
def timing_samples(reps: list[Rep], epochs: int, scaled: bool = True) -> dict[str, list[float]]:
    return {
        "setup_s": [s.total_s * (s.scale if scaled else 1.0) for r in reps for s in r.setups],
        "epoch_s": [(r.train_scaled_s if scaled else r.train_s) / epochs
                    for r in reps if math.isfinite(r.train_s)],
        "eval_s": [t for r in reps for t in (r.eval_scaled_s if scaled else r.eval_s)],
    }


def _summary(values) -> dict:
    """Sample count, fastest, median and slowest of a list of timings."""
    values = sorted(values)
    if not values:
        return {"n": 0}
    return {"n": len(values), "min": values[0], "median": statistics.median(values), "max": values[-1]}


def layer_metrics(tracer: Tracer, reps: list[Rep], epochs: int, clock: HostClock) -> tuple[dict, dict]:
    """Per-layer metrics and per-span self time (ms per epoch of train()),
    scaled to the reference speed like the end-to-end timings."""
    spans = tracer.spans
    top = roots(spans)
    own = self_times(spans)
    # Each root span's time at the reference speed over its wall time; a
    # span is scaled by its root's.
    scale = {
        i: clock.scaled(s.start, s.end) / clock.wall(s.start, s.end)
        for i, s in enumerate(spans) if s.parent < 0
    }
    traced = [r for r in reps if r.traced and math.isfinite(r.train_s)]
    totals = {r.train_span: defaultdict(float) for r in traced}
    selfs = {r.train_span: defaultdict(float) for r in traced}
    for i, s in enumerate(spans):
        if top[i] in totals and s.name != PROBE_SPAN:
            totals[top[i]][s.name] += s.duration * scale[top[i]]
            selfs[top[i]][s.name] += own[i] * scale[top[i]]

    def per_epoch_ms(table: dict, name: str) -> float:
        return _median(table[r.train_span][name] for r in traced) * 1000.0 / epochs

    out = {metric: per_epoch_ms(totals, name) for metric, name in PER_EPOCH_SPANS.items()}
    backward = [s for i, s in enumerate(spans) if s.name == "tensor.backward" and top[i] in totals]
    samples = [(s, scale[top[i]]) for i, s in enumerate(spans) if s.name == "graph.sample"]
    out["tensor.tape_nodes"] = _median(s.attrs["nodes"] for s in backward)
    out["tensor.tape_mb"] = _median(s.attrs["bytes"] for s in backward) / MIB
    setups = [s for r in reps for s in r.setups]
    out["graph.load_s"] = _median(s.load_s * s.scale for s in setups)
    out["graph.views_ms"] = _median(s.views_s * s.scale for s in setups) * 1000.0
    out["graph.sample_ms"] = _median(s.duration * k for s, k in samples) * 1000.0
    out["graph.sample_nodes"] = _median(s.attrs["nodes"] for s, _ in samples)
    out["graph.sample_edges"] = _median(s.attrs["edges"] for s, _ in samples)
    untraced = _median(r.train_scaled_s for r in reps if not r.traced and math.isfinite(r.train_s))
    out["trace.overhead_ms"] = (_median(r.train_scaled_s for r in traced) - untraced) * 1000.0 / epochs
    covered = [
        sum(s.duration for s in spans if s.parent == r.train_span and s.name != PROBE_SPAN) / r.train_s
        for r in traced
    ]
    out["trace.coverage_pct"] = 100.0 * _median(covered)
    names = sorted({name for table in selfs.values() for name in table})
    self_ms = {name: per_epoch_ms(selfs, name) for name in names}
    return out, self_ms


def run(w: Workload, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict, Tracer | None]:
    """One benchmark run; returns (result line, detail, tracer)."""
    w = dataclasses.replace(w, config=w.config.replace(seed=seed))
    path = dataset_dir(root, w.spec, seed)
    ensure_dataset(path, w.spec, seed)
    fingerprint = artifacts.dataset_fingerprint(path)

    graph = None
    ledger = Ledger()
    reference: dict = {}
    reps: list[Rep] = []
    tracer = Tracer()
    clock = HostClock()
    deadline = time.perf_counter() + seconds
    rep_s = 0.0
    # A traced run alternates untraced and traced reps so that the tracing
    # overhead is measured in the same process. No rep starts that the last
    # rep's length says would end past the deadline.
    min_reps = 2 if trace else 1
    while len(reps) < min_reps or time.perf_counter() + rep_s <= deadline:
        # The tape holds reference cycles, so a step's tensors are freed by the
        # cyclic collector; collecting here starts every rep from the same heap,
        # as a fresh process would, and keeps peak RSS independent of rep count.
        gc.collect()
        started = time.perf_counter()
        rep = Rep(traced=trace and len(reps) % 2 == 1)
        clock.probe()
        for _ in range(w.setup_reps):
            graph = None  # drop the previous copy before loading the next
            graph, s = set_up(path, w.config)
            clock.probe()
            s.scale = clock.scaled(s.start, s.end) / s.total_s
            rep.setups.append(s)
        run_rep(rep, w, graph, ledger, reference, tracer if rep.traced else Tracer(), clock)
        reps.append(rep)
        rep_s = time.perf_counter() - started

    final = reference.get("final_loss", math.nan)
    untraced = [r for r in reps if not r.traced]
    timings = timing_samples(untraced, w.config.epochs)
    detail = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "artifacts": {"dataset_fingerprint": fingerprint},
        "reps": len(reps),
        "epochs_per_rep": w.config.epochs,
        "final_loss_hex": float.hex(final),
        **{name: _summary(values) for name, values in timings.items()},
        "wall": {name: _summary(values)
                 for name, values in timing_samples(untraced, w.config.epochs, scaled=False).items()},
        "host_probe_s": _summary(clock.probe_times()),
        "single_epoch_s": _summary(t for r in untraced for t in r.epoch_s),
        "setup_s_samples": [[s.total_s * s.scale for s in r.setups] for r in reps],
        "epoch_s_samples": [r.epoch_s for r in reps],
        "eval_s_samples": [r.eval_scaled_s for r in reps],
        "failures": ledger.reasons,
    }
    if trace:
        if w.config.batch_mode == "full":
            install_spans(tracer, clock)
            clock.probe()
            try:
                with tracer.span("perfbench.sampler_probe"):
                    probe_sampler(w, graph, seed)
            finally:
                tracer.restore()
                clock.probe()
        metrics, self_ms = layer_metrics(tracer, reps, w.config.epochs, clock)
        detail["span_self_ms_per_epoch"] = self_ms
        units = PER_LAYER
    else:
        metrics = {name: _median(values) for name, values in timings.items()}
        metrics.update({
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_loss": final,
            "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
        })
        units = END_TO_END
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    return result, detail, tracer


def main(argv: list[str], root: Path) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    result, detail, _ = run(w, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0
