"""Each script under scripts/ runs end to end on a small input, and the
repository's pytest settings report a failing test in full."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

from slotgnn import training
from slotgnn.config import from_profile
from slotgnn.graph import SyntheticSpec, load_dataset, synthetic_generate

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_run_planted():
    lines = run_script("run_planted.py", "--epochs", "2", "--dim", "8", "--heads", "2")
    assert lines[0].startswith("trained 2 epochs in ")
    assert [line.split(":")[0] for line in lines[1:4]] == ["train", "valid", "test"]
    assert lines[4] == "node type item"
    assert len(lines) == 5 + 5  # the top 5 meta-paths


def test_run_ablations():
    lines = run_script("run_ablations.py", "--seeds", "1", "--epochs", "2")
    variants = ["full", "w/o seq", "w/o fus", "w/o rel"]
    assert [line[:8].strip() for line in lines[:4]] == variants
    assert all("test acc" in line and "(1 seeds)" in line for line in lines[:4])
    assert [line.split("  ")[0] for line in lines[4:7]] == [f"full - {v}" for v in variants[1:]]
    assert lines[-1].startswith("total ")


def test_make_dataset(tmp_path):
    out = tmp_path / "data"
    args = ["--targets", "30", "--mids", "10", "--attrs", "6", "--junk", "6"]
    lines = run_script("make_dataset.py", str(out), *args)
    graph = load_dataset(out)
    edges = sum(len(e) for e in graph.edges.values())
    assert graph.counts == {"item": 30, "mid": 10, "attr": 6, "junk": 6}
    assert lines == [f"wrote {out}: 52 nodes, {edges} edges"]


def test_segment_cost():
    lines = run_script("segment_cost.py", "--rows", "60", "--lengths", "2", "3", "--repeats", "1")
    assert lines[0].startswith("SWEEP_CALL_COST = ")
    assert lines[1].split() == [
        "length", "segments", "width", "reduceat_us", "sweep_us", "faster", "picks", "break_even",
    ]
    rows = [line.split() for line in lines[2:]]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        ("2", "30", "8"), ("2", "30", "24"), ("3", "20", "8"), ("3", "20", "24"),
    ]
    assert all(r[5] in ("sweep", "reduceat") and r[6] in ("sweep", "reduceat") for r in rows)


def test_step_memory():
    lines = run_script("step_memory.py", "--targets", "30", "--mids", "10", "--attrs", "6",
                       "--junk", "6")
    assert lines[0].split() == ["stage", "live_mib", "high_mib"]
    rows = [line.split() for line in lines[1:]]
    assert [r[0] for r in rows] == ["forward", "backward", "step", "evaluate"]
    assert all(float(r[1]) > 0 and float(r[2]) >= 0 for r in rows)


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@given(st.just(0))
@settings(derandomize=True, database=None)
def test_fails(x):
    assert x != 0
"""


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis's failure report raises a DeprecationWarning of its own; the
    # settings' warnings-as-errors must not turn it into an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1 and "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed" in done.stdout


def test_perfbench_hooks_install_and_restore(monkeypatch):
    # the benchmark traces the package by patching its functions by name, so
    # a renamed or deleted stage function must fail here, not only in a
    # traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    bench = importlib.import_module("bench")
    spans = importlib.import_module("spans")
    hostspeed = importlib.import_module("hostspeed")

    def current(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    tracer = spans.Tracer()
    try:
        bench.install_spans(tracer, hostspeed.HostClock())
        patched = list(tracer._patched)
        assert all(current(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        tracer.restore()
    assert {attr for _, attr, _ in patched} >= {
        "project_features", "slot_dropout", "layer_forward", "fuse", "classify",
        "project_qkv", "relation_attention", "extract_messages", "aggregate_messages",
        "encode_relations", "update_sequences",
    }
    assert all(current(owner, attr) is orig for owner, attr, orig in patched)


def test_perfbench_sampler_hook_sees_each_sampled_subgraph(monkeypatch):
    # the benchmark's traced run reads the subgraph train() samples through
    # the wrapped training.sample_subgraph, so a train() that stops calling
    # it, or that gets back something else, must fail here too
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    bench = importlib.import_module("bench")
    spans = importlib.import_module("spans")
    hostspeed = importlib.import_module("hostspeed")
    graph = synthetic_generate(
        SyntheticSpec(num_targets=60, num_mid=30, num_attr=10, num_junk=12), seed=0
    )
    config = from_profile("desk").replace(
        epochs=1, dim=8, heads=2, batch_mode="sampled", batches_per_epoch=2, batch_size=8,
        sample_budget=20,
    )
    tracer = spans.Tracer()
    try:
        bench.install_spans(tracer, hostspeed.HostClock())
        training.train(training.init_model(graph, config), graph, config)
    finally:
        tracer.restore()
    samples = [s for s in tracer.spans if s.name == "graph.sample"]
    assert len(samples) == 2
    assert all(s.attrs["nodes"] > 0 and s.attrs["edges"] > 0 for s in samples)
