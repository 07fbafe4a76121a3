"""Each script under scripts/ runs end to end on a small input."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

from slotgnn.graph import load_dataset

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
