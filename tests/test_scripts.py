"""Each script under scripts/ runs end to end on a small input."""

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
