"""Smoke tests for the training benchmark, on reduced-size inputs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
from hostspeed import REFERENCE_S, HostClock  # noqa: E402
from spans import Span, check_nesting, self_times  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(w: bench.Workload) -> bench.Workload:
    """A reduced-size copy of a workload that runs in seconds."""
    spec = dataclasses.replace(w.spec, num_targets=120, num_mid=40, num_attr=8, num_junk=16)
    config = w.config.replace(
        epochs=6, dim=16, heads=2, max_lr=0.01, batch_size=32, sample_budget=60,
        batches_per_epoch=2,
    )
    return dataclasses.replace(w, spec=spec, config=config, setup_reps=1, eval_reps=2)


def test_declared_workloads_and_metrics_match_the_code():
    assert {w["name"] for w in DECLARED["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    w = smoke(bench.WORKLOADS[workload])
    result, detail, tracer = bench.run(w, seed=5, seconds=0.0, trace=trace, root=ROOT)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, detail["failures"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)), m["name"]
    assert detail["host_probe_s"]["n"] > 0
    if not trace:
        assert float.fromhex(detail["final_loss_hex"]) == result["metrics"]["final_loss"]["value"]
        return

    spans = tracer.spans
    assert check_nesting(spans) == []
    assert all(t >= 0.0 for t in self_times(spans))
    trains = [i for i, s in enumerate(spans) if s.name == "training.train"]
    assert len(trains) == 1 and spans[trains[0]].parent == -1
    children = {s.name for s in spans if s.parent == trains[0]}
    assert {"model.forward_train", "tensor.backward", "training.opt_step", "training.evaluate"} <= children
    assert "graph.sample" in {s.name for s in spans}
    layers = [s for s in spans if s.name == "layer.attention"]
    assert layers and all(spans[s.parent].name in ("layer.l1", "layer.l2") for s in layers)
    assert 0.0 < result["metrics"]["trace.coverage_pct"]["value"] <= 100.0


def test_nesting_check_reports_a_child_outside_its_parent():
    spans = [Span("outer", 0.0, 1.0), Span("inner", 0.5, 1.5, parent=0)]
    assert self_times(spans) == [0.0, 1.0]
    assert any("outside parent" in p for p in check_nesting(spans))


def test_host_clock_cuts_intervals_at_probes_and_scales_each_piece():
    clock = HostClock()
    clock.probes = [(0.0, REFERENCE_S), (1.0, 1.0 + 2 * REFERENCE_S), (2.0, 2.0 + REFERENCE_S)]
    assert clock.wall(0.5, 1.8) == pytest.approx(1.3 - 2 * REFERENCE_S)
    # both pieces lie between a probe at the reference speed and one at half of it
    assert clock.scaled(0.5, 1.8) == pytest.approx((1.3 - 2 * REFERENCE_S) / 2 ** 0.5)
    assert clock.scaled(1.2, 1.5) == pytest.approx(0.3 / 2 ** 0.5)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-full", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
