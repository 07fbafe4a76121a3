"""Command-line entry points: train, eval, explain, gradcheck.

Config precedence: profile defaults, then the config file, then flags.
Config files are flat `key = value` lines with section prefixes, e.g.
``train.max_lr = 0.0005``. Exit codes: 0 success, 1 runtime failure,
2 config error, 3 dataset validation failure.

Every ``TrainConfig`` field is a flag named after it, with ``_`` written as
``-``: ``max_lr`` is ``--max-lr``. A field with choices takes only those. A
bool field is a switch that flips its default, named without any ``use_``
prefix and with ``no-`` in front when the default is true: ``use_seq`` is
``--no-seq`` and ``scale_outside`` is ``--scale-outside``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import difflib
import json
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

from . import artifacts
from .config import PROFILES, TrainConfig, from_profile
from .fixtures import GRADCHECK_SEED, gradcheck_graph
from .fusion import metapath_report
from .graph import DatasetError, load_dataset
from .training import evaluate, grad_check_model, init_model, train

GRADCHECK_LIMIT = 1e-4

# glibc's mallopt parameters (malloc.h) and the values the CLI gives them:
# free heap top kept before trimming, and the smallest block that gets its own
# mapping (32 MB is the ceiling of glibc's own sliding threshold on 64-bit)
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
KEEP_TRIM_BYTES, KEEP_MMAP_BYTES = 256 << 20, 32 << 20


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    train: TrainConfig
    dataset: str | None = None
    out: str = "runs/out"
    checkpoint: str | None = None
    profile: str = "desk"
    top_k: int = 5
    per_node: bool = False
    split: str = "test"

    def echo(self) -> dict:
        obj = dataclasses.asdict(self)
        obj["train"] = dataclasses.asdict(self.train)
        return obj


def _parse_bool(raw: str) -> bool:
    low = str(raw).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_TOP_KEYS = {
    "dataset": str,
    "out": str,
    "checkpoint": str,
    "profile": str,
    "seed": int,
    "explain.top_k": int,
    "explain.per_node": _parse_bool,
    "eval.split": str,
}


def _train_keys() -> dict[str, type]:
    casters = {int: int, float: float, str: str, bool: _parse_bool}
    return {
        f"train.{f.name}": casters[type(f.default)] for f in dataclasses.fields(TrainConfig)
    }


VALID_KEYS = {**_TOP_KEYS, **_train_keys()}


def read_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def parse_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Merge profile defaults, config file values, and flag overrides."""
    merged: dict[str, str] = {}
    if path is not None:
        merged.update(read_config_file(path))
    merged.update(overrides or {})

    for key in merged:
        if key not in VALID_KEYS:
            near = difflib.get_close_matches(key, VALID_KEYS, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")

    profile = str(merged.pop("profile", "desk"))
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    run = RunConfig(train=from_profile(profile), profile=profile)

    for key, raw in merged.items():
        caster = VALID_KEYS[key]
        try:
            value = caster(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
        # a key's last part names its field: train.dim is TrainConfig.dim, and
        # eval.split is RunConfig.split; the top-level seed is the train seed
        name = key.rsplit(".", 1)[-1]
        if key == "seed" or key.startswith("train."):
            run.train = run.train.replace(**{name: value})
        else:
            setattr(run, name, value)
    try:
        run.train.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return run


def _load_graph(run: RunConfig):
    if run.dataset is None:
        raise ConfigError("no dataset directory given (use --dataset or `dataset = ...`)")
    if not Path(run.dataset).is_dir():
        raise ConfigError(f"missing dataset directory: {run.dataset}")
    return load_dataset(run.dataset)


def _restore_model(run: RunConfig, graph):
    if run.checkpoint is None:
        raise ConfigError("this command needs --checkpoint pointing at a train output directory")
    ckpt_dir = Path(run.checkpoint)
    if ckpt_dir.is_file():
        ckpt_dir = ckpt_dir.parent
    if not (ckpt_dir / "checkpoint.idx").exists():
        raise ConfigError(f"no checkpoint found under {ckpt_dir}")
    saved_cfg = ckpt_dir / "config.json"
    if saved_cfg.exists():
        echo = json.loads(saved_cfg.read_text())
        run.train = TrainConfig(**echo["train"])
    model = init_model(graph, run.train)
    artifacts.load_checkpoint(model.named_parameters(), ckpt_dir)
    return model


def _final_metrics(model, graph):
    for split in ("test", "valid", "train"):
        ids = graph.splits.get(split)
        if ids is not None and ids.size:
            return evaluate(model, graph, split), split
    raise ConfigError("graph has no non-empty split to evaluate")


def _write_manifest(run: RunConfig, out: Path, command: str, outputs: list[str], dataset_hash=None):
    """manifest.json over ``outputs``, with the hash of the run's dataset
    unless ``dataset_hash`` is given."""
    dataset_hash = dataset_hash or artifacts.dataset_fingerprint(run.dataset)
    artifacts.write_manifest(out, command, run.echo(), run.train.seed, dataset_hash, outputs)


def cmd_train(run: RunConfig, out: Path) -> int:
    graph = _load_graph(run)
    model = init_model(graph, run.train)
    result = train(model, graph, run.train)
    outputs = artifacts.save_checkpoint(model.named_parameters(), out)
    outputs += artifacts.write_training_log(result.log, out)
    artifacts.write_json(
        {"seed": result.seed, "diverged": result.diverged, "entries": result.log}, out / "log.json"
    )
    artifacts.write_json(run.echo(), out / "config.json")
    outputs += ["log.json", "config.json"]
    metrics, split = _final_metrics(model, graph)
    artifacts.write_json(metrics, out / "metrics.json")
    _write_manifest(run, out, "train", outputs + ["metrics.json"])
    print(f"trained {run.train.epochs} epochs; {split} metrics: {metrics}")
    return 1 if result.diverged else 0


def cmd_eval(run: RunConfig, out: Path) -> int:
    graph = _load_graph(run)
    model = _restore_model(run, graph)
    metrics = evaluate(model, graph, run.split)
    artifacts.write_json(metrics, out / "metrics.json")
    _write_manifest(run, out, "eval", ["metrics.json"])
    print(json.dumps(metrics, sort_keys=True))
    return 0


def cmd_explain(run: RunConfig, out: Path) -> int:
    graph = _load_graph(run)
    model = _restore_model(run, graph)
    if not run.train.use_fusion:
        raise ConfigError("explain needs the fusion head (train.use_fusion = true)")
    forward = model.forward(graph, training=False)
    report = metapath_report(
        forward.fusion, model.head_labels, graph.schema,
        k=run.top_k, include_per_node=run.per_node,
    )
    artifacts.write_json(report.to_json(), out / "report.json")
    (out / "report.txt").write_text(report.render_text())
    _write_manifest(run, out, "explain", ["report.json", "report.txt"])
    print(report.render_text(), end="")
    return 0


def cmd_gradcheck(run: RunConfig, out: Path) -> int:
    if run.dataset is not None:
        graph = _load_graph(run)
        dataset_hash = artifacts.dataset_fingerprint(run.dataset)
    else:
        graph = gradcheck_graph()
        dataset_hash = "builtin:gradcheck"
        run.train = run.train.replace(dim=8, heads=2, layers=2, seed=GRADCHECK_SEED)
    run.train = run.train.replace(precision="float64", dropout=0.0)
    model = init_model(graph, run.train)
    report = grad_check_model(model, graph)
    artifacts.write_json(report, out / "gradcheck.json")
    _write_manifest(run, out, "gradcheck", ["gradcheck.json"], dataset_hash)
    width = max(len(name) for name in report)
    for name in sorted(report, key=lambda n: -report[n]):
        print(f"{name.ljust(width)}  {report[name]:.3e}")
    worst = max(report.values())
    print(f"worst relative error: {worst:.3e} (limit {GRADCHECK_LIMIT:g})")
    return 0 if worst < GRADCHECK_LIMIT else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--dataset", help="dataset directory")
    common.add_argument("--out", help="output directory (default runs/out)")
    common.add_argument("--checkpoint", help="directory holding checkpoint.bin/.idx")
    common.add_argument("--profile", choices=sorted(PROFILES))
    common.add_argument("--top-k", dest="explain.top_k", type=int, metavar="TOP_K")
    common.add_argument("--split", dest="eval.split", choices=["train", "valid", "test"])
    common.add_argument("--per-node", dest="explain.per_node", action="store_const", const=True)
    for f in dataclasses.fields(TrainConfig):
        key = f"train.{f.name}"
        name = f.name.removeprefix("use_").replace("_", "-")
        if isinstance(f.default, bool):
            switch = f"--no-{name}" if f.default else f"--{name}"
            common.add_argument(switch, dest=key, action="store_const", const=not f.default)
        else:
            choices = f.metadata.get("choices")
            common.add_argument(
                f"--{name}", dest=key, type=type(f.default), choices=choices,
                metavar=None if choices else f.name.upper(),
            )

    parser = argparse.ArgumentParser(prog="slotgnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "train a model and write checkpoint, logs, metrics"),
        ("eval", "evaluate a checkpoint on one split"),
        ("explain", "rank meta-path importances from fusion attention"),
        ("gradcheck", "finite-difference check of every parameter group"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict[str, str]:
    """Every flag given, keyed by its config key (each flag's ``dest``)."""
    return {
        key: str(value) for key, value in vars(args).items()
        if key in VALID_KEYS and value is not None
    }


def run(command: str, config: RunConfig) -> int:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    handler = {
        "train": cmd_train,
        "eval": cmd_eval,
        "explain": cmd_explain,
        "gradcheck": cmd_gradcheck,
    }[command]
    return handler(config, out)


def _keep_freed_memory() -> None:
    """Let glibc keep the memory a training step frees for the next step.

    By default it returns the freed top of the heap, and every block above
    its mmap threshold, to the OS after each step, and the next step faults
    them back in page by page. Raising both thresholds once keeps them
    mapped. Does nothing off glibc.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, KEEP_TRIM_BYTES)
    mallopt(M_MMAP_THRESHOLD, KEEP_MMAP_BYTES)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_memory()
    try:
        config = parse_config(args.config, _overrides_from_args(args))
        if args.out is None and config.out == "runs/out":
            config.out = f"runs/{args.command}"
        return run(args.command, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DatasetError as exc:
        print("dataset validation failed:", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
