"""Command-line entry points: train, eval, explain, gradcheck.

Config precedence: profile defaults, then the config file, then flags.
Config files are flat `key = value` lines; `#` starts a comment at the start
of a line or after whitespace. Exit codes: 0 success, 1 runtime failure,
2 config error, 3 dataset validation failure. Output goes to ``--out``, by
default ``runs/<command>``.

Each setting is one field of ``RunConfig`` or ``TrainConfig``. Its key is the
field's name behind its section, ``train.`` or the one in a ``RunConfig``
field's metadata: ``train.max_lr``, ``explain.top_k``, ``dataset``. The seed
is ``train.seed``, never a bare ``seed``. Its flag is the name alone, with
``_`` written as ``-``: ``--max-lr``, ``--top-k``. A field with choices takes
only those; one that defaults to None takes a string. A bool field is a
switch that flips its default, named without any ``use_`` prefix and with
``no-`` in front when the default is true: ``use_seq`` is ``--no-seq`` and
``scale_outside`` is ``--scale-outside``.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import difflib
import json
import platform
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import artifacts
from .config import PROFILES, TrainConfig, from_profile
from .fixtures import GRADCHECK_SEED, gradcheck_graph
from .fusion import metapath_report
from .graph import DatasetError, load_dataset
from .training import evaluate, grad_check_model, gradcheck_loss, init_model, train

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
    out: str | None = None
    checkpoint: str | None = None
    profile: str = field(default="desk", metadata={"choices": tuple(sorted(PROFILES))})
    top_k: int = field(default=5, metadata={"section": "explain"})
    per_node: bool = field(default=False, metadata={"section": "explain"})
    split: str = field(
        default="test", metadata={"section": "eval", "choices": ("train", "valid", "test")}
    )

    def echo(self) -> dict:
        return dataclasses.asdict(self)


def _parse_bool(raw: str) -> bool:
    low = str(raw).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _settings() -> dict[str, dataclasses.Field]:
    """Every setting's field by its config key, run-level ones first."""
    run_fields = [f for f in dataclasses.fields(RunConfig) if f.name != "train"]
    sections = [(f.metadata.get("section"), f) for f in run_fields]
    sections += [("train", f) for f in dataclasses.fields(TrainConfig)]
    return {f"{sec}.{f.name}" if sec else f.name: f for sec, f in sections}


SETTINGS = _settings()
_CASTERS = {int: int, float: float, str: str, bool: _parse_bool}
VALID_KEYS = {key: _CASTERS.get(type(f.default), str) for key, f in SETTINGS.items()}


def read_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
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

    values = {}
    for key, raw in merged.items():
        if key not in VALID_KEYS:
            near = difflib.get_close_matches(key, VALID_KEYS, n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")
        choices = SETTINGS[key].metadata.get("choices")
        try:
            values[key] = VALID_KEYS[key](raw)
            if choices and values[key] not in choices:
                raise ValueError(f"{raw!r} is not one of {', '.join(choices)}")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc

    profile = values.pop("profile", "desk")
    run = RunConfig(train=from_profile(profile), profile=profile)
    for key, value in values.items():
        if key.startswith("train."):
            run.train = run.train.replace(**{SETTINGS[key].name: value})
        else:
            setattr(run, SETTINGS[key].name, value)
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


def _saved_train(path: Path) -> TrainConfig:
    """The train settings a run directory's config.json holds, read as a
    config file's would be: an unknown key or a bad value is a config error."""
    try:
        saved = json.loads(path.read_text())["train"]
        return parse_config(None, {f"train.{k}": str(v) for k, v in saved.items()}).train
    except (ConfigError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
        run.train = _saved_train(saved_cfg)
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


def _project_gradcheck(model, graph) -> None:
    """Print to stderr what the check will take: two forwards and losses
    per coordinate, timed on one."""
    coords = sum(p.data.size for _, p in model.named_parameters())
    loss = gradcheck_loss(model, graph)
    loss()  # builds the blocks every later forward reuses
    start = time.perf_counter()
    loss()
    seconds = time.perf_counter() - start
    total = 2 * coords * seconds
    print(
        f"gradcheck: {coords} coordinates, {seconds * 1e3:.2f} ms per forward and loss, "
        f"projected {total:.0f} s ({total / 60:.1f} min)",
        file=sys.stderr,
    )


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
    _project_gradcheck(model, graph)
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
    for key, f in SETTINGS.items():
        name = f.name.removeprefix("use_").replace("_", "-")
        if isinstance(f.default, bool):
            switch = f"--no-{name}" if f.default else f"--{name}"
            common.add_argument(switch, dest=key, action="store_const", const=not f.default)
        else:
            choices = f.metadata.get("choices")
            common.add_argument(
                f"--{name}", dest=key, type=VALID_KEYS[key], choices=choices,
                metavar=None if choices else f.name.upper(),
            )

    parser = argparse.ArgumentParser(prog="slotgnn", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "train a model and write checkpoint, logs, metrics"),
        ("eval", "evaluate a checkpoint on one split"),
        ("explain", "rank meta-path importances from fusion attention"),
        ("gradcheck", "finite-difference check of every parameter group"),
    ):
        sub.add_parser(name, parents=[common], help=help_text, allow_abbrev=False)
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict[str, str]:
    """Every flag given, keyed by its config key (each flag's ``dest``)."""
    return {
        key: str(value) for key, value in vars(args).items()
        if key in VALID_KEYS and value is not None
    }


def run(command: str, config: RunConfig) -> int:
    if config.out is None:
        config.out = f"runs/{command}"
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
