"""Run artifacts: checkpoints, content hashes, manifests, training logs.

The checkpoint is a flat binary of named tensors plus a text index with one
`name shape offset dtype` line per tensor, so it can be read back without
this package. Every output a command writes lands in the run's output
directory and is listed (with its content hash) in manifest.json.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import tensor as T


def save_checkpoint(named_params: list[tuple[str, T.Tensor]], directory: str | Path) -> list[str]:
    directory = Path(directory)
    offset = 0
    lines = []
    with open(directory / "checkpoint.bin", "wb") as fh:
        for name, p in named_params:
            raw = np.ascontiguousarray(p.data).tobytes()
            fh.write(raw)
            shape = ",".join(str(s) for s in p.shape) or "scalar"
            lines.append(f"{name}\t{shape}\t{offset}\t{p.data.dtype.name}")
            offset += len(raw)
    (directory / "checkpoint.idx").write_text("\n".join(lines) + "\n")
    return ["checkpoint.bin", "checkpoint.idx"]


def load_checkpoint(named_params: list[tuple[str, T.Tensor]], directory: str | Path) -> None:
    """Fill the given tensors from a checkpoint; names and shapes must match, values be finite."""
    directory = Path(directory)
    path = directory / "checkpoint.bin"
    blob = path.read_bytes()
    params = dict(named_params)
    seen = set()
    for line in (directory / "checkpoint.idx").read_text().splitlines():
        name, shape_s, offset_s, dtype_s = line.split("\t")
        shape = tuple(int(s) for s in shape_s.split(",")) if shape_s != "scalar" else ()
        p = params.get(name)
        if p is None:
            raise KeyError(f"checkpoint contains unknown parameter {name!r}")
        if p.shape != shape:
            raise ValueError(f"parameter {name!r} has shape {p.shape}, checkpoint has {shape}")
        count = int(np.prod(shape)) if shape else 1
        dtype = np.dtype(dtype_s)
        start, end = int(offset_s), int(offset_s) + count * dtype.itemsize
        if not 0 <= start <= end <= len(blob):
            raise ValueError(f"{path}: parameter {name!r} needs bytes {start}..{end} of {len(blob)}")
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=start).reshape(shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: parameter {name!r} holds non-finite values")
        p.data = arr.astype(p.data.dtype, copy=True)
        seen.add(name)
    missing = set(params) - seen
    if missing:
        raise KeyError(f"checkpoint is missing parameters: {sorted(missing)}")


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dataset_fingerprint(directory: str | Path) -> str:
    """Content hash over every file in the dataset directory, name-ordered."""
    directory = Path(directory)
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def write_json(obj, path: str | Path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_training_log(result_log: list[dict], directory: str | Path) -> list[str]:
    directory = Path(directory)
    lines = []
    for e in result_log:
        lines.append(
            f"{e['epoch']}\t{e['loss']!r}\t{e['lr']!r}\t{e['val_micro_f1']!r}\t{e['val_macro_f1']!r}"
        )
    (directory / "log.txt").write_text("\n".join(lines) + ("\n" if lines else ""))
    return ["log.txt"]


def write_manifest(
    directory: str | Path,
    command: str,
    config_echo: dict,
    seed: int,
    dataset_hash: str,
    outputs: list[str],
) -> None:
    directory = Path(directory)
    listed = sorted(set(outputs) | {"manifest.json"})
    manifest = {
        "command": command,
        "config": config_echo,
        "seed": seed,
        "dataset_hash": dataset_hash,
        # the manifest cannot contain its own hash
        "outputs": {
            name: (file_sha256(directory / name) if name != "manifest.json" else None)
            for name in listed
        },
    }
    write_json(manifest, directory / "manifest.json")
