"""Heterogeneous graph schema, storage, dataset IO, synthetic data, sampling.

Node ids are dense and 0-based per type (the row index of the node file).
Relations are directed; messages flow source -> target. Duplicate edges are
kept (multigraph semantics); loading logs their count. Every per-relation view
stores its edges sorted by (target, source), here and nowhere else, so
downstream reductions run in a canonical order.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .tensor import BipartiteView, Segments

log = logging.getLogger(__name__)


class DatasetError(Exception):
    """Raised when a dataset directory fails validation."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class NodeType:
    name: str
    num_features: int
    feature_dim: int


@dataclass(frozen=True)
class Relation:
    src: str
    name: str
    dst: str

    @property
    def key(self) -> str:
        return f"{self.src}__{self.name}__{self.dst}"

    def __str__(self) -> str:
        return f"{self.src}-{self.name}->{self.dst}"


@dataclass
class Schema:
    node_types: list[NodeType]
    relations: list[Relation]
    target_type: str
    num_classes: int
    multilabel: bool = False

    def node_type(self, name: str) -> NodeType:
        for nt in self.node_types:
            if nt.name == name:
                return nt
        raise KeyError(name)

    def type_names(self) -> list[str]:
        return [nt.name for nt in self.node_types]

    def relations_into(self, type_name: str) -> list[Relation]:
        """Relations whose target type is ``type_name``, in declaration order."""
        return [r for r in self.relations if r.dst == type_name]

    def base_slots(self, type_name: str) -> int:
        """Slot count at layer 0; featureless types get one embedding slot."""
        return max(1, self.node_type(type_name).num_features)

    def to_json(self) -> dict:
        return {
            "node_types": [
                {"name": nt.name, "num_features": nt.num_features, "feature_dim": nt.feature_dim}
                for nt in self.node_types
            ],
            "relations": [{"src": r.src, "name": r.name, "dst": r.dst} for r in self.relations],
            "target_type": self.target_type,
            "num_classes": self.num_classes,
        }

    @staticmethod
    def from_json(obj: dict) -> "Schema":
        return Schema(
            node_types=[
                NodeType(t["name"], int(t["num_features"]), int(t["feature_dim"]))
                for t in obj["node_types"]
            ],
            relations=[Relation(r["src"], r["name"], r["dst"]) for r in obj["relations"]],
            target_type=obj["target_type"],
            num_classes=int(obj["num_classes"]),
        )


@dataclass
class Block:
    """The rows one layer reads and writes.

    ``inputs[name]`` lists, ascending, the nodes of each type whose state the
    layer reads. ``outputs[name]`` holds the positions within ``inputs[name]``
    of the nodes it writes, also ascending. ``views[rel]`` holds the edges into
    the output rows of ``rel.dst`` in the graph's (target, source) order, with
    sources numbered by position in ``inputs[rel.src]`` and targets by position
    among the outputs of ``rel.dst``.
    """

    inputs: dict[str, np.ndarray]
    outputs: dict[str, Segments]
    views: dict[Relation, BipartiteView]


@dataclass
class Blocks:
    """The per-layer blocks of a forward pass that returns some target rows.

    ``layers[l]`` is the block of layer l + 1; the outputs of one block are
    the inputs of the next, and the last one writes only the requested
    targets, which are distinct and ascend. ``heads[l]`` holds their positions
    among the target rows of the state before layer l + 1 (``heads[-1]``,
    after the last layer, is the identity).
    """

    layers: list[Block]
    heads: list[Segments]


class HeteroGraph:
    """Immutable typed graph with per-type features, labels and splits."""

    def __init__(
        self,
        schema: Schema,
        counts: dict[str, int],
        features: dict[str, np.ndarray],
        edges: dict[Relation, np.ndarray],
        labels: np.ndarray,
        labeled_mask: np.ndarray,
        splits: dict[str, np.ndarray],
        orig_ids: dict[str, np.ndarray] | None = None,
    ):
        self.schema = schema
        self.counts = counts
        self.features = features
        self.edges = edges
        self.labels = labels
        self.labeled_mask = labeled_mask
        self.splits = {k: np.sort(np.asarray(v, dtype=np.int64)) for k, v in splits.items()}
        # identity of each node in the graph this one was induced from
        self.orig_ids = orig_ids or {
            name: np.arange(n, dtype=np.int64) for name, n in counts.items()
        }
        self._views: dict[Relation, BipartiteView] = {}
        self._blocks: dict[tuple[int, bytes | None], Blocks] = {}

    def bipartite(self, relation: Relation) -> BipartiteView:
        """CSR view over targets; built once, edges sorted by (target, source)."""
        if relation not in self.edges:
            raise KeyError(f"unknown relation {relation}")
        view = self._views.get(relation)
        if view is None:
            pairs = self.edges[relation].reshape(-1, 2)
            order = _edge_order(pairs, self.counts[relation.src])
            dst = Segments(pairs[order, 1], self.counts[relation.dst])
            view = BipartiteView(pairs[order, 0], dst, self.counts[relation.src])
            self._views[relation] = view
        return view

    def block(self, outputs: dict[str, np.ndarray] | None = None) -> Block:
        """The block of a layer that writes the ascending node ids ``outputs``
        names per type; None means every node, the block of a full layer.

        A layer reads the nodes it writes and the sources of every edge into
        them.
        """
        if outputs is None:
            outputs = {name: np.arange(n, dtype=np.int64) for name, n in self.counts.items()}
        pairs = {
            rel: _edges_into(self.bipartite(rel), outputs[rel.dst]) for rel in self.schema.relations
        }
        inputs = {
            name: _sorted_unique(np.concatenate(
                [outputs[name]] + [src for rel, (src, _) in pairs.items() if rel.src == name]
            ))
            for name in self.schema.type_names()
        }
        views = {
            rel: BipartiteView(
                np.searchsorted(inputs[rel.src], src),
                Segments(np.searchsorted(outputs[rel.dst], dst), outputs[rel.dst].size),
                inputs[rel.src].size,
            )
            for rel, (src, dst) in pairs.items()
        }
        positions = {
            name: Segments(np.searchsorted(ids, outputs[name]), ids.size)
            for name, ids in inputs.items()
        }
        return Block(inputs, positions, views)

    def blocks(self, rows: np.ndarray | None, num_layers: int) -> Blocks:
        """The blocks of a ``num_layers``-layer pass whose logits are the
        target nodes ``rows``, distinct and ascending (None: every target
        node); other rows raise ValueError.

        Built backwards from the last layer, which writes only the requested
        targets; each earlier layer writes what the next one reads, which is
        GraphSAGE's per-layer node sets (Hamilton et al., 2017, Alg. 2) or
        DGL's message-flow blocks. So a layer computes no node that cannot
        reach a requested logit within the remaining layers.

        Built on first use and cached per (``num_layers``, bytes of ``rows``).
        An entry holds, per layer, the input node ids of every type, one
        ``Segments`` per type for the output positions and one view per
        relation for the edges into the outputs; that is a few int64 arrays
        the size of the nodes and edges within ``num_layers`` hops of the
        rows, and the structure of each view's edge matrix once it is used.
        """
        target = self.schema.target_type
        n_target = self.counts[target]
        final = np.arange(n_target) if rows is None else np.asarray(rows, dtype=np.int64)
        if final.ndim != 1 or np.any(final[1:] <= final[:-1]):
            raise ValueError("rows must be distinct and ascending")
        if final.size and (final[0] < 0 or final[-1] >= n_target):
            raise ValueError(f"rows must be ids of type {target!r}")
        key = (num_layers, None if rows is None else final.tobytes())
        cached = self._blocks.get(key)
        if cached is not None:
            return cached
        none = np.zeros(0, dtype=np.int64)
        outputs = {name: final if name == target else none for name in self.schema.type_names()}
        layers: list[Block] = []
        for _ in range(num_layers):
            layers.insert(0, self.block(outputs))
            outputs = layers[0].inputs
        heads = [
            Segments(np.searchsorted(b.inputs[target], final), b.inputs[target].size)
            for b in layers
        ] + [Segments(np.arange(final.size), final.size)]
        cached = self._blocks[key] = Blocks(layers, heads)
        return cached


@dataclass
class Subgraph:
    """An induced subgraph, whose ``graph.orig_ids`` name its nodes in the
    root graph, and the batch targets' rows in it."""

    graph: HeteroGraph
    batch_local: np.ndarray


# ---------------------------------------------------------------------------
# dataset directory IO


@dataclass
class RawDataset:
    """Parsed but unvalidated contents of a dataset directory."""

    schema: Schema | None = None
    node_ids: dict[str, np.ndarray] = field(default_factory=dict)
    node_features: dict[str, np.ndarray] = field(default_factory=dict)
    edges: dict[Relation, np.ndarray] = field(default_factory=dict)
    label_rows: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    multilabel: bool = False
    splits: dict[str, list[int]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _read_csv(path: Path) -> tuple[str, str]:
    """A CSV file's first line, without its CR, and the text after it."""
    with open(path, newline="") as fh:
        head, _, body = fh.read().partition("\n")
    return head.removesuffix("\r"), body


# the ASCII separators FS, GS, RS and US, which np.loadtxt takes for whitespace
# around a value, where int() and float() reject them
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _read_table(path: Path, body: str, width: int, dtype) -> np.ndarray:
    """The lines of ``body``, the text after a CSV file's header, read by
    ``np.loadtxt`` into ``dtype``: one record per line for a structured
    ``dtype``, a (lines, ``width``) table for a plain one.

    A body loadtxt does not read as one row per line of ``width`` values, or
    that holds an ASCII separator, is read again a line at a time, and
    ValueError names the file and the first bad line (the header is line 1).
    """
    dtype = np.dtype(dtype)
    lines = body.count("\n") + (not body.endswith("\n")) if body else 0
    shape = (lines,) if dtype.names else (lines, width)
    if not lines:  # loadtxt warns on input without data
        return np.zeros(shape, dtype)

    def read(text):
        return np.loadtxt(io.StringIO(text), dtype=dtype, delimiter=",", quotechar='"',
                          comments=None, ndmin=len(shape))

    try:
        clean = body.strip("\r\n") and not any(sep in body for sep in _SEPARATORS)
        table = read(body) if clean else None
    except ValueError:
        table = None
    if table is not None and table.shape == shape:
        return table
    for n, line in enumerate(body.split("\n")[:lines], start=2):
        row = line.removesuffix("\r")
        values = row.count(",") + 1 if row else 0
        if values != width:
            raise ValueError(f"{path.name} line {n}: {values} values, expected {width}")
        for sep in _SEPARATORS:
            if sep in row:
                raise ValueError(f"{path.name} line {n}: ASCII separator {sep!r} in a value")
        try:
            read(line)
        except ValueError as exc:
            raise ValueError(f"{path.name} line {n}: {str(exc).partition(' at row')[0]}") from None
        # a quote left open reads alone but runs into the next line in the file
        if line.count('"') % 2:
            raise ValueError(f"{path.name} line {n}: quote not closed on its line")
    raise AssertionError(f"{path.name}: loadtxt rejects the whole file but no line of it")


def read_raw(directory: str | Path) -> RawDataset:
    """Parse a dataset directory without validating it.

    Every CSV file is a header line, then one row per line with as many
    comma-separated values as the header names, and no blank lines; LF or
    CRLF end the lines, and the last line may lack one. A value may be quoted
    with ``"``, and whitespace around it is ignored. Node ids, edge endpoints
    and label values are int64 integers in ASCII digits with an optional
    sign; features are decimal floats (``1.5``, ``-2e-3``, ``nan``, ``inf``),
    read as float64 and rounded to float32. ``np.loadtxt`` reads each file in
    one call. What it rejects is reported with the file and the first bad line
    (the header is line 1): a row of another width, an id written ``1.0`` or
    past int64, digit underscores (``1_0``), non-ASCII digits, or a quote
    left open at the end of its line. So is an ASCII separator
    (``\\x1c``-``\\x1f``), which loadtxt would take for whitespace.
    """
    raw = RawDataset()
    directory = Path(directory)
    schema_path = directory / "schema.json"
    if not schema_path.exists():
        raw.errors.append("missing file schema.json")
        return raw
    try:
        raw.schema = Schema.from_json(json.loads(schema_path.read_text()))
    except (KeyError, ValueError, TypeError) as exc:
        raw.errors.append(f"schema.json unreadable: {exc}")
        return raw
    schema = raw.schema

    for nt in schema.node_types:
        path = directory / f"nodes_{nt.name}.csv"
        if not path.exists():
            raw.errors.append(f"missing file {path.name}")
            continue
        header, body = _read_csv(path)
        width = nt.num_features * nt.feature_dim
        expected = ",".join(["id"] + [
            f"f{f}_{k}" for f in range(nt.num_features) for k in range(nt.feature_dim)
        ])
        if header != expected:
            raw.errors.append(f"{path.name}: header mismatch, expected {expected}")
            continue
        dtype = [("id", np.int64), ("f", np.float64, (width,))]
        try:
            table = _read_table(path, body, 1 + width, dtype)
        except ValueError as exc:
            raw.errors.append(str(exc))
            continue
        with np.errstate(over="ignore"):  # past float32's range is inf, reported below
            feats = table["f"].astype(np.float32)
        feats = feats.reshape(len(table), nt.num_features, nt.feature_dim)
        bad = np.flatnonzero(~np.isfinite(feats).all(axis=(1, 2)))
        if bad.size:
            raw.errors.append(f"{path.name} line {bad[0] + 2}: feature value is not finite")
            continue
        raw.node_ids[nt.name] = np.ascontiguousarray(table["id"])
        raw.node_features[nt.name] = feats

    for rel in schema.relations:
        path = directory / f"edges_{rel.key}.csv"
        if not path.exists():
            raw.errors.append(f"missing file {path.name}")
            continue
        header, body = _read_csv(path)
        if header != "src_id,dst_id":
            raw.errors.append(f"{path.name}: header mismatch, expected src_id,dst_id")
            continue
        try:
            raw.edges[rel] = _read_table(path, body, 2, np.int64)
        except ValueError as exc:
            raw.errors.append(str(exc))

    labels_path = directory / "labels.csv"
    if not labels_path.exists():
        raw.errors.append("missing file labels.csv")
    else:
        head, body = _read_csv(labels_path)
        header = head.split(",")
        if header[:1] != ["id"] or len(header) < 2:
            raw.errors.append("labels.csv: header mismatch, expected id,label[...]")
        else:
            raw.multilabel = header != ["id", "label"]
            if raw.multilabel and header != ["id"] + [f"label{c}" for c in range(len(header) - 1)]:
                raw.errors.append("labels.csv: header mismatch for multi-label file")
            try:
                raw.label_rows = _read_table(labels_path, body, len(header), np.int64)
            except ValueError as exc:
                raw.errors.append(str(exc))

    splits_path = directory / "splits.json"
    if not splits_path.exists():
        raw.errors.append("missing file splits.json")
    else:
        try:
            obj = json.loads(splits_path.read_text())
            splits = {k: list(obj[k]) for k in ("train", "valid", "test")}
        except (KeyError, ValueError, TypeError) as exc:
            raw.errors.append(f"splits.json unreadable: {exc}")
        else:
            # a JSON integer loads as int; 2.5, true and "3" are not ids
            bad = [(k, i) for k, ids in splits.items() for i in ids if type(i) is not int]
            if bad:
                part, value = bad[0]
                raw.errors.append(f"splits.json: {part} id {json.dumps(value)} is not an integer")
            else:
                raw.splits = splits
    return raw


def validate_schema(schema: Schema, raw: RawDataset) -> list[str]:
    """Exhaustively check referential and arity constraints; returns all errors."""
    errors: list[str] = []
    names = [nt.name for nt in schema.node_types]
    for name in set(names):
        if names.count(name) > 1:
            errors.append(f"duplicate node type {name!r}")
    seen_rel: set[tuple[str, str, str]] = set()
    for rel in schema.relations:
        triple = (rel.src, rel.name, rel.dst)
        if triple in seen_rel:
            errors.append(f"duplicate relation {rel}")
        seen_rel.add(triple)
        for endpoint in (rel.src, rel.dst):
            if endpoint not in names:
                errors.append(f"relation {rel}: unknown type {endpoint!r}")
    if len(schema.node_types) + len(schema.relations) <= 2:
        errors.append("graph is not heterogeneous: need |node types| + |relations| > 2")
    if schema.target_type not in names:
        errors.append(f"unknown target type {schema.target_type!r}")
    if schema.num_classes < 2:
        errors.append("num_classes must be at least 2")

    counts: dict[str, int] = {}
    for nt in schema.node_types:
        ids = raw.node_ids.get(nt.name)
        if ids is None:
            continue
        counts[nt.name] = len(ids)
        if not np.array_equal(ids, np.arange(len(ids))):
            errors.append(f"nodes_{nt.name}.csv: id column must equal the row index")

    for rel, pairs in raw.edges.items():
        if rel.src not in counts or rel.dst not in counts:
            continue
        if pairs.size:
            in_range = True
            if pairs[:, 0].min() < 0 or pairs[:, 0].max() >= counts[rel.src]:
                errors.append(f"edges_{rel.key}.csv: source id out of range")
                in_range = False
            if pairs[:, 1].min() < 0 or pairs[:, 1].max() >= counts[rel.dst]:
                errors.append(f"edges_{rel.key}.csv: target id out of range")
                in_range = False
            if in_range:
                # one int64 key per (source, target) pair
                uniq = _sorted_unique(pairs[:, 0] * counts[rel.dst] + pairs[:, 1]).size
                if uniq < len(pairs):
                    log.info("relation %s has %d duplicate edges (kept)", rel, len(pairs) - uniq)

    n_target = counts.get(schema.target_type)
    rows = raw.label_rows
    if n_target is not None and len(rows):
        width = 1 if not raw.multilabel else schema.num_classes
        if rows.shape[1] != width + 1:
            errors.append("labels.csv: row arity mismatch")
        elif raw.multilabel:
            bad = np.flatnonzero(~np.isin(rows[:, 1:], (0, 1)).all(axis=1))
            if bad.size:
                errors.append(f"labels.csv line {bad[0] + 2}: label flags must be 0 or 1")
        ids = rows[:, 0]
        if ids.min() < 0 or ids.max() >= n_target:
            errors.append("labels.csv: id out of range")
        repeated = _repeats(ids)
        if repeated.size:
            line = repeated[0] + 2
            errors.append(f"labels.csv line {line}: second label row for id {ids[repeated[0]]}")
        if not raw.multilabel and (rows[:, 1].min() < 0 or rows[:, 1].max() >= schema.num_classes):
            errors.append("labels.csv: class out of range")

    if raw.splits and n_target is not None:
        seen = np.zeros(0, dtype=np.int64)
        for part in ("train", "valid", "test"):
            listed = raw.splits.get(part, [])
            try:
                ids = np.array(listed, dtype=np.int64)
            except OverflowError:  # an id past int64 is out of range; keep Python ints
                ids = np.array(listed, dtype=object)
            outside = (ids < 0) | (ids >= n_target)
            unlabeled = ~outside & ~np.isin(ids, rows[:, 0])
            again = np.zeros(ids.size, dtype=bool)
            again[_repeats(ids)] = True
            for k in np.flatnonzero(outside | unlabeled | again):
                if outside[k]:
                    errors.append(f"splits.json: {part} id {listed[k]} out of range")
                elif unlabeled[k]:
                    errors.append(f"splits.json: {part} id {listed[k]} has no label")
                if again[k]:
                    errors.append(f"splits.json: {part} id {listed[k]} listed twice")
            overlap = np.isin(ids, seen)
            if overlap.any():
                errors.append(f"splits.json: splits not disjoint (id {ids[overlap].min()})")
            seen = np.concatenate([seen, ids])
    return errors


def _repeats(ids: np.ndarray) -> np.ndarray:
    """The positions, ascending, of the values of ``ids`` seen earlier in it."""
    order = np.argsort(ids, kind="stable")
    return np.sort(order[1:][ids[order[1:]] == ids[order[:-1]]])


def build_graph(raw: RawDataset) -> HeteroGraph:
    schema = raw.schema
    assert schema is not None
    schema.multilabel = raw.multilabel
    counts = {nt.name: len(raw.node_ids[nt.name]) for nt in schema.node_types}
    n_target = counts[schema.target_type]
    rows = raw.label_rows
    labeled = np.zeros(n_target, dtype=bool)
    labeled[rows[:, 0]] = True
    if raw.multilabel:
        labels = np.zeros((n_target, schema.num_classes), dtype=np.float32)
        labels[rows[:, 0]] = rows[:, 1:]
    else:
        labels = np.full(n_target, -1, dtype=np.int64)
        labels[rows[:, 0]] = rows[:, 1]
    return HeteroGraph(
        schema=schema,
        counts=counts,
        features=dict(raw.node_features),
        edges=dict(raw.edges),
        labels=labels,
        labeled_mask=labeled,
        splits={k: np.array(v, dtype=np.int64) for k, v in raw.splits.items()},
    )


def load_dataset(directory: str | Path) -> HeteroGraph:
    """Load and validate a dataset directory; raises DatasetError on problems."""
    raw = read_raw(directory)
    errors = list(raw.errors)
    if raw.schema is not None:
        errors.extend(validate_schema(raw.schema, raw))
    if errors:
        raise DatasetError(errors)
    return build_graph(raw)


def _fmt(value: np.floating) -> str:
    return repr(float(np.float32(value)))


def save_dataset(graph: HeteroGraph, directory: str | Path) -> None:
    """Write a graph in the dataset directory layout (LF endings, UTF-8)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "schema.json").write_text(json.dumps(graph.schema.to_json(), indent=1) + "\n")
    for nt in graph.schema.node_types:
        feats = graph.features[nt.name]
        with open(directory / f"nodes_{nt.name}.csv", "w", newline="\n") as fh:
            header = ["id"] + [
                f"f{f}_{k}" for f in range(nt.num_features) for k in range(nt.feature_dim)
            ]
            fh.write(",".join(header) + "\n")
            for i in range(graph.counts[nt.name]):
                row = [str(i)] + [_fmt(v) for v in feats[i].reshape(-1)]
                fh.write(",".join(row) + "\n")
    for rel in graph.schema.relations:
        with open(directory / f"edges_{rel.key}.csv", "w", newline="\n") as fh:
            fh.write("src_id,dst_id\n")
            for s, t in graph.edges[rel]:
                fh.write(f"{s},{t}\n")
    with open(directory / "labels.csv", "w", newline="\n") as fh:
        if graph.schema.multilabel:
            fh.write("id," + ",".join(f"label{c}" for c in range(graph.schema.num_classes)) + "\n")
            for i in np.flatnonzero(graph.labeled_mask):
                flags = ",".join(str(int(v)) for v in graph.labels[i])
                fh.write(f"{i},{flags}\n")
        else:
            fh.write("id,label\n")
            for i in np.flatnonzero(graph.labeled_mask):
                fh.write(f"{i},{int(graph.labels[i])}\n")
    splits = {k: [int(i) for i in graph.splits.get(k, [])] for k in ("train", "valid", "test")}
    (directory / "splits.json").write_text(json.dumps(splits) + "\n")


# ---------------------------------------------------------------------------
# synthetic graphs


@dataclass
class SyntheticSpec:
    """Desk-scale generator config: one label-generating 2-hop path + noise.

    Labels of ``item`` nodes are the majority class over all 2-hop paths
    item <- mid <- attr (counted with multiplicity, ties to the lowest class).
    The attr class is visible in the attr node features; every other feature
    and the junk relations are label-independent noise. Attr and mid classes
    are assigned round-robin, and wiring is class-coherent with probability
    ``coherence``, which keeps the majority signal strong and the label
    histogram roughly balanced. Junk features are random one-hots in the same
    class space as attr features: independent of the labels, but corrosive to
    any aggregation that blends relation blocks together.
    """

    num_targets: int = 600
    num_classes: int = 4
    num_mid: int = 200
    num_attr: int = 40
    num_junk: int = 80
    mids_per_target: int = 3
    attrs_per_mid: int = 3
    junk_per_target: int = 2
    junk_per_mid: int = 1
    feature_dim: int = 8
    attr_noise: float = 0.1
    coherence: float = 0.9
    planted: bool = True
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)

    TARGET = "item"
    MID = "mid"
    ATTR = "attr"
    JUNK = "junk"
    PLANTED_FIRST_HOP = Relation("attr", "tags", "mid")
    PLANTED_SECOND_HOP = Relation("mid", "of", "item")


def synthetic_generate(spec: SyntheticSpec, seed: int) -> HeteroGraph:
    if spec.num_targets <= 0:
        raise ValueError("synthetic spec must declare at least one target node")
    rng = np.random.default_rng(seed)
    c = spec.num_classes

    node_types = [
        NodeType(spec.TARGET, 1, spec.feature_dim),
        NodeType(spec.MID, 1, spec.feature_dim),
        NodeType(spec.JUNK, 1, c),
    ]
    relations = []
    if spec.planted:
        node_types.insert(2, NodeType(spec.ATTR, 1, c))
        relations.extend([spec.PLANTED_FIRST_HOP, spec.PLANTED_SECOND_HOP])
    relations.extend([Relation("junk", "noise", "item"), Relation("junk", "chatter", "mid")])
    schema = Schema(node_types, relations, spec.TARGET, c)

    counts = {spec.TARGET: spec.num_targets, spec.MID: spec.num_mid, spec.JUNK: spec.num_junk}
    features = {
        name: rng.normal(size=(n, 1, spec.feature_dim)).astype(np.float32)
        for name, n in ((spec.TARGET, spec.num_targets), (spec.MID, spec.num_mid))
    }
    junk_fake = np.eye(c, dtype=np.float32)[rng.integers(0, c, size=spec.num_junk)]
    junk_noise = rng.normal(scale=spec.attr_noise, size=(spec.num_junk, c)).astype(np.float32)
    features[spec.JUNK] = (junk_fake + junk_noise).reshape(spec.num_junk, 1, c)
    edges: dict[Relation, np.ndarray] = {}

    if spec.planted:
        counts[spec.ATTR] = spec.num_attr
        attr_classes = np.arange(spec.num_attr, dtype=np.int64) % c
        mid_classes = np.arange(spec.num_mid, dtype=np.int64) % c
        item_classes = rng.integers(0, c, size=spec.num_targets)
        one_hot = np.eye(c, dtype=np.float32)[attr_classes]
        noise = rng.normal(scale=spec.attr_noise, size=(spec.num_attr, c)).astype(np.float32)
        features[spec.ATTR] = (one_hot + noise).reshape(spec.num_attr, 1, c)

        def coherent_pick(pool_classes: np.ndarray, want_class: int, count: int) -> list[int]:
            own = np.flatnonzero(pool_classes == want_class)
            picks = []
            for _ in range(count):
                if rng.random() < spec.coherence:
                    picks.append(int(rng.choice(own)))
                else:
                    picks.append(int(rng.integers(0, len(pool_classes))))
            return picks

        tags = np.array(
            [
                (a, m)
                for m in range(spec.num_mid)
                for a in coherent_pick(attr_classes, int(mid_classes[m]), spec.attrs_per_mid)
            ],
            dtype=np.int64,
        ).reshape(-1, 2)  # (0, 2) when no edge is drawn
        of = np.array(
            [
                (m, t)
                for t in range(spec.num_targets)
                for m in coherent_pick(mid_classes, int(item_classes[t]), spec.mids_per_target)
            ],
            dtype=np.int64,
        ).reshape(-1, 2)  # (0, 2) when no edge is drawn
        edges[spec.PLANTED_FIRST_HOP] = tags
        edges[spec.PLANTED_SECOND_HOP] = of

        # class histograms of each mid's attrs, then of each target's 2-hop
        # paths, both counted with multiplicity; argmax ties go to the lowest
        mid_hist = Segments(tags[:, 1], spec.num_mid).sum(
            np.eye(c, dtype=np.int64)[attr_classes[tags[:, 0]]]
        )
        labels = np.argmax(Segments(of[:, 1], spec.num_targets).sum(mid_hist[of[:, 0]]), axis=1)
    else:
        labels = rng.integers(0, c, size=spec.num_targets)

    edges[Relation("junk", "noise", "item")] = np.array(
        [
            (j, t)
            for t in range(spec.num_targets)
            for j in rng.choice(spec.num_junk, size=spec.junk_per_target, replace=False)
        ],
        dtype=np.int64,
    )
    edges[Relation("junk", "chatter", "mid")] = np.array(
        [
            (j, m)
            for m in range(spec.num_mid)
            for j in rng.choice(spec.num_junk, size=spec.junk_per_mid, replace=False)
        ],
        dtype=np.int64,
    )

    perm = rng.permutation(spec.num_targets)
    n_train = int(spec.split_fractions[0] * spec.num_targets)
    n_valid = int(spec.split_fractions[1] * spec.num_targets)
    splits = {
        "train": perm[:n_train],
        "valid": perm[n_train: n_train + n_valid],
        "test": perm[n_train + n_valid:],
    }
    return HeteroGraph(
        schema=schema,
        counts=counts,
        features=features,
        edges=edges,
        labels=labels,
        labeled_mask=np.ones(spec.num_targets, dtype=bool),
        splits=splits,
    )


# ---------------------------------------------------------------------------
# budgeted subgraph sampling


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``np.unique(ids)`` by a sort and a mask: numpy 2.x may take a hash
    path for integer input, several times slower on a few thousand ids."""
    ids = np.sort(ids)
    return ids[np.concatenate(([True], ids[1:] != ids[:-1]))] if ids.size else ids


def _edge_order(pairs: np.ndarray, n_src: int) -> np.ndarray:
    """``np.lexsort((src, dst))``: the stable permutation that sorts the
    (source, target) ``pairs`` by target, then source, by one argsort.

    The key dst * n_src + src is below n_dst * n_src, which fits int64 while
    both counts are below 3e9 (an id column of 3e9 nodes alone takes 24 GB).
    """
    return np.argsort(pairs[:, 1] * n_src + pairs[:, 0], kind="stable")


def _edges_into(view: BipartiteView, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sources, targets) of the edges into ``targets``: their CSR slices,
    concatenated without a Python loop, so in (target, source) order when
    ``targets`` ascend."""
    indptr = view.dst.indptr
    starts = indptr[targets]
    lengths = indptr[targets + 1] - starts
    offsets = np.cumsum(lengths) - lengths
    pos = np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))
    return view.src[pos], view.dst.ids[pos]


def sample_subgraph(
    graph: HeteroGraph,
    batch_targets: np.ndarray,
    depth: int,
    budget: int,
    seed: int,
) -> Subgraph:
    """Importance-style budgeted frontier expansion around a target batch.

    For ``depth`` rounds, each relation's sources feeding the current frontier
    become candidates; per node type at most ``budget`` new nodes are kept per
    round, sampled with probability proportional to their edge count into the
    frontier. The returned subgraph is induced on everything selected.
    """
    if depth < 1 or budget < 1:
        raise ValueError("depth and budget must be at least 1")
    schema = graph.schema
    batch = _sorted_unique(np.asarray(batch_targets, dtype=np.int64))
    n_target = graph.counts[schema.target_type]
    if batch.size == 0 or batch.min() < 0 or batch.max() >= n_target:
        raise ValueError(f"batch targets must be ids of type {schema.target_type!r}")
    rng = np.random.default_rng(seed)

    selected = {name: np.zeros(n, dtype=bool) for name, n in graph.counts.items()}
    selected[schema.target_type][batch] = True
    frontier: dict[str, np.ndarray] = {schema.target_type: batch}

    for _ in range(depth):
        weights: dict[str, np.ndarray] = {}
        for rel in schema.relations:
            targets = frontier.get(rel.dst)
            if targets is None:
                continue
            sources, _ = _edges_into(graph.bipartite(rel), targets)
            w = weights.setdefault(rel.src, np.zeros(graph.counts[rel.src], dtype=np.float64))
            w += np.bincount(sources, minlength=w.size)
        next_frontier: dict[str, np.ndarray] = {}
        for name in schema.type_names():
            w = weights.get(name)
            if w is None:
                continue
            w[selected[name]] = 0.0
            candidates = np.flatnonzero(w)
            if candidates.size == 0:
                continue
            if candidates.size > budget:
                p = w[candidates] / w[candidates].sum()
                candidates = np.sort(rng.choice(candidates, size=budget, replace=False, p=p))
            selected[name][candidates] = True
            next_frontier[name] = candidates
        frontier = next_frontier
        if not frontier:
            break

    node_ids = {name: np.flatnonzero(mask) for name, mask in selected.items()}
    counts = {name: int(ids.size) for name, ids in node_ids.items()}
    features = {name: graph.features[name][ids] for name, ids in node_ids.items()}
    edges: dict[Relation, np.ndarray] = {}
    for rel in schema.relations:
        # the edges into selected targets, kept where the source is selected
        src, dst = _edges_into(graph.bipartite(rel), node_ids[rel.dst])
        keep = selected[rel.src][src]
        edges[rel] = np.stack([
            np.searchsorted(node_ids[rel.src], src[keep]),
            np.searchsorted(node_ids[rel.dst], dst[keep]),
        ], axis=1)

    target_ids = node_ids[schema.target_type]
    sub = HeteroGraph(
        schema=schema,
        counts=counts,
        features=features,
        edges=edges,
        labels=graph.labels[target_ids],
        labeled_mask=graph.labeled_mask[target_ids],
        splits={},
        orig_ids={name: graph.orig_ids[name][ids] for name, ids in node_ids.items()},
    )
    batch_local = np.searchsorted(target_ids, batch)
    return Subgraph(graph=sub, batch_local=batch_local)
