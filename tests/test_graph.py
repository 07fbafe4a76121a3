import json
import logging
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slotgnn import graph as graph_module
from slotgnn.graph import (
    DatasetError,
    HeteroGraph,
    NodeType,
    Relation,
    Schema,
    SyntheticSpec,
    load_dataset,
    read_raw,
    sample_subgraph,
    save_dataset,
    synthetic_generate,
    validate_schema,
)

from . import oracles


def small_spec(**kw):
    defaults = dict(num_targets=40, num_mid=20, num_attr=8, num_junk=10, num_classes=3)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


@pytest.fixture
def graph():
    return synthetic_generate(small_spec(), seed=11)


def dblp_shaped_graph():
    # same shape as the classic bibliography benchmark: 4 node types,
    # 6 relations, author as the 4-class target
    schema = Schema(
        node_types=[
            NodeType("author", 1, 4),
            NodeType("paper", 1, 4),
            NodeType("term", 1, 2),
            NodeType("venue", 0, 0),
        ],
        relations=[
            Relation("paper", "writes_rev", "author"),
            Relation("author", "writes", "paper"),
            Relation("term", "mentions_rev", "paper"),
            Relation("paper", "mentions", "term"),
            Relation("venue", "publishes", "paper"),
            Relation("paper", "published_in", "venue"),
        ],
        target_type="author",
        num_classes=4,
    )
    rng = np.random.default_rng(0)
    counts = {"author": 5, "paper": 6, "term": 3, "venue": 2}
    features = {
        name: rng.normal(size=(n, schema.node_type(name).num_features,
                               max(schema.node_type(name).feature_dim, 1))).astype(np.float32)
        if schema.node_type(name).num_features
        else np.zeros((n, 0, 0), dtype=np.float32)
        for name, n in counts.items()
    }
    edges = {}
    for rel in schema.relations:
        n_s, n_d = counts[rel.src], counts[rel.dst]
        pairs = np.stack(
            [rng.integers(0, n_s, size=4), rng.integers(0, n_d, size=4)], axis=1
        ).astype(np.int64)
        edges[rel] = pairs
    return HeteroGraph(
        schema, counts, features, edges,
        labels=rng.integers(0, 4, size=5),
        labeled_mask=np.ones(5, dtype=bool),
        splits={"train": np.array([0, 1, 2]), "valid": np.array([3]), "test": np.array([4])},
    )


class TestLoadSave:
    def test_round_trip_identity(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        assert_same_graph(load_dataset(tmp_path), graph)

    def test_empty_edge_relation_loads(self, graph, tmp_path):
        rel = graph.schema.relations[0]
        graph.edges[rel] = np.zeros((0, 2), dtype=np.int64)
        save_dataset(graph, tmp_path)
        back = load_dataset(tmp_path)
        assert back.edges[rel].shape == (0, 2)

    def test_missing_file_reported(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        (tmp_path / "labels.csv").unlink()
        with pytest.raises(DatasetError, match="missing file labels.csv"):
            load_dataset(tmp_path)

    def test_dblp_shaped_fixture(self, tmp_path):
        g = dblp_shaped_graph()
        save_dataset(g, tmp_path)
        back = load_dataset(tmp_path)
        assert len(back.schema.node_types) == 4
        assert len(back.schema.relations) == 6
        assert back.schema.target_type == "author"


class TestValidation:
    def test_unknown_type_in_relation(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        obj = json.loads((tmp_path / "schema.json").read_text())
        obj["relations"][0]["src"] = "ghost"
        (tmp_path / "schema.json").write_text(json.dumps(obj))
        raw = read_raw(tmp_path)
        errors = validate_schema(raw.schema, raw)
        assert any("unknown type" in e for e in errors)

    def test_duplicate_relation(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        obj = json.loads((tmp_path / "schema.json").read_text())
        obj["relations"].append(obj["relations"][0])
        (tmp_path / "schema.json").write_text(json.dumps(obj))
        raw = read_raw(tmp_path)
        errors = validate_schema(raw.schema, raw)
        assert any("duplicate relation" in e for e in errors)

    def test_valid_fixture_has_no_errors(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        raw = read_raw(tmp_path)
        assert raw.errors == []
        assert validate_schema(raw.schema, raw) == []

    def test_errors_are_exhaustive_not_first_failure(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        obj = json.loads((tmp_path / "schema.json").read_text())
        obj["relations"][0]["src"] = "ghost"
        obj["num_classes"] = 1
        (tmp_path / "schema.json").write_text(json.dumps(obj))
        raw = read_raw(tmp_path)
        errors = validate_schema(raw.schema, raw)
        assert len(errors) >= 2

    def test_duplicate_edges_warn_but_keep(self, graph, tmp_path, caplog):
        rel = graph.schema.relations[0]
        graph.edges[rel] = np.vstack([graph.edges[rel], graph.edges[rel][:1]])
        save_dataset(graph, tmp_path)
        with caplog.at_level(logging.INFO):
            back = load_dataset(tmp_path)
        assert any("duplicate" in rec.message for rec in caplog.records)
        assert back.edges[rel].shape[0] == graph.edges[rel].shape[0]
        pairs = graph.edges[rel].tolist()
        repeats = len(pairs) - len({tuple(p) for p in pairs})
        assert repeats >= 1
        want = f"relation {rel} has {repeats} duplicate edges (kept)"
        assert (logging.INFO, want) in [(rec.levelno, rec.getMessage()) for rec in caplog.records]

    def test_out_of_range_edge(self, graph, tmp_path):
        rel = graph.schema.relations[0]
        graph.edges[rel] = np.vstack([graph.edges[rel], [[10 ** 6, 0]]])
        save_dataset(graph, tmp_path)
        with pytest.raises(DatasetError, match="out of range"):
            load_dataset(tmp_path)


def rewrite_line(directory, name, line, edit):
    """Replace line ``line`` (1-based, the header is line 1) of a dataset file."""
    path = directory / name
    lines = path.read_text().splitlines()
    lines[line - 1] = edit(lines[line - 1])
    path.write_text("\n".join(lines) + "\n")


class TestBadInput:
    """Malformed values fail validation with the file and line named."""

    def test_non_finite_feature(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        rewrite_line(tmp_path, "nodes_item.csv", 4, lambda s: s.rsplit(",", 1)[0] + ",nan")
        with pytest.raises(DatasetError, match=r"nodes_item\.csv line 4: .*not finite"):
            load_dataset(tmp_path)

    def test_feature_past_float32_range_is_not_finite(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        rewrite_line(tmp_path, "nodes_item.csv", 4, lambda s: s.rsplit(",", 1)[0] + ",1e39")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from the cast to float32
            with pytest.raises(DatasetError, match=r"nodes_item\.csv line 4: .*not finite"):
                load_dataset(tmp_path)

    def test_ragged_node_row(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        rewrite_line(tmp_path, "nodes_mid.csv", 3, lambda s: s.rsplit(",", 1)[0])
        width = 1 + graph.schema.node_type("mid").feature_dim
        want = rf"nodes_mid\.csv line 3: {width - 1} values, expected {width}"
        with pytest.raises(DatasetError, match=want):
            load_dataset(tmp_path)

    def test_non_integer_edge_id(self, graph, tmp_path):
        rel = graph.schema.relations[0]
        save_dataset(graph, tmp_path)
        rewrite_line(tmp_path, f"edges_{rel.key}.csv", 5, lambda s: "1.5," + s.split(",")[1])
        with pytest.raises(DatasetError, match=rf"edges_{rel.key}\.csv line 5: .*'1\.5'"):
            load_dataset(tmp_path)

    def test_duplicate_label_row(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        path = tmp_path / "labels.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[2]]) + "\n")
        want = rf"labels\.csv line {len(lines) + 1}: .*id {lines[2].split(',')[0]}\b"
        with pytest.raises(DatasetError, match=want):
            load_dataset(tmp_path)

    def test_multilabel_flag_not_zero_or_one(self, graph, tmp_path):
        graph.schema.multilabel = True
        graph.labels = np.eye(graph.schema.num_classes, dtype=np.float32)[graph.labels]
        save_dataset(graph, tmp_path)
        assert load_dataset(tmp_path).schema.multilabel
        rewrite_line(tmp_path, "labels.csv", 6, lambda s: s.rsplit(",", 1)[0] + ",2")
        with pytest.raises(DatasetError, match=r"labels\.csv line 6: .*0 or 1"):
            load_dataset(tmp_path)

    def test_multilabel_flag_in_the_first_class_column(self, graph, tmp_path):
        graph.schema.multilabel = True
        graph.labels = np.eye(graph.schema.num_classes, dtype=np.float32)[graph.labels]
        save_dataset(graph, tmp_path)

        def first_flag_bad(line):
            node, _, rest = line.split(",", 2)
            return f"{node},2,{rest}"

        rewrite_line(tmp_path, "labels.csv", 4, first_flag_bad)
        with pytest.raises(DatasetError, match=r"labels\.csv line 4: .*0 or 1"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_non_integer_split_id(self, graph, tmp_path, value):
        save_dataset(graph, tmp_path)
        path = tmp_path / "splits.json"
        splits = json.loads(path.read_text())
        splits["valid"][1] = value
        path.write_text(json.dumps(splits))
        want = rf"splits\.json: valid id {re.escape(json.dumps(value))} is not an integer"
        with pytest.raises(DatasetError, match=want):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name, edit", [
        ("nodes_item.csv", lambda s: "99999999999999999999," + s.split(",", 1)[1]),
        ("edges_mid__of__item.csv", lambda s: "99999999999999999999,1"),
        ("labels.csv", lambda s: s.split(",")[0] + ",99999999999999999999"),
    ], ids=["node-id", "edge-endpoint", "label"])
    def test_id_too_large_for_int64(self, graph, tmp_path, name, edit):
        save_dataset(graph, tmp_path)
        rewrite_line(tmp_path, name, 4, edit)
        want = rf"{re.escape(name)} line 4: .*'99999999999999999999'"
        with pytest.raises(DatasetError, match=want):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"], ids=["FS", "GS", "RS", "US"])
    @pytest.mark.parametrize("name, edit", [
        ("edges_mid__of__item.csv", lambda s, sep: s + sep),
        ("nodes_item.csv", lambda s, sep: s.rsplit(",", 1)[0] + "," + sep + s.rsplit(",", 1)[1]),
    ], ids=["edge-endpoint", "feature"])
    def test_ascii_separator_in_a_value(self, graph, tmp_path, name, edit, sep):
        # np.loadtxt reads these as whitespace around the value; int() and
        # float(), and so the reference, reject them
        save_dataset(graph, tmp_path)
        rewrite_line(tmp_path, name, 4, lambda s: edit(s, sep))
        width = 2 if name.startswith("edges") else 1 + graph.schema.node_type("item").feature_dim
        with pytest.raises(ValueError):  # the reference rejects it too
            oracles.csv_rows(tmp_path / name, width, floats=name.startswith("nodes"))
        want = rf"{re.escape(name)} line 4: ASCII separator '\\x1[c-f]' in a value"
        with pytest.raises(DatasetError, match=want):
            load_dataset(tmp_path)

    def test_id_listed_twice_in_one_split(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        path = tmp_path / "splits.json"
        splits = json.loads(path.read_text())
        twice = splits["train"][3]
        splits["train"].append(twice)
        path.write_text(json.dumps(splits))
        with pytest.raises(DatasetError, match=rf"splits\.json: train id {twice} listed twice"):
            load_dataset(tmp_path)


def assert_same_array(got, want):
    """``got`` is a C-ordered array equal to ``want`` to the bit."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def assert_reads_as_reference(raw, directory):
    """``raw`` holds the arrays the csv-module reference reads from every
    CSV file in ``directory``."""
    assert raw.errors == []
    for nt in raw.schema.node_types:
        width = nt.num_features * nt.feature_dim
        ids, feats = oracles.csv_rows(directory / f"nodes_{nt.name}.csv", 1 + width, floats=True)
        assert_same_array(raw.node_ids[nt.name], ids)
        feats = feats.reshape(len(ids), nt.num_features, nt.feature_dim)
        assert_same_array(raw.node_features[nt.name], feats)
    for rel in raw.schema.relations:
        assert_same_array(raw.edges[rel], oracles.csv_rows(directory / f"edges_{rel.key}.csv", 2))
    width = 1 + (raw.schema.num_classes if raw.multilabel else 1)
    assert_same_array(raw.label_rows, oracles.csv_rows(directory / "labels.csv", width))


def assert_same_graph(back, graph):
    assert back.schema.to_json() == graph.schema.to_json()
    assert back.counts == graph.counts
    for name in graph.counts:
        assert np.array_equal(back.features[name], graph.features[name])
    for rel in graph.schema.relations:
        assert np.array_equal(back.edges[rel], graph.edges[rel])
    assert np.array_equal(back.labels, graph.labels)
    for part in ("train", "valid", "test"):
        assert np.array_equal(back.splits[part], graph.splits[part])


# the pieces one edit inserts into a line: no LF, so the edited file keeps
# its lines
EDIT_PIECES = list("0123456789,.-+e_\"#\t\r\x0b\x0c\x1c") + ["nan", "inf", "\u0661", "9" * 20]


class Scripted:
    """Stands in for ``st.data()`` in an explicit example: the draws return
    the values given, in turn, whatever their strategy."""

    def __init__(self, *values):
        self.values, self.drawn = values, 0

    def draw(self, strategy):
        self.drawn += 1
        return self.values[(self.drawn - 1) % len(self.values)]

    def __repr__(self):
        return f"Scripted{self.values!r}"


class TestParsePaths:
    """Every file reads as the csv-module reference in ``oracles`` reads it,
    or fails naming the file and the first line it cannot read."""

    def multilabel(self, graph):
        graph.schema.multilabel = True
        graph.labels = np.eye(graph.schema.num_classes, dtype=np.float32)[graph.labels]
        return graph

    def no_trailing_newline(self, directory):
        for name in ("nodes_item.csv", "edges_mid__of__item.csv", "labels.csv"):
            path = directory / name
            path.write_text(path.read_text().rstrip("\n"))

    def crlf(self, directory):
        for path in directory.glob("*.csv"):
            path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))

    @pytest.mark.parametrize("case", [
        "single-label", "multi-label", "header-only", "no-trailing-newline", "crlf", "featureless",
    ])
    def test_well_formed_files_read_alike(self, graph, tmp_path, case):
        if case == "multi-label":
            graph = self.multilabel(graph)
        elif case == "header-only":
            graph.edges[graph.schema.relations[0]] = np.zeros((0, 2), dtype=np.int64)
        elif case == "featureless":
            graph = dblp_shaped_graph()
        save_dataset(graph, tmp_path)
        if case == "no-trailing-newline":
            self.no_trailing_newline(tmp_path)
        elif case == "crlf":
            self.crlf(tmp_path)
        assert_reads_as_reference(read_raw(tmp_path), tmp_path)
        assert_same_graph(load_dataset(tmp_path), graph)

    @pytest.mark.parametrize("name, line, edit, error", [
        ("edges_mid__of__item.csv", 5, lambda s: "\n" + s, "line 5: 0 values, expected 2"),
        ("edges_mid__of__item.csv", -1, lambda s: s + "\n", "line {n}: 0 values, expected 2"),
        ("nodes_mid.csv", 3, lambda s: s + ",0.5", "line 3: 10 values, expected 9"),
        ("nodes_mid.csv", 3, lambda s: s.rsplit(",", 1)[0], "line 3: 8 values, expected 9"),
        ("nodes_item.csv", 2, lambda s: "0.0," + s.split(",", 1)[1],
         "line 2: could not convert string '0.0' to int64"),
        ("edges_mid__of__item.csv", 3, lambda s: "#" + s, "line 3: could not convert string '#"),
        ("edges_mid__of__item.csv", 3, lambda s: '"' + s.replace(",", '",', 1), None),
        ("labels.csv", 4, lambda s: s.split(",")[0] + ",99999999999999999999",
         "line 4: could not convert string '99999999999999999999' to int64"),
    ], ids=[
        "blank-line", "blank-last-line", "extra-column", "short-row", "float-id", "comment",
        "quoted-value", "oversized-id",
    ])
    def test_malformed_files_read_alike(self, graph, tmp_path, name, line, edit, error):
        save_dataset(graph, tmp_path)
        before = read_raw(tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        lines[line - 1 if line > 0 else line] = edit(lines[line - 1 if line > 0 else line])
        path.write_text("\n".join(lines) + "\n")
        raw = read_raw(tmp_path)
        if error is None:  # the quotes change no value
            assert_reads_as_reference(raw, tmp_path)
            assert_reads_as_reference(before, tmp_path)
        else:
            assert len(raw.errors) == 1
            assert raw.errors[0].startswith(f"{name} " + error.format(n=len(lines) + 1))
            with pytest.raises((ValueError, OverflowError)):  # the reference rejects it too
                oracles.csv_rows(path, len(lines[0].split(",")), floats=name.startswith("nodes"))

    @pytest.fixture(scope="class")
    def twelve_targets(self, tmp_path_factory):
        """A saved dataset of 12 targets, and the text of each CSV file."""
        directory = tmp_path_factory.mktemp("twelve")
        spec = small_spec(num_targets=12, num_mid=6, num_attr=4, num_junk=4, feature_dim=3)
        save_dataset(synthetic_generate(spec, seed=5), directory)
        return directory, {p.name: p.read_text() for p in sorted(directory.glob("*.csv"))}

    # a separator before a line's first value, which np.loadtxt reads as
    # whitespace and int() rejects: random edits seldom place one there
    @given(st.data())
    @example(data=Scripted("labels.csv", 2, 0, 0, ["\x1c"]))
    @example(data=Scripted("nodes_item.csv", 5, 0, 0, ["\x1c"]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_one_edit_reads_as_the_reference_or_names_its_line(self, twelve_targets, data):
        directory, texts = twelve_targets
        name = data.draw(st.sampled_from(sorted(texts)))
        lines = texts[name].split("\n")  # the last is the empty text after the final LF
        line = data.draw(st.integers(2, len(lines) - 1))  # 1-based; the header is line 1
        text = lines[line - 1]
        at = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, min(3, len(text) - at)))
        piece = "".join(data.draw(st.lists(st.sampled_from(EDIT_PIECES), max_size=3)))
        lines[line - 1] = text[:at] + piece + text[at + cut:]
        path = directory / name
        path.write_text("\n".join(lines), newline="")
        try:
            raw = read_raw(directory)
            if raw.errors:
                assert len(raw.errors) == 1 and raw.errors[0].startswith(f"{name} line {line}: ")
            else:
                assert_reads_as_reference(raw, directory)
        finally:
            path.write_text(texts[name], newline="")

    def test_every_bad_split_id_is_reported_in_order(self, graph, tmp_path):
        save_dataset(graph, tmp_path)
        splits = {k: [int(i) for i in graph.splits[k]] for k in ("train", "valid", "test")}
        unlabeled = splits["test"][2]
        path = tmp_path / "labels.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(
            line for line in lines if line.split(",")[0] != str(unlabeled)
        ) + "\n")
        first, second = splits["train"][:2]
        splits["train"] += [40, -2, first, 10**20, second, second, 10**20]
        splits["valid"] += [second, unlabeled]
        splits["test"] += [splits["valid"][0], first, unlabeled]
        (tmp_path / "splits.json").write_text(json.dumps(splits))
        with pytest.raises(DatasetError) as caught:
            load_dataset(tmp_path)
        assert caught.value.errors == [
            "splits.json: train id 40 out of range",
            "splits.json: train id -2 out of range",
            f"splits.json: train id {first} listed twice",
            "splits.json: train id 100000000000000000000 out of range",
            f"splits.json: train id {second} listed twice",
            f"splits.json: train id {second} listed twice",
            "splits.json: train id 100000000000000000000 out of range",
            "splits.json: train id 100000000000000000000 listed twice",
            f"splits.json: valid id {unlabeled} has no label",
            f"splits.json: splits not disjoint (id {second})",
            f"splits.json: test id {unlabeled} has no label",
            f"splits.json: test id {unlabeled} has no label",
            f"splits.json: test id {unlabeled} listed twice",
            f"splits.json: splits not disjoint (id {min(first, splits['valid'][0], unlabeled)})",
        ]


def sources_of(view, t):
    return view.src[view.dst.indptr[t]:view.dst.indptr[t + 1]]


class TestBipartiteView:
    def test_no_edges_all_slices_empty(self, graph):
        rel = graph.schema.relations[0]
        graph.edges[rel] = np.zeros((0, 2), dtype=np.int64)
        view = graph.bipartite(rel)
        assert view.src.size == 0
        for t in range(graph.counts[rel.dst]):
            assert sources_of(view, t).size == 0

    def test_single_edge(self):
        schema = Schema(
            [NodeType("a", 1, 1), NodeType("b", 1, 1)],
            [Relation("a", "r", "b"), Relation("b", "s", "a")],
            "b", 2,
        )
        g = HeteroGraph(
            schema,
            counts={"a": 5, "b": 9},
            features={"a": np.zeros((5, 1, 1), np.float32), "b": np.zeros((9, 1, 1), np.float32)},
            edges={
                Relation("a", "r", "b"): np.array([[3, 7]], dtype=np.int64),
                Relation("b", "s", "a"): np.zeros((0, 2), dtype=np.int64),
            },
            labels=np.zeros(9, dtype=np.int64),
            labeled_mask=np.ones(9, dtype=bool),
            splits={},
        )
        view = g.bipartite(Relation("a", "r", "b"))
        for t in range(9):
            expect = [3] if t == 7 else []
            assert sources_of(view, t).tolist() == expect

    @pytest.mark.parametrize("num_edges", [0, 1800, 15000])
    def test_edge_order_is_lexsorts(self, num_edges):
        rng = np.random.default_rng(num_edges)
        # few nodes per type, so most edges repeat an earlier one
        pairs = np.stack([rng.integers(0, 40, num_edges), rng.integers(0, 30, num_edges)], axis=1)
        want = np.lexsort((pairs[:, 0], pairs[:, 1]))
        assert np.array_equal(graph_module._edge_order(pairs, 40), want)

    def test_matches_linear_scan_oracle(self, graph):
        for rel in graph.schema.relations:
            view = graph.bipartite(rel)
            want = oracles.csr_slices_by_filter(graph.edges[rel], graph.counts[rel.dst])
            for t in range(graph.counts[rel.dst]):
                assert sorted(sources_of(view, t).tolist()) == want[t]

    def test_lossless_reconstruction(self, graph):
        for rel in graph.schema.relations:
            view = graph.bipartite(rel)
            rebuilt = sorted(zip(view.src.tolist(), view.dst.ids.tolist()))
            original = sorted(map(tuple, graph.edges[rel].tolist()))
            assert rebuilt == original


class TestSynthetic:
    def test_same_seed_identical(self):
        a = synthetic_generate(small_spec(), seed=5)
        b = synthetic_generate(small_spec(), seed=5)
        assert np.array_equal(a.labels, b.labels)
        for rel in a.schema.relations:
            assert np.array_equal(a.edges[rel], b.edges[rel])
        for name in a.counts:
            assert np.array_equal(a.features[name], b.features[name])

    def test_different_seed_differs(self):
        a = synthetic_generate(small_spec(), seed=5)
        b = synthetic_generate(small_spec(), seed=6)
        assert not np.array_equal(a.labels, b.labels) or not np.array_equal(
            a.edges[a.schema.relations[0]], b.edges[b.schema.relations[0]]
        )

    def test_planted_majority_matches_independent_traversal(self, graph):
        spec = small_spec()
        # random wiring leaves many targets with tied class counts, which
        # pins the rule that a tie goes to the lowest class
        incoherent = synthetic_generate(small_spec(num_targets=200, coherence=0.0), seed=11)
        for g in (graph, incoherent):
            attr_feats = g.features[spec.ATTR][:, 0, :]
            attr_classes = np.argmax(attr_feats, axis=1)  # noise is small vs one-hot
            args = (
                g.edges[spec.PLANTED_FIRST_HOP],
                g.edges[spec.PLANTED_SECOND_HOP],
                attr_classes,
                g.counts[spec.TARGET],
                g.schema.num_classes,
            )
            assert np.array_equal(oracles.two_hop_majority(*args), g.labels)
        hist = oracles.two_hop_class_counts(*args)  # of the incoherent graph
        assert np.sum(hist == hist.max(axis=1, keepdims=True), axis=1).max() > 1

    def test_distractor_only_labels_carry_no_structure(self):
        spec = small_spec(num_targets=600, planted=False)
        g = synthetic_generate(spec, seed=3)
        noise_rel = Relation("junk", "noise", "item")
        degree_first_junk = np.zeros(g.counts["item"], dtype=np.int64)
        for j, t in g.edges[noise_rel]:
            degree_first_junk[t] = j % 4  # arbitrary structural statistic
        mi = oracles.plugin_mi_bits(g.labels, degree_first_junk)
        assert mi < 0.05

    @pytest.mark.parametrize("field", ["attrs_per_mid", "mids_per_target"])
    def test_no_planted_paths_label_everything_class_zero(self, field):
        # every class count is zero, and a tie goes to the lowest class
        g = synthetic_generate(small_spec(**{field: 0}), seed=0)
        assert np.all(g.labels == 0)

    def test_zero_targets_rejected(self):
        with pytest.raises(ValueError):
            synthetic_generate(small_spec(num_targets=0), seed=0)


class TestSampler:
    def test_full_budget_and_depth_covers_reachable_graph(self, graph):
        batch = graph.splits["train"]
        sub = sample_subgraph(graph, batch, depth=4, budget=10 ** 6, seed=0)
        # every node with a directed path into a batch target must be present
        reach = {name: set() for name in graph.counts}
        reach[graph.schema.target_type] = set(batch.tolist())
        for _ in range(4):
            for rel in graph.schema.relations:
                for s, t in graph.edges[rel]:
                    if int(t) in reach[rel.dst]:
                        reach[rel.src].add(int(s))
        for name in graph.counts:
            assert set(sub.graph.orig_ids[name].tolist()) == reach[name]
        # closure: induced edges only connect selected nodes
        for rel in graph.schema.relations:
            pairs = sub.graph.edges[rel]
            if pairs.size:
                assert pairs[:, 0].max() < sub.graph.counts[rel.src]
                assert pairs[:, 1].max() < sub.graph.counts[rel.dst]

    def test_induced_edges_are_the_pairs_between_selected_nodes(self, graph):
        empty = Relation("junk", "chatter", "mid")
        graph.edges[empty] = np.zeros((0, 2), dtype=np.int64)
        sub = sample_subgraph(graph, graph.splits["train"][:4], depth=2, budget=3, seed=5)
        dropped = 0
        for rel in graph.schema.relations:
            src_ids, dst_ids = sub.graph.orig_ids[rel.src], sub.graph.orig_ids[rel.dst]
            pairs = sub.graph.edges[rel]
            got = sorted(zip(src_ids[pairs[:, 0]].tolist(), dst_ids[pairs[:, 1]].tolist()))
            keep_dst = set(dst_ids.tolist())
            want = oracles.induced_pairs(graph.edges[rel], set(src_ids.tolist()), keep_dst)
            assert got == want
            every_src = set(range(graph.counts[rel.src]))
            dropped += len(oracles.induced_pairs(graph.edges[rel], every_src, keep_dst)) - len(want)
        assert sub.graph.edges[empty].shape == (0, 2)
        # the budget left out sources of selected targets, so the filter bit
        assert dropped > 0

    def test_deterministic_under_seed(self, graph):
        batch = graph.splits["train"][:8]
        a = sample_subgraph(graph, batch, depth=3, budget=5, seed=42)
        b = sample_subgraph(graph, batch, depth=3, budget=5, seed=42)
        for name in graph.counts:
            assert np.array_equal(a.graph.orig_ids[name], b.graph.orig_ids[name])
        # a different seed is allowed to produce a different selection
        c = sample_subgraph(graph, batch, depth=3, budget=5, seed=43)
        assert c.batch_local.size == a.batch_local.size

    def test_budget_limits_new_nodes_per_round(self, graph):
        batch = graph.splits["train"][:4]
        sub = sample_subgraph(graph, batch, depth=1, budget=2, seed=1)
        for name in graph.counts:
            if name == graph.schema.target_type:
                continue
            assert sub.graph.orig_ids[name].size <= 2

    def test_default_large_graph_settings_accepted(self, graph):
        batch = graph.splits["train"][:16]
        sub = sample_subgraph(graph, batch, depth=3, budget=1800, seed=0)
        assert sub.batch_local.size == np.unique(batch).size

    def test_batch_targets_validated(self, graph):
        with pytest.raises(ValueError):
            sample_subgraph(graph, np.array([10 ** 9]), depth=1, budget=1, seed=0)

    def test_one_target_batch(self, graph):
        target = graph.schema.target_type
        t = int(graph.splits["train"].max())
        sub = sample_subgraph(graph, np.array([t]), depth=1, budget=10 ** 6, seed=4)
        # no relation runs between targets, so the batch is the only target
        assert sub.batch_local.tolist() == [0]
        assert sub.graph.orig_ids[target].tolist() == [t]
        # with an unbounded budget every depth-1 in-neighbour is kept
        for rel in graph.schema.relations:
            if rel.dst == target:
                pairs = graph.edges[rel]
                sources = set(pairs[pairs[:, 1] == t, 0].tolist())
                assert sources and sources <= set(sub.graph.orig_ids[rel.src].tolist())

    def test_batch_local_points_at_batch(self, graph):
        batch = graph.splits["valid"][:5]
        sub = sample_subgraph(graph, batch, depth=2, budget=4, seed=9)
        target = graph.schema.target_type
        assert np.array_equal(sub.graph.orig_ids[target][sub.batch_local], np.unique(batch))
