import argparse
import ast
import dataclasses
import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import slotgnn
from slotgnn import tensor as T
from slotgnn.artifacts import dataset_fingerprint, load_checkpoint, save_checkpoint
from slotgnn.cli import (
    GRADCHECK_DIRECTIONS, GRADCHECK_LIMIT, SETTINGS, VALID_KEYS, ConfigError, _overrides_from_args,
    build_parser, main, parse_config,
)
from slotgnn.config import TrainConfig, from_profile
from slotgnn.fixtures import CHECKABLE, GRADCHECK_MODEL, gradcheck_graph
from slotgnn.graph import SyntheticSpec, load_dataset, save_dataset, synthetic_generate
from slotgnn.training import AdamW, init_model


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    g = synthetic_generate(
        SyntheticSpec(num_targets=60, num_mid=30, num_attr=12, num_junk=12), seed=3
    )
    save_dataset(g, root)
    return root


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """Twelve targets: a full gradcheck of a ``SMALL_MODEL`` on it takes about a second."""
    root = tmp_path_factory.mktemp("small")
    spec = SyntheticSpec(num_targets=12, num_mid=6, num_attr=4, num_junk=5)
    save_dataset(synthetic_generate(spec, seed=3), root)
    return root


SMALL_MODEL = ["--dim", "4", "--heads", "2", "--layers", "1"]


def quick_flags(dataset, out, epochs="2"):
    return [
        "--dataset", str(dataset), "--out", str(out),
        "--epochs", epochs, "--dim", "16", "--heads", "4", "--dropout", "0.2",
        "--max-lr", "0.005", "--seed", "7",
    ]


# each numeric setting just outside its range, and NaN, which no range holds
OUT_OF_RANGE = [
    ("dim", "0"), ("heads", "0"), ("layers", "0"), ("epochs", "0"), ("batch_size", "0"),
    ("batches_per_epoch", "0"), ("sample_depth", "0"), ("sample_budget", "0"),
    ("max_lr", "0"), ("max_lr", "-1"), ("max_lr", "nan"), ("weight_decay", "-0.01"),
    ("early_stop_patience", "-1"), ("dropout", "1"),
]


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        run = parse_config(path)
        assert run.train.heads == 8
        assert run.train.dim == 64
        assert run.train.max_lr == 0.0005

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.layers = 2\n")
        run = parse_config(path, {"train.layers": "3"})
        assert run.train.layers == 3

    def test_unknown_key_suggests_nearest(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text("train.laers = 2\n")
        with pytest.raises(ConfigError, match="train.layers"):
            parse_config(path)

    def test_unknown_key_exit_code(self, tmp_path, dataset):
        path = tmp_path / "typo.cfg"
        path.write_text("train.laers = 2\n")
        code = main(["train", "--config", str(path), "--dataset", str(dataset)])
        assert code == 2

    def test_paper_profile(self):
        run = parse_config(None, {"profile": "paper"})
        assert run.train.dim == 512
        assert run.train.heads == 8
        assert run.train.dropout == 0.5
        assert run.train.max_lr == 0.0005

    def test_comments_and_sections(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\ntrain.dropout = 0.1  # inline\nexplain.top_k = 3\n")
        run = parse_config(path)
        assert run.train.dropout == 0.1
        assert run.top_k == 3

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dataset = data/run#1\ntrain.epochs = 3 # short\n\t# indented\n")
        run = parse_config(path)
        assert run.dataset == "data/run#1"
        assert run.train.epochs == 3

    def test_choices_hold_in_a_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eval.split = dev\n")
        with pytest.raises(ConfigError, match="eval.split.*'dev' is not one of train, valid, test"):
            parse_config(path)

    def test_top_level_seed_is_not_a_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'seed'"):
            parse_config(None, {"seed": "3"})

    def test_type_error_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.layers = soon\n")
        with pytest.raises(ConfigError, match="train.layers"):
            parse_config(path)

    def test_invalid_combination_rejected(self):
        with pytest.raises(ConfigError, match="divisible"):
            parse_config(None, {"train.dim": "30", "train.heads": "4"})

    @pytest.mark.parametrize("name,raw", OUT_OF_RANGE, ids=[f"{n}={r}" for n, r in OUT_OF_RANGE])
    def test_out_of_range_setting_rejected(self, name, raw):
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            parse_config(None, {f"train.{name}": raw})

    def test_range_edges_accepted(self):
        edges = {
            "dropout": 0.0, "weight_decay": 0.0, "early_stop_patience": 0, "dim": 1, "heads": 1,
            "batch_size": 1, "batches_per_epoch": 1, "sample_depth": 1, "sample_budget": 1,
        }
        run = parse_config(None, {f"train.{k}": str(v) for k, v in edges.items()})
        assert all(getattr(run.train, k) == v for k, v in edges.items())

    def test_out_of_range_exit_code(self, tmp_path, dataset, capsys):
        out = tmp_path / "out"
        code = main(["train", "--dataset", str(dataset), "--out", str(out), "--heads", "0"])
        assert code == 2
        assert "config error: heads must be at least 1" in capsys.readouterr().err
        assert not out.exists()  # rejected before any work


def flag_echo(argv):
    args = build_parser().parse_args(["train", *argv])
    return parse_config(args.config, _overrides_from_args(args)).echo()


def echo_with(**changes):
    """The default echo with ``changes`` applied; ``train__x`` names train.x."""
    want = parse_config(None).echo()
    for key, value in changes.items():
        if key.startswith("train__"):
            want["train"][key[len("train__"):]] = value
        else:
            want[key] = value
    return want


# every flag of the CLI, each with the echo it alone produces
FLAG_ECHOES = [
    (["--dataset", "data/x"], dict(dataset="data/x")),
    (["--out", "elsewhere"], dict(out="elsewhere")),
    (["--checkpoint", "runs/ck"], dict(checkpoint="runs/ck")),
    (["--seed", "7"], dict(train__seed=7)),
    (["--profile", "paper"], dict(profile="paper", train__dim=512)),
    (["--dim", "32"], dict(train__dim=32)),
    (["--heads", "4"], dict(train__heads=4)),
    (["--layers", "3"], dict(train__layers=3)),
    (["--dropout", "0.25"], dict(train__dropout=0.25)),
    (["--epochs", "3"], dict(train__epochs=3)),
    (["--max-lr", "0.005"], dict(train__max_lr=0.005)),
    (["--weight-decay", "0.1"], dict(train__weight_decay=0.1)),
    (["--batch-mode", "sampled"], dict(train__batch_mode="sampled")),
    (["--batch-size", "16"], dict(train__batch_size=16)),
    (["--batches-per-epoch", "5"], dict(train__batches_per_epoch=5)),
    (["--sample-depth", "2"], dict(train__sample_depth=2)),
    (["--sample-budget", "100"], dict(train__sample_budget=100)),
    (["--precision", "float64"], dict(train__precision="float64")),
    (["--attention-norm", "literal"], dict(train__attention_norm="literal")),
    (["--scale-outside"], dict(train__scale_outside=True)),
    (["--early-stop-patience", "4"], dict(train__early_stop_patience=4)),
    (["--no-seq"], dict(train__use_seq=False)),
    (["--no-fusion"], dict(train__use_fusion=False)),
    (["--no-relation-encoding"], dict(train__use_relation_encoding=False)),
    (["--top-k", "3"], dict(top_k=3)),
    (["--split", "valid"], dict(split="valid")),
    (["--per-node"], dict(per_node=True)),
]


class TestFlags:
    @pytest.mark.parametrize("argv,changes", FLAG_ECHOES, ids=[a[0] for a, _ in FLAG_ECHOES])
    def test_each_flag_echo(self, argv, changes):
        assert flag_echo(argv) == echo_with(**changes)

    def test_config_flag_echo(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.layers = 3\nexplain.top_k = 2\n")
        assert flag_echo(["--config", str(path)]) == echo_with(train__layers=3, top_k=2)

    def test_switches_together(self):
        argv = ["--no-seq", "--no-fusion", "--no-relation-encoding", "--scale-outside", "--per-node"]
        assert flag_echo(argv) == echo_with(
            train__use_seq=False, train__use_fusion=False, train__use_relation_encoding=False,
            train__scale_outside=True, per_node=True,
        )

    def test_schedule_and_optimizer_flags(self):
        # the peak rate and the weight decay are the only such settings; the
        # other constants are the defaults of AdamW and onecycle_lr
        assert flag_echo(["--max-lr", "0.002", "--weight-decay", "0.1"]) == echo_with(
            train__max_lr=0.002, train__weight_decay=0.1
        )
        gone = ["--start-fraction", "--lr-div", "--lr-final-div", "--beta1", "--beta2", "--eps"]
        for flag in gone:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["train", flag, "1"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["--max", "0.1"], ["--ear", "3"], ["--no-rel"]])
    def test_no_flag_answers_to_a_prefix_of_itself(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", *argv])
        assert exc.value.code == 2
        assert argv[0] in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--batch-mode", "mini"], ["--precision", "float16"], ["--attention-norm", "soft"],
        ["--split", "dev"], ["--profile", "huge"], ["--dim", "wide"], ["--dropout", "half"],
        ["--seed", "1.5"], ["--no-such-flag"],
    ])
    def test_bad_flag_value_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", *argv])
        assert exc.value.code == 2


class TestTrainCommand:
    def test_artifacts_and_manifest(self, dataset, tmp_path):
        out = tmp_path / "run"
        assert main(["train", *quick_flags(dataset, out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {
            "checkpoint.bin", "checkpoint.idx", "log.txt", "log.json",
            "config.json", "metrics.json", "manifest.json",
        } <= names
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == names
        for name, digest in manifest["outputs"].items():
            if name != "manifest.json":
                assert isinstance(digest, str) and len(digest) == 64
        assert manifest["seed"] == 7
        # log.txt: one tab-separated line per epoch
        lines = (out / "log.txt").read_text().splitlines()
        assert len(lines) == 2
        assert len(lines[0].split("\t")) == 5

    def test_metrics_file_keys(self, dataset, tmp_path):
        out = tmp_path / "run"
        main(["train", *quick_flags(dataset, out)])
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"micro_f1", "macro_f1", "accuracy", "loss"}

    def test_byte_identical_reruns(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["train", *quick_flags(dataset, out_a)])
        main(["train", *quick_flags(dataset, out_b)])
        for name in ("metrics.json", "log.txt", "checkpoint.bin"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_missing_dataset_dir_is_config_error(self, tmp_path, capsys):
        code = main(["train", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_invalid_dataset_is_validation_failure(self, dataset, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in Path(dataset).iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        (broken / "labels.csv").unlink()
        code = main(["train", "--dataset", str(broken), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_bad_value_exits_3_naming_file_and_line(self, dataset, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in Path(dataset).iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        lines = (broken / "nodes_item.csv").read_text().splitlines()
        lines[6] = lines[6].rsplit(",", 1)[0] + ",nan"
        (broken / "nodes_item.csv").write_text("\n".join(lines) + "\n")
        code = main(["train", "--dataset", str(broken), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "nodes_item.csv line 7" in capsys.readouterr().err

    def test_id_too_large_for_int64_exits_3_naming_file_and_line(self, dataset, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in Path(dataset).iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        lines = (broken / "edges_mid__of__item.csv").read_text().splitlines()
        lines[3] = "99999999999999999999,1"
        (broken / "edges_mid__of__item.csv").write_text("\n".join(lines) + "\n")
        code = main(["train", "--dataset", str(broken), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "edges_mid__of__item.csv line 4: " in capsys.readouterr().err

    def test_split_id_listed_twice_exits_3(self, dataset, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in Path(dataset).iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        splits = json.loads((broken / "splits.json").read_text())
        splits["train"].append(splits["train"][0])
        (broken / "splits.json").write_text(json.dumps(splits))
        code = main(["train", "--dataset", str(broken), "--out", str(tmp_path / "o")])
        assert code == 3
        assert f"splits.json: train id {splits['train'][0]} listed twice" in capsys.readouterr().err


class TestEmptySplit:
    """A split that a command runs on and that lists no id fails validation,
    exit 3, before the command runs; the dataset itself still loads."""

    @pytest.fixture(scope="class")
    def trained(self, small_dataset, tmp_path_factory):
        out = tmp_path_factory.mktemp("small_trained")
        assert main(["train", "--dataset", str(small_dataset), "--out", str(out),
                     "--epochs", "1", *SMALL_MODEL]) == 0
        return out

    @pytest.mark.parametrize("argv, split, named", [
        (["train", "--epochs", "1"], "train", "train"),
        (["eval", "--split", "valid"], "valid", "eval --split valid"),
        (["gradcheck"], "train", "gradcheck --dataset"),
    ], ids=["train", "eval", "gradcheck"])
    def test_exits_3_naming_splits_json_the_split_and_the_command(
        self, small_dataset, trained, tmp_path, capsys, argv, split, named
    ):
        data = tmp_path / "data"
        shutil.copytree(small_dataset, data)
        splits = json.loads((data / "splits.json").read_text())
        splits[split] = []
        (data / "splits.json").write_text(json.dumps(splits))
        assert load_dataset(data).splits[split].size == 0  # eval on another split is still valid
        capsys.readouterr()
        out = tmp_path / "out"
        flags = ["--dataset", str(data), "--out", str(out), "--checkpoint", str(trained)]
        assert main([*argv, *flags, *SMALL_MODEL]) == 3
        err = capsys.readouterr().err
        assert f"{data / 'splits.json'}: {split} lists no id; `slotgnn {named}` needs one" in err
        assert list(out.iterdir()) == []  # nothing ran


class TestOutputDirectory:
    def train_in(self, tmp_path, monkeypatch, dataset, *argv):
        monkeypatch.chdir(tmp_path)
        flags = ["--dataset", str(dataset), "--epochs", "1", "--dim", "8", "--heads", "2"]
        assert main(["train", *flags, *argv]) == 0
        return {str(p.relative_to(tmp_path)) for p in tmp_path.glob("runs/*")}

    def test_out_key_in_a_config_file_is_honoured(self, tmp_path, monkeypatch, dataset):
        path = tmp_path / "run.cfg"
        path.write_text("out = runs/out\n")
        assert self.train_in(tmp_path, monkeypatch, dataset, "--config", str(path)) == {"runs/out"}

    def test_default_is_runs_command(self, tmp_path, monkeypatch, dataset):
        assert self.train_in(tmp_path, monkeypatch, dataset) == {"runs/train"}
        echo = json.loads((tmp_path / "runs/train/config.json").read_text())
        assert echo["out"] == "runs/train"


class TestEvalExplainCommands:
    @pytest.fixture(scope="class")
    def trained(self, dataset, tmp_path_factory):
        out = tmp_path_factory.mktemp("trained")
        assert main(["train", *quick_flags(dataset, out, epochs="12")]) == 0
        return out

    def test_eval_writes_metrics(self, dataset, trained, tmp_path):
        out = tmp_path / "eval"
        code = main([
            "eval", "--dataset", str(dataset), "--checkpoint", str(trained),
            "--out", str(out), "--split", "test",
        ])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) == {"micro_f1", "macro_f1", "accuracy", "loss"}

    def test_eval_matches_train_final_metrics(self, dataset, trained, tmp_path):
        out = tmp_path / "eval"
        main([
            "eval", "--dataset", str(dataset), "--checkpoint", str(trained),
            "--out", str(out), "--split", "test",
        ])
        assert (out / "metrics.json").read_bytes() == (trained / "metrics.json").read_bytes()

    def test_eval_requires_checkpoint(self, dataset, tmp_path):
        code = main(["eval", "--dataset", str(dataset), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_explain_top_k(self, dataset, trained, tmp_path):
        out = tmp_path / "explain"
        code = main([
            "explain", "--dataset", str(dataset), "--checkpoint", str(trained),
            "--out", str(out), "--top-k", "5",
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["per_type"]) == {"item"}
        assert len(report["per_type"]["item"]) == 5
        assert (out / "report.txt").read_text().startswith("node type item")

    def test_non_finite_checkpoint_names_the_parameter(self, dataset, trained, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in Path(trained).iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        name, _, offset, _ = (broken / "checkpoint.idx").read_text().splitlines()[3].split("\t")
        with open(broken / "checkpoint.bin", "r+b") as fh:
            fh.seek(int(offset))
            fh.write(np.float32(np.nan).tobytes())
        code = main([
            "eval", "--dataset", str(dataset), "--checkpoint", str(broken),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "checkpoint.bin" in err and repr(name) in err and "non-finite values" in err

    def test_checkpoint_of_another_precision_exits_1_naming_it(
        self, dataset, trained, tmp_path, capsys
    ):
        # without config.json the flags set the model, here float64 against
        # the float32 checkpoint: no weight may be cast on the way in
        bare = tmp_path / "bare"
        bare.mkdir()
        for name in ("checkpoint.bin", "checkpoint.idx"):
            (bare / name).write_bytes((Path(trained) / name).read_bytes())
        code = main([
            "eval", "--dataset", str(dataset), "--checkpoint", str(bare),
            "--out", str(tmp_path / "eval"),
            "--dim", "16", "--heads", "4", "--precision", "float64",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "checkpoint.bin: parameter " in err and "is float64, checkpoint holds float32" in err

    @pytest.mark.parametrize("edit", [
        lambda fields: fields[:1],
        lambda fields: fields[:3] + ["float33"],
    ], ids=["one-field", "unknown-dtype"])
    def test_bad_index_line_names_the_file_and_line(self, dataset, trained, tmp_path, capsys, edit):
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in Path(trained).iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        lines = (broken / "checkpoint.idx").read_text().splitlines()
        lines[1] = "\t".join(edit(lines[1].split("\t")))
        (broken / "checkpoint.idx").write_text("\n".join(lines) + "\n")
        code = main([
            "eval", "--dataset", str(dataset), "--checkpoint", str(broken),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{broken / 'checkpoint.idx'}: line 2: " in err

    @pytest.mark.parametrize("edit,named", [
        (dict(bogus=1), "'train.bogus'"),
        (dict(epochs=-5), "epochs must be at least 1, got -5"),
        (dict(heads=3), "dim 16 must be divisible by heads 3"),
        (dict(beta1=0.9), "'train.beta1'"),  # a key this version no longer has
    ], ids=["extra-key", "out-of-range", "bad-combination", "removed-key"])
    def test_bad_saved_config_exits_2_naming_it(
        self, dataset, trained, tmp_path, capsys, edit, named
    ):
        broken = tmp_path / "broken"
        broken.mkdir()
        for p in Path(trained).iterdir():
            (broken / p.name).write_bytes(p.read_bytes())
        echo = json.loads((broken / "config.json").read_text())
        echo["train"].update(edit)
        (broken / "config.json").write_text(json.dumps(echo))
        code = main([
            "eval", "--dataset", str(dataset), "--checkpoint", str(broken),
            "--out", str(tmp_path / "eval"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {broken / 'config.json'}: ") and named in err

    def test_explain_per_node(self, dataset, trained, tmp_path):
        out = tmp_path / "explain"
        main([
            "explain", "--dataset", str(dataset), "--checkpoint", str(trained),
            "--out", str(out), "--top-k", "2", "--per-node",
        ])
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_node"]) == 60


def setting_actions():
    """The flags of ``slotgnn train``; every command takes the same ones."""
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subs.choices["train"]._actions


def other_value(f):
    """A valid value for field ``f`` other than its default."""
    choices = f.metadata.get("choices")
    if choices:
        return next(c for c in choices if c != f.default)
    if f.default is None:
        return "some/dir"
    if isinstance(f.default, bool):
        return not f.default
    if isinstance(f.default, float):
        return f.default / 2  # keeps dropout below 1
    return f.default * 2 or 1  # keeps dim divisible by heads


class TestSettings:
    """Every setting is read by the model or the loop, has one flag, and
    means the same from a flag as from a config file."""

    def test_every_train_field_is_read_outside_the_config_code(self):
        read = set()
        for path in Path(slotgnn.__file__).parent.glob("*.py"):
            if path.name not in ("config.py", "cli.py"):
                read |= {
                    node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                }
        assert {f.name for f in dataclasses.fields(TrainConfig)} - read == set()

    def test_every_key_has_exactly_one_flag(self):
        dests = [a.dest for a in setting_actions()]
        assert sorted(dests) == sorted([*VALID_KEYS, "config", "help"])

    @pytest.mark.parametrize("key", list(VALID_KEYS))
    def test_flag_and_config_file_agree(self, key, tmp_path):
        value = other_value(SETTINGS[key])
        (action,) = [a for a in setting_actions() if a.dest == key]
        argv = action.option_strings + ([] if action.nargs == 0 else [str(value)])
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        by_flag = flag_echo(argv)
        assert by_flag == flag_echo(["--config", str(path)]) != parse_config(None).echo()


class TestGradcheckCommand:
    """One ``slotgnn gradcheck`` run, the session's ``bundled_gradcheck``."""

    def test_bundled_fixture_passes(self, bundled_gradcheck):
        assert bundled_gradcheck.code == 0
        report = json.loads((bundled_gradcheck.out / "gradcheck.json").read_text())
        assert max(report.values()) < 1e-4
        assert bundled_gradcheck.stdout.splitlines()[-1].startswith("worst relative error: ")
        assert len(bundled_gradcheck.stdout.splitlines()) == len(report) + 1

    def test_projects_its_cost_on_stderr(self, bundled_gradcheck):
        model = init_model(gradcheck_graph(), from_profile("desk").replace(**GRADCHECK_MODEL))
        coords = sum(p.data.size for _, p in model.named_parameters())
        want = rf"gradcheck: {coords} coordinates, [0-9.]+ ms per forward and loss, projected "
        assert re.fullmatch(want + r"[0-9]+ s \([0-9.]+ min\)\n", bundled_gradcheck.err)

    def test_dataset_run_checks_every_parameter_of_its_model(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "gc"
        code = main(["gradcheck", "--dataset", str(small_dataset), "--out", str(out), *SMALL_MODEL])
        printed = capsys.readouterr()
        last = printed.out.splitlines()[-1]
        written = json.loads((out / "gradcheck.json").read_text())
        report = written["errors"]
        cfg = from_profile("desk").replace(dim=4, heads=2, layers=1, **CHECKABLE)
        model = init_model(load_dataset(small_dataset), cfg)
        assert set(report) == {name for name, _ in model.named_parameters()}
        assert written == {"directions": GRADCHECK_DIRECTIONS, "seed": cfg.seed, "errors": report}
        want = rf"gradcheck: {len(report)} parameter groups x {GRADCHECK_DIRECTIONS} directions, "
        cost = r"[0-9.]+ ms per forward and loss, projected [0-9]+ s \([0-9.]+ min\)\n"
        assert re.fullmatch(want + cost, printed.err)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset_hash"] == dataset_fingerprint(small_dataset) != "builtin:gradcheck"
        worst, limit = re.fullmatch(r"worst relative error: (\S+) \(limit (\S+)\)", last).groups()
        assert float(worst) == pytest.approx(max(report.values()), rel=1e-3)
        assert float(limit) == GRADCHECK_LIMIT
        assert code == (0 if float(worst) < GRADCHECK_LIMIT else 1)

    def test_dataset_run_fails_one_group_off_by_one_percent(self, small_dataset, tmp_path,
                                                           monkeypatch, capsys):
        backward = T.Tape.backward

        def one_group_off(tape, loss):
            table = backward(tape, loss)
            return {p: g * 1.01 if p.name == "fusion.fq" else g for p, g in table.items()}

        monkeypatch.setattr(T.Tape, "backward", one_group_off)
        out = tmp_path / "gc"
        code = main(["gradcheck", "--dataset", str(small_dataset), "--out", str(out), *SMALL_MODEL])
        capsys.readouterr()
        report = json.loads((out / "gradcheck.json").read_text())["errors"]
        assert code == 1
        assert report.pop("fusion.fq") > 1e-3
        assert max(report.values()) < GRADCHECK_LIMIT


class TestCheckpoint:
    def saved(self, tmp_path):
        params = [("a", T.Tensor(np.ones((2, 3)))), ("b", T.Tensor(np.arange(4.0)))]
        save_checkpoint(params, tmp_path)
        fresh = [(name, T.Tensor(np.zeros(p.shape))) for name, p in params]
        return tmp_path / "checkpoint.bin", fresh

    def test_round_trip(self, tmp_path):
        _, fresh = self.saved(tmp_path)
        load_checkpoint(fresh, tmp_path)
        assert np.array_equal(fresh[1][1].data, np.arange(4.0))

    def test_load_writes_into_the_optimizer_vector(self, tmp_path):
        _, fresh = self.saved(tmp_path)
        opt = AdamW(fresh, weight_decay=0.0)
        views = [p.data for _, p in fresh]
        load_checkpoint(fresh, tmp_path)
        for (_, p), view in zip(fresh, views):
            assert p.data is view and np.shares_memory(p.data, opt.vector)
        assert np.array_equal(opt.vector, np.concatenate([np.ones(6), np.arange(4.0)]))
        opt.step({}, lr=0.1)  # still trains: no parameter was rebound

    def test_non_finite_value_names_file_and_parameter(self, tmp_path):
        path, fresh = self.saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[24 + 8:24 + 12] = np.float32(np.inf).tobytes()  # b[2]
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"checkpoint\.bin: parameter 'b' holds non-finite"):
            load_checkpoint(fresh, tmp_path)

    def test_other_dtype_names_file_parameter_and_both_dtypes(self, tmp_path):
        params = [("a", T.Tensor(np.full((2, 3), 0.1), dtype=np.float64))]
        save_checkpoint(params, tmp_path)
        fresh = [("a", T.Tensor(np.zeros((2, 3))))]
        want = r"checkpoint\.bin: parameter 'a' is float32, checkpoint holds float64"
        with pytest.raises(ValueError, match=want):
            load_checkpoint(fresh, tmp_path)
        assert np.all(fresh[0][1].data == 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_dtype_loads_every_bit(self, tmp_path, dtype):
        params = [("a", T.Tensor(np.random.default_rng(3).normal(size=(2, 3)), dtype=dtype))]
        save_checkpoint(params, tmp_path)
        fresh = [("a", T.Tensor(np.zeros((2, 3)), dtype=dtype))]
        load_checkpoint(fresh, tmp_path)
        (_, got), (_, want) = fresh[0], params[0]
        assert got.dtype == dtype and got.data.tobytes() == want.data.tobytes()

    def test_truncated_file_names_file_and_parameter(self, tmp_path):
        path, fresh = self.saved(tmp_path)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ValueError, match=r"checkpoint\.bin: parameter 'b' needs bytes 24\.\.40"):
            load_checkpoint(fresh, tmp_path)


class TestKeepFreedMemory:
    @staticmethod
    def fake_libc(monkeypatch, libc):
        from slotgnn import cli

        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(cli.platform, "libc_ver", lambda: (libc, "2.36"))
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        return calls

    def test_main_raises_both_glibc_thresholds_once(self, monkeypatch, tmp_path):
        calls = self.fake_libc(monkeypatch, "glibc")
        assert main(["train", "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path)]) == 2
        assert calls == [(-1, 256 << 20), (-3, 32 << 20)]

    def test_skipped_off_glibc(self, monkeypatch, tmp_path):
        calls = self.fake_libc(monkeypatch, "")
        main(["train", "--dataset", str(tmp_path / "missing"), "--out", str(tmp_path)])
        assert calls == []
