import math

import numpy as np
import pytest

from slotgnn import tensor as T
from slotgnn.config import TrainConfig, from_profile
from slotgnn.fixtures import GRADCHECK_SEED, gradcheck_graph
from slotgnn.fusion import FusionParams, classify, f1_metrics, loss as head_loss, predict
from slotgnn.graph import SyntheticSpec, synthetic_generate
from slotgnn.training import (
    AdamW,
    OptimizerError,
    RngStreams,
    evaluate,
    grad_check_model,
    gradcheck_loss,
    init_model,
    onecycle_lr,
    train,
)

from . import oracles
from .randgraphs import random_graph, random_schema


def small_planted(seed=0):
    return synthetic_generate(
        SyntheticSpec(num_targets=120, num_mid=60, num_attr=20, num_junk=20), seed=seed
    )


def quick_cfg(**kw):
    base = dict(dim=16, heads=4, layers=2, dropout=0.2, epochs=8, max_lr=0.005, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestAdamW:
    def make_param(self, value=1.0):
        return T.Tensor(np.array([[value]]), requires_grad=True, name="w", dtype=np.float64)

    def test_zero_gradient_no_decay_is_identity(self):
        p = self.make_param(3.0)
        opt = AdamW([("w", p)], weight_decay=0.0)
        opt.step({p: np.zeros_like(p.data)}, lr=0.1)
        assert p.data[0, 0] == 3.0

    def test_zero_gradient_decay_only(self):
        p = self.make_param(2.0)
        opt = AdamW([("w", p)], weight_decay=0.5)
        opt.step({p: np.zeros_like(p.data)}, lr=0.1)
        assert abs(p.data[0, 0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-15

    def test_missing_gradient_counts_as_zero(self):
        p, q = self.make_param(2.0), self.make_param(2.0)
        AdamW([("w", p)], weight_decay=0.5).step({}, lr=0.1)
        AdamW([("w", q)], weight_decay=0.5).step({q: np.zeros_like(q.data)}, lr=0.1)
        assert p.data[0, 0] == q.data[0, 0]

    def test_single_step_closed_form(self):
        p = self.make_param(1.0)
        opt = AdamW([("w", p)], beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0)
        opt.step({p: np.ones_like(p.data)}, lr=0.1)
        m_hat = (0.1 * 1.0) / (1 - 0.9)
        v_hat = (0.001 * 1.0) / (1 - 0.999)
        want = 1.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(p.data[0, 0] - want) < 1e-12

    def test_lr_zero_is_identity(self):
        p = self.make_param(1.5)
        opt = AdamW([("w", p)], weight_decay=0.01)
        opt.step({p: np.full_like(p.data, 2.0)}, lr=0.0)
        assert p.data[0, 0] == 1.5

    def test_nan_gradient_names_parameter(self):
        p = self.make_param()
        opt = AdamW([("w", p)])
        with pytest.raises(OptimizerError, match="'w'"):
            opt.step({p: np.array([[np.nan]])}, lr=0.1)

    SHAPES = {"a": (3, 4), "b": (5,), "c": (2, 3, 2), "d": (), "e": (1, 7)}

    def mixed_params(self, dtype, seed=0):
        g = np.random.default_rng(seed)
        return [
            (name, T.Tensor(g.normal(size=shape), requires_grad=True, name=name, dtype=dtype))
            for name, shape in self.SHAPES.items()
        ]

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vector_step_matches_per_tensor_reference_to_the_bit(self, dtype, weight_decay):
        named = self.mixed_params(dtype)
        ref = [p.data.copy() for _, p in named]
        ref_m = [np.zeros_like(x) for x in ref]
        ref_v = [np.zeros_like(x) for x in ref]
        opt = AdamW(named, beta1=0.8, beta2=0.99, eps=1e-6, weight_decay=weight_decay)
        g = np.random.default_rng(1)
        for t, lr in enumerate([0.1, 0.03, 0.5, 1e-4, 0.2], start=1):
            grads = [
                g.normal(scale=10.0 ** g.integers(-4, 3), size=x.shape).astype(dtype) for x in ref
            ]
            grads[t % len(grads)] = None  # a different parameter misses its gradient each step
            opt.step({p: gr for (_, p), gr in zip(named, grads) if gr is not None}, lr)
            oracles.adamw_reference_step(
                ref, ref_m, ref_v, grads, t, lr, beta1=0.8, beta2=0.99, eps=1e-6,
                weight_decay=weight_decay,
            )
            offset = 0
            for (name, p), want, want_m, want_v in zip(named, ref, ref_m, ref_v):
                end = offset + want.size
                assert p.data.dtype == want.dtype and p.data.shape == want.shape, name
                assert p.data.tobytes() == want.tobytes(), (t, name)
                assert opt.m[offset:end].tobytes() == want_m.tobytes(), (t, name)
                assert opt.v[offset:end].tobytes() == want_v.tobytes(), (t, name)
                offset = end
        assert opt.t == 5

    def test_parameters_become_views_of_one_vector(self):
        named = self.mixed_params(np.float32)
        before = [p.data.copy() for _, p in named]
        opt = AdamW(named)
        assert opt.vector.size == sum(x.size for x in before)
        for (_, p), want in zip(named, before):
            assert np.shares_memory(p.data, opt.vector)
            assert p.data.shape == want.shape and np.array_equal(p.data, want)

    def test_failed_step_changes_nothing(self):
        named = self.mixed_params(np.float64)
        opt = AdamW(named)
        opt.step({p: np.ones_like(p.data) for _, p in named}, lr=0.1)
        state = [opt.vector.copy(), opt.m.copy(), opt.v.copy()]
        grads = {p: np.full_like(p.data, 2.0) for _, p in named}
        last_name, last = named[-1]
        grads[last] = grads[last].copy()
        grads[last].flat[-1] = np.nan
        with pytest.raises(OptimizerError, match=f"'{last_name}'"):
            opt.step(grads, lr=0.1)
        assert opt.t == 1
        for got, want in zip([opt.vector, opt.m, opt.v], state):
            assert got.tobytes() == want.tobytes()

    def test_finite_gradient_whose_sum_overflows_is_accepted(self):
        # every entry is finite, so the screen passes though a sum would overflow
        p = T.Tensor(np.ones(4), requires_grad=True, name="w")  # float32
        grad = np.full(4, 3e38, dtype=np.float32)
        ref, ref_m, ref_v = [p.data.copy()], [np.zeros(4, np.float32)], [np.zeros(4, np.float32)]
        with np.errstate(over="ignore"):  # g * g overflows in v, as it always did
            AdamW([("w", p)]).step({p: grad}, lr=0.1)
            oracles.adamw_reference_step(ref, ref_m, ref_v, [grad], 1, 0.1)
        assert p.data.tobytes() == ref[0].tobytes()

    def test_rebound_parameter_raises(self):
        named = self.mixed_params(np.float32)
        opt = AdamW(named)
        name, p = named[2]
        p.data = p.data.copy()
        with pytest.raises(OptimizerError, match=f"'{name}' no longer views"):
            opt.step({}, lr=0.1)
        assert opt.t == 0

    def test_parameters_of_mixed_dtypes_rejected(self):
        p = T.Tensor(np.ones(2), requires_grad=True, dtype=np.float32)
        q = T.Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        with pytest.raises(ValueError, match="one dtype"):
            AdamW([("p", p), ("q", q)])


class TestOneCycle:
    def test_peak_is_max_lr(self):
        total = 100
        peak = max(onecycle_lr(s, total, 0.0005) for s in range(total + 1))
        assert abs(peak - 0.0005) < 1e-12

    def test_step_zero_is_max_over_div(self):
        assert abs(onecycle_lr(0, 100, 0.0005) - 0.0005 / 25) < 1e-15

    def test_final_step_is_max_over_final_div(self):
        assert abs(onecycle_lr(100, 100, 0.0005) - 0.0005 / 1e4) < 1e-15

    def test_warmup_midpoint_matches_closed_form(self):
        total, max_lr, frac, div = 200, 0.0005, 0.3, 25.0
        mid = frac * total / 2
        got = onecycle_lr(int(mid), total, max_lr, frac, div)
        initial = max_lr / div
        t = int(mid) / (frac * total)
        want = initial + (max_lr - initial) * (1 - math.cos(math.pi * t)) / 2
        assert abs(got - want) < 1e-15

    def test_zero_total_steps_rejected(self):
        with pytest.raises(ValueError):
            onecycle_lr(0, 0, 0.001)


class TestSetSeed:
    def test_same_seed_same_init(self):
        a = RngStreams(7).generator("init").normal(size=10)
        b = RngStreams(7).generator("init").normal(size=10)
        assert np.array_equal(a, b)

    def test_named_streams_decorrelated(self):
        streams = RngStreams(7)
        a = streams.generator("init").integers(0, 2 ** 32, size=64)
        b = streams.generator("sampler").integers(0, 2 ** 32, size=64)
        assert not np.array_equal(a, b)

    def test_seed_recorded_in_result(self):
        g = gradcheck_graph()
        cfg = quick_cfg(dim=8, heads=2, epochs=1, seed=123, dropout=0.0)
        model = init_model(g, cfg)
        result = train(model, g, cfg)
        assert result.seed == 123


class TestTrain:
    def test_initial_loss_near_log_c(self):
        g = small_planted()
        cfg = quick_cfg(epochs=1, dropout=0.0, max_lr=1e-9)
        model = init_model(g, cfg)
        train_ids = g.splits["train"]
        z = model.forward(g, training=True).logits.data[train_ids]
        log_p = np.log(oracles.softmax_formula(z, axis=1))
        result = train(model, g, cfg)
        # the first logged loss is the untrained model's train cross-entropy
        ce = -log_p[np.arange(train_ids.size), g.labels[train_ids]].mean()
        assert abs(result.log[0]["loss"] - ce) / ce < 1e-5
        # a random readout aligns with the labels by chance, either way, so the
        # near-uniform check averages the labels out: CE against a uniform target
        label_free = -log_p.mean()
        assert abs(label_free - math.log(4)) / math.log(4) < 0.05

    def test_bit_identical_reruns(self):
        g = small_planted()
        cfg = quick_cfg(epochs=4)
        runs = []
        for _ in range(2):
            model = init_model(g, cfg)
            result = train(model, g, cfg)
            metrics = evaluate(model, g, "test")
            runs.append((result.log, metrics))
        assert runs[0] == runs[1]

    def test_loss_window_minima_do_not_increase(self):
        # dropout off: the full-batch loop is then noise-free and the
        # windowed minima must be monotone, ruling out divergence
        g = small_planted()
        cfg = quick_cfg(epochs=60, dropout=0.0)
        model = init_model(g, cfg)
        result = train(model, g, cfg)
        losses = [e["loss"] for e in result.log]
        minima = [min(losses[i: i + 20]) for i in range(0, 60, 20)]
        for earlier, later in zip(minima, minima[1:]):
            assert later <= earlier + 1e-9
        assert losses[-1] < 0.5 * losses[0]

    def test_divergence_aborts_and_restores_finite_state(self):
        g = small_planted()
        # the schedule starts at max_lr / 25: a first step at a rate of 1e12
        cfg = quick_cfg(epochs=6, max_lr=2.5e13, dropout=0.0)
        model = init_model(g, cfg)
        with np.errstate(all="ignore"):  # the learning rate overflows on purpose
            result = train(model, g, cfg)
        assert result.diverged
        for _, p in model.named_parameters():
            assert np.all(np.isfinite(p.data))

    @staticmethod
    def record_steps(monkeypatch):
        """Wrap AdamW.step; returns the optimizers seen and the parameter
        vector after each completed step (the first entry is the start)."""
        opts, states = [], []
        step = AdamW.step

        def recording_step(opt, grads, lr):
            if not opts:
                opts.append(opt)
                states.append(opt.vector.copy())
            step(opt, grads, lr)
            states.append(opt.vector.copy())

        monkeypatch.setattr(AdamW, "step", recording_step)
        return opts, states

    def test_parameters_stay_views_after_train(self, monkeypatch):
        opts, states = self.record_steps(monkeypatch)
        g = small_planted()
        cfg = quick_cfg(epochs=3)
        model = init_model(g, cfg)
        train(model, g, cfg)
        (opt,) = opts
        for p in model.parameters():
            assert np.shares_memory(p.data, opt.vector)
        assert opt.vector.tobytes() == states[-1].tobytes()

    def test_divergence_restores_the_epoch_start_in_place(self, monkeypatch):
        opts, states = self.record_steps(monkeypatch)
        g = small_planted()
        # the schedule starts at max_lr / 25: a first step at a rate of 1e12
        cfg = quick_cfg(epochs=6, max_lr=2.5e13, dropout=0.0)
        model = init_model(g, cfg)
        with np.errstate(all="ignore"):  # the learning rate overflows on purpose
            result = train(model, g, cfg)
        assert result.diverged
        (opt,) = opts
        for p in model.parameters():
            assert np.shares_memory(p.data, opt.vector)
        # one step per epoch: the failing epoch started after len(log) steps
        assert opt.vector.tobytes() == states[len(result.log)].tobytes()

    @pytest.mark.parametrize("use_fusion", [True, False])
    def test_forward_overflow_diverges_and_restores(self, use_fusion):
        # a huge extraction weight overflows the last layer's messages at a
        # normal learning rate; no op on the way screens them, and without the
        # fusion head only the loss does
        g = small_planted()
        cfg = quick_cfg(epochs=3, use_fusion=use_fusion)
        model = init_model(g, cfg)
        rel = g.schema.relations_into(g.schema.target_type)[0]
        model.layers[-1].ext[rel].data[...] = 3e38
        start = [p.data.copy() for p in model.parameters()]
        with np.errstate(all="ignore"):
            result = train(model, g, cfg)
        assert result.diverged and result.log == []
        for p, want in zip(model.parameters(), start):
            assert p.data.tobytes() == want.tobytes()

    def test_early_stopping(self):
        g = small_planted()
        cfg = quick_cfg(epochs=40, early_stop_patience=3, max_lr=1e-9, dropout=0.0)
        model = init_model(g, cfg)
        result = train(model, g, cfg)
        assert result.stopped_early
        assert len(result.log) < 40

    def test_sampled_full_coverage_equals_full_batch(self):
        g = small_planted()
        n_train = g.splits["train"].size
        full_cfg = quick_cfg(epochs=3, dropout=0.3)
        model_full = init_model(g, full_cfg)
        res_full = train(model_full, g, full_cfg)
        total_nodes = sum(g.counts.values())
        sampled_cfg = full_cfg.replace(
            batch_mode="sampled",
            batch_size=n_train,
            batches_per_epoch=1,
            sample_budget=total_nodes,
            sample_depth=4,
        )
        model_sampled = init_model(g, sampled_cfg)
        res_sampled = train(model_sampled, g, sampled_cfg)
        assert [e["loss"] for e in res_full.log] == [e["loss"] for e in res_sampled.log]
        m_full = evaluate(model_full, g, "test")
        m_sampled = evaluate(model_sampled, g, "test")
        assert m_full == m_sampled

    def test_sampled_mode_runs_with_budget(self):
        g = small_planted()
        cfg = quick_cfg(
            epochs=2, batch_mode="sampled", batch_size=16, batches_per_epoch=3, sample_budget=30
        )
        model = init_model(g, cfg)
        result = train(model, g, cfg)
        assert len(result.log) == 2

    @pytest.mark.parametrize("valid", [None, []])
    def test_no_valid_split_logs_nan(self, valid):
        g = small_planted()
        g.splits.pop("valid")
        if valid is not None:
            g.splits["valid"] = np.array(valid, dtype=np.int64)
        cfg = quick_cfg(epochs=2)
        result = train(init_model(g, cfg), g, cfg)
        assert len(result.log) == 2 and not result.diverged
        for entry in result.log:
            assert math.isnan(entry["val_micro_f1"]) and math.isnan(entry["val_macro_f1"])

    def test_bad_validation_label_raises(self):
        # a label outside the schema's classes is a fault of the data, not a
        # missing split, so it must not turn into NaN metrics
        g = small_planted()
        g.labels[g.splits["valid"][0]] = g.schema.num_classes
        cfg = quick_cfg(epochs=1)
        with pytest.raises(ValueError, match="label index out of range"):
            train(init_model(g, cfg), g, cfg)

    def test_desk_train_step_tape_size_is_pinned(self, monkeypatch):
        # each relation's attention (K W included), its aggregation, the
        # fusion head after its query and every affine map (product and bias)
        # are one fused node apiece, and each layer-0 slot is made in its
        # final (n, 1, d) shape; a change that splits them into several ops
        # or adds a node that only moves values shows up here
        nodes = []
        backward = T.Tape.backward

        def counting(tape, loss):
            nodes.append(len(tape.nodes))
            return backward(tape, loss)

        monkeypatch.setattr(T.Tape, "backward", counting)
        g = synthetic_generate(SyntheticSpec(), seed=101)
        cfg = from_profile("desk").replace(epochs=1)
        train(init_model(g, cfg), g, cfg)
        assert nodes == [66]

    def test_desk_train_step_screen_count_is_pinned(self, monkeypatch):
        # screens run on raw tensors (features, featureless types' ones and
        # per-layer dropout scales), on K W once per active relation, on the
        # fusion logits and on the loss's input and output; a per-op screen
        # that comes back shows up here
        g = synthetic_generate(SyntheticSpec(), seed=101)
        g.splits.pop("valid")  # one epoch is then one train step, no evaluate
        cfg = from_profile("desk").replace(epochs=1)
        model = init_model(g, cfg)
        calls = []
        monkeypatch.setattr(T, "_check_finite", lambda arr: calls.append(arr.shape))
        train(model, g, cfg)
        schema = g.schema
        raw = sum(schema.base_slots(nt.name) for nt in schema.node_types)
        raw += cfg.layers * len(schema.node_types)
        plan = g.blocks(g.splits["train"], cfg.layers)
        active = sum(
            bool(block.views[rel].dst.num_segments)
            for block in plan.layers for rel in schema.relations
        )
        assert cfg.dropout > 0 and cfg.use_fusion
        assert len(calls) == raw + active + 1 + 2
        assert calls[-2:] == [(g.splits["train"].size, schema.num_classes), ()]


class TestEvaluate:
    def test_deterministic(self):
        g = small_planted()
        cfg = quick_cfg(epochs=2)
        model = init_model(g, cfg)
        train(model, g, cfg)
        assert evaluate(model, g, "test") == evaluate(model, g, "test")

    def test_eval_mode_is_identity(self):
        # slot dropout only runs in training: outside it the rate is inert
        g = small_planted()
        heavy = init_model(g, quick_cfg(dropout=0.9))
        none = init_model(g, quick_cfg(dropout=0.0))
        want = none.forward(g, training=False).logits.data
        assert np.array_equal(heavy.forward(g, training=False).logits.data, want)
        assert not np.array_equal(heavy.forward(g, training=True).logits.data, want)

    def test_single_node_split(self):
        g = small_planted()
        cfg = quick_cfg(epochs=1)
        model = init_model(g, cfg)
        metrics = evaluate(model, g, g.splits["test"][:1])
        for key in ("micro_f1", "macro_f1", "accuracy"):
            assert metrics[key] in (0.0, 1.0) or 0 <= metrics[key] <= 1

    def test_empty_split_rejected(self):
        g = small_planted()
        model = init_model(g, quick_cfg())
        with pytest.raises(ValueError):
            evaluate(model, g, np.array([], dtype=np.int64))

    def test_matches_f1_metrics_on_dumped_predictions(self):
        g = small_planted()
        cfg = quick_cfg(epochs=3)
        model = init_model(g, cfg)
        train(model, g, cfg)
        ids = g.splits["valid"]
        metrics = evaluate(model, g, "valid")
        out = model.forward(g, training=False)
        preds = predict(out.logits.data[ids])
        direct = f1_metrics(preds, g.labels[ids], g.schema.num_classes)
        assert metrics["micro_f1"] == direct.micro_f1
        assert metrics["macro_f1"] == direct.macro_f1
        assert metrics["accuracy"] == direct.accuracy


class TestDtype:
    def test_dtype_follows_each_model(self):
        g = small_planted()
        models = {
            np.float64: init_model(g, quick_cfg(precision="float64")),
            np.float32: init_model(g, quick_cfg(precision="float32")),
        }
        ids = g.splits["train"]
        rows = T.Segments(ids, g.counts[g.schema.target_type])
        first = {}
        # alternate between the models: neither may leave state for the other
        for _ in range(2):
            for dtype, model in models.items():
                with T.Tape() as tape:
                    out = model.forward(g, training=True, dropout_seed=(1,))
                    batch_loss = head_loss(T.gather(out.logits, rows), g.labels[ids])
                assert out.logits.dtype == dtype and batch_loss.dtype == dtype
                assert all(p.dtype == dtype for p in model.parameters())
                # every op's inputs, the features and dropout masks among them
                assert {t.dtype for node in tape.nodes for t in node.parents} == {np.dtype(dtype)}
                evaluate(model, g, "valid")
                logits = out.logits.data.tobytes()
                assert first.setdefault(dtype, logits) == logits

    def test_training_keeps_the_model_dtype(self, monkeypatch):
        tables = []
        step = AdamW.step

        def recording_step(opt, grads, lr):
            tables.append(grads)
            return step(opt, grads, lr)

        monkeypatch.setattr(AdamW, "step", recording_step)
        g = small_planted()
        for precision in ("float64", "float32", "float64"):
            cfg = quick_cfg(precision=precision, epochs=2)
            model = init_model(g, cfg)
            train(model, g, cfg)
            assert all(p.dtype == np.dtype(precision) for p in model.parameters())
            # the last step's gradients, one per parameter the step reached
            assert tables[-1] and all(g.dtype == np.dtype(precision) for g in tables[-1].values())


class TestGradCheckModel:
    @pytest.fixture(scope="class")
    def fixture_model(self):
        g = gradcheck_graph()
        cfg = TrainConfig(
            dim=8, heads=2, layers=2, dropout=0.0, epochs=1,
            precision="float64", seed=GRADCHECK_SEED,
        )
        return g, init_model(g, cfg)

    def test_all_groups_pass(self, fixture_model):
        g, model = fixture_model
        report = grad_check_model(model, g)
        assert max(report.values()) < 1e-4

    def test_requires_float64(self):
        g = gradcheck_graph()
        model = init_model(g, quick_cfg(dim=8, heads=2, precision="float32"))
        with pytest.raises(ValueError, match="float64"):
            grad_check_model(model, g)

    def test_classifier_only_is_tightly_convex(self):
        rng = np.random.default_rng(0)
        params = FusionParams.create(8, 2, 2, rng, dtype=np.float64)
        fused = T.Tensor(rng.normal(size=(6, 8)), dtype=np.float64)
        labels = rng.integers(0, 2, size=6)

        def f():
            return head_loss(classify(fused, params), labels)

        for p in (params.classifier_weight, params.classifier_bias):
            assert max(T.finite_diff_check(f, [p])) < 1e-8

    def test_corrupted_backward_rule_is_detected(self, monkeypatch):
        import slotgnn.tensor as tensor_mod

        true_matmul = tensor_mod.matmul

        def corrupted(a, b):
            if b.ndim != 2 or a.ndim not in (2, 3):
                return true_matmul(a, b)
            k, n = b.shape

            def back(g):
                ga = g @ b.data.T * 1.05  # deliberately wrong scale
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
                return ga, gb

            return tensor_mod._make(a.data @ b.data, (a, b), back)

        g = gradcheck_graph()
        cfg = TrainConfig(
            dim=8, heads=2, layers=1, dropout=0.0, epochs=1,
            precision="float64", seed=GRADCHECK_SEED,
        )
        model = init_model(g, cfg)
        monkeypatch.setattr(tensor_mod, "matmul", corrupted)
        report = grad_check_model(model, g)
        assert max(report.values()) > 1e-2


class TestDirectionalGradients:
    """The loss's central difference along random directions v against the
    tape's g . v, as ``jax.test_util.check_grads`` does, over random schemas
    (some with featureless types or a multi-label head) and every switch.
    A full-coordinate check per pair would take minutes; one direction takes
    two forwards."""

    SWITCHES = {
        "default": {},
        "no-seq": dict(use_seq=False),
        "no-fusion": dict(use_fusion=False),
        "no-relation-encoding": dict(use_relation_encoding=False),
        "literal": dict(attention_norm="literal"),
        "scale-outside": dict(scale_outside=True),
        "one-layer": dict(layers=1),
        "three-layers": dict(layers=3),
    }

    @staticmethod
    def worst_error(model, graph, rng, directions=2, h=1e-5):
        params = model.parameters()
        # off init, so the zero biases and encodings are live
        for p in params:
            p.data += 0.1 * rng.normal(size=p.shape)
        f = gradcheck_loss(model, graph)
        with T.Tape() as tape:
            table = tape.backward(f())
        origs = [p.data.copy() for p in params]
        worst = 0.0
        for _ in range(directions):
            vs = [rng.normal(size=p.shape) for p in params]
            g_v = sum(float(np.vdot(table[p], v)) for p, v in zip(params, vs) if p in table)
            values = []
            for step in (h, -h):
                for p, orig, v in zip(params, origs, vs):
                    p.data[...] = orig + step * v
                values.append(f().item())
            for p, orig in zip(params, origs):
                p.data[...] = orig
            fd = (values[0] - values[1]) / (2 * h)
            worst = max(worst, abs(fd - g_v) / max(1e-8, abs(fd) + abs(g_v)))
        return worst

    @pytest.mark.parametrize("switch", SWITCHES)
    def test_every_switch_over_random_schemas(self, switch):
        worst = {}
        for seed in range(10):
            rng = np.random.default_rng(seed)
            schema = random_schema(rng, featureless=True, multilabel=seed % 2 == 1)
            graph = random_graph(rng, schema)
            cfg = TrainConfig(
                dim=4, heads=2, dropout=0.0, precision="float64", seed=seed, **self.SWITCHES[switch]
            )
            worst[seed] = self.worst_error(init_model(graph, cfg), graph, rng)
        assert max(worst.values()) < 1e-6, worst

    def test_the_schemas_reach_the_paths_the_fixture_misses(self):
        schemas = [
            random_schema(np.random.default_rng(seed), featureless=True, multilabel=seed % 2 == 1)
            for seed in range(10)
        ]
        assert any(s.multilabel for s in schemas)
        assert any(nt.num_features == 0 for s in schemas for nt in s.node_types)
        assert any(nt.num_features > 1 for s in schemas for nt in s.node_types)
        # a type that both sends and receives: its sequence grows before it is read
        assert any(
            {r.src for r in s.relations} & {r.dst for r in s.relations} for s in schemas
        )
        assert any(
            r.src != s.target_type and r.dst != s.target_type for s in schemas for r in s.relations
        )
