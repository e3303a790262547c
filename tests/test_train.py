"""Optimizer behaviour, two-phase schedule mechanics, and evaluation."""

import math
import tracemalloc

import numpy as np
import pytest

from sparselocal import autodiff as ad
from sparselocal.data import make_synthetic, split_dataset
from sparselocal.errors import GateExhaustedError, NonFiniteLossError
from sparselocal.model import GatedLocalLinear, ModelConfig
from sparselocal.train import (
    _SLICE,
    Adam,
    MomentumSGD,
    TrainSchedule,
    _mean_loss,
    coarse_to_fine_train,
    evaluate,
    train_plain,
    zero_grads,
)


def quadratic_step(param):
    zero_grads([param])
    loss = (param * param).sum()
    loss.backward()
    return float(loss.data)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = ad.Tensor([1.5, -2.0], requires_grad=True)
        opt = Adam([p], lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.5, -2.0])

    def test_first_step_is_lr_times_sign(self):
        p = ad.Tensor([1.0], requires_grad=True)
        opt = Adam([p], lr=0.01)
        p.grad = np.array([3.7])
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.01, rel=1e-6)

    def test_converges_on_quadratic(self):
        p = ad.Tensor([5.0], requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            quadratic_step(p)
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_skips_params_without_grad(self):
        p, q = ad.Tensor([1.0], requires_grad=True), ad.Tensor([2.0], requires_grad=True)
        opt = Adam([p, q], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert q.data[0] == 2.0


class TestMomentumSGD:
    def test_zero_momentum_is_plain_sgd(self):
        p = ad.Tensor([1.0], requires_grad=True)
        opt = MomentumSGD([p], lr=0.1, momentum=0.0)
        p.grad = np.array([2.0])
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.2)

    def test_velocity_approaches_geometric_limit(self):
        p = ad.Tensor([0.0], requires_grad=True)
        opt = MomentumSGD([p], lr=0.0, momentum=0.9)
        for t in range(1, 101):
            p.grad = np.array([2.0])
            opt.step()
            expected = 2.0 * (1.0 - 0.9**t) / (1.0 - 0.9)
            assert opt.v[0][0] == pytest.approx(expected, rel=1e-12)
        assert opt.v[0][0] == pytest.approx(2.0 / 0.1, rel=1e-4)

    def test_converges_on_quadratic(self):
        p = ad.Tensor([5.0], requires_grad=True)
        opt = MomentumSGD([p], lr=0.05, momentum=0.9)
        for _ in range(300):
            quadratic_step(p)
            opt.step()
        assert abs(p.data[0]) < 1e-3


# shapes the optimizers split differently: a scalar, small tensors (one C-, one Fortran-ordered),
# tensors larger than one pass whose first axis does not divide into whole passes (C and Fortran
# order) and a (1, m) bias whose one row is larger than a pass
OPTIMIZER_SHAPES = [((), "C"), ((5, 7), "F"), ((1, 128), "C"), ((2 * _SLICE // 48 + 5, 48), "C"),
                    ((_SLICE // 100 + 3, 4, 25), "F"), ((1, _SLICE + 3), "C")]


def textbook_run(update, steps, seed=3):
    """Parameters after ``steps`` updates ``param, state = update(param, grad, state, t)`` on seeded gradients."""
    rng = np.random.default_rng(seed)
    params = [np.asarray(rng.normal(size=shape), order=order) for shape, order in OPTIMIZER_SHAPES]
    state = [None] * len(params)
    for t in range(1, steps + 1):
        for i, p in enumerate(params):
            params[i], state[i] = update(p, rng.normal(size=p.shape), state[i], t)
    return params


def optimizer_run(make, steps, seed=3):
    """The same run through an optimizer, with gradients and parameters in each parameter's memory order."""
    rng = np.random.default_rng(seed)
    params = [ad.Tensor(np.asarray(rng.normal(size=shape), order=order), requires_grad=True)
              for shape, order in OPTIMIZER_SHAPES]
    opt = make(params)
    for _ in range(steps):
        for p in params:
            p.grad = np.add(rng.normal(size=p.data.shape), 0.0, out=np.empty_like(p.data))
        opt.step()
    return [p.data for p in params]


class TestInPlaceUpdates:
    """Updates in place through a fixed scratch give the bits of the one-expression updates."""

    def test_adam_equals_the_textbook_update(self):
        lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8

        def adam(p, g, state, t):
            m, v = state or (np.zeros_like(p), np.zeros_like(p))
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            return p - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps), (m, v)

        got = optimizer_run(lambda ps: Adam(ps, lr=lr), 4)
        for mine, want in zip(got, textbook_run(adam, 4)):
            assert mine.tobytes() == want.tobytes()

    def test_momentum_sgd_equals_the_textbook_update(self):
        lr, mu = 3e-4, 0.9

        def sgd(p, g, v, t):
            v = mu * (np.zeros_like(p) if v is None else v) + g
            return p - lr * v, v

        got = optimizer_run(lambda ps: MomentumSGD(ps, lr=lr, momentum=mu), 4)
        for mine, want in zip(got, textbook_run(sgd, 4)):
            assert mine.tobytes() == want.tobytes()

    def test_adam_step_allocates_no_full_size_temporary(self):
        p = ad.Tensor(np.random.default_rng(0).normal(size=(1000, 1000)), requires_grad=True)
        p.grad = np.ones_like(p.data)
        opt = Adam([p])
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p.data.nbytes / 8


class TestSchedule:
    def test_fine_lr_is_exactly_one_tenth(self):
        sched = TrainSchedule(adam_lr=3e-3)
        assert sched.fine_lr == 3e-3 / 10.0

    def test_temperatures_belong_to_the_model(self):
        with pytest.raises(TypeError):
            TrainSchedule(tau_fine=0.05)

    def test_rejects_k_target_above_k_coarse(self):
        with pytest.raises(ValueError):
            TrainSchedule(k_coarse=2, k_target=5)

    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0), ("batch_size", -4), ("batch_size", 2.5), ("batch_size", True),
        ("max_coarse_epochs", -1), ("max_fine_epochs", 1.0),
        ("adam_lr", "0.1"), ("adam_lr", -1.0), ("adam_lr", math.nan), ("adam_lr", math.inf), ("adam_lr", True),
        ("momentum", 1.0), ("momentum", -0.1), ("momentum", math.nan), ("momentum", "0.9"),
        ("patience", 0), ("patience", 2.0), ("patience", True),
        ("k_coarse", 10.5), ("k_coarse", 7.9), ("k_coarse", True), ("k_coarse", 0), ("k_target", 2.0), ("k_target", 0),
    ])
    def test_rejects_batch_sizes_and_epoch_budgets_that_train_nothing(self, field, value):
        kind = "a real number" if field in ("adam_lr", "momentum") else "an integer"
        with pytest.raises(ValueError, match=rf"^{field} must be {kind}"):
            TrainSchedule(**{field: value})

    def test_zero_learning_rate_and_momentum_are_allowed(self):
        sched = TrainSchedule(adam_lr=0.0, momentum=0.0, patience=1)
        assert (sched.adam_lr, sched.momentum, sched.fine_lr) == (0.0, 0.0, 0.0)

    def test_roundtrips_through_dict(self):
        sched = TrainSchedule(adam_lr=2e-3, k_coarse=7, k_target=3)
        assert TrainSchedule.from_dict(sched.to_dict()) == sched


def small_problem(seed=0, n=400, d=8):
    ds = make_synthetic(n, d, seed=seed)
    train, val, test = split_dataset(ds.samples, [0.6, 0.2, 0.2], seed=seed)
    cfg = ModelConfig(d=d, k=1, extractor={"kind": "vector", "dim": d + 2}, fc_width=16)
    return cfg, train, val, test


class TestCoarseToFine:
    def test_phase_log_records_the_tau_and_k_transition(self):
        cfg, train, val, _ = small_problem()
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        sched = TrainSchedule(k_coarse=4, batch_size=64, max_coarse_epochs=3, max_fine_epochs=2, patience=10)
        log = coarse_to_fine_train(model, train, val, sched, np.random.default_rng(0))
        phases = [(r["phase"], r["tau"], r["k"], r["lr"]) for r in log]
        assert phases[:3] == [("coarse", 1.0, 4, 1e-3)] * 3
        assert phases[3:] == [("fine", 0.1, 1, 1e-4)] * 2
        assert [r["epoch"] for r in log] == list(range(1, 6))
        assert all({"train_loss", "val_loss", "val_acc"} <= set(r) for r in log)

    def test_phases_anneal_between_the_model_temperatures(self):
        _, train, val, _ = small_problem()
        cfg = ModelConfig(d=8, k=1, extractor={"kind": "vector", "dim": 10}, fc_width=16, tau_coarse=2.0, tau_fine=0.05)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        sched = TrainSchedule(k_coarse=4, max_coarse_epochs=1, max_fine_epochs=1, patience=10)
        log = coarse_to_fine_train(model, train, val, sched, np.random.default_rng(0))
        assert [(r["phase"], r["tau"]) for r in log] == [("coarse", 2.0), ("fine", 0.05)]

    def test_zero_fine_epochs_is_plain_coarse_training(self):
        cfg, train, val, _ = small_problem()
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        sched = TrainSchedule(k_coarse=4, max_coarse_epochs=2, max_fine_epochs=0, patience=10)
        log = coarse_to_fine_train(model, train, val, sched, np.random.default_rng(0))
        assert [r["phase"] for r in log] == ["coarse", "coarse"]

    def test_zero_coarse_epochs_is_fine_only(self):
        cfg, train, val, _ = small_problem()
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        sched = TrainSchedule(max_coarse_epochs=0, max_fine_epochs=2, patience=10)
        log = coarse_to_fine_train(model, train, val, sched, np.random.default_rng(0))
        assert [r["phase"] for r in log] == ["fine", "fine"]

    def test_empty_dataset_is_an_error(self):
        cfg, train, val, _ = small_problem()
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-empty"):
            coarse_to_fine_train(model, [], val, TrainSchedule(), np.random.default_rng(0))

    def test_k_coarse_below_the_model_k_is_rejected_before_any_epoch(self):
        _, train, val, _ = small_problem()
        cfg = ModelConfig(d=8, k=5, extractor={"kind": "vector", "dim": 10}, fc_width=16)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        log = []
        with pytest.raises(ValueError, match="k_coarse >= k_target >= 1"):
            coarse_to_fine_train(model, train, val, TrainSchedule(k_coarse=2), np.random.default_rng(0), log.append)
        assert log == []

    def test_infeasible_target_k_names_samples(self):
        cfg, train, val, _ = small_problem()
        train[3].m = np.ones(8, dtype=np.int64)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        with pytest.raises(GateExhaustedError, match="infeasible"):
            coarse_to_fine_train(model, train, val, TrainSchedule(), np.random.default_rng(0))

    def test_validation_sample_without_live_features_is_rejected_before_any_step(self, monkeypatch):
        cfg, train, val, _ = small_problem()
        for i in (2, 5):
            val[i].m = np.ones(8, dtype=np.int64)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        steps = []
        monkeypatch.setattr(Adam, "step", lambda self: steps.append(1))
        want = rf"k=1 is infeasible for some validation samples \(e.g. ids \[{val[2].id!r}, {val[5].id!r}\]\)"
        with pytest.raises(GateExhaustedError, match=want):
            coarse_to_fine_train(model, train, val, TrainSchedule(k_coarse=4), np.random.default_rng(0))
        assert steps == []

    def test_patience_stops_a_stalled_phase(self):
        cfg, train, val, _ = small_problem(n=120)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        sched = TrainSchedule(
            adam_lr=0.0, k_coarse=4, max_coarse_epochs=30, max_fine_epochs=0, patience=2
        )
        log = coarse_to_fine_train(model, train, val, sched, np.random.default_rng(0))
        assert len(log) <= 4  # zero learning rate cannot improve validation loss

    def test_coarse_loss_trend_is_non_increasing_smoothed(self):
        cfg, train, val, _ = small_problem(n=600)
        model = GatedLocalLinear(cfg, np.random.default_rng(1))
        sched = TrainSchedule(k_coarse=4, max_coarse_epochs=8, max_fine_epochs=0, patience=10)
        log = coarse_to_fine_train(model, train, val, sched, np.random.default_rng(1))
        losses = np.array([r["train_loss"] for r in log])
        smoothed = np.convolve(losses, np.ones(3) / 3.0, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-3)

    def test_fine_phase_starts_with_fresh_optimizer_state(self, monkeypatch):
        import sparselocal.train as train_mod

        captured = {}
        original = train_mod.MomentumSGD

        class Spy(original):
            def __init__(self, params, lr, momentum=0.9):
                super().__init__(params, lr, momentum)
                captured["velocity_norms"] = [float(np.abs(v).max()) for v in self.v]
                captured["lr"] = lr

        monkeypatch.setattr(train_mod, "MomentumSGD", Spy)
        cfg, train, val, _ = small_problem(n=120)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        sched = TrainSchedule(adam_lr=2e-3, k_coarse=4, max_coarse_epochs=2, max_fine_epochs=1, patience=5)
        coarse_to_fine_train(model, train, val, sched, np.random.default_rng(0))
        assert captured["velocity_norms"] == [0.0] * len(model.parameters())
        assert captured["lr"] == 2e-3 / 10.0

    def test_progress_callback_sees_every_epoch(self):
        cfg, train, val, _ = small_problem(n=120)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        seen = []
        sched = TrainSchedule(k_coarse=4, max_coarse_epochs=2, max_fine_epochs=1, patience=10)
        log = coarse_to_fine_train(model, train, val, sched, np.random.default_rng(0), progress=seen.append)
        assert seen == log


class TestGraphFreeValidation:
    def test_validation_builds_no_graph_and_leaves_training_steps_their_gradients(self):
        cfg, train, val, _ = small_problem(n=120)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        built = []

        def loss_fn(batch, rng):
            loss = model.batch_loss(batch, k=2, tau=1.0, rng=rng)
            built.append(loss.requires_grad)
            return loss

        def step():
            zero_grads(model.parameters())
            loss_fn(train[:16], np.random.default_rng(1)).backward()
            return all(p.grad is not None for p in model.parameters())

        assert step()
        _mean_loss(loss_fn, val, 16, np.random.default_rng(2))
        evaluate(model, val, k=1)
        assert built[0] and not any(built[1:])
        assert step()
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside the context")
        assert step()


class TestEvaluate:
    def test_perfect_model_on_separable_toy(self):
        cfg, train, val, test = small_problem(n=800)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        sched = TrainSchedule(
            adam_lr=3e-3, k_coarse=4, batch_size=32,
            max_coarse_epochs=25, max_fine_epochs=10, patience=6,
        )
        coarse_to_fine_train(model, train, val, sched, np.random.default_rng(0))
        assert evaluate(model, test, k=1) >= 0.95

    def test_random_model_sits_at_chance(self):
        ds = make_synthetic(2000, 8, seed=5)
        model = GatedLocalLinear(
            ModelConfig(d=8, k=2, extractor={"kind": "vector", "dim": 10}, fc_width=16),
            np.random.default_rng(99),
        )
        acc = evaluate(model, ds.samples, k=2)
        assert 0.45 <= acc <= 0.55

    def test_empty_sample_list(self):
        cfg, *_ = small_problem(n=50)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        assert np.isnan(evaluate(model, []))

    def test_unknown_mode_is_rejected(self):
        cfg, _, _, test = small_problem(n=50)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="mode must be 'soft' or 'hard', got 'Hard'"):
            evaluate(model, test, mode="Hard")

    def test_soft_mode_evaluation_tracks_hard_mode(self):
        cfg, train, val, test = small_problem(n=800)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        sched = TrainSchedule(
            adam_lr=3e-3, k_coarse=4, batch_size=32,
            max_coarse_epochs=20, max_fine_epochs=8, patience=6,
        )
        coarse_to_fine_train(model, train, val, sched, np.random.default_rng(0))
        hard = evaluate(model, test, k=1, mode="hard")
        soft = evaluate(model, test, k=1, mode="soft", rng=np.random.default_rng(1))
        assert hard >= 0.95
        # at the fine temperature the relaxed gates nearly always agree
        assert abs(hard - soft) <= 0.1


class TestTrainPlain:
    def test_trains_direct_classifier(self):
        from sparselocal.model import DirectClassifier

        ds = make_synthetic(400, 6, seed=9)
        train, val, _ = split_dataset(ds.samples, [0.7, 0.15, 0.15], seed=1)
        cfg = ModelConfig(d=6, k=1, extractor={"kind": "vector", "dim": 8}, fc_width=16)
        dnn = DirectClassifier(cfg, np.random.default_rng(3))
        log = train_plain(dnn, train, val, epochs=5, rng=np.random.default_rng(3))
        assert len(log) == 5
        assert log[-1]["train_loss"] < log[0]["train_loss"]

    def test_empty_train_set_is_an_error(self):
        from sparselocal.model import DirectClassifier

        cfg = ModelConfig(d=6, k=1, extractor={"kind": "vector", "dim": 8}, fc_width=16)
        dnn = DirectClassifier(cfg, np.random.default_rng(3))
        with pytest.raises(ValueError, match="non-empty train set"):
            train_plain(dnn, [], [], epochs=1, rng=np.random.default_rng(3))

    def test_custom_loss_fn_drives_dense_ablation(self):
        ds = make_synthetic(300, 6, seed=10)
        train, val, _ = split_dataset(ds.samples, [0.7, 0.15, 0.15], seed=1)
        cfg = ModelConfig(d=6, k=6, extractor={"kind": "vector", "dim": 8}, fc_width=16)
        model = GatedLocalLinear(cfg, np.random.default_rng(4))
        log = train_plain(
            model, train, val, epochs=4, rng=np.random.default_rng(4),
            loss_fn=lambda batch, rng: model.batch_loss(batch, gated=False),
        )
        assert log[-1]["train_loss"] < log[0]["train_loss"]

    def test_dense_ablation_learns_the_synthetic_task(self, synthetic_splits):
        # ungated per-sample weights still adapt to context; evaluating at
        # k = d makes the hard gate fully open, i.e. the dense prediction
        train, val, test = synthetic_splits
        cfg = ModelConfig(d=20, k=20, extractor={"kind": "vector", "dim": 22}, fc_width=128)
        model = GatedLocalLinear(cfg, np.random.default_rng(8))
        train_plain(
            model, train, val, epochs=12, lr=1e-3, rng=np.random.default_rng(8),
            loss_fn=lambda batch, rng: model.batch_loss(batch, gated=False), patience=4,
        )
        assert evaluate(model, test, k=20) >= 0.9


@pytest.mark.slow
class TestReferenceClassifierParity:
    def test_direct_classifier_tracks_gated_accuracy(self, digit_splits):
        from sparselocal.model import DirectClassifier

        train, val, test = digit_splits
        sub_train, sub_val, sub_test = train[:1500], val[:300], test[:500]
        cfg = ModelConfig(
            d=49, k=10,
            extractor={"kind": "image", "in_shape": [1, 28, 28], "channels": [16, 32, 64]},
            fc_width=128,
        )
        gated = GatedLocalLinear(cfg, np.random.default_rng(0))
        sched = TrainSchedule(k_coarse=10, batch_size=64, max_coarse_epochs=3, max_fine_epochs=1, patience=3)
        coarse_to_fine_train(gated, sub_train, sub_val, sched, np.random.default_rng(0))
        gated_acc = evaluate(gated, sub_test, k=10)

        dnn = DirectClassifier(cfg, np.random.default_rng(0))
        train_plain(dnn, sub_train, sub_val, epochs=4, rng=np.random.default_rng(0))
        dnn_acc = evaluate(dnn, sub_test)

        # the plain classifier is the accuracy reference the gated model chases
        assert dnn_acc >= gated_acc - 0.02, f"dnn {dnn_acc:.3f} vs gated {gated_acc:.3f}"
        assert gated_acc >= 0.9 and dnn_acc >= 0.9


class TestNonFiniteLoss:
    @pytest.mark.parametrize("poison, where", [
        (lambda calls, tau: len(calls) == 3, "phase 'coarse', epoch 1, batch 2"),
        (lambda calls, tau: tau == 0.1, "phase 'fine', epoch 2, batch 0"),
    ])
    def test_coarse_to_fine_names_phase_epoch_and_batch(self, monkeypatch, poison, where):
        cfg, train, val, _ = small_problem()
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        sched = TrainSchedule(k_coarse=4, batch_size=64, max_coarse_epochs=1, max_fine_epochs=2, patience=10)
        original = model.batch_loss
        calls = []

        def poisoned(batch, **kw):
            loss = original(batch, **kw)
            calls.append(kw["tau"])
            if poison(calls, kw["tau"]):
                loss.data = np.asarray(np.nan)
            return loss

        monkeypatch.setattr(model, "batch_loss", poisoned)
        with pytest.raises(NonFiniteLossError, match=where):
            coarse_to_fine_train(model, train, val, sched, np.random.default_rng(0))
        assert all(p.grad is None for p in model.parameters())  # backward never ran on the bad loss

    def test_weights_whose_squares_overflow_stop_training_at_their_batch(self):
        # a head bias of -1e200 squares to inf inside the soft gate: the gate and the loss are NaN, with no warning
        cfg, train, val, _ = small_problem()
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        model.named_parameters()["head.bias"].data[0, 3] = -1e200
        sched = TrainSchedule(k_coarse=4, batch_size=64, max_coarse_epochs=1, max_fine_epochs=1, patience=10)
        with pytest.raises(NonFiniteLossError, match=r"phase 'coarse', epoch 1, batch 0"):
            coarse_to_fine_train(model, train, val, sched, np.random.default_rng(0))
        assert all(p.grad is None for p in model.parameters())

    def test_nan_parameters_stop_train_plain_before_backward(self):
        ds = make_synthetic(200, 6, seed=9)
        train, val, _ = split_dataset(ds.samples, [0.7, 0.15, 0.15], seed=1)
        model = GatedLocalLinear(ModelConfig(d=6, k=6, extractor={"kind": "vector", "dim": 8}, fc_width=8),
                                 np.random.default_rng(3))
        model.named_parameters()["head.bias"].data[0, 0] = np.inf
        with pytest.raises(NonFiniteLossError, match=r"phase 'plain', epoch 1, batch 0"):
            train_plain(model, train, val, epochs=2, rng=np.random.default_rng(3),
                        loss_fn=lambda batch, rng: model.batch_loss(batch, gated=False))
        assert all(p.grad is None for p in model.parameters())
