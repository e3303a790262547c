"""Acceptance suite: one test per shipping criterion, with frozen tolerances.

Each criterion prints a single PASS line with its measured numbers; a
failure reports them in the assertion message. Heavier criteria build
their datasets once per session. The image criterion uses procedurally
rendered digit IDX files (the test environment has no network access for
dataset downloads), exercising the identical ingestion, training and
evaluation path as real 28x28 digit archives.

Criteria:
  C1 gradient oracle: every primitive and the full model vs finite differences
  C2 gate invariants over 1000 random instances
  C3 synthetic local-linearity oracle (accuracy, planted features, linear cap)
  C4 desk-scale binary digit images (gated vs truncated linear baselines)
  C5 coarse-to-fine beats fine-only at k=1 (median over 5 seeds)
  C6 explanation latency scales gently with k
  C7 ridge/lasso solver oracles
  C8 checkpoint round-trip is bitwise
  C9 gradient-masking identity is exact
"""

import copy
import time

import numpy as np
import pytest

from sparselocal import autodiff as ad
from sparselocal import gate as gt
from sparselocal.baselines import (
    design_matrix,
    lasso_fit,
    ridge_fit,
    select_alpha,
    soft_threshold,
    topk_truncate_eval,
)
from sparselocal.checkpoint import load_checkpoint, save_checkpoint
from sparselocal.data import Sample
from sparselocal.model import GatedLocalLinear, ModelConfig, gated_scores
from sparselocal.train import TrainSchedule, coarse_to_fine_train, evaluate

from oracles import grad_error, param_grad_error

GRAD_TOL = 1e-4


@pytest.fixture
def report(capsys):
    """Criterion reporter that prints its PASS line past pytest's capture."""

    def _report(cid, detail):
        with capsys.disabled():
            print(f"ACCEPTANCE {cid} PASS: {detail}", flush=True)

    return _report


def vector_model(d=20, k=1, seed=0, width=128):
    cfg = ModelConfig(d=d, k=k, extractor={"kind": "vector", "dim": d + 2}, fc_width=width)
    return GatedLocalLinear(cfg, np.random.default_rng(seed))


def image_config(k):
    return ModelConfig(
        d=49, k=k,
        extractor={"kind": "image", "in_shape": [1, 28, 28], "channels": [16, 32, 64]},
        fc_layers=1, fc_width=128,
    )


# --- C1 ----------------------------------------------------------------------


def test_c1_gradient_oracle_suite(report):
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = {}

    def signed(shape, low=0.2, high=2.0):
        return rng.uniform(low, high, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    for trial in range(12):
        x = signed(6)
        c = rng.normal(size=6)
        cases = {
            "add": lambda t: (t + ad.Tensor(c)).sum(),
            "mul": lambda t: (t * ad.Tensor(c)).sum(),
            "relu": lambda t: (ad.relu(t) * ad.Tensor(c)).sum(),
            "softplus": lambda t: (ad.softplus(t) * ad.Tensor(c)).sum(),
        }
        for name, build in cases.items():
            worst[name] = max(worst.get(name, 0.0), grad_error(build, x))

        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        cm = rng.normal(size=(3, 2))
        worst["matmul"] = max(
            worst.get("matmul", 0.0),
            grad_error(lambda t: (ad.matmul(t, ad.Tensor(b)) * ad.Tensor(cm)).sum(), a),
            grad_error(lambda t: (ad.matmul(ad.Tensor(a), t) * ad.Tensor(cm)).sum(), b),
        )

        xi = rng.normal(size=(2, 5, 5))[None]  # the batch axis is added after the draw, keeping the stream
        ki = rng.normal(size=(3, 2, 3, 3))
        co = rng.normal(size=(3, 5, 5))[None]
        worst["conv2d"] = max(
            worst.get("conv2d", 0.0),
            grad_error(lambda t: (ad.conv2d(t, ad.Tensor(ki), padding=1) * ad.Tensor(co)).sum(), xi),
            grad_error(lambda t: (ad.conv2d(ad.Tensor(xi), t, padding=1) * ad.Tensor(co)).sum(), ki),
        )

        xp = (rng.permutation(np.arange(36.0)).reshape(1, 6, 6) * 0.1)[None]
        cp = rng.normal(size=(1, 3, 3))[None]
        worst["max_pool2d"] = max(
            worst.get("max_pool2d", 0.0),
            grad_error(lambda t: (ad.max_pool2d(t, 2) * ad.Tensor(cp)).sum(), xp),
        )

        xr = rng.normal(size=(3, 5))
        cr = rng.normal(size=(3, 5))
        reductions = {
            "log_softmax": lambda t: (ad.log_softmax(t, axis=1) * ad.Tensor(cr)).sum(),
            "sum": lambda t: (t.sum(axis=1) * ad.Tensor(cr[:, 0])).sum(),
            "mean": lambda t: t.mean(),
        }
        for name, build in reductions.items():
            worst[name] = max(worst.get(name, 0.0), grad_error(build, xr))

    # a layer's bias: an (n, m) batch plus a (1, m) row, both operands checked
    rng_b = np.random.default_rng(43)
    for _ in range(12):
        xb, bb, cb = rng_b.normal(size=(5, 4)), rng_b.normal(size=(1, 4)), rng_b.normal(size=(5, 4))
        worst["add_row"] = max(
            worst.get("add_row", 0.0),
            grad_error(lambda t: ((t + ad.Tensor(bb)) * ad.Tensor(cb)).sum(), xb),
            grad_error(lambda t: ((ad.Tensor(xb) + t) * ad.Tensor(cb)).sum(), bb),
        )

    # the soft gate, two heads over a sparse mask so the draws run on the live-column block, and row 1 past its count
    rng_g = np.random.default_rng(31)
    for tau in (1.0, 0.2):
        live = rng_g.random((3, 8)) < 0.5
        live[:, :2], live[:, -1] = True, False
        seed_g = int(rng_g.integers(2**31))
        cg = rng_g.normal(size=(3, 16))
        wg = rng_g.uniform(0.2, 2.0, size=(3, 16)) * rng_g.choice([-1.0, 1.0], size=(3, 16))

        def gated(t):  # a freshly seeded rng: the same noise on every call
            return (gt.k_hot_gate_rows(t, ~live, [2, 1, 2], tau, rng=np.random.default_rng(seed_g)) * ad.Tensor(cg)).sum()

        worst["soft_gate"] = max(worst.get("soft_gate", 0.0), grad_error(gated, wg))

    # the conv block: an image block whose 2x2 pool drops the last row of its 5x6 map, and a ragged text block
    rng_c = np.random.default_rng(53)
    keep = (np.arange(5) < np.array([5, 3])[:, None])[:, None, :, None]
    for name, x_shape, k_shape, window, padding, mask in (
        ("conv_block", (2, 2, 5, 6), (3, 2, 3, 3), 2, 1, None),
        ("conv_block_text", (2, 1, 7, 4), (3, 1, 3, 4), (5, 1), 0, keep),
    ):
        for _ in range(6):
            xc, kc = rng_c.normal(size=x_shape), rng_c.normal(size=k_shape)
            cc = rng_c.normal(size=ad.conv_block(xc, kc, window, padding, mask).data.shape)
            worst[name] = max(
                worst.get(name, 0.0),
                grad_error(lambda t: (ad.conv_block(t, ad.Tensor(kc), window, padding, mask) * ad.Tensor(cc)).sum(), xc),
                grad_error(lambda t: (ad.conv_block(ad.Tensor(xc), t, window, padding, mask) * ad.Tensor(cc)).sum(), kc),
            )

    # the per-head scores z . (g * w), one head and three, gated on w and g and ungated on w
    rng_s = np.random.default_rng(61)
    for heads in (1, 3):
        for _ in range(6):
            zs, ws = rng_s.normal(size=(4, 5)), rng_s.normal(size=(4, heads * 5))
            gs, cs = rng_s.random((4, heads * 5)), rng_s.normal(size=(4, heads))
            worst["scores"] = max(
                worst.get("scores", 0.0),
                grad_error(lambda t: (gated_scores(zs, t, ad.Tensor(gs)) * ad.Tensor(cs)).sum(), ws),
                grad_error(lambda t: (gated_scores(zs, ad.Tensor(ws), t) * ad.Tensor(cs)).sum(), gs),
                grad_error(lambda t: (gated_scores(zs, t) * ad.Tensor(cs)).sum(), ws),
            )

    # the full model end to end, both operating temperatures, the noise seeded afresh on every call
    for tau in (1.0, 0.1):
        rng_m = np.random.default_rng(17)
        cfg = ModelConfig(d=8, k=3, extractor={"kind": "vector", "dim": 10}, fc_width=6)
        model = GatedLocalLinear(cfg, rng_m)
        z = rng_m.normal(size=8)
        sample = Sample(id=0, x=np.concatenate([z, [1.0, 0.0]]), z=z, y=-1, m=np.zeros(8, dtype=np.int64))
        worst[f"model tau={tau}"] = param_grad_error(
            model, lambda: model.batch_loss([sample], tau=tau, rng=np.random.default_rng(18))
        )

    elapsed = time.monotonic() - start
    offenders = {k: v for k, v in worst.items() if v > GRAD_TOL}
    assert not offenders, f"gradient mismatches above {GRAD_TOL}: {offenders}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s, budget is 60s"
    report("C1", f"{len(worst)} gradient checks, worst rel err {max(worst.values()):.2e}, {elapsed:.1f}s")


# --- C2 ----------------------------------------------------------------------


def test_c2_gate_invariant_suite(report):
    start = time.monotonic()
    rng = np.random.default_rng(7)
    instances = 1000
    for _ in range(instances):
        d = int(rng.integers(2, 33))
        w = rng.normal(scale=2.0, size=d)
        mask = (rng.random(d) < 0.3).astype(int)
        if mask.all():
            mask[rng.integers(d)] = 0
        k = int(rng.integers(1, (mask == 0).sum() + 1))

        g, order = gt.k_hot_gate(w, mask == 0, k)
        assert set(np.unique(g)) <= {0.0, 1.0}
        assert int(g.sum()) == k
        assert float(mask @ g) == 0.0
        assert len(set(order.tolist())) == k
        flipped, _ = gt.k_hot_gate(-w, mask == 0, k)
        assert np.array_equal(g, flipped)

        tau = float(rng.uniform(0.1, 1.5))
        # draw t is the gate cut to t + 1 draws less the gate cut to t, each call on a copy of the same rng
        prefixes = [gt.k_hot_gate_rows(w[None], mask[None], j, tau, rng=copy.deepcopy(rng)).data for j in range(k)]
        soft = gt.k_hot_gate_rows(w[None], mask[None], k, tau, rng=rng)
        steps = np.diff(prefixes + [soft.data], axis=0)
        for vals in steps:
            assert abs(vals.sum() - 1.0) <= 1e-6
            assert np.all(vals >= 0.0)
        assert np.all(soft.data[0][mask == 1] == 0.0)
        soft_order = [int(np.argmax(step[0])) for step in steps]
        assert len(set(soft_order)) == k
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"gate suite took {elapsed:.1f}s, budget is 10s"
    report("C2", f"{instances} random instances, hard membership + soft simplex + sign invariance, {elapsed:.1f}s")


# --- C3 ----------------------------------------------------------------------


def test_c3_synthetic_local_linearity_oracle(synthetic_splits, report):
    start = time.monotonic()
    train, val, test = synthetic_splits
    model = vector_model(d=20, k=1, seed=0)
    schedule = TrainSchedule(
        k_coarse=10, k_target=1, batch_size=64, adam_lr=1e-3,
        max_coarse_epochs=15, max_fine_epochs=10, patience=4,
    )
    coarse_to_fine_train(model, train, val, schedule, np.random.default_rng(0))
    accuracy = evaluate(model, test, k=1)
    hit_rate = float(np.mean([model.explain(s, k=1).indices[0] == s.truth for s in test]))

    ridge, _ = select_alpha(ridge_fit, train, val)
    lasso, _ = select_alpha(lasso_fit, train, val)
    Zt, yt = design_matrix(test)
    linear_best = max(
        float(np.mean(np.where(ridge.margins(Zt) >= 0, 1, -1) == yt)),
        float(np.mean(np.where(lasso.margins(Zt) >= 0, 1, -1) == yt)),
    )
    elapsed = time.monotonic() - start
    assert accuracy >= 0.95, f"gated accuracy {accuracy:.4f} < 0.95"
    assert hit_rate >= 0.90, f"planted-feature hit rate {hit_rate:.4f} < 0.90"
    assert linear_best <= 0.80, f"global linear baseline reached {linear_best:.4f} > 0.80"
    assert elapsed < 300.0, f"took {elapsed:.1f}s, budget is 300s"
    report(
        "C3",
        f"gated acc {accuracy:.3f}, planted-feature hits {hit_rate:.3f}, "
        f"best global linear {linear_best:.3f}, {elapsed:.0f}s",
    )


# --- C4 ----------------------------------------------------------------------


@pytest.mark.slow
def test_c4_desk_scale_digit_images(digit_splits, report):
    start = time.monotonic()
    train, val, test = digit_splits
    assert len(train) + len(val) == 5000 and len(test) == 1000

    model10 = GatedLocalLinear(image_config(k=10), np.random.default_rng(0))
    sched10 = TrainSchedule(
        k_coarse=10, k_target=10, batch_size=64,
        max_coarse_epochs=4, max_fine_epochs=2, patience=3,
    )
    coarse_to_fine_train(model10, train, val, sched10, np.random.default_rng(0))
    acc10 = evaluate(model10, test, k=10)

    model1 = GatedLocalLinear(image_config(k=1), np.random.default_rng(0))
    sched1 = TrainSchedule(
        k_coarse=10, k_target=1, batch_size=64,
        max_coarse_epochs=4, max_fine_epochs=4, patience=3,
    )
    coarse_to_fine_train(model1, train, val, sched1, np.random.default_rng(0))
    acc1 = evaluate(model1, test, k=1)

    ridge, _ = select_alpha(ridge_fit, train, val)
    lasso, _ = select_alpha(lasso_fit, train, val)
    linear_worst_case = 0.0
    for k in (1, 5, 10):
        for linear in (ridge, lasso):
            linear_worst_case = max(linear_worst_case, topk_truncate_eval(linear.weights, test, k))

    elapsed = time.monotonic() - start
    assert acc10 >= 0.95, f"gated accuracy at k=10 is {acc10:.4f} < 0.95"
    assert acc1 >= 0.90, f"gated accuracy at k=1 is {acc1:.4f} < 0.90"
    assert linear_worst_case < 0.75, f"a truncated linear baseline reached {linear_worst_case:.4f} >= 0.75"
    assert elapsed < 900.0, f"took {elapsed:.1f}s, budget is 900s"
    report(
        "C4",
        f"gated acc k=10 {acc10:.3f}, k=1 {acc1:.3f}; "
        f"best truncated ridge/lasso {linear_worst_case:.3f}; {elapsed:.0f}s",
    )


# --- C5 ----------------------------------------------------------------------


@pytest.mark.slow
def test_c5_coarse_to_fine_beats_fine_only(synthetic_splits, report):
    train, val, test = synthetic_splits
    two_phase, fine_only = [], []
    for seed in range(5):
        model = vector_model(d=20, k=1, seed=seed)
        schedule = TrainSchedule(
            k_coarse=10, k_target=1, batch_size=64,
            max_coarse_epochs=15, max_fine_epochs=10, patience=4,
        )
        coarse_to_fine_train(model, train, val, schedule, np.random.default_rng(seed))
        two_phase.append(evaluate(model, test, k=1))

        model = vector_model(d=20, k=1, seed=seed)
        schedule = TrainSchedule(
            k_coarse=10, k_target=1, batch_size=64,
            max_coarse_epochs=0, max_fine_epochs=25, patience=4,
        )
        coarse_to_fine_train(model, train, val, schedule, np.random.default_rng(seed))
        fine_only.append(evaluate(model, test, k=1))
    med_two, med_fine = float(np.median(two_phase)), float(np.median(fine_only))
    assert med_two >= med_fine, (
        f"coarse-to-fine median {med_two:.4f} < fine-only median {med_fine:.4f}"
    )
    report("C5", f"median over 5 seeds: coarse-to-fine {med_two:.3f} >= fine-only {med_fine:.3f}")


# --- C6 ----------------------------------------------------------------------


def test_c6_latency_scales_gently_with_k(report):
    rng = np.random.default_rng(3)
    model = GatedLocalLinear(image_config(k=10), rng)
    samples = []
    for i in range(16):
        x = rng.uniform(size=(1, 28, 28))
        samples.append(Sample(id=i, x=x, z=rng.normal(size=49), y=1, m=np.zeros(49, dtype=np.int64)))
    reps = 300
    ks = (1, 5, 10)
    for i in range(20):  # warm-up
        for k in ks:
            model.explain(samples[i % len(samples)], k=k)
    times = {k: np.empty(reps) for k in ks}
    for i in range(reps):  # k interleaved within each rep, so host drift hits every k alike
        s = samples[i % len(samples)]
        for k in ks:
            t0 = time.perf_counter()
            model.explain(s, k=k)
            times[k][i] = time.perf_counter() - t0
    means = {k: float(times[k].mean() * 1e3) for k in ks}
    ratio = means[10] / means[1]
    for k in ks:
        assert len(model.explain(samples[0], k=k).entries) == k
    assert ratio <= 1.5, f"latency ratio k=10 vs k=1 is {ratio:.2f} > 1.5"
    report(
        "C6",
        f"mean ms per explanation: k=1 {means[1]:.3f}, k=5 {means[5]:.3f}, "
        f"k=10 {means[10]:.3f}; ratio {ratio:.2f}",
    )


# --- C7 ----------------------------------------------------------------------


def test_c7_linear_solver_oracles(report):
    rng = np.random.default_rng(41)

    worst_ridge = 0.0
    for _ in range(10):
        Z = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        alpha = float(rng.uniform(0.05, 2.0))
        w = ridge_fit(Z, y, alpha).weights
        oracle = np.linalg.inv(Z.T @ Z + alpha * np.eye(5)) @ (Z.T @ y)
        worst_ridge = max(worst_ridge, float(np.max(np.abs(w - oracle))))
    assert worst_ridge <= 1e-8, f"ridge vs normal equations: {worst_ridge:.2e}"

    worst_ortho = 0.0
    for _ in range(10):
        Q, _ = np.linalg.qr(rng.normal(size=(12, 5)))
        y = rng.normal(scale=2.0, size=12)
        alpha = float(rng.uniform(0.05, 0.8))
        w = lasso_fit(Q, y, alpha).weights
        worst_ortho = max(worst_ortho, float(np.max(np.abs(w - soft_threshold(Q.T @ y, alpha)))))
    assert worst_ortho <= 1e-6, f"lasso vs orthonormal closed form: {worst_ortho:.2e}"

    Z = rng.normal(size=(10, 3))
    y = rng.normal(size=10)
    alpha = 0.5
    w = lasso_fit(Z, y, alpha).weights
    center, width = np.zeros(3), 3.0
    for _ in range(7):  # refined grid search over the objective
        axes = [np.linspace(c - width, c + width, 21) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        candidates = np.stack([g.ravel() for g in grids], axis=1)
        residuals = y[None, :] - candidates @ Z.T
        values = 0.5 * (residuals**2).sum(axis=1) + alpha * np.abs(candidates).sum(axis=1)
        center = candidates[int(np.argmin(values))]
        width = 2.0 * width / 20.0
    grid_gap = float(np.max(np.abs(w - center)))
    assert grid_gap <= 1e-4, f"lasso vs grid-search oracle: {grid_gap:.2e}"
    report(
        "C7",
        f"ridge {worst_ridge:.1e} (tol 1e-8), lasso orthonormal {worst_ortho:.1e} (tol 1e-6), "
        f"grid {grid_gap:.1e} (tol 1e-4)",
    )


# --- C8 ----------------------------------------------------------------------


def test_c8_checkpoint_roundtrip_bitwise(tmp_path, report):
    rng = np.random.default_rng(55)
    model = vector_model(d=12, k=4, seed=5, width=32)
    probe = []
    for i in range(32):
        z = rng.normal(size=12)
        probe.append(Sample(id=i, x=np.concatenate([z, [0.0, 1.0]]), z=z, y=1, m=np.zeros(12, dtype=np.int64)))
    before = np.array([model.margin(s, k=4) for s in probe])
    save_checkpoint(tmp_path / "model.ckpt", model, schedule=TrainSchedule())
    loaded, _header = load_checkpoint(tmp_path / "model.ckpt")
    after = np.array([loaded.margin(s, k=4) for s in probe])
    assert np.array_equal(before, after), "probe predictions changed across save/load"
    report("C8", "32-sample probe margins identical to the last bit across save/load")


# --- C9 ----------------------------------------------------------------------


def test_c9_gradient_masking_identity(report):
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(50):
        d = int(rng.integers(2, 24))
        z = rng.normal(size=d)
        k = int(rng.integers(1, d + 1))
        g = np.zeros(d)
        g[rng.choice(d, size=k, replace=False)] = 1.0
        w = ad.Tensor(rng.normal(size=d), requires_grad=True)
        yhat = (ad.Tensor(z) * ad.Tensor(g) * w).sum()
        yhat.backward()
        assert np.array_equal(w.grad, g * z), "gradient differs from gate * z"
        checked += 1
    report("C9", f"d(yhat)/dw == g * z exactly on {checked} random frozen hard gates")
