"""Model assembly tests: weight generation, gated prediction, losses, ablations."""

import math

import numpy as np
import pytest

from sparselocal import autodiff as ad
from sparselocal import gate as gt
from sparselocal.data import Sample
from sparselocal.errors import GateExhaustedError, ShapeError
from sparselocal.model import DirectClassifier, GatedLocalLinear, ModelConfig


def vector_config(d=6, k=2, **kw):
    return ModelConfig(d=d, k=k, extractor={"kind": "vector", "dim": d + 2}, fc_width=16, **kw)


def vector_sample(rng, d=6, y=1, sid=0):
    z = rng.normal(size=d)
    return Sample(id=sid, x=np.concatenate([z, [1.0, 0.0]]), z=z, y=y, m=np.zeros(d, dtype=np.int64))


def tiny_image_config(k=2):
    return ModelConfig(
        d=4, k=k,
        extractor={"kind": "image", "in_shape": [1, 8, 8], "channels": [2, 3]},
        fc_width=8,
    )


def image_sample(rng, y=1, sid=0):
    x = rng.uniform(size=(1, 8, 8))
    z = rng.normal(size=4)
    return Sample(id=sid, x=x, z=z, y=y, m=np.zeros(4, dtype=np.int64))


def flatten_params(model):
    named = model.named_parameters()
    names = sorted(named)
    vec = np.concatenate([named[n].data.ravel() for n in names])
    return names, vec


def set_params(model, names, vec):
    named = model.named_parameters()
    lo = 0
    for n in names:
        size = named[n].data.size
        named[n].data[...] = vec[lo : lo + size].reshape(named[n].data.shape)
        lo += size


class TestModelConfig:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="1 <= k <= d"):
            vector_config(d=4, k=5)

    def test_roundtrips_through_dict(self):
        cfg = vector_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_heads(self):
        assert vector_config().heads == 1
        assert vector_config(num_classes=4).heads == 4


class TestGenerateWeights:
    def test_output_length_is_d(self):
        rng = np.random.default_rng(0)
        model = GatedLocalLinear(vector_config(), rng)
        w = model.generate_weights(rng.normal(size=8))
        assert w.shape == (6,)

    def test_identical_inputs_identical_weights(self):
        rng = np.random.default_rng(1)
        model = GatedLocalLinear(tiny_image_config(), rng)
        x = rng.uniform(size=(1, 8, 8))
        np.testing.assert_array_equal(model.generate_weights(x), model.generate_weights(x))

    def test_multiclass_weight_grid(self):
        rng = np.random.default_rng(2)
        model = GatedLocalLinear(vector_config(num_classes=3), rng)
        w = model.generate_weights(rng.normal(size=8))
        assert w.shape == (3, 6)

    def test_gradient_wrt_first_conv_kernel(self):
        rng = np.random.default_rng(3)
        model = GatedLocalLinear(tiny_image_config(), rng)
        x = rng.uniform(size=(1, 8, 8))
        kern = model.named_parameters()["extractor.block0.kernels"]

        def total(kdata):
            kern.data[...] = kdata
            return float(model.generator.rows([x]).sum().data)

        base = kern.data.copy()
        loss = model.generator.rows([x]).sum()
        loss.backward()
        analytic = kern.grad.copy()
        fd = ad.finite_difference_grad(total, base)
        kern.data[...] = base
        assert ad.rel_error(analytic, fd) <= 1e-4


class TestTextTrunk:
    """The text extractor encodes a batch of unequal sequences as one padded grid."""

    # shorter than the widest filter (5), empty, two of equal length, the longest
    SEQUENCES = [[4, 0], [], [3, 9, 1, 7, 2, 8], [5, 5, 6, 2, 11, 3], [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]]

    def _model(self, seed):
        cfg = ModelConfig(
            d=5, k=2, extractor={"kind": "text", "vocab_size": 13, "embed_dim": 3, "filters": 2}, fc_width=6,
        )
        return GatedLocalLinear(cfg, np.random.default_rng(seed))

    def test_batch_rows_match_one_sample_batches(self):
        model = self._model(60)
        # a large padding row: unmasked padding past a sequence's end would win the max pool
        model.named_parameters()["extractor.embed"].data[0] = 3.0
        rows = model.generator.rows(self.SEQUENCES).data
        for i, ids in enumerate(self.SEQUENCES):
            # not bitwise: BLAS may round a one-row product differently from the same row in a larger one
            np.testing.assert_allclose(rows[i], model.generator.rows([ids]).data[0], rtol=1e-12, atol=1e-15)

    def test_gradients_through_embedding_and_kernels(self):
        model = self._model(61)
        c = ad.Tensor(np.random.default_rng(62).normal(size=(len(self.SEQUENCES), 5)))
        named = model.named_parameters()
        names = sorted(n for n in named if n.startswith("extractor."))
        assert len(names) == 4  # the embedding and one kernel bank per filter width
        base = np.concatenate([named[n].data.ravel() for n in names])

        def total(vec):
            set_params(model, names, vec)
            return float((model.generator.rows(self.SEQUENCES) * c).sum().data)

        (model.generator.rows(self.SEQUENCES) * c).sum().backward()
        analytic = np.concatenate([named[n].grad.ravel() for n in names])
        fd = ad.finite_difference_grad(total, base)
        set_params(model, names, base)
        assert ad.rel_error(analytic, fd) <= 1e-4


class TestForwardLoss:
    def _constant_weight_model(self, weights):
        """Vector model rigged so every sample receives the given weight row."""
        d = len(weights)
        cfg = ModelConfig(d=d, k=1, extractor={"kind": "vector", "dim": d + 2}, fc_width=4)
        model = GatedLocalLinear(cfg, np.random.default_rng(0))
        named = model.named_parameters()
        for name, p in named.items():
            p.data[...] = 0.0
        named["head.bias"].data[...] = np.asarray(weights)[None, :]
        return model

    def test_zero_margin_gives_log_two(self):
        model = self._constant_weight_model([0.0, 0.0, 0.0])
        s = Sample(id=0, x=np.zeros(5), z=np.array([1.0, 2.0, 3.0]), y=1, m=np.zeros(3, dtype=np.int64))
        loss, _ = model.forward_loss(s, mode="hard")
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_margin_vanishes(self):
        model = self._constant_weight_model([10.0, 0.0])
        s = Sample(id=0, x=np.zeros(4), z=np.array([2.0, 1.0]), y=1, m=np.zeros(2, dtype=np.int64))
        loss, result = model.forward_loss(s, mode="hard", k=1)
        assert result.selection_order() == [0]  # margin is z0 * w0 = 20
        assert float(loss.data) < 1e-8

    def test_rejects_bad_binary_label(self):
        model = self._constant_weight_model([1.0, 1.0])
        s = Sample(id="bad", x=np.zeros(4), z=np.ones(2), y=3, m=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            model.forward_loss(s, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("tau", [1.0, 0.1])
    def test_full_model_gradient_matches_finite_differences(self, tau):
        rng = np.random.default_rng(17)
        cfg = ModelConfig(d=4, k=2, extractor={"kind": "vector", "dim": 6}, fc_width=5)
        model = GatedLocalLinear(cfg, rng)
        sample = vector_sample(rng, d=4, y=-1)
        noise = gt.sample_gumbel((2, 4), rng)
        names, base = flatten_params(model)

        def total(vec):
            set_params(model, names, vec)
            loss, _ = model.forward_loss(sample, mode="soft", tau=tau, noise=noise)
            return float(loss.data)

        set_params(model, names, base)
        loss, _ = model.forward_loss(sample, mode="soft", tau=tau, noise=noise)
        loss.backward()
        named = model.named_parameters()
        analytic = np.concatenate([named[n].grad.ravel() for n in names])
        fd = ad.finite_difference_grad(total, base)
        set_params(model, names, base)
        assert ad.rel_error(analytic, fd) <= 1e-4

    def test_multiclass_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        cfg = ModelConfig(d=4, k=2, extractor={"kind": "vector", "dim": 6}, fc_width=5, num_classes=3)
        model = GatedLocalLinear(cfg, rng)
        sample = vector_sample(rng, d=4, y=2)
        noise = gt.sample_gumbel((2, 4), rng)
        names, base = flatten_params(model)

        def total(vec):
            set_params(model, names, vec)
            loss, _ = model.forward_loss(sample, mode="soft", tau=1.0, noise=noise)
            return float(loss.data)

        set_params(model, names, base)
        loss, _ = model.forward_loss(sample, mode="soft", tau=1.0, noise=noise)
        loss.backward()
        named = model.named_parameters()
        analytic = np.concatenate([(named[n].grad if named[n].grad is not None else np.zeros_like(named[n].data)).ravel() for n in names])
        fd = ad.finite_difference_grad(total, base)
        set_params(model, names, base)
        assert ad.rel_error(analytic, fd) <= 1e-4


class TestBatchPathConsistency:
    def test_batch_loss_equals_mean_of_single_losses(self):
        rng = np.random.default_rng(31)
        cfg = vector_config(d=5, k=2)
        model = GatedLocalLinear(cfg, rng)
        samples = [vector_sample(rng, d=5, y=int(rng.choice([-1, 1])), sid=i) for i in range(6)]
        noise = gt.sample_gumbel((2, 6, 5), rng)
        batch = model.batch_loss(samples, k=2, tau=0.7, noise=noise)
        singles = [
            float(model.forward_loss(s, mode="soft", k=2, tau=0.7, noise=noise[:, i, :])[0].data)
            for i, s in enumerate(samples)
        ]
        assert float(batch.data) == pytest.approx(np.mean(singles), abs=1e-12)

    def test_ragged_masks_are_clamped_per_sample(self):
        rng = np.random.default_rng(37)
        for num_classes in (2, 3):
            model = GatedLocalLinear(vector_config(d=8, k=3, num_classes=num_classes), rng)
            samples = [s for s in masked_samples(rng, 8, 24, num_classes) if s.live_count > 0]
            samples[1].m = np.array([1, 1, 1, 0, 1, 1, 1, 1])  # one live feature, gate count clamps to 1
            samples[2].m = np.array([0, 1, 1, 1, 1, 1, 0, 1])  # two live features
            counts = [min(3, s.live_count) for s in samples]
            assert set(counts) == {1, 2, 3}
            noise = gt.sample_gumbel((3, len(samples), 8), rng)
            batch = model.batch_loss(samples, k=3, tau=0.7, noise=noise)
            singles = [
                float(model.forward_loss(s, mode="soft", k=3, tau=0.7, noise=noise[:k_i, i])[0].data)
                for i, (s, k_i) in enumerate(zip(samples, counts))
            ]
            assert float(batch.data) == pytest.approx(np.mean(singles), rel=0, abs=1e-12)

    def test_noise_of_the_wrong_shape_is_a_shape_error(self):
        rng = np.random.default_rng(38)
        model = GatedLocalLinear(vector_config(d=5, k=2), rng)
        samples = [vector_sample(rng, d=5, sid=i) for i in range(3)]
        with pytest.raises(ShapeError, match=r"noise \(1, 3, 5\).*\(3, 5\)"):
            model.batch_loss(samples, k=2, tau=1.0, noise=np.zeros((1, 3, 5)))
        with pytest.raises(ShapeError, match=r"noise \(2, 4\).*\(5,\)"):
            model.forward_loss(samples[0], mode="soft", k=2, noise=np.zeros((2, 4)))

    def test_sample_without_features_is_an_error(self):
        rng = np.random.default_rng(41)
        model = GatedLocalLinear(vector_config(d=5, k=1), rng)
        dead = vector_sample(rng, d=5, y=1, sid="dead")
        dead.m = np.ones(5, dtype=np.int64)
        with pytest.raises(GateExhaustedError, match="dead"):
            model.batch_loss([dead], k=1, tau=1.0, rng=rng)


class TestGradientMaskingIdentity:
    def test_hard_gate_masks_weight_gradient_exactly(self):
        # frozen hard gate: the gradient of z . (g * w) in w is g * z, elementwise equal
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = int(rng.integers(3, 10))
            z = rng.normal(size=d)
            g = np.zeros(d)
            g[rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)] = 1.0
            w = ad.Tensor(rng.normal(size=d), requires_grad=True)
            yhat = (ad.Tensor(z) * ad.Tensor(g) * w).sum()
            yhat.backward()
            assert np.array_equal(w.grad, g * z)

    def test_gradient_blocked_at_closed_gates_through_full_loss(self):
        rng = np.random.default_rng(6)
        cfg = vector_config(d=5, k=2)
        model = GatedLocalLinear(cfg, rng)
        s = vector_sample(rng, d=5)
        w = model.generator.rows([s.x]).reshape((5,))
        res = gt.k_hot_gate(w.data, s.m, 2, mode="hard")
        margin = (ad.Tensor(s.z) * ad.Tensor(res.values) * w).sum()
        margin.backward()
        head = model.named_parameters()["head.weight"]
        closed = res.values == 0
        assert np.all(head.grad[:, closed] == 0.0)


class TestDenseAndDirectVariants:
    def test_dense_forward_equals_fully_open_hard_gate(self):
        rng = np.random.default_rng(51)
        model = GatedLocalLinear(vector_config(d=5, k=2), rng)
        s = vector_sample(rng, d=5, y=-1)
        dense_loss, w = model.batch_loss([s], gated=False), model.generate_weights(s.x)
        gated_loss, result = model.forward_loss(s, mode="hard", k=5)
        np.testing.assert_array_equal(result.values, np.ones(5))
        assert float(dense_loss.data) == pytest.approx(float(gated_loss.data), abs=1e-15)
        assert w.shape == (5,)

    @pytest.mark.parametrize("extractor", [
        {"kind": "vector", "dim": 8},
        {"kind": "image", "in_shape": [1, 8, 8], "channels": [2, 3]},
        {"kind": "text", "vocab_size": 30, "embed_dim": 4, "filters": 3},
    ], ids=["vector", "image", "text"])
    def test_direct_classifier_shares_the_gated_trunk(self, extractor):
        cfg = ModelConfig(d=6, k=2, extractor=extractor, fc_layers=2, fc_width=5, num_classes=3)
        gated = GatedLocalLinear(cfg, np.random.default_rng(9)).named_parameters()
        direct = DirectClassifier(cfg, np.random.default_rng(9)).named_parameters()
        assert list(gated) == list(direct)
        for name in gated:
            if name.startswith("head."):
                continue
            np.testing.assert_array_equal(gated[name].data, direct[name].data)
        # only the head width differs: d * heads weight columns against num_classes logits
        assert gated["head.weight"].data.shape == (5, 6 * 3)
        assert direct["head.weight"].data.shape == (5, 3)

    def test_hard_margin_at_k_equals_dense_margin_bitwise(self):
        rng = np.random.default_rng(52)
        model = GatedLocalLinear(vector_config(d=6, k=6), rng)
        s = vector_sample(rng, d=6)
        w = model.generate_weights(s.x)
        assert model.margin(s, k=6) == float(s.z @ w)

    def test_direct_classifier_logit_length(self):
        rng = np.random.default_rng(53)
        dnn = DirectClassifier(vector_config(num_classes=4), rng)
        assert dnn.dnn_forward(rng.normal(size=8)).shape == (4,)

    def test_direct_classifier_never_touches_gating(self, monkeypatch):
        rng = np.random.default_rng(54)
        dnn = DirectClassifier(vector_config(), rng)
        samples = [vector_sample(rng, sid=i, y=int(rng.choice([-1, 1]))) for i in range(4)]

        def boom(*a, **k):
            raise AssertionError("gate must not run for the plain classifier")

        monkeypatch.setattr(gt, "k_hot_gate", boom)
        monkeypatch.setattr(gt, "k_hot_gate_rows", boom)
        loss = dnn.batch_loss(samples)
        loss.backward()
        labels = dnn.predict_labels(samples)
        assert set(labels) <= {-1, 1}


class TestExplain:
    def _trained_toyish(self):
        rng = np.random.default_rng(61)
        model = GatedLocalLinear(vector_config(d=6, k=3), rng)
        return model, rng

    def test_entry_count_and_ordering(self):
        model, rng = self._trained_toyish()
        s = vector_sample(rng, d=6)
        exp = model.explain(s, k=3, feature_names=[f"n{j}" for j in range(6)])
        assert len(exp.entries) == 3
        mags = [abs(wt) for _, _, wt in exp.entries]
        assert mags == sorted(mags, reverse=True)
        assert all(name == f"n{j}" for j, name, _ in exp.entries)

    def test_masked_features_never_appear(self):
        model, rng = self._trained_toyish()
        s = vector_sample(rng, d=6)
        s.m = np.array([0, 1, 0, 1, 0, 0])
        exp = model.explain(s, k=3)
        assert all(s.m[j] == 0 for j in exp.indices)

    def test_infeasible_sample_is_an_error(self):
        model, rng = self._trained_toyish()
        s = vector_sample(rng, d=6)
        s.m = np.array([1, 1, 1, 1, 0, 1])
        with pytest.raises(GateExhaustedError, match="fewer than k"):
            model.explain(s, k=3)

    def test_explanation_weights_are_unscaled_generator_outputs(self):
        model, rng = self._trained_toyish()
        s = vector_sample(rng, d=6)
        w = model.generate_weights(s.x)
        exp = model.explain(s, k=3)
        for j, _, weight in exp.entries:
            assert weight == float(w[j])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(62)
        model = GatedLocalLinear(vector_config(d=6, k=2), rng)
        s = vector_sample(rng, d=6)
        baseline = model.explain(s, k=2).indices

        perm = np.array([3, 0, 5, 1, 4, 2])
        inverse = np.argsort(perm)
        named = model.named_parameters()
        named["head.weight"].data[...] = named["head.weight"].data[:, perm]
        named["head.bias"].data[...] = named["head.bias"].data[:, perm]
        permuted = Sample(id=s.id, x=s.x, z=s.z[perm], y=s.y, m=s.m[perm])
        shuffled = model.explain(permuted, k=2).indices
        assert shuffled == [int(inverse[j]) for j in baseline]

    def test_multiclass_explanation_reports_predicted_class(self):
        rng = np.random.default_rng(63)
        model = GatedLocalLinear(vector_config(d=6, k=2, num_classes=3), rng)
        s = vector_sample(rng, d=6, y=1)
        exp = model.explain(s, k=2)
        assert exp.prediction in (0, 1, 2)
        assert len(exp.entries) == 2


def masked_samples(rng, d, n, num_classes=2):
    """Vector samples with random masks: some clamped below k, some with no live feature."""
    samples = []
    for i in range(n):
        y = int(rng.choice([-1, 1])) if num_classes == 2 else int(rng.integers(num_classes))
        s = vector_sample(rng, d=d, y=y, sid=i)
        s.m = (rng.random(d) < rng.uniform(0.0, 1.0)).astype(np.int64)
        if i % 7 == 0:
            s.m[:] = 1
        samples.append(s)
    return samples


class TestBatchedHardGate:
    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_predict_labels_equal_per_sample_margins(self, num_classes):
        rng = np.random.default_rng(71)
        model = GatedLocalLinear(vector_config(d=8, k=4, num_classes=num_classes), rng)
        samples = masked_samples(rng, 8, 60, num_classes)
        assert any(0 < s.live_count < 4 for s in samples) and any(s.live_count == 0 for s in samples)
        labels = model.predict_labels(samples, chunk=16)
        for s, label in zip(samples, labels):
            margin = model.margin(s)
            if num_classes == 2:
                assert label == (1 if margin >= 0 else -1)
            else:
                assert label == int(np.argmax(margin))
            if s.live_count == 0:
                assert np.all(np.asarray(margin) == 0.0)

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_soft_labels_match_per_sample_draws(self, num_classes):
        rng = np.random.default_rng(75)
        model = GatedLocalLinear(vector_config(d=8, k=4, num_classes=num_classes), rng)
        samples = masked_samples(rng, 8, 40, num_classes)
        labels = model.predict_labels(samples, mode="soft", rng=np.random.default_rng(5))
        # the chunk draws each head's noise as (n, d) rows, one row per sample
        ref_rng = np.random.default_rng(5)
        counts = [min(4, s.live_count) for s in samples]
        noise = [gt.sample_gumbel((max(counts), len(samples), 8), ref_rng) for _ in range(model.config.heads)]
        empty = 1 if num_classes == 2 else 0
        for i, (s, label) in enumerate(zip(samples, labels)):
            if counts[i] == 0:
                assert label == empty
                continue
            w = model.generate_weights(s.x).reshape(model.config.heads, 8)
            scores = [
                float(s.z @ (gt.k_hot_gate(w[c], s.m, counts[i], tau=model.config.tau_fine, noise=noise[c][: counts[i], i]).values * w[c]))
                for c in range(model.config.heads)
            ]
            assert label == ((1 if scores[0] >= 0 else -1) if num_classes == 2 else int(np.argmax(scores)))
        dead = [s for s in samples if s.live_count == 0]
        assert model.predict_labels(dead, mode="soft").tolist() == [empty] * len(dead)

    def test_unknown_mode_is_rejected(self):
        rng = np.random.default_rng(76)
        model = GatedLocalLinear(vector_config(d=6, k=2), rng)
        with pytest.raises(ValueError, match="'Hard'"):
            model.predict_labels([vector_sample(rng)], mode="Hard")

    def test_margin_matches_reference_dot(self):
        rng = np.random.default_rng(72)
        model = GatedLocalLinear(vector_config(d=8, k=3), rng)
        for s in masked_samples(rng, 8, 20):
            w = model.generate_weights(s.x)
            live = np.flatnonzero(s.m == 0)
            g = np.zeros(8)
            g[live[np.argsort(-(w[live] ** 2), kind="stable")][:3]] = 1.0
            assert model.margin(s) == float(s.z @ (g * w))

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_explain_batch_equals_explain(self, num_classes):
        rng = np.random.default_rng(73)
        model = GatedLocalLinear(vector_config(d=8, k=3, num_classes=num_classes), rng)
        samples = [s for s in masked_samples(rng, 8, 40, num_classes) if s.live_count >= 3]
        names = [f"n{j}" for j in range(8)]
        batch = model.explain_batch(samples, k=3, feature_names=names)
        assert len(batch) == len(samples)
        for s, got in zip(samples, batch):
            one = model.explain(s, k=3, feature_names=names)
            assert got.sample_id == one.sample_id and got.mode == one.mode == "hard"
            assert got.indices == one.indices
            assert got.prediction == pytest.approx(one.prediction, rel=1e-12, abs=1e-15)
            np.testing.assert_allclose([e[2] for e in got.entries], [e[2] for e in one.entries], rtol=1e-12)

    def test_explain_batch_rejects_infeasible_sample(self):
        rng = np.random.default_rng(74)
        model = GatedLocalLinear(vector_config(d=6, k=3), rng)
        ok, short = vector_sample(rng, sid="ok"), vector_sample(rng, sid="short")
        short.m = np.array([1, 1, 1, 1, 0, 0])
        with pytest.raises(GateExhaustedError, match="'short' has 2 unmasked features, fewer than k=3"):
            model.explain_batch([ok, short], k=3)
        assert model.explain_batch([], k=3) == []
