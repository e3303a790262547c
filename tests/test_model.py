"""Model assembly tests: weight generation, gated prediction, losses, ablations."""

import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from sparselocal import autodiff as ad
from sparselocal import gate as gt
from sparselocal import model as model_module
from sparselocal.data import Sample
from sparselocal.errors import GateExhaustedError, ShapeError
from sparselocal.model import DirectClassifier, GatedLocalLinear, ModelConfig

from oracles import oracle_draws, param_grad_error


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

    def test_rejects_inverted_temperatures(self):
        with pytest.raises(ValueError, match="tau_coarse > tau_fine > 0"):
            vector_config(tau_coarse=0.1, tau_fine=1.0)

    def test_fills_extractor_defaults_without_touching_the_spec(self):
        spec = {"kind": "text", "vocab_size": 13, "filters": 2}
        cfg = ModelConfig(d=5, k=2, extractor=spec)
        assert spec == {"kind": "text", "vocab_size": 13, "filters": 2}
        assert cfg.extractor == {
            "kind": "text", "vocab_size": 13, "filters": 2,
            "embed_dim": 64, "filter_widths": (3, 4, 5), "pad_index": 0,
        }
        image = ModelConfig(d=4, k=1, extractor={"kind": "image", "in_shape": [1, 8, 8]}).extractor
        assert image["channels"] == (16, 32, 64)

    @pytest.mark.parametrize("extractor, message", [
        ({"kind": "text", "vocab_size": 9, "filters": 0}, "at least 1, got filters 0"),
        ({"kind": "text", "vocab_size": 9, "embed_dim": -2}, "at least 1, got embed_dim -2"),
        ({"kind": "text", "vocab_size": 9, "filter_widths": [3, 0]}, "at least 1, got filter_widths entry 0"),
        ({"kind": "text", "vocab_size": 9, "filter_widths": []}, "at least one filter width"),
        ({"kind": "image", "in_shape": [1, 8, 8], "channels": [4, 0]}, "at least 1, got channels entry 0"),
    ])
    def test_rejects_empty_extractor_sizes(self, extractor, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(d=4, k=1, extractor=extractor)

    @pytest.mark.parametrize("extractor", [{"kind": "audio"}, {"dim": 3}, 7])
    def test_rejects_unknown_extractor_kind(self, extractor):
        with pytest.raises(ValueError, match="extractor kind"):
            ModelConfig(d=4, k=1, extractor=extractor)


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
        assert param_grad_error(model, lambda: model.rows([x]).sum(), ["extractor.block0.kernels"]) <= 1e-4


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
        rows = model.rows(self.SEQUENCES).data
        for i, ids in enumerate(self.SEQUENCES):
            # not bitwise: BLAS may round a one-row product differently from the same row in a larger one
            np.testing.assert_allclose(rows[i], model.rows([ids]).data[0], rtol=1e-12, atol=1e-15)

    def test_gradients_through_embedding_and_kernels(self):
        model = self._model(61)
        c = ad.Tensor(np.random.default_rng(62).normal(size=(len(self.SEQUENCES), 5)))
        named = model.named_parameters()
        names = sorted(n for n in named if n.startswith("extractor."))
        assert len(names) == 4  # the embedding and one kernel bank per filter width
        assert param_grad_error(model, lambda: (model.rows(self.SEQUENCES) * c).sum(), names) <= 1e-4


class TestForwardLoss:
    """The loss of a single sample, a one-sample ``batch_loss``."""

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
        loss = model.batch_loss([s], rng=np.random.default_rng(0))
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_margin_vanishes(self):
        model = self._constant_weight_model([10.0, 0.0])
        s = Sample(id=0, x=np.zeros(4), z=np.array([2.0, 1.0]), y=1, m=np.zeros(2, dtype=np.int64))
        loss = model.batch_loss([s], k=1, rng=np.random.default_rng(0))
        assert model.explain(s, k=1).indices == [0]  # margin is z0 * w0 = 20
        assert float(loss.data) < 1e-8

    def test_rejects_bad_binary_label(self):
        model = self._constant_weight_model([1.0, 1.0])
        s = Sample(id="bad", x=np.zeros(4), z=np.ones(2), y=3, m=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            model.batch_loss([s], rng=np.random.default_rng(0))

    @pytest.mark.parametrize("tau", [1.0, 0.1])
    def test_full_model_gradient_matches_finite_differences(self, tau):
        rng = np.random.default_rng(17)
        cfg = ModelConfig(d=4, k=2, extractor={"kind": "vector", "dim": 6}, fc_width=5)
        model = GatedLocalLinear(cfg, rng)
        sample = vector_sample(rng, d=4, y=-1)
        noise = gt._gumbel(rng.random((2, 4)))
        assert param_grad_error(model, lambda: model.batch_loss([sample], tau=tau, noise=noise[:, None, :])) <= 1e-4

    def test_multiclass_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(23)
        cfg = ModelConfig(d=4, k=2, extractor={"kind": "vector", "dim": 6}, fc_width=5, num_classes=3)
        model = GatedLocalLinear(cfg, rng)
        sample = vector_sample(rng, d=4, y=2)
        noise = gt._gumbel(rng.random((2, 4)))
        assert param_grad_error(model, lambda: model.batch_loss([sample], tau=1.0, noise=noise[:, None, :])) <= 1e-4


class TestBatchPathConsistency:
    def test_batch_loss_equals_mean_of_single_losses(self):
        rng = np.random.default_rng(31)
        cfg = vector_config(d=5, k=2)
        model = GatedLocalLinear(cfg, rng)
        samples = [vector_sample(rng, d=5, y=int(rng.choice([-1, 1])), sid=i) for i in range(6)]
        noise = gt._gumbel(rng.random((2, 6, 5)))
        batch = model.batch_loss(samples, k=2, tau=0.7, noise=noise)
        singles = [
            float(model.batch_loss([s], k=2, tau=0.7, noise=noise[:, i : i + 1, :]).data)
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
            noise = gt._gumbel(rng.random((3, len(samples), 8)))
            batch = model.batch_loss(samples, k=3, tau=0.7, noise=noise)
            singles = [
                float(model.batch_loss([s], k=3, tau=0.7, noise=noise[:k_i, i : i + 1]).data)
                for i, (s, k_i) in enumerate(zip(samples, counts))
            ]
            assert float(batch.data) == pytest.approx(np.mean(singles), rel=0, abs=1e-12)

    def test_noise_of_the_wrong_shape_is_a_shape_error(self):
        rng = np.random.default_rng(38)
        model = GatedLocalLinear(vector_config(d=5, k=2), rng)
        samples = [vector_sample(rng, d=5, sid=i) for i in range(3)]
        with pytest.raises(ShapeError, match=r"noise \(1, 3, 5\).*\(3, 5\)"):
            model.batch_loss(samples, k=2, tau=1.0, noise=np.zeros((1, 3, 5)))
        with pytest.raises(ShapeError, match=r"noise \(2, 4\).*\(1, 5\)"):
            model.batch_loss(samples[:1], k=2, noise=np.zeros((2, 4)))

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
        w = model.rows([s.x]).reshape((5,))
        g, _ = gt.k_hot_gate(w.data, s.m == 0, 2)
        margin = (ad.Tensor(s.z) * ad.Tensor(g) * w).sum()
        margin.backward()
        head = model.named_parameters()["head.weight"]
        closed = g == 0
        assert np.all(head.grad[:, closed] == 0.0)


class TestDenseAndDirectVariants:
    def test_dense_forward_equals_fully_open_hard_gate(self):
        rng = np.random.default_rng(51)
        model = GatedLocalLinear(vector_config(d=5, k=2), rng)
        s = vector_sample(rng, d=5, y=-1)
        dense_loss, w = model.batch_loss([s], gated=False), model.generate_weights(s.x)
        g, _ = gt.k_hot_gate(w, s.m == 0, 5)
        np.testing.assert_array_equal(g, np.ones(5))
        gated_loss = ad.softplus(ad.Tensor(np.array([-s.y * model.margin(s, k=5)])))
        assert float(dense_loss.data) == pytest.approx(float(gated_loss.data[0]), abs=1e-15)
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
        assert dnn.rows([rng.normal(size=8)]).data[0].shape == (4,)

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

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_direct_classifier_prediction_builds_no_graph(self, monkeypatch, num_classes):
        rng = np.random.default_rng(55)
        dnn = DirectClassifier(vector_config(num_classes=num_classes), rng)
        samples = [vector_sample(rng, sid=i) for i in range(5)]
        picks = np.argmax(dnn.rows([s.x for s in samples]).data, axis=1)
        want = picks * 2 - 1 if num_classes == 2 else picks
        built = []
        make_op = ad.make_op

        def recording(*args):
            built.append(make_op(*args))
            return built[-1]

        monkeypatch.setattr(ad, "make_op", recording)
        labels = dnn.predict_labels(samples)
        np.testing.assert_array_equal(labels, want)
        assert built and all(t._parents == () and t._backward is None for t in built)
        assert dnn.rows([s.x for s in samples]).requires_grad


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
        unnamed = model.explain(s, k=3)  # without names, feature j is called f{j}
        assert unnamed.entries == [(j, f"f{j}", wt) for j, _, wt in exp.entries]
        assert all(type(j) is int for j in unnamed.indices)

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
    def test_predict_labels_equal_per_sample_margins(self, monkeypatch, num_classes):
        monkeypatch.setattr(model_module, "CHUNK", 16)
        rng = np.random.default_rng(71)
        model = GatedLocalLinear(vector_config(d=8, k=4, num_classes=num_classes), rng)
        samples = masked_samples(rng, 8, 60, num_classes)
        assert any(0 < s.live_count < 4 for s in samples) and any(s.live_count == 0 for s in samples)
        labels = model.predict_labels(samples)
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
        noise = [gt._gumbel(ref_rng.random((max(counts), len(samples), 8))) for _ in range(model.config.heads)]
        empty = 1 if num_classes == 2 else 0
        for i, (s, label) in enumerate(zip(samples, labels)):
            if counts[i] == 0:
                assert label == empty
                continue
            w = model.generate_weights(s.x).reshape(model.config.heads, 8)
            scores = []
            for c in range(model.config.heads):
                # the paper's one-draw formulas are the reference for each soft draw
                g = sum(oracle_draws(w[c], s.m, noise[c][: counts[i], i], model.config.tau_fine)[0], np.zeros(8))
                scores.append(float(s.z @ (g * w[c])))
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
            assert got.sample_id == one.sample_id
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


class TestChunkedInference:
    """margin, predict_labels and explain_batch run one pass per ``CHUNK`` samples."""

    def _model_and_samples(self, n):
        rng = np.random.default_rng(77)
        model = GatedLocalLinear(vector_config(d=600, k=3, num_classes=3), rng)
        return model, [vector_sample(rng, d=600, sid=i) for i in range(n)]

    def test_explain_batch_equals_per_chunk_calls_and_predicted_labels(self):
        model, samples = self._model_and_samples(2 * model_module.CHUNK + 9)
        batch = model.explain_batch(samples)
        chunks = range(0, len(samples), model_module.CHUNK)
        assert batch == [e for lo in chunks for e in model.explain_batch(samples[lo : lo + model_module.CHUNK])]
        assert [e.prediction for e in batch] == model.predict_labels(samples).tolist()

    @staticmethod
    def _peaks(run, samples, sizes):
        run(samples[: model_module.CHUNK])  # warm-up, off the trace
        peaks = []
        for n in sizes:
            tracemalloc.start()
            run(samples[:n])
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        return peaks

    def test_explain_batch_memory_does_not_grow_with_the_list(self):
        chunk = model_module.CHUNK
        model, samples = self._model_and_samples(6 * chunk + 3)
        one, seven = self._peaks(model.explain_batch, samples, (chunk, len(samples)))
        # holding the previous chunk's grid, gate and order while the next one runs read 27.4 MB against 16.1 MB
        assert seven < 1.15 * one, f"peak {seven / 1e6:.1f} MB over 7 chunks, {one / 1e6:.1f} MB over 1"

    @pytest.mark.parametrize("mode", ["hard", "soft"])
    def test_predict_labels_drops_each_chunk_before_the_next(self, monkeypatch, mode):
        model, samples = self._model_and_samples(10)
        monkeypatch.setattr(model_module, "CHUNK", 4)
        chunks, freed = GatedLocalLinear._chunks, []

        def watched(self, *args, **kwargs):
            for chunk in chunks(self, *args, **kwargs):
                scores = weakref.ref(chunk[2])
                yield chunk
                del chunk
                freed.append(scores() is None)  # the caller has asked for the next chunk

        monkeypatch.setattr(GatedLocalLinear, "_chunks", watched)
        labels = model.predict_labels(samples, mode=mode)
        assert freed == [True] * 3 and labels.shape == (10,)  # three chunks of at most 4 samples

    def test_direct_classifier_labels_are_chunked(self, monkeypatch):
        chunk = model_module.CHUNK
        rng = np.random.default_rng(78)
        dnn = DirectClassifier(ModelConfig(d=600, k=3, extractor={"kind": "vector", "dim": 600}, fc_width=256,
                                           num_classes=3), rng)
        samples = [vector_sample(rng, d=598, sid=i) for i in range(5 * chunk + 7)]
        two, six = self._peaks(dnn.predict_labels, samples, (2 * chunk, len(samples)))
        # one batch over the whole list would take three times the peak of two chunks
        assert six < 1.25 * two, f"peak {six / 1e6:.1f} MB over 6 chunks, {two / 1e6:.1f} MB over 2"
        chunked = dnn.predict_labels(samples)
        monkeypatch.setattr(model_module, "CHUNK", len(samples))
        np.testing.assert_array_equal(chunked, dnn.predict_labels(samples))
        assert dnn.predict_labels([]).shape == (0,)


class TestOneGatePerPath:
    """Inference runs one hard-gate call per batch and training one soft-gate call per batch."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"hard": 0, "soft": 0}
        for name, key in (("k_hot_gate", "hard"), ("k_hot_gate_rows", "soft")):
            original = getattr(gt, name)

            def counted(*args, _original=original, _key=key, **kwargs):
                counts[_key] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(gt, name, counted)
        return counts

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_inference_calls_the_hard_gate_once_per_batch(self, calls, monkeypatch, num_classes):
        rng = np.random.default_rng(81)
        model = GatedLocalLinear(vector_config(d=8, k=3, num_classes=num_classes), rng)
        samples = [s for s in masked_samples(rng, 8, 30, num_classes) if s.live_count >= 3][:10]
        assert len(samples) == 10
        for run in (
            lambda: model.explain(samples[0]),
            lambda: model.explain_batch(samples),
            lambda: model.margin(samples[0]),
        ):
            calls.update(hard=0, soft=0)
            run()
            assert calls == {"hard": 1, "soft": 0}
        calls.update(hard=0, soft=0)
        monkeypatch.setattr(model_module, "CHUNK", 4)
        model.predict_labels(samples)
        assert calls == {"hard": 3, "soft": 0}
        calls.update(hard=0, soft=0)
        model.explain_batch(samples)
        assert calls == {"hard": 3, "soft": 0}

    @pytest.mark.parametrize("num_classes", [2, 3])
    def test_training_calls_the_soft_gate_once_per_batch(self, calls, monkeypatch, num_classes):
        rng = np.random.default_rng(82)
        model = GatedLocalLinear(vector_config(d=8, k=3, num_classes=num_classes), rng)
        samples = [vector_sample(rng, d=8, y=1 if num_classes == 2 else 2, sid=i) for i in range(5)]
        model.batch_loss(samples, rng=rng).backward()
        assert calls == {"hard": 0, "soft": 1}
        calls.update(hard=0, soft=0)
        monkeypatch.setattr(model_module, "CHUNK", 4)
        model.predict_labels(samples, mode="soft", rng=rng)
        assert calls == {"hard": 0, "soft": 2}

    def test_benchmark_tracer_times_the_soft_gate_once(self, monkeypatch):
        # perfbench's tracer patches the package by attribute name; a stale table would read the gate as 0
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from spans import Tracer

        rng = np.random.default_rng(83)
        model = GatedLocalLinear(vector_config(d=8, k=3, num_classes=3), rng)
        samples = [vector_sample(rng, d=8, y=2, sid=i) for i in range(5)]
        with Tracer() as tracer:  # entering raises AttributeError for a name that src/ no longer has
            model.batch_loss(samples, rng=rng).backward()
        names = [span[0] for span in tracer.spans]
        assert names.count("gate.k_hot_gate_rows") == 1
        assert names.count("bwd.gate.soft") == 1

    def test_benchmark_tracer_times_the_trunk_inside_inference(self, monkeypatch):
        # perfbench reads model.explain.generate_ms and model.predict.rows_ms from model.rows spans under these
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        from spans import Tracer

        monkeypatch.setattr(model_module, "CHUNK", 4)
        rng = np.random.default_rng(84)
        model = GatedLocalLinear(vector_config(d=8, k=3, num_classes=3), rng)
        samples = [vector_sample(rng, d=8, y=2, sid=i) for i in range(10)]
        with Tracer() as tracer:
            model.explain(samples[0])
            model.predict_labels(samples)
        names = [span[0] for span in tracer.spans]
        for outer, chunks in (("model.explain", 1), ("model.predict_labels", 3)):
            at = names.index(outer)
            inner = [span for span in tracer.spans if span[0] == "model.rows" and span[3] == at]
            assert len(inner) == chunks
        assert names.count("model.rows") == 4


class TestVecdotScores:
    """The batched scores are bitwise the per-row dots z . (g * w) that each score stands for."""

    @pytest.mark.parametrize("d", [20, 49, 128, 601, 2031])
    @pytest.mark.parametrize("heads", [1, 3])
    @pytest.mark.parametrize("n", [1, 7, 256])
    def test_vecdot_equals_the_per_row_dot(self, n, heads, d, blas_build):
        rng = np.random.default_rng(n * 7919 + heads * 104729 + d)
        z = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.5)
        gw = rng.normal(size=(n, heads, d)) * (rng.random((n, heads, d)) < 0.3)
        got = np.vecdot(z[:, None, :], gw)
        want = np.array([[z[i] @ gw[i, c] for c in range(heads)] for i in range(n)])
        bad = np.argwhere(got != want)
        assert bad.size == 0, (
            f"{len(bad)} scores differ from the per-row dot, first at (row, head) {tuple(bad[0])}, on {blas_build}"
        )
