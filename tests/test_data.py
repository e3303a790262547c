"""Ingestion tests: IDX containers, image and text representations, synthetic oracle."""

import re
import struct

import numpy as np
import pytest

from sparselocal.data import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    STOPWORDS,
    Vocabulary,
    binarize_labels,
    build_text_dataset,
    downsample_7x7,
    load_image_dataset,
    make_synthetic,
    parse_idx,
    split_dataset,
    tokenize,
    write_idx_images,
    write_idx_labels,
)
from sparselocal.digits import make_digit_images
from sparselocal.errors import ConfigError, DataFormatError


class TestIdx:
    def test_image_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 28, 28), dtype=np.uint8)
        path = tmp_path / "imgs.idx"
        write_idx_images(path, images)
        out = parse_idx(path)
        np.testing.assert_array_equal(out, images)

    def test_label_roundtrip_and_length(self, tmp_path):
        labels = np.array([0, 3, 9, 5], dtype=np.uint8)
        path = tmp_path / "labels.idx"
        write_idx_labels(path, labels)
        assert path.stat().st_size == 8 + 4  # header plus one byte per label
        np.testing.assert_array_equal(parse_idx(path), labels)

    def test_magic_constants(self, tmp_path):
        path = tmp_path / "imgs.idx"
        write_idx_images(path, np.zeros((1, 2, 2), dtype=np.uint8))
        assert path.read_bytes()[:4] == bytes([0, 0, 8, 3])

    def test_unknown_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">i", 0x12345678) + b"\x00" * 8)
        with pytest.raises(DataFormatError, match="magic 0x12345678 at byte offset 0"):
            parse_idx(path)

    def test_negative_dimensions_are_a_format_error(self, tmp_path):
        path = tmp_path / "neg.idx"
        path.write_bytes(struct.pack(">iiii", IMAGE_MAGIC, -1, -1, 0))
        with pytest.raises(DataFormatError, match="negative image size"):
            parse_idx(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">iiii", IMAGE_MAGIC, 2, 28, 28) + b"\x00" * 100)
        with pytest.raises(DataFormatError, match="byte offset 116"):
            parse_idx(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.idx"
        path.write_bytes(struct.pack(">i", LABEL_MAGIC))
        with pytest.raises(DataFormatError, match="truncated"):
            parse_idx(path)

    def test_pixel_scaling_in_loader(self, tmp_path):
        images = np.full((2, 28, 28), 255, dtype=np.uint8)
        labels = np.array([1, 7], dtype=np.uint8)
        write_idx_images(tmp_path / "i.idx", images)
        write_idx_labels(tmp_path / "l.idx", labels)
        ds = load_image_dataset(tmp_path / "i.idx", tmp_path / "l.idx")
        assert float(ds.samples[0].x.max()) == 1.0
        assert ds.samples[0].x.shape == (1, 28, 28)
        assert [s.y for s in ds.samples] == [-1, 1]

    @pytest.mark.parametrize("limit", [-1, True, 2.5, "1"])
    def test_limit_must_be_a_non_negative_integer(self, tmp_path, limit):
        write_idx_images(tmp_path / "i.idx", np.zeros((3, 28, 28), dtype=np.uint8))
        write_idx_labels(tmp_path / "l.idx", np.zeros(3, dtype=np.uint8))
        message = f"limit must be None or a non-negative integer, got {limit!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_image_dataset(tmp_path / "i.idx", tmp_path / "l.idx", limit=limit)
        assert len(load_image_dataset(tmp_path / "i.idx", tmp_path / "l.idx", limit=np.int64(2)).samples) == 2

    def test_mismatched_counts(self, tmp_path):
        write_idx_images(tmp_path / "i.idx", np.zeros((3, 28, 28), dtype=np.uint8))
        write_idx_labels(tmp_path / "l.idx", np.zeros(2, dtype=np.uint8))
        with pytest.raises(DataFormatError, match="does not match"):
            load_image_dataset(tmp_path / "i.idx", tmp_path / "l.idx")


class TestBinarizeLabels:
    def test_boundary_digits(self):
        np.testing.assert_array_equal(binarize_labels([0, 4, 5, 9]), [-1, -1, 1, 1])

    def test_seven_is_positive(self):
        assert binarize_labels([7])[0] == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binarize_labels([10])

    def test_balance_on_uniform_digit_set(self):
        _, digits = make_digit_images(4000, seed=1)
        y = binarize_labels(digits)
        assert abs(float(np.mean(y == 1)) - 0.5) <= 0.03


class TestDownsample:
    def test_all_ones(self):
        np.testing.assert_array_equal(downsample_7x7(np.ones((28, 28))), np.ones(49))

    def test_mean_preserved_exactly(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(size=(28, 28))
        z = downsample_7x7(img)
        assert z.mean() == pytest.approx(img.mean(), abs=1e-15)

    def test_single_lit_pixel(self):
        img = np.zeros((28, 28))
        img[0, 0] = 1.0
        z = downsample_7x7(img)
        assert z[0] == pytest.approx(1.0 / 16.0)
        assert np.all(z[1:] == 0.0)

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="28x28"):
            downsample_7x7(np.ones((14, 14)))

    def test_block_layout_is_row_major(self):
        img = np.zeros((28, 28))
        img[0:4, 4:8] = 1.0  # block row 0, column 1
        z = downsample_7x7(img)
        assert z[1] == 1.0 and z.sum() == 1.0


class TestTextPipeline:
    def write_corpus(self, tmp_path, lines):
        path = tmp_path / "corpus.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_rare_tokens_are_excluded(self, tmp_path):
        path = self.write_corpus(
            tmp_path,
            ["+1\tgreat movie great fun", "-1\tterrible movie boring plot", "+1\tfun plot"],
        )
        ds = build_text_dataset(path, min_freq=2)
        words = set(ds.vocab.tokens)
        assert {"great", "movie", "fun", "plot"} <= words
        assert "terrible" not in words and "boring" not in words

    def test_oov_symbol_present_and_contiguous(self, tmp_path):
        path = self.write_corpus(tmp_path, ["+1\talpha beta alpha", "-1\tbeta gamma alpha"])
        ds = build_text_dataset(path, min_freq=2)
        assert ds.vocab.tokens[ds.vocab.oov_index] == Vocabulary.OOV
        assert ds.vocab.index == {t: i for i, t in enumerate(ds.vocab.tokens)}
        roundtrip = [ds.vocab.index[t] for t in ds.vocab.tokens]
        assert roundtrip == list(range(len(ds.vocab)))

    def test_unknown_words_map_to_oov_in_sequence(self, tmp_path):
        path = self.write_corpus(tmp_path, ["+1\talpha beta alpha", "-1\tbeta gamma alpha"])
        ds = build_text_dataset(path, min_freq=2)
        gamma_line = ds.samples[1]
        assert ds.vocab.oov_index in gamma_line.x.tolist()
        assert gamma_line.z[ds.vocab.oov_index] == 1.0

    def test_stopword_only_sentence_is_gate_infeasible(self, tmp_path):
        path = self.write_corpus(
            tmp_path, ["+1\tthe and of to", "-1\talpha beta alpha", "+1\tbeta alpha"]
        )
        ds = build_text_dataset(path, min_freq=2)
        dead = ds.samples[0]
        assert np.all(dead.m == 1)
        assert dead.live_count == 0

    def test_mask_is_complement_of_bag_support(self, tmp_path):
        path = self.write_corpus(
            tmp_path,
            ["+1\tred blue red green", "-1\tblue green", "+1\tred green", "-1\tblue red"],
        )
        ds = build_text_dataset(path, min_freq=2)
        for s in ds.samples:
            assert set(np.unique(s.z)) <= {0.0, 1.0}
            np.testing.assert_array_equal(s.m, (s.z == 0).astype(np.int64))

    def test_counts_mode(self, tmp_path):
        path = self.write_corpus(tmp_path, ["+1\techo echo echo", "-1\techo foo", "+1\tfoo echo"])
        ds = build_text_dataset(path, min_freq=2, counts=True)
        echo = ds.vocab.id_of("echo")
        assert ds.samples[0].z[echo] == 3.0

    def test_malformed_line_reports_number(self, tmp_path):
        path = self.write_corpus(tmp_path, ["+1\tfine line", "no tab here"])
        with pytest.raises(DataFormatError, match=":2:"):
            build_text_dataset(path)

    def test_empty_vocabulary_is_an_error(self, tmp_path):
        # every token unique, so nothing reaches the frequency floor
        path = self.write_corpus(tmp_path, ["+1\taaa bbb", "-1\tccc ddd"])
        with pytest.raises(DataFormatError, match="vocabulary is empty"):
            build_text_dataset(path, min_freq=2)

    def test_non_utf8_corpus_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.tsv"
        path.write_bytes("+1\tcaf\u00e9 au lait\n-1\tcaf\u00e9 noir\n".encode("latin-1"))
        with pytest.raises(DataFormatError, match="latin1.tsv: corpus is not UTF-8"):
            build_text_dataset(path)

    def test_empty_corpus_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="empty"):
            build_text_dataset(path)

    def test_multiclass_labels(self, tmp_path):
        path = self.write_corpus(
            tmp_path,
            ["loc\twhere is rome", "num\thow many people", "desc\twhat is rome", "loc\twhere is rome"],
        )
        ds = build_text_dataset(path, min_freq=2)
        assert ds.num_classes == 3
        assert sorted(set(s.y for s in ds.samples)) == [0, 1, 2]

    def test_custom_stopwords(self, tmp_path):
        path = self.write_corpus(tmp_path, ["+1\tzap foo bar", "-1\tzap bar foo"])
        ds = build_text_dataset(path, min_freq=2, stopwords={"zap"})
        assert "zap" not in ds.vocab.tokens

    def test_builtin_stopword_list_is_sane(self):
        assert {"the", "and", "of", "is"} <= STOPWORDS
        assert len(STOPWORDS) >= 100
        assert tokenize("The AND of") == ["the", "and", "of"]


class TestSynthetic:
    def test_contexts_point_at_different_features(self):
        ds = make_synthetic(200, 10, seed=3)
        truths = set(s.truth for s in ds.samples)
        assert len(truths) == 2

    def test_context_rule_separates_perfectly(self):
        ds = make_synthetic(500, 8, seed=4)
        for s in ds.samples:
            context_a = s.x[-2] == 1.0
            expected = np.sign(s.z[s.truth]) if context_a else -np.sign(s.z[s.truth])
            assert s.y == int(expected)

    def test_best_global_linear_is_capped(self):
        # oracle: sweep the angle of every two-feature linear rule on the
        # informative pair; the generative design caps all of them near 0.75
        ds = make_synthetic(6000, 6, seed=5)
        Z = np.stack([s.z for s in ds.samples])
        y = np.array([s.y for s in ds.samples])
        ja, jb = sorted(set(s.truth for s in ds.samples))
        best = 0.0
        for theta in np.linspace(0, 2 * np.pi, 241):
            w = np.zeros(6)
            w[ja], w[jb] = np.cos(theta), np.sin(theta)
            best = max(best, float(np.mean(np.where(Z @ w >= 0, 1, -1) == y)))
        assert best <= 0.8

    def test_sample_invariants(self):
        ds = make_synthetic(100, 7, seed=6)
        for s in ds.samples:
            assert s.x.shape == (9,)
            assert s.z.shape == (7,)
            assert s.m.sum() == 0
            assert s.y in (-1, 1)

    def test_rejects_tiny_dimension(self):
        with pytest.raises(ValueError):
            make_synthetic(10, 3, seed=0)

    def test_deterministic_for_seed(self):
        a = make_synthetic(50, 6, seed=9)
        b = make_synthetic(50, 6, seed=9)
        for sa, sb in zip(a.samples, b.samples):
            np.testing.assert_array_equal(sa.x, sb.x)
            assert sa.y == sb.y and sa.truth == sb.truth


class TestSplit:
    def test_same_seed_same_split(self):
        ds = make_synthetic(100, 6, seed=1)
        a = split_dataset(ds.samples, [0.6, 0.2, 0.2], seed=7)
        b = split_dataset(ds.samples, [0.6, 0.2, 0.2], seed=7)
        assert [[s.id for s in part] for part in a] == [[s.id for s in part] for part in b]

    def test_disjoint_and_exhaustive(self):
        ds = make_synthetic(101, 6, seed=2)
        parts = split_dataset(ds.samples, [0.5, 0.25, 0.25], seed=3)
        ids = [s.id for part in parts for s in part]
        assert len(ids) == 101
        assert len(set(ids)) == 101

    def test_classic_55k_5k_protocol_arithmetic(self):
        samples = list(range(60))
        train, val = split_dataset(samples, [55.0 / 60.0, 5.0 / 60.0], seed=0)
        assert (len(train), len(val)) == (55, 5)

    def test_fraction_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            split_dataset([1, 2, 3], [0.5, 0.4], seed=0)

    @pytest.mark.parametrize("fractions", [[1.2, -0.1, -0.1], [-0.5, 1.5], [float("nan"), 0.5, 0.5]])
    def test_negative_fractions_rejected(self, fractions):
        with pytest.raises(ValueError, match="non-negative"):
            split_dataset(list(range(10)), fractions, seed=0)


class TestDigitRenderer:
    def test_images_are_uint8_and_labeled(self):
        images, digits = make_digit_images(20, seed=0)
        assert images.shape == (20, 28, 28) and images.dtype == np.uint8
        assert digits.shape == (20,)
        assert set(np.unique(digits)) <= set(range(10))

    def test_deterministic_for_seed(self):
        a, la = make_digit_images(10, seed=5)
        b, lb = make_digit_images(10, seed=5)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(la, lb)

    def test_ink_is_present_and_bounded(self):
        images, _ = make_digit_images(10, seed=2)
        for img in images:
            assert img.max() > 100  # strokes are visible
            frac = float(np.mean(img > 64))
            assert 0.02 <= frac <= 0.5  # neither empty nor flooded
