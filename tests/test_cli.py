"""CLI surface tests: artifacts, exit codes, output schema, checkpoint integrity."""

import io
import json
import struct

import numpy as np
import pytest

from sparselocal.checkpoint import load_checkpoint, save_checkpoint
from sparselocal.cli import _emit, _sample_from_file, load_manifest, main
from sparselocal.data import write_idx_images, write_idx_labels
from sparselocal.digits import make_digit_images
from sparselocal.errors import CheckpointError, DataFormatError
from sparselocal.model import GatedLocalLinear, ModelConfig
from sparselocal.train import TrainSchedule


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    return code, records, captured.err


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    (root / "manifest.json").write_text(json.dumps({
        "type": "synthetic", "n": 700, "d": 8, "seed": 11, "fractions": [0.7, 0.1, 0.2],
    }))
    (root / "config.json").write_text(json.dumps({
        "dataset": "manifest.json",
        "seed": 3,
        "model": {"k": 1, "fc_width": 24},
        "train": {"adam_lr": 3e-3, "k_coarse": 5, "batch_size": 32,
                  "max_coarse_epochs": 10, "max_fine_epochs": 5, "patience": 8},
    }))
    code = main([
        "train", "--config", str(root / "config.json"),
        "--checkpoint", str(root / "model.ckpt"),
    ])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def text_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("text")
    rng = np.random.default_rng(0)
    good = ["great", "wonderful", "superb", "delight"]
    bad = ["awful", "dreadful", "boring", "mess"]
    filler = ["film", "plot", "scene", "actor", "story", "music"]
    lines = []
    for i in range(60):
        pos = i % 2 == 0
        words = list(rng.choice(good if pos else bad, size=2)) + list(rng.choice(filler, size=3))
        rng.shuffle(words)
        # one unique token per line stays below min_freq and lands out of vocabulary
        lines.append(("+1" if pos else "-1") + "\t" + " ".join(words) + f" zyx{i}")
    (root / "corpus.tsv").write_text("\n".join(lines) + "\n")
    (root / "manifest.json").write_text(json.dumps({
        "type": "text", "path": "corpus.tsv", "min_freq": 2,
        "fractions": [0.7, 0.15, 0.15], "seed": 1,
    }))
    (root / "config.json").write_text(json.dumps({
        "dataset": "manifest.json",
        "seed": 5,
        "model": {"k": 2, "fc_width": 16, "embed_dim": 12, "filters": 6},
        "train": {"adam_lr": 3e-3, "k_coarse": 3, "batch_size": 16,
                  "max_coarse_epochs": 4, "max_fine_epochs": 2, "patience": 6},
    }))
    code = main([
        "train", "--config", str(root / "config.json"),
        "--checkpoint", str(root / "model.ckpt"),
    ])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def image_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("image")
    images, digits = make_digit_images(260, seed=4)
    write_idx_images(root / "train-images.idx", images[:200])
    write_idx_labels(root / "train-labels.idx", digits[:200])
    write_idx_images(root / "test-images.idx", images[200:])
    write_idx_labels(root / "test-labels.idx", digits[200:])
    (root / "manifest.json").write_text(json.dumps({
        "type": "image",
        "train_images": "train-images.idx", "train_labels": "train-labels.idx",
        "test_images": "test-images.idx", "test_labels": "test-labels.idx",
        "val_fraction": 0.15, "seed": 2,
    }))
    (root / "config.json").write_text(json.dumps({
        "dataset": "manifest.json",
        "seed": 0,
        "model": {"k": 5, "fc_width": 16, "channels": [4, 8]},
        "train": {"adam_lr": 1e-3, "k_coarse": 8, "batch_size": 32,
                  "max_coarse_epochs": 2, "max_fine_epochs": 1, "patience": 5},
    }))
    code = main([
        "train", "--config", str(root / "config.json"),
        "--checkpoint", str(root / "model.ckpt"),
    ])
    assert code == 0
    return root


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, synth_run):
        assert (synth_run / "model.ckpt").exists()
        log_lines = (synth_run / "model.log.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in log_lines]
        assert records, "phase log is empty"
        assert {"epoch", "phase", "tau", "k", "lr", "train_loss", "val_loss", "val_acc"} <= set(records[0])
        taus = [r["tau"] for r in records]
        assert taus[0] == 1.0 and taus[-1] == 0.1

    def test_missing_config_field_names_it(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text(json.dumps({"seed": 1}))
        code, _records, err = run_cli(
            capsys, "train", "--config", str(tmp_path / "config.json"),
            "--checkpoint", str(tmp_path / "out.ckpt"),
        )
        assert code == 2
        assert '"dataset"' in err

    def test_dataset_field_must_be_a_path(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text(json.dumps({"dataset": 5}))
        code, _records, err = run_cli(
            capsys, "train", "--config", str(tmp_path / "config.json"),
            "--checkpoint", str(tmp_path / "out.ckpt"),
        )
        assert code == 2
        assert '"dataset"' in err

    def test_unparseable_config(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text("{nope")
        code, _records, err = run_cli(
            capsys, "train", "--config", str(tmp_path / "config.json"),
            "--checkpoint", str(tmp_path / "out.ckpt"),
        )
        assert code == 2
        assert "not valid JSON" in err

    def test_rerun_with_same_seed_reproduces_accuracy(self, synth_run, tmp_path, capsys):
        code, records, _ = run_cli(
            capsys, "train", "--config", str(synth_run / "config.json"),
            "--checkpoint", str(tmp_path / "rerun.ckpt"),
        )
        assert code == 0
        first = json.loads((synth_run / "model.log.jsonl").read_text().splitlines()[-1])
        second = [r for r in records if r.get("event") == "trained"][0]
        assert abs(second["val_acc"] - first["val_acc"]) <= 1e-6


def train_with(capsys, root, model=None, train=None, manifest=None):
    """Run ``train`` on a small synthetic task with the given config sections."""
    (root / "manifest.json").write_text(json.dumps(manifest or {
        "type": "synthetic", "n": 120, "d": 6, "seed": 2, "fractions": [0.6, 0.2, 0.2],
    }))
    (root / "config.json").write_text(json.dumps({
        "dataset": "manifest.json", "seed": 0,
        "model": {"k": 1, "fc_width": 8, **(model or {})},
        "train": {"k_coarse": 3, "max_coarse_epochs": 1, "max_fine_epochs": 1, **(train or {})},
    }))
    return run_cli(capsys, "train", "--config", str(root / "config.json"), "--checkpoint", str(root / "m.ckpt"))


class TestConfigSections:
    def test_model_section_sets_both_phase_temperatures(self, tmp_path, capsys):
        code, records, _ = train_with(capsys, tmp_path, model={"tau_coarse": 2.0, "tau_fine": 0.05})
        assert code == 0
        assert [(r["phase"], r["tau"]) for r in records if "phase" in r] == [("coarse", 2.0), ("fine", 0.05)]
        model, header = load_checkpoint(tmp_path / "m.ckpt")
        assert model.config.tau_fine == 0.05 and model.config.tau_coarse == 2.0
        assert "tau_fine" not in header["schedule"]

    @pytest.mark.parametrize("key", ["fc_widht", "channels", "d", "dim", "kind", "extractor"])
    def test_unknown_model_key_is_named(self, tmp_path, capsys, key):
        code, records, err = train_with(capsys, tmp_path, model={key: 64})
        assert code == 2
        assert repr(key) in err
        assert records == []

    def test_text_architecture_keys_reach_the_checkpoint(self, text_run):
        model, header = load_checkpoint(text_run / "model.ckpt")
        spec = header["config"]["extractor"]
        assert (spec["embed_dim"], spec["filters"], spec["filter_widths"]) == (12, 6, [3, 4, 5])
        assert spec["pad_index"] == 0 and model.extractor.filters == 6

    @pytest.mark.parametrize("train", [
        {"tau_fine": 0.05}, {"tau_coarse": 2.0}, {"k_coarse": 0},
        {"batch_size": 0}, {"batch_size": -4}, {"max_fine_epochs": -1},
        {"adam_lr": "0.1"}, {"adam_lr": -1.0}, {"momentum": 1.0}, {"momentum": -0.5}, {"patience": 0},
        {"k_coarse": 10.5}, {"k_coarse": True}, {"k_target": 1.5},
    ])
    def test_bad_train_section_exits_two(self, tmp_path, capsys, train):
        code, records, err = train_with(capsys, tmp_path, train=train)
        assert code == 2 and records == []
        assert "bad train section" in err and next(iter(train)) in err

    @pytest.mark.parametrize("model", [{"k": "one"}, {"k": 0}, {"tau_fine": 2.0}])
    def test_bad_model_value_exits_two(self, tmp_path, capsys, model):
        code, _records, err = train_with(capsys, tmp_path, model=model)
        assert code == 2
        assert "bad model section" in err

    @pytest.mark.parametrize("model", [{"filters": 0}, {"embed_dim": 0}, {"filter_widths": [3, -1]}])
    def test_empty_text_extractor_exits_two(self, text_run, tmp_path, capsys, model):
        config = json.loads((text_run / "config.json").read_text())
        config["model"].update(model)
        (tmp_path / "config.json").write_text(json.dumps({**config, "dataset": str(text_run / "manifest.json")}))
        code, records, err = run_cli(capsys, "train", "--config", str(tmp_path / "config.json"),
                                     "--checkpoint", str(tmp_path / "m.ckpt"))
        assert code == 2 and records == []
        assert "bad model section: extractor sizes must be at least 1" in err and "Traceback" not in err

    def test_empty_image_channel_exits_two(self, image_run, tmp_path, capsys):
        config = json.loads((image_run / "config.json").read_text())
        config["model"]["channels"] = [4, 0]
        (tmp_path / "config.json").write_text(json.dumps({**config, "dataset": str(image_run / "manifest.json")}))
        code, _records, err = run_cli(capsys, "train", "--config", str(tmp_path / "config.json"),
                                      "--checkpoint", str(tmp_path / "m.ckpt"))
        assert code == 2
        assert "channels entry 0" in err

    @pytest.mark.parametrize("seed", ["x", -1, 1.5, None, True, [1, 2]])
    def test_bad_seed_exits_two(self, tmp_path, capsys, seed):
        (tmp_path / "manifest.json").write_text(json.dumps({"type": "synthetic", "n": 60, "d": 6, "seed": 2}))
        (tmp_path / "config.json").write_text(json.dumps({"dataset": "manifest.json", "seed": seed, "model": {"k": 1}}))
        code, records, err = run_cli(capsys, "train", "--config", str(tmp_path / "config.json"),
                                     "--checkpoint", str(tmp_path / "m.ckpt"))
        assert code == 2 and records == []
        assert f"the seed must be a non-negative integer, got {seed!r}" in err

    def test_negative_eval_seed_exits_two(self, synth_run, capsys):
        code, records, err = run_cli(capsys, "eval", "--checkpoint", str(synth_run / "model.ckpt"),
                                     "--dataset", str(synth_run / "manifest.json"), "--mode", "soft", "--seed", "-1")
        assert code == 2 and records == []
        assert "the seed must be a non-negative integer, got -1" in err

    @pytest.mark.parametrize("command", ["explain", "bench"])
    def test_deterministic_commands_take_no_seed(self, synth_run, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--checkpoint", str(synth_run / "model.ckpt"),
                  "--dataset", str(synth_run / "manifest.json"), "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err


def absolute_image_manifest(root):
    """The image manifest of ``root`` with its file paths made absolute, for use from another directory."""
    manifest = json.loads((root / "manifest.json").read_text())
    for key in ("train_images", "train_labels", "test_images", "test_labels"):
        manifest[key] = str(root / manifest[key])
    return manifest


class TestManifestErrors:
    @pytest.mark.parametrize("manifest, message", [
        ([1, 2], "not an object"),
        ("synthetic", "not an object"),
        ({"type": "synthetic", "n": "abc", "d": 6, "seed": 2}, "bad field"),
        ({"type": "synthetic", "n": 40, "d": 2, "seed": 2}, "bad field"),
        ({"type": "synthetic", "n": 40, "d": 6, "seed": 2, "fractions": [0.5, 0.6]}, "bad field"),
        ({"type": "synthetic", "n": 40, "d": 6}, "missing required field 'seed'"),
        ({"type": "text", "path": 7}, "bad field"),
        ({"type": "text", "min_freq": 2}, "missing required field 'path'"),
        ({"type": "text", "path": "."}, "Is a directory"),
        ({"type": "synthetic", "n": 40, "d": 6, "seed": 2, "fractions": [1.2, -0.1, -0.1]}, "must be non-negative"),
        ({"type": "synthetic", "n": 40, "d": 6, "seed": 2, "fractions": [0.5, 0.5]}, "needs three entries"),
    ])
    def test_train_exits_two_naming_the_fault(self, tmp_path, capsys, manifest, message):
        code, records, err = train_with(capsys, tmp_path, manifest=manifest)
        assert code == 2
        assert message in err and "Traceback" not in err
        assert records == []

    def test_val_fraction_above_one_exits_two(self, image_run, tmp_path, capsys):
        manifest = absolute_image_manifest(image_run)
        code, records, err = train_with(capsys, tmp_path, manifest={**manifest, "val_fraction": 1.5})
        assert code == 2 and records == []
        assert "fractions must be non-negative, got [-0.5, 1.5]" in err

    @pytest.mark.parametrize("field, value", [
        ("train_limit", -1), ("train_limit", True), ("train_limit", 2.5), ("test_limit", -3), ("test_limit", "5"),
    ])
    def test_bad_image_limit_exits_two_naming_the_field(self, image_run, tmp_path, capsys, field, value):
        manifest = absolute_image_manifest(image_run)
        code, records, err = train_with(capsys, tmp_path, manifest={**manifest, field: value})
        assert code == 2 and records == []
        assert f'"{field}"' in err and f"got {value!r}" in err and "Traceback" not in err

    def test_image_limits_keep_the_first_images(self, image_run, tmp_path):
        manifest = absolute_image_manifest(image_run)
        (tmp_path / "manifest.json").write_text(json.dumps({**manifest, "train_limit": 40, "test_limit": 0}))
        data = load_manifest(tmp_path / "manifest.json")
        assert sorted(s.id for s in data.train + data.val) == sorted(f"train{i}" for i in range(40))
        assert data.test == []

    def test_data_file_errors_keep_their_type(self, tmp_path):
        (tmp_path / "corpus.tsv").write_bytes(b"+1\tgood film\n-1\tbad \xff film\n")
        (tmp_path / "manifest.json").write_text(json.dumps({"type": "text", "path": "corpus.tsv"}))
        with pytest.raises(DataFormatError, match="corpus.tsv: corpus is not UTF-8"):
            load_manifest(tmp_path / "manifest.json")
        (tmp_path / "corpus.tsv").unlink()
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "manifest.json")


class TestEvalCommand:
    def test_one_row_per_k(self, synth_run, capsys):
        code, records, _ = run_cli(
            capsys, "eval", "--checkpoint", str(synth_run / "model.ckpt"),
            "--dataset", str(synth_run / "manifest.json"), "--k", "1,3,5",
        )
        assert code == 0
        gated = [r for r in records if r["model"] == "gated"]
        assert [r["k"] for r in gated] == [1, 3, 5]
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in gated)

    def test_baselines_and_dense_rows(self, synth_run, capsys):
        code, records, _ = run_cli(
            capsys, "eval", "--checkpoint", str(synth_run / "model.ckpt"),
            "--dataset", str(synth_run / "manifest.json"), "--k", "1,3",
            "--baselines", "--dense",
        )
        assert code == 0
        models = {r["model"] for r in records}
        assert {"gated", "dense_topk", "ridge", "lasso"} <= models
        gated = {r["k"]: r["accuracy"] for r in records if r["model"] == "gated"}
        lasso = {r["k"]: r["accuracy"] for r in records if r["model"] == "lasso"}
        assert all(gated[k] >= lasso[k] for k in (1, 3))

    def test_dense_rows_match_per_sample_truncation(self, synth_run, capsys):
        code, records, _ = run_cli(
            capsys, "eval", "--checkpoint", str(synth_run / "model.ckpt"),
            "--dataset", str(synth_run / "manifest.json"), "--k", "1,3", "--dense",
        )
        assert code == 0
        model, _ = load_checkpoint(synth_run / "model.ckpt")
        test = load_manifest(synth_run / "manifest.json").test
        for k in (1, 3):
            correct = 0
            for s in test:
                w = model.generate_weights(s.x)
                keep = np.argsort(-np.abs(w), kind="stable")[:k]
                truncated = np.zeros_like(w)
                truncated[keep] = w[keep]
                margin = float(s.z @ truncated)
                correct += (1 if margin >= 0 else -1) == s.y
            dense = [r["accuracy"] for r in records if r["model"] == "dense_topk" and r["k"] == k]
            assert dense == [correct / len(test)]

    @pytest.mark.parametrize("extra", [[], ["--dense"], ["--mode", "soft"]], ids=["gated", "dense", "soft"])
    def test_dense_rows_need_a_test_split(self, synth_run, tmp_path, capsys, extra):
        (tmp_path / "manifest.json").write_text(json.dumps({
            "type": "synthetic", "n": 50, "d": 8, "seed": 11, "fractions": [0.9, 0.1, 0.0],
        }))
        code, records, err = run_cli(
            capsys, "eval", "--checkpoint", str(synth_run / "model.ckpt"),
            "--dataset", str(tmp_path / "manifest.json"), "--k", "1", *extra,
        )
        assert code == 2
        assert "non-empty test split" in err
        assert records == []  # rejected before any row, so no NaN accuracy reaches stdout

    @pytest.mark.parametrize("flag", ["--dense", "--baselines"])
    def test_binary_only_rows_on_a_multiclass_model_exit_before_any_row(self, tmp_path, capsys, flag):
        (tmp_path / "corpus.tsv").write_text("".join(f"{c}\t{c * 3} film\n" for c in "abc" * 6))  # three classes
        manifest = {"type": "text", "path": "corpus.tsv", "fractions": [0.5, 0.25, 0.25], "seed": 0}
        code, _records, _ = train_with(capsys, tmp_path, model={"embed_dim": 4, "filters": 2}, manifest=manifest)
        assert code == 0
        code, records, err = run_cli(
            capsys, "eval", "--checkpoint", str(tmp_path / "m.ckpt"),
            "--dataset", str(tmp_path / "manifest.json"), "--k", "1,2,3", flag,
        )
        assert code == 2 and "binary" in err
        assert records == []  # rejected before any gated row reaches stdout

    def test_bad_checkpoint_version(self, synth_run, tmp_path, capsys):
        blob = bytearray((synth_run / "model.ckpt").read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        code, _records, err = run_cli(
            capsys, "eval", "--checkpoint", str(bad),
            "--dataset", str(synth_run / "manifest.json"),
        )
        assert code == 2
        assert "version" in err


class TestExplainCommand:
    def test_entry_count_matches_k(self, synth_run, capsys):
        code, records, _ = run_cli(
            capsys, "explain", "--checkpoint", str(synth_run / "model.ckpt"),
            "--dataset", str(synth_run / "manifest.json"), "--sample", "5", "--k", "3",
        )
        assert code == 0
        rec = records[0]
        assert len(rec["entries"]) == 3 and rec["mode"] == "hard"
        assert {"index", "name", "weight"} <= set(rec["entries"][0])

    def test_svg_heatmap_colors(self, image_run, capsys):
        svg_path = image_run / "weights.svg"
        code, _records, _ = run_cli(
            capsys, "explain", "--checkpoint", str(image_run / "model.ckpt"),
            "--dataset", str(image_run / "manifest.json"), "--sample", "test0",
            "--k", "5", "--svg", str(svg_path),
        )
        assert code == 0
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        # red marks positive weights, blue negative
        assert "rgb(214,39,40)" in svg or "rgb(31,119,180)" in svg

    def test_html_greys_out_oov_tokens(self, text_run, capsys):
        html_path = text_run / "tokens.html"
        code, records, _ = run_cli(
            capsys, "explain", "--checkpoint", str(text_run / "model.ckpt"),
            "--dataset", str(text_run / "manifest.json"), "--sample", "0",
            "--k", "2", "--html", str(html_path),
        )
        assert code == 0
        html = html_path.read_text()
        assert 'class="oov"' in html  # the corpus plants one unique token per line
        assert len(records[0]["entries"]) == 2

    def test_raw_text_file_as_sample(self, text_run, tmp_path, capsys):
        probe = tmp_path / "probe.txt"
        probe.write_text("a wonderful delight of a film\n")
        code, records, _ = run_cli(
            capsys, "explain", "--checkpoint", str(text_run / "model.ckpt"),
            "--dataset", str(text_run / "manifest.json"), "--sample", str(probe), "--k", "1",
        )
        assert code == 0
        assert len(records[0]["entries"]) == 1

    def test_image_file_without_images_exits_two(self, image_run, tmp_path, capsys):
        probe = tmp_path / "empty.idx"
        write_idx_images(probe, np.zeros((0, 28, 28), dtype=np.uint8))
        code, records, err = run_cli(
            capsys, "explain", "--checkpoint", str(image_run / "model.ckpt"),
            "--dataset", str(image_run / "manifest.json"), "--sample", str(probe),
        )
        assert code == 2 and records == []
        assert f"{probe}: expected an IDX image file holding at least one image" in err

    def test_text_file_that_is_not_utf8_exits_two(self, text_run, tmp_path, capsys):
        probe = tmp_path / "latin1.txt"
        probe.write_bytes("a wonderful d\xe9lice of a film\n".encode("latin-1"))
        code, records, err = run_cli(
            capsys, "explain", "--checkpoint", str(text_run / "model.ckpt"),
            "--dataset", str(text_run / "manifest.json"), "--sample", str(probe), "--k", "1",
        )
        assert code == 2 and records == []
        assert f"{probe}: sample is not UTF-8 text" in err

    def test_unknown_sample_id(self, synth_run, capsys):
        code, _records, err = run_cli(
            capsys, "explain", "--checkpoint", str(synth_run / "model.ckpt"),
            "--dataset", str(synth_run / "manifest.json"), "--sample", "missing-id",
        )
        assert code == 2
        assert "not found" in err

    @pytest.mark.parametrize("index", ["-1", "-300"])
    def test_negative_sample_index_exits_two(self, synth_run, capsys, index):
        code, records, err = run_cli(
            capsys, "explain", "--checkpoint", str(synth_run / "model.ckpt"),
            "--dataset", str(synth_run / "manifest.json"), "--sample", index,
        )
        assert code == 2 and records == []
        assert f"sample index must be non-negative, got {index}" in err

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_one_exits_two(self, synth_run, capsys, k):
        code, records, err = run_cli(
            capsys, "explain", "--checkpoint", str(synth_run / "model.ckpt"),
            "--dataset", str(synth_run / "manifest.json"), "--sample", "5", "--k", k,
        )
        assert code == 2 and records == []
        assert f"--k must be at least 1, got {k}" in err

    def test_infeasible_k_exits_one(self, text_run, tmp_path, capsys):
        probe = tmp_path / "allstop.txt"
        probe.write_text("the and of to\n")
        code, _records, err = run_cli(
            capsys, "explain", "--checkpoint", str(text_run / "model.ckpt"),
            "--dataset", str(text_run / "manifest.json"), "--sample", str(probe), "--k", "1",
        )
        assert code == 1
        assert "unmasked" in err or "masked" in err


class TestBenchCommand:
    def test_report_schema_and_positive_cost(self, synth_run, capsys):
        code, records, _ = run_cli(
            capsys, "bench", "--checkpoint", str(synth_run / "model.ckpt"),
            "--dataset", str(synth_run / "manifest.json"), "--k", "1,4,8", "--reps", "60",
        )
        assert code == 0
        assert [r["k"] for r in records] == [1, 4, 8]
        assert all({"mean_ms", "sd_ms", "p50_ms", "p95_ms", "reps"} <= set(r) for r in records)
        assert all(np.isfinite(r["mean_ms"]) and r["mean_ms"] > 0 for r in records)
        assert all(0 < r["p50_ms"] <= r["p95_ms"] for r in records)

    def test_batched_throughput_per_k(self, text_run, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(GatedLocalLinear, "predict_labels",
                            lambda self, samples, k=None: calls.append((len(samples), k)) or np.ones(len(samples)))
        code, records, _ = run_cli(
            capsys, "bench", "--checkpoint", str(text_run / "model.ckpt"),
            "--dataset", str(text_run / "manifest.json"), "--k", "1,2", "--reps", "5",
        )
        assert code == 0
        assert [(r["k"], r["batch"]) for r in records] == [(1, 16), (2, 16)]
        assert all(np.isfinite(r["batched_samples_per_s"]) and r["batched_samples_per_s"] > 0 for r in records)
        assert calls == [(16, 1)] * 6 + [(16, 2)] * 6  # a warm-up batch, then one batch of 16 per rep

    def test_non_finite_values_are_not_written(self):
        # JSON has no NaN or infinity: a record holding one is an error, not a line other tools cannot parse
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit({"val_loss": float("nan")}, io.StringIO())

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_exits_two(self, synth_run, capsys, reps):
        code, records, err = run_cli(
            capsys, "bench", "--checkpoint", str(synth_run / "model.ckpt"),
            "--dataset", str(synth_run / "manifest.json"), "--k", "1", "--reps", reps,
        )
        assert code == 2 and records == []
        assert f"--reps must be at least 1, got {reps}" in err and "Traceback" not in err


class TestCheckpointRoundtrip:
    def probe_margins(self, model, rng, n=32):
        d = model.config.d
        samples = []
        from sparselocal.data import Sample

        for i in range(n):
            z = rng.normal(size=d)
            samples.append(Sample(id=i, x=np.concatenate([z, [1.0, 0.0]]), z=z, y=1, m=np.zeros(d, dtype=np.int64)))
        return np.array([model.margin(s, k=model.config.k) for s in samples])

    def test_bitwise_probe_predictions(self, tmp_path):
        rng = np.random.default_rng(21)
        cfg = ModelConfig(d=8, k=3, extractor={"kind": "vector", "dim": 10}, fc_width=16)
        model = GatedLocalLinear(cfg, rng)
        before = self.probe_margins(model, np.random.default_rng(0))
        save_checkpoint(tmp_path / "m.ckpt", model, schedule=TrainSchedule())
        loaded, header = load_checkpoint(tmp_path / "m.ckpt")
        after = self.probe_margins(loaded, np.random.default_rng(0))
        assert np.array_equal(before, after)
        assert header["schedule"]["adam_lr"] == 1e-3

    def test_payload_is_little_endian(self, tmp_path):
        cfg = ModelConfig(d=4, k=1, extractor={"kind": "vector", "dim": 6}, fc_width=4)
        model = GatedLocalLinear(cfg, np.random.default_rng(2))
        save_checkpoint(tmp_path / "m.ckpt", model)
        raw = (tmp_path / "m.ckpt").read_bytes()
        (header_len,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12 : 12 + header_len])
        assert all(entry["dtype"] == "<f8" for entry in header["params"])
        payload = raw[12 + header_len :]
        first = header["params"][0]
        values = np.frombuffer(payload[first["offset"] : first["offset"] + first["nbytes"]], dtype="<f8")
        name = first["name"]
        np.testing.assert_array_equal(values.reshape(first["shape"]), model.named_parameters()[name].data)

    def test_corrupted_byte_fails_checksum(self, tmp_path):
        cfg = ModelConfig(d=4, k=1, extractor={"kind": "vector", "dim": 6}, fc_width=4)
        model = GatedLocalLinear(cfg, np.random.default_rng(3))
        save_checkpoint(tmp_path / "m.ckpt", model)
        blob = bytearray((tmp_path / "m.ckpt").read_bytes())
        blob[-1] ^= 0xFF
        (tmp_path / "m.ckpt").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(tmp_path / "m.ckpt")

    def test_not_a_checkpoint(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"hello world, definitely not a model")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(tmp_path / "junk.bin")


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of a checkpoint and write the file back."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + header_len])
    header = edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + header_len :])


def _drop(key):
    def edit(header):
        del header[key]
        return header

    return edit


def _set_param(field, value):
    def edit(header):
        header["params"][0][field] = value
        return header

    return edit


class TestCheckpointHeader:
    @pytest.fixture
    def ckpt(self, tmp_path):
        cfg = ModelConfig(d=4, k=1, extractor={"kind": "vector", "dim": 6}, fc_width=4)
        save_checkpoint(tmp_path / "m.ckpt", GatedLocalLinear(cfg, np.random.default_rng(3)))
        return tmp_path / "m.ckpt"

    @pytest.mark.parametrize("edit", [
        _drop("payload_sha256"),
        _drop("config"),
        _drop("params"),
        lambda h: [h],
        lambda h: {**h, "params": {"head.bias": 1}},
        lambda h: {**h, "params": h["params"] + [h["params"][0]]},
        lambda h: {**h, "config": {**h["config"], "extractor": {"kind": "vector"}}},
        lambda h: {**h, "config": {**h["config"], "k": "one"}},
        lambda h: {**h, "config": {**h["config"], "extractor": 7}},
        lambda h: {**h, "config": {**h["config"], "unknown": 1}},
        _set_param("dtype", "<f4"),
        _set_param("dtype", ">f8"),
        _set_param("shape", "3"),
        _set_param("shape", [-1]),
        _set_param("offset", None),
        _set_param("offset", 10**9),
        _set_param("nbytes", True),
        _set_param("nbytes", 0),
        _set_param("name", ["x"]),
        lambda h: {**h, "params": [7] + h["params"][1:]},
        lambda h: {**h, "config": {**h["config"], "fc_width": 0}},
        lambda h: {**h, "config": {**h["config"], "extractor": {"kind": "vector", "dim": 0}}},
    ])
    def test_malformed_header_raises_checkpoint_error(self, ckpt, edit):
        rewrite_header(ckpt, edit)
        with pytest.raises(CheckpointError):
            load_checkpoint(ckpt)

    def test_cli_reports_malformed_header_as_error(self, ckpt, synth_run, capsys):
        rewrite_header(ckpt, _drop("payload_sha256"))
        code, _records, err = run_cli(
            capsys, "eval", "--checkpoint", str(ckpt), "--dataset", str(synth_run / "manifest.json"),
        )
        assert code == 2
        assert "payload_sha256" in err

    def test_untouched_header_still_loads(self, ckpt):
        rewrite_header(ckpt, lambda h: h)
        model, header = load_checkpoint(ckpt)
        assert header["params"][0]["dtype"] == "<f8"


class TestTextFileSamples:
    def test_file_sample_honours_counts_and_custom_stopwords(self, tmp_path):
        lines = ["+1\tgood good the film", "-1\tbad the film film", "+1\tgood plot the", "-1\tbad plot bad"]
        (tmp_path / "corpus.tsv").write_text("\n".join(lines) + "\n")
        (tmp_path / "stop.txt").write_text("film\n")
        (tmp_path / "manifest.json").write_text(json.dumps({
            "type": "text", "path": "corpus.tsv", "min_freq": 2, "counts": True,
            "stopwords": "stop.txt", "fractions": [0.5, 0.25, 0.25], "seed": 0,
        }))
        data = load_manifest(tmp_path / "manifest.json")
        vocab = data.dataset.vocab
        assert "the" in vocab.index and "film" not in vocab.index  # the custom list replaces the default
        (tmp_path / "probe.txt").write_text("good good the film\n")
        sample = _sample_from_file(tmp_path / "probe.txt", data)
        twin = next(s for s in data.all_samples if s.id == "line1")
        np.testing.assert_array_equal(sample.z, twin.z)
        np.testing.assert_array_equal(sample.m, twin.m)
        np.testing.assert_array_equal(sample.x, twin.x)
        assert sample.z[vocab.id_of("good")] == 2.0
        assert sample.tokens == ["good", "good", "the"]
