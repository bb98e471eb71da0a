"""End-to-end command-line runs against a small synthetic dataset."""

import gzip
import json
import shutil

import numpy as np
import pytest

from dnll.checkpoint import load_checkpoint, save_checkpoint
from dnll.cli import main
from dnll.data import load_train_test, write_idx

TINY_CONFIG = """
lambda = 1.0
m = 2
selection_mode = EPM
learning_mode = mutual
epochs = 2
batch_size = 20
model.hidden = 24
data.max_unlabeled = 120
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    code = main([
        "synth", "--out-dir", str(d), "--n-train", "420", "--n-test", "120", "--seed", "3",
    ])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def split_file(tmp_path_factory, data_dir):
    d = tmp_path_factory.mktemp("split")
    path = d / "split.txt"
    code = main([
        "split", "--data-dir", str(data_dir), "--n-labeled", "30",
        "--n-val-per-class", "4", "--seed", "5", "--out", str(path),
    ])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, data_dir, split_file):
    d = tmp_path_factory.mktemp("run")
    cfg = d / "config.txt"
    cfg.write_text(TINY_CONFIG)
    out = d / "out"
    code = main([
        "train", "--config", str(cfg), "--data-dir", str(data_dir),
        "--split", str(split_file), "--out-dir", str(out),
    ])
    assert code == 0
    return d, cfg, out


class TestSplit:
    def test_deterministic(self, tmp_path, data_dir):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main([
                "split", "--data-dir", str(data_dir), "--n-labeled", "30",
                "--n-val-per-class", "4", "--seed", "5", "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unbalanced_count_exit_2(self, tmp_path, data_dir, capsys):
        code = main([
            "split", "--data-dir", str(data_dir), "--n-labeled", "7",
            "--n-val-per-class", "4", "--seed", "5", "--out", str(tmp_path / "x.txt"),
        ])
        assert code == 2
        assert "divisible" in capsys.readouterr().err

    def test_missing_data_dir_exit_2(self, tmp_path):
        code = main([
            "split", "--data-dir", str(tmp_path / "nowhere"), "--n-labeled", "30",
            "--out", str(tmp_path / "x.txt"),
        ])
        assert code == 2


class TestTrain:
    def test_metrics_contract(self, trained):
        _, _, out = trained
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3  # header + 2 epochs
        assert all(len(line.split(",")) == 14 for line in lines)

    def test_manifest_written(self, trained):
        _, _, out = trained
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert "resolved_config" in manifest
        assert manifest["inputs"]["config"]["sha256"]

    def test_invalid_config_key_exit_2(self, tmp_path, data_dir, split_file, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("lambdaa = 1.0\n")
        code = main([
            "train", "--config", str(cfg), "--data-dir", str(data_dir),
            "--split", str(split_file), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2
        assert "lambdaa" in capsys.readouterr().err

    def test_negative_lambda_exit_2(self, tmp_path, data_dir, split_file):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("lambda = -1\n")
        code = main([
            "train", "--config", str(cfg), "--data-dir", str(data_dir),
            "--split", str(split_file), "--out-dir", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_resume_rows_match_unbroken(self, tmp_path, data_dir, split_file, trained):
        d, cfg, out = trained
        part = tmp_path / "part"
        assert main([
            "train", "--config", str(cfg), "--data-dir", str(data_dir),
            "--split", str(split_file), "--out-dir", str(part), "--stop-after", "1",
        ]) == 0
        resumed = tmp_path / "resumed"
        assert main([
            "train", "--config", str(cfg), "--data-dir", str(data_dir),
            "--split", str(split_file), "--out-dir", str(resumed),
            "--resume", str(part / "checkpoint_last.dnll"),
        ]) == 0
        full_rows = (out / "metrics.csv").read_text().splitlines()
        resumed_rows = (resumed / "metrics.csv").read_text().splitlines()
        assert resumed_rows[1:] == full_rows[2:]

    def test_nan_checkpoint_exit_3(self, tmp_path, data_dir, split_file, trained):
        _, cfg, out = trained
        config_text, arch, tensors, progress = load_checkpoint(out / "checkpoint_last.dnll")
        tensors[0] = np.full_like(tensors[0], np.nan)
        progress["epoch"] = 1  # leave one epoch to run
        poisoned = tmp_path / "poisoned.dnll"
        save_checkpoint(poisoned, config_text, arch, tensors, progress)
        code = main([
            "train", "--config", str(cfg), "--data-dir", str(data_dir),
            "--split", str(split_file), "--out-dir", str(tmp_path / "o"),
            "--resume", str(poisoned),
        ])
        assert code == 3


def damaged_checkpoint(src, dest, damage: str):
    """Rewrite a checkpoint with a valid CRC but a malformed tensor list."""
    config_text, arch, tensors, progress = load_checkpoint(src)
    if damage == "too_few_tensors":
        del tensors[-3:]
    else:
        tensors[0] = tensors[0][:, :-1]
    save_checkpoint(dest, config_text, arch, tensors, progress)
    return dest


def checkpoint_argv(command, checkpoint, cfg, data_dir, split_file, tmp_path):
    """The argv of ``command`` reading ``checkpoint``."""
    return {
        "eval": ["eval", "--checkpoint", str(checkpoint), "--data-dir", str(data_dir)],
        "profile": ["profile", "--checkpoint", str(checkpoint), "--out-dir", str(tmp_path / "p")],
        "train --resume": [
            "train", "--config", str(cfg), "--data-dir", str(data_dir),
            "--split", str(split_file), "--out-dir", str(tmp_path / "o"),
            "--resume", str(checkpoint),
        ],
    }[command]


class TestMalformedInputs:
    @pytest.mark.parametrize("command", ["eval", "profile", "train --resume"])
    @pytest.mark.parametrize("damage", ["too_few_tensors", "wrong_shape"])
    def test_malformed_checkpoint_state_exit_2(
        self, tmp_path, data_dir, split_file, trained, damage, command, capsys
    ):
        _, cfg, out = trained
        bad = damaged_checkpoint(out / "checkpoint_last.dnll", tmp_path / "bad.dnll", damage)
        assert main(checkpoint_argv(command, bad, cfg, data_dir, split_file, tmp_path)) == 2
        assert "tensor" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key", [
        ("eval", "arch", "hidden"),
        ("train --resume", "arch", "hidden"),
        ("train --resume", "progress", "sampler_rng"),
    ])
    def test_checkpoint_missing_key_exit_2(
        self, tmp_path, data_dir, split_file, trained, command, section, key, capsys
    ):
        _, cfg, out = trained
        config_text, arch, tensors, progress = load_checkpoint(out / "checkpoint_last.dnll")
        del {"arch": arch, "progress": progress}[section][key]
        bad = tmp_path / "bad.dnll"
        save_checkpoint(bad, config_text, arch, tensors, progress)
        assert main(checkpoint_argv(command, bad, cfg, data_dir, split_file, tmp_path)) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("best", [
        {},
        [],
        {"val_acc": "high", "test_acc": 0.5, "epoch": 0, "which": "model1"},
    ], ids=["empty", "not a dict", "non-numeric accuracy"])
    def test_checkpoint_malformed_best_exit_2(
        self, tmp_path, data_dir, split_file, trained, best, capsys
    ):
        _, cfg, out = trained
        config_text, arch, tensors, progress = load_checkpoint(out / "checkpoint_last.dnll")
        progress["best"] = best
        progress["epoch"] = 1  # leave one epoch to run
        bad = tmp_path / "bad.dnll"
        save_checkpoint(bad, config_text, arch, tensors, progress)
        argv = checkpoint_argv("train --resume", bad, cfg, data_dir, split_file, tmp_path)
        assert main(argv) == 2
        assert "progress" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_corrupt_gzip_idx_exit_2(self, tmp_path, data_dir, damage, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        plain = data / "train-labels-idx1-ubyte"
        packed = gzip.compress(plain.read_bytes())
        plain.unlink()
        (data / "train-labels-idx1-ubyte.gz").write_bytes(
            b"\x1f\x8b" + b"garbage" if damage == "garbage" else packed[: len(packed) // 2]
        )
        assert main([
            "split", "--data-dir", str(data), "--n-labeled", "30",
            "--n-val-per-class", "4", "--seed", "5", "--out", str(tmp_path / "split.txt"),
        ]) == 2
        assert "gzip" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [
        "seeds.model1 = -1",
        "augment.weak = crop_flip\naugment.crop_pad = -1",
    ])
    def test_out_of_range_config_exit_2(self, tmp_path, data_dir, split_file, trained, lines):
        _, cfg, _ = trained
        bad = tmp_path / "bad.txt"
        bad.write_text(cfg.read_text() + lines + "\n")
        assert main([
            "train", "--config", str(bad), "--data-dir", str(data_dir),
            "--split", str(split_file), "--out-dir", str(tmp_path / "o"),
        ]) == 2

    def test_eval_image_size_mismatch_exit_2(self, tmp_path, data_dir, trained, capsys):
        _, _, out = trained
        train, test = load_train_test(data_dir)
        small = tmp_path / "small"
        small.mkdir()
        write_idx(small / "train-images-idx3-ubyte", train.images)
        write_idx(small / "train-labels-idx1-ubyte", train.labels)
        write_idx(small / "t10k-images-idx3-ubyte", test.images[:, :20, :20])
        write_idx(small / "t10k-labels-idx1-ubyte", test.labels)
        assert main([
            "eval", "--checkpoint", str(out / "checkpoint_last.dnll"), "--data-dir", str(small),
        ]) == 2
        assert "width" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda lab, unl: (lab + ["x1"], unl), "non-index"),
        (lambda lab, unl: (lab + ["99999"], unl), "outside"),
        (lambda lab, unl: (lab, unl + lab[:3]), "more than once"),
    ], ids=["non-integer token", "index out of range", "labeled repeated as unlabeled"])
    def test_bad_split_manifest_exit_2(
        self, tmp_path, data_dir, split_file, trained, edit, message, capsys
    ):
        _, cfg, _ = trained
        lines = split_file.read_text().splitlines()
        sections = {line.split(":")[0]: line.split(":")[1].split() for line in lines if ":" in line}
        labeled, unlabeled = edit(sections["labeled"], sections["unlabeled"])
        bad = tmp_path / "split.txt"
        bad.write_text(
            f"{lines[0]}\nlabeled: {' '.join(labeled)}\nunlabeled: {' '.join(unlabeled)}\n"
            f"validation: {' '.join(sections['validation'])}\n"
        )
        assert main([
            "train", "--config", str(cfg), "--data-dir", str(data_dir),
            "--split", str(bad), "--out-dir", str(tmp_path / "o"),
        ]) == 2
        assert message in capsys.readouterr().err


class TestEval:
    def test_matches_final_metrics_row(self, trained, capsys):
        _, _, out = trained
        manifest = json.loads((out / "manifest.json").read_text())
        code = main([
            "eval", "--checkpoint", str(out / "checkpoint_last.dnll"),
            "--data-dir", manifest["inputs"]["data_dir"],
            "--out-dir", str(out / "eval"),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        final = (out / "metrics.csv").read_text().splitlines()[-1].split(",")
        # columns 10..12 hold test_acc1, test_acc2, test_acc_ens
        assert f"test_acc1={final[10]}" in printed
        assert f"test_acc2={final[11]}" in printed
        assert f"test_acc_ens={final[12]}" in printed

    def test_split_option_reports_validation(self, trained, data_dir, split_file, capsys):
        _, _, out = trained
        assert main([
            "eval", "--checkpoint", str(out / "checkpoint_last.dnll"),
            "--data-dir", str(data_dir), "--split", str(split_file),
        ]) == 0
        printed = capsys.readouterr().out
        final = (out / "metrics.csv").read_text().splitlines()[-1].split(",")
        assert f"val_acc1={final[8]}" in printed
        assert f"val_acc2={final[9]}" in printed

    def test_confusion_rows_sum_to_class_counts(self, trained, data_dir):
        _, _, out = trained
        assert main([
            "eval", "--checkpoint", str(out / "checkpoint_last.dnll"),
            "--data-dir", str(data_dir), "--out-dir", str(out / "eval2"),
        ]) == 0
        from dnll.data import load_train_test

        _, test = load_train_test(data_dir)
        counts = np.bincount(test.labels, minlength=10)
        rows = (out / "eval2" / "confusion_model1.csv").read_text().splitlines()[1:]
        sums = [sum(int(v) for v in row.split(",")) for row in rows]
        assert sums == counts.tolist()

    def test_corrupted_checkpoint_exit_2(self, trained, data_dir, tmp_path):
        _, _, out = trained
        raw = bytearray((out / "checkpoint_last.dnll").read_bytes())
        raw[40] ^= 0xFF
        bad = tmp_path / "bad.dnll"
        bad.write_bytes(bytes(raw))
        assert main([
            "eval", "--checkpoint", str(bad), "--data-dir", str(data_dir),
        ]) == 2


class TestProfile:
    def test_dumps_k_by_k_csv(self, trained, tmp_path):
        _, _, out = trained
        dest = tmp_path / "profiles"
        assert main([
            "profile", "--checkpoint", str(out / "checkpoint_last.dnll"),
            "--out-dir", str(dest),
        ]) == 0
        lines = (dest / "profile_rates_model1.csv").read_text().splitlines()
        assert lines[0] == ",".join(str(i) for i in range(10))
        assert len(lines) == 11
        row0 = [float(v) for v in lines[1].split(",")]
        assert sum(row0) == pytest.approx(1.0)
        assert row0[0] == 0.0


class TestTheory:
    def test_passing_check(self, capsys):
        code = main([
            "theory", "--theorem", "1", "--q", "0.9", "--K", "10", "--m", "1",
            "--trials", "200000", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "q,K,m,trials,closed_form,estimate,standard_error,z_score"

    def test_single_term_closed_form(self, capsys):
        code = main([
            "theory", "--theorem", "2", "--q", "1.0", "--K", "3", "--m", "1",
            "--trials", "50000",
        ])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[4]) == 0.5

    def test_rare_cell_without_events_exit_0(self):
        assert main([
            "theory", "--theorem", "2", "--q", "0.0", "--K", "100", "--m", "3", "--seed", "50",
        ]) == 0

    def test_out_of_range_exit_2(self):
        assert main(["theory", "--theorem", "1", "--m", "12", "--K", "10"]) == 2

    def test_failed_check_exit_1(self, monkeypatch):
        # A rigged estimate far from the closed form must exit 1.
        from dnll.theory import SimResult

        def rigged(model, workers=1):
            return SimResult(estimate=0.5, standard_error=0.001, trials=model.trials,
                             closed_form=0.1)

        monkeypatch.setattr("dnll.theory.simulate_transfer_error", rigged)
        assert main([
            "theory", "--theorem", "1", "--q", "0.5", "--K", "10", "--m", "1",
            "--trials", "10000",
        ]) == 1

    def test_csv_written(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main([
            "theory", "--theorem", "1", "--q", "0.5", "--K", "4", "--m", "1",
            "--trials", "50000", "--out", str(out),
        ]) == 0
        assert out.read_text().startswith("q,K,m,")


class TestAblate:
    def test_learning_mode_axis(self, tmp_path, data_dir, split_file):
        cfg = tmp_path / "config.txt"
        cfg.write_text(TINY_CONFIG.replace("epochs = 2", "epochs = 1"))
        out = tmp_path / "ablate"
        assert main([
            "ablate", "--axis", "learning-mode", "--config", str(cfg),
            "--data-dir", str(data_dir), "--split", str(split_file),
            "--out-dir", str(out),
        ]) == 0
        lines = (out / "ablation_learning-mode.csv").read_text().splitlines()
        assert lines[0] == "mode,final_acc"
        assert [l.split(",")[0] for l in lines[1:]] == [
            "SL w/o EPM", "SL", "ML w/o EPM", "ML",
        ]

    def test_m_axis_contract(self, tmp_path, data_dir, split_file):
        cfg = tmp_path / "config.txt"
        cfg.write_text(
            TINY_CONFIG.replace("epochs = 2", "epochs = 1").replace("data.max_unlabeled = 120", "data.max_unlabeled = 60")
        )
        out = tmp_path / "ablate_m"
        assert main([
            "ablate", "--axis", "m", "--config", str(cfg),
            "--data-dir", str(data_dir), "--split", str(split_file),
            "--out-dir", str(out),
        ]) == 0
        lines = (out / "ablation_m.csv").read_text().splitlines()
        assert lines[0] == "m,final_acc"
        assert [l.split(",")[0] for l in lines[1:]] == ["1", "2", "3", "4"]

    def test_selection_axis_shares_seeds(self, tmp_path, data_dir, split_file):
        cfg = tmp_path / "config.txt"
        cfg.write_text(
            TINY_CONFIG.replace("epochs = 2", "epochs = 1").replace("data.max_unlabeled = 120", "data.max_unlabeled = 60")
        )
        out = tmp_path / "ablate_sel"
        assert main([
            "ablate", "--axis", "selection", "--config", str(cfg),
            "--data-dir", str(data_dir), "--split", str(split_file),
            "--out-dir", str(out),
        ]) == 0
        manifests = [
            json.loads((out / name / "manifest.json").read_text())["resolved_config"]
            for name in ("EP", "EPM")
        ]
        assert "seeds.model1 = 1" in manifests[0]
        assert manifests[0].replace("selection_mode = EP", "") == manifests[1].replace(
            "selection_mode = EPM", ""
        )
