"""Command-line surface: subcommands, config resolution, exit codes."""

import hashlib
from dataclasses import fields
from datetime import datetime, timedelta

import numpy as np
import pytest

from tpgn import data as data_mod
from tpgn.bench import BenchScenario
from tpgn.cli import build_parser, main
from tpgn.model import tpgn_forward
from tpgn.training import Checkpoint, TrainConfig, params_from_checkpoint


def run_synth(tmp_path, name="data.csv", hours=900, extra=()):
    path = tmp_path / name
    code = main(["synth", "--out", str(path), "--hours", str(hours), *extra])
    assert code == 0
    return path


FAST = ["--lh", "48", "--lf", "24", "--dm", "4", "--max-epochs", "2",
        "--patience", "2", "--batch-size", "16"]


class TestSynth:
    def test_writes_parseable_csv(self, tmp_path):
        from tpgn.data import load_csv

        path = run_synth(tmp_path, hours=100)
        series = load_csv(path, "value")
        assert len(series) == 100

    @pytest.mark.parametrize("flags", [
        ["--hours", "0"], ["--period", "0"], ["--period", "nan"],
        ["--amplitude", "nan"], ["--mean", "inf"], ["--drift", "nan"],
        ["--noise", "-1"],
    ], ids=" ".join)
    def test_bad_setting_exits_2_before_any_file(self, tmp_path, flags, capsys):
        out = tmp_path / "sub" / "data.csv"
        assert main(["synth", "--out", str(out), *flags]) == 2
        assert "config error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestTrain:
    def test_happy_path_writes_all_artifacts(self, tmp_path):
        data = run_synth(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--target", "value",
                     "--out", str(out), *FAST])
        assert code == 0
        for name in ("manifest.txt", "checkpoint.tpgn", "epoch_log.csv",
                     "metrics.csv", "predictions.csv"):
            assert (out / name).exists(), name
        # 900 synthetic hours from 2020-01-01 split 540:180:180; the first
        # test window's 24-hour horizon follows its 48-hour history
        start = datetime(2020, 1, 1) + timedelta(hours=540 + 180 + 48)
        rows = [row.split(",") for row in
                (out / "predictions.csv").read_text(encoding="utf-8").splitlines()[1:]]
        assert [row[0] for row in rows] == [
            (start + timedelta(hours=i)).strftime("%Y-%m-%d %H:%M:%S") for i in range(24)]
        # truth and prediction are plain numbers: the first test window's
        # targets and the checkpoint's forecast of that window
        series = data_mod.standardize_series(
            data_mod.aggregate_hourly(data_mod.load_csv(data, "value")))[0]
        test_w = data_mod.split_and_window(series, data_mod.SplitSpec(l_h=48, l_f=24))[2]
        params, cfg = params_from_checkpoint(Checkpoint.load(out / "checkpoint.tpgn"))
        forecast = tpgn_forward(test_w[0], params, cfg.model_config()).data
        assert [float(row[1]) for row in rows] == test_w[0].y_true.tolist()
        assert [float(row[2]) for row in rows] == forecast.tolist()

    def test_golden_bytes(self, tmp_path):
        """sha256 of the default 900-hour synth CSV and of a FAST run's
        predictions.csv: they pin the ``YYYY-MM-DD HH:MM:SS`` stamps and the
        value digits.  The predictions also pin the float arithmetic of the
        numpy/OpenBLAS build, as the README's bitwise facts do."""
        data = run_synth(tmp_path)
        assert hashlib.sha256(data.read_bytes()).hexdigest() == (
            "eb2573b17e47488b098b4ea4c74164710ea10b1a43aa108b85ddd492f22002a7")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--target", "value",
                     "--out", str(out), *FAST]) == 0
        assert hashlib.sha256((out / "predictions.csv").read_bytes()).hexdigest() == (
            "fe1b901bd0becd55dffa12168400b78b6af86f75e6fc15b6f7b85567f196daf0")

    def test_manifest_written_before_failure(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--target", "value", "--out", str(out), *FAST])
        assert code == 3
        assert (out / "manifest.txt").exists()

    def test_missing_dataset_exits_3(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "missing.csv"),
                     "--target", "value", "--out", str(tmp_path / "o"), *FAST])
        assert code == 3

    def test_invalid_norm_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc_info:
            main(["train", "--data", "x.csv", "--target", "v", "--norm", "7"])
        assert exc_info.value.code == 2

    def test_invalid_norm_in_config_file_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("norm=7\n")
        code = main(["train", "--config", str(cfg), "--data", "x.csv",
                     "--target", "v", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unparsable_config_value_exits_2_naming_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dm=4.5\n")
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg), "--data", "x.csv",
                     "--target", "v", "--out", str(out)])
        assert code == 2
        assert "dm='4.5' is not a valid int" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate_schedule=cosine\n")
        code = main(["train", "--config", str(cfg), "--data", "x.csv",
                     "--target", "v", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_c_time_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["train", "--data", "x.csv", "--target", "v", "--c-time", "4"])
        assert exc_info.value.code == 2

    def test_c_time_config_key_exits_2_before_any_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c_time=4\n")
        out = tmp_path / "o"
        code = main(["train", "--config", str(cfg), "--data", "x.csv",
                     "--target", "v", "--out", str(out)])
        assert code == 2
        assert "unknown config key 'c_time'" in capsys.readouterr().err
        assert not out.exists()

    def test_hash_inside_config_value_is_kept(self, tmp_path):
        run_dir = tmp_path / "runs" / "#3"
        run_dir.mkdir(parents=True)
        data = run_synth(run_dir, name="x.csv")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# a comment line\ndata={data}  # trailing comment\n"
                       "target=value\n")
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--out", str(out), *FAST])
        assert code == 0
        assert f"data={data}\n" in (out / "manifest.txt").read_text()

    def test_flags_override_config_file(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lh=96\nlf=96\ndm=4\nmax_epochs=1\npatience=1\n"
                       f"data={data}\ntarget=value\nbatch_size=16\n")
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--lh", "48", "--lf", "24",
                     "--out", str(out)])
        assert code == 0
        manifest = (out / "manifest.txt").read_text()
        assert "lh=48" in manifest  # flag wins
        assert "dm=4" in manifest   # file wins over default

    def test_divergence_exits_4(self, tmp_path):
        data = run_synth(tmp_path)
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["train", "--data", str(data), "--target", "value",
                         "--out", str(out), "--lr", "1e105", *FAST])
        assert code == 4
        assert (out / "checkpoint.tpgn").exists()  # last good state kept

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_lr_exits_2_before_training(self, tmp_path, capsys, lr):
        data = run_synth(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--target", "value",
                     "--out", str(out), *FAST, "--lr", lr])
        assert code == 2
        assert "lr must be finite" in capsys.readouterr().err
        assert not out.exists()  # rejected before the run directory is made

    def test_noise_eps_out_of_range_exits_2_before_any_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data", "x.csv", "--target", "v", "--out", str(out),
                     "--noise-eps", "1.5"])
        assert code == 2
        assert "noise_eps must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_csv_value_exits_3(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        lines = data.read_text().splitlines()
        stamp = lines[5].split(",")[0]
        lines[5] = f"{stamp},inf"
        data.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["train", "--data", str(data), "--target", "value",
                     "--out", str(tmp_path / "run"), *FAST])
        err = capsys.readouterr().err
        assert code == 3
        assert "data error: row 6" in err and "not finite" in err

    def test_noise_flag_changes_training(self, tmp_path):
        data = run_synth(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--data", str(data), "--target", "value",
                     "--out", str(a), *FAST]) == 0
        assert main(["train", "--data", str(data), "--target", "value",
                     "--out", str(b), "--noise-eps", "0.3", *FAST]) == 0
        assert (a / "metrics.csv").read_text() != (b / "metrics.csv").read_text()


class TestEval:
    def test_reproduces_training_metrics_bitwise(self, tmp_path):
        data = run_synth(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--target", "value",
                     "--out", str(out), *FAST]) == 0
        assert main(["eval", "--checkpoint", str(out / "checkpoint.tpgn"),
                     "--data", str(data), "--out", str(out)]) == 0
        first = (out / "metrics.csv").read_text()
        second = (out / "metrics.1.csv").read_text()
        assert first == second
        # the calendar-channel count is read off the data and echoed
        assert Checkpoint.load(out / "checkpoint.tpgn").config["c_time"] == "4"

    def test_timestamp_column_comes_from_checkpoint(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        lines = data.read_text().splitlines()
        assert lines[0] == "date,value"
        data.write_text("\n".join(["ts,value", *lines[1:]]) + "\n")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--target", "value",
                     "--timestamp-column", "ts", "--out", str(out), *FAST]) == 0
        ckpt = str(out / "checkpoint.tpgn")
        assert main(["eval", "--checkpoint", ckpt, "--data", str(data),
                     "--out", str(out)]) == 0
        assert (out / "metrics.csv").read_text() == (out / "metrics.1.csv").read_text()
        # an explicit flag still wins over the echo
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, "--data", str(data),
                     "--timestamp-column", "date", "--out", str(out)]) == 3
        assert "has no column 'date'" in capsys.readouterr().err

    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        path = tmp_path / "model.tpgn"
        Checkpoint(tensors={"w": np.arange(4.0)}, config={"l_h": "48"},
                   best_val_loss=0.5, epoch=12).save(path)
        path.write_bytes(path.read_bytes()[:-1])
        code = main(["eval", "--checkpoint", str(path), "--data", "x.csv",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "truncated" in capsys.readouterr().err


def _rewrite_checkpoint(path, tensors=None, drop=(), **echo):
    """Load, edit and save a checkpoint: rename tensors, drop or set echo keys."""
    ckpt = Checkpoint.load(path)
    if tensors is not None:
        ckpt.tensors = {tensors(k): v for k, v in ckpt.tensors.items()}
    for key in drop:
        del ckpt.config[key]
    ckpt.config.update(echo)
    ckpt.save(path)


class TestBadCheckpointEcho:
    @pytest.mark.parametrize("edit,named", [
        (dict(drop=("lr",)), "lr"),
        (dict(drop=("l_h",)), "l_h"),
        (dict(drop=("c_time",)), "c_time"),
        (dict(drop=("head_shared",)), "head_shared"),
        (dict(d_m="x"), "d_m"),
        (dict(head_shared="2"), "head_shared"),
        # the earlier layout: the gated cell's weights under "pgn."
        (dict(tensors=lambda k: k.replace("cell.", "pgn.")), "pgn.hie_w"),
    ])
    def test_exits_2_naming_the_culprit(self, tmp_path, capsys, edit, named):
        data = run_synth(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--target", "value",
                     "--out", str(out), *FAST]) == 0
        _rewrite_checkpoint(out / "checkpoint.tpgn", **edit)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "checkpoint.tpgn"),
                     "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err and named in err
        assert "Traceback" not in err


class TestLibraryLogging:
    def test_interpolated_hours_reach_stderr(self, tmp_path, capsys):
        data = run_synth(tmp_path)
        lines = data.read_text().splitlines()
        data.write_text("\n".join(lines[:100] + lines[101:]) + "\n")
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--target", "value",
                     "--out", str(tmp_path / "run"), *FAST]) == 0
        assert "interpolated 1 empty hours" in capsys.readouterr().err


class TestDeterminism:
    def test_identical_runs_produce_identical_logs(self, tmp_path):
        data = run_synth(tmp_path)
        out = tmp_path / "run"
        args = ["train", "--data", str(data), "--target", "value",
                "--out", str(out), *FAST]
        assert main(args) == 0
        assert main(args) == 0

        def strip_elapsed(text):
            return ["," .join(line.split(",")[:3]) for line in text.splitlines()]

        log1 = strip_elapsed((out / "epoch_log.csv").read_text())
        log2 = strip_elapsed((out / "epoch_log.1.csv").read_text())
        assert log1 == log2
        assert (out / "metrics.csv").read_text() == (out / "metrics.1.csv").read_text()
        # identical settings hash identically
        m1 = (out / "manifest.txt").read_text()
        m2 = (out / "manifest.1.txt").read_text()
        assert m1 == m2


class TestSettingsTable:
    """Each run setting is declared once; the CLI's copies cannot drift."""

    def test_every_train_config_field_is_a_setting(self, tmp_path):
        cli_name = {"l_h": "lh", "l_f": "lf", "d_m": "dm"}
        parser = build_parser()
        cfg_lines = []
        for f in fields(TrainConfig):
            key = cli_name.get(f.name, f.name)
            flag = "--" + key.replace("_", "-")
            assert getattr(parser.parse_args(["train", flag, str(f.default)]), key) \
                == f.default
            cfg_lines.append(f"{key}={f.default}")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(cfg_lines) + "\n")
        # no data: exit 2 after the manifest records the resolved settings
        out = tmp_path / "run"
        assert main(["train", "--out", str(out)]) == 2
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        manifest = (out / "manifest.txt").read_text()
        assert manifest == (out / "manifest.1.txt").read_text()
        for line in cfg_lines:
            assert f"\n{line}\n" in f"\n{manifest}"

    def test_bench_defaults_are_the_scenario_defaults(self):
        args = build_parser().parse_args(["bench"])
        defaults = {f.name: f.default for f in fields(BenchScenario)}
        assert args.dm == defaults["d_m"]
        for name in ("batch", "repeat", "warmup", "period", "seed"):
            assert getattr(args, name) == defaults[name], name


class TestGradcheckCommand:
    def test_default_config_passes_and_exits_0(self, tmp_path, capsys):
        code = main(["gradcheck", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "gradcheck.csv").exists()
        assert "max relative error" in capsys.readouterr().out


class TestBenchCommand:
    def test_quick_sweep_schema(self, tmp_path):
        code = main(["bench", "--quick", "--models", "TPGN", "--dm", "8",
                     "--batch", "2", "--repeat", "3", "--warmup", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        assert lines[0] == ("model,L_h,L_f,d_m,batch,time_ms_median,"
                            "forward_ms_median,peak_bytes,macs,graph_depth")
        assert len(lines) > 1


class TestPerPhaseHeadFlag:
    def test_train_eval_round_trip(self, tmp_path):
        data = run_synth(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--target", "value",
                     "--out", str(out), "--head-shared", "0", *FAST]) == 0
        assert main(["eval", "--checkpoint", str(out / "checkpoint.tpgn"),
                     "--data", str(data), "--out", str(out)]) == 0
        assert (out / "metrics.csv").read_text() == (out / "metrics.1.csv").read_text()
