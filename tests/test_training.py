"""Metrics, Adam, the fit loop, early stopping and checkpoints."""

import platform
from dataclasses import replace

import numpy as np
import pytest

from tpgn import autodiff as ad
from tpgn.errors import ConfigError, ContractError, DivergenceError
from tpgn.model import VARIANTS, SeriesWindow, TpgnParams, tpgn_forward_batch
from tpgn.training import (AdamState, Checkpoint, TrainConfig, adam_step,
                           evaluate, fit, mae, mse, params_from_checkpoint,
                           predict_windows, write_epoch_log)


def make_windows(n, l_h=8, l_f=8, c_time=1, seed=0, zeros=False):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        if zeros:
            x, y = np.zeros(l_h), np.zeros(l_f)
            tf = np.zeros((l_h, c_time))
        else:
            x, y = rng.uniform(-1, 1, l_h), rng.uniform(-1, 1, l_f)
            tf = rng.uniform(-0.5, 0.5, (l_h, c_time))
        out.append(SeriesWindow(x_1d=x, tf_enc=tf, y_true=y))
    return out


def poison(windows, index, field, value):
    """A copy of ``windows`` whose window ``index`` has ``value`` in ``field``."""
    arr = getattr(windows[index], field).copy()
    arr.flat[2] = value
    return windows[:index] + [replace(windows[index], **{field: arr})] + windows[index + 1:]


NON_FINITE = pytest.mark.parametrize("field,value", [
    ("x_1d", np.nan), ("tf_enc", np.inf), ("y_true", np.nan), ("y_true", -np.inf)])


def tiny_config(**overrides):
    base = dict(l_h=8, l_f=8, period=4, d_m=2, norm=0, max_epochs=3,
                patience=3, batch_size=4, seed=2023)
    base.update(overrides)
    return TrainConfig(**base)


def tiny_params(cfg, c_time=1, variant="full"):
    return TpgnParams.init(cfg.l_h, cfg.l_f, cfg.period, c_time, cfg.d_m,
                           np.random.default_rng(cfg.seed), VARIANTS[variant])


class TestMetrics:
    def test_identity_is_zero(self):
        x = np.arange(5.0)
        assert mse(x, x) == 0.0
        assert mae(x, x) == 0.0

    def test_hand_arithmetic(self):
        assert mse([0.0, 0.0], [1.0, 3.0]) == 5.0
        assert mae([0.0, 0.0], [1.0, 3.0]) == 2.0

    def test_constant_offset(self):
        x = np.random.default_rng(0).uniform(-1, 1, 16)
        c = 0.7
        assert abs(mse(x + c, x) - c * c) < 1e-12
        assert abs(mae(x + c, x) - c) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            mse(np.zeros(0), np.zeros(0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            mse(np.zeros(3), np.zeros(4))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        arrays = {"w": np.array([1.0, -2.0])}
        before = arrays["w"].copy()
        adam_step(arrays, {"w": np.zeros(2)}, AdamState.init(arrays), lr=0.1)
        assert np.array_equal(arrays["w"], before)

    def test_one_step_hand_evaluation(self):
        # theta=0, g=1, fresh state: m_hat = v_hat = 1, step = -lr/(1+eps)
        arrays = {"w": np.zeros(())}
        state = AdamState.init(arrays)
        adam_step(arrays, {"w": np.asarray(1.0)}, state, lr=0.1)
        expected = -0.1 / (1.0 + 1e-8)
        assert arrays["w"] == expected
        assert abs(arrays["w"] - (-0.1)) < 1e-8

    def test_convex_quadratic_monotone_descent(self):
        arrays = {"theta": np.asarray(1.0)}
        state = AdamState.init(arrays)
        values = []
        for _ in range(100):
            g = 2.0 * arrays["theta"]
            adam_step(arrays, {"theta": np.asarray(g)}, state, lr=1e-3)
            values.append(float(arrays["theta"] ** 2))
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_non_finite_gradient_aborts_with_name(self):
        arrays = {"w": np.zeros(3), "bad": np.zeros(2)}
        state = AdamState.init(arrays)
        before = {k: a.copy() for k, a in arrays.items()}
        with pytest.raises(DivergenceError, match="bad"):
            adam_step(arrays, {"w": np.ones(3), "bad": np.array([1.0, np.nan])},
                      state, lr=0.1)
        for k in arrays:  # aborted step leaves parameters untouched
            assert np.array_equal(arrays[k], before[k])

    def test_deterministic(self):
        def run():
            arrays = {"w": np.ones(4)}
            state = AdamState.init(arrays)
            rng = np.random.default_rng(1)
            for _ in range(20):
                adam_step(arrays, {"w": rng.standard_normal(4)}, state, lr=0.01)
            return arrays["w"]

        assert np.array_equal(run(), run())


class TestFit:
    def test_zero_model_on_zero_targets(self):
        cfg = tiny_config(max_epochs=10, patience=3)
        params = tiny_params(cfg)
        for arr in params.named_arrays().values():
            arr[...] = 0.0
        windows = make_windows(8, zeros=True)
        ckpt, log = fit(params, windows, windows, cfg)
        assert log[0].train_loss == 0.0
        assert ckpt.best_val_loss == 0.0
        assert ckpt.epoch == 1
        # zero loss never strictly improves after epoch 1: patience runs out
        assert len(log) == 1 + cfg.patience

    def test_best_checkpoint_dominates_log(self):
        cfg = tiny_config(max_epochs=8, patience=8, lr=0.05, seed=5)
        params = tiny_params(cfg)
        ckpt, log = fit(params, make_windows(12, seed=6), make_windows(4, seed=7), cfg)
        assert ckpt.best_val_loss <= min(r.val_loss for r in log)
        assert any(r.val_loss == ckpt.best_val_loss and r.epoch == ckpt.epoch
                   for r in log)

    def test_repeated_batch_loss_non_increasing(self):
        # one full-set batch per epoch: a stochastic-free descent curve
        cfg = tiny_config(batch_size=8, max_epochs=50, patience=50, lr=5e-3)
        params = tiny_params(cfg)
        windows = make_windows(8, seed=8)
        _, log = fit(params, windows, windows, cfg)
        losses = [r.train_loss for r in log]
        assert len(losses) == 50
        for a, b in zip(losses, losses[1:]):
            assert b <= a * 1.05
        assert losses[-1] < losses[0]

    def test_bitwise_deterministic_runs(self):
        def run():
            cfg = tiny_config(max_epochs=4, patience=4, seed=11)
            params = tiny_params(cfg)
            _, log = fit(params, make_windows(10, seed=12), make_windows(3, seed=13),
                         cfg)
            return [(r.epoch, r.train_loss, r.val_loss) for r in log]

        assert run() == run()

    def test_divergence_raises_with_last_good_checkpoint(self):
        # adam steps are lr-sized, and the forward is cubic in the weights:
        # an absurd lr overflows float64 on the next pass
        cfg = tiny_config(lr=1e105, max_epochs=5, patience=5)
        params = tiny_params(cfg)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as exc_info:
            fit(params, make_windows(8, seed=14), make_windows(3, seed=15), cfg)
        assert exc_info.value.checkpoint is not None

    def test_empty_window_sets_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ConfigError):
            fit(tiny_params(cfg), [], make_windows(2), cfg)

    @NON_FINITE
    @pytest.mark.parametrize("split", ["train", "val"])
    def test_non_finite_window_rejected(self, split, field, value):
        cfg = tiny_config()
        windows = make_windows(8, seed=3)
        with pytest.raises(ContractError, match="NaN or Inf"):
            bad = poison(windows, 5, field, value)
            train, val = (bad, windows) if split == "train" else (windows, bad)
            fit(tiny_params(cfg), train, val, cfg)

    def test_non_finite_window_rejected_before_any_step(self):
        # one poisoned window among four shuffled batches: fit raises
        # before any batch has updated the weights in place
        cfg = tiny_config(batch_size=2)
        params = tiny_params(cfg)
        before = {k: a.copy() for k, a in params.named_arrays().items()}
        train = poison(make_windows(8, seed=3), 7, "x_1d", np.nan)
        with pytest.raises(ContractError, match="NaN or Inf"):
            fit(params, train, make_windows(4, seed=4), cfg)
        after = params.named_arrays()
        assert len(after) == 14
        assert all(np.array_equal(after[k], before[k]) for k in before)

    def test_unequal_horizons_rejected(self):
        # the histories agree, so only the stacked targets can tell
        cfg = tiny_config()
        train = make_windows(6, seed=3) + make_windows(2, l_f=4, seed=5)
        with pytest.raises(ConfigError, match="horizon"):
            fit(tiny_params(cfg), train, make_windows(2, seed=4), cfg)

    def test_partial_final_batch_kept(self):
        cfg = tiny_config(batch_size=4, max_epochs=1, patience=1)
        params = tiny_params(cfg)
        # 6 windows with batch 4: the trailing pair still trains
        _, log = fit(params, make_windows(6, seed=16), make_windows(2, seed=17), cfg)
        assert len(log) == 1

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the allocator policy is a glibc setting")
    def test_steps_after_fit_reuse_freed_memory(self):
        # a protocol-shape step frees and reallocates several MB; under the
        # allocator policy every tape sets (autodiff._keep_step_memory), a
        # repeated step after fit faults almost nothing in
        import resource

        cfg = tiny_config(l_h=168, l_f=168, period=24, d_m=32, max_epochs=1,
                          patience=1, batch_size=32)
        params = tiny_params(cfg, c_time=4)
        windows = make_windows(32, l_h=168, l_f=168, c_time=4, seed=24)
        fit(params, windows[:4], windows[4:6], cfg)

        def step_faults():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            graph = ad.Graph()
            preds = tpgn_forward_batch(windows, params, cfg.model_config(),
                                       weights=params.leaf_into(graph))
            ad.backward(ad.reduce_sum(ad.mul(preds, preds)))
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults = [step_faults() for _ in range(4)]
        assert min(faults[2:]) < 200, faults

    @pytest.mark.parametrize("field,value", [
        ("l_h", 16), ("l_f", 4), ("period", 2), ("d_m", 3)])
    def test_config_disagreeing_with_params_rejected(self, field, value):
        # the checkpoint echo comes from cfg: a mismatch would write a
        # checkpoint that evaluate cannot rebuild
        params = tiny_params(tiny_config())
        cfg = tiny_config(**{field: value})
        with pytest.raises(ConfigError, match=f"config {field}={value} does not match"):
            fit(params, make_windows(4, seed=22), make_windows(2, seed=23), cfg)


class TestEvaluate:
    def test_constant_model_hand_metrics(self):
        cfg = tiny_config()
        params = tiny_params(cfg)
        for arr in params.named_arrays().values():
            arr[...] = 0.0
        params.head_b[:] = [2.0, -1.0]
        ckpt = Checkpoint(tensors=params.named_arrays(),
                          config={**cfg.as_dict(), "c_time": "1", "head_shared": "1"},
                          best_val_loss=0.0, epoch=1)
        w = make_windows(1, seed=18)[0]
        pred = np.concatenate([np.full(4, 2.0), np.full(4, -1.0)])
        expected_mse = mse(pred, w.y_true)
        expected_mae = mae(pred, w.y_true)
        got = evaluate(ckpt, [w])
        assert got["mse"] == expected_mse
        assert got["mae"] == expected_mae

    def test_order_invariance(self):
        cfg = tiny_config()
        params = tiny_params(cfg)
        ckpt = Checkpoint(tensors=params.named_arrays(),
                          config={**cfg.as_dict(), "c_time": "1", "head_shared": "1"},
                          best_val_loss=0.0, epoch=1)
        windows = make_windows(6, seed=19)
        a = evaluate(ckpt, windows)
        b = evaluate(ckpt, list(reversed(windows)))
        assert a["mse"] == pytest.approx(b["mse"], abs=1e-15)
        assert a["mae"] == pytest.approx(b["mae"], abs=1e-15)

    @NON_FINITE
    def test_non_finite_window_rejected(self, field, value):
        cfg = tiny_config()
        ckpt = Checkpoint(tensors=tiny_params(cfg).named_arrays(),
                          config={**cfg.as_dict(), "c_time": "1", "head_shared": "1"},
                          best_val_loss=0.0, epoch=1)
        with pytest.raises(ContractError, match="NaN or Inf"):
            evaluate(ckpt, poison(make_windows(6, seed=20), 4, field, value))

    def test_empty_window_sets_rejected(self):
        cfg = tiny_config()
        ckpt = Checkpoint(tensors=tiny_params(cfg).named_arrays(),
                          config={**cfg.as_dict(), "c_time": "1", "head_shared": "1"},
                          best_val_loss=0.0, epoch=1)
        with pytest.raises(ConfigError, match="at least one window"):
            evaluate(ckpt, [])
        with pytest.raises(ConfigError, match="at least one window"):
            predict_windows(tiny_params(cfg), [], cfg.model_config())


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = tiny_config()
        params = tiny_params(cfg)
        ckpt = Checkpoint(tensors=params.named_arrays(),
                          config={**cfg.as_dict(), "c_time": "1"},
                          best_val_loss=0.123456789012345678, epoch=7)
        path = tmp_path / "model.tpgn"
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert set(loaded.tensors) == set(ckpt.tensors)
        for k in ckpt.tensors:
            assert loaded.tensors[k].shape == ckpt.tensors[k].shape
            assert np.array_equal(loaded.tensors[k], ckpt.tensors[k])
        assert loaded.config == ckpt.config
        assert loaded.best_val_loss == ckpt.best_val_loss
        assert loaded.epoch == ckpt.epoch

    def test_truncation_at_every_offset_raises(self, tmp_path):
        cfg = tiny_config()
        ckpt = Checkpoint(tensors=tiny_params(cfg).named_arrays(),
                          config={**cfg.as_dict(), "c_time": "1"},
                          best_val_loss=0.123456789012345678, epoch=12)
        path = tmp_path / "model.tpgn"
        ckpt.save(path)
        raw = path.read_bytes()
        for size in range(len(raw)):
            cut = tmp_path / f"cut{size}.tpgn"  # fresh files: rewriting one is slow
            cut.write_bytes(raw[:size])
            with pytest.raises(ConfigError):
                Checkpoint.load(cut)

    @pytest.mark.parametrize("offset,value", [
        (5, 2**62),                   # name length
        (5 + 8 + 1, 2**62),           # rank of the first tensor
        (5 + 8 + 1 + 8, 2**63 + 1),   # its first dimension
        (5 + 8 + 1 + 8, 2**64 - 1),
    ])
    def test_huge_declared_size_raises(self, tmp_path, offset, value):
        path = tmp_path / "model.tpgn"
        Checkpoint(tensors={"w": np.arange(3.0)}, config={},
                   best_val_loss=0.5, epoch=1).save(path)
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 8] = value.to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError):
            Checkpoint.load(path)

    def test_undecodable_name_raises(self, tmp_path):
        path = tmp_path / "model.tpgn"
        Checkpoint(tensors={"w": np.arange(3.0)}, config={},
                   best_val_loss=0.5, epoch=1).save(path)
        raw = bytearray(path.read_bytes())
        raw[5 + 8] = 0xFF  # the single byte of the name "w"
        path.write_bytes(bytes(raw))
        with pytest.raises(ConfigError, match="corrupt"):
            Checkpoint.load(path)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "model.tpgn"
        Checkpoint(tensors={"w": np.arange(3.0)}, config={},
                   best_val_loss=0.5, epoch=1).save(path)
        before = path.read_bytes()
        # "a" is written after the magic; the object tensor then fails to convert
        bad = Checkpoint(tensors={"a": np.ones(2), "z": np.array([object()])},
                         config={}, best_val_loss=0.25, epoch=2)
        with pytest.raises(TypeError):
            bad.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.tpgn"]

    def test_magic_string_checked(self, tmp_path):
        path = tmp_path / "junk.tpgn"
        path.write_bytes(b"NOPE!" + b"\x00" * 16)
        with pytest.raises(ConfigError, match="magic"):
            Checkpoint.load(path)

    def test_params_reconstruction_matches_fit_output(self, tmp_path):
        cfg = tiny_config(max_epochs=2, patience=2)
        params = tiny_params(cfg)
        ckpt, _ = fit(params, make_windows(8, seed=20), make_windows(3, seed=21), cfg)
        path = tmp_path / "model.tpgn"
        ckpt.save(path)
        rebuilt, cfg2 = params_from_checkpoint(Checkpoint.load(path))
        assert cfg2.as_dict() == cfg.as_dict()
        for name, arr in rebuilt.named_arrays().items():
            assert np.array_equal(arr, ckpt.tensors[name])

    def test_epoch_log_format(self, tmp_path):
        from tpgn.training import EpochRecord

        path = tmp_path / "log.csv"
        write_epoch_log(path, [EpochRecord(1, 0.5, 0.25, 1.234567)])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,elapsed_seconds"
        assert lines[1].startswith("1,0.5,0.25,")


class TestTrainConfig:
    def test_defaults_are_protocol_values(self):
        cfg = TrainConfig()
        assert cfg.lr == 1e-3
        assert cfg.batch_size == 32
        assert cfg.max_epochs == 25
        assert cfg.patience == 5
        assert cfg.seed == 2023

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(patience=30, max_epochs=25)
        with pytest.raises(ConfigError):
            TrainConfig(norm=2)
        with pytest.raises(ConfigError):
            TrainConfig(variant="bogus")
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="lr must be finite"):
            TrainConfig(lr=lr)
