"""The three benchmark workloads, driven only through public ``tpgn`` calls.

Each workload has a set-up (inputs made from the seed, repeated so its
time can be reported as a median), an iteration that the run repeats
until the time is up, and correctness checks.  Calls go through module
attributes (``training.fit``, ``model.tpgn_forward_batch``, ...) so the
traced run's wrappers see them.  The loop is closed: each call waits for
the previous one, one process, no concurrency.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

import tpgn.autodiff as ad
import tpgn.data as data
import tpgn.model as model
import tpgn.training as training
from tpgn.errors import TpgnError

SETUP_REPEATS = 9
MiB = 1024.0 * 1024.0


class Run:
    """Samples, operation counts and check outcomes of one workload run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, tuple[bool, str]] = {}

    def op(self, label: str, fn, *args, count: int = 1, **kwargs):
        """Call ``fn``; a library error or MemoryError is counted, not raised.

        ``count`` is the number of operations the call stands for (windows
        predicted, steps taken).  Returns None when the call failed.
        """
        self.attempted += count
        try:
            return fn(*args, **kwargs)
        except (TpgnError, MemoryError) as exc:
            self.failed += count
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        previous = self.checks.get(name)
        if previous is None or previous[0]:
            self.checks[name] = (bool(ok), detail)

    @property
    def checks_ok(self) -> bool:
        return all(ok for ok, _ in self.checks.values())


def _csv_ingest(path: Path):
    """The ``tpgn train``/``tpgn eval`` ingest: load, hourly, z-score."""
    series = data.aggregate_hourly(data.load_csv(path, "value"))
    return data.standardize_series(series)[0]


def _loss_of(preds, windows):
    targets = np.stack([w.y_true for w in windows])
    diff = ad.sub(preds, ad.constant(targets))
    return ad.reduce_mean(ad.mul(diff, diff))


def train_step(params, mcfg, windows, state, lr):
    """One optimizer step from the public calls ``fit`` makes.

    Returns (forward seconds, step seconds, graph, loss value, grads).
    ``state`` None skips the Adam update (used for identical repeats).
    """
    t0 = time.perf_counter()
    graph = ad.Graph()
    leaves = params.leaf_into(graph)
    preds = model.tpgn_forward_batch(windows, params, mcfg, weights=leaves)
    loss = _loss_of(preds, windows)
    loss_value = loss.item()
    t1 = time.perf_counter()
    grad_map = ad.backward(loss)
    arrays = params.named_arrays()
    grads = {name: grad_map[leaves[name]] for name in arrays}
    if state is not None:
        training.adam_step(arrays, grads, state, lr)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t0, graph, loss_value, grads


def _tape_peaks(step, repeats: int = 3) -> list[float]:
    """Graph.peak_bytes (MiB) of ``repeats`` identical steps, as reported."""
    return [step()[2].peak_bytes / MiB for _ in range(repeats)]


def _tracemalloc_peak(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MiB
    finally:
        tracemalloc.stop()


def _max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------------------
# train_protocol

class TrainProtocol:
    """``fit`` at the paper protocol plus standalone optimizer steps.

    168 -> 168 hours, P = 24, d_m = 32, batch 32, Adam lr 1e-3, on a
    2,200-hour noisy sinusoid ingested through a CSV.  ``patience`` equals
    ``max_epochs`` so every fit does the same work.
    """

    name = "train_protocol"
    # sample series behind step_ms_p50, fwd_ms_p50 and job_s
    slots = {"step": "train_step_ms", "fwd": "train_fwd_ms", "job": "fit_s"}
    figures = (("train_step_ms", "ms"), ("fit_s", "s"))
    hours = 2200
    epochs = 8
    steps_per_iteration = 100

    def __init__(self, seed: int, workdir: Path, run: Run):
        self.seed, self.workdir, self.run = seed, workdir, run
        self.csv = workdir / "train_protocol.csv"

    def setup(self):
        series = data.synthetic_sinusoid(self.hours, period=24.0, noise=0.03,
                                         seed=self.seed)
        data.save_csv(series, self.csv)
        train_w, val_w, _ = data.split_and_window(
            _csv_ingest(self.csv), data.SplitSpec(l_h=168, l_f=168))
        cfg = training.TrainConfig(max_epochs=self.epochs, patience=self.epochs,
                                   seed=self.seed)
        self.train_w, self.val_w, self.cfg = train_w, val_w, cfg
        self.mcfg = cfg.model_config()
        self.step_params = self._fresh_params()
        self.step_state = training.AdamState.init(self.step_params.named_arrays())
        order = np.random.default_rng(self.seed).permutation(len(train_w))
        bs = cfg.batch_size
        self.batches = [[train_w[i] for i in order[lo:lo + bs]]
                        for lo in range(0, len(order) - bs + 1, bs)]
        self.next_batch = 0

    def _fresh_params(self):
        return model.TpgnParams.init(168, 168, 24, 4, self.cfg.d_m,
                                     np.random.default_rng(self.cfg.seed),
                                     model.VARIANTS[self.cfg.variant])

    def _fit(self):
        """(checkpoint, log, seconds) of one fit from fresh weights, or None."""
        params = self._fresh_params()
        t0 = time.perf_counter()
        out = self.run.op("fit", training.fit, params, self.train_w, self.val_w,
                          self.cfg)
        return None if out is None else (*out, time.perf_counter() - t0)

    def warmup(self):
        out = self._fit()
        self.reference = None if out is None else [
            (r.train_loss, r.val_loss) for r in out[1]]
        for _ in range(3):
            self._step()

    def _step(self):
        batch = self.batches[self.next_batch % len(self.batches)]
        self.next_batch += 1
        out = self.run.op("train_step", train_step, self.step_params, self.mcfg,
                          batch, self.step_state, self.cfg.lr)
        if out is not None:
            self.run.check("step_loss_finite", np.isfinite(out[3]),
                           f"loss {out[3]!r}")
        return out

    def iteration(self):
        out = self._fit()
        if out is not None:
            ckpt, log, fit_s = out
            self.run.samples["fit_s"].append(fit_s)
            losses = [(r.train_loss, r.val_loss) for r in log]
            self.run.check("fit_bitwise_repeatable", losses == self.reference,
                           "epoch losses equal the warm-up fit's"
                           if losses == self.reference else
                           f"epoch losses {losses} differ from {self.reference}")
            self.run.check("fit_best_val_mse", ckpt.best_val_loss < 1e-2,
                           f"best val MSE {ckpt.best_val_loss:.6g} (limit 1e-2)")
        for _ in range(self.steps_per_iteration):
            step = self._step()
            if step is not None:
                self.run.samples["train_step_ms"].append(step[1] * 1e3)
                self.run.samples["train_fwd_ms"].append(step[0] * 1e3)

    def final_checks(self):
        if self.reference is None:
            self.run.check("fit_bitwise_repeatable", False, "warm-up fit failed")

    def extra_probes(self):
        batch = self.batches[0]
        one = lambda: train_step(self.step_params, self.mcfg, batch, None, 0.0)
        return {"tape_mb": _tape_peaks(one), "tracemalloc_mb": _tracemalloc_peak(one)}


# ---------------------------------------------------------------------------
# forecast_eval

class ForecastEval:
    """The ``tpgn eval`` path without file writes, on an ETTh1-length CSV.

    Checkpoint.load -> load_csv -> aggregate_hourly -> standardize_series ->
    split_and_window -> evaluate, then predict_windows over val+test and
    untracked 32-window forwards.  No tape is recorded, backward never runs.
    """

    name = "forecast_eval"
    slots = {"step": "predict_ms", "fwd": "forward32_ms", "job": "eval_s"}
    figures = (("eval_s", "s"), ("predict_windows_per_s", "1/s"))
    hours = 17420
    forwards_per_iteration = 16
    sample_windows = 16

    def __init__(self, seed: int, workdir: Path, run: Run):
        self.seed, self.workdir, self.run = seed, workdir, run
        self.csv = workdir / "forecast_eval.csv"
        self.ckpt_path = workdir / "forecast_eval.tpgn"

    def setup(self):
        series = data.synthetic_sinusoid(self.hours, period=24.0, noise=0.05,
                                         seed=self.seed)
        data.save_csv(series, self.csv)
        cfg = training.TrainConfig(seed=self.seed)
        params = model.TpgnParams.init(cfg.l_h, cfg.l_f, cfg.period, 4, cfg.d_m,
                                       np.random.default_rng(cfg.seed),
                                       model.VARIANTS[cfg.variant])
        echo = cfg.as_dict()
        echo.update({"c_time": "4", "head_shared": "1", "scale": "1"})
        training.Checkpoint(tensors={k: a.copy() for k, a in params.named_arrays().items()},
                            config=echo, best_val_loss=float("inf"),
                            epoch=0).save(self.ckpt_path)

    def _eval_path(self):
        ckpt = training.Checkpoint.load(self.ckpt_path)
        series = _csv_ingest(self.csv)
        _, val_w, test_w = data.split_and_window(
            series, data.SplitSpec(l_h=int(ckpt.config["l_h"]),
                                   l_f=int(ckpt.config["l_f"])))
        metrics = training.evaluate(ckpt, test_w)
        return ckpt, val_w, test_w, metrics

    def warmup(self):
        self.iteration(record=False)

    def iteration(self, record: bool = True):
        run = self.run
        t0 = time.perf_counter()
        out = run.op("eval_path", self._eval_path)
        eval_s = time.perf_counter() - t0
        if out is None:
            return
        ckpt, val_w, test_w, metrics = out
        params, cfg = training.params_from_checkpoint(ckpt)
        mcfg = cfg.model_config()
        windows = val_w + test_w
        t0 = time.perf_counter()
        preds = run.op("predict_windows", training.predict_windows, params,
                       windows, mcfg, count=len(windows))
        predict_s = time.perf_counter() - t0
        fwd_ms = []
        for k in range(self.forwards_per_iteration):
            lo = (k * 197) % (len(windows) - 32)
            batch = windows[lo:lo + 32]
            t1 = time.perf_counter()
            res = run.op("forward_batch", model.tpgn_forward_batch, batch, params,
                         mcfg, count=len(batch))
            if res is not None:
                fwd_ms.append((time.perf_counter() - t1) * 1e3)
        if preds is None:
            return
        targets = np.stack([w.y_true for w in test_w])
        mse = training.mse(preds[len(val_w):], targets)
        rel = abs(mse - metrics["mse"]) / max(abs(metrics["mse"]), 1e-300)
        run.check("evaluate_mse_matches_predict", rel <= 1e-12,
                  f"evaluate {metrics['mse']!r} vs recomputed {mse!r} (rel {rel:.2e})")
        self.last = (params, mcfg, windows, preds)
        if record:
            run.samples["eval_s"].append(eval_s)
            run.samples["predict_ms"].append(predict_s * 1e3)
            run.samples["predict_windows_per_s"].append(len(windows) / predict_s)
            run.samples["forward32_ms"].extend(fwd_ms)

    def final_checks(self):
        if not hasattr(self, "last"):
            self.run.check("batched_matches_single", False, "no prediction completed")
            return
        params, mcfg, windows, preds = self.last
        picks = np.linspace(0, len(windows) - 1, self.sample_windows).astype(int)
        worst = 0.0
        for i in picks:
            single = model.tpgn_forward(windows[i], params, mcfg).data
            worst = max(worst, _max_abs_diff(single, preds[i]))
        self.run.check("batched_matches_single", worst <= 1e-12,
                       f"max |batched - single| {worst:.3e} over {len(picks)} windows")

    def extra_probes(self):
        params, mcfg, windows, _ = self.last
        one = lambda: training.predict_windows(params, windows[:512], mcfg)
        return {"tape_mb": [0.0, 0.0, 0.0], "tracemalloc_mb": _tracemalloc_peak(one)}


# ---------------------------------------------------------------------------
# long_history

class LongHistory:
    """Training steps at 1440 -> 720, P = 24, d_m = 128, batch 32.

    Each iteration takes one step of the ``full`` variant (gated-cell long
    branch) and one of the ``gru`` variant, on the same batch.
    """

    name = "long_history"
    slots = {"step": "long_step_ms", "fwd": "long_fwd_ms", "job": "round_s"}
    figures = (("long_step_ms", "ms"), ("long_fwd_ms", "ms"), ("long_gru_step_ms", "ms"))
    l_h, l_f, d_m, batch = 1440, 720, 128, 32
    lr = 1e-3

    def __init__(self, seed: int, workdir: Path, run: Run):
        self.seed, self.workdir, self.run = seed, workdir, run
        self.csv = workdir / "long_history.csv"

    def setup(self):
        hours = self.l_h + self.l_f + 2 * self.batch - 1
        series = data.synthetic_sinusoid(hours, period=24.0, noise=0.05,
                                         seed=self.seed)
        data.save_csv(series, self.csv)
        series = _csv_ingest(self.csv)
        windows = data.windows_of(series.values, self.l_h, self.l_f,
                                  data.make_time_features(series.timestamps))
        self.batches = [windows[:self.batch], windows[self.batch:2 * self.batch]]
        self.models = {}
        for k, variant in enumerate(("full", "gru")):
            params = model.TpgnParams.init(
                self.l_h, self.l_f, 24, 4, self.d_m,
                np.random.default_rng(self.seed + k), model.VARIANTS[variant])
            self.models[variant] = (params, model.TpgnConfig(
                norm=0, period=24, variant=model.VARIANTS[variant]),
                training.AdamState.init(params.named_arrays()))
        self.turn = 0

    def _step(self, variant: str):
        params, mcfg, state = self.models[variant]
        batch = self.batches[self.turn % 2]
        out = self.run.op(f"{variant}_step", train_step, params, mcfg, batch,
                          state, self.lr)
        if out is None:
            return None
        fwd_s, step_s, _, loss, grads = out
        finite = np.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads.values())
        self.run.check(f"{variant}_loss_and_grads_finite", finite, f"loss {loss!r}")
        return fwd_s, step_s   # the tape is dropped before the next step

    def warmup(self):
        for variant in ("full", "gru"):
            self._step(variant)

    def iteration(self):
        full = self._step("full")
        gru = self._step("gru")
        self.turn += 1
        if full is not None:
            self.run.samples["long_step_ms"].append(full[1] * 1e3)
            self.run.samples["long_fwd_ms"].append(full[0] * 1e3)
        if gru is not None:
            self.run.samples["long_gru_step_ms"].append(gru[1] * 1e3)
        if full is not None and gru is not None:
            self.run.samples["round_s"].append(full[1] + gru[1])

    def final_checks(self):
        windows = self.batches[0][:3]
        for variant, (params, mcfg, _) in self.models.items():
            batched = model.tpgn_forward_batch(windows, params, mcfg).data
            worst = max(_max_abs_diff(model.tpgn_forward(w, params, mcfg).data, row)
                        for w, row in zip(windows, batched))
            self.run.check(f"{variant}_batched_matches_single", worst <= 1e-12,
                           f"max |batched - single| {worst:.3e} over {len(windows)} windows")

    def extra_probes(self):
        params, mcfg, _ = self.models["full"]
        one = lambda: train_step(params, mcfg, self.batches[0], None, 0.0)
        return {"tape_mb": _tape_peaks(one), "tracemalloc_mb": _tracemalloc_peak(one)}


WORKLOADS = {w.name: w for w in (TrainProtocol, ForecastEval, LongHistory)}

