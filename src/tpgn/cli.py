"""The ``tpgn`` command: train, eval, bench, gradcheck, synth.

Settings resolve in precedence order: built-in defaults, then the
--config file (flat ``key=value`` lines; ``#`` at the start of a line or
after whitespace starts a comment), then explicit command-line flags.
Every run writes its resolved manifest before any computation, and output
files are versioned (name.1.csv, name.2.csv, ...) rather than overwritten.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numeric
divergence.  Library log records (``tpgn.*``, INFO and up) go to stderr.
"""

# The thread cap must be in the environment before numpy initializes its
# BLAS backend, so this runs ahead of every other import.
import os

_threads = os.environ.get("TPGN_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import hashlib
import logging
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from . import training
from .bench import BenchScenario, sweep, versioned_path
from .errors import ConfigError, DataError, DivergenceError, TpgnError
from .model import (VARIANTS, TpgnParams, finite_diff_all_params)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4

_TRAIN_DEFAULTS = {
    "data": None, "target": None, "timestamp_column": "date",
    "lh": 168, "lf": 168, "period": 24, "dm": 32, "norm": 0, "scale": 1,
    "variant": "full", "seed": 2023, "out": "tpgn-out", "noise_eps": 0.0,
    "lr": 1e-3, "batch_size": 32, "max_epochs": 25, "patience": 5,
    "c_time": 4, "head_shared": 1,
}

_TYPES = {
    "lh": int, "lf": int, "period": int, "dm": int, "norm": int, "scale": int,
    "seed": int, "batch_size": int, "max_epochs": int, "patience": int,
    "c_time": int, "head_shared": int, "noise_eps": float, "lr": float,
    "data": str, "target": str, "timestamp_column": str, "variant": str,
    "out": str,
}


# a comment starts at "#" only at the start of a line or after whitespace,
# so values such as paths may contain "#"
_COMMENT = re.compile(r"(?:^|\s)#")


def _read_config_file(path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path} line {line_no}: expected key=value, got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _typed(key: str, value: str, source: str):
    try:
        return _TYPES[key](value)
    except ValueError:
        raise ConfigError(f"{source} key {key!r}: cannot parse {value!r} "
                          f"as {_TYPES[key].__name__}") from None


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < command-line flags, with typed validation."""
    resolved = dict(_TRAIN_DEFAULTS)
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key not in resolved:
                raise ConfigError(f"unknown config key {key!r}")
            resolved[key] = _typed(key, value, "config")
    for key in resolved:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    if resolved["norm"] not in (0, 1):
        raise ConfigError(f"norm must be 0 or 1, got {resolved['norm']}")
    if resolved["scale"] not in (0, 1):
        raise ConfigError(f"scale must be 0 or 1, got {resolved['scale']}")
    if resolved["head_shared"] not in (0, 1):
        raise ConfigError(f"head_shared must be 0 or 1, got {resolved['head_shared']}")
    if resolved["variant"] not in VARIANTS:
        raise ConfigError(f"variant must be one of {sorted(VARIANTS)}, "
                          f"got {resolved['variant']!r}")
    if not 0.0 <= resolved["noise_eps"] <= 1.0:
        raise ConfigError(f"noise_eps must be in [0, 1], got {resolved['noise_eps']}")
    return resolved


@dataclass
class RunManifest:
    """Resolved settings plus a content hash; written before any work."""

    settings: dict
    config_hash: str

    @classmethod
    def from_settings(cls, settings: dict) -> "RunManifest":
        lines = "\n".join(f"{k}={settings[k]}" for k in sorted(settings))
        digest = hashlib.sha256(lines.encode("utf-8")).hexdigest()
        return cls(settings=settings, config_hash=digest)

    def write(self, out_dir: Path) -> Path:
        path = versioned_path(out_dir / "manifest.txt")
        lines = [f"{k}={self.settings[k]}" for k in sorted(self.settings)]
        lines.append(f"config_hash={self.config_hash}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def _train_config(res: dict) -> training.TrainConfig:
    return training.TrainConfig(
        lr=res["lr"], batch_size=res["batch_size"], max_epochs=res["max_epochs"],
        patience=res["patience"], seed=res["seed"], d_m=res["dm"],
        norm=res["norm"], period=res["period"], l_h=res["lh"], l_f=res["lf"],
        variant=res["variant"])


def _load_windows(res: dict):
    if not res["data"]:
        raise ConfigError("--data (or a config-file `data` entry) is required")
    if not res["target"]:
        raise ConfigError("--target (or a config-file `target` entry) is required")
    series = data_mod.load_csv(res["data"], res["target"], res["timestamp_column"])
    series = data_mod.aggregate_hourly(series)
    if res["scale"]:
        # benchmark convention: z-score everything by train-split statistics
        # and report losses/metrics in those units
        series, _, _ = data_mod.standardize_series(series)
    spec = data_mod.SplitSpec(l_h=res["lh"], l_f=res["lf"])
    return data_mod.split_and_window(series, spec)


def _write_metrics(out_dir: Path, metrics: dict[str, float]) -> Path:
    path = versioned_path(out_dir / "metrics.csv")
    path.write_text(f"mse,mae\n{metrics['mse']!r},{metrics['mae']!r}\n",
                    encoding="utf-8")
    return path


def _write_predictions(out_dir: Path, window, preds) -> Path:
    path = versioned_path(out_dir / "predictions.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,truth,prediction\n")
        times = window.y_times or ["" for _ in range(window.l_f)]
        for ts, t, p in zip(times, window.y_true, preds):
            stamp = ts.strftime("%Y-%m-%d %H:%M:%S") if ts else ""
            fh.write(f"{stamp},{t!r},{p!r}\n")
    return path


def cmd_train(args) -> int:
    res = _resolve(args)
    cfg = _train_config(res)
    out_dir = Path(res["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.from_settings(res)
    manifest_path = manifest.write(out_dir)
    print(f"manifest: {manifest_path} (hash {manifest.config_hash[:12]})")

    train_w, val_w, test_w = _load_windows(res)
    if res["noise_eps"] > 0.0:
        spec = data_mod.NoiseSpec(epsilon=res["noise_eps"], rng_seed=res["seed"])
        train_w = data_mod.apply_noise(train_w, spec)
    params = TpgnParams.init(cfg.l_h, cfg.l_f, cfg.period, res["c_time"], cfg.d_m,
                             np.random.default_rng(cfg.seed), VARIANTS[cfg.variant],
                             head_shared=bool(res["head_shared"]))
    extra = {"noise_eps": str(res["noise_eps"]), "target": str(res["target"]),
             "scale": str(res["scale"]), "config_hash": manifest.config_hash}
    try:
        ckpt, log = training.fit(params, train_w, val_w, cfg, extra_config=extra)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.checkpoint is not None:
            ck_path = versioned_path(out_dir / "checkpoint.tpgn")
            exc.checkpoint.save(ck_path)
            print(f"last good checkpoint: {ck_path}", file=sys.stderr)
        if exc.log:
            training.write_epoch_log(versioned_path(out_dir / "epoch_log.csv"), exc.log)
        return EXIT_DIVERGED

    ck_path = versioned_path(out_dir / "checkpoint.tpgn")
    ckpt.save(ck_path)
    log_path = versioned_path(out_dir / "epoch_log.csv")
    training.write_epoch_log(log_path, log)
    metrics = training.evaluate(ckpt, test_w)
    metrics_path = _write_metrics(out_dir, metrics)
    eval_params, eval_cfg = training.params_from_checkpoint(ckpt)
    first_preds = training.predict_windows(eval_params, test_w[:1],
                                           eval_cfg.model_config())[0]
    pred_path = _write_predictions(out_dir, test_w[0], first_preds)
    print(f"checkpoint: {ck_path}")
    print(f"epoch log: {log_path}")
    print(f"predictions: {pred_path}")
    print(f"metrics: {metrics_path}")
    print(f"test mse={metrics['mse']:.6f} mae={metrics['mae']:.6f} "
          f"(best val {ckpt.best_val_loss:.6f} at epoch {ckpt.epoch})")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = training.Checkpoint.load(args.checkpoint)
    _, cfg = training.params_from_checkpoint(ckpt)  # rejects a bad echo up front
    res = dict(_TRAIN_DEFAULTS)
    res.update({k: _typed(k, v, "checkpoint config")
                for k, v in ckpt.config.items() if k in _TYPES})
    for key in ("data", "target", "timestamp_column", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            res[key] = flag
    # window geometry always comes from the checkpoint echo
    res["lh"], res["lf"] = cfg.l_h, cfg.l_f
    _, _, test_w = _load_windows(res)
    metrics = training.evaluate(ckpt, test_w)
    out_dir = Path(res["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = _write_metrics(out_dir, metrics)
    print(f"metrics: {metrics_path}")
    print(f"test mse={metrics['mse']:.6f} mae={metrics['mae']:.6f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.quick:
        out_lengths, in_lengths = [48, 96], [48, 96]
        fixed_in, fixed_out = 48, 96
    else:
        out_lengths, in_lengths = [168, 336, 720, 1440], [168, 336, 720, 1440]
        fixed_in, fixed_out = 168, 1440
    scenarios = []
    for model in models:
        for l_f in out_lengths:
            scenarios.append(BenchScenario(model, l_h=fixed_in, l_f=l_f,
                                           d_m=args.dm, batch=args.batch,
                                           repeat=args.repeat, warmup=args.warmup,
                                           period=args.period, seed=args.seed))
        for l_h in in_lengths:
            if l_h == fixed_in:
                continue
            scenarios.append(BenchScenario(model, l_h=l_h, l_f=fixed_out,
                                           d_m=args.dm, batch=args.batch,
                                           repeat=args.repeat, warmup=args.warmup,
                                           period=args.period, seed=args.seed))
    records, path = sweep(scenarios, out_dir / "bench.csv")
    for r in records:
        s = r.scenario
        if r.ok:
            print(f"{s.model} L_h={s.l_h} L_f={s.l_f}: step {r.time_ms_median:.1f} ms, "
                  f"forward {r.forward_ms_median:.1f} ms, peak {r.peak_bytes} B, "
                  f"depth {r.graph_depth}")
        else:
            print(f"{s.model} L_h={s.l_h} L_f={s.l_f}: FAILED ({r.error})")
    print(f"report: {path}")
    return EXIT_OK


def _op_gradient_suite(seed: int = 0) -> dict[str, float]:
    """Finite-difference check of every differentiable primitive."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (4, 3))
    m = rng.uniform(-1.0, 1.0, (3, 5))
    w = rng.uniform(-1.0, 1.0, (2, 3))
    b = rng.uniform(-1.0, 1.0, 2)
    other = rng.uniform(-1.0, 1.0, (4, 3))
    # weights multiplying shape-changing results must be drawn once: the
    # probe function is evaluated many times and has to stay deterministic
    c_resh = rng.uniform(-1, 1, (2, 6))
    c_perm = rng.uniform(-1, 1, (3, 4))
    c_win = rng.uniform(-1, 1, (6, 4))
    c_rep = rng.uniform(-1, 1, (12, 3))
    cases = {
        "matmul": lambda t: ad.reduce_sum(ad.matmul(t, ad.constant(m))),
        "add": lambda t: ad.reduce_sum(ad.add(t, ad.constant(other))),
        "sub": lambda t: ad.reduce_sum(ad.sub(ad.constant(other), t)),
        "mul": lambda t: ad.reduce_sum(ad.mul(t, ad.constant(other))),
        "sigmoid": lambda t: ad.reduce_sum(ad.sigmoid(t)),
        "tanh": lambda t: ad.reduce_sum(ad.tanh(t)),
        "concat": lambda t: ad.reduce_sum(ad.concat([t, ad.constant(other)], axis=1)),
        "reduce_sum": lambda t: ad.reduce_sum(ad.reduce_sum(t, axis=1)),
        "reduce_mean": lambda t: ad.reduce_sum(ad.reduce_mean(t, axis=0)),
        "reshape": lambda t: ad.reduce_sum(ad.mul(ad.reshape(t, (2, 6)),
                                                  ad.constant(c_resh))),
        "permute": lambda t: ad.reduce_sum(ad.mul(ad.permute(t, (1, 0)),
                                                  ad.constant(c_perm))),
        "slice_rows": lambda t: ad.reduce_sum(ad.slice_rows(t, 1, 3)),
        "causal_windows": lambda t: ad.reduce_sum(
            ad.mul(ad.causal_windows(ad.reshape(t, (2, 3, 2))), ad.constant(c_win))),
        "linear": lambda t: ad.reduce_sum(ad.linear(t, ad.constant(w), ad.constant(b))),
        "lerp": lambda t: ad.reduce_sum(ad.lerp(ad.sigmoid(t), t, ad.constant(other))),
        "repeat_rows": lambda t: ad.reduce_sum(
            ad.mul(ad.repeat_rows(t, 3), ad.constant(c_rep))),
    }
    return {name: ad.finite_diff_check(f, x) for name, f in cases.items()}


def cmd_gradcheck(args) -> int:
    from .model import SeriesWindow, TpgnConfig

    tol = 1e-5
    op_errors = _op_gradient_suite(args.seed)
    rng = np.random.default_rng(args.seed)
    params = TpgnParams.init(args.lh, args.lf, args.period, args.c_time, args.dm,
                             rng, VARIANTS[args.variant])
    window = SeriesWindow(x_1d=rng.uniform(-1, 1, args.lh),
                          tf_enc=rng.uniform(-0.5, 0.5, (args.lh, args.c_time)),
                          y_true=rng.uniform(-1, 1, args.lf))
    cfg = TpgnConfig(norm=args.norm, period=args.period, variant=VARIANTS[args.variant])
    param_errors = finite_diff_all_params(window, params, cfg)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = versioned_path(out_dir / "gradcheck.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,name,max_rel_error\n")
        for name, err in op_errors.items():
            fh.write(f"op,{name},{err!r}\n")
        for name, err in param_errors.items():
            fh.write(f"param,{name},{err!r}\n")
    worst = max(max(op_errors.values()), max(param_errors.values()))
    for name, err in sorted(op_errors.items()):
        print(f"op      {name:16s} {err:.3e}")
    for name, err in sorted(param_errors.items()):
        print(f"param   {name:16s} {err:.3e}")
    print(f"report: {path}")
    print(f"max relative error {worst:.3e} (tolerance {tol:.0e})")
    return EXIT_OK if worst < tol else 1


def cmd_synth(args) -> int:
    series = data_mod.synthetic_sinusoid(
        args.hours, period=args.period, amplitude=args.amplitude, mean=args.mean,
        phase_drift=args.drift, noise=args.noise, seed=args.seed)
    path = versioned_path(Path(args.out))
    path.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_csv(series, path)
    print(f"wrote {len(series)} hourly points to {path} (target column 'value')")
    return EXIT_OK


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value settings file")
    p.add_argument("--data", help="dataset CSV path")
    p.add_argument("--target", help="value column to forecast")
    p.add_argument("--timestamp-column", dest="timestamp_column")
    p.add_argument("--lh", type=int, help="history length (default 168)")
    p.add_argument("--lf", type=int, help="horizon length (default 168)")
    p.add_argument("--period", type=int, help="period length (default 24)")
    p.add_argument("--dm", type=int, help="hidden size (default 32)")
    p.add_argument("--norm", type=int, choices=(0, 1), help="per-window normalization")
    p.add_argument("--scale", type=int, choices=(0, 1),
                   help="z-score the series by train-split statistics (default 1)")
    p.add_argument("--head-shared", dest="head_shared", type=int, choices=(0, 1),
                   help="share forecast-head weights across phase columns (default 1)")
    p.add_argument("--variant", choices=sorted(VARIANTS), help="model variant")
    p.add_argument("--seed", type=int, help="run seed (default 2023)")
    p.add_argument("--out", help="output directory (default tpgn-out)")
    p.add_argument("--noise-eps", dest="noise_eps", type=float,
                   help="fraction of training history points to perturb")
    p.add_argument("--lr", type=float, help="learning rate (default 1e-3)")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--c-time", dest="c_time", type=int,
                   help="number of calendar feature channels (default 4)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpgn",
        description="Train, evaluate and benchmark the two-branch forecaster.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a CSV dataset")
    _add_train_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on the test split")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--target")
    p_eval.add_argument("--timestamp-column", dest="timestamp_column")
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="efficiency sweeps on synthetic data")
    p_bench.add_argument("--models", default="TPGN,PGN-raw,GRU-seq,LSTM-seq")
    p_bench.add_argument("--out", default="tpgn-out")
    p_bench.add_argument("--dm", type=int, default=128)
    p_bench.add_argument("--batch", type=int, default=32)
    p_bench.add_argument("--repeat", type=int, default=5)
    p_bench.add_argument("--warmup", type=int, default=2)
    p_bench.add_argument("--period", type=int, default=24)
    p_bench.add_argument("--seed", type=int, default=2023)
    p_bench.add_argument("--quick", action="store_true",
                         help="small lengths for a fast smoke run")
    p_bench.set_defaults(func=cmd_bench)

    p_grad = sub.add_parser("gradcheck", help="finite-difference verification")
    p_grad.add_argument("--lh", type=int, default=8)
    p_grad.add_argument("--lf", type=int, default=8)
    p_grad.add_argument("--period", type=int, default=4)
    p_grad.add_argument("--dm", type=int, default=2)
    p_grad.add_argument("--c-time", dest="c_time", type=int, default=1)
    p_grad.add_argument("--norm", type=int, choices=(0, 1), default=1)
    p_grad.add_argument("--variant", choices=sorted(VARIANTS), default="full")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--out", default="tpgn-out")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate the sinusoid benchmark CSV")
    p_synth.add_argument("--out", default="synth.csv")
    p_synth.add_argument("--hours", type=int, default=2200)
    p_synth.add_argument("--period", type=float, default=24.0)
    p_synth.add_argument("--amplitude", type=float, default=1.0)
    p_synth.add_argument("--mean", type=float, default=0.0)
    p_synth.add_argument("--drift", type=float, default=0.0,
                         help="phase drift in radians per hour")
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def _route_library_logs() -> None:
    """Send ``tpgn.*`` INFO records to the current stderr.

    The handler is replaced on every call, so an in-process caller whose
    stderr changed between calls never writes to a stale stream.
    """
    lib = logging.getLogger("tpgn")
    for old in [h for h in lib.handlers if h.get_name() == "tpgn-cli"]:
        lib.removeHandler(old)
    handler = logging.StreamHandler(sys.stderr)
    handler.set_name("tpgn-cli")
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    lib.addHandler(handler)
    lib.setLevel(logging.INFO)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _route_library_logs()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except TpgnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
