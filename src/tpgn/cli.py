"""The ``tpgn`` command: train, eval, bench, gradcheck, synth.

``tpgn train`` settings come from one table: the fields of
:class:`training.TrainConfig` (``l_h``, ``l_f`` and ``d_m`` spelled ``lh``,
``lf`` and ``dm``) plus the run-only settings; a setting parses as the
type of its default (:func:`training.parse_setting`).  They resolve in
precedence order: those defaults, then the --config file (flat
``key=value`` lines; ``#`` at the start of a line or after whitespace
starts a comment), then explicit command-line flags.  The
calendar-channel count is read off the data, and ``tpgn eval`` takes the
target, scaling and timestamp column from the checkpoint echo unless a
flag overrides them.  ``tpgn bench`` defaults are
:class:`bench.BenchScenario`'s.
Every run writes its resolved manifest before any computation, and output
files are versioned (name.1.csv, name.2.csv, ...) rather than overwritten.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numeric
divergence.  Library log records (``tpgn.*``, INFO and up) go to stderr.
"""

import argparse
import hashlib
import logging
import re
import sys
from dataclasses import fields
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

# TrainConfig fields the command line spells differently
_CLI_NAME = {"l_h": "lh", "l_f": "lf", "d_m": "dm"}
_CONFIG_FIELDS = {_CLI_NAME.get(f.name, f.name): f for f in fields(training.TrainConfig)}

# every `tpgn train` setting under its command-line name: TrainConfig's
# fields with their defaults, then the run-only settings
_TRAIN_DEFAULTS = {
    **{key: f.default for key, f in _CONFIG_FIELDS.items()},
    "data": None, "target": None, "timestamp_column": "date", "out": "tpgn-out",
    "noise_eps": 0.0, "scale": 1, "head_shared": 1,
}
# the type each setting parses as: its default's, str when that is None
_TRAIN_KINDS = {key: str if d is None else type(d) for key, d in _TRAIN_DEFAULTS.items()}


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


def _resolve(args: argparse.Namespace) -> dict:
    """defaults < config file < command-line flags, with typed validation."""
    resolved = dict(_TRAIN_DEFAULTS)
    if args.config:
        settings = _read_config_file(args.config)
        for key in settings:
            if key not in resolved:
                raise ConfigError(f"unknown config key {key!r}")
            resolved[key] = training.parse_setting(settings, key, _TRAIN_KINDS[key],
                                                   f"config file {args.config}")
    for key in resolved:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    if resolved["scale"] not in (0, 1):
        raise ConfigError(f"scale must be 0 or 1, got {resolved['scale']}")
    if resolved["head_shared"] not in (0, 1):
        raise ConfigError(f"head_shared must be 0 or 1, got {resolved['head_shared']}")
    if not 0.0 <= resolved["noise_eps"] <= 1.0:
        raise ConfigError(f"noise_eps must be in [0, 1], got {resolved['noise_eps']}")
    return resolved


def _write_manifest(out_dir: Path, settings: dict) -> tuple[Path, str]:
    """Write the resolved settings and their sha256 to a versioned
    ``manifest.txt``; returns its path and the hash."""
    lines = [f"{k}={settings[k]}" for k in sorted(settings)]
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    path = versioned_path(out_dir / "manifest.txt")
    path.write_text("\n".join([*lines, f"config_hash={digest}"]) + "\n", encoding="utf-8")
    return path, digest


def _load_windows(res: dict):
    """The run's series and its (train, validation, test) windows."""
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
    return series, data_mod.split_and_window(series, spec)


def _write_metrics(out_dir: Path, metrics: dict[str, float]) -> Path:
    path = versioned_path(out_dir / "metrics.csv")
    path.write_text(f"mse,mae\n{metrics['mse']!r},{metrics['mae']!r}\n",
                    encoding="utf-8")
    return path


def _write_predictions(out_dir: Path, stamps, truth, preds) -> Path:
    path = versioned_path(out_dir / "predictions.csv")
    # plain floats: a numpy scalar's repr is np.float64(...) under numpy 2
    rows = [f"{ts},{float(t)!r},{float(p)!r}\n"
            for ts, t, p in zip(data_mod.format_stamps(stamps), truth, preds)]
    path.write_text("timestamp,truth,prediction\n" + "".join(rows), encoding="utf-8")
    return path


def cmd_train(args) -> int:
    res = _resolve(args)
    # TrainConfig validates norm, variant and the sizes before any file is written
    cfg = training.TrainConfig(**{f.name: res[key] for key, f in _CONFIG_FIELDS.items()})
    out_dir = Path(res["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path, config_hash = _write_manifest(out_dir, res)
    print(f"manifest: {manifest_path} (hash {config_hash[:12]})")

    series, (train_w, val_w, test_w) = _load_windows(res)
    train_w = data_mod.apply_noise(train_w, res["noise_eps"], res["seed"])
    params = TpgnParams.init(cfg.l_h, cfg.l_f, cfg.period, train_w[0].c_time, cfg.d_m,
                             np.random.default_rng(cfg.seed), VARIANTS[cfg.variant],
                             head_shared=bool(res["head_shared"]))
    extra = {"noise_eps": str(res["noise_eps"]), "target": str(res["target"]),
             "scale": str(res["scale"]), "timestamp_column": res["timestamp_column"],
             "config_hash": config_hash}
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
    # the first test window's horizon starts after its history
    n_train, n_val, _ = data_mod.split_points(len(series))
    start = n_train + n_val + cfg.l_h
    pred_path = _write_predictions(out_dir, series.timestamps[start:start + cfg.l_f],
                                   test_w[0].y_true, first_preds)
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
    # the run-only settings that locate the data; echoes that predate
    # timestamp_column fall back to its default
    res.update({k: training.parse_setting(ckpt.config, k, _TRAIN_KINDS[k],
                                          "checkpoint config")
                for k in ("target", "scale", "timestamp_column") if k in ckpt.config})
    for key in ("data", "target", "timestamp_column", "out"):
        flag = getattr(args, key, None)
        if flag is not None:
            res[key] = flag
    # window geometry always comes from the checkpoint echo
    res["lh"], res["lf"] = cfg.l_h, cfg.l_f
    _, (_, _, test_w) = _load_windows(res)
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
    shared = dict(d_m=args.dm, batch=args.batch, repeat=args.repeat,
                  warmup=args.warmup, period=args.period, seed=args.seed)
    scenarios = []
    for model in models:
        for l_f in out_lengths:
            scenarios.append(BenchScenario(model, l_h=fixed_in, l_f=l_f, **shared))
        for l_h in in_lengths:
            if l_h == fixed_in:
                continue
            scenarios.append(BenchScenario(model, l_h=l_h, l_f=fixed_out, **shared))
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
    """Finite-difference check of every differentiable primitive.

    A case named ``op.operand`` differentiates that operand alone with the
    others constant; every operand position of every op is checked once.
    """
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
    c_hie_w = rng.uniform(-1, 1, (3, 4))
    c_hie_b = rng.uniform(-1, 1, 3)
    c_hie = rng.uniform(-1, 1, (6, 3))
    c_rep = rng.uniform(-1, 1, (12, 3))
    c_lin = rng.uniform(-1, 1, (4, 2))
    c_cat = rng.uniform(-1, 1, (8, 3))
    c_stack = rng.uniform(-1, 1, (2, 2, 2))
    cx, cm, cw, cb, co = (ad.constant(v) for v in (x, m, w, b, other))
    cases = {
        "matmul": (lambda t: ad.reduce_sum(ad.matmul(t, cm)), x),
        "matmul.b": (lambda t: ad.reduce_sum(ad.matmul(cx, t)), m),
        "add": (lambda t: ad.reduce_sum(ad.add(t, co)), x),
        "add.b": (lambda t: ad.reduce_sum(ad.add(co, t)), x),
        "sub": (lambda t: ad.reduce_sum(ad.sub(co, t)), x),
        "sub.a": (lambda t: ad.reduce_sum(ad.sub(t, co)), x),
        "mul": (lambda t: ad.reduce_sum(ad.mul(t, co)), x),
        "mul.b": (lambda t: ad.reduce_sum(ad.mul(co, t)), x),
        "sigmoid": (lambda t: ad.reduce_sum(ad.sigmoid(t)), x),
        "tanh": (lambda t: ad.reduce_sum(ad.tanh(t)), x),
        "concat": (lambda t: ad.reduce_sum(ad.concat([t, co], axis=1)), x),
        "concat.b": (lambda t: ad.reduce_sum(ad.mul(ad.concat([co, t], axis=0),
                                                    ad.constant(c_cat))), x),
        "reduce_sum": (lambda t: ad.reduce_sum(ad.reduce_sum(t, axis=1)), x),
        "reduce_mean": (lambda t: ad.reduce_sum(ad.reduce_mean(t, axis=0)), x),
        "reshape": (lambda t: ad.reduce_sum(ad.mul(ad.reshape(t, (2, 6)),
                                                   ad.constant(c_resh))), x),
        "permute": (lambda t: ad.reduce_sum(ad.mul(ad.permute(t, (1, 0)),
                                                   ad.constant(c_perm))), x),
        "slice_rows": (lambda t: ad.reduce_sum(ad.slice_rows(t, 1, 3)), x),
        "causal_linear": (lambda t: ad.reduce_sum(ad.mul(ad.causal_linear(
            ad.reshape(t, (2, 3, 2)), ad.constant(c_hie_w), ad.constant(c_hie_b)),
            ad.constant(c_hie))), x),
        "causal_linear.w": (lambda t: ad.reduce_sum(ad.mul(ad.causal_linear(
            ad.reshape(cx, (2, 3, 2)), t, ad.constant(c_hie_b)), ad.constant(c_hie))),
            c_hie_w),
        "causal_linear.b": (lambda t: ad.reduce_sum(ad.mul(ad.causal_linear(
            ad.reshape(cx, (2, 3, 2)), ad.constant(c_hie_w), t), ad.constant(c_hie))),
            c_hie_b),
        "linear": (lambda t: ad.reduce_sum(ad.linear(t, cw, cb)), x),
        "linear.w": (lambda t: ad.reduce_sum(ad.mul(ad.linear(cx, t, cb),
                                                    ad.constant(c_lin))), w),
        "linear.b": (lambda t: ad.reduce_sum(ad.mul(ad.linear(cx, cw, t),
                                                    ad.constant(c_lin))), b),
        # a stack of two maps, with t in all three operands
        "linear.stacked": (lambda t: ad.reduce_sum(ad.mul(ad.linear(
            ad.reshape(t, (2, 2, 3)), ad.reshape(t, (2, 2, 3)),
            ad.reduce_sum(ad.reshape(t, (2, 2, 3)), axis=2)), ad.constant(c_stack))), x),
        "lerp": (lambda t: ad.reduce_sum(ad.lerp(ad.sigmoid(t), t, co)), x),
        "lerp.b": (lambda t: ad.reduce_sum(ad.lerp(ad.sigmoid(cx), co, t)), x),
        "repeat_rows": (lambda t: ad.reduce_sum(ad.mul(ad.repeat_rows(t, 3),
                                                       ad.constant(c_rep))), x),
    }
    return {name: ad.finite_diff_check(f, at) for name, (f, at) in cases.items()}


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
    d = _TRAIN_DEFAULTS
    p.add_argument("--config", help="key=value settings file")
    p.add_argument("--data", help="dataset CSV path")
    p.add_argument("--target", help="value column to forecast")
    p.add_argument("--timestamp-column", dest="timestamp_column")
    p.add_argument("--lh", type=int, help=f"history length (default {d['lh']})")
    p.add_argument("--lf", type=int, help=f"horizon length (default {d['lf']})")
    p.add_argument("--period", type=int, help=f"period length (default {d['period']})")
    p.add_argument("--dm", type=int, help=f"hidden size (default {d['dm']})")
    p.add_argument("--norm", type=int, choices=(0, 1), help="per-window normalization")
    p.add_argument("--scale", type=int, choices=(0, 1),
                   help=f"z-score the series by train-split statistics (default {d['scale']})")
    p.add_argument("--head-shared", dest="head_shared", type=int, choices=(0, 1),
                   help="share forecast-head weights across phase columns "
                        f"(default {d['head_shared']})")
    p.add_argument("--variant", choices=sorted(VARIANTS), help="model variant")
    p.add_argument("--seed", type=int, help=f"run seed (default {d['seed']})")
    p.add_argument("--out", help=f"output directory (default {d['out']})")
    p.add_argument("--noise-eps", dest="noise_eps", type=float,
                   help="fraction of training history points to perturb")
    p.add_argument("--lr", type=float, help=f"learning rate (default {d['lr']})")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-epochs", dest="max_epochs", type=int)
    p.add_argument("--patience", type=int)


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
    scenario = {f.name: f.default for f in fields(BenchScenario)}
    p_bench.add_argument("--dm", type=int, default=scenario["d_m"])
    for name in ("batch", "repeat", "warmup", "period", "seed"):
        p_bench.add_argument(f"--{name}", type=int, default=scenario[name])
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
