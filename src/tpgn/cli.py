"""The ``tpgn`` command: train, eval, bench, gradcheck, synth.

``tpgn train`` settings come from one table: the fields of
:class:`training.TrainConfig` (``l_h``, ``l_f`` and ``d_m`` spelled ``lh``,
``lf`` and ``dm``) plus the run-only settings; a setting parses as the
type of its default (:func:`training.parse_setting`), and each flag
(``--`` + key, ``_`` written as ``-``) is generated from the table.  They
resolve as defaults < a middle layer < command-line flags, with one set
of checks.  For ``tpgn train`` the middle layer is the --config file
(flat ``key=value`` lines; ``#`` at the start of a line or after
whitespace starts a comment); for ``tpgn eval`` it is the checkpoint
echo's target, scaling and timestamp column.  The calendar-channel count
is read off the data.  ``tpgn bench`` and ``tpgn synth`` take their
defaults from :class:`bench.BenchScenario` and
:func:`data.synthetic_sinusoid`.
Every run writes its resolved manifest before any computation, and output
files are versioned (name.1.csv, name.2.csv, ...) rather than overwritten.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numeric
divergence.  Library log records (``tpgn.*``, INFO and up) go to stderr.
"""

import argparse
import hashlib
import inspect
import logging
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import data as data_mod
from . import training
from .bench import MODEL_KINDS, BenchScenario, sweep, versioned_path
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
# the settings that take one of a few values, checked at every layer
_CHOICES = {"norm": (0, 1), "scale": (0, 1), "head_shared": (0, 1),
            "variant": tuple(sorted(VARIANTS))}
# each setting's flag help, in the order `tpgn train --help` lists them
_HELP = {
    "data": "dataset CSV path", "target": "value column to forecast",
    "timestamp_column": "datetime column", "lh": "history length", "lf": "horizon length",
    "period": "period length", "dm": "hidden size", "norm": "per-window normalization",
    "scale": "z-score the series by train-split statistics",
    "head_shared": "share forecast-head weights across phase columns",
    "variant": "model variant", "seed": "run seed", "out": "output directory",
    "noise_eps": "fraction of training history points to perturb", "lr": "learning rate",
    "batch_size": "batch size", "max_epochs": "epoch limit",
    "patience": "epochs without improvement before stopping"}


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


def _resolve(args: argparse.Namespace, layer: dict[str, str], source: str) -> dict:
    """defaults < ``layer`` (a config file or a checkpoint echo, named
    ``source``) < command-line flags, with typed validation."""
    resolved = dict(_TRAIN_DEFAULTS)
    for key in layer:
        if key not in resolved:
            raise ConfigError(f"unknown config key {key!r}")
        resolved[key] = training.parse_setting(layer, key, _TRAIN_KINDS[key], source)
    for key in resolved:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    for key, choices in _CHOICES.items():
        if resolved[key] not in choices:
            raise ConfigError(f"{key} must be one of {choices}, got {resolved[key]!r}")
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


def _load_series(res: dict) -> data_mod.RawSeries:
    """The run's hourly series, z-scored when ``scale`` is on."""
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
    return series


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
    res = _resolve(args, _read_config_file(args.config) if args.config else {},
                   f"config file {args.config}")
    # _resolve checks the choices, TrainConfig the sizes, before any file is written
    cfg = training.TrainConfig(**{f.name: res[key] for key, f in _CONFIG_FIELDS.items()})
    out_dir = Path(res["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path, config_hash = _write_manifest(out_dir, res)
    print(f"manifest: {manifest_path} (hash {config_hash[:12]})")

    series = _load_series(res)
    train_w, val_w, test_w = data_mod.split_and_window(
        series, data_mod.SplitSpec(l_h=cfg.l_h, l_f=cfg.l_f))
    train_w = data_mod.apply_noise(train_w, res["noise_eps"], res["seed"])
    params = TpgnParams.init(cfg.l_h, cfg.l_f, cfg.period, train_w.c_time, cfg.d_m,
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
    # the best epoch's weights, which fit has already left behind
    best_params, _ = training.params_from_checkpoint(ckpt)
    metrics, preds = training.score_windows(best_params, test_w, cfg.model_config())
    metrics_path = _write_metrics(out_dir, metrics)
    # the first test window's horizon starts after its history
    n_train, n_val, _ = data_mod.split_points(len(series))
    start = n_train + n_val + cfg.l_h
    pred_path = _write_predictions(out_dir, series.timestamps[start:start + cfg.l_f],
                                   test_w[0].y_true, preds[0])
    print(f"checkpoint: {ck_path}")
    print(f"epoch log: {log_path}")
    print(f"predictions: {pred_path}")
    print(f"metrics: {metrics_path}")
    print(f"test mse={metrics['mse']:.6f} mae={metrics['mae']:.6f} "
          f"(best val {ckpt.best_val_loss:.6f} at epoch {ckpt.epoch})")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = training.Checkpoint.load(args.checkpoint)
    params, cfg = training.params_from_checkpoint(ckpt)  # rejects a bad echo up front
    # the run-only settings that locate the data; echoes that predate
    # timestamp_column fall back to its default
    echo = {k: ckpt.config[k] for k in ("target", "scale", "timestamp_column")
            if k in ckpt.config}
    res = _resolve(args, echo, "checkpoint config")
    # window geometry always comes from the checkpoint echo; only the test
    # split is cut
    test_w = data_mod.window_split(_load_series(res),
                                   data_mod.SplitSpec(l_h=cfg.l_h, l_f=cfg.l_f), "test")
    metrics, _ = training.score_windows(params, test_w, cfg.model_config())
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
                  f"forward {r.forward_ms_median:.1f} ms, tape peak {r.peak_bytes} B, "
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
    # gated_fusion over x [4, 3] and a history [4, 2]; collapse_rows of a
    # [2*2, 4] input in two groups
    fusion = [x, *(rng.uniform(-1, 1, s) for s in ((4, 2), (2, 5), (2,), (2, 5), (2,)))]
    c_fusion = rng.uniform(-1, 1, (4, 2))
    collapse_x, collapse_w = rng.uniform(-1, 1, (4, 4)), rng.uniform(-1, 1, 2)
    c_collapse = rng.uniform(-1, 1, (2, 4))
    cx, cm, cw, cb, co = (ad.constant(v) for v in (x, m, w, b, other))

    def fused(i):
        """gated_fusion differentiated in operand i alone."""
        def f(t):
            operands = [t if j == i else ad.constant(a) for j, a in enumerate(fusion)]
            return ad.reduce_sum(ad.mul(ad.gated_fusion(*operands)[0],
                                        ad.constant(c_fusion)))
        return f, fusion[i]

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
        "collapse_rows": (lambda t: ad.reduce_sum(ad.mul(ad.collapse_rows(
            t, ad.constant(collapse_w), 2), ad.constant(c_collapse))), collapse_x),
        "collapse_rows.weight": (lambda t: ad.reduce_sum(ad.mul(ad.collapse_rows(
            ad.constant(collapse_x), t, 2), ad.constant(c_collapse))), collapse_w),
    }
    for i, operand in enumerate(("", ".history", ".gate_w", ".gate_b", ".cand_w", ".cand_b")):
        cases["gated_fusion" + operand] = fused(i)
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


# `tpgn synth` flag -> the synthetic_sinusoid parameter whose default it takes
_SYNTH_FLAGS = {"period": "period", "amplitude": "amplitude", "mean": "mean",
                "drift": "phase_drift", "noise": "noise", "seed": "seed"}


def cmd_synth(args) -> int:
    series = data_mod.synthetic_sinusoid(
        args.hours, **{name: getattr(args, flag) for flag, name in _SYNTH_FLAGS.items()})
    path = versioned_path(Path(args.out))
    path.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_csv(series, path)
    print(f"wrote {len(series)} hourly points to {path} (target column 'value')")
    return EXIT_OK


def _add_setting_flags(p: argparse.ArgumentParser, keys, required=()) -> None:
    """One flag per setting in ``keys``, in :data:`_HELP` order.  No flag
    has a default of its own: an unset flag leaves the lower layers' value."""
    for key in sorted(keys, key=list(_HELP).index):
        default = _TRAIN_DEFAULTS[key]
        p.add_argument("--" + key.replace("_", "-"), type=_TRAIN_KINDS[key],
                       choices=_CHOICES.get(key), required=key in required,
                       help=_HELP[key] + ("" if default is None else f" (default {default})"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpgn",
        description="Train, evaluate and benchmark the two-branch forecaster.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train on a CSV dataset")
    p_train.add_argument("--config", help="key=value settings file")
    _add_setting_flags(p_train, _TRAIN_DEFAULTS)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on the test split")
    p_eval.add_argument("--checkpoint", required=True)
    _add_setting_flags(p_eval, ("data", "target", "timestamp_column", "out"),
                       required=("data",))
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="efficiency sweeps on synthetic data")
    p_bench.add_argument("--models", default=",".join(MODEL_KINDS))
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
    p_grad.add_argument("--norm", type=int, choices=_CHOICES["norm"], default=1)
    p_grad.add_argument("--variant", choices=_CHOICES["variant"], default="full")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--out", default="tpgn-out")
    p_grad.set_defaults(func=cmd_gradcheck)

    p_synth = sub.add_parser("synth", help="generate the sinusoid benchmark CSV")
    p_synth.add_argument("--out", default="synth.csv")
    p_synth.add_argument("--hours", type=int, default=2200)
    signature = inspect.signature(data_mod.synthetic_sinusoid).parameters
    for flag, name in _SYNTH_FLAGS.items():
        default = signature[name].default
        p_synth.add_argument(f"--{flag}", type=type(default), default=default)
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
