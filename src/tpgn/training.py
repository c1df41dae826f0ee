"""L2 training with Adam, patience-based early stopping and checkpoints.

A run is a pure function of (seed, config, data): shuffling and weight
initialization come from one seeded generator, minibatch gradients are
summed in fixed order on the tape, and the optimizer walks parameters in
a fixed order - two identical runs produce bitwise-identical logs.

Loss and metrics are always computed on de-normalized predictions, so
norm=0 and norm=1 runs are directly comparable.  :func:`parse_setting`
reads one setting string, from a checkpoint's config echo or a run's
settings file, as a typed value.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, DivergenceError
from .model import (VARIANTS, TpgnConfig, TpgnParams, as_window_set, stack_targets,
                    tpgn_forward_batch, tpgn_predict)

__all__ = [
    "TrainConfig",
    "AdamState",
    "Checkpoint",
    "EpochRecord",
    "mse",
    "mae",
    "adam_step",
    "fit",
    "evaluate",
    "score_windows",
    "predict_windows",
    "parse_setting",
    "params_from_checkpoint",
    "write_epoch_log",
]

CHECKPOINT_MAGIC = b"TPGN1"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Training protocol knobs; defaults follow the benchmark recipe."""

    lr: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 25
    patience: int = 5
    seed: int = 2023
    d_m: int = 32
    norm: int = 0
    period: int = 24
    l_h: int = 168
    l_f: int = 168
    variant: str = "full"

    def __post_init__(self):
        for name in ("lr", "batch_size", "max_epochs", "patience", "d_m",
                     "period", "l_h", "l_f"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not math.isfinite(self.lr):
            raise ConfigError(f"lr must be finite, got {self.lr}")
        if self.patience > self.max_epochs:
            raise ConfigError(
                f"patience {self.patience} exceeds max_epochs {self.max_epochs}")
        if self.norm not in (0, 1):
            raise ConfigError(f"norm must be 0 or 1, got {self.norm}")
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"variant must be one of {sorted(VARIANTS)}, got {self.variant!r}")

    def model_config(self) -> TpgnConfig:
        return TpgnConfig(norm=self.norm, period=self.period,
                          variant=VARIANTS[self.variant])

    def as_dict(self) -> dict[str, str]:
        return {f.name: str(getattr(self, f.name)) for f in fields(self)}


@dataclass
class AdamState:
    """First/second moments per named parameter plus the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, arrays: dict[str, np.ndarray]) -> "AdamState":
        return cls(m={k: np.zeros_like(a) for k, a in arrays.items()},
                   v={k: np.zeros_like(a) for k, a in arrays.items()})


def _metric_arrays(pred, target):
    p = pred.data if isinstance(pred, ad.Tensor) else np.asarray(pred, dtype=np.float64)
    t = target.data if isinstance(target, ad.Tensor) else np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ConfigError(f"prediction shape {p.shape} != target shape {t.shape}")
    if p.size == 0:
        raise ContractError("metrics need at least one element")
    return p, t


def mse(pred, target) -> float:
    p, t = _metric_arrays(pred, target)
    return float(((p - t) ** 2).mean())


def mae(pred, target) -> float:
    p, t = _metric_arrays(pred, target)
    return float(np.abs(p - t).mean())


def adam_step(arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One in-place update. Aborts (leaving parameters untouched) on a
    non-finite gradient, naming the offending tensor."""
    for name in arrays:
        g = grads[name]
        if g.shape != arrays[name].shape:
            raise ConfigError(f"gradient for {name} has shape {g.shape}, "
                              f"expected {arrays[name].shape}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in {name}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correction1 = 1.0 - b1 ** state.t
    correction2 = 1.0 - b2 ** state.t
    for name, theta in arrays.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / correction1
        v_hat = state.v[name] / correction2
        theta -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class Checkpoint:
    """Named tensors, a config echo and a sha256 line; round-trips bitwise."""

    tensors: dict[str, np.ndarray]
    config: dict[str, str]
    best_val_loss: float
    epoch: int

    def save(self, path) -> None:
        """Write to a temporary file beside ``path``, then rename it over
        ``path``: a save that fails leaves the previous file intact.  Nothing
        is fsynced, so durability across a power loss is not claimed."""
        path = Path(path)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(self._encode())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _encode(self) -> bytes:
        parts = [CHECKPOINT_MAGIC]
        for name in sorted(self.tensors):
            # asarray keeps rank-0 arrays rank-0 (ascontiguousarray does not)
            arr = np.asarray(self.tensors[name], dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            parts += [len(encoded).to_bytes(8, "little"), encoded,
                      *(n.to_bytes(8, "little") for n in (arr.ndim, *arr.shape)),
                      arr.tobytes()]
        parts.append((0).to_bytes(8, "little"))  # name_len = 0 ends the tensor list
        lines = [*(f"{k}={v}" for k, v in sorted(self.config.items())),
                 f"best_val_loss={self.best_val_loss!r}", f"epoch={self.epoch}"]
        body = b"".join(parts) + "".join(f"{line}\n" for line in lines).encode("utf-8")
        # the last line hashes every byte before it; its newline marks a
        # complete file, so truncation is detectable
        return body + f"sha256={hashlib.sha256(body).hexdigest()}\n".encode("ascii")

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint; an unreadable, truncated or corrupt file raises
        ConfigError.

        Every declared length is checked against the bytes left in the file
        before it is used, so a corrupt size never drives a read or an
        allocation.
        """
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read checkpoint {path}: {exc}") from None
        magic = raw[:len(CHECKPOINT_MAGIC)]
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path} is not a checkpoint (bad magic {magic!r})")
        pos = len(CHECKPOINT_MAGIC)

        def take(size: int, what: str) -> bytes:
            nonlocal pos
            if size > len(raw) - pos:
                raise ConfigError(f"{path} is truncated or corrupt: {what} needs "
                                  f"{size} bytes, {len(raw) - pos} left")
            pos += size
            return raw[pos - size:pos]

        tensors: dict[str, np.ndarray] = {}
        try:
            while name_len := int.from_bytes(take(8, "a tensor name length"), "little"):
                name = take(name_len, "a tensor name").decode("utf-8")
                rank = int.from_bytes(take(8, f"the rank of {name}"), "little")
                dims = take(8 * rank, f"the shape of {name}")
                shape = tuple(int(n) for n in np.frombuffer(dims, dtype="<u8"))
                payload = take(8 * math.prod(shape), f"the values of {name}")
                tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
            text = raw[pos:].decode("utf-8")
        except ConfigError:
            raise
        except ValueError as exc:
            # an undecodable name or trailer, or a zero-size shape whose
            # dimensions numpy cannot hold
            raise ConfigError(f"{path} is corrupt: {exc}") from None
        if not text.endswith("\n"):
            raise ConfigError(f"{path} is truncated: its config trailer is incomplete")
        config = dict(line.partition("=")[::2] for line in text.splitlines() if line)
        body = raw[:raw.rfind(b"\n", 0, len(raw) - 1) + 1]
        if config.pop("sha256", None) != hashlib.sha256(body).hexdigest():
            raise ConfigError(f"{path} is corrupt: its sha256 line does not match")
        try:
            best = float(config.pop("best_val_loss"))
            epoch = int(config.pop("epoch"))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path} is corrupt: bad or missing {exc}") from None
        return cls(tensors=tensors, config=config, best_val_loss=best, epoch=epoch)


def parse_setting(settings: dict[str, str], key: str, kind: type, source: str):
    """``settings[key]`` read as ``kind``; a missing key or a string that
    does not parse raises ConfigError naming ``source`` and the key."""
    if key not in settings:
        raise ConfigError(f"{source} lacks {key!r}")
    try:
        return kind(settings[key])
    except ValueError:
        raise ConfigError(f"{source} {key}={settings[key]!r} is not a valid "
                          f"{kind.__name__}") from None


def params_from_checkpoint(ckpt: Checkpoint) -> tuple[TpgnParams, TrainConfig]:
    """Rebuild the model and its training config from a checkpoint echo.

    A missing or garbled echo entry, or tensors that do not fit the echoed
    structure, raise ConfigError naming the culprit.  The echoed sizes are
    checked against the stored shapes before any weight is drawn, so a
    hostile echo never sizes an allocation.
    """
    echo, source = ckpt.config, "checkpoint config"
    cfg = TrainConfig(**{f.name: parse_setting(echo, f.name, type(f.default), source)
                         for f in fields(TrainConfig)})
    head_shared = parse_setting(echo, "head_shared", int, source)
    if head_shared not in (0, 1):
        raise ConfigError(f"checkpoint config head_shared must be 0 or 1, got {head_shared}")
    c_time = parse_setting(echo, "c_time", int, source)
    sizes = (cfg.l_h, cfg.l_f, cfg.period, c_time, cfg.d_m)
    shapes = TpgnParams.layout(*sizes, VARIANTS[cfg.variant], bool(head_shared))
    if set(shapes) != set(ckpt.tensors):
        raise ConfigError(
            f"checkpoint tensors do not match the model structure: missing "
            f"{sorted(set(shapes) - set(ckpt.tensors))}, unexpected "
            f"{sorted(set(ckpt.tensors) - set(shapes))}")
    for name, shape in shapes.items():
        if ckpt.tensors[name].shape != shape:
            raise ConfigError(
                f"checkpoint tensor {name} has shape {ckpt.tensors[name].shape}, but "
                f"the echoed l_h={cfg.l_h}, l_f={cfg.l_f}, period={cfg.period}, "
                f"c_time={c_time}, d_m={cfg.d_m} give {shape}")
    params = TpgnParams.init(*sizes, np.random.default_rng(cfg.seed),
                             VARIANTS[cfg.variant], head_shared=bool(head_shared))
    for name, arr in params.named_arrays().items():
        arr[...] = ckpt.tensors[name]
    return params, cfg


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    elapsed_seconds: float


def write_epoch_log(path, records: list[EpochRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss,elapsed_seconds\n")
        for r in records:
            fh.write(f"{r.epoch},{r.train_loss!r},{r.val_loss!r},"
                     f"{r.elapsed_seconds:.3f}\n")


def predict_windows(params: TpgnParams, windows, mcfg: TpgnConfig) -> np.ndarray:
    """Untracked batched predictions [N, L_f] in original units
    (:func:`model.tpgn_predict`: one forward over a norm=0 set)."""
    if not windows:
        raise ConfigError("prediction needs at least one window")
    return tpgn_predict(windows, params, mcfg)


def _dataset_mse(params: TpgnParams, windows, mcfg: TpgnConfig) -> float:
    preds = predict_windows(params, windows, mcfg)
    targets = stack_targets(windows)
    return mse(preds, targets)


def fit(params: TpgnParams, train_windows, val_windows, cfg: TrainConfig,
        extra_config: dict[str, str] | None = None,
        ) -> tuple[Checkpoint, list[EpochRecord]]:
    """Train in place; returns the best-validation checkpoint and the log.

    Each window set may also be a list of windows, copied into a set once
    (:func:`model.as_window_set`); a minibatch is an index array of it.
    Every epoch reshuffles with the run generator, walks minibatches of
    ``batch_size`` (final partial batch kept), and then scores the full
    validation set.  Training stops at ``max_epochs`` or after
    ``patience`` consecutive epochs without a strictly lower validation
    loss.  A NaN or Inf in any training or validation window raises
    ContractError before the first step; a non-finite loss or gradient
    aborts with the last good checkpoint attached to the raised
    :class:`DivergenceError`.
    """
    if not train_windows or not val_windows:
        raise ConfigError("training and validation window sets must be non-empty")
    params.validate()
    # the checkpoint echoes cfg, so it must describe these weights
    for name, have in (("l_h", params.l_h), ("l_f", params.l_f),
                       ("period", params.period), ("d_m", params.hidden)):
        if getattr(cfg, name) != have:
            raise ConfigError(f"config {name}={getattr(cfg, name)} does not match "
                              f"the model's {have}")
    train, val = as_window_set(train_windows), as_window_set(val_windows)
    train.check_finite()  # before any weight changes
    val.check_finite()
    mcfg = cfg.model_config()
    arrays = params.named_arrays()
    state = AdamState.init(arrays)
    rng = np.random.default_rng(cfg.seed)

    echo = cfg.as_dict()
    echo["c_time"] = str(params.channels - 1)
    echo["head_shared"] = "1" if params.head_shared else "0"
    if extra_config:
        echo.update(extra_config)

    def snapshot(best_val: float, epoch: int) -> Checkpoint:
        return Checkpoint(tensors={k: a.copy() for k, a in arrays.items()},
                          config=dict(echo), best_val_loss=best_val, epoch=epoch)

    best = snapshot(float("inf"), 0)
    records: list[EpochRecord] = []
    bad_epochs = 0
    n = len(train)
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        seen = 0
        weighted = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = train[order[lo:lo + cfg.batch_size]]
            graph = ad.Graph()
            leaves = params.leaf_into(graph)
            preds = tpgn_forward_batch(batch, params, mcfg, weights=leaves)
            targets = stack_targets(batch)
            diff = ad.sub(preds, ad.constant(targets))
            loss = ad.reduce_mean(ad.mul(diff, diff))
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}",
                    checkpoint=best, log=records)
            grad_map = ad.backward(loss)
            grads = {name: grad_map[leaves[name]] for name in arrays}
            try:
                adam_step(arrays, grads, state, cfg.lr)
            except DivergenceError as exc:
                raise DivergenceError(str(exc), checkpoint=best, log=records) from None
            weighted += loss_value * len(batch)
            seen += len(batch)
        train_loss = weighted / seen
        val_loss = _dataset_mse(params, val, mcfg)
        records.append(EpochRecord(epoch=epoch, train_loss=train_loss,
                                   val_loss=val_loss,
                                   elapsed_seconds=time.perf_counter() - t0))
        if val_loss < best.best_val_loss:
            best = snapshot(val_loss, epoch)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                break
    return best, records


def score_windows(params: TpgnParams, windows, mcfg: TpgnConfig,
                  ) -> tuple[dict[str, float], np.ndarray]:
    """MSE and MAE over a window set, original units, and the predictions
    [N, L_f] they score."""
    preds = predict_windows(params, windows, mcfg)
    targets = stack_targets(windows)
    return {"mse": mse(preds, targets), "mae": mae(preds, targets)}, preds


def evaluate(ckpt: Checkpoint, test_windows) -> dict[str, float]:
    """MSE and MAE of a checkpointed model over a window set, original units."""
    params, cfg = params_from_checkpoint(ckpt)
    return score_windows(params, test_windows, cfg.model_config())[0]
