"""L2 training with Adam, patience-based early stopping and checkpoints.

A run is a pure function of (seed, config, data): shuffling and weight
initialization come from one seeded generator, minibatch gradients are
summed in fixed order on the tape, and the optimizer walks parameters in
a fixed order - two identical runs produce bitwise-identical logs.

Loss and metrics are always computed on de-normalized predictions, so
norm=0 and norm=1 runs are directly comparable.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, DivergenceError
from .model import VARIANTS, TpgnConfig, TpgnParams, tpgn_forward_batch

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
    "predict_windows",
    "params_from_checkpoint",
    "write_epoch_log",
]

CHECKPOINT_MAGIC = b"TPGN1"
_EVAL_CHUNK = 512  # windows per untracked forward during evaluation
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
    """Named tensors plus a config echo; round-trips bitwise through disk."""

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
            with open(tmp, "wb") as fh:
                self._write(fh)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _write(self, fh) -> None:
        fh.write(CHECKPOINT_MAGIC)
        for name in sorted(self.tensors):
            # asarray keeps rank-0 arrays rank-0 (ascontiguousarray does not)
            arr = np.asarray(self.tensors[name], dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            fh.write(len(encoded).to_bytes(8, "little"))
            fh.write(encoded)
            fh.write(arr.ndim.to_bytes(8, "little"))
            for dim in arr.shape:
                fh.write(int(dim).to_bytes(8, "little"))
            fh.write(arr.tobytes())
        fh.write((0).to_bytes(8, "little"))  # name_len = 0 ends the tensor list
        lines = [f"{k}={v}" for k, v in sorted(self.config.items())]
        lines.append(f"best_val_loss={self.best_val_loss!r}")
        lines.append(f"epoch={self.epoch}")
        # the final newline marks a complete file: truncation is detectable
        fh.write("".join(f"{line}\n" for line in lines).encode("utf-8"))

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a checkpoint; a truncated or corrupt file raises ConfigError.

        Every declared length is checked against the bytes left in the file
        before it is used, so a corrupt size never drives a read or an
        allocation.
        """
        with open(path, "rb") as fh:
            raw = fh.read()
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
        config: dict[str, str] = {}
        for line in text.splitlines():
            if line:
                key, _, value = line.partition("=")
                config[key] = value
        try:
            best = float(config.pop("best_val_loss"))
            epoch = int(config.pop("epoch"))
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{path} is corrupt: bad or missing {exc}") from None
        return cls(tensors=tensors, config=config, best_val_loss=best, epoch=epoch)


def _echo_value(echo: dict[str, str], key: str, kind: type):
    """One typed entry of a checkpoint's config echo."""
    if key not in echo:
        raise ConfigError(f"checkpoint config lacks {key!r}")
    try:
        return kind(echo[key])
    except ValueError:
        raise ConfigError(f"checkpoint config {key}={echo[key]!r} is not a valid "
                          f"{kind.__name__}") from None


def params_from_checkpoint(ckpt: Checkpoint) -> tuple[TpgnParams, TrainConfig]:
    """Rebuild the model and its training config from a checkpoint echo.

    A missing or garbled echo entry, or tensors that do not fit the echoed
    structure, raise ConfigError naming the culprit.
    """
    cfg = TrainConfig(**{f.name: _echo_value(ckpt.config, f.name, type(f.default))
                         for f in fields(TrainConfig)})
    head_shared = _echo_value(ckpt.config, "head_shared", int)
    if head_shared not in (0, 1):
        raise ConfigError(f"checkpoint config head_shared must be 0 or 1, got {head_shared}")
    params = TpgnParams.init(cfg.l_h, cfg.l_f, cfg.period,
                             _echo_value(ckpt.config, "c_time", int), cfg.d_m,
                             np.random.default_rng(cfg.seed), VARIANTS[cfg.variant],
                             head_shared=bool(head_shared))
    arrays = params.named_arrays()
    if set(arrays) != set(ckpt.tensors):
        raise ConfigError(
            f"checkpoint tensors do not match the model structure: missing "
            f"{sorted(set(arrays) - set(ckpt.tensors))}, unexpected "
            f"{sorted(set(ckpt.tensors) - set(arrays))}")
    for name, arr in arrays.items():
        stored = ckpt.tensors[name]
        if stored.shape != arr.shape:
            raise ConfigError(f"checkpoint tensor {name} has shape {stored.shape}, "
                              f"model expects {arr.shape}")
        arr[...] = stored
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
    """Untracked batched predictions [N, L_f] in original units."""
    chunks = []
    for lo in range(0, len(windows), _EVAL_CHUNK):
        out = tpgn_forward_batch(windows[lo:lo + _EVAL_CHUNK], params, mcfg)
        chunks.append(out.data)
    return np.concatenate(chunks, axis=0)


def _dataset_mse(params: TpgnParams, windows, mcfg: TpgnConfig) -> float:
    preds = predict_windows(params, windows, mcfg)
    targets = np.stack([w.y_true for w in windows])
    return mse(preds, targets)


def fit(params: TpgnParams, train_windows, val_windows, cfg: TrainConfig,
        extra_config: dict[str, str] | None = None,
        ) -> tuple[Checkpoint, list[EpochRecord]]:
    """Train in place; returns the best-validation checkpoint and the log.

    Every epoch reshuffles with the run generator, walks minibatches of
    ``batch_size`` (final partial batch kept), and then scores the full
    validation set.  Training stops at ``max_epochs`` or after
    ``patience`` consecutive epochs without a strictly lower validation
    loss.  A non-finite loss or gradient aborts with the last good
    checkpoint attached to the raised :class:`DivergenceError`.
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
    n = len(train_windows)
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        seen = 0
        weighted = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = [train_windows[i] for i in order[lo:lo + cfg.batch_size]]
            graph = ad.Graph()
            leaves = params.leaf_into(graph)
            preds = tpgn_forward_batch(batch, params, mcfg, weights=leaves)
            targets = np.stack([w.y_true for w in batch])
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
        val_loss = _dataset_mse(params, val_windows, mcfg)
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


def evaluate(ckpt: Checkpoint, test_windows) -> dict[str, float]:
    """MSE and MAE of a checkpointed model over a window set, original units."""
    if not test_windows:
        raise ConfigError("evaluation needs at least one window")
    params, cfg = params_from_checkpoint(ckpt)
    preds = predict_windows(params, test_windows, cfg.model_config())
    targets = np.stack([w.y_true for w in test_windows])
    return {"mse": mse(preds, targets), "mae": mae(preds, targets)}
