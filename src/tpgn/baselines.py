"""Sequential gated cells (GRU, LSTM) and a per-step MLP block.

These are the drop-in alternatives for the long-range branch of the
forecasting model and the sequential reference point for the efficiency
benchmarks.  The recurrences are the standard formulations, run as a
strict step-by-step loop, which is exactly the property the comparisons
need: their computation-graph depth grows with sequence length.

:func:`recurrent_forward` is the one recurrence: it advances M independent
sequences [M, L, c] in lockstep, one batched cell step per time step.  The
per-sequence forwards, :func:`sequence_graph_depth`, the model's long
branch and the benchmark all call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor
from .errors import ContractError, DimensionError

__all__ = [
    "GruParams",
    "LstmParams",
    "MlpParams",
    "gru_forward_seq",
    "lstm_forward_seq",
    "mlp_block",
    "gru_step",
    "lstm_step",
    "recurrent_forward",
    "sequence_graph_depth",
    "gru_macs",
    "lstm_macs",
    "mlp_macs",
]


def _uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(cols)
    return rng.uniform(-bound, bound, size=(rows, cols))


def _validate_named(obj, expected: dict[str, tuple[int, ...]]) -> None:
    for name, shape in expected.items():
        arr = getattr(obj, name)
        if arr.shape != shape:
            raise DimensionError(f"{name} has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise ContractError(f"{name} contains non-finite entries")


@dataclass
class GruParams:
    """update_w/reset_w act on [x, h]; the candidate splits its input and
    recurrent maps so the reset gate can mask the recurrent part."""

    in_channels: int
    hidden: int
    update_w: np.ndarray  # [d, c+d]
    update_b: np.ndarray
    reset_w: np.ndarray   # [d, c+d]
    reset_b: np.ndarray
    cand_xw: np.ndarray   # [d, c]
    cand_hw: np.ndarray   # [d, d]
    cand_b: np.ndarray

    @classmethod
    def init(cls, in_channels: int, hidden: int, rng: np.random.Generator) -> "GruParams":
        c, d = in_channels, hidden
        return cls(
            in_channels=c, hidden=d,
            update_w=_uniform(rng, d, c + d), update_b=np.zeros(d),
            reset_w=_uniform(rng, d, c + d), reset_b=np.zeros(d),
            cand_xw=_uniform(rng, d, c), cand_hw=_uniform(rng, d, d),
            cand_b=np.zeros(d),
        )

    def validate(self) -> None:
        c, d = self.in_channels, self.hidden
        _validate_named(self, {
            "update_w": (d, c + d), "update_b": (d,),
            "reset_w": (d, c + d), "reset_b": (d,),
            "cand_xw": (d, c), "cand_hw": (d, d), "cand_b": (d,),
        })

    def named_arrays(self) -> dict[str, np.ndarray]:
        names = ("update_w", "update_b", "reset_w", "reset_b",
                 "cand_xw", "cand_hw", "cand_b")
        return {n: getattr(self, n) for n in names}

    def leaf_into(self, graph: Graph) -> dict[str, Tensor]:
        return {n: graph.leaf(a) for n, a in self.named_arrays().items()}


@dataclass
class LstmParams:
    """Input/forget/output gates and the cell candidate, each over [x, h]."""

    in_channels: int
    hidden: int
    input_w: np.ndarray
    input_b: np.ndarray
    forget_w: np.ndarray
    forget_b: np.ndarray
    output_w: np.ndarray
    output_b: np.ndarray
    cell_w: np.ndarray
    cell_b: np.ndarray

    @classmethod
    def init(cls, in_channels: int, hidden: int, rng: np.random.Generator) -> "LstmParams":
        c, d = in_channels, hidden
        return cls(
            in_channels=c, hidden=d,
            input_w=_uniform(rng, d, c + d), input_b=np.zeros(d),
            forget_w=_uniform(rng, d, c + d), forget_b=np.zeros(d),
            output_w=_uniform(rng, d, c + d), output_b=np.zeros(d),
            cell_w=_uniform(rng, d, c + d), cell_b=np.zeros(d),
        )

    def validate(self) -> None:
        c, d = self.in_channels, self.hidden
        gates = {}
        for g in ("input", "forget", "output", "cell"):
            gates[f"{g}_w"] = (d, c + d)
            gates[f"{g}_b"] = (d,)
        _validate_named(self, gates)

    def named_arrays(self) -> dict[str, np.ndarray]:
        names = ("input_w", "input_b", "forget_w", "forget_b",
                 "output_w", "output_b", "cell_w", "cell_b")
        return {n: getattr(self, n) for n in names}

    def leaf_into(self, graph: Graph) -> dict[str, Tensor]:
        return {n: graph.leaf(a) for n, a in self.named_arrays().items()}


@dataclass
class MlpParams:
    """Two affine maps with a tanh between, applied per step: c -> d -> d."""

    in_channels: int
    hidden: int
    w1: np.ndarray  # [d, c]
    b1: np.ndarray
    w2: np.ndarray  # [d, d]
    b2: np.ndarray

    @classmethod
    def init(cls, in_channels: int, hidden: int, rng: np.random.Generator) -> "MlpParams":
        c, d = in_channels, hidden
        return cls(in_channels=c, hidden=d,
                   w1=_uniform(rng, d, c), b1=np.zeros(d),
                   w2=_uniform(rng, d, d), b2=np.zeros(d))

    def validate(self) -> None:
        c, d = self.in_channels, self.hidden
        _validate_named(self, {"w1": (d, c), "b1": (d,), "w2": (d, d), "b2": (d,)})

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, n) for n in ("w1", "b1", "w2", "b2")}

    def leaf_into(self, graph: Graph) -> dict[str, Tensor]:
        return {n: graph.leaf(a) for n, a in self.named_arrays().items()}


# ---------------------------------------------------------------------------
# step functions on row batches

def gru_step(x_t: Tensor, h_prev: Tensor, w: dict[str, Tensor]) -> Tensor:
    """candidate = tanh(cand_xw x + cand_b + reset * (cand_hw h)),
    next h = update * h + (1 - update) * candidate."""
    joint = ad.concat([x_t, h_prev], axis=1)
    z = ad.sigmoid(ad.linear(joint, w["update_w"], w["update_b"]))
    r = ad.sigmoid(ad.linear(joint, w["reset_w"], w["reset_b"]))
    zero_bias = ad.constant(np.zeros(w["cand_b"].shape))
    rec = ad.mul(r, ad.linear(h_prev, w["cand_hw"], zero_bias))
    cand = ad.tanh(ad.add(ad.linear(x_t, w["cand_xw"], w["cand_b"]), rec))
    return ad.lerp(z, h_prev, cand)


def lstm_step(x_t: Tensor, state: tuple[Tensor, Tensor],
              w: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    h_prev, c_prev = state
    joint = ad.concat([x_t, h_prev], axis=1)
    i = ad.sigmoid(ad.linear(joint, w["input_w"], w["input_b"]))
    f = ad.sigmoid(ad.linear(joint, w["forget_w"], w["forget_b"]))
    o = ad.sigmoid(ad.linear(joint, w["output_w"], w["output_b"]))
    g = ad.tanh(ad.linear(joint, w["cell_w"], w["cell_b"]))
    c_new = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    return h_new, c_new


def mlp_step(x: Tensor, w: dict[str, Tensor]) -> Tensor:
    hidden = ad.tanh(ad.linear(x, w["w1"], w["b1"]))
    return ad.linear(hidden, w["w2"], w["b2"])


def recurrent_forward(x: Tensor, w: dict[str, Tensor], kind: str) -> Tensor:
    """Hidden states of M sequences [M, L, c] advanced in lockstep from a
    zero state by the ``"gru"`` or ``"lstm"`` cell: [M*L, d], rows (m, t)-major."""
    m, length, c = x.shape
    d = w["cand_b" if kind == "gru" else "cell_b"].shape[0]
    h = cell = ad.constant(np.zeros((m, d)))
    steps = ad.permute(x, (1, 0, 2))  # [L, M, c]
    states = []
    for t in range(length):
        # slice a constant input in numpy: tape ops on it would record
        # nothing and only add per-step overhead to the timed baselines
        x_t = (ad.reshape(ad.slice_rows(steps, t, t + 1), (m, c)) if steps.tracked
               else ad.constant(steps.data[t]))
        if kind == "gru":
            h = gru_step(x_t, h, w)
        else:
            h, cell = lstm_step(x_t, (h, cell), w)
        states.append(h)
    by_step = ad.reshape(ad.concat(states, axis=0), (length, m, d))
    return ad.reshape(ad.permute(by_step, (1, 0, 2)), (m * length, d))


# ---------------------------------------------------------------------------
# per-sequence forwards

def _prep(x, params, graph):
    x = np.asarray(x, dtype=np.float64)
    params.validate()
    if x.ndim != 2 or x.shape[1] != params.in_channels:
        raise DimensionError(
            f"input shape {x.shape} does not match in_channels {params.in_channels}")
    if not np.all(np.isfinite(x)):
        raise ContractError("input contains non-finite entries")
    if graph is None:
        return ad.constant(x), {k: ad.constant(v) for k, v in params.named_arrays().items()}
    return graph.leaf(x, op="input"), params.leaf_into(graph)


def gru_forward_seq(x, params: GruParams, graph: Graph | None = None) -> Tensor:
    """All hidden states [L, hidden] of the strict recurrence, h_0 = 0."""
    xt, w = _prep(x, params, graph)
    return recurrent_forward(ad.reshape(xt, (1,) + xt.shape), w, "gru")


def lstm_forward_seq(x, params: LstmParams, graph: Graph | None = None) -> Tensor:
    """All hidden states [L, hidden], h_0 = c_0 = 0."""
    xt, w = _prep(x, params, graph)
    return recurrent_forward(ad.reshape(xt, (1,) + xt.shape), w, "lstm")


def mlp_block(x, params: MlpParams, graph: Graph | None = None) -> Tensor:
    """Per-step two-layer map [L, c] -> [L, hidden]; no temporal mixing."""
    xt, w = _prep(x, params, graph)
    return mlp_step(xt, w)


def sequence_graph_depth(params, length: int) -> int:
    """Longest op chain from the input to the last emitted state.

    Grows at least linearly with ``length`` for the recurrent cells; that
    chain is what the parallel cell removes.
    """
    graph = Graph()
    x = np.zeros((length, params.in_channels))
    if isinstance(params, GruParams):
        out = gru_forward_seq(x, params, graph)
    elif isinstance(params, LstmParams):
        out = lstm_forward_seq(x, params, graph)
    elif isinstance(params, MlpParams):
        out = mlp_block(x, params, graph)
    else:
        raise ContractError(f"unsupported cell parameters: {type(params).__name__}")
    input_id = next(i for i, n in enumerate(graph.nodes) if n.op == "input")
    return graph.longest_path(input_id, out.node_id)


# ---------------------------------------------------------------------------
# multiply-accumulate counts of one forward pass

def gru_macs(length: int, in_channels: int, hidden: int) -> int:
    per_step = 3 * (in_channels + hidden) * hidden
    return length * per_step


def lstm_macs(length: int, in_channels: int, hidden: int) -> int:
    per_step = 4 * (in_channels + hidden) * hidden
    return length * per_step


def mlp_macs(length: int, in_channels: int, hidden: int) -> int:
    return length * (in_channels * hidden + hidden * hidden)
