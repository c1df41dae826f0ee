"""The long branch's alternative cells and the table of every cell kind.

GRU and LSTM are the standard recurrences, run as a strict step-by-step
loop, which is exactly the property the comparisons need: their
computation-graph depth grows with sequence length.  The MLP is a
per-step two-layer map with no temporal mixing.

:func:`recurrent_forward` is the one recurrence: it advances M independent
sequences [M, L, c] in lockstep, one batched cell step per time step.

:data:`CELLS` is the one place that decides "which cell, which weights":
it maps each kind (``pgn``, ``gru``, ``lstm``, ``mlp``) to its parameter
class, its batched apply [M, L, c] -> [M*L, d] and its multiply-accumulate
count.  The model, the benchmark and the depth probe
:func:`sequence_graph_depth` all dispatch through it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, ParamSet, Tensor
from .errors import ContractError
from .pgn import PgnParams, pgn_apply, pgn_macs

__all__ = [
    "GruParams",
    "LstmParams",
    "MlpParams",
    "Cell",
    "CELLS",
    "cell_kind",
    "new_cell",
    "gru_step",
    "lstm_step",
    "recurrent_forward",
    "sequence_graph_depth",
    "gru_macs",
    "lstm_macs",
    "mlp_macs",
]


@dataclass
class GruParams(ParamSet):
    """update_w/reset_w act on [x, h]; the candidate splits its input and
    recurrent maps so the reset gate can mask the recurrent part."""

    in_channels: int
    hidden: int
    update_w: np.ndarray = None
    update_b: np.ndarray = None
    reset_w: np.ndarray = None
    reset_b: np.ndarray = None
    cand_xw: np.ndarray = None
    cand_hw: np.ndarray = None
    cand_b: np.ndarray = None

    def shapes(self) -> dict[str, tuple[int, ...]]:
        c, d = self.in_channels, self.hidden
        return {"update_w": (d, c + d), "update_b": (d,),
                "reset_w": (d, c + d), "reset_b": (d,),
                "cand_xw": (d, c), "cand_hw": (d, d), "cand_b": (d,)}


@dataclass
class LstmParams(ParamSet):
    """Input/forget/output gates and the cell candidate, each over [x, h]."""

    in_channels: int
    hidden: int
    input_w: np.ndarray = None
    input_b: np.ndarray = None
    forget_w: np.ndarray = None
    forget_b: np.ndarray = None
    output_w: np.ndarray = None
    output_b: np.ndarray = None
    cell_w: np.ndarray = None
    cell_b: np.ndarray = None

    def shapes(self) -> dict[str, tuple[int, ...]]:
        c, d = self.in_channels, self.hidden
        return {f"{gate}_{part}": shape
                for gate in ("input", "forget", "output", "cell")
                for part, shape in (("w", (d, c + d)), ("b", (d,)))}


@dataclass
class MlpParams(ParamSet):
    """Two affine maps with a tanh between, applied per step: c -> d -> d."""

    in_channels: int
    hidden: int
    w1: np.ndarray = None
    b1: np.ndarray = None
    w2: np.ndarray = None
    b2: np.ndarray = None

    def shapes(self) -> dict[str, tuple[int, ...]]:
        c, d = self.in_channels, self.hidden
        return {"w1": (d, c), "b1": (d,), "w2": (d, d), "b2": (d,)}


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


def mlp_apply(x: Tensor, w: dict[str, Tensor]) -> Tensor:
    """The per-step MLP over M sequences [M, L, c] -> [M*L, d]."""
    m, length, c = x.shape
    return mlp_step(ad.reshape(x, (m * length, c)), w)


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
    return ad.reshape(ad.concat(states, axis=1), (m * length, d))


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


# ---------------------------------------------------------------------------
# the cell table

@dataclass(frozen=True)
class Cell:
    """One cell kind: its weights, its batched apply and its cost."""

    params: type                                          # a ParamSet subclass
    apply: Callable[[Tensor, dict[str, Tensor]], Tensor]  # [M, L, c] -> [M*L, d]
    macs: Callable[[int, int, int], int]                  # (length, c, d), one sequence


CELLS = {
    "pgn": Cell(PgnParams, lambda x, w: pgn_apply(x, w).output, pgn_macs),
    "gru": Cell(GruParams, partial(recurrent_forward, kind="gru"), gru_macs),
    "lstm": Cell(LstmParams, partial(recurrent_forward, kind="lstm"), lstm_macs),
    "mlp": Cell(MlpParams, mlp_apply, mlp_macs),
}


def cell_kind(params: ParamSet) -> str:
    """The :data:`CELLS` key of a cell's parameter object."""
    for kind, cell in CELLS.items():
        if type(params) is cell.params:
            return kind
    raise ContractError(f"unsupported cell parameters: {type(params).__name__}")


def new_cell(kind: str, length: int, in_channels: int, hidden: int,
             rng: np.random.Generator | None = None) -> ParamSet:
    """Fresh weights of a ``kind`` cell for length-``length`` sequences;
    with no ``rng``, the sized cell without weights (its shapes only).

    Only the gated cell's weights depend on the length; each class takes
    the sizes it declares as fields.
    """
    cls = CELLS[kind].params
    sizes = {"seq_len": length, "in_channels": in_channels, "hidden": hidden}
    sizes = [sizes[f.name] for f in fields(cls) if f.name in sizes]
    return cls(*sizes) if rng is None else cls.init(*sizes, rng)


def sequence_graph_depth(params: ParamSet, length: int) -> int:
    """Longest op chain from a length-``length`` input to the last state.

    Grows at least linearly with ``length`` for the recurrent cells; that
    chain is what the parallel cell removes (its depth is constant).
    """
    params.validate()
    graph = Graph()
    x = graph.leaf(np.zeros((1, length, params.in_channels)), op="input")
    out = CELLS[cell_kind(params)].apply(x, params.leaf_into(graph))
    return graph.longest_path(x.node_id, out.node_id)
