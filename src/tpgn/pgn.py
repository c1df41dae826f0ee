"""The parallel gated cell.

For an input sequence x of shape [L, c] the cell computes, for every step
t at once:

    history_t   = hie_w @ flatten(x[t-L+1 : t]) + hie_b     (zeros before t=0)
    gate_t      = sigmoid(gate_w @ [x_t, history_t] + gate_b)
    candidate_t = tanh(cand_w @ [x_t, history_t] + cand_b)
    out_t       = gate_t * history_t + (1 - gate_t) * candidate_t

The history summary looks at exactly the L-1 steps strictly before t
(oldest first), taken from a zero-padded prefix, so no step depends on any
other step's result: the whole sequence is one causal linear map
(:func:`tpgn.autodiff.causal_linear`, which skips most of the padding
zeros), two affine maps and a gate, and the computation-graph depth from
input to output does not grow with L.  :func:`pgn_apply` is the one
implementation: it runs M independent sequences [M, L, c] through the same
weights at once.  :func:`pgn_forward` calls it untracked for one
sequence, and the model's long branch, the benchmark and the depth probe
reach it through the cell table in :mod:`tpgn.baselines`.

Window flattening is time-major with channels contiguous per step, and
the gate concatenation puts the c input channels before the hidden state,
generalizing the single-channel layout to c > 1.  Both orderings are load
-bearing for saved weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor
from .errors import ContractError, DimensionError

__all__ = [
    "PgnParams",
    "PgnOutput",
    "pgn_apply",
    "pgn_forward",
    "pgn_forward_oracle",
    "pgn_macs",
]


@dataclass
class PgnParams(ParamSet):
    """Weights of one cell: the history extractor and the two gate maps."""

    seq_len: int
    in_channels: int
    hidden: int
    hie_w: np.ndarray = None
    hie_b: np.ndarray = None
    gate_w: np.ndarray = None
    gate_b: np.ndarray = None
    cand_w: np.ndarray = None
    cand_b: np.ndarray = None

    def __post_init__(self):
        if self.seq_len < 2:
            raise ContractError(f"seq_len must be >= 2, got {self.seq_len}")

    def shapes(self) -> dict[str, tuple[int, ...]]:
        d, gate_in = self.hidden, self.hidden + self.in_channels
        return {"hie_w": (d, (self.seq_len - 1) * self.in_channels), "hie_b": (d,),
                "gate_w": (d, gate_in), "gate_b": (d,),
                "cand_w": (d, gate_in), "cand_b": (d,)}


@dataclass
class PgnOutput:
    """Per-step activations: history summary, gate, candidate and fusion."""

    history: Tensor    # [M*L, hidden]
    gate: Tensor       # [M*L, hidden], entries in (0, 1)
    candidate: Tensor  # [M*L, hidden], entries in (-1, 1)
    output: Tensor     # [M*L, hidden] = gate*history + (1-gate)*candidate


def _check_input(x: np.ndarray, params: PgnParams) -> None:
    params.validate()
    if x.ndim != 2 or x.shape != (params.seq_len, params.in_channels):
        raise DimensionError(
            f"input shape {x.shape} does not match (seq_len, in_channels) = "
            f"({params.seq_len}, {params.in_channels})")
    if not np.all(np.isfinite(x)):
        raise ContractError("input contains non-finite entries")


def pgn_apply(x: Tensor, w: dict[str, Tensor]) -> PgnOutput:
    """Cell forward over M stacked sequences [M, L, c], tracked or constant.

    Every field of the result is [M*L, hidden] with rows (m, t)-major.
    """
    m, length, c = x.shape
    history = ad.causal_linear(x, w["hie_w"], w["hie_b"])
    joint = ad.concat([ad.reshape(x, (m * length, c)), history], axis=1)
    gate = ad.sigmoid(ad.linear(joint, w["gate_w"], w["gate_b"]))
    candidate = ad.tanh(ad.linear(joint, w["cand_w"], w["cand_b"]))
    output = ad.lerp(gate, history, candidate)
    return PgnOutput(history=history, gate=gate, candidate=candidate, output=output)


def pgn_forward(x, params: PgnParams) -> PgnOutput:
    """Untracked cell forward of one sequence [L, c]; every field is [L, hidden]."""
    x = np.asarray(x, dtype=np.float64)
    _check_input(x, params)
    return pgn_apply(ad.constant(x[None]), params.constants())


def pgn_forward_oracle(x, params: PgnParams) -> PgnOutput:
    """Reference cell: a literal per-step loop with explicit history slices.

    Shares nothing with :func:`pgn_forward` beyond the parameter struct; each
    step rebuilds its zero-padded window from the raw input.  Used to pin the
    batched implementation down to floating-point noise.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_input(x, params)
    L, c = x.shape
    d = params.hidden
    history = np.empty((L, d))
    gate = np.empty((L, d))
    candidate = np.empty((L, d))
    output = np.empty((L, d))
    for t in range(L):
        window = np.zeros((L - 1, c))
        past = x[max(0, t - (L - 1)):t]
        if len(past):
            window[L - 1 - len(past):] = past
        h_t = params.hie_w @ window.reshape(-1) + params.hie_b
        joint = np.concatenate([x[t], h_t])
        z_g = params.gate_w @ joint + params.gate_b
        e = np.exp(-np.abs(z_g))
        g_t = np.where(z_g >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        c_t = np.tanh(params.cand_w @ joint + params.cand_b)
        history[t] = h_t
        gate[t] = g_t
        candidate[t] = c_t
        output[t] = g_t * h_t + (1.0 - g_t) * c_t
    return PgnOutput(history=ad.constant(history), gate=ad.constant(gate),
                     candidate=ad.constant(candidate), output=ad.constant(output))


def pgn_macs(length: int, in_channels: int, hidden: int) -> int:
    """Multiply-accumulates of one cell forward over a length-L sequence.

    The history term is the dense L*(L-1)*c*d count, padding zeros
    included, on which criterion 4 is defined; ``causal_linear`` executes
    fewer where it splits the sequence into step blocks.
    """
    hie = length * (length - 1) * in_channels * hidden
    gates = 2 * length * (hidden + in_channels) * hidden
    return hie + gates

