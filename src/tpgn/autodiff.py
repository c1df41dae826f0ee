"""Dense float64 tensors with tape-based reverse-mode differentiation.

The engine is deliberately small: a ``Tensor`` wraps a numpy array, and a
``Graph`` is an append-only tape of primitive operations built while the
forward pass runs (define-by-run).  ``backward`` walks the tape once, in
reverse creation order, so gradient accumulation over fan-out happens in a
fixed order and repeated runs are bitwise identical.

Tensors are immutable values: never write into ``Tensor.data`` after
creation.  A tensor is *tracked* when it carries a ``(graph, node_id)``
pair; operations record a tape node whenever at least one operand is
tracked, and stay plain numpy otherwise.  That split keeps data
preparation off the tape for free.

The tape also keeps a byte counter, which the benchmark harness reports
as ``peak_bytes``.  It is not a peak: it sums the bytes of every array
the tape has seen (plus gradient buffers), never decreases, and counts a
reshape view again on top of its base.  Arrays are told apart by
``id()`` plus a weak reference, so an id that CPython reuses after
garbage collection cannot hide a new array, and identical steps report
identical totals.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "Graph",
    "GradientMap",
    "constant",
    "matmul",
    "add",
    "sub",
    "mul",
    "sigmoid",
    "tanh",
    "concat",
    "reduce_sum",
    "reduce_mean",
    "reshape",
    "permute",
    "slice_rows",
    "causal_windows",
    "linear",
    "lerp",
    "repeat_rows",
    "backward",
    "finite_diff_check",
    "ParamSet",
    "fan_in_uniform",
]


class Tensor:
    """A dense float64 array, optionally attached to a tape node."""

    __slots__ = ("data", "graph", "node_id")

    def __init__(self, data: np.ndarray, graph: "Graph | None" = None,
                 node_id: int | None = None):
        self.data = data
        self.graph = graph
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def tracked(self) -> bool:
        return self.node_id is not None

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tag = f", node={self.node_id}" if self.tracked else ""
        return f"Tensor(shape={self.shape}{tag})"

    # Operator sugar; all semantics live in the module-level functions.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


class _Node:
    """One recorded primitive: kind, operand node ids, and its vjp."""

    __slots__ = ("op", "parents", "vjp", "shape")

    def __init__(self, op: str, parents: tuple[int | None, ...],
                 vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None,
                 shape: tuple[int, ...]):
        self.op = op
        self.parents = parents
        self.vjp = vjp
        self.shape = shape


def _identity_ref(obj) -> Callable[[], object]:
    """A weak reference to ``obj``; numpy scalars take none, so their few
    bytes are held instead."""
    try:
        return weakref.ref(obj)
    except TypeError:
        return lambda: obj


class Graph:
    """Append-only tape.  Parents of node i always have index < i."""

    def __init__(self):
        self.nodes: list[_Node] = []
        # counted arrays by id(), each with a reference that checks identity:
        # an id CPython reuses for a new array after the old one died
        # counts again
        self._seen_arrays: dict[int, Callable[[], object]] = {}
        self.live_bytes: int = 0
        self.peak_bytes: int = 0

    def reset(self) -> None:
        """Drop every recorded node and the byte counters."""
        self.nodes.clear()
        self._seen_arrays.clear()
        self.live_bytes = 0
        self.peak_bytes = 0

    def __len__(self) -> int:
        return len(self.nodes)

    def _note_bytes(self, arr: np.ndarray) -> None:
        seen = self._seen_arrays.get(id(arr))
        if seen is None or seen() is not arr:
            self._seen_arrays[id(arr)] = _identity_ref(arr)
            self.live_bytes += arr.nbytes
            if self.live_bytes > self.peak_bytes:
                self.peak_bytes = self.live_bytes

    def leaf(self, value, op: str = "leaf") -> Tensor:
        """Record a tracked input (parameter or probe point)."""
        data = _to_array(value)
        self._note_bytes(data)
        self.nodes.append(_Node(op, (), None, data.shape))
        return Tensor(data, self, len(self.nodes) - 1)

    def _record(self, op: str, operands: Sequence[Tensor], value: np.ndarray,
                vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
        for t in operands:
            self._note_bytes(t.data)
        self._note_bytes(value)
        parents = tuple(t.node_id for t in operands)
        self.nodes.append(_Node(op, parents, vjp, value.shape))
        return Tensor(value, self, len(self.nodes) - 1)

    def leaf_ids(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.vjp is None]

    def longest_path(self, src: int, dst: int) -> int:
        """Longest chain of primitive ops from node ``src`` to node ``dst``.

        Counts recorded operations on the path, so a direct dependency has
        length 1 and an unreachable destination raises.
        """
        if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise ContractError(f"node ids out of range: {src}, {dst}")
        dist = [-1] * (dst + 1)
        if src <= dst:
            dist[src] = 0
            for i in range(src + 1, dst + 1):
                best = -1
                for p in self.nodes[i].parents:
                    if p is not None and dist[p] >= 0 and dist[p] > best:
                        best = dist[p]
                if best >= 0:
                    dist[i] = best + 1
        if dist[dst] < 0:
            raise ContractError(f"node {dst} is not reachable from node {src}")
        return dist[dst]


class GradientMap:
    """node_id -> gradient array, one entry per tracked leaf (zeros if unused)."""

    def __init__(self, grads: dict[int, np.ndarray]):
        self._grads = grads

    def __getitem__(self, key: "Tensor | int") -> np.ndarray:
        nid = key.node_id if isinstance(key, Tensor) else key
        if nid is None:
            raise ContractError("gradient requested for an untracked tensor")
        return self._grads[nid]

    def __contains__(self, key: "Tensor | int") -> bool:
        nid = key.node_id if isinstance(key, Tensor) else key
        return nid in self._grads

    def items(self):
        return self._grads.items()


# ---------------------------------------------------------------------------
# helpers

def _to_array(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(_to_array(x))


def constant(x) -> Tensor:
    """An untracked tensor; operations on constants stay off the tape."""
    return _as_tensor(x)


def _graph_of(*operands: Tensor) -> Graph | None:
    graph = None
    for t in operands:
        if t.graph is not None:
            if graph is None:
                graph = t.graph
            elif graph is not t.graph:
                raise ContractError("operands belong to different graphs")
    return graph


def _emit(op: str, operands: Sequence[Tensor], value: np.ndarray,
          vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    graph = _graph_of(*operands)
    if graph is None:
        return Tensor(value)
    return graph._record(op, operands, value, vjp)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` back down to ``shape`` after trailing-rule broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(
            f"{op}: shapes {a.shape} and {b.shape} are not broadcastable "
            "(trailing-dimension rule, size-1 dims stretch)") from None


# ---------------------------------------------------------------------------
# primitives

def matmul(a, b) -> Tensor:
    """Matrix product of a [m, k] and b [k, n]."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    value = a.data @ b.data
    ad, bd = a.data, b.data

    def vjp(g):
        return (g @ bd.T, ad.T @ g)

    return _emit("matmul", (a, b), value, vjp)


def _elementwise(op: str, a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a, b, op)
    ad, bd = a.data, b.data
    ashape, bshape = a.shape, b.shape
    if op == "add":
        value = ad + bd

        def vjp(g):
            return (_unbroadcast(g, ashape), _unbroadcast(g, bshape))
    elif op == "sub":
        value = ad - bd

        def vjp(g):
            return (_unbroadcast(g, ashape), _unbroadcast(-g, bshape))
    elif op == "mul":
        value = ad * bd

        def vjp(g):
            return (_unbroadcast(g * bd, ashape), _unbroadcast(g * ad, bshape))
    else:  # pragma: no cover - internal dispatch
        raise ContractError(f"unknown elementwise op {op!r}")
    return _emit(op, (a, b), value, vjp)


def add(a, b) -> Tensor:
    return _elementwise("add", a, b)


def sub(a, b) -> Tensor:
    return _elementwise("sub", a, b)


def mul(a, b) -> Tensor:
    return _elementwise("mul", a, b)


def sigmoid(a) -> Tensor:
    """Logistic function, overflow-safe for any finite input."""
    a = _as_tensor(a)
    e = np.exp(-np.abs(a.data))
    value = np.where(a.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def vjp(g):
        return (g * value * (1.0 - value),)

    return _emit("sigmoid", (a,), value, vjp)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    value = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - value * value),)

    return _emit("tanh", (a,), value, vjp)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; every other dimension must agree."""
    ts = [_as_tensor(p) for p in parts]
    if not ts:
        raise ContractError("concat needs at least one part")
    rank = ts[0].data.ndim
    if not 0 <= axis < rank:
        raise DimensionError(f"concat axis {axis} out of range for rank {rank}")
    for t in ts[1:]:
        if t.data.ndim != rank or any(
                i != axis and t.shape[i] != ts[0].shape[i] for i in range(rank)):
            raise DimensionError(
                f"concat: part shapes {[t.shape for t in ts]} disagree off axis {axis}")
    value = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        sl = [slice(None)] * rank
        out = []
        for i in range(len(sizes)):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            out.append(g[tuple(sl)])
        return tuple(out)

    return _emit("concat", ts, value, vjp)


def _reduce(op: str, a, axis: int | None) -> Tensor:
    a = _as_tensor(a)
    if axis is not None and not -a.data.ndim <= axis < a.data.ndim:
        raise DimensionError(f"reduce axis {axis} out of range for shape {a.shape}")
    if op == "sum":
        value = a.data.sum(axis=axis)
        scale = 1.0
    else:
        value = a.data.mean(axis=axis)
        scale = 1.0 / (a.data.size if axis is None else a.shape[axis])
    ashape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g * scale, ashape).copy(),)
        ge = np.expand_dims(g, axis) * scale
        return (np.broadcast_to(ge, ashape).copy(),)

    return _emit(op, (a,), value, vjp)


def reduce_sum(a, axis: int | None = None) -> Tensor:
    """Sum along ``axis`` (all elements when axis is None)."""
    return _reduce("sum", a, axis)


def reduce_mean(a, axis: int | None = None) -> Tensor:
    """Mean along ``axis`` (all elements when axis is None)."""
    return _reduce("mean", a, axis)


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise DimensionError(f"reshape {a.shape} -> {shape}: element counts differ")
    value = a.data.reshape(shape)
    ashape = a.shape

    def vjp(g):
        return (g.reshape(ashape),)

    return _emit("reshape", (a,), value, vjp)


def permute(a, order: Sequence[int]) -> Tensor:
    """Reorder axes; ``order`` must be a permutation of range(rank)."""
    a = _as_tensor(a)
    order = tuple(int(i) for i in order)
    if sorted(order) != list(range(a.data.ndim)):
        raise DimensionError(f"permute order {order} is not a permutation for shape {a.shape}")
    value = np.ascontiguousarray(np.transpose(a.data, order))
    inverse = tuple(np.argsort(order))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return _emit("permute", (a,), value, vjp)


def slice_rows(a, start: int, stop: int) -> Tensor:
    """Rows [start, stop) along the first axis."""
    a = _as_tensor(a)
    if a.data.ndim < 1:
        raise DimensionError("slice_rows needs rank >= 1")
    n = a.shape[0]
    if not 0 <= start <= stop <= n:
        raise DimensionError(f"slice_rows [{start}:{stop}] out of range for {n} rows")
    value = a.data[start:stop].copy()
    ashape = a.shape

    def vjp(g):
        out = np.zeros(ashape, dtype=np.float64)
        out[start:stop] = g
        return (out,)

    return _emit("slice_rows", (a,), value, vjp)


def causal_windows(a) -> Tensor:
    """History windows of M stacked sequences: [M, L, c] -> [M*L, (L-1)*c].

    Row m*L + t holds steps t-L+1 .. t-1 of sequence m (the L-1 steps
    strictly before t), oldest first with channels contiguous per step;
    steps before 0 read as zeros.
    """
    a = _as_tensor(a)
    if a.data.ndim != 3 or a.shape[1] < 2:
        raise DimensionError(f"causal_windows expects [M, L >= 2, c], got {a.shape}")
    m, length, c = a.shape
    width = length - 1
    padded = np.concatenate([np.zeros((m, width, c)), a.data], axis=1)
    view = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1)
    value = np.ascontiguousarray(view[:, :length].transpose(0, 1, 3, 2)).reshape(
        m * length, width * c)

    def vjp(g):
        g4 = g.reshape(m, length, width, c)
        out = np.zeros((m, width + length, c), dtype=np.float64)
        for j in range(width):  # window slot j of step t reads padded step t+j
            out[:, j:j + length] += g4[:, :, j, :]
        return (out[:, width:],)

    return _emit("causal_windows", (a,), value, vjp)


def linear(x, w, b) -> Tensor:
    """Affine map x [n, k] -> x @ w.T + b with w [m, k] and b [m]."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError(
            f"linear expects x[n,k], w[m,k], b[m]; got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[1] != w.shape[1] or w.shape[0] != b.shape[0]:
        raise DimensionError(
            f"linear shapes disagree: x {x.shape}, w {w.shape}, b {b.shape}")
    value = x.data @ w.data.T + b.data
    xd, wd = x.data, w.data

    def vjp(g):
        return (g @ wd, g.T @ xd, g.sum(axis=0))

    return _emit("linear", (x, w, b), value, vjp)


def lerp(gate, a, b) -> Tensor:
    """Gated fusion gate*a + (1-gate)*b, all three the same shape."""
    gate, a, b = _as_tensor(gate), _as_tensor(a), _as_tensor(b)
    if not gate.shape == a.shape == b.shape:
        raise DimensionError(
            f"lerp needs equal shapes, got {gate.shape}, {a.shape}, {b.shape}")
    gd, ad, bd = gate.data, a.data, b.data
    value = gd * ad + (1.0 - gd) * bd

    def vjp(g):
        return (g * (ad - bd), g * gd, g * (1.0 - gd))

    return _emit("lerp", (gate, a, b), value, vjp)


def repeat_rows(a, times: int) -> Tensor:
    """Repeat each row of a [n, d] tensor ``times`` consecutive times."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"repeat_rows expects rank 2, got {a.shape}")
    if times < 1:
        raise ContractError(f"repeat_rows times must be >= 1, got {times}")
    n, d = a.shape
    value = np.repeat(a.data, times, axis=0)

    def vjp(g):
        return (g.reshape(n, times, d).sum(axis=1),)

    return _emit("repeat_rows", (a,), value, vjp)


# ---------------------------------------------------------------------------
# reverse pass

def backward(root: Tensor) -> GradientMap:
    """Gradients of a scalar root w.r.t. every tracked leaf of its graph.

    Walks the tape in reverse creation order; fan-out accumulates by
    in-place summation in that fixed order, so results are deterministic.
    Leaves the root never touched get explicit zero gradients.
    """
    if not root.tracked:
        raise ContractError("backward root is not graph-tracked")
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    graph = root.graph
    grads: dict[int, np.ndarray] = {root.node_id: np.ones_like(root.data)}
    for nid in range(root.node_id, -1, -1):
        g = grads.get(nid)
        if g is None:
            continue
        node = graph.nodes[nid]
        if node.vjp is None:
            continue
        contributions = node.vjp(g)
        for pid, pg in zip(node.parents, contributions):
            if pid is None or pg is None:
                continue
            acc = grads.get(pid)
            if acc is None:
                acc = np.zeros(graph.nodes[pid].shape, dtype=np.float64)
                grads[pid] = acc
            acc += pg
    out: dict[int, np.ndarray] = {}
    for lid in graph.leaf_ids():
        if lid in grads:
            out[lid] = grads[lid]
        else:
            out[lid] = np.zeros(graph.nodes[lid].shape, dtype=np.float64)
        graph._note_bytes(out[lid])
    return GradientMap(out)


def finite_diff_check(f: Callable[[Tensor], Tensor], x, h: float = 1e-4) -> float:
    """Max relative disagreement between tape gradients and central differences.

    ``f`` maps a tensor to a scalar tensor and must be deterministic.  The
    comparison per coordinate is |fd - ad| / max(1, |fd|, |ad|).
    """
    if h <= 0:
        raise ContractError(f"step h must be positive, got {h}")
    x0 = _to_array(x)
    graph = Graph()
    xt = graph.leaf(x0)
    y = f(xt)
    if y.tracked:
        ad = backward(y)[xt]
    else:
        ad = np.zeros_like(x0)  # f never touched x

    worst = 0.0
    flat = x0.reshape(-1)
    for i in range(flat.size):
        bump = np.zeros_like(flat)
        bump[i] = h
        hi = f(constant((flat + bump).reshape(x0.shape))).item()
        lo = f(constant((flat - bump).reshape(x0.shape))).item()
        fd = (hi - lo) / (2.0 * h)
        a = float(ad.reshape(-1)[i])
        err = abs(fd - a) / max(1.0, abs(fd), abs(a))
        if err > worst:
            worst = err
    return worst


# ---------------------------------------------------------------------------
# parameter containers

def fan_in_uniform(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) draws; fan_in is the last axis."""
    bound = 1.0 / np.sqrt(shape[-1])
    return rng.uniform(-bound, bound, size=shape)


class ParamSet:
    """Base of every weight container.

    A subclass is a dataclass whose leading fields are its structural sizes
    and whose :meth:`shapes` lists its tensors in order, name -> shape; a
    dotted name such as ``cell.hie_w`` reaches into a nested container.
    Naming, tracking, constant views and validation all derive from that
    one table.
    """

    def shapes(self) -> dict[str, tuple[int, ...]]:
        raise NotImplementedError

    @classmethod
    def init(cls, *sizes_then_rng):
        """Sizes in field order, then a generator.  Matrices are drawn by
        :func:`fan_in_uniform` in table order; vectors start at zero."""
        *sizes, rng = sizes_then_rng
        if min(sizes) < 1:
            raise ContractError(f"{cls.__name__} sizes must be positive, got {sizes}")
        params = cls(*sizes)
        for name, shape in params.shapes().items():
            setattr(params, name, fan_in_uniform(rng, *shape) if len(shape) == 2
                    else np.zeros(shape))
        return params

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {name: functools.reduce(getattr, name.split("."), self)
                for name in self.shapes()}

    def leaf_into(self, graph: Graph) -> dict[str, Tensor]:
        """Track every weight on ``graph``; keys match :meth:`named_arrays`."""
        return {name: graph.leaf(a) for name, a in self.named_arrays().items()}

    def constants(self) -> dict[str, Tensor]:
        return {name: constant(a) for name, a in self.named_arrays().items()}

    def validate(self) -> None:
        for (name, arr), shape in zip(self.named_arrays().items(),
                                      self.shapes().values()):
            got = getattr(arr, "shape", None)
            if got != shape:
                raise DimensionError(f"{name} has shape {got}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ContractError(f"{name} contains non-finite entries")
