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

The tape also keeps byte totals, which the benchmark harness reports as
``peak_bytes``: the highest live total of the memory owners the tape has
held or handed out, which are forward values, operands and every gradient
``backward`` creates, intermediate ones included.  A view counts as its
base, once.  An owner's bytes are added when the tape first sees it and
taken off by a weak-reference callback when it dies, so ``live_bytes`` is
what is alive now.  Scratch arrays inside a primitive or its vjp are not
counted: ``causal_linear`` counts its input [M, L, c], not the
[M*L, (L-1)*c] windows it builds block by block and rebuilds in its vjp.
Owners are told apart by ``id()`` plus a weak reference, so an id that
CPython reuses after an array died counts the new array, and identical
steps report identical peaks.  The callbacks hold the totals, never the
tape, so a dropped tape is freed at once, without the cyclic collector.

Building the first ``Graph`` sets one process-wide glibc allocator policy
(:func:`_keep_step_memory`), so every tape's freed memory serves the next
one; a process that builds no tape keeps the C library's defaults.
"""

from __future__ import annotations

import ctypes
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
    "causal_blocks",
    "sequence_blocks",
    "small_gemm",
    "causal_linear",
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


class _Node:
    """One recorded primitive: kind, operand node ids, and its vjp.

    The vjp maps the output gradient to one entry per operand, ``None``
    for an operand that was untracked when the node was recorded.
    """

    __slots__ = ("op", "parents", "vjp", "shape")

    def __init__(self, op: str, parents: tuple[int | None, ...],
                 vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None,
                 shape: tuple[int, ...]):
        self.op = op
        self.parents = parents
        self.vjp = vjp
        self.shape = shape


class _ByteTotals:
    """Live and peak bytes of a tape's memory owners.

    The tape and the weak-reference callbacks hold this; it holds neither,
    so the callbacks keep no tape alive.
    """

    __slots__ = ("live", "peak")

    def __init__(self):
        self.live = self.peak = 0

    def add(self, nbytes: int) -> None:
        self.live += nbytes
        if self.live > self.peak:
            self.peak = self.live

    def release(self, nbytes: int, _ref) -> None:
        self.live -= nbytes


def _owner_ref(owner, totals: _ByteTotals) -> Callable[[], object]:
    """A weak reference to ``owner`` that takes its bytes off ``totals`` when
    it dies; numpy scalars take none, so the tape holds their few bytes."""
    try:
        return weakref.ref(owner, functools.partial(totals.release, owner.nbytes))
    except TypeError:
        return lambda: owner


# glibc's mallopt parameter numbers, and the largest value it takes (a C int)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_BELOW = 2**31 - 1


@functools.cache
def _keep_step_memory() -> None:
    """Keep the memory a freed tape leaves in the heap for the next tape.

    By default glibc unmaps every freed block above its mmap threshold (at
    most 32 MiB) and trims the heap top once more than twice that lies
    free, so each training step faulted its buffers in again: about 3k
    minor faults per protocol step and 6k (``full``) to 107k (``gru``) at
    1440->720, where one activation is 47 MB.  With both thresholds at
    about 2 GiB these steps take almost none.  The mmap threshold goes
    first: a trim threshold alone would pin the mmap threshold at 128 KiB.

    Process-wide, set once, and no computed value changes.  A C library
    without ``mallopt``, or one that refuses the value, keeps its defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _KEEP_BELOW):
        mallopt(_M_TRIM_THRESHOLD, _KEEP_BELOW)


class Graph:
    """Append-only tape.  Parents of node i always have index < i."""

    def __init__(self):
        _keep_step_memory()
        self.nodes: list[_Node] = []
        # counted owners by id(), each with a reference that checks identity:
        # an id CPython reuses for a new array after the old one died
        # counts again
        self._seen_owners: dict[int, Callable[[], object]] = {}
        self._bytes = _ByteTotals()

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def live_bytes(self) -> int:
        """Bytes of the counted owners alive now."""
        return self._bytes.live

    @property
    def peak_bytes(self) -> int:
        """The highest :attr:`live_bytes` so far."""
        return self._bytes.peak

    def _note_bytes(self, arr: np.ndarray) -> None:
        owner = arr
        while isinstance(owner.base, np.ndarray):
            owner = owner.base
        seen = self._seen_owners.get(id(owner))
        if seen is None or seen() is not owner:
            self._seen_owners[id(owner)] = _owner_ref(owner, self._bytes)
            self._bytes.add(owner.nbytes)

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

    def items(self):
        return self._grads.items()


# ---------------------------------------------------------------------------
# helpers

def _to_array(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def constant(x) -> Tensor:
    """An untracked tensor; operations on constants stay off the tape.
    A Tensor is returned as it is, so every op takes arrays or tensors."""
    return x if isinstance(x, Tensor) else Tensor(_to_array(x))


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
    a, b = constant(a), constant(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    value = a.data @ b.data
    ad, bd = a.data, b.data
    need_a, need_b = a.tracked, b.tracked

    def vjp(g):
        return (g @ bd.T if need_a else None, ad.T @ g if need_b else None)

    return _emit("matmul", (a, b), value, vjp)


def _elementwise(op: str, a, b) -> Tensor:
    a, b = constant(a), constant(b)
    _check_broadcast(a, b, op)
    ad, bd = a.data, b.data
    ashape, bshape = a.shape, b.shape
    need_a, need_b = a.tracked, b.tracked
    if op == "add":
        value = ad + bd

        def vjp(g):
            return (_unbroadcast(g, ashape) if need_a else None,
                    _unbroadcast(g, bshape) if need_b else None)
    elif op == "sub":
        value = ad - bd

        def vjp(g):
            return (_unbroadcast(g, ashape) if need_a else None,
                    _unbroadcast(-g, bshape) if need_b else None)
    elif op == "mul":
        value = ad * bd

        def vjp(g):
            return (_unbroadcast(g * bd, ashape) if need_a else None,
                    _unbroadcast(g * ad, bshape) if need_b else None)
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
    a = constant(a)
    x = a.data
    # two scratch buffers, written in place: this runs on the model's
    # largest activations, where every fresh buffer is pages to fault in
    e, d = np.empty_like(x), np.empty_like(x)
    np.exp(np.negative(np.abs(x, out=e), out=e), out=e)
    np.add(1.0, e, out=d)
    np.divide(e, d, out=e)    # e / (1 + e), the value where x < 0
    np.divide(1.0, d, out=d)  # 1 / (1 + e), the value where x >= 0
    value = np.where(x >= 0, d, e)

    # this vjp, tanh's and lerp's group every product as the plain
    # expressions g*v*(1-v), g*(1-v*v), g*(a-b) and g*(1-gate) do, so
    # writing into fewer fresh buffers leaves the bits unchanged
    def vjp(g):
        dx = g * value
        dx *= 1.0 - value
        return (dx,)

    return _emit("sigmoid", (a,), value, vjp)


def tanh(a) -> Tensor:
    a = constant(a)
    value = np.tanh(a.data)

    def vjp(g):
        dx = value * value
        np.subtract(1.0, dx, out=dx)
        dx *= g
        return (dx,)

    return _emit("tanh", (a,), value, vjp)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; every other dimension must agree."""
    ts = [constant(p) for p in parts]
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
    needs = [t.tracked for t in ts]

    def vjp(g):
        sl = [slice(None)] * rank
        out = []
        for i, need in enumerate(needs):
            sl[axis] = slice(offsets[i], offsets[i + 1])
            out.append(g[tuple(sl)] if need else None)
        return tuple(out)

    return _emit("concat", ts, value, vjp)


def _reduce(op: str, a, axis: int | None) -> Tensor:
    a = constant(a)
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
    a = constant(a)
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
    a = constant(a)
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
    a = constant(a)
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


# A row block of causal_linear is byte-equal to the dense product only where
# OpenBLAS computes both alike.  Measured with OpenBLAS 0.3.31 (Haswell DGEMM):
# an inner dimension of up to 384 is summed in one pass, in order, so leading
# zero slots add exactly nothing, while a longer one is split into K-blocks
# that a row block would cut elsewhere; and a GEMM with at most 1200 outputs
# goes to a small-matrix kernel with its own summation order.  Blocks of 4
# steps were fastest on the long-history cell ([768, 60, 5], d=128); shorter
# sequences and products of fewer than 8192 outputs per block lost to the
# per-block copies and calls.
_GEMM_K_BLOCK = 384
_BLOCK_STEPS = 4
_MIN_SPLIT_LENGTH = 24
_MIN_BLOCK_OUTPUTS = 8192


def causal_blocks(m: int, length: int, c: int, d: int) -> list[tuple[int, int]]:
    """Step blocks [s, e) that :func:`causal_linear` multiplies one at a time.

    ``m`` sequences of ``length`` steps and ``c`` channels map to ``d``
    outputs.  The plan is one block unless a split is byte-equal to the
    dense product and pays off; a split has blocks of 4 steps, the first
    one taking the remainder.  At ``d`` = 1 each block would be a GEMV,
    whose row sums depend on the row count, so that never splits.
    """
    if (d == 1 or (length - 1) * c > _GEMM_K_BLOCK or length < _MIN_SPLIT_LENGTH
            or m * _BLOCK_STEPS * d < _MIN_BLOCK_OUTPUTS):
        return [(0, length)]
    bounds = [0, *range(_BLOCK_STEPS + length % _BLOCK_STEPS, length + 1, _BLOCK_STEPS)]
    return list(zip(bounds, bounds[1:]))


# Independent items (column sequences, forecast windows) can run in row
# blocks: each output row of a GEMM above the small-matrix limit is summed
# alike however many rows the GEMM has.  Blocks whose activations fit about
# 1 MiB stay in cache instead of faulting in fresh pages (0.5 and 2 MiB
# measured within 10% of it); a block's smallest GEMM must stay above 1200
# outputs.  A product with one output column runs OpenBLAS's GEMV path
# instead, whose row blocks do not sum like the whole product, so it never
# splits.
_SEQUENCE_BLOCK_BYTES = 1 << 20
_SMALL_GEMM_OUTPUTS = 1200


def sequence_blocks(m: int, item_bytes: int, item_outputs: int,
                    columns: int) -> list[tuple[int, int]]:
    """Blocks [s, e) of ``m`` independent items that an untracked pass runs apart.

    Each item holds ``item_bytes`` of activations and adds ``item_outputs``
    outputs, in ``columns`` output columns, to the pass's smallest GEMM.
    The plan is one block when all items fit the byte budget or when
    ``columns`` is 1, otherwise just enough blocks of near-equal size
    (differing by at most one) to fit it, but never so many that a block's
    GEMM has 1200 outputs or fewer.
    """
    parts = 1 if columns == 1 else -(-m * item_bytes // _SEQUENCE_BLOCK_BYTES)
    parts = max(1, min(parts, m // (_SMALL_GEMM_OUTPUTS // item_outputs + 1)))
    bounds = [k * m // parts for k in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def small_gemm(outputs: int) -> bool:
    """Whether a GEMM with this many outputs takes OpenBLAS's small-matrix
    kernel, which sums in another order than the blocked one."""
    return outputs <= _SMALL_GEMM_OUTPUTS


def _zero_padded(x: np.ndarray) -> np.ndarray:
    """[M, L, c] -> [M, 2L-1, c] with L-1 zero steps in front."""
    m, length, c = x.shape
    padded = np.zeros((m, 2 * length - 1, c))
    padded[:, length - 1:] = x
    return padded


def _window_block(padded: np.ndarray, length: int, s: int, e: int) -> np.ndarray:
    """The last e-1 window slots of steps [s, e): [M*(e-s), (e-1)*c], rows (m, t)-major.

    Slot j of step t reads padded step t+j, so the slots are one strided
    view of the padded input; the reshape makes the one contiguous copy.
    """
    m, _, c = padded.shape
    sm, st, sc = padded.strides
    view = np.lib.stride_tricks.as_strided(
        padded[:, s + length - e:], (m, e - s, e - 1, c), (sm, st, st, sc),
        writeable=False)
    return view.reshape(m * (e - s), (e - 1) * c)


def causal_linear(x, w, b) -> Tensor:
    """History map of M stacked sequences: x [M, L, c] -> [M*L, d].

    Row m*L + t is ``w @ window + b`` with w [d, (L-1)*c] and b [d]; the
    window holds steps t-L+1 .. t-1 of sequence m (the L-1 steps strictly
    before t), oldest first with channels contiguous per step, and steps
    before 0 read as zeros.  Each step block of :func:`causal_blocks`
    multiplies only the window slots its last step can see, so most of the
    zero triangle is skipped, and no window matrix outlives the call: the
    vjp rebuilds it for ``w``'s gradient, which stays one GEMM over all
    rows in order.
    """
    x, w, b = constant(x), constant(w), constant(b)
    if x.data.ndim != 3 or x.shape[1] < 2 or w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError(
            "causal_linear expects x[M, L >= 2, c], w[d, (L-1)*c], b[d]; "
            f"got {x.shape}, {w.shape}, {b.shape}")
    m, length, c = x.shape
    d = w.shape[0]
    if w.shape[1] != (length - 1) * c or b.shape[0] != d:
        raise DimensionError(
            f"causal_linear shapes disagree: x {x.shape}, w {w.shape}, b {b.shape}")
    xd, wd, bd = x.data, w.data, b.data
    padded = _zero_padded(xd)
    value = np.empty((m, length, d))
    for s, e in causal_blocks(m, length, c, d):
        part = _window_block(padded, length, s, e) @ wd[:, (length - e) * c:].T
        np.add(part.reshape(m, e - s, d), bd, out=value[:, s:e])
    value = value.reshape(m * length, d)
    need_x, need_w, need_b = x.tracked, w.tracked, b.tracked

    def vjp(g):
        dx = dw = None
        if need_x:
            g4 = (g @ wd).reshape(m, length, length - 1, c)
            out = np.zeros((m, 2 * length - 1, c))
            for j in range(length - 1):  # window slot j of step t reads padded step t+j
                out[:, j:j + length] += g4[:, :, j, :]
            del g4  # as large as the window block that dw builds next
            dx = out[:, length - 1:]
        if need_w:
            dw = g.T @ _window_block(_zero_padded(xd), length, 0, length)
        return (dx, dw, g.sum(axis=0) if need_b else None)

    return _emit("causal_linear", (x, w, b), value, vjp)


def linear(x, w, b) -> Tensor:
    """Affine map x [..., n, k] -> x @ w.T + b with w [..., m, k] and b [..., m].

    Leading axes stack independent maps: slice i of x goes through slice i
    of w and b, each as the 2-D product it would be on its own.
    """
    x, w, b = constant(x), constant(w), constant(b)
    lead = x.shape[:-2]
    if (x.data.ndim < 2 or w.data.ndim != x.data.ndim or b.data.ndim != x.data.ndim - 1
            or w.shape[:-2] != lead or b.shape[:-1] != lead):
        raise DimensionError(
            "linear expects x[..., n, k], w[..., m, k], b[..., m] with equal leading "
            f"axes; got {x.shape}, {w.shape}, {b.shape}")
    if x.shape[-1] != w.shape[-1] or w.shape[-2] != b.shape[-1]:
        raise DimensionError(
            f"linear shapes disagree: x {x.shape}, w {w.shape}, b {b.shape}")
    value = x.data @ np.swapaxes(w.data, -1, -2)
    value += b.data[..., None, :]
    xd, wd = x.data, w.data
    need_x, need_w, need_b = x.tracked, w.tracked, b.tracked

    def vjp(g):
        return (g @ wd if need_x else None,
                np.swapaxes(g, -1, -2) @ xd if need_w else None,
                g.sum(axis=-2) if need_b else None)

    return _emit("linear", (x, w, b), value, vjp)


def lerp(gate, a, b) -> Tensor:
    """Gated fusion gate*a + (1-gate)*b, all three the same shape."""
    gate, a, b = constant(gate), constant(a), constant(b)
    if not gate.shape == a.shape == b.shape:
        raise DimensionError(
            f"lerp needs equal shapes, got {gate.shape}, {a.shape}, {b.shape}")
    gd, ad, bd = gate.data, a.data, b.data
    value = gd * ad
    rest = 1.0 - gd
    rest *= bd
    value += rest  # gd*ad + (1-gd)*bd from two fresh buffers, not four
    need_gate, need_a, need_b = gate.tracked, a.tracked, b.tracked

    def vjp(g):
        d_gate = d_b = None
        if need_gate:
            d_gate = ad - bd
            d_gate *= g
        if need_b:
            d_b = 1.0 - gd
            d_b *= g
        return (d_gate, g * gd if need_a else None, d_b)

    return _emit("lerp", (gate, a, b), value, vjp)


def repeat_rows(a, times: int) -> Tensor:
    """Repeat each row of a [n, d] tensor ``times`` consecutive times."""
    a = constant(a)
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

    Walks the tape in reverse creation order and sums fan-out in that fixed
    order, so results are deterministic.  A node's first contribution is
    adopted as its gradient (copied only to make it C-contiguous); a second
    one makes a fresh sum, and only such sums are added into in place, so
    no forward value and no array a vjp handed to two parents is written.
    Once a node's vjp has run, its gradient leaves the working map, so only
    the frontier of pending gradients is held, not one per node.
    Every leaf gets a writable, C-contiguous gradient of its own shape that
    shares no memory with another leaf's; leaves the root never touched get
    explicit zeros.
    """
    if not root.tracked:
        raise ContractError("backward root is not graph-tracked")
    if root.data.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    graph = root.graph
    grads: dict[int, np.ndarray] = {root.node_id: np.ones_like(root.data)}
    graph._note_bytes(grads[root.node_id])
    summed: set[int] = set()  # nodes whose gradient is a buffer allocated here
    for nid in range(root.node_id, -1, -1):
        node = graph.nodes[nid]
        if node.vjp is None or nid not in grads:
            continue
        contributions = node.vjp(grads[nid])
        for pg in contributions:
            if pg is not None:
                graph._note_bytes(pg)
        del grads[nid]
        for pid, pg in zip(node.parents, contributions):
            if pid is None or pg is None:
                continue
            if pid not in grads:
                # asarray keeps a 0-d shape, which ascontiguousarray does not
                grads[pid] = np.asarray(pg, order="C")
            elif pid in summed:
                grads[pid] += pg
            else:
                grads[pid] = np.asarray(grads[pid] + pg)  # 0-d sums come back as scalars
                summed.add(pid)
            graph._note_bytes(grads[pid])
        contributions = pg = None  # the next vjp runs without these
    out: dict[int, np.ndarray] = {}
    bases: set[int] = set()  # memory owners behind adopted leaf gradients
    for lid in graph.leaf_ids():
        grad = grads.get(lid)
        if grad is None:
            grad = np.zeros(graph.nodes[lid].shape, dtype=np.float64)
        elif lid not in summed:
            base = grad if grad.base is None else grad.base
            if id(base) in bases:
                grad = grad.copy()
            else:
                bases.add(id(base))
        out[lid] = grad
        graph._note_bytes(grad)
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
