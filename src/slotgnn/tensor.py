"""Dense 2-D to 4-D tensors with a reverse-mode autodiff tape.

Only the operations the model actually needs are provided. Tensors wrap
numpy arrays and are treated as immutable after creation. A tensor built
from raw data is float32 unless given a dtype; an op's output keeps the
dtype of its inputs, so a model computes in its parameters' dtype.
Recording happens on an explicit :class:`Tape` that is active for one
forward pass. Reverse accumulation walks the tape in reverse creation
order, which is a valid topological order because the tape is append-only.
Message passing is two fused ops per relation, :func:`edge_attention` (which
forms K W itself) and :func:`edge_aggregate`, one tape node each, on node
blocks (n, F, d) with head m in columns [m d_h, (m+1) d_h). Backward keeps only
the attention weights and K W and gathers again; layouts change once per node
before a gather, so batched products read C-contiguous blocks.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse


class TensorError(Exception):
    pass


class ShapeError(TensorError):
    pass


class NonFiniteError(TensorError):
    pass


class TapeError(TensorError):
    pass


_ACTIVE_TAPE: "Tape | None" = None


def _check_finite(arr: np.ndarray) -> None:
    # cheap screen first: any nan/inf makes the sum non-finite, and a finite
    # sum that merely overflowed is cleared by the precise pass
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(arr.sum()):
            return
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("non-finite value produced")


class Tensor:
    """A dense real tensor, optionally tracked by the active tape."""

    __slots__ = ("data", "requires_grad", "name", "_tape", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None, dtype=np.float32):
        arr = np.asarray(data, dtype=dtype)
        _check_finite(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.name = name
        self._tape: Tape | None = None
        self._node: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{tag})"


class _Node:
    __slots__ = ("out", "parents", "backward")

    def __init__(self, out: Tensor, parents: tuple[Tensor, ...], backward: Callable):
        self.out = out
        self.parents = parents
        self.backward = backward


class Tape:
    """Append-only record of one forward pass.

    ``backward`` may be called once; the tape is consumed afterwards. It
    returns the gradient of every leaf (a requires_grad tensor that feeds a
    recorded operation, or one in ``watch``); leaves keep no gradient of
    their own.
    """

    def __init__(self, watch: Iterable[Tensor] = ()):
        self.nodes: list[_Node] = []
        self.consumed = False
        self._watched: dict[int, Tensor] = {id(t): t for t in watch}
        self._prev_tape: Tape | None = None

    def __enter__(self) -> "Tape":
        global _ACTIVE_TAPE
        self._prev_tape = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc) -> None:
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev_tape

    def record(self, out: Tensor, parents: tuple[Tensor, ...], backward: Callable) -> None:
        if self.consumed:
            raise TapeError("cannot record on a consumed tape")
        out._tape = self
        out._node = len(self.nodes)
        self.nodes.append(_Node(out, parents, backward))
        for p in parents:
            if p.requires_grad and p._node is None:
                self._watched[id(p)] = p

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Reverse accumulation from a scalar loss recorded on this tape.

        Returns a table mapping every watched leaf to its gradient; leaves not
        on any path to the loss get zero gradients.
        """
        if self.consumed:
            raise TapeError("backward called twice on a consumed tape")
        if loss.data.shape != ():
            raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")
        if loss._tape is not self:
            raise TapeError("loss was not recorded on this tape")
        self.consumed = True

        # every recorded tensor points back at this tape; handing the records
        # to locals breaks that cycle, so a step's tensors are freed by
        # reference counting as soon as the caller lets go of them
        nodes, watched = self.nodes, self._watched
        self.nodes, self._watched = [], {}

        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
        for node in reversed(nodes):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue
            partials = node.backward(g)
            for parent, pg in zip(node.parents, partials):
                if pg is None or not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg

        return {
            leaf: grads[id(leaf)] if id(leaf) in grads else np.zeros_like(leaf.data)
            for leaf in watched.values()
        }


def _make(
    out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn: Callable, screen: bool = True
) -> Tensor:
    """Wrap an op's output and record it. Ops that only move values of their
    inputs, which were screened when they were made, pass ``screen=False``."""
    requires = any(p.requires_grad for p in parents)
    if screen:
        out = Tensor(out_data, requires_grad=requires, dtype=out_data.dtype)
    else:
        out = Tensor.__new__(Tensor)
        out.data, out.requires_grad, out.name, out._tape, out._node = (
            out_data, requires, None, None, None
        )
    if requires and _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record(out, parents, backward_fn)
    return out


def xavier_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int, shape=None, name=None, dtype=np.float32
) -> Tensor:
    """Trainable tensor initialized Xavier-uniform for the given fan."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    data = rng.uniform(-bound, bound, size=shape if shape is not None else (fan_in, fan_out))
    return Tensor(data, requires_grad=True, name=name, dtype=dtype)


def zero_param(shape: Sequence[int], name=None, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True, name=name, dtype=dtype)


# ---------------------------------------------------------------------------
# elementwise and linear algebra


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also allows adding a length-d row vector to each row."""
    same = a.shape == b.shape
    if not same and not (b.ndim == 1 and a.ndim >= 2 and a.shape[-1] == b.shape[0]):
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        return g, g if same else g.reshape(-1, b.shape[0]).sum(axis=0)

    return _make(a.data + b.data, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")

    def back(g):
        return g * b.data, g * a.data

    return _make(a.data * b.data, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g):
        return (g * c,)

    return _make(a.data * np.asarray(c, dtype=a.dtype), (a,), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b with b 2-D; a may be 2-D or a stack (3-D), run as
    one flat (N*F, k) GEMM where numpy would run one per leading row."""
    if b.ndim != 2 or a.ndim not in (2, 3):
        raise ShapeError(f"matmul: unsupported ranks {a.ndim} @ {b.ndim}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    k, n = b.shape

    def back(g):
        ga = (g.reshape(-1, n) @ b.data.T).reshape(a.shape)
        gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
        return ga, gb

    return _make((a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (n,)), (a, b), back)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over matching leading dims: (..., m, k) @ (..., k, n)."""
    if a.ndim < 3 or a.shape[:-2] != b.shape[:-2] or a.shape[-1:] != b.shape[-2:-1]:
        raise ShapeError(f"bmm: incompatible shapes {a.shape} @ {b.shape}")

    def back(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return ga, gb

    return _make(a.data @ b.data, (a, b), back)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    old = a.shape

    def back(g):
        return (g.reshape(old),)

    return _make(a.data.reshape(shape), (a,), back, screen=False)


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def back(g):
        return (g.transpose(inv),)

    return _make(a.data.transpose(axes), (a,), back, screen=False)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along ``axis``; slices stay recoverable at their offsets."""
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    ndim = tensors[0].ndim
    if axis < 0 or axis >= ndim:
        raise ShapeError(f"concat: axis {axis} out of range for rank {ndim}")
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        if t.ndim != ndim:
            raise ShapeError("concat: rank mismatch")
        other = list(t.shape)
        if base[:axis] + base[axis + 1:] != other[:axis] + other[axis + 1:]:
            raise ShapeError(f"concat: dimension mismatch {tensors[0].shape} vs {t.shape}")
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        return tuple(
            g[(slice(None),) * axis + (slice(offsets[i], offsets[i + 1]),)]
            for i in range(len(sizes))
        )

    data = np.concatenate([t.data for t in tensors], axis=axis)
    return _make(data, tuple(tensors), back, screen=False)


# ---------------------------------------------------------------------------
# reductions and normalization


def reduce_sum(a: Tensor) -> Tensor:
    """Sum of every element: a scalar."""
    def back(g):
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=True),)

    return _make(a.data.sum(), (a,), back)


def reduce_mean(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Arithmetic mean along one axis; the gradient distributes 1/n."""
    if a.shape[axis] == 0:
        raise ShapeError("reduce_mean: empty axis")
    n = a.shape[axis]

    def back(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / n, a.shape).astype(a.dtype, copy=True),)

    return _make(a.data.mean(axis=axis, keepdims=keepdims), (a,), back)


def softmax(a: Tensor, axis: int) -> Tensor:
    """Exp-normalization along ``axis`` with max-subtraction for stability."""
    if axis < -a.ndim or axis >= a.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for rank {a.ndim}")
    if a.shape[axis] == 0:
        raise ShapeError("softmax: empty axis")
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _make(y, (a,), back)


# ---------------------------------------------------------------------------
# indexed ops used by message passing


class Segments:
    """Membership of rows in segments, reduced without ``ufunc.at`` scatters.

    ``ids[r]`` names the segment of row r; the ids need not be sorted.
    ``indptr`` is the CSR row pointer of the rows stably sorted by segment.
    ``sum`` is one product with a boolean CSR matrix whose rows list their
    members in ascending row order, so it adds in the same order as
    ``np.add.at``, to the bit, in the dtype of the rows it sums. ``max`` runs
    ``np.maximum.reduceat`` over the non-empty segments, on the rows stably
    sorted by segment (the sort is kept only when ``ids`` is unsorted); empty
    segments get -inf. Build one per index array and reuse it: the graph's
    views hold one per edge endpoint. The matrix is built at the first sum.
    """

    def __init__(self, ids, num_segments: int):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1 or (ids.size and (ids.min() < 0 or ids.max() >= num_segments)):
            raise ShapeError(f"segment ids must be a vector in [0, {num_segments})")
        self.ids = ids
        self.num_segments = num_segments
        self.order = None if np.all(ids[1:] >= ids[:-1]) else np.argsort(ids, kind="stable")
        counts = np.bincount(ids, minlength=num_segments)
        self.indptr = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self._nonempty = np.flatnonzero(counts)
        # sorted, one row per segment: row r is segment r
        self.identity = self.order is None and ids.size == self._nonempty.size == num_segments

    @functools.cached_property
    def _matrix(self) -> scipy.sparse.csr_array:
        cols = np.arange(self.ids.size) if self.order is None else self.order
        ones = np.ones(cols.size, dtype=bool)
        return scipy.sparse.csr_array((ones, cols, self.indptr), (self.num_segments, cols.size))

    def sum(self, x: np.ndarray) -> np.ndarray:
        """Per-segment sums of the rows of ``x``: (num_segments, *x.shape[1:])."""
        flat = x.reshape(x.shape[0], math.prod(x.shape[1:]))
        return (self._matrix @ flat).reshape((self.num_segments,) + x.shape[1:])

    def max(self, x: np.ndarray) -> np.ndarray:
        """Per-segment maxima of the rows of ``x``; -inf for empty segments."""
        out = np.full((self.num_segments,) + x.shape[1:], -np.inf, dtype=x.dtype)
        if self._nonempty.size:
            rows = x if self.order is None else x[self.order]
            out[self._nonempty] = np.maximum.reduceat(rows, self.indptr[self._nonempty], axis=0)
        return out


def gather(a: Tensor, idx) -> Tensor:
    """Select rows along axis 0; the gradient sums back into each row.

    ``idx`` is an index array or a prebuilt :class:`Segments` over the rows
    of ``a``; an array is turned into one only if backward runs. An identity
    ``Segments`` returns ``a`` itself.
    """
    if isinstance(idx, Segments):
        if idx.num_segments != a.shape[0]:
            raise ShapeError(f"gather: Segments has {idx.num_segments} segments, want {a.shape[0]}")
        if idx.identity:
            return a
        ids = idx.ids
    else:
        ids = np.asarray(idx, dtype=np.int64)

    def back(g):
        return ((idx if isinstance(idx, Segments) else Segments(ids, a.shape[0])).sum(g),)

    return _make(a.data[ids], (a,), back, screen=False)


def _edge_rows(x: np.ndarray, seg: Segments) -> np.ndarray:
    # per-node blocks onto the edges, C-contiguous: a layout change costs once per node
    x = np.ascontiguousarray(x)
    return x if seg.identity else x[seg.ids]


def _heads_t(x: np.ndarray, heads: int) -> np.ndarray:
    """(n, F, d) -> (n, H, d_h, F), a view: each head's columns of every slot, transposed."""
    return x.reshape(*x.shape[:2], heads, x.shape[2] // heads).transpose(0, 2, 3, 1)


def edge_attention(
    keys: Tensor, q: Tensor, att: Tensor, src: Segments, dst: Segments, mode: str = "joint",
    scale: float = 1.0, scale_outside: bool = False,
) -> Tensor:
    """Attention blocks (E, H, F_s, F_t) of the edges ``src[e] -> dst[e]``.

    ``keys`` (n_src, F_s, d) and ``q`` (n_dst, F_t, d) hold head m in columns
    [m d_h, (m+1) d_h); ``att`` (H, d_h, d_h) holds one weight block per head.
    K W is one product per head over every (node, slot) row. The logits
    (K W)[s] q[t]^T are scaled before the softmax, or after it with
    ``scale_outside``. ``joint`` normalizes over a target's (edge, source
    slot) pairs per target slot, ``literal`` over its edges per slot pair.
    """
    ids, joint = dst.ids, {"joint": True, "literal": False}[mode]
    heads, d_h = att.shape[0], att.shape[-1]
    d = heads * d_h
    got = (keys.ndim, q.ndim, keys.shape[::2], q.shape[::2], att.shape, len(src.ids))
    if got != (3, 3, (src.num_segments, d), (dst.num_segments, d), (heads, d_h, d_h), len(ids)):
        raise ShapeError(f"edge_attention: {keys.shape}, {q.shape}, {att.shape} do not fit the edges")
    n_s, f_s, _ = keys.shape

    def pool(ufunc, a):
        # joint: also reduce the source slots, slice by slice, as numpy's own
        # reduction over a non-last axis is several times slower
        if not joint:
            return a
        out = a[..., 0, :].copy()
        for i in range(1, a.shape[-2]):
            ufunc(out, a[..., i, :], out=out)
        return out

    def spread(a):  # per-target statistics back onto the edges
        return np.expand_dims(a[ids], -2) if joint else a[ids]

    rows = keys.data.reshape(n_s * f_s, heads, d_h).transpose(1, 0, 2)
    kw = rows @ att.data  # (H, n_s F_s, d_h)
    _check_finite(kw)
    kw, q_t = kw.reshape(heads, n_s, f_s, d_h).transpose(1, 0, 2, 3), _heads_t(q.data, heads)
    x = _edge_rows(kw, src) @ _edge_rows(q_t, dst)
    if not scale_outside:
        x *= np.asarray(scale, dtype=x.dtype)
    x -= spread(dst.max(pool(np.maximum, x)))
    y = np.exp(x, out=x)
    y /= spread(dst.sum(pool(np.add, y)))

    def back(g):
        g = g * scale if scale_outside else g
        gx = y * (g - spread(dst.sum(pool(np.add, g * y))))
        gx = gx if scale_outside else gx * scale
        g_q = dst.sum(_edge_rows(np.swapaxes(kw, -1, -2), src) @ gx)
        g_kw = src.sum(gx @ _edge_rows(np.swapaxes(q_t, -1, -2), dst))
        g_kw = g_kw.transpose(1, 0, 2, 3).reshape(rows.shape)
        g_keys = (g_kw @ np.swapaxes(att.data, -1, -2)).transpose(1, 0, 2).reshape(keys.shape)
        return g_keys, g_q.transpose(0, 3, 1, 2).reshape(q.shape), np.swapaxes(rows, -1, -2) @ g_kw

    return _make(y * np.asarray(scale, dtype=y.dtype) if scale_outside else y, (keys, q, att), back)


def edge_aggregate(attn: Tensor, ext: Tensor, src: Segments, dst: Segments) -> Tensor:
    """Per target, the sum over its edges of attn[e]^T ext[s] per head:
    (n_dst, F_t, d), zeros for a target without edges. ``attn`` is
    (E, H, F_s, F_t), ``ext`` (n_src, F_s, d) with head m in columns
    [m d/H, (m+1) d/H). Edges add in storage order. Backward gathers again.
    """
    e, heads, f_s, f_t = attn.shape
    n_dst, d = dst.num_segments, ext.shape[2]
    if d % heads or ext.shape[:2] != (src.num_segments, f_s) or {len(src.ids), len(dst.ids)} != {e}:
        raise ShapeError(f"edge_aggregate: {attn.shape} and {ext.shape} do not fit the edges")

    # ext^T attn per edge and head, so that both operands are C-contiguous
    ext_t = _heads_t(ext.data, heads)
    msg_t = dst.sum(_edge_rows(ext_t, src) @ attn.data)

    def back(g):
        g_t = _heads_t(g, heads)
        g_attn = _edge_rows(np.swapaxes(ext_t, -1, -2), src) @ _edge_rows(g_t, dst)
        g_ext = src.sum(attn.data @ _edge_rows(np.swapaxes(g_t, -1, -2), dst))
        return g_attn, g_ext.transpose(0, 2, 1, 3).reshape(ext.shape)

    return _make(msg_t.transpose(0, 3, 1, 2).reshape(n_dst, f_t, d), (attn, ext), back)


# ---------------------------------------------------------------------------
# fused losses (numerically stable forward, hand-derived backward)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of row-wise softmax against integer class labels."""
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError("softmax_cross_entropy: one label per row required")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise ValueError("label index out of range")
    x = logits.data
    m = x.max(axis=1, keepdims=True)
    z = x - m
    lse = np.log(np.exp(z).sum(axis=1)) + m[:, 0]
    losses = lse - x[np.arange(n), labels]
    out_data = np.asarray(losses.mean(), dtype=x.dtype)

    def back(g):
        p = np.exp(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _make(out_data, (logits,), back)


def logistic_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean elementwise logistic loss against 0/1 targets (multi-label)."""
    targets = np.asarray(targets, dtype=logits.dtype)
    if targets.shape != logits.shape:
        raise ShapeError("logistic_loss: targets must match logits shape")
    x = logits.data
    losses = np.maximum(x, 0) - x * targets + np.log1p(np.exp(-np.abs(x)))
    out_data = np.asarray(losses.mean(), dtype=x.dtype)
    count = x.size

    def back(g):
        sig = 1.0 / (1.0 + np.exp(-x))
        return (g * (sig - targets) / count,)

    return _make(out_data, (logits,), back)


# ---------------------------------------------------------------------------
# gradient verification


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Iterable[Tensor],
    h: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` must be a deterministic scalar function of ``params`` evaluated in
    64-bit mode; determinism is verified by evaluating twice.
    """
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError("finite_diff_check requires float64 parameters")

    v1 = f().item()
    v2 = f().item()
    if v1 != v2:
        raise ValueError("finite_diff_check: f is not deterministic")

    with Tape() as tape:
        loss = f()
        # a loss that never touched the tape is constant in the params
        table = tape.backward(loss) if loss._tape is tape else {}

    worst = 0.0
    for p in params:
        g_ad = table.get(p)
        if g_ad is None:
            g_ad = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f().item()
            flat[i] = orig - h
            down = f().item()
            flat[i] = orig
            g_fd = (up - down) / (2.0 * h)
            g = g_ad.reshape(-1)[i]
            err = abs(g - g_fd) / max(1e-8, abs(g) + abs(g_fd))
            worst = max(worst, err)
    return worst
