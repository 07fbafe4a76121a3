"""Dense 2-D to 4-D tensors with a reverse-mode autodiff tape.

Only the operations the model actually needs are provided. Tensors wrap
numpy arrays and are treated as immutable after creation, except the
parameters: once an optimizer is built, each parameter's array is a view
into the optimizer's one parameter vector, updated in place between tapes.
A tensor built from raw data is float32 unless given a dtype; an op's output
keeps the dtype of its inputs, so a model computes in its parameters' dtype.
Recording happens on an explicit :class:`Tape` that is active for one
forward pass; its gradient table holds the leaves the pass recorded. Reverse
accumulation walks the tape in reverse creation order, which is a valid
topological order because the tape is append-only. Every node computes
something: there is no op that only changes a shape, so callers build each
tensor in the shape its consumers read.
Message passing is two fused ops per relation, :func:`edge_attention` (which
forms K W itself) and :func:`edge_aggregate`, one tape node each, on node
blocks (n, F, d) with head m in columns [m d_h, (m+1) d_h). Only the logits and
the attention gradient are taken edge by edge, as batched products of blocks
gathered onto the edges. Every sum of weighted source blocks into targets (the
messages, and in backward the value, query and K W gradients) is one sparse
times dense product with the attention, or its softmax-input gradient, as a
block-diagonal edge matrix (g-SpMM, Wang et al., arXiv:1909.01315). The
structure of that matrix depends only on the view's edges and the shape, so
the view keeps it from the first product on, and a product lends it only its
data. Backward keeps only the attention weights and K W. The fusion head is
one more fused op, :func:`slot_fusion`, on the same layout, and so is each
affine map, :func:`affine`. Only raw data, the logits a loss reads and the
loss it returns are screened for NaN and inf (:class:`NonFiniteError`), one
pass each; an op's output is not. A non-finite value an op makes reaches the
logits, unless a softmax gives a -inf weight 0, so the fused ops screen what
their softmax reads: K W in :func:`edge_attention`, logits in :func:`slot_fusion`.
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
    if not np.isfinite(arr).all():
        raise NonFiniteError("non-finite value produced")


class Tensor:
    """A dense real tensor, optionally taped; screened for NaN and inf if built from raw data."""

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
    returns the gradient of every leaf the pass recorded (a requires_grad
    tensor that feeds a recorded operation); leaves keep no gradient of their
    own. A parameter the pass never reached is not in the table.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False
        self._leaves: dict[int, Tensor] = {}
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
                self._leaves[id(p)] = p

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Reverse accumulation from a scalar loss recorded on this tape.

        Returns a table mapping every recorded leaf to its gradient; a leaf
        not on any path to the loss gets a zero gradient.
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
        nodes, leaves = self.nodes, self._leaves
        self.nodes, self._leaves = [], {}

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
            for leaf in leaves.values()
        }


def _make(out_data: np.ndarray, parents: tuple[Tensor, ...], backward_fn: Callable) -> Tensor:
    """Wrap an op's output, unscreened (see the module docstring), and record it."""
    requires = any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad = out_data, requires
    out.name = out._tape = out._node = None
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
    """Elementwise product; ``b`` may have length 1 on axes where ``a`` does
    not, as a per-slot scale (n, F, 1) of blocks (n, F, d) does. An input that
    requires no gradient gets none."""
    if a.ndim != b.ndim or any(m not in (n, 1) for n, m in zip(a.shape, b.shape)):
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    spread = tuple(i for i, (n, m) in enumerate(zip(a.shape, b.shape)) if n != m)

    def back(g):
        g_b = None
        if b.requires_grad:
            g_b = g * a.data
            g_b = g_b.sum(axis=spread, keepdims=True) if spread else g_b
        return (g * b.data if a.requires_grad else None), g_b

    return _make(a.data * b.data, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b with b 2-D; a may be 2-D or a stack (3-D), run as
    one flat (N*F, k) GEMM where numpy would run one per leading row."""
    if b.ndim != 2 or a.ndim not in (2, 3):
        raise ShapeError(f"matmul: unsupported ranks {a.ndim} @ {b.ndim}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    k, n = b.shape

    def back(g):
        g = g.reshape(-1, n)
        return (g @ b.data.T).reshape(a.shape), a.data.reshape(-1, k).T @ g

    return _make((a.data.reshape(-1, k) @ b.data).reshape(a.shape[:-1] + (n,)), (a, b), back)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b, the length-n bias ``b`` added to every row of the product:
    ``add(matmul(x, w), b)`` to the bit, as one tape node. ``x`` may be 2-D or
    a stack (3-D); it gets no gradient when it requires none."""
    if w.ndim != 2 or x.ndim not in (2, 3) or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"affine: {x.shape} @ {w.shape} + {b.shape} do not fit")
    k, n = w.shape
    rows = x.data.reshape(-1, k)
    out = rows @ w.data
    out += b.data

    def back(g):
        g = g.reshape(-1, n)
        g_x = (g @ w.data.T).reshape(x.shape) if x.requires_grad else None
        return g_x, rows.T @ g, g.sum(axis=0)

    return _make(out.reshape(x.shape[:-1] + (n,)), (x, w, b), back)


# ---------------------------------------------------------------------------
# concatenation and reductions


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
    return _make(data, tuple(tensors), back)


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
    sorted by segment; empty segments get -inf. Build one per index array and
    reuse it: the graph's views hold one per edge endpoint. Nothing is built
    before it is read: the sort (``order``, None when ``ids`` is sorted) at
    the first ``max``, ``sum`` or edge product, and the matrix at the first
    ``sum``, so the sources of a view, which are only read by id, are never
    sorted. The target ``Segments`` of a view also keep the structure of its
    edge matrix (:meth:`edge_index`), one per source ``Segments``, head count
    and slot shape, built at the first product and freed with the view.
    """

    def __init__(self, ids, num_segments: int):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1 or (ids.size and (ids.min() < 0 or ids.max() >= num_segments)):
            raise ShapeError(f"segment ids must be a vector in [0, {num_segments})")
        self.ids = ids
        self.num_segments = num_segments
        self.sorted = bool(np.all(ids[1:] >= ids[:-1]))
        counts = np.bincount(ids, minlength=num_segments)
        self.indptr = np.zeros(num_segments + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self._nonempty = np.flatnonzero(counts)
        # sorted, one row per segment: row r is segment r
        self.identity = self.sorted and ids.size == self._nonempty.size == num_segments
        self._edge_index: dict[tuple, _EdgeIndex] = {}

    @functools.cached_property
    def order(self) -> np.ndarray | None:
        """The rows stably sorted by segment, or None when ``ids`` is sorted."""
        return None if self.sorted else np.argsort(self.ids, kind="stable")

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

    def edge_index(self, src: "Segments", heads: int, f_s: int, f_t: int) -> "_EdgeIndex":
        """The structure of the edge matrix (see :func:`_edge_products`) of
        the edges from ``src`` into these segments, for ``heads`` heads, F_s
        source slots and F_t target slots: built at the first product, kept
        for the next ones."""
        key = (src, heads, f_s, f_t)
        if key not in self._edge_index:
            sources = src.ids if self.order is None else src.ids[self.order]
            self._edge_index[key] = _build_edge_index(
                sources, self.indptr, src.num_segments, heads, f_s, f_t
            )
        return self._edge_index[key]


class _EdgeIndex:
    """An edge matrix without its data. ``cols`` holds the column indices of
    one target slot's rows, (H, 1, E F_s), which every target slot repeats,
    in int32 when they fit. ``csr`` is the matrix and ``csc`` its transpose
    over the same ``indptr``, built at the first product that needs it. A
    product lends a matrix its data and the repeated columns only while it
    runs (:func:`_lend`), so between products neither matrix holds any."""

    def __init__(self, cols: np.ndarray, indptr: np.ndarray, shape: tuple[int, int]):
        self.cols, self._indptr, self._shape = cols, indptr, shape
        self.csr = self._empty(scipy.sparse.csr_array, shape)

    @functools.cached_property
    def csc(self) -> scipy.sparse.csc_array:
        return self._empty(scipy.sparse.csc_array, self._shape[::-1])

    def _empty(self, kind, shape):
        empty = (np.zeros(0), np.zeros(0, dtype=self.cols.dtype), np.zeros_like(self._indptr))
        m = kind(empty, shape=shape)
        m.indptr, m.data, m.indices = self._indptr, None, None
        return m


def _build_edge_index(sources, indptr, n_src, heads, f_s, f_t) -> _EdgeIndex:
    # row (m, j, t) lists the columns (m, s, i) of t's edges in order, i fastest
    e, n_dst = sources.size, indptr.size - 1
    fits = max(heads * f_t * e * f_s, heads * f_s * n_src, heads * f_t * n_dst) < 2**31
    idx = np.int32 if fits else np.int64
    nodes = np.arange(heads, dtype=idx)[:, None] * n_src + sources.astype(idx)  # (H, E)
    cols = nodes[..., None] * f_s + np.arange(f_s, dtype=idx)
    starts = (np.arange(heads * f_t, dtype=idx)[:, None] * e + indptr[:-1].astype(idx)) * f_s
    return _EdgeIndex(
        cols.reshape(heads, 1, e * f_s),
        np.append(starts.reshape(-1), idx(cols.size * f_t)),
        (heads * f_t * n_dst, heads * f_s * n_src),
    )


def gather(a: Tensor, idx: Segments) -> Tensor:
    """Select the rows ``idx.ids`` along axis 0; the gradient sums back into
    each row.

    ``idx`` is a :class:`Segments` over the rows of ``a``, so every id was
    range-checked when it was built. An identity ``Segments`` returns ``a``
    itself.
    """
    if not isinstance(idx, Segments):
        raise TypeError(f"gather: index must be a Segments, not {type(idx).__name__}")
    if idx.num_segments != a.shape[0]:
        raise ShapeError(f"gather: Segments has {idx.num_segments} segments, want {a.shape[0]}")
    if idx.identity:
        return a
    return _make(a.data[idx.ids], (a,), lambda g: (idx.sum(g),))


def _edge_rows(x: np.ndarray, seg: Segments) -> np.ndarray:
    # per-node blocks onto the edges, C-contiguous: a layout change costs once per node
    x = np.ascontiguousarray(x)
    return x if seg.identity else x[seg.ids]


def _heads_t(x: np.ndarray, heads: int) -> np.ndarray:
    """(n, F, d) -> (n, H, d_h, F), a view: each head's columns of every slot, transposed."""
    return x.reshape(*x.shape[:2], heads, x.shape[2] // heads).transpose(0, 2, 3, 1)


# the edge matrix's row order (head, slot, node) and column order (head, node,
# slot), as transposes of node blocks split into heads (n, F, H, d_h)
_TARGETS, _SOURCES = (2, 1, 0, 3), (2, 0, 1, 3)


def _head_rows(x: np.ndarray, heads: int, axes=_TARGETS) -> np.ndarray:
    """(n, F, d) -> C-contiguous rows of width d_h in the order ``axes``."""
    n, f, d = x.shape
    return x.reshape(n, f, heads, d // heads).transpose(axes).reshape(-1, d // heads)


def _node_blocks(rows: np.ndarray, heads: int, n: int, f: int) -> np.ndarray:
    """(n, F, H d_h), C-contiguous, from ``_TARGETS`` rows: the inverse of
    :func:`_head_rows` (the transpose swaps two axes, so it undoes itself)."""
    d_h = rows.shape[-1]
    return rows.reshape(heads, f, n, d_h).transpose(_TARGETS).reshape(n, f, heads * d_h)


def _edge_products(
    w: np.ndarray, src: Segments, dst: Segments,
    right: np.ndarray | None = None, left: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``A @ right`` and ``A^T @ left`` (None for an operand not given), with
    the per-edge blocks ``w`` (E, H, F_s, F_t) as one sparse matrix A, block
    diagonal over heads: row (m, j, t) holds w[e, m, i, j] in column (m, s, i)
    for each edge e = (s, t) and source slot i. Times source blocks as
    ``_SOURCES`` rows A sums w^T x over each target's edges into ``_TARGETS``
    rows, and A^T sends ``_TARGETS`` rows back onto the sources; either way no
    block is copied onto the edges. ``w`` is laid out once for both products,
    into the structure that ``dst`` keeps for these edges and this shape.
    """
    e, heads, f_s, f_t = w.shape
    ix = dst.edge_index(src, heads, f_s, f_t)
    data = (w if dst.order is None else w[dst.order]).transpose(1, 3, 0, 2).reshape(-1)
    indices = np.repeat(ix.cols, f_t, axis=1).reshape(-1)
    return (
        None if right is None else _lend(ix.csr, data, indices, right),
        None if left is None else _lend(ix.csc, data, indices, left),
    )


def _lend(matrix, data: np.ndarray, indices: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` with ``data`` and ``indices`` lent to ``matrix`` for the
    product only."""
    matrix.data, matrix.indices = data, indices
    try:
        return matrix @ x
    finally:
        matrix.data, matrix.indices = None, None


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
    Backward lays the softmax-input gradient out once as the edge matrix and
    takes the query gradient from it and the K W gradient from its transpose,
    one sparse product each, in the structure ``dst`` keeps for these edges.
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
    kw_e = kw.reshape(heads, n_s, f_s, d_h).transpose(1, 0, 2, 3)
    x = _edge_rows(kw_e, src) @ _edge_rows(_heads_t(q.data, heads), dst)
    if not scale_outside:
        x *= np.asarray(scale, dtype=x.dtype)
    x -= spread(dst.max(pool(np.maximum, x)))
    y = np.exp(x, out=x)
    y /= spread(dst.sum(pool(np.add, y)))

    def back(g):
        g = g * scale if scale_outside else g
        gx = y * (g - spread(dst.sum(pool(np.add, g * y))))
        gx = gx if scale_outside else gx * scale
        g_q, g_kw = _edge_products(gx, src, dst, kw.reshape(-1, d_h), _head_rows(q.data, heads))
        g_q = _node_blocks(g_q, heads, dst.num_segments, q.shape[1])
        g_kw = g_kw.reshape(rows.shape)
        g_keys = (g_kw @ np.swapaxes(att.data, -1, -2)).transpose(1, 0, 2).reshape(keys.shape)
        return g_keys, g_q, np.swapaxes(rows, -1, -2) @ g_kw

    return _make(y * np.asarray(scale, dtype=y.dtype) if scale_outside else y, (keys, q, att), back)


def edge_aggregate(attn: Tensor, ext: Tensor, src: Segments, dst: Segments) -> Tensor:
    """Per target, the sum over its edges of attn[e]^T ext[s] per head:
    (n_dst, F_t, d), zeros for a target without edges. ``attn`` is
    (E, H, F_s, F_t), ``ext`` (n_src, F_s, d) with head m in columns
    [m d/H, (m+1) d/H). The sum is one sparse product with the attention as
    the edge matrix, adding a target's edges in storage order and the source
    slots of each edge in turn; backward sends the gradient back through its
    transpose, and only the attention gradient is taken edge by edge. The
    matrix's structure is the one ``dst`` keeps for these edges and shape.
    """
    e, heads, f_s, f_t = attn.shape
    n_dst, d = dst.num_segments, ext.shape[2]
    if d % heads or ext.shape[:2] != (src.num_segments, f_s) or {len(src.ids), len(dst.ids)} != {e}:
        raise ShapeError(f"edge_aggregate: {attn.shape} and {ext.shape} do not fit the edges")

    msg, _ = _edge_products(attn.data, src, dst, right=_head_rows(ext.data, heads, _SOURCES))

    def back(g):
        ext_t = _heads_t(ext.data, heads)
        g_attn = _edge_rows(np.swapaxes(ext_t, -1, -2), src) @ _edge_rows(_heads_t(g, heads), dst)
        _, g_ext = _edge_products(attn.data, src, dst, left=_head_rows(g, heads))
        g_ext = g_ext.reshape(heads, src.num_segments, f_s, d // heads).transpose(1, 2, 0, 3)
        return g_attn, g_ext.reshape(ext.shape)

    return _make(_node_blocks(msg, heads, n_dst, f_t), (attn, ext), back)


def slot_fusion(
    q: Tensor, hl: Tensor, fk: Tensor, fv: Tensor, heads: int
) -> tuple[Tensor, np.ndarray]:
    """One query per node attending over its F slots: the fused rows (n, d)
    and the attention weights (n, H, F).

    ``q`` is (n, d), ``hl`` (n, F, d) and ``fk``, ``fv`` (d, d), head m on
    columns C = [m d_h, (m+1) d_h). The key and value maps move onto the
    node, as (hl fk[:, C]) q[C] = hl (fk[:, C] q[C]) and sum_f a_f hl_f fv[:, C]
    = (sum_f a_f hl_f) fv[:, C]: per head, r = q[:, C] fk[:, C]^T, the logits
    r hl^T / sqrt(d_h) take a softmax over the slots, z = attn hl, and
    out[:, C] = z fv[:, C]. The d x d products run over n rows, not n F.
    """
    n, f, d = hl.shape
    if q.shape != (n, d) or fk.shape != (d, d) or fv.shape != (d, d) or d % heads or not f:
        shapes = f"{q.shape}, {hl.shape}, {fk.shape}, {fv.shape}"
        raise ShapeError(f"slot_fusion: {shapes} with {heads} heads do not fit")
    d_h = d // heads
    c = np.asarray(1.0 / math.sqrt(d_h), dtype=hl.dtype)
    # per head: q (H, n, d_h), fk (H, d_h, d) and fv (H, d, d_h), each a view
    q_h = q.data.reshape(n, heads, d_h).transpose(1, 0, 2)
    fk_h = fk.data.reshape(d, heads, d_h).transpose(1, 2, 0)
    fv_h = fv.data.reshape(d, heads, d_h).transpose(1, 0, 2)
    r = q_h @ np.ascontiguousarray(fk_h)  # (H, n, d)
    r_n = r.transpose(1, 0, 2)  # (n, H, d)
    x = (hl.data @ np.swapaxes(r_n, 1, 2)).transpose(1, 0, 2)
    # the weights are laid out (F, n, H), so the softmax reduces whole slices
    attn = np.multiply(x, c, out=np.empty(x.shape, dtype=x.dtype))
    _check_finite(attn)
    attn -= attn.max(axis=0)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=0)
    attn_n = attn.transpose(1, 0, 2)  # (n, F, H)
    z = np.swapaxes(attn_n, 1, 2) @ hl.data  # (n, H, d)
    z_h = z.transpose(1, 0, 2)
    out = (z_h @ fv_h).transpose(1, 0, 2).reshape(n, d)

    def back(g):
        g_h = g.reshape(n, heads, d_h).transpose(1, 0, 2)
        g_fv = (np.swapaxes(z_h, 1, 2) @ g_h).transpose(1, 0, 2).reshape(d, d)
        g_z = (g_h @ np.swapaxes(fv_h, 1, 2)).transpose(1, 0, 2)  # (n, H, d)
        g_a = np.ascontiguousarray((hl.data @ np.swapaxes(g_z, 1, 2)).transpose(1, 0, 2))
        g_x = attn * (g_a - (g_a * attn).sum(axis=0))
        g_x *= c
        g_x_n = g_x.transpose(1, 0, 2)
        g_hl = attn_n @ g_z
        g_hl += g_x_n @ r_n
        g_r = (np.swapaxes(g_x_n, 1, 2) @ hl.data).transpose(1, 0, 2)  # (H, n, d)
        g_q = (g_r @ np.swapaxes(fk_h, 1, 2)).transpose(1, 0, 2).reshape(n, d)
        g_fk = (np.swapaxes(g_r, 1, 2) @ q_h).transpose(1, 0, 2).reshape(d, d)
        return g_q, g_hl, g_fk, g_fv

    return _make(out, (q, hl, fk, fv), back), attn.transpose(1, 2, 0)


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
    # a -inf logit of another class leaves the loss finite, so screen both
    _check_finite(x)
    m = x.max(axis=1, keepdims=True)
    z = x - m
    lse = np.log(np.exp(z).sum(axis=1)) + m[:, 0]
    losses = lse - x[np.arange(n), labels]
    out_data = np.asarray(losses.mean(), dtype=x.dtype)
    _check_finite(out_data)

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
    _check_finite(x)
    losses = np.maximum(x, 0) - x * targets + np.log1p(np.exp(-np.abs(x)))
    out_data = np.asarray(losses.mean(), dtype=x.dtype)
    _check_finite(out_data)
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
) -> list[float]:
    """Max relative error between tape gradients and central differences,
    one per parameter in the order given.

    ``f`` must be a deterministic scalar function of ``params`` evaluated in
    64-bit mode; determinism is verified once, by evaluating twice, and one
    backward gives every parameter's gradient. A parameter the loss never
    reads has gradient zero.
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

    errors = []
    for p in params:
        g_ad = table.get(p, np.zeros_like(p.data)).reshape(-1)
        flat = p.data.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = f().item()
            flat[i] = orig - h
            down = f().item()
            flat[i] = orig
            g_fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(g_ad[i] - g_fd) / max(1e-8, abs(g_ad[i]) + abs(g_fd)))
        errors.append(worst)
    return errors
