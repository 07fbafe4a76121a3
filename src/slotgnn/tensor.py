"""Dense 2-D to 4-D tensors with a reverse-mode autodiff tape.

Only the operations the model actually needs are provided. Tensors wrap
numpy arrays and are treated as immutable after creation, except the
parameters: once an optimizer is built, each parameter's array is a view
into the optimizer's one parameter vector, updated in place between tapes.
A tensor built from raw data is float32 unless given a dtype; an op's output
keeps the dtype of its inputs, so a model computes in its parameters' dtype.
Recording happens on an explicit :class:`Tape` that is active for one
forward pass in its own thread, so threads record apart, and may share a
graph's views, whose kept structure is read-only; its gradient table
holds the leaves the pass recorded. Reverse accumulation walks the tape in
reverse creation order, which is a valid topological order because the tape
is append-only, and lets go of each record once its gradients are passed on,
so the arrays an op saved for its backward are freed while earlier ops still
run theirs. Every node computes something: there is no op that only
changes a shape, so callers build each tensor in the shape its consumers read.
Message passing is two fused ops per relation, :func:`edge_attention` (which
forms K W itself) and :func:`edge_aggregate`, one tape node each, on node
blocks (n, F, d) with head m in columns [m d_h, (m+1) d_h). They take a
:class:`BipartiteView`, edges sorted by target with plain source ids: the graph
sorts edges, and :class:`Segments` only checks that target ids ascend. Only
the logits and the attention gradient are taken per edge, by :func:`_edge_pairs`.
Where every target has the same in-degree and F_s > 1 and F_t > 1, it runs one
product per target and head, the target's source blocks stacked against its
own block: numpy runs a slot-block product as BLAS gemm only then, and gemm
rounds each entry alike at any row count. Otherwise it runs one product per
edge and head, on blocks gathered onto the edges. Every sum of weighted source blocks
into targets (the messages, and in backward the value, query and K W
gradients) is one sparse times dense product with the attention, or its
softmax-input gradient, as a block-diagonal edge matrix (g-SpMM, Wang et al.,
arXiv:1909.01315), whose structure the view keeps from the first product on.
Each op lays its matrix out once (:func:`_edge_matrix`). Every sparse product,
and :meth:`Segments.sum` too, is one call of :func:`_csr_product`, scipy's CSR
kernel; the kept structure is read-only. The edge softmax reduces per
target with :class:`Segments`, whose max, where every target has as many
edges, makes one numpy call per rank of a target's edges, not one per target
and column. Backward keeps only the attention weights and K W. The fusion head
is one more fused op, :func:`slot_fusion`, on the same layout, and so is each
linear map, :func:`affine`. Only raw data, the logits a loss reads and the
loss it returns are screened for NaN and inf (:class:`NonFiniteError`), one
pass each; an op's output is not. A non-finite value an op makes reaches the
logits, unless a softmax gives a -inf weight 0, so the fused ops screen what
their softmax reads: K W in :func:`edge_attention`, logits in :func:`slot_fusion`.
Per-edge passes numpy cannot run as one flat loop go one slot (pair) at a time
(:func:`_slotwise`), so numpy's innermost loop spans all edges and heads.
scipy's CSR kernels come from their extension file alone
(:func:`_load_sparsetools`): the rest of ``scipy.sparse`` would add much
memory and many modules to this module's import, for two functions.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
import threading
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np


class TensorError(Exception):
    pass


class ShapeError(TensorError):
    pass


class NonFiniteError(TensorError):
    pass


class TapeError(TensorError):
    pass


class _ActiveTape(threading.local):
    """The tape a thread records on; each thread starts with none."""

    tape: "Tape | None" = None


_ACTIVE = _ActiveTape()


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError("non-finite value produced")


class Tensor:
    """A dense real tensor, optionally taped; screened for NaN and inf if built from raw data."""

    __slots__ = ("data", "requires_grad", "name", "_tape")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None, dtype=np.float32):
        arr = np.asarray(data, dtype=dtype)
        _check_finite(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.name = name
        self._tape: Tape | None = None

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

    ``backward`` may be called once; it consumes the tape, releasing each
    record as it passes it. It returns the gradient of every leaf the pass
    recorded (a requires_grad tensor that feeds a recorded operation); leaves
    keep no gradient of their own. A parameter the pass never reached is not
    in the table.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.consumed = False
        self._leaves: dict[int, Tensor] = {}
        self._prev_tape: Tape | None = None

    def __enter__(self) -> "Tape":
        self._prev_tape, _ACTIVE.tape = _ACTIVE.tape, self
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.tape = self._prev_tape

    def record(self, out: Tensor, parents: tuple[Tensor, ...], backward: Callable) -> None:
        if self.consumed:
            raise TapeError("cannot record on a consumed tape")
        out._tape = self
        self.nodes.append(_Node(out, parents, backward))
        for p in parents:
            if p.requires_grad and p._tape is None:
                self._leaves[id(p)] = p

    def backward(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Reverse accumulation from a scalar loss recorded on this tape.

        Returns a table mapping every recorded leaf to its gradient; a leaf
        not on any path to the loss gets a zero gradient. Records are taken
        from the tape last first and dropped as soon as their gradients are
        passed on, so what an op saved only for its backward, and the
        gradient of its output, are freed before the ops recorded earlier
        run; a tensor the caller still holds stays alive.
        """
        if self.consumed:
            raise TapeError("backward called twice on a consumed tape")
        if loss.data.shape != ():
            raise ShapeError(f"loss must be a scalar, got shape {loss.shape}")
        if loss._tape is not self:
            raise TapeError("loss was not recorded on this tape")
        self.consumed = True

        # every recorded tensor points back at this tape, so the tape lets go
        # of its records first: with each node popped below, reference
        # counting alone frees it, and the step's tensors with it
        nodes, leaves = self.nodes, self._leaves
        self.nodes, self._leaves = [], {}

        grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.data.dtype)}
        while nodes:
            node = nodes.pop()
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
    out.name = out._tape = None
    tape = _ACTIVE.tape
    if requires and tape is not None:
        tape.record(out, parents, backward_fn)
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


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w, plus the length-n bias ``b`` on every row if given: one tape
    node, and ``add(affine(x, w), b)`` to the bit. ``x`` may be 2-D or a stack
    (3-D), run as one flat (N*F, k) GEMM where numpy would run one per leading
    row; it gets no gradient when it requires none."""
    if w.ndim != 2 or x.ndim not in (2, 3) or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine: {x.shape} @ {w.shape} do not fit")
    if b is not None and b.shape != w.shape[1:]:
        raise ShapeError(f"affine: bias {b.shape} does not fit {w.shape}")
    bias = () if b is None else (b,)
    k, n = w.shape
    rows = x.data.reshape(-1, k)
    out = rows @ w.data
    if bias:
        out += b.data

    def back(g):
        g = g.reshape(-1, n)
        g_x = (g @ w.data.T).reshape(x.shape) if x.requires_grad else None
        return (g_x, rows.T @ g) + ((g.sum(axis=0),) if bias else ())

    return _make(out.reshape(x.shape[:-1] + (n,)), (x, w, *bias), back)


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

    ``ids[r]`` names the segment of row r; the ids ascend, so the rows of a
    segment are consecutive and ``indptr`` is their CSR row pointer. ``sum``
    is one product (:func:`_csr_product`) with a boolean matrix over it whose
    rows list their members in ascending row order, so it adds in the same
    order as ``np.add.at``, to the bit, in the dtype of the rows it sums.
    ``max`` folds each segment's rows in row order, one call per rank
    (:func:`_rank_sweep_max`), when the non-empty segments all have one length
    and that makes fewer inner loops than ``np.maximum.reduceat``
    (``SWEEP_CALL_COST``), and otherwise runs reduceat; empty segments get
    -inf. ``spread`` places per-segment values back onto the rows. Build one
    per index array and reuse it: a graph's views hold one per target.
    """

    def __init__(self, ids, num_segments: int):
        ids = np.asarray(ids, dtype=np.int64)
        bad = ids.ndim != 1 or np.any(ids[1:] < ids[:-1])
        if bad or (ids.size and (ids[0] < 0 or ids[-1] >= num_segments)):
            raise ShapeError(f"segment ids must be a vector ascending in [0, {num_segments})")
        self.ids = ids
        self.num_segments = num_segments
        counts = np.bincount(ids, minlength=num_segments)
        self.indptr = _read_only(np.concatenate(([0], np.cumsum(counts))))
        self._nonempty = np.flatnonzero(counts)
        # one row per segment: row r is segment r
        self.identity = ids.size == self._nonempty.size == num_segments
        # the length every non-empty segment has, or 0 if they differ
        lengths = counts[self._nonempty]
        self._length = int(lengths[0]) if lengths.size and (lengths == lengths[0]).all() else 0

    @functools.cached_property
    def _matrix(self) -> tuple:
        """The sum's matrix as a read-only CSR record (:func:`_csr_product`)."""
        e = self.ids.size
        members = _read_only(np.arange(e)), _read_only(np.ones(e, dtype=bool))
        return self.indptr, *members, (self.num_segments, e)

    def sum(self, x: np.ndarray) -> np.ndarray:
        """Per-segment sums of the rows of ``x``: (num_segments, *x.shape[1:])."""
        sums = _csr_product(self._matrix, x.reshape(x.shape[0], math.prod(x.shape[1:])))
        return sums.reshape((self.num_segments,) + x.shape[1:])

    def max(self, x: np.ndarray) -> np.ndarray:
        """Per-segment maxima of the rows of ``x``; -inf for empty segments."""
        ne, shape = self._nonempty, (self.num_segments,) + x.shape[1:]
        if not ne.size:
            return np.full(shape, -np.inf, dtype=x.dtype)
        if self._length and self._length * SWEEP_CALL_COST <= ne.size * math.prod(x.shape[1:]):
            maxima = _rank_sweep_max(x, self._length)
        else:
            maxima = np.maximum.reduceat(x, self.indptr[ne], axis=0)
        if ne.size == self.num_segments:
            return maxima
        out = np.full(shape, -np.inf, dtype=x.dtype)
        out[ne] = maxima
        return out

    def spread(self, v: np.ndarray) -> np.ndarray:
        """Per-segment values ``v`` onto the rows, ``v[ids]``, as a repeat by segment size."""
        return np.repeat(v, np.diff(self.indptr), axis=0)


class BipartiteView:
    """One relation's edges, sorted by target, as the edge ops take them:
    ``dst`` groups them by target, ``src[e]`` is edge e's source id in [0,
    ``num_src``). The view keeps its edge matrix's structure per head count
    and slot shape (:meth:`edge_index`), built at the first product."""

    def __init__(self, src, dst: Segments, num_src: int):
        src = np.asarray(src, dtype=np.int64)
        if src.shape != dst.ids.shape or (src.size and (src.min() < 0 or src.max() >= num_src)):
            raise ShapeError(f"source ids must be {dst.ids.size} ids in [0, {num_src})")
        self.src, self.dst, self.num_src = src, dst, num_src
        self._edge_index: dict[tuple[int, int, int], _EdgeIndex] = {}

    def edge_index(self, heads: int, f_s: int, f_t: int) -> "_EdgeIndex":
        """The structure of the edge matrix (:func:`_edge_matrix`) for ``heads``
        heads, F_s and F_t slots: built at the first product, then kept."""
        key = (heads, f_s, f_t)
        if key not in self._edge_index:
            self._edge_index[key] = _build_edge_index(
                self.src, self.dst.indptr, self.num_src, heads, f_s, f_t
            )
        return self._edge_index[key]


# How many row-width inner loops of ``np.maximum.reduceat`` one call of the
# rank sweep costs: ``Segments.max`` sweeps segments of one length when that
# length times this is at most the loops reduceat would run, one per non-empty
# segment and column. Measured with scripts/segment_cost.py (see CHANGES.md).
SWEEP_CALL_COST = 32


def _rank_sweep_max(rows: np.ndarray, length: int) -> np.ndarray:
    """The maxima of consecutive segments of ``length`` rows each, one call per
    rank: the k-th rows of all segments, a strided view, are folded in at once by
    ``np.maximum(acc, next)``. That is a fold in row order, to the bit, NaN
    payloads and signed zeros included; ``np.maximum.reduceat`` gives the same
    bytes, except that it folds a segment of many rows in SIMD lanes, so of
    several NaNs in a column it may return another."""
    acc = rows[::length].copy()
    for k in range(1, length):
        np.maximum(acc, rows[k::length], out=acc)
    return acc


class _EdgeIndex(NamedTuple):
    """An edge matrix of ``shape`` without its data: its CSR row pointer
    ``indptr``, and in ``cols`` the column indices of one target slot's rows,
    (H, 1, E F_s), which every target slot repeats; both in int32 when the
    matrix fits, and read-only, so threads that share a view share this too
    and each matrix brings its own data (:func:`_edge_matrix`)."""

    cols: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def matrix(self, data: np.ndarray, f_t: int) -> tuple:
        """The CSR record with ``data``, the blocks laid out (H, F_t, E, F_s), flat."""
        return self.indptr, np.repeat(self.cols, f_t, axis=1).reshape(-1), data, self.shape


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _load_sparsetools():
    """scipy's compiled CSR kernels, loaded from their file alone.

    ``from scipy.sparse import _sparsetools`` runs ``scipy.sparse``'s package
    init, which costs much memory and many modules, for two functions.
    ``find_spec`` finds scipy's folder without running its init. The file's
    place, ``scipy/sparse/_sparsetools<suffix>``, is scipy's private layout,
    and ``TestCsrProduct`` pins the kernels byte for byte; where the file is
    missing or does not load, the regular import stands in. A module already
    imported is taken as it is. The loaded module stays out of
    ``sys.modules``, so a later ``import scipy.sparse`` loads the file as usual.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    for folder in (scipy.submodule_search_locations or []) if scipy else []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "sparse", "_sparsetools" + suffix)
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            try:  # a missing file raises ImportError too
                module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
                return module
            except ImportError:
                pass
            finally:  # a single-phase extension registers itself as it loads
                sys.modules.pop(name, None)
    from scipy.sparse import _sparsetools

    return _sparsetools


_sparsetools = _load_sparsetools()


def _csr_product(a: tuple, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``A @ x``, or ``A^T @ x`` with ``transpose``, for the CSR record ``a``,
    ``(indptr, indices, data, shape)`` with the indices of one dtype, and 2-D
    ``x``: scipy's ``csr_array @ x`` kernel and arguments, so its bytes. A's
    CSR arrays are the CSC arrays of A^T. The kernel module is scipy's own
    extension, loaded by :func:`_load_sparsetools` without ``scipy.sparse``."""
    indptr, indices, data, shape = a
    rows, cols = shape[::-1] if transpose else shape
    out = np.zeros((rows, x.shape[1]), dtype=np.result_type(data.dtype, x.dtype))
    kernel = _sparsetools.csc_matvecs if transpose else _sparsetools.csr_matvecs
    kernel(rows, cols, x.shape[1], indptr, indices, data, x.ravel(), out.ravel())
    return out


def _build_edge_index(sources, indptr, n_src, heads, f_s, f_t) -> _EdgeIndex:
    # row (m, j, t) lists the columns (m, s, i) of t's edges in order, i fastest
    e, n_dst = sources.size, indptr.size - 1
    fits = max(heads * f_t * e * f_s, heads * f_s * n_src, heads * f_t * n_dst) < 2**31
    idx = np.int32 if fits else np.int64
    nodes = np.arange(heads, dtype=idx)[:, None] * n_src + sources.astype(idx)  # (H, E)
    cols = nodes[..., None] * f_s + np.arange(f_s, dtype=idx)
    starts = (np.arange(heads * f_t, dtype=idx)[:, None] * e + indptr[:-1].astype(idx)) * f_s
    return _EdgeIndex(
        _read_only(cols.reshape(heads, 1, e * f_s)),
        _read_only(np.append(starts.reshape(-1), idx(cols.size * f_t))),
        (heads * f_t * n_dst, heads * f_s * n_src),
    )


def gather(a: Tensor, idx: Segments) -> Tensor:
    """Select the rows ``idx.ids`` along axis 0; the gradient sums back into
    each row.

    ``idx`` is a :class:`Segments` over the rows of ``a``, so every id was
    range-checked, and checked to ascend, when it was built. An identity
    ``Segments`` returns ``a`` itself.
    """
    if not isinstance(idx, Segments):
        raise TypeError(f"gather: index must be a Segments, not {type(idx).__name__}")
    if idx.num_segments != a.shape[0]:
        raise ShapeError(f"gather: Segments has {idx.num_segments} segments, want {a.shape[0]}")
    if idx.identity:
        return a
    return _make(a.data[idx.ids], (a,), lambda g: (idx.sum(g),))


def _edge_pairs(src_h: np.ndarray, dst_t: np.ndarray, view: BipartiteView) -> np.ndarray:
    """``src_h[:, s] @ dst_t[t]`` for every edge (s, t) of ``view``, C-contiguous
    (E, H, F_s, F_t), from source blocks (H, n_s, F_s, d_h) and C-contiguous
    target blocks (n_t, H, d_h, F_t).

    Where every target has the same number D of edges and F_s > 1 and
    F_t > 1, the D source blocks of a target are stacked per head and run as
    one (D F_s, d_h) @ (d_h, F_t) product against the target's own block.
    numpy runs an (F_s, d_h) @ (d_h, F_t) product as BLAS gemm only when both
    slot counts exceed one, and as dot or gemv otherwise; gemm rounds each
    entry alike at any row count (pinned byte for byte in the tests), so the
    stacked product keeps every bit, where stacking dot or gemv products
    would not. Otherwise each source block is made C-contiguous per node (a
    gemv over strided rows rounds otherwise) and both are gathered onto the
    edges, one product per edge and head.
    """
    dst, f_s = view.dst, src_h.shape[2]
    n_t, heads, d_h, f_t = dst_t.shape
    if f_s > 1 and f_t > 1 and dst._length and dst._nonempty.size == n_t:
        rows = np.take(src_h, view.src, axis=1).reshape(heads, n_t, -1, d_h)
        x = (rows @ dst_t.transpose(1, 0, 2, 3)).reshape(heads, -1, f_s, f_t)
        return np.ascontiguousarray(x.transpose(1, 0, 2, 3))
    src_x = np.ascontiguousarray(src_h.transpose(1, 0, 2, 3))
    return src_x[view.src] @ (dst_t if dst.identity else dst_t[dst.ids])


def _slotwise(ufunc, out: np.ndarray, *ins: np.ndarray, axes: int = 2) -> np.ndarray:
    """``ufunc(*ins, out=out)``, inputs broadcast, or with ``ufunc`` None a copy, one
    slot (pair) of the last ``axes`` axes at a time unless all are C-contiguous:
    numpy's innermost loop then covers all edges and heads, not 3 slots."""
    if ufunc is not None and all(a.shape == out.shape and a.flags.c_contiguous for a in (out, *ins)):
        return ufunc(*ins, out=out)
    ins = [a if a.shape == out.shape else np.broadcast_to(a, out.shape) for a in ins]
    for k in itertools.product([...], *map(range, out.shape[out.ndim - axes:])):  # (..., i, j)
        if ufunc is None:
            out[k] = ins[0][k]
        else:
            ufunc(*(a[k] for a in ins), out=out[k])
    return out


def _heads_t(x: np.ndarray, heads: int) -> np.ndarray:
    """(n, F, d) -> (n, H, d_h, F), C-contiguous: each head's columns of every slot, transposed."""
    view = x.reshape(*x.shape[:2], heads, x.shape[2] // heads).transpose(0, 2, 3, 1)
    if view.flags.c_contiguous:  # one slot
        return view
    return _slotwise(None, np.empty(view.shape, x.dtype), view, axes=1)


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


def _edge_matrix(w: np.ndarray, view: BipartiteView) -> tuple:
    """The per-edge blocks ``w`` (E, H, F_s, F_t) as one sparse matrix A, block
    diagonal over heads, in a CSR record for :func:`_csr_product`: row (m, j, t)
    holds w[e, m, i, j] in column (m, s, i) for each edge e = (s, t) and source
    slot i. Times source blocks as ``_SOURCES`` rows A sums w^T x over each
    target's edges into ``_TARGETS`` rows, and A^T sends ``_TARGETS`` rows back
    onto the sources; either way no block is copied onto the edges. ``w`` is
    laid out into the structure that ``view`` keeps for this shape, one source
    slot at a time so that each copy runs along the edges (:func:`_slotwise`).
    """
    e, heads, f_s, f_t = w.shape
    ix = view.edge_index(heads, f_s, f_t)
    laid = w.transpose(1, 3, 0, 2)  # (H, F_t, E, F_s)
    return ix.matrix(_slotwise(None, np.empty(laid.shape, w.dtype), laid, axes=1).reshape(-1), f_t)


def _pool(ufunc, a: np.ndarray, joint: bool) -> np.ndarray:
    """``a`` (E, H, F_s, F_t) reduced over its source slots in turn if ``joint``: (E, H, 1, F_t)."""
    out = a[..., :1, :] if joint else a
    for i in range(out.shape[2], a.shape[2]):
        out = _slotwise(ufunc, np.empty(out.shape, a.dtype) if i == 1 else out, out, a[..., i:i + 1, :])
    return out


def _edge_softmax(x: np.ndarray, dst: Segments, joint: bool) -> np.ndarray:
    """The softmax of the logits ``x`` (E, H, F_s, F_t) of :func:`edge_attention`, in place."""
    _slotwise(np.subtract, x, x, dst.spread(dst.max(_pool(np.maximum, x, joint))))
    y = np.exp(x, out=x)
    return _slotwise(np.divide, y, y, dst.spread(dst.sum(_pool(np.add, y, joint))))


def _edge_softmax_grad(g, y, dst: Segments, joint: bool, scale: float, scale_outside: bool):
    """The logits' gradient from the attention's, ``g``, given the softmax ``y``."""
    g = g * scale if scale_outside else g
    sums = dst.spread(dst.sum(_pool(np.add, g * y, joint)))
    gx = _slotwise(np.subtract, np.empty_like(g), g, sums)
    np.multiply(y, gx, out=gx)
    return gx if scale_outside else np.multiply(gx, scale, out=gx)


def edge_attention(
    keys: Tensor, q: Tensor, att: Tensor, view: BipartiteView, mode: str = "joint",
    scale_outside: bool = False,
) -> Tensor:
    """Attention blocks (E, H, F_s, F_t) of the edges of ``view``.

    ``keys`` (n_src, F_s, d) and ``q`` (n_dst, F_t, d) hold head m in columns
    [m d_h, (m+1) d_h); ``att`` (H, d_h, d_h) holds one weight block per head.
    K W is one product per head over every (node, slot) row. The logits
    (K W)[s] q[t]^T are scaled by 1/sqrt(d_h) before the softmax, or by
    1/sqrt(H d_h) after it with ``scale_outside``. ``joint`` normalizes over
    a target's (edge, source slot) pairs per target slot, ``literal`` over
    its edges per slot pair.
    Its per-edge passes run one slot pair at a time (:func:`_slotwise`).
    Backward lays the softmax-input gradient out once as the edge matrix and
    takes the query gradient from it and the K W gradient from its transpose,
    one sparse product each, in the structure ``view`` keeps.
    """
    joint = {"joint": True, "literal": False}[mode]
    heads, d_h = att.shape[0], att.shape[-1]
    d = heads * d_h
    dst = view.dst
    got = (keys.ndim, q.ndim, keys.shape[::2], q.shape[::2], att.shape)
    if got != (3, 3, (view.num_src, d), (dst.num_segments, d), (heads, d_h, d_h)):
        raise ShapeError(f"edge_attention: {keys.shape}, {q.shape}, {att.shape} do not fit the edges")
    n_s, f_s, _ = keys.shape
    scale = 1.0 / math.sqrt(d if scale_outside else d_h)

    rows = keys.data.reshape(n_s * f_s, heads, d_h).transpose(1, 0, 2)
    kw = rows @ att.data  # (H, n_s F_s, d_h)
    _check_finite(kw)
    x = _edge_pairs(kw.reshape(heads, n_s, f_s, d_h), _heads_t(q.data, heads), view)
    if not scale_outside:
        x *= np.asarray(scale, dtype=x.dtype)
    y = _edge_softmax(x, dst, joint)

    def back(g):
        gx = _edge_softmax_grad(g, y, dst, joint, scale, scale_outside)
        q_rows, a = _head_rows(q.data, heads), _edge_matrix(gx, view)
        g_q = _node_blocks(_csr_product(a, kw.reshape(-1, d_h)), heads, dst.num_segments, q.shape[1])
        g_kw = _csr_product(a, q_rows, transpose=True).reshape(rows.shape)
        g_keys = (g_kw @ np.swapaxes(att.data, -1, -2)).transpose(1, 0, 2).reshape(keys.shape)
        return g_keys, g_q, np.swapaxes(rows, -1, -2) @ g_kw

    return _make(y * np.asarray(scale, dtype=y.dtype) if scale_outside else y, (keys, q, att), back)


def edge_aggregate(attn: Tensor, ext: Tensor, view: BipartiteView) -> Tensor:
    """Per target, the sum over its edges of attn[e]^T ext[s] per head:
    (n_dst, F_t, d), zeros for a target without edges. ``attn`` is
    (E, H, F_s, F_t), ``ext`` (n_src, F_s, d) with head m in columns
    [m d/H, (m+1) d/H). The sum is one sparse product with the attention as
    the edge matrix, adding a target's edges in storage order and the source
    slots of each edge in turn; backward sends the gradient back through its
    transpose, and only the attention gradient is taken edge by edge. The
    matrix's structure is the one ``view`` keeps for this shape.
    """
    e, heads, f_s, f_t = attn.shape
    n_src, n_dst, d = view.num_src, view.dst.num_segments, ext.shape[2]
    if d % heads or ext.shape[:2] != (n_src, f_s) or e != view.src.size:
        raise ShapeError(f"edge_aggregate: {attn.shape} and {ext.shape} do not fit the edges")

    ext_rows, a = _head_rows(ext.data, heads, _SOURCES), _edge_matrix(attn.data, view)
    msg, data = _csr_product(a, ext_rows), a[2]  # backward keeps the data, not the columns

    def back(g):
        ext_h = ext.data.reshape(n_src, f_s, heads, d // heads).transpose(2, 0, 1, 3)
        g_attn = _edge_pairs(ext_h, _heads_t(g, heads), view)
        a = view.edge_index(heads, f_s, f_t).matrix(data, f_t)
        g_ext = _csr_product(a, _head_rows(g, heads), transpose=True)
        g_ext = g_ext.reshape(heads, n_src, f_s, d // heads).transpose(1, 2, 0, 3)
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
        # exp(-x) overflows to inf for logits below about -88.7 in float32,
        # and 1 / (1 + inf) is 0, the sigmoid's limit
        with np.errstate(over="ignore"):
            sig = 1.0 / (1.0 + np.exp(-x))
        return (g * (sig - targets) / count,)

    return _make(out_data, (logits,), back)


# ---------------------------------------------------------------------------
# gradient verification

GRADCHECK_DIRECTIONS = 2  # random directions per parameter, given a generator


def finite_diff_check(
    f: Callable[[], Tensor],
    params: Iterable[Tensor],
    h: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> list[float]:
    """Max relative error between tape gradients and central differences,
    one per parameter in the order given.

    ``f`` must be a deterministic scalar function of ``params`` evaluated in
    64-bit mode; determinism is verified once, by evaluating twice, and one
    backward gives every parameter's gradient. A parameter the loss never
    reads has gradient zero. Each coordinate is stepped in turn, two forwards
    apiece; with ``rng``, each parameter is stepped instead along
    :data:`GRADCHECK_DIRECTIONS` random normal directions v drawn from it,
    against the tape's g . v: two forwards per direction, at any parameter size.
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
        if rng is None:
            steps = ((i, 1.0) for i in range(flat.size))
        else:
            steps = ((..., rng.normal(size=flat.size)) for _ in range(GRADCHECK_DIRECTIONS))
        worst = 0.0
        for at, v in steps:
            orig = flat[at].copy()
            flat[at] = orig + h * v
            up = f().item()
            flat[at] = orig - h * v
            down = f().item()
            flat[at] = orig
            g_fd = (up - down) / (2.0 * h)
            g_v = float(np.vdot(g_ad[at], v))
            worst = max(worst, abs(g_v - g_fd) / max(1e-8, abs(g_v) + abs(g_fd)))
        errors.append(worst)
    return errors
