"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (explicit loops, direct formulas) and
shares no code with the implementation under test.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += float(a[i, p]) * float(b[p, j])
    return out


def softmax_formula(x: np.ndarray, axis: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def adamw_reference_step(params, m, v, grads, t, lr, weight_decay=0.01):
    """One AdamW step tensor by tensor, each operation a new array: decay,
    then the moments, then the bias-corrected update, with Adam's usual
    beta1 = 0.9, beta2 = 0.999 and eps = 1e-8. ``params``, ``m`` and ``v``
    are lists of arrays, replaced in place in the lists; a ``None`` gradient
    counts as zero. ``t`` is the step number after this step."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for i, g in enumerate(grads):
        if weight_decay:
            params[i] = params[i] * (1.0 - lr * weight_decay)
        if g is None:
            g = np.zeros_like(params[i])
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
        m_hat = m[i] / c1
        v_hat = v[i] / c2
        params[i] = params[i] - lr * m_hat / (np.sqrt(v_hat) + eps)


def central_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Coordinate-wise central difference of a scalar function of x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up = f()
        flat_x[i] = orig - h
        down = f()
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2.0 * h)
    return g


def central_diff4(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Coordinate-wise five-point central difference of a scalar function of x.

    Its truncation error is O(h^4), so h can be large enough that rounding in
    f stays far below the gradient, even for coordinates near 1e-6.
    """
    g = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        at = []
        for step in (2.0, 1.0, -1.0, -2.0):
            flat_x[i] = orig + step * h
            at.append(f())
        flat_x[i] = orig
        flat_g[i] = (-at[0] + 8.0 * at[1] - 8.0 * at[2] + at[3]) / (12.0 * h)
    return g


def csv_rows(path, width: int, floats: bool = False):
    """The rows after the header of a dataset CSV file, as the csv module
    splits them and Python's int() and float() parse them: an int64 table of
    ``width`` columns or, with ``floats``, the int64 first column and a float32
    table of the others. Raises ValueError on a row of another width or a value
    int() or float() rejects, OverflowError on an int past int64."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        if len(row) != width:
            raise ValueError(f"{len(row)} values, expected {width}")
    if not floats:
        return np.array([[int(v) for v in row] for row in rows], dtype=np.int64).reshape(-1, width)
    ids = np.array([int(row[0]) for row in rows], dtype=np.int64)
    with np.errstate(over="ignore"):
        feats = np.array([[float(v) for v in row[1:]] for row in rows], dtype=np.float32)
    return ids, feats.reshape(len(rows), width - 1)


def csr_slices_by_filter(edges: np.ndarray, num_targets: int) -> list[list[int]]:
    """Per-target source lists via a linear scan of the edge list."""
    out: list[list[int]] = [[] for _ in range(num_targets)]
    for s, t in edges:
        out[int(t)].append(int(s))
    return [sorted(lst) for lst in out]


def segment_reduce_by_scan(ids, x: np.ndarray, num_segments: int, op, init) -> np.ndarray:
    """Per-segment reduction of the rows of x: each segment starts at ``init``
    and folds in its rows with ``op`` in the order a scan of ``ids`` meets them."""
    out = np.full((num_segments,) + x.shape[1:], init, dtype=x.dtype)
    for r, s in enumerate(ids):
        out[s] = op(out[s], x[r])
    return out


class _ScanSegments:
    """``Segments.max`` and ``Segments.sum`` as scans of the ids, to the bit
    (``TestSegments``)."""

    def __init__(self, seg):
        self.ids, self.n = seg.ids, seg.num_segments

    def max(self, a):
        return segment_reduce_by_scan(self.ids, a, self.n, np.maximum, -np.inf)

    def sum(self, a):
        return segment_reduce_by_scan(self.ids, a, self.n, np.add, 0)


def _by_broadcast(dst, joint: bool):
    ids = dst.ids

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

    return _ScanSegments(dst), pool, spread


def edge_softmax_by_broadcast(x: np.ndarray, dst, joint: bool) -> np.ndarray:
    """``tensor.edge_attention``'s softmax of the logits x (E, H, F_s, F_t), in
    place, as the whole-array broadcasts over the slot axes that the op ran
    before its passes went one slot pair at a time. Each element gets the
    same operations on the same operands in the same order, so the two agree
    to the bit."""
    dst, pool, spread = _by_broadcast(dst, joint)
    x -= spread(dst.max(pool(np.maximum, x)))
    y = np.exp(x, out=x)
    y /= spread(dst.sum(pool(np.add, y)))
    return y


def edge_softmax_grad_by_broadcast(g, y, dst, joint: bool, scale: float, scale_outside: bool):
    """The logits' gradient from the attention's, ``g``, with the scale before
    the softmax ``y`` or after it, as the broadcasts of
    :func:`edge_softmax_by_broadcast`."""
    dst, pool, spread = _by_broadcast(dst, joint)
    g = g * scale if scale_outside else g
    gx = y * (g - spread(dst.sum(pool(np.add, g * y))))
    gx = gx if scale_outside else gx * scale
    return gx


def induced_pairs(edges: np.ndarray, keep_src: set[int], keep_dst: set[int]) -> list[tuple[int, int]]:
    """The (source, target) pairs, repeats included, whose endpoints are both
    kept, sorted; a linear scan of the edge list."""
    return sorted((int(s), int(t)) for s, t in edges if s in keep_src and t in keep_dst)


def in_neighbourhoods(graph, rows, layers: int) -> list[dict[str, set[int]]]:
    """Per layer, first layer first, the nodes of each type a layer reads when
    the last one writes the target nodes ``rows``: the nodes the next layer
    reads plus every source of an edge into them, by a scan of each edge list."""
    reads = {name: set() for name in graph.counts}
    reads[graph.schema.target_type] = {int(r) for r in rows}
    per_layer: list[dict[str, set[int]]] = []
    for _ in range(layers):
        writes = reads
        reads = {name: set(ids) for name, ids in writes.items()}
        for rel in graph.schema.relations:
            for s, t in graph.edges[rel]:
                if int(t) in writes[rel.dst]:
                    reads[rel.src].add(int(s))
        per_layer.insert(0, reads)
    return per_layer


def two_hop_majority(
    first_hop: np.ndarray,
    second_hop: np.ndarray,
    attr_classes: np.ndarray,
    num_targets: int,
    num_classes: int,
) -> np.ndarray:
    """Majority class over all 2-hop paths target<-mid<-attr, ties to lowest.

    ``second_hop`` holds (mid, target) edges, ``first_hop`` holds (attr, mid)
    edges; paths are counted with multiplicity.
    """
    counts = two_hop_class_counts(first_hop, second_hop, attr_classes, num_targets, num_classes)
    return np.argmax(counts, axis=1)


def two_hop_class_counts(
    first_hop: np.ndarray,
    second_hop: np.ndarray,
    attr_classes: np.ndarray,
    num_targets: int,
    num_classes: int,
) -> np.ndarray:
    """Per target, the number of 2-hop paths target<-mid<-attr of each attr class."""
    mids_of = {}
    for a, m in first_hop:
        mids_of.setdefault(int(m), []).append(int(a))
    counts = np.zeros((num_targets, num_classes), dtype=np.int64)
    for t in range(num_targets):
        for m, tt in second_hop:
            if int(tt) != t:
                continue
            for a in mids_of.get(int(m), []):
                counts[t, int(attr_classes[a])] += 1
    return counts


def plugin_mi_bits(x: np.ndarray, y: np.ndarray) -> float:
    """Plug-in mutual information estimate between two discrete variables."""
    xs = sorted(set(int(v) for v in x))
    ys = sorted(set(int(v) for v in y))
    n = len(x)
    joint = np.zeros((len(xs), len(ys)))
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    for a, b in zip(x, y):
        joint[xi[int(a)], yi[int(b)]] += 1
    joint /= n
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    mi = 0.0
    for i in range(len(xs)):
        for j in range(len(ys)):
            if joint[i, j] > 0:
                mi += joint[i, j] * math.log2(joint[i, j] / (px[i] * py[j]))
    return mi


def f1_from_confusion(tp: int, fp: int, fn: int) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def multiclass_f1(preds: np.ndarray, labels: np.ndarray, num_classes: int) -> tuple[float, float]:
    """(micro, macro) F1 by per-class confusion counting."""
    tps = fps = fns = 0
    per_class = []
    for c in range(num_classes):
        tp = int(((preds == c) & (labels == c)).sum())
        fp = int(((preds == c) & (labels != c)).sum())
        fn = int(((preds != c) & (labels == c)).sum())
        tps, fps, fns = tps + tp, fps + fp, fns + fn
        per_class.append(f1_from_confusion(tp, fp, fn))
    return f1_from_confusion(tps, fps, fns), float(np.mean(per_class))


# ---------------------------------------------------------------------------
# dense per-edge reference of one message-passing layer and of the fusion


def _softmax_1d(v: np.ndarray) -> np.ndarray:
    e = np.exp(v - v.max())
    return e / e.sum()


def dense_layer_reference(
    graph,
    state: dict[str, np.ndarray],
    params,
    mode: str = "joint",
    scale_outside: bool = False,
    relation_encoding: bool = True,
    sequence_update: bool = True,
) -> dict[str, np.ndarray]:
    """Reference layer that materializes every edge, head and slot explicitly.

    Works on plain float64 arrays; ``params`` is read only through ``.data``.
    """
    schema = graph.schema
    heads = params.heads
    d = params.dim
    d_h = d // heads

    q_all, k_all, v_all = {}, {}, {}
    for name, h in state.items():
        n, f, _ = h.shape
        wq, bq = params.query[name]
        wk = params.key[name]
        wv, bv = params.value[name]
        q_all[name] = np.array(
            [[h[i, j].astype(np.float64) @ wq.data + bq.data for j in range(f)] for i in range(n)]
        )
        k_all[name] = np.array(
            [[h[i, j].astype(np.float64) @ wk.data for j in range(f)] for i in range(n)]
        )
        v_all[name] = np.array(
            [[h[i, j].astype(np.float64) @ wv.data + bv.data for j in range(f)] for i in range(n)]
        )

    messages = {}
    for rel in schema.relations:
        edges = graph.edges[rel]
        n_dst = graph.counts[rel.dst]
        f_s = state[rel.src].shape[1]
        f_t = state[rel.dst].shape[1]
        out = np.zeros((n_dst, f_t, d))
        per_target: dict[int, list[int]] = {}
        for e, (s, t) in enumerate(edges):
            per_target.setdefault(int(t), []).append(e)
        for m in range(heads):
            w_att = params.att[rel].data[m]
            lo, hi = m * d_h, (m + 1) * d_h
            for t, edge_ids in per_target.items():
                # raw logit matrices of every incident edge
                logits = []
                for e in edge_ids:
                    s = int(edges[e][0])
                    block = np.zeros((f_s, f_t))
                    for i in range(f_s):
                        for j in range(f_t):
                            block[i, j] = k_all[rel.src][s, i, lo:hi] @ w_att @ q_all[rel.dst][t, j, lo:hi]
                    logits.append(block if scale_outside else block / np.sqrt(d_h))
                stack = np.stack(logits)  # (deg, f_s, f_t)
                attn = np.zeros_like(stack)
                if mode == "joint":
                    for j in range(f_t):
                        attn[:, :, j] = _softmax_1d(stack[:, :, j].reshape(-1)).reshape(stack.shape[0], f_s)
                else:
                    for i in range(f_s):
                        for j in range(f_t):
                            attn[:, i, j] = _softmax_1d(stack[:, i, j])
                if scale_outside:
                    attn = attn / np.sqrt(d)
                for pos, e in enumerate(edge_ids):
                    s = int(edges[e][0])
                    ext = np.array(
                        [v_all[rel.src][s, i] @ params.ext[rel].data for i in range(f_s)]
                    )
                    out[t, :, lo:hi] += attn[pos].T @ ext[:, lo:hi]
        messages[rel] = out

    new_state = {}
    for nt in schema.node_types:
        name = nt.name
        incoming = schema.relations_into(name)
        if not incoming:
            new_state[name] = state[name].astype(np.float64)
            continue
        blocks = []
        for rel in incoming:
            block = messages[rel]
            if relation_encoding:
                block = block + params.enc[rel].data
            blocks.append(block)
        n, f_t = state[name].shape[0], state[name].shape[1]
        if sequence_update:
            h_tilde = np.concatenate(blocks, axis=1)
            adopted = np.array(
                [[h_tilde[i, j] @ params.adopt[name].data for j in range(h_tilde.shape[1])] for i in range(n)]
            )
            new_state[name] = np.concatenate([state[name].astype(np.float64), adopted], axis=1)
        else:
            merged = np.mean(blocks, axis=0)
            new_state[name] = np.array(
                [[merged[i, j] @ params.adopt[name].data for j in range(f_t)] for i in range(n)]
            )
    return new_state


def dense_fuse_reference(h0: np.ndarray, hl: np.ndarray, params) -> tuple[np.ndarray, np.ndarray]:
    """Reference fusion; returns (fused (n, d), attention (heads, n, F_L))."""
    n, f_l, d = hl.shape
    heads = params.heads
    d_h = d // heads
    fq, fk, fv = params.fq.data, params.fk.data, params.fv.data
    fused = np.zeros((n, d))
    attn = np.zeros((heads, n, f_l))
    for i in range(n):
        q_full = np.mean([h0[i, j].astype(np.float64) @ fq for j in range(h0.shape[1])], axis=0)
        k_full = np.array([hl[i, j].astype(np.float64) @ fk for j in range(f_l)])
        v_full = np.array([hl[i, j].astype(np.float64) @ fv for j in range(f_l)])
        for m in range(heads):
            lo, hi = m * d_h, (m + 1) * d_h
            logits = np.array([k_full[j, lo:hi] @ q_full[lo:hi] for j in range(f_l)]) / np.sqrt(d_h)
            a = _softmax_1d(logits)
            attn[m, i] = a
            fused[i, lo:hi] = sum(a[j] * v_full[j, lo:hi] for j in range(f_l))
    return fused, attn
