"""Dense float64 tensors with taped reverse-mode differentiation.

The tape is a flat Wengert list: every tracked operation appends one
record ``(kind, input node ids, saved values)`` and ``backward`` runs a
single reverse sweep over it, accumulating gradients per node.  A node's
gradient buffer is freed as soon as its rule has run, so the sweep holds
only the gradients still waiting for a reader, not one per node; only the
leaves' gradients survive it.  Tapes are cheap and single-use: build a
graph, call backward once, throw the tape away.  A tape must not be
shared between threads; tensors that are not tracked on any tape are
immutable and safe to share.

Row gathers (``embedding_lookup``) are the one op whose gradient is not
accumulated node by node: the sweep collects each gather's gradient rows
against its source tensor and scatters them all at once when it reaches
that source, so gathering rows from a large tensor many times costs no
full-size buffer per gather.  Repeated rows are summed by a one-hot
sparse product, in the same order as ``np.add.at``.

``lstm`` is a fused kernel: a whole LSTM loop over a block of sequences
runs in plain numpy and records one node, whatever the number of steps.
It takes the gate weights as the (4d, k) and (4d, d) row blocks the model
stores, so no join or transpose of them reaches the tape either.  Each
input row is projected into the gates once, however many sequences and
steps read it, and a step takes one tanh over all four gates (a sigmoid
is ``0.5*tanh(x/2) + 0.5``).  It saves the gate activations, the cells
and their tanh (only when an operand is tracked), and its backward rule
is a hand-written reverse loop through time that sums the step gradients
per input row, so the per-step ops never reach the tape.

``segment_attention`` is the attention layers' pooling: it pools ragged
groups of rows, each with its own softmax, in one node whatever the
number of groups, and its backward rule scatters the row gradients back
once.

Operands may be Tensors, numpy arrays, or Python scalars; non-Tensor
operands are treated as constants.  ``add``/``multiply_elementwise``
broadcast as numpy does (a (B, d) block against a (d,) vector, say).
``concat`` joins along one axis and ``reduce_sum`` sums all elements or
one axis.
"""
from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "backward",
    "add",
    "multiply_elementwise",
    "matmul",
    "concat",
    "reduce_sum",
    "sigmoid",
    "relu",
    "softmax",
    "dot",
    "log",
    "clamp",
    "embedding_lookup",
    "reshape",
    "transpose",
    "lstm",
    "segment_attention",
]


class ShapeError(ValueError):
    """Operand shapes do not conform to an op's rule."""

    def __init__(self, kind: str, *shapes):
        self.kind = kind
        self.shapes = tuple(tuple(int(n) for n in s) for s in shapes)
        shown = " vs ".join(str(s) for s in self.shapes)
        super().__init__(f"{kind}: incompatible shapes {shown}")


class Tensor:
    """A dense float64 array, optionally tracked on a tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape: "Tape | None" = None, node_id: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def tracked(self) -> bool:
        return self.node_id is not None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, tracked={self.tracked})"


class Tape:
    """Append-only record of operations and of the trainable leaves.

    ``nodes[i]`` is ``(kind, input node ids, saved values)``; inputs of a
    node always precede it, so one reverse sweep visits each node exactly
    once.
    """

    __slots__ = ("nodes", "leaf_ids")

    def __init__(self):
        self.nodes: list[tuple] = []
        self.leaf_ids: list[int] = []

    def watch(self, array) -> Tensor:
        """Register a trainable leaf and return its tracked tensor."""
        data = np.asarray(array, dtype=np.float64)
        nid = len(self.nodes)
        self.nodes.append(("leaf", (), (data.shape,)))
        self.leaf_ids.append(nid)
        return Tensor(data, self, nid)


def _parts(x):
    if isinstance(x, Tensor):
        return x.data, x.node_id, x.tape
    return np.asarray(x, dtype=np.float64), None, None


def _tape_of(*tracked):
    tape = None
    for nid, tp in tracked:
        if nid is None:
            continue
        if tape is None:
            tape = tp
        elif tape is not tp:
            raise ValueError("operands tracked on different tapes")
    return tape


def _emit(tape, kind, input_ids, saved, out):
    if tape is None:
        return Tensor(out)
    nid = len(tape.nodes)
    tape.nodes.append((kind, input_ids, saved))
    return Tensor(out, tape, nid)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# forward ops


def add(a, b) -> Tensor:
    ad, ai, at = _parts(a)
    bd, bi, bt = _parts(b)
    try:
        out = ad + bd
    except ValueError:
        raise ShapeError("add", ad.shape, bd.shape) from None
    tape = _tape_of((ai, at), (bi, bt))
    return _emit(tape, "add", (ai, bi), (ad.shape, bd.shape), out)


def multiply_elementwise(a, b) -> Tensor:
    ad, ai, at = _parts(a)
    bd, bi, bt = _parts(b)
    try:
        out = ad * bd
    except ValueError:
        raise ShapeError("multiply_elementwise", ad.shape, bd.shape) from None
    tape = _tape_of((ai, at), (bi, bt))
    return _emit(tape, "multiply_elementwise", (ai, bi), (ad, bd), out)


def matmul(a, b) -> Tensor:
    ad, ai, at = _parts(a)
    bd, bi, bt = _parts(b)
    ok = (
        (ad.ndim == 2 and bd.ndim in (1, 2) and ad.shape[1] == bd.shape[0])
        or (ad.ndim == 1 and bd.ndim == 2 and ad.shape[0] == bd.shape[0])
    )
    if not ok:
        raise ShapeError("matmul", ad.shape, bd.shape)
    out = ad @ bd
    tape = _tape_of((ai, at), (bi, bt))
    return _emit(tape, "matmul", (ai, bi), (ad, bd), out)


def concat(tensors: Sequence, axis: int = 0) -> Tensor:
    """Join tensors along one axis: 1-D vectors, or (k_i, d) blocks along
    axis 0, or (B, d_i) blocks along axis 1.

    Scalars are lifted to length-1 vectors; every part must have the same
    shape off the joined axis.
    """
    parts = [_parts(t) for t in tensors]
    datas = [d if d.ndim else d.reshape(1) for d, _, _ in parts]
    try:
        out = np.concatenate(datas, axis=axis) if datas else np.zeros(0)
    except ValueError:  # numpy's AxisError is one too
        raise ShapeError("concat", *[d.shape for d, _, _ in parts]) from None
    tape = _tape_of(*[(nid, tp) for _, nid, tp in parts])
    ids = tuple(nid for _, nid, tp in parts)
    shapes = tuple(d.shape for d, _, _ in parts)
    return _emit(tape, "concat", ids, (shapes, axis % out.ndim), out)


def reduce_sum(x, axis: int | None = None) -> Tensor:
    """Sum over all elements (axis None) or along one axis."""
    xd, xi, xt = _parts(x)
    if axis is not None:
        if not -xd.ndim <= axis < xd.ndim:
            raise ShapeError("sum", xd.shape)
        axis %= xd.ndim
    out = xd.sum(axis=axis)
    return _emit(_tape_of((xi, xt)), "sum", (xi,), (xd.shape, axis), out)


def sigmoid(x) -> Tensor:
    xd, xi, xt = _parts(x)
    out = expit(xd)
    return _emit(_tape_of((xi, xt)), "sigmoid", (xi,), (out,), out)


def relu(x) -> Tensor:
    xd, xi, xt = _parts(x)
    out = np.maximum(xd, 0.0)
    return _emit(_tape_of((xi, xt)), "relu", (xi,), (xd,), out)


def softmax(x) -> Tensor:
    """Stable softmax over a 1-D vector (max subtraction)."""
    xd, xi, xt = _parts(x)
    if xd.ndim != 1:
        raise ShapeError("softmax", xd.shape)
    e = np.exp(xd - xd.max())
    out = e / e.sum()
    return _emit(_tape_of((xi, xt)), "softmax", (xi,), (out,), out)


def dot(a, b) -> Tensor:
    ad, ai, at = _parts(a)
    bd, bi, bt = _parts(b)
    if ad.ndim != 1 or bd.ndim != 1 or ad.shape != bd.shape:
        raise ShapeError("dot", ad.shape, bd.shape)
    out = np.asarray(ad @ bd)
    tape = _tape_of((ai, at), (bi, bt))
    return _emit(tape, "dot", (ai, bi), (ad, bd), out)


def log(x) -> Tensor:
    xd, xi, xt = _parts(x)
    out = np.log(xd)
    return _emit(_tape_of((xi, xt)), "log", (xi,), (xd,), out)


def clamp(x, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only through the interior."""
    xd, xi, xt = _parts(x)
    out = np.clip(xd, lo, hi)
    mask = (xd > lo) & (xd < hi)
    return _emit(_tape_of((xi, xt)), "clamp", (xi,), (mask,), out)


def embedding_lookup(table, indices) -> Tensor:
    """Gather rows of a (V, d) table; indices is an int or int array."""
    td, ti, tt = _parts(table)
    if td.ndim != 2:
        raise ShapeError("embedding_lookup", td.shape)
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= td.shape[0]):
        raise IndexError(
            f"embedding_lookup: index out of range for table with {td.shape[0]} rows"
        )
    out = td[idx]
    return _emit(_tape_of((ti, tt)), "embedding_lookup", (ti,), (idx, td.shape), out)


def reshape(x, shape: tuple[int, ...]) -> Tensor:
    xd, xi, xt = _parts(x)
    if prod(shape) != xd.size:
        raise ShapeError("reshape", xd.shape, shape)
    out = xd.reshape(shape)
    return _emit(_tape_of((xi, xt)), "reshape", (xi,), (xd.shape,), out)


def transpose(x) -> Tensor:
    """Swap the two axes of a matrix."""
    xd, xi, xt = _parts(x)
    if xd.ndim != 2:
        raise ShapeError("transpose", xd.shape)
    return _emit(_tape_of((xi, xt)), "transpose", (xi,), None, xd.T)


def lstm(embedded, step_rows, w, u, b) -> Tensor:
    """A whole LSTM loop over B sequences advancing together, as one op.

    ``embedded`` is an (n, k) block of inputs and ``step_rows`` a (T, B)
    int array: step t reads rows ``step_rows[t]`` as its (B, k) input; a
    row may be read by many sequences and steps.  ``w`` (4d, k) and ``u``
    (4d, d) project the input and the previous state, ``b`` is the (4d,)
    bias; row blocks are the gates ``[i | f | o | c]``.  A step is
    ``pre = (x_t @ w.T + b) (+ h @ u.T from step 2 on)``, a sigmoid over
    columns [0, 3d) and a tanh over [3d, 4d), then ``c = f*c + i*g`` and
    ``h = o*tanh(c)``, starting from zero.  Each input row is projected
    once, and the step rows of the projection are gathered once into a
    (T, B, 4d) block.  The sigmoid is ``0.5*tanh(x/2) + 0.5``, with the
    projection's and ``u``'s sigmoid columns halved (exactly), so one tanh
    per step, in place in the block, covers all four gates.
    Returns the T step states stacked into one (T*B, d) tensor: row
    ``t*B + b`` is sequence b's state after step t.

    When an operand is tracked, the block (by then the gate activations),
    the cells and their tanh are saved for the backward sweep.
    """
    xd, xi, xt = _parts(embedded)
    wd, wi, wt = _parts(w)
    ud, ui, ut = _parts(u)
    bd, bi, bt = _parts(b)
    rows = np.asarray(step_rows, dtype=np.intp)
    dim = ud.shape[1] if ud.ndim == 2 else 0
    if (xd.ndim != 2 or rows.ndim != 2 or ud.shape != (4 * dim, dim) or not dim
            or wd.shape != (4 * dim, xd.shape[1]) or bd.shape != (4 * dim,)):
        raise ShapeError("lstm", xd.shape, rows.shape, wd.shape, ud.shape, bd.shape)
    if rows.size and (rows.min() < 0 or rows.max() >= xd.shape[0]):
        raise IndexError(f"lstm: step row out of range for input with {xd.shape[0]} rows")
    tape = _tape_of((xi, xt), (wi, wt), (ui, ut), (bi, bt))
    steps, width = rows.shape
    sig = 3 * dim  # the sigmoid gates' columns
    proj = xd @ wd.T
    proj += bd
    proj[:, :sig] *= 0.5
    acts = proj[rows]  # (T, B, 4d): each step's pre-activations, then its gates
    u_cols = ud.T.copy()
    u_cols[:, :sig] *= 0.5
    out = np.empty((steps * width, dim))
    if tape is not None:
        cells = np.empty((steps, width, dim))
        tanh_cells = np.empty((steps, width, dim))
    # per-step views made once: at B = 1 slicing a step's block costs
    # about as much as an elementwise op on it
    sigmoids, i_g, f_g, o_g, g_g = (acts[:, :, cols] for cols in (
        slice(sig), slice(dim), slice(dim, 2 * dim), slice(2 * dim, sig), slice(sig, None)))
    states = out.reshape(steps, width, dim)
    h = c = None
    for t in range(steps):
        a = acts[t]
        if h is not None:
            a += h @ u_cols
        np.tanh(a, out=a)
        s = sigmoids[t]
        s *= 0.5
        s += 0.5
        ig = i_g[t] * g_g[t]
        c = ig if c is None else f_g[t] * c + ig
        tc = np.tanh(c)
        h = np.multiply(o_g[t], tc, out=states[t])
        if tape is not None:
            cells[t], tanh_cells[t] = c, tc
    saved = (xd, rows, wd, ud, acts, cells, tanh_cells, out) if tape is not None else None
    return _emit(tape, "lstm", (xi, wi, ui, bi), saved, out)


def segment_attention(states, w, index, lengths, values=None) -> Tensor:
    """Attention-pool ragged groups of rows, one softmax per group, as one op.

    ``index`` lists rows of ``states`` (R, k) group after group (None for
    every row in order) and ``lengths`` (S,) counts each group's rows; a
    group may be empty.  Group s weighs its rows x by ``softmax(x @ w)``
    over the group and returns the weighted sum of the same rows of
    ``values`` (R, d), or of ``states`` when None.  The output is (S, d),
    with a zero row for an empty group; a zero ``w`` gives each group's
    mean.  The backward rule sums the row gradients into one buffer of
    ``states``' shape (and one of ``values``'), repeated rows included.
    """
    sd, si, st = _parts(states)
    wd, wi, wt = _parts(w)
    vd, vi, vt = (sd, None, None) if values is None else _parts(values)
    idx = np.arange(sd.shape[0] if sd.ndim else 0) if index is None else np.asarray(index, dtype=np.intp)
    counts = np.asarray(lengths, dtype=np.intp)
    if (sd.ndim != 2 or wd.shape != sd.shape[1:] or vd.ndim != 2 or vd.shape[0] != sd.shape[0]
            or idx.ndim != 1 or counts.ndim != 1 or (counts < 0).any() or counts.sum() != idx.size):
        raise ShapeError("segment_attention", sd.shape, wd.shape, vd.shape, idx.shape, counts.shape)
    if idx.size and (idx.min() < 0 or idx.max() >= sd.shape[0]):
        raise IndexError(f"segment_attention: row out of range for states with {sd.shape[0]} rows")
    tape = _tape_of((si, st), (wi, wt), (vi, vt))
    full = counts > 0
    starts = (np.cumsum(counts) - counts)[full]
    group = np.repeat(np.arange(starts.size), counts[full])  # each row's non-empty group
    x = sd[idx]
    v = x if values is None else vd[idx]
    out = np.zeros((counts.size, vd.shape[1]))
    a = pooled = None
    if idx.size:
        logits = x @ wd
        e = np.exp(logits - np.maximum.reduceat(logits, starts)[group])
        a = e / np.add.reduceat(e, starts)[group]
        pooled = np.add.reduceat(a[:, None] * v, starts, axis=0)
        out[full] = pooled
    saved = (sd.shape, vd.shape, idx, full, group, x, v, wd, a, pooled, values is None) if tape is not None else None
    return _emit(tape, "segment_attention", (si, wi, vi), saved, out)


# ---------------------------------------------------------------------------
# backward rules, one per kind


def _bk_add(ids, saved, g, acc):
    ashape, bshape = saved
    acc(ids[0], _unbroadcast(g, ashape))
    acc(ids[1], _unbroadcast(g, bshape))


def _bk_mul(ids, saved, g, acc):
    ad, bd = saved
    if ids[0] is not None:
        acc(ids[0], _unbroadcast(g * bd, ad.shape))
    if ids[1] is not None:
        acc(ids[1], _unbroadcast(g * ad, bd.shape))


def _bk_matmul(ids, saved, g, acc):
    ad, bd = saved
    if ad.ndim == 2 and bd.ndim == 1:
        if ids[0] is not None:
            acc(ids[0], np.outer(g, bd))
        if ids[1] is not None:
            acc(ids[1], ad.T @ g)
    elif ad.ndim == 2 and bd.ndim == 2:
        if ids[0] is not None:
            acc(ids[0], g @ bd.T)
        if ids[1] is not None:
            acc(ids[1], ad.T @ g)
    else:  # (n,) @ (n,p)
        if ids[0] is not None:
            acc(ids[0], bd @ g)
        if ids[1] is not None:
            acc(ids[1], np.outer(ad, g))


def _bk_concat(ids, saved, g, acc):
    shapes, axis = saved
    off = 0
    for nid, shape in zip(ids, shapes):
        n = shape[axis] if shape else 1
        if nid is not None:
            acc(nid, g[(slice(None),) * axis + (slice(off, off + n),)].reshape(shape))
        off += n


def _bk_sum(ids, saved, g, acc):
    xshape, axis = saved
    acc(ids[0], np.broadcast_to(g if axis is None else np.expand_dims(g, axis), xshape))


def _bk_sigmoid(ids, saved, g, acc):
    (out,) = saved
    acc(ids[0], g * out * (1.0 - out))


def _bk_relu(ids, saved, g, acc):
    (xd,) = saved
    acc(ids[0], g * (xd > 0.0))


def _bk_softmax(ids, saved, g, acc):
    (out,) = saved
    acc(ids[0], out * (g - np.dot(g, out)))


def _bk_dot(ids, saved, g, acc):
    ad, bd = saved
    if ids[0] is not None:
        acc(ids[0], g * bd)
    if ids[1] is not None:
        acc(ids[1], g * ad)


def _bk_log(ids, saved, g, acc):
    (xd,) = saved
    acc(ids[0], g / xd)


def _bk_clamp(ids, saved, g, acc):
    (mask,) = saved
    acc(ids[0], g * mask)


def _bk_reshape(ids, saved, g, acc):
    (xshape,) = saved
    acc(ids[0], g.reshape(xshape))


def _bk_transpose(ids, saved, g, acc):
    acc(ids[0], g.T)


def _bk_lstm(ids, saved, g, acc):
    """Backpropagation through time: one reverse loop carries the state and
    cell gradients; each step writes its four gate gradients into a (B, 4d)
    block.  The step gradients are then summed per input row by
    `_scatter_rows` (each row's readers in step order, then sequence
    order, as ``np.add.at`` adds them), so the input and weight gradients
    are one (n, 4d) product each and the bias gradient one sum over the n
    rows; the recurrent weights' gradient is one product over all steps.
    Summing per row first reorders the input-weight and bias sums, so they
    match one product over every step to rounding, not bit for bit."""
    xd, rows, wd, ud, acts, cells, tanh_cells, out = saved
    steps, width = rows.shape
    dim = ud.shape[1]
    g = g.reshape(steps, width, dim)
    d_pre = np.empty((steps, width, 4 * dim))
    dh = dc = None
    for t in range(steps - 1, -1, -1):
        a = acts[t]
        i_g, f_g, o_g, g_g = a[:, :dim], a[:, dim : 2 * dim], a[:, 2 * dim : 3 * dim], a[:, 3 * dim :]
        tc = tanh_cells[t]
        dh = g[t] if dh is None else g[t] + dh
        dc_t = dh * o_g * (1.0 - tc * tc)
        dc = dc_t if dc is None else dc_t + dc
        blk = d_pre[t]
        blk[:, :dim] = dc * g_g * i_g * (1.0 - i_g)
        blk[:, 2 * dim : 3 * dim] = dh * tc * o_g * (1.0 - o_g)
        blk[:, 3 * dim :] = dc * i_g * (1.0 - g_g * g_g)
        if t:
            blk[:, dim : 2 * dim] = dc * cells[t - 1] * f_g * (1.0 - f_g)
            dh = blk @ ud
            dc = dc * f_g
        else:  # the first step has no previous cell or state
            blk[:, dim : 2 * dim] = 0.0
    d_pre = d_pre.reshape(steps * width, 4 * dim)
    x_id, w_id, u_id, b_id = ids
    if x_id is not None or w_id is not None or b_id is not None:
        d_proj = _scatter_rows(None, (xd.shape[0], 4 * dim), [(rows, d_pre)])
        if x_id is not None:
            acc(x_id, d_proj @ wd)
        if w_id is not None:
            acc(w_id, d_proj.T @ xd)
        if b_id is not None:
            acc(b_id, d_proj.sum(axis=0))
    if u_id is not None:
        acc(u_id, d_pre[width:].T @ out[:-width])


def _bk_segment_attention(ids, saved, g, acc):
    """Each row k of group s gets ``a_k g_s`` through its value and
    ``dl_k = a_k (g_s . v_k - g_s . out_s)`` through its logit, so
    ``dl_k w`` as a state row and ``dl_k x_k`` summed into ``w``."""
    shape, vshape, idx, full, group, x, v, wd, a, pooled, own_values = saved
    if not idx.size:
        return
    s_id, w_id, v_id = ids
    gs = g[full]
    gk = gs[group]  # each row's group gradient
    dv = a[:, None] * gk
    dl = a * (np.einsum("ij,ij->i", gk, v) - np.einsum("ij,ij->i", gs, pooled)[group])
    if w_id is not None:
        acc(w_id, dl @ x)
    dx = np.outer(dl, wd)
    if own_values:
        dx += dv
    elif v_id is not None:
        acc(v_id, _scatter_rows(None, vshape, [(idx, dv)]))
    if s_id is not None:
        acc(s_id, _scatter_rows(None, shape, [(idx, dx)]))


_BACKWARD = {
    "add": _bk_add,
    "multiply_elementwise": _bk_mul,
    "matmul": _bk_matmul,
    "concat": _bk_concat,
    "sum": _bk_sum,
    "sigmoid": _bk_sigmoid,
    "softmax": _bk_softmax,
    "relu": _bk_relu,
    "dot": _bk_dot,
    "log": _bk_log,
    "clamp": _bk_clamp,
    "reshape": _bk_reshape,
    "transpose": _bk_transpose,
    "lstm": _bk_lstm,
    "segment_attention": _bk_segment_attention,
}


def _scatter_rows(dense, shape, gathers) -> np.ndarray:
    """Add every gather's gradient rows into a fresh buffer of ``shape``.

    The sums equal ``np.add.at`` on a copy of the dense gradient (never
    that array itself, which another node may share) or on zeros, bit for
    bit.  When no row index repeats, a plain indexed add does it; else a
    one-hot CSR matrix times the stacked rows, with the dense row leading
    each row's sum as ``np.add.at``'s start value, adds every row in
    gather order.
    """
    idx = np.concatenate([np.reshape(i, -1) for i, _ in gathers])
    parts = [np.reshape(g, (-1,) + shape[1:]) for _, g in gathers]

    def stacked():  # one gather's rows as they are, without a copy
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    n = shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    if np.count_nonzero(seen) == idx.size:
        buf = np.zeros(shape) if dense is None else np.array(dense)
        buf[idx] += stacked()
        return buf
    counts = np.bincount(idx, minlength=n)
    cols = np.argsort(idx, kind="stable")
    if dense is not None:
        parts.insert(0, np.broadcast_to(dense, shape))
        counts += 1
        lead = np.cumsum(counts) - counts  # where each row's dense entry goes
        rest = np.ones(n + idx.size, dtype=bool)
        rest[lead] = False
        merged = np.empty(n + idx.size, dtype=np.intp)
        merged[lead] = np.arange(n)
        merged[rest] = cols + n
        cols = merged
    indptr = np.concatenate([[0], np.cumsum(counts)])
    onehot = csr_matrix((np.ones(cols.size), cols, indptr), shape=(n, cols.size))
    return (onehot @ stacked().reshape(cols.size, -1)).reshape(shape)


def backward(tape: Tape, root: Tensor) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar root; returns gradients per leaf node id.

    Leaves the root does not depend on get explicit zero gradients.
    Gather gradients wait in ``pending`` until the sweep reaches their
    source; every node that reads the source has a larger id, so by then
    all of them have been collected.  A non-leaf node's gradient is
    dropped once its rule has run: every node that feeds it has a smaller
    id, so nothing reads it again.
    """
    if root.tape is not tape or root.node_id is None:
        raise ValueError("backward: root is not tracked on this tape")
    if root.data.shape != ():
        raise ValueError(f"backward: root must be a scalar, got shape {root.data.shape}")
    nodes = tape.nodes
    grads: list = [None] * len(nodes)
    grads[root.node_id] = np.ones(())

    def acc(nid, g):
        if nid is None:
            return
        cur = grads[nid]
        grads[nid] = g if cur is None else cur + g

    pending: dict[int, tuple] = {}  # source id -> (shape, [(indices, gradient rows)])
    rules = _BACKWARD
    for nid in range(root.node_id, -1, -1):
        kind, ids, saved = nodes[nid]
        if nid in pending:
            tshape, gathers = pending.pop(nid)
            grads[nid] = _scatter_rows(grads[nid], tshape, gathers)
        g = grads[nid]
        if g is None or kind == "leaf":
            continue
        grads[nid] = None
        if kind == "embedding_lookup":
            if ids[0] is not None:
                idx, tshape = saved
                pending.setdefault(ids[0], (tshape, []))[1].append((idx, g))
            continue
        rules[kind](ids, saved, g, acc)

    out = {}
    for nid in tape.leaf_ids:
        g = grads[nid]
        if g is None:
            (shape,) = nodes[nid][2]
            g = np.zeros(shape)
        out[nid] = g
    return out
