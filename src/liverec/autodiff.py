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
stores, so no join or transpose of them reaches the tape either.  It saves the gate
activations, the cells and their tanh (only when an operand is tracked),
and its backward rule is a hand-written reverse loop through time, so the
per-step ops never reach the tape.

Operands may be Tensors, numpy arrays, or Python scalars; non-Tensor
operands are treated as constants.  Limited broadcasting is supported in
``add``/``multiply_elementwise`` (equal shapes, scalar against anything,
and the (M,1)/(1,N) outer pattern the attention layers use).  ``concat``
joins along axis 0 and ``reduce_sum`` sums all elements or one axis.
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
    "lstm",
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


def concat(tensors: Sequence) -> Tensor:
    """Join tensors along axis 0: 1-D vectors, or (k_i, d) blocks.

    Scalars are lifted to length-1 vectors; every part must have the same
    trailing shape.
    """
    parts = [_parts(t) for t in tensors]
    datas = [d if d.ndim else d.reshape(1) for d, _, _ in parts]
    try:
        out = np.concatenate(datas) if datas else np.zeros(0)
    except ValueError:
        raise ShapeError("concat", *[d.shape for d, _, _ in parts]) from None
    tape = _tape_of(*[(nid, tp) for _, nid, tp in parts])
    ids = tuple(nid for _, nid, tp in parts)
    shapes = tuple(d.shape for d, _, _ in parts)
    return _emit(tape, "concat", ids, (shapes,), out)


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


def lstm(embedded, step_rows, w, u, b) -> Tensor:
    """A whole LSTM loop over B sequences advancing together, as one op.

    ``embedded`` is an (n, k) block of inputs and ``step_rows`` a (T, B)
    int array: step t reads rows ``step_rows[t]`` as its (B, k) input.
    ``w`` (4d, k) and ``u`` (4d, d) project the input and the previous
    state, ``b`` is the (4d,) bias; row blocks are the gates
    ``[i | f | o | c]``.  A step is ``pre = x_t @ w.T (+ h @ u.T from
    step 2 on) + b``, a sigmoid over columns [0, 3d) and a tanh over
    [3d, 4d), then ``c = f*c + i*g`` and ``h = o*tanh(c)``, starting from
    zero.
    Returns the T step states stacked into one (T*B, d) tensor: row
    ``t*B + b`` is sequence b's state after step t.

    When an operand is tracked the gate activations, the cells and their
    tanh are saved for the backward sweep; otherwise nothing is kept.
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
    inputs = xd[rows]  # (T, B, k), gathered once
    out = np.empty((steps * width, dim))
    if tape is not None:
        acts = np.empty((steps, width, 4 * dim))
        cells = np.empty((steps, width, dim))
        tanh_cells = np.empty((steps, width, dim))
    # made once: at B = 1 a fresh .T view per step, or adding the (4d,)
    # bias by broadcasting, costs about as much as the step's products
    w_cols, u_cols, b_row = wd.T, ud.T, bd.reshape(1, -1)
    h = c = None
    for t in range(steps):
        pre = inputs[t] @ w_cols
        if h is not None:
            pre += h @ u_cols
        pre += b_row
        gates, g_g = expit(pre[:, : 3 * dim]), np.tanh(pre[:, 3 * dim :])
        ig = gates[:, :dim] * g_g
        c = ig if c is None else gates[:, dim : 2 * dim] * c + ig
        tc = np.tanh(c)
        h = np.multiply(gates[:, 2 * dim :], tc, out=out[t * width : (t + 1) * width])
        if tape is not None:
            acts[t, :, : 3 * dim], acts[t, :, 3 * dim :], cells[t], tanh_cells[t] = gates, g_g, c, tc
    saved = (xd.shape, rows, inputs, wd, ud, acts, cells, tanh_cells, out) if tape is not None else None
    return _emit(tape, "lstm", (xi, wi, ui, bi), saved, out)


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
    (shapes,) = saved
    off = 0
    for nid, shape in zip(ids, shapes):
        n = shape[0] if shape else 1
        if nid is not None:
            acc(nid, g[off : off + n].reshape(shape))
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


def _bk_lstm(ids, saved, g, acc):
    """Backpropagation through time: one reverse loop carries the state and
    cell gradients; each step writes its four gate gradients into a (B, 4d)
    block, and the weight, bias and input gradients are one product each
    over all steps afterwards.  The weight gradients are transposed
    (k, 4d) and (d, 4d) products: they sum in the order training used when
    the weights were stored per gate, so trained weights are bit-for-bit
    the same in either layout."""
    xshape, rows, inputs, wd, ud, acts, cells, tanh_cells, out = saved
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
    if x_id is not None:
        acc(x_id, _scatter_rows(None, xshape, [(rows, d_pre @ wd)]))
    if w_id is not None:
        acc(w_id, (inputs.reshape(-1, xshape[1]).T @ d_pre).T)
    if u_id is not None:
        acc(u_id, (out[:-width].T @ d_pre[width:]).T)
    if b_id is not None:
        acc(b_id, d_pre.sum(axis=0))


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
    "lstm": _bk_lstm,
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
    n = shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    if np.count_nonzero(seen) == idx.size:
        buf = np.zeros(shape) if dense is None else np.array(dense)
        buf[idx] += np.concatenate(parts)
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
    return (onehot @ np.concatenate(parts).reshape(cols.size, -1)).reshape(shape)


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
