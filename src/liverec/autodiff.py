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

``lstm`` is a fused kernel: a whole LSTM loop over a packed batch of
sequences runs in plain numpy and records one node, whatever the number
of steps.  The sequences come sorted longest first, so each step runs on
only the sequences still going, a prefix of the previous step's, and the
output holds one state row per step of each sequence and no dead rows.
It takes the gate weights as the (4d, k) and (4d, d) row blocks the
model stores, so no join or transpose of them reaches the tape either.
Each input row is projected into the gates once, however many sequences
and steps read it, and a step gathers its rows of that projection into
one contiguous gate-major (4d, width) slab, so each gate is a contiguous
row block and one tanh covers all four gates (a sigmoid is
``0.5*tanh(x/2) + 0.5``).  Only when an operand is tracked does it keep
every step's slab of gate activations and its cells, packed one after
another, 5d floats per state row.  Its backward rule is a hand-written
reverse loop through time in the same layout: it takes the cells' tanh
again, sums the step gradients per input row a block of steps at a time,
so it holds no gradient row per state row, and the per-step ops never
reach the tape.

``segment_attention`` is the attention layers' pooling: it pools ragged
groups of rows, each with its own softmax, in one node whatever the
number of groups.  It scores each source row once and puts the softmax
weights into one sparse (groups, rows) matrix, so the pooling and its
backward rule are products with that matrix and no row is gathered.

Operands may be Tensors, numpy arrays, or Python scalars; non-Tensor
operands are treated as constants.  ``add``/``multiply_elementwise``
broadcast as numpy does (a (B, d) block against a (d,) vector, say).
``concat`` joins along one axis and ``reduce_sum`` sums all elements or
one axis.
"""
from __future__ import annotations

from bisect import bisect_right
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


# a step gathers its input rows of the projection in one call, or, when it
# reads fewer, those of as many whole steps as fit: at d = 32 a lone
# sequence of 175 steps ran about 25% slower gathering step by step and
# still paid below about 128 rows, while gathering further ahead did not
# help a batch of hundreds of sequences
_GATHER_ROWS = 512

# the most packed gradient rows the LSTM backward sweep holds before it sums
# them per input row, and the rows per slice of the pooling backward's dense
# update.  At d = 32, on 215 sequences of 150-200 steps over 500 input rows,
# the LSTM backward took 82, 72, 69 and 70 ms with blocks of 1,024, 2,048,
# 4,096 and 8,192 rows (78 ms holding every row); a `long-hist` train's
# tracemalloc peak was 89 MB up to 8,192 rows and 107 MB at 16,384
_BLOCK_ROWS = 4096


def lstm(embedded, step_rows, widths, w, u, b) -> Tensor:
    """A whole LSTM loop over a packed batch of sequences, as one op.

    The sequences are packed longest first: ``widths`` (T,) is
    non-increasing and positive, ``widths[t]`` being the number of
    sequences still running at step t, so step t's sequences are the first
    ``widths[t]`` of step t-1's.  ``step_rows`` lists, step after step,
    the rows of ``embedded`` (n, k) that step's sequences read, in that
    sequence order; a row may be read by many sequences and steps.  ``w``
    (4d, k) and ``u`` (4d, d) project the input and the previous state,
    ``b`` is the (4d,) bias; row blocks are the gates ``[i | f | o | c]``.
    A step is ``pre = (w @ x + b) (+ u @ h from step 2 on)``, a sigmoid
    over rows [0, 3d) and a tanh over [3d, 4d), then ``c = f*c + i*g`` and
    ``h = o*tanh(c)``, starting from zero.  Returns the (sum(widths), d)
    states, packed like ``step_rows``: row j is the state after the step
    that read input row ``step_rows[j]``.  No finished sequence is stepped.

    Each input row is projected once, into an (n, 4d) block.  A step
    gathers its sequences' rows of it and works gate-major, on one
    contiguous (4d, widths[t]) slab, so each gate is a contiguous row
    block; no (T, B, 4d) block is built.  The sigmoid is
    ``0.5*tanh(x/2) + 0.5``, with the projection's and ``u``'s sigmoid
    rows halved (exactly), so one tanh per step, in place in the slab,
    covers all four gates.  When an operand is tracked, every step's slab
    (by then its gate activations) and cells are kept in packed buffers for
    the backward sweep, which recomputes the cells' tanh; otherwise one
    slab's buffer is reused and only the last step's cells are held.
    """
    xd, xi, xt = _parts(embedded)
    wd, wi, wt = _parts(w)
    ud, ui, ut = _parts(u)
    bd, bi, bt = _parts(b)
    rows = np.asarray(step_rows, dtype=np.intp)
    sizes = np.asarray(widths, dtype=np.intp)
    dim = ud.shape[1] if ud.ndim == 2 else 0
    ends = np.cumsum(sizes).tolist() if sizes.ndim == 1 else [-1]
    if (xd.ndim != 2 or rows.ndim != 1 or ud.shape != (4 * dim, dim) or not dim
            or wd.shape != (4 * dim, xd.shape[1]) or bd.shape != (4 * dim,)
            or (ends[-1] if ends else 0) != rows.size
            or (sizes.size and (sizes[-1] < 1 or (sizes[1:] > sizes[:-1]).any()))):
        raise ShapeError("lstm", xd.shape, rows.shape, sizes.shape, wd.shape, ud.shape, bd.shape)
    if rows.size and (rows.min() < 0 or rows.max() >= xd.shape[0]):
        raise IndexError(f"lstm: step row out of range for input with {xd.shape[0]} rows")
    tape = _tape_of((xi, xt), (wi, wt), (ui, ut), (bi, bt))
    total, gate_rows, sig = rows.size, 4 * dim, 3 * dim  # sig: the sigmoid gates' rows
    proj = xd @ wd.T
    proj += bd
    proj[:, :sig] *= 0.5
    u_half = ud.copy()
    u_half[:sig] *= 0.5
    out = np.empty((total, dim))
    tracked = tape is not None
    gates = np.empty(gate_rows * (total if tracked else ends[0] if ends else 0))
    cells = np.empty(dim * total) if tracked else None
    start = width = stop = 0
    h = c = cs = None
    for t, end in enumerate(ends):
        n = end - start
        if tracked or n != width:  # untracked steps reuse one buffer, so its views change with the width only
            slab = gates[gate_rows * start : gate_rows * end] if tracked else gates[: gate_rows * n]
            a = slab.reshape(gate_rows, n)
            s, i_g, f_g, o_g, g_g = a[:sig], a[:dim], a[dim : 2 * dim], a[2 * dim : sig], a[sig:]
        if end > stop:  # gather the input rows of the next steps that fit in _GATHER_ROWS
            first, stop = start, ends[max(bisect_right(ends, start + _GATHER_ROWS) - 1, t)]
            block = proj[rows[first:stop]]
        x_t = block[start - first : end - first].T
        if h is None:
            a[...] = x_t
        else:
            if n != width:  # the sequences past the first n have ended
                h, c = h[:, :n], c[:, :n]
            np.dot(u_half, h, out=a)
            a += x_t
        width = n
        np.tanh(a, out=a)
        s *= 0.5
        s += 0.5
        if tracked:
            cs = cells[dim * start : dim * end].reshape(dim, n)
        if c is None:
            c = np.multiply(i_g, g_g, out=cs)
        else:
            c = np.multiply(f_g, c, out=cs)
            c += i_g * g_g
        h = o_g * np.tanh(c)
        out[start:end] = h.T
        start = end
    saved = (xd, rows, sizes, wd, ud, gates, cells, out) if tracked else None
    return _emit(tape, "lstm", (xi, wi, ui, bi), saved, out)


def segment_attention(states, w, index, lengths, values=None) -> Tensor:
    """Attention-pool ragged groups of rows, one softmax per group, as one op.

    ``index`` lists rows of ``states`` (n, k) group after group (None for
    every row in order) and ``lengths`` (S,) counts each group's rows; a
    group may be empty, and a row may be read by many groups or many times
    by one.  Group s weighs its rows x by ``softmax(x @ w)`` over the group
    and returns the weighted sum of the same rows of ``values`` (n, d), or
    of ``states`` when None.  The output is (S, d), with a zero row for an
    empty group; a zero ``w`` gives each group's mean.

    Each source row's logit is taken once, as ``(states @ w)[index]``, and
    the weights form an (S, n) CSR matrix ``P`` with one entry per index
    entry (a repeated row keeps its entries), so the pooling is ``P @
    values`` and no row is gathered.  When an operand is tracked, ``P`` is
    saved for the backward sweep.
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
    if not idx.size:
        return _emit(tape, "segment_attention", (si, wi, vi), None, np.zeros((counts.size, vd.shape[1])))
    ends = np.cumsum(counts)
    full = counts > 0
    starts = (ends - counts)[full]
    group = np.repeat(np.arange(starts.size), counts[full])  # each entry's non-empty group
    logits = (sd @ wd)[idx]
    e = np.exp(logits - np.maximum.reduceat(logits, starts)[group])
    a = e / np.add.reduceat(e, starts)[group]
    weights = csr_matrix((a, idx, np.concatenate([[0], ends])), shape=(counts.size, sd.shape[0]))
    out = weights @ vd
    saved = (weights, sd, vd, wd, out, values is None) if tape is not None else None
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
    """Backpropagation through time in the forward's packed, gate-major
    layout.  One reverse loop carries the state and cell gradients of step
    t+1's sequences, the first ``widths[t+1]`` of step t's.  It takes each
    step's cell tanh again from the saved cells (the forward's own call on
    the same values, so the same bits) and writes the step's four gate
    gradients into one contiguous (4d, widths[t]) slab.  From the slab come
    the state gradient for step t-1 and the step's term of the recurrent
    weights' gradient: a product with the previous states, which for step
    t's sequences are the first ``widths[t]`` rows of step t-1's.

    The slab's transposed rows go into a block of `_BLOCK_ROWS` packed rows
    (every row, when there are fewer, so a short batch allocates no row it
    never writes; the first step's width, when that is more).  When the next
    step would not fit, `_scatter_rows` adds the block's rows per input row
    into the (n, 4d) projection gradient, each row's readers in packed
    order within the block, so no (sum(widths), 4d) gradient is ever held.
    The input and weight gradients are then one (n, 4d) product each and
    the bias gradient one sum over the n rows.  Summing per block and per
    row reorders the input-weight and bias sums, and summing per step the
    recurrent ones, so they match one product over every step to rounding,
    not bit for bit."""
    xd, rows, sizes, wd, ud, gates, cells, out = saved
    if not rows.size:  # no step ran
        return
    x_id, w_id, u_id, b_id = ids
    dim = ud.shape[1]
    gate_rows = 4 * dim
    ends = np.cumsum(sizes).tolist()
    starts = [0] + ends[:-1]
    summed = x_id is not None or w_id is not None or b_id is not None
    if summed:
        d_proj = np.zeros((xd.shape[0], gate_rows))
        cap = max(min(_BLOCK_ROWS, ends[-1]), ends[0])
        block = np.empty((cap, gate_rows))  # its last rows hold packed rows [start, hi)
        hi = ends[-1]

        def flush(first, stop):  # sum the block's packed rows [first, stop) into their input rows
            read, at = np.unique(rows[first:stop], return_inverse=True)
            d_proj[read] += _scatter_rows(None, (read.size, gate_rows), [(at, block[cap - (stop - first) :])])

    d_u = np.zeros((gate_rows, dim)) if u_id is not None else None
    slab = np.empty(gate_rows * ends[0])
    u_back = ud.T
    dh = dc = None
    for t in range(len(ends) - 1, -1, -1):
        start, end = starts[t], ends[t]
        n = end - start
        a = gates[gate_rows * start : gate_rows * end].reshape(gate_rows, n)
        i_g, f_g, o_g, g_g = a[:dim], a[dim : 2 * dim], a[2 * dim : 3 * dim], a[3 * dim :]
        tc = np.tanh(cells[dim * start : dim * end].reshape(dim, n))
        if dh is None:
            dh = g[start:end].T
        else:  # the carried gradients reach only step t+1's sequences
            carried = dh
            dh = g[start:end].T.copy()
            dh[:, : carried.shape[1]] += carried
        dc_t = dh * o_g
        dc_t *= 1.0 - tc * tc
        if dc is not None:
            dc_t[:, : dc.shape[1]] += dc
        dc = dc_t
        blk = slab[: gate_rows * n].reshape(gate_rows, n)
        d_i, d_f, d_o, d_g = blk[:dim], blk[dim : 2 * dim], blk[2 * dim : 3 * dim], blk[3 * dim :]
        np.multiply(dc, g_g, out=d_i)
        d_i *= i_g
        d_i *= 1.0 - i_g
        np.multiply(dh, tc, out=d_o)
        d_o *= o_g
        d_o *= 1.0 - o_g
        np.multiply(dc, i_g, out=d_g)
        d_g *= 1.0 - g_g * g_g
        if t:
            prev = starts[t - 1]
            prev_cells = cells[dim * prev : dim * ends[t - 1]].reshape(dim, -1)[:, :n]
            np.multiply(dc, prev_cells, out=d_f)
            d_f *= f_g
            d_f *= 1.0 - f_g
            if d_u is not None:
                d_u += blk @ out[prev : prev + n]
            dh = u_back @ blk
            dc *= f_g
        else:  # the first step has no previous cell or state
            d_f[...] = 0.0
        if summed:
            if hi - start > cap:
                flush(end, hi)
                hi = end
            block[cap - (hi - start) : cap - (hi - end)] = blk.T
    if summed:
        flush(0, hi)
        if x_id is not None:
            acc(x_id, d_proj @ wd)
        if w_id is not None:
            acc(w_id, d_proj.T @ xd)
        if b_id is not None:
            acc(b_id, d_proj.sum(axis=0))
    if d_u is not None:
        acc(u_id, d_u)


def _bk_segment_attention(ids, saved, g, acc):
    """With ``P`` the forward's weight matrix, the values get ``P.T @ g``.
    Entry k (group s, row r, weight a_k) has the logit gradient ``a_k
    (g_s . v_r - g_s . out_s)``; summed over the entries that read row r
    that is ``v_r . (P.T @ g)_r - (P.T @ c)_r`` with ``c_s = g_s . out_s``,
    so the per-row logit gradients ``dl`` take two products with ``P.T``
    and nothing per entry.  The states get ``outer(dl, w)`` and ``w`` gets
    ``dl @ states``.  When the states are the values, their two gradients
    are one: the outer product is added into ``P.T @ g`` `_BLOCK_ROWS` rows
    at a time, so no second (n, k) block is built."""
    if saved is None:  # no row read
        return
    weights, sd, vd, wd, out, own_values = saved
    s_id, w_id, v_id = ids
    back = weights.T
    dv = back @ g
    if not own_values:
        acc(v_id, dv)
    if s_id is None and w_id is None:
        return
    dl = np.einsum("ij,ij->i", vd, dv) - back @ np.einsum("ij,ij->i", g, out)
    if w_id is not None:
        acc(w_id, dl @ sd)
    if s_id is None:
        return
    if own_values:
        for lo in range(0, dv.shape[0], _BLOCK_ROWS):
            dv[lo : lo + _BLOCK_ROWS] += np.outer(dl[lo : lo + _BLOCK_ROWS], wd)
        acc(s_id, dv)
    else:
        acc(s_id, np.outer(dl, wd))


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
