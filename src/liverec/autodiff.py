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

Row gathers (``embedding_lookup``) add their gradient rows straight into
the source's gradient buffer, which the sweep owns (`_Gradients.buffer`),
through `_add_rows`, as the LSTM backward adds its packed rows into its
input rows: so any number of gathers of one tensor hold one gradient
block between them, and no gather's rows wait for the source.  Repeated
rows are summed by a one-hot sparse product, in the same order as
``np.add.at``.

``lstm`` is a fused kernel: a whole LSTM loop over a packed batch of
sequences runs in plain numpy and records one node, whatever the number
of steps.  The sequences come sorted longest first, so each step runs on
only the sequences still going, a prefix of the previous step's, and the
output holds one state row per step of each sequence and no dead rows.
It takes the gate weights as the (4d, k) and (4d, d) row blocks the
model stores, so no join or transpose of them reaches the tape either.
Each input row is projected into the gates once, however many sequences
and steps read it, and a step adds its rows of that projection into one
contiguous (4, width, d) slab: four gate blocks, one row per sequence, so
gates, states and cells are all (width, d) row blocks, no step copies a
transpose, and one tanh covers all four gates (a sigmoid is
``0.5*tanh(x/2) + 0.5``).  Once one sequence is left, its steps run on
one flat ``[i | f | o | g | c]`` vector instead, with no view made and
nothing allocated per step.  Every step's gates go into the one slab,
tracked or not, so no gate activation outlives its step: when an operand
is tracked the node keeps every step's cells, packed one after another, d
floats per state row next to the d of the states it returns, and what a
step's gates are rebuilt from (the projection and the recurrent blocks).
Its backward rule is a hand-written reverse loop through time in the same
layout: it rebuilds each step's slab with the forward's own calls on the
same operands, so with the same bits, takes the cells' tanh again, sums
the step gradients per input row a block of steps at a time, so it holds
no gradient row per state row, and the per-step ops never reach the tape.

``pnn`` is the static encoder in one node: each object's table rows'
sum plus their pairwise products' (the half-square identity); its rule
adds rows into the table's buffer as a gather's does.

``segment_attention`` is the attention layers' pooling: it pools ragged
groups of rows, each into a softmax-weighted sum of the rows it scores,
in one node whatever the number of groups.  It scores each source row
once and puts the softmax weights into one sparse (groups, rows) matrix,
or one dense row for a lone group, so the pooling and its backward rule
are products with those weights and no row is gathered.  The rule walks
the source a block of rows at a time and adds each block's gradient rows
straight into the source's gradient buffer, which the sweep hands it
(`_Gradients.buffer`), so any number of poolings of one block, the item
aspect's two among them, share one gradient block.

``mlp_head`` is the model's scoring head in one node: the join of the
interaction signals, the dropout mask, both layers, the relu and the
sigmoid.  Its rule sweeps the chain of generic ops it replaced, rule for
rule, so its values and gradients have that chain's bits.

``sigmoid`` takes libm's ``exp`` element by element, so its values have
the bits of ``scipy.special.expit`` without importing ``scipy.special``;
``mlp_head``'s sigmoid is the same one.

``log_loss`` is the training loss, a clipped log loss summed over a batch
of predictions, in one node.

Operands may be Tensors, numpy arrays, or Python scalars; non-Tensor
operands are treated as constants.  ``add``/``multiply_elementwise``
broadcast as numpy does (a (B, d) block against a (d,) vector, say), and
``reduce_sum`` sums all elements or one axis.
"""
from __future__ import annotations

from bisect import bisect_right
from math import exp, inf

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix

__all__ = [
    "ShapeError",
    "Tensor",
    "Tape",
    "backward",
    "add",
    "multiply_elementwise",
    "reduce_sum",
    "sigmoid",
    "mlp_head",
    "log_loss",
    "embedding_lookup",
    "pnn",
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


def reduce_sum(x, axis: int | None = None) -> Tensor:
    """Sum over all elements (axis None) or along one axis."""
    xd, xi, xt = _parts(x)
    if axis is not None:
        if not -xd.ndim <= axis < xd.ndim:
            raise ShapeError("sum", xd.shape)
        axis %= xd.ndim
    out = xd.sum(axis=axis)
    return _emit(_tape_of((xi, xt)), "sum", (xi,), (xd.shape, axis), out)


def _exp_or_inf(x: float) -> float:
    try:
        return exp(x)
    except OverflowError:
        return inf


def _sigmoid(xd: np.ndarray) -> np.ndarray:
    neg = (-xd).ravel().tolist()
    try:
        e = np.fromiter(map(exp, neg), np.float64, xd.size)
    except OverflowError:
        e = np.fromiter(map(_exp_or_inf, neg), np.float64, xd.size)
    e += 1.0
    return np.divide(1.0, e, out=e).reshape(xd.shape)


def sigmoid(x) -> Tensor:
    """``1 / (1 + exp(-x))`` with libm's ``exp`` (``math.exp``) taken
    element by element, so it has the bits of ``scipy.special.expit``
    (numpy's SIMD ``exp`` rounds some values differently); where ``exp(-x)``
    overflows it reads infinity and the sigmoid 0.0, with no warning."""
    xd, xi, xt = _parts(x)
    out = _sigmoid(xd)
    return _emit(_tape_of((xi, xt)), "sigmoid", (xi,), (out,), out)


def mlp_head(parts, mask, w1, b1, w2, b2) -> Tensor:
    """A two-layer MLP's (B,) sigmoid scores over the join of (B, d_i)
    ``parts``, as one op: ``sigmoid(relu((z * mask) @ w1.T + b1) @ w2 +
    b2)`` with ``z`` the parts joined along axis 1, ``w1`` (k, D), ``b1``
    and ``w2`` (k,), ``b2`` () and ``mask`` a (B, D) dropout mask or None.
    The arithmetic is a join, multiply, transpose, matmul, add, relu,
    matmul, add and sigmoid chain's, step for step, so the values and the
    gradients have that chain's bits."""
    split = [_parts(p) for p in parts]
    w1d, w1i, w1t = _parts(w1)
    b1d, b1i, b1t = _parts(b1)
    w2d, w2i, w2t = _parts(w2)
    b2d, b2i, b2t = _parts(b2)
    shapes = [d.shape for d, _, _ in split]
    if not shapes or any(len(s) != 2 or s[0] != shapes[0][0] for s in shapes):
        raise ShapeError("mlp_head", *shapes)
    z = np.concatenate([d for d, _, _ in split], axis=1)
    md = None if mask is None else np.asarray(mask, dtype=np.float64)
    k = w1d.shape[0] if w1d.ndim == 2 else -1
    if ((md is not None and md.shape != z.shape) or w1d.shape != (k, z.shape[1])
            or b1d.shape != (k,) or w2d.shape != (k,) or b2d.shape != ()):
        raise ShapeError("mlp_head", z.shape, () if md is None else md.shape,
                         w1d.shape, b1d.shape, w2d.shape, b2d.shape)
    if md is not None:
        z = z * md
    a1 = z @ w1d.T + b1d
    h = np.maximum(a1, 0.0)
    out = _sigmoid(h @ w2d + b2d)
    tape = _tape_of(*[(nid, tp) for _, nid, tp in split], (w1i, w1t), (b1i, b1t), (w2i, w2t), (b2i, b2t))
    ids = (w1i, b1i, w2i, b2i) + tuple(nid for _, nid, _ in split)
    saved = (shapes, md, z, w1d, a1, h, w2d, out) if tape is not None else None
    return _emit(tape, "mlp_head", ids, saved, out)


def log_loss(predictions, labels, eps: float) -> Tensor:
    """Summed log loss of (B,) predictions against (B,) labels, as one node:
    ``-(log(p) @ y + log(1 - p) @ (1 - y))`` with ``p`` the predictions
    clipped to [eps, 1 - eps].  A clipped prediction gets no gradient."""
    pd, pi, pt = _parts(predictions)
    y = np.asarray(labels, dtype=np.float64)
    if pd.ndim != 1 or y.shape != pd.shape:
        raise ShapeError("log_loss", pd.shape, y.shape)
    p = np.clip(pd, eps, 1.0 - eps)
    q = 1.0 - p
    out = np.asarray(-(np.log(p) @ y + np.log(q) @ (1.0 - y)))
    mask = (pd > eps) & (pd < 1.0 - eps)
    return _emit(_tape_of((pi, pt)), "log_loss", (pi,), (p, q, y, mask), out)


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


def pnn(table, positions) -> Tensor:
    """Each object's PNN encoding, (..., d), from its F rows of a (V, d)
    table, ``positions`` (..., F), where -1 pads an absent slot: with ``s``
    and ``q`` the sum and the sum of squares of its rows, ``s + (s*s - q) /
    2``, the rows' sum plus every pair's product (the half-square identity).
    The arithmetic is a gather, mask, sum and square chain's, step for
    step, an absent slot reading row 0 times 0, so the values and the
    gradient have that chain's bits."""
    td, ti, tt = _parts(table)
    pos = np.asarray(positions, dtype=np.intp)
    if td.ndim != 2 or pos.ndim < 1:
        raise ShapeError("pnn", td.shape, pos.shape)
    if pos.size and (pos.min() < -1 or pos.max() >= td.shape[0]):
        raise IndexError(f"pnn: position out of range for table with {td.shape[0]} rows")
    present = pos >= 0
    idx, mask = np.where(present, pos, 0), present[..., None]
    v = td[idx] * mask
    s = v.sum(axis=-2)
    out = s + (s * s + (v * v).sum(axis=-2) * -1.0) * 0.5
    tape = _tape_of((ti, tt))
    saved = (idx, mask, v, s, td.shape) if tape is not None else None
    return _emit(tape, "pnn", (ti,), saved, out)


# a step gathers its input rows of the projection in one call, or, when it
# reads fewer, those of as many whole steps as fit; the width-1 steps, one
# row each, gather this many at a time.  At d = 32 a lone sequence of 186
# steps ran 41% slower gathering step by step and 4% slower gathering 128
# rows at a time; a batch of 454 sequences ran 9% slower step by step and 7%
# slower gathering 4,096 rows ahead
_GATHER_ROWS = 512

# the most packed gradient rows the LSTM backward sweep holds before it sums
# them per input row, and the source rows per block of the pooling backward,
# which holds that block's gradient rows and their outer product with w.  At
# d = 32, on 215 sequences of 150-200 steps over 500 input rows, the LSTM
# backward took 82, 72, 69 and 70 ms with blocks of 1,024, 2,048, 4,096 and
# 8,192 rows (78 ms holding every row); a `long-hist` train's tracemalloc
# peak was 89 MB up to 8,192 rows and 107 MB at 16,384
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

    Each input row is projected once, into an (n, 4d) block.  The widths
    never increase, so the width-1 steps are a suffix, run by a loop of
    their own.  The first loop runs the steps of width 2 or more (or a lone
    sequence's first step, which reads no state), each on one contiguous
    (4, widths[t], d) slab: four gate blocks, one row per sequence, so a
    gate, a state and a cell are (widths[t], d) row blocks and the states
    are written straight into their output rows.  The projection rows join
    the slab through a (width, 4, d) view, whose inner runs are d
    contiguous floats, and the recurrent product is one ``np.matmul`` of
    the states with the four transposed (d, d) gate blocks of ``u``.  The
    second loop runs on one flat (5d,) vector ``z = [i | f | o | g | c]``,
    made once: nine numpy calls a step, each into a positional ``out``,
    allocating nothing.  ``np.dot`` with ``u`` and the projection row fill
    ``z[:4d]``; after the activations, one product ``z[:2d] * z[3d:]``
    gives ``[i*g | f*c]``, and the sum of its halves into ``z[4d:]`` is the
    new cell (IEEE addition commutes, so it has the bits of ``f*c + i*g``).
    The sigmoid is ``0.5*tanh(x/2) + 0.5``, with the projection's and
    ``u``'s sigmoid rows halved (exactly), so one tanh per step, in place,
    covers all four gates; a wide step's gates are `_lstm_step_gates`'.
    Every step writes its gates into the one slab (or ``z``), reused from
    step to step.  When an operand is tracked, every step's cells are kept
    in one packed buffer for the backward sweep, which rebuilds each step's
    gates and recomputes the cells' tanh; otherwise one block of cells is
    reused too.
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
    wide = int(np.count_nonzero(sizes > 1))  # the steps of width 2 or more; the width-1 steps follow them
    u_gates = None
    if wide:
        u_gates = np.ascontiguousarray(u_half.reshape(4, dim, dim).transpose(0, 2, 1))  # h @ u_gates[j] is gate j's
    out = np.empty((total, dim))
    tracked = tape is not None
    widest = ends[0] if ends else 0
    gates = np.empty(gate_rows * widest)  # one step's slab, reused from step to step
    cells = np.empty(dim * (total if tracked else widest))  # every step's cells when tracked, else one step's
    start = width = stop = 0
    h = c = None
    lead = ends[: max(wide, 1)]  # the wide steps, or a lone sequence's first step, which reads no state
    for t, end in enumerate(lead):
        n = end - start
        if n != width:  # new views only on a new width
            a = gates[: gate_rows * n].reshape(4, n, dim)
            i_g, f_g, o_g, g_g = a
            if h is not None:  # the sequences past the first n have ended
                h, c = h[:n], c[:n]
        if tracked or n != width:
            at = start if tracked else 0
            cs = cells[dim * at : dim * (at + n)].reshape(n, dim)
        if end > stop:  # gather the input rows of the next steps that fit in _GATHER_ROWS
            first, stop = start, lead[max(bisect_right(lead, start + _GATHER_ROWS) - 1, t)]
            block = proj[rows[first:stop]]
        _lstm_step_gates(a, h, u_gates, block[start - first : end - first])
        width = n
        if c is None:
            c = np.multiply(i_g, g_g, out=cs)
        else:
            c = np.multiply(f_g, c, out=cs)
            c += i_g * g_g
        h = out[start:end]
        np.tanh(c, out=h)
        h *= o_g
        start = end
    if start < total:  # the width-1 steps, all of the first sequence: one flat z = [i | f | o | g | c]
        dot, add, multiply, tanh = np.dot, np.add, np.multiply, np.tanh  # no module lookup in the nine calls a step
        half = np.array(0.5)  # a 0-d operand: a ufunc converts a Python float on every call
        z = np.empty(gate_rows + dim)
        z_gates, z_sig, z_if, z_gc, z_c = z[:gate_rows], z[:sig], z[: 2 * dim], z[sig:], z[gate_rows:]
        z_i, z_f, z_o = z[:dim], z[dim : 2 * dim], z[2 * dim : sig]
        kept_cells = cells.reshape(-1, dim)
        h = h[0]
        z_c[:] = c[0]
        for first in range(start, total, _GATHER_ROWS):
            for j, x_t in enumerate(proj[rows[first : first + _GATHER_ROWS]], first):
                dot(u_half, h, z_gates)
                add(z_gates, x_t, z_gates)
                tanh(z_gates, z_gates)
                multiply(z_sig, half, z_sig)
                add(z_sig, half, z_sig)
                multiply(z_if, z_gc, z_if)  # [i*g | f*c]
                add(z_i, z_f, z_c)  # c = i*g + f*c, the bits of f*c + i*g
                h = out[j]
                tanh(z_c, h)
                multiply(h, z_o, h)
                if tracked:
                    kept_cells[j] = z_c
    saved = (xd, rows, sizes, wd, ud, proj, u_half, u_gates, cells, out) if tracked else None
    return _emit(tape, "lstm", (xi, wi, ui, bi), saved, out)


def _lstm_step_gates(slab, h, u_gates, x_rows) -> None:
    """Write a step's gate activations into ``slab`` (4, n, d): ``h @
    u_gates`` (none at a first step, ``h`` None) plus the step's (n, 4d)
    projection rows ``x_rows``, joined through a (4, n, d) view, then one
    tanh and the sigmoid blocks' ``0.5*t + 0.5``.  The forward and the
    backward's recompute both call it, so a rebuilt slab has the bits of
    the forward's."""
    x_t = x_rows.reshape(-1, 4, slab.shape[2]).transpose(1, 0, 2)
    if h is None:
        slab[...] = x_t
    else:
        np.matmul(h, u_gates, out=slab)
        slab += x_t
    np.tanh(slab, out=slab)
    s = slab[:3]
    s *= 0.5
    s += 0.5


def segment_attention(states, w, index, lengths) -> Tensor:
    """Attention-pool ragged groups of rows, one softmax per group, as one op.

    ``index`` lists rows of ``states`` (n, d) group after group and
    ``lengths`` (S,) counts each group's rows; a group may be empty, and a
    row may be read by many groups or many times by one.  Group s weighs
    its rows x by ``softmax(x @ w)`` over the group and returns their
    weighted sum.  The output is (S, d), with a zero row for an empty
    group; a zero ``w`` gives each group's mean.

    Each source row's logit is taken once, as ``(states @ w)[index]``, and
    the weights form an (S, n) CSR matrix ``P`` with one entry per index
    entry (a repeated row keeps its entries), so the pooling is ``P @
    states`` and no row is gathered.  A lone group's ``P`` is one dense row,
    ``np.bincount(index, weights, n)``, whose product took 18 and 22 us over
    10 and 200 rows against CSR's 49 and 56 (d = 32, untracked, on a 2-core
    Xeon host).  When an operand is tracked, ``P`` is saved for the
    backward sweep.
    """
    sd, si, st = _parts(states)
    wd, wi, wt = _parts(w)
    idx = np.asarray(index, dtype=np.intp)
    counts = np.asarray(lengths, dtype=np.intp)
    if (sd.ndim != 2 or wd.shape != sd.shape[1:] or idx.ndim != 1 or counts.ndim != 1
            or (counts < 0).any() or counts.sum() != idx.size):
        raise ShapeError("segment_attention", sd.shape, wd.shape, idx.shape, counts.shape)
    if idx.size and (idx.min() < 0 or idx.max() >= sd.shape[0]):
        raise IndexError(f"segment_attention: row out of range for states with {sd.shape[0]} rows")
    tape = _tape_of((si, st), (wi, wt))
    if not idx.size:
        return _emit(tape, "segment_attention", (si, wi), None, np.zeros((counts.size, sd.shape[1])))
    ends = np.cumsum(counts)
    full = counts > 0
    starts = (ends - counts)[full]
    group = np.repeat(np.arange(starts.size), counts[full])  # each entry's non-empty group
    logits = (sd @ wd)[idx]
    e = np.exp(logits - np.maximum.reduceat(logits, starts)[group])
    a = e / np.add.reduceat(e, starts)[group]
    weights = (np.bincount(idx, a, sd.shape[0])[None] if counts.size == 1
               else csr_matrix((a, idx, np.concatenate([[0], ends])), shape=(counts.size, sd.shape[0])))
    out = weights @ sd
    saved = (weights, sd, wd, out) if tape is not None else None
    return _emit(tape, "segment_attention", (si, wi), saved, out)


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


def _bk_sum(ids, saved, g, acc):
    xshape, axis = saved
    acc(ids[0], np.broadcast_to(g if axis is None else np.expand_dims(g, axis), xshape))


def _bk_sigmoid(ids, saved, g, acc):
    (out,) = saved
    acc(ids[0], g * out * (1.0 - out))


def _bk_mlp_head(ids, saved, g, acc):
    """The chain's reverse sweep, rule for rule: the sigmoid, the output
    layer's add and matmul, the relu, the hidden layer's add and matmul,
    the transpose, the mask and the join; an untracked part gets nothing."""
    w1_id, b1_id, w2_id, b2_id, *part_ids = ids
    shapes, md, z, w1d, a1, h, w2d, out = saved
    g = g * out * (1.0 - out)
    acc(b2_id, _unbroadcast(g, ()))
    if w2_id is not None:
        acc(w2_id, h.T @ g)
    g = np.outer(g, w2d)
    g = g * (a1 > 0.0)
    acc(b1_id, _unbroadcast(g, w1d.shape[:1]))
    if w1_id is not None:
        acc(w1_id, (z.T @ g).T)
    if all(nid is None for nid in part_ids):
        return
    g = g @ w1d
    if md is not None:
        g = g * md
    off = 0
    for nid, shape in zip(part_ids, shapes):
        if nid is not None:
            acc(nid, g[:, off : off + shape[1]])
        off += shape[1]


def _bk_log_loss(ids, saved, g, acc):
    """The clipped chain's gradient, ``-g (y/p - (1 - y)/q)`` inside the
    clip, taken in the order a clamp, log and dot chain sweeps it, so it
    has that chain's bits."""
    p, q, y, mask = saved
    ga = g * -1.0
    acc(ids[0], ((ga * (1.0 - y)) / q * -1.0 + (ga * y) / p) * mask)


def _bk_embedding_lookup(ids, saved, g, acc):
    idx, tshape = saved
    _add_rows(acc.buffer(ids[0], tshape), idx.reshape(-1), g.reshape(idx.size, tshape[1]))


def _bk_pnn(ids, saved, g, acc):
    """The chain's reverse sweep, sum for sum; the rows go into the table
    as a gather's do, an absent slot's zeros into row 0."""
    idx, mask, v, s, tshape = saved
    half = g * 0.5
    ts = half * s
    ds = g + ts
    ds += ts
    dv = (half * -1.0)[..., None, :] * v
    dv += dv
    dv += ds[..., None, :]
    dv *= mask
    _add_rows(acc.buffer(ids[0], tshape), idx.reshape(-1), dv.reshape(idx.size, tshape[1]))


def _bk_lstm(ids, saved, g, acc):
    """Backpropagation through time in the forward's packed layout.  One
    reverse loop carries the state and cell gradients of step t+1's
    sequences, the first ``widths[t+1]`` of step t's, as prefix rows.  It
    rebuilds each step's gate activations into one reused slab just before
    sweeping the step, from the saved projection, recurrent blocks and
    previous states: a wide step through `_lstm_step_gates`, a width-1
    step with the forward's flat-loop calls, so the gates have the
    forward's bits.  It takes the step's cell tanh again from the saved
    cells (the forward's own call on the same values, so the same bits)
    and writes the step's four gate gradients into one contiguous (4,
    widths[t], d) slab, the forward's layout, so every operand is a
    (widths[t], d) row block.

    The gradient slab is copied into a block of `_BLOCK_ROWS` packed rows as
    (widths[t], 4, d) rows, that is one (widths[t], 4d) row per sequence
    (every row, when there are fewer, so a short batch allocates no row it
    never writes; the first step's width, when that is more).  From those
    rows come the state gradient for step t-1, one product with ``u``, and
    the step's term of the recurrent weights' gradient, one product with
    the previous states, which for step t's sequences are the first
    ``widths[t]`` rows of step t-1's.  When the next step would not fit,
    `_add_rows` adds the block's rows into their input rows of the (n, 4d)
    projection gradient, each row's readers in packed order within the
    block, so no (sum(widths), 4d) gradient is ever held.  The input and
    weight gradients are then one (n, 4d) product each and the bias
    gradient one sum over the n rows.  Summing per block and per row
    reorders the input-weight and bias sums, and summing per step the
    recurrent ones, so they match one product over every step to rounding,
    not bit for bit."""
    xd, rows, sizes, wd, ud, proj, u_half, u_gates, cells, out = saved
    if not rows.size:  # no step ran
        return
    x_id, w_id, u_id, b_id = ids
    dim = ud.shape[1]
    gate_rows, sig = 4 * dim, 3 * dim
    ends = np.cumsum(sizes).tolist()
    starts = [0] + ends[:-1]
    wide = max(int(np.count_nonzero(sizes > 1)), 1)  # the steps the forward ran on a slab; the rest on z
    summed = x_id is not None or w_id is not None or b_id is not None
    # with no sum to take, the block only holds the step being swept
    cap = max(min(_BLOCK_ROWS, ends[-1]), ends[0]) if summed else ends[0]
    block = np.empty((cap, gate_rows))  # its last rows hold packed rows [start, hi)
    hi = ends[-1]
    if summed:
        d_proj = np.zeros((xd.shape[0], gate_rows))

        def flush(first, stop):  # add the block's packed rows [first, stop) into their input rows
            _add_rows(d_proj, rows[first:stop], block[cap - (stop - first) :])

    d_u = np.zeros((gate_rows, dim)) if u_id is not None else None
    slab = np.empty(gate_rows * ends[0])
    gates = np.empty(gate_rows * ends[0])  # the step's rebuilt gate activations
    x_rows = np.empty((ends[0], gate_rows))  # the step's projection rows
    z, z_sig, half = gates[:gate_rows], gates[:sig], np.array(0.5)
    dh = dc = None
    for t in range(len(ends) - 1, -1, -1):
        start, end = starts[t], ends[t]
        n = end - start
        prev = starts[t - 1] if t else 0
        if t < wide:
            # the forward checked the rows; "clip" mode writes into out with no buffer
            np.take(proj, rows[start:end], axis=0, out=x_rows[:n], mode="clip")
            a = gates[: gate_rows * n].reshape(4, n, dim)
            _lstm_step_gates(a, out[prev : prev + n] if t else None, u_gates, x_rows[:n])
        else:  # the flat loop's calls on z[:4d]
            np.dot(u_half, out[prev], z)
            np.add(z, proj[rows[start]], z)
            np.tanh(z, z)
            np.multiply(z_sig, half, z_sig)
            np.add(z_sig, half, z_sig)
            a = z.reshape(4, 1, dim)
        i_g, f_g, o_g, g_g = a
        tc = np.tanh(cells[dim * start : dim * end].reshape(n, dim))
        if dh is None:
            dh = g[start:end]
        elif dh.shape[0] == n:  # the carried rows are a fresh product's
            dh += g[start:end]
        else:  # the carried gradients reach only step t+1's sequences
            carried = dh
            dh = g[start:end].copy()
            dh[: carried.shape[0]] += carried
        blk = slab[: gate_rows * n].reshape(4, n, dim)
        d_i, d_f, d_o, d_g = blk
        np.multiply(dh, tc, out=d_o)
        d_o *= o_g
        d_o *= 1.0 - o_g
        tc *= tc
        np.subtract(1.0, tc, out=tc)
        dc_t = dh * o_g
        dc_t *= tc
        if dc is not None:
            dc_t[: dc.shape[0]] += dc
        dc = dc_t
        np.multiply(dc, g_g, out=d_i)
        d_i *= i_g
        d_i *= 1.0 - i_g
        np.multiply(dc, i_g, out=d_g)
        d_g *= 1.0 - g_g * g_g
        if t:
            np.multiply(dc, cells[dim * prev : dim * (prev + n)].reshape(n, dim), out=d_f)
            d_f *= f_g
            d_f *= 1.0 - f_g
        else:  # the first step has no previous cell or state
            d_f[...] = 0.0
        if summed and hi - start > cap:
            flush(end, hi)
            hi = end
        at = cap - (hi - start) if summed else 0
        step_rows = block[at : at + n]  # one (4d,) gradient row per sequence
        step_rows.reshape(n, 4, dim)[...] = blk.transpose(1, 0, 2)
        if t:
            if d_u is not None:
                d_u += step_rows.T @ out[prev : prev + n]
            dh = step_rows @ ud
            dc *= f_g
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
    """With ``P`` the forward's weight matrix, each source row r gets ``(P.T
    @ g)_r`` as a pooled row.  Entry k (group s, row r, weight a_k) has the
    logit gradient ``a_k (g_s . x_r - g_s . out_s)``; summed over the
    entries that read row r that is ``x_r . (P.T @ g)_r - (P.T @ c)_r``
    with ``c_s = g_s . out_s``, so the per-row logit gradients ``dl`` take
    two products with ``P.T`` and nothing per entry.  Row r also gets
    ``dl_r * w`` as a scored row, and ``w`` gets ``dl @ states``.

    The rule walks the source `_BLOCK_ROWS` rows at a time, with ``P.T``
    as one CSR matrix sliced by rows (as it is, a CSC view, when the
    source fits in one block, or a lone group's dense column).  A block's
    rows of ``P.T @ g`` plus their outer product are added straight into
    the gradient buffer the sweep owns for the source (`_Gradients.buffer`),
    so every pooling of one block, the item aspect's two among them, adds
    into one (n, d) gradient and holds no (n, d) array of its own; ``w``'s
    gradient is summed block by block.  A CSR row of ``P.T`` lists its
    entries in the CSC's order, so each row's sums, and so the states'
    gradient, have the bits of one product over all rows; only ``w``'s
    block sums are rounded differently."""
    if saved is None:  # no row read
        return
    weights, sd, wd, out = saved
    s_id, w_id = ids
    whole = sd.shape[0] <= _BLOCK_ROWS
    back = weights.T if whole or isinstance(weights, np.ndarray) else weights.T.tocsr()
    c = np.einsum("ij,ij->i", g, out)
    ds_all = None if s_id is None else acc.buffer(s_id, sd.shape)
    dw = None if w_id is None else np.zeros(wd.shape)
    for lo in range(0, sd.shape[0], _BLOCK_ROWS):
        rows = slice(lo, lo + _BLOCK_ROWS)
        part = back if whole else back[rows]
        ds = part @ g  # the pooled rows' gradient
        dl = np.einsum("ij,ij->i", sd[rows], ds) - part @ c
        if dw is not None:
            dw += dl @ sd[rows]
        if ds_all is not None:  # the scored rows' term joins ds first, so each row adds one sum
            ds += np.outer(dl, wd)
            ds_all[rows] += ds
    if dw is not None:
        acc(w_id, dw)


_BACKWARD = {
    "add": _bk_add,
    "multiply_elementwise": _bk_mul,
    "sum": _bk_sum,
    "sigmoid": _bk_sigmoid,
    "mlp_head": _bk_mlp_head,
    "log_loss": _bk_log_loss,
    "embedding_lookup": _bk_embedding_lookup,
    "pnn": _bk_pnn,
    "lstm": _bk_lstm,
    "segment_attention": _bk_segment_attention,
}


def _add_rows(buf, idx, rows) -> None:
    """Add row j of ``rows`` (m, k) into row ``idx[j]`` of ``buf`` (n, k),
    in place.

    When no index repeats, which one ``np.bincount`` tells with no sort,
    this is ``buf[idx] += rows``, with the bits of ``np.add.at(buf, idx,
    rows)``.  Otherwise an (n, m) one-hot matrix, its column j a 1 in row
    ``idx[j]``, sums each row's entries from zero in index order, and the
    sums are added to ``buf``: the bits of ``buf + np.add.at(zeros, idx,
    rows)``.
    """
    if np.bincount(idx).max(initial=0) < 2:
        buf[idx] += rows
        return
    m = idx.size
    buf += csc_matrix((np.ones(m), idx, np.arange(m + 1)), shape=(buf.shape[0], m)) @ rows


class _Gradients:
    """The reverse sweep's gradient per node: ``slots[nid]``, None until a
    rule adds one.  Calling it adds a gradient (the rules' ``acc``); the
    gradient it is handed may be shared (`_bk_add` gives one array to both
    inputs, `_bk_sum` a broadcast view), so it is never written.  `buffer`
    hands a rule the node's gradient as an array the sweep owns, for the
    rule to add into in place: gathers and poolings add their rows there."""

    __slots__ = ("slots", "owned")

    def __init__(self, n: int):
        self.slots: list = [None] * n
        self.owned = set()  # nodes whose gradient buffer no other array shares, so a sum may go into it

    def __call__(self, nid, g):
        if nid is None:
            return
        slots = self.slots
        cur = slots[nid]
        if cur is None:
            slots[nid] = g
        elif nid in self.owned:
            cur += g
        else:
            slots[nid] = cur = cur + g
            if cur.ndim:  # a 0-d sum is a numpy scalar, which += rebinds instead of writing
                self.owned.add(nid)

    def buffer(self, nid: int, shape: tuple[int, ...]) -> np.ndarray:
        """Node nid's gradient, of ``shape``, as an array only the sweep
        holds: zeros when it has none yet, a copy when the gradient it has
        may be shared."""
        cur = self.slots[nid]
        if cur is not None and nid in self.owned:
            return cur
        cur = np.zeros(shape) if cur is None else np.array(cur, dtype=np.float64)
        self.slots[nid] = cur
        self.owned.add(nid)
        return cur


def backward(tape: Tape, root: Tensor) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar root; returns gradients per leaf node id.

    Leaves the root does not depend on get explicit zero gradients.  Each
    node's gradient is complete when the sweep reaches it, because every
    node that reads it has a larger id.  A leaf keeps it; any other node
    hands it to its kind's rule in `_BACKWARD` and drops it, since every
    node that feeds it has a smaller id and nothing reads it again.
    """
    if root.tape is not tape or root.node_id is None:
        raise ValueError("backward: root is not tracked on this tape")
    if root.data.shape != ():
        raise ValueError(f"backward: root must be a scalar, got shape {root.data.shape}")
    nodes = tape.nodes
    acc = _Gradients(len(nodes))
    grads = acc.slots
    grads[root.node_id] = np.ones(())

    rules = _BACKWARD
    for nid in range(root.node_id, -1, -1):
        kind, ids, saved = nodes[nid]
        g = grads[nid]
        if g is None or kind == "leaf":
            continue
        grads[nid] = None
        rules[kind](ids, saved, g, acc)

    out = {}
    for nid in tape.leaf_ids:
        g = grads[nid]
        if g is None:
            (shape,) = nodes[nid][2]
            g = np.zeros(shape)
        out[nid] = g
    return out
