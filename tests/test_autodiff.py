"""Tape engine: op semantics, shape errors, gradient checks per kind."""
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from liverec import autodiff as ad
from liverec.autodiff import _BACKWARD, ShapeError, Tape, Tensor, _add_rows, backward
from liverec.encoders import PnnEncoderParams, pnn_encode_batch
from liverec.seeding import stream_rng

from oracles import (
    fd_max_rel_error,
    lstm_gates,
    lstm_reference,
    mlp_head_chain,
    pnn_chain,
    segment_attention_reference,
    softmax_list,
)

FD_TOL = 1e-4

# every differentiable op kind, one per rule in `_BACKWARD`
FD_KINDS = (
    "add", "multiply_elementwise", "sum", "sigmoid", "mlp_head",
    "log_loss", "embedding_lookup", "pnn", "lstm", "segment_attention",
)

# the rules of the chain that `mlp_head` fuses, each checked through the
# fused op with only the inputs its gradient reaches tracked: the join's
# column slices reach the parts, the two products reach w1 and w2, the
# transposed product reaches w1 alone and the relu's gate reaches b1
MLP_HEAD_RULES = {
    "concat": ("parts",),
    "matmul": ("w1", "w2"),
    "relu": ("b1",),
    "transpose": ("w1",),
}


def test_sigmoid_at_zero():
    assert ad.sigmoid(np.zeros(1)).data[0] == 0.5


def _lone_group(x):
    """The softmax weights a lone group of len(x) rows gives logits x: the
    pooling of an identity block whose rows score x."""
    n = x.size
    return ad.segment_attention(np.hstack([np.eye(n), x[:, None]]), np.eye(n + 1)[n], np.arange(n), [n]).data[0, :n]


def test_softmax_shift_invariance():
    # the pooling's softmax subtracts the group's largest logit, so equal
    # logits weigh every row alike however large they are
    for c in (-3.0, 0.0, 17.5, 800.0):
        np.testing.assert_allclose(_lone_group(np.full(3, c)), np.full(3, 1 / 3), atol=1e-15)


def test_multiply_elementwise_values():
    out = ad.multiply_elementwise(np.array([1.0, 2, 3]), np.array([4.0, 5, 6]))
    np.testing.assert_array_equal(out.data, [4.0, 10.0, 18.0])


def test_sigmoid_gradient_at_zero():
    t = Tape()
    s = t.watch(np.zeros(()))
    g = backward(t, ad.sigmoid(s))
    assert g[s.node_id] == pytest.approx(0.25)


def test_sigmoid_has_expits_bits_and_warns_of_nothing():
    # libm's exp element by element, as scipy.special.expit takes it; numpy's
    # SIMD exp rounds some values differently, so this checks bits, not
    # closeness.  exp(-x) overflows for x below -log(max float), where the
    # sigmoid is 0.0 with no warning (warnings are errors here).
    from scipy.special import expit

    edge = float(np.log(np.finfo(np.float64).max))
    assert math.isfinite(math.exp(edge))
    with pytest.raises(OverflowError):
        math.exp(np.nextafter(edge, np.inf))
    tiny = np.finfo(np.float64).tiny
    x = np.concatenate([
        [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, tiny / 3, -tiny / 3],
        [-edge, np.nextafter(-edge, -np.inf), np.nextafter(-edge, 0.0), edge, np.nextafter(edge, np.inf)],
        [1e3, -1e3, np.inf, -np.inf, np.nan, 36.0, 37.0, -745.0, -746.0],
        np.random.default_rng(36).normal(size=2000) * np.repeat([1.0, 10.0, 300.0, 700.0], 500),
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ad.sigmoid(x).data
        shaped = ad.sigmoid(x[:12].reshape(3, 4)).data
        scalar = ad.sigmoid(np.array(-1e3)).data
    np.testing.assert_array_equal(got.view(np.int64), expit(x).view(np.int64))
    assert got[9] == 0.0 < got[8]  # either side of the overflow point
    assert shaped.shape == (3, 4) and np.array_equal(shaped.ravel(), got[:12])
    assert scalar.shape == () and scalar == 0.0


def _log_loss_chain(pred, labels, eps, g):
    """The loss as a clamp, two logs, two dots and a ``1 - p`` built from a
    multiply and an add, and its gradient swept back through those ops one
    rule at a time, each as numpy computes it."""
    y = np.asarray(labels, dtype=np.float64)
    p = np.clip(pred, eps, 1.0 - eps)
    q = p * -1.0 + 1.0
    loss = (np.asarray(np.log(p) @ y) + np.asarray(np.log(q) @ (1.0 - y))) * -1.0
    ga = g * np.asarray(-1.0)  # the negation, then the add hands ga to both dots
    d_q = (ga * (1.0 - y)) / q  # the second dot, then its log
    d_p = d_q * np.asarray(-1.0)  # the add of 1.0, then the multiply by -1.0
    d_p = d_p + (ga * y) / p  # the first dot, then its log
    return loss, d_p * ((pred > eps) & (pred < 1.0 - eps))  # the clamp


@pytest.mark.parametrize("scale", [1.0, -2.5])
def test_log_loss_has_the_bits_of_the_clamp_log_and_dot_chain(scale):
    eps = 1e-7
    edges = [0.0, eps, 1.0 - eps, 1.0, np.nextafter(eps, 1.0), np.nextafter(1.0 - eps, 0.0), 0.5]
    pred = np.concatenate([edges, edges, np.random.default_rng(40).uniform(size=40)])
    labels = np.concatenate([np.zeros(len(edges)), np.ones(len(edges)),
                             np.random.default_rng(41).integers(0, 2, size=40)]).astype(int)
    want_loss, want_grad = _log_loss_chain(pred, labels, eps, np.asarray(scale))
    t = Tape()
    x = t.watch(pred)
    loss = ad.log_loss(x, labels, eps)
    grad = backward(t, ad.multiply_elementwise(loss, scale))[x.node_id]
    assert loss.shape == () and loss.data.view(np.int64) == want_loss.view(np.int64)
    np.testing.assert_array_equal(grad.view(np.int64), want_grad.view(np.int64))
    assert not grad[[0, 1, 2, 3, 7, 8, 9, 10]].any()  # the clip's ends pass no gradient
    inside = (pred > eps) & (pred < 1.0 - eps)
    x_in, y_in = pred[inside], labels[inside]
    np.testing.assert_allclose(grad[inside], -scale * (y_in / x_in - (1 - y_in) / (1.0 - x_in)), rtol=1e-12)
    plain = ad.log_loss(pred, labels, eps)
    assert not plain.tracked and plain.data == loss.data


def test_fanout_accumulates_both_paths():
    # f(x) = x*x built as multiply(x, x): df/dx = 2x from two contributions
    t = Tape()
    x = t.watch(np.array(3.0))
    g = backward(t, ad.multiply_elementwise(x, x))
    assert g[x.node_id] == pytest.approx(6.0)


@pytest.mark.parametrize("shape", [(), (2,)])
def test_fanout_accumulates_every_path(shape):
    # three readers of one node: the second and third gradients are summed
    # into the sum of the first two, a 0-d sum included
    t = Tape()
    x = t.watch(np.ones(shape))
    s = ad.multiply_elementwise(x, 1.0)
    root = ad.add(ad.add(ad.multiply_elementwise(s, 2.0), ad.multiply_elementwise(s, 3.0)),
                  ad.multiply_elementwise(s, 5.0))
    g = backward(t, ad.reduce_sum(root))
    np.testing.assert_array_equal(g[x.node_id], np.full(shape, 10.0))


def test_untouched_leaf_gets_zero():
    t = Tape()
    x = t.watch(np.array([1.0, 2.0]))
    unused = t.watch(np.array([[3.0, 4.0]]))
    g = backward(t, ad.reduce_sum(x))
    np.testing.assert_array_equal(g[unused.node_id], np.zeros((1, 2)))


def test_backward_rejects_nonscalar_root():
    t = Tape()
    x = t.watch(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        backward(t, ad.multiply_elementwise(x, 2.0))


def test_backward_rejects_untracked_root():
    t = Tape()
    t.watch(np.ones(3))
    with pytest.raises(ValueError, match="tracked"):
        backward(t, Tensor(np.zeros(())))


def test_shape_errors_name_kind_and_shapes():
    w1, b1, w2, b2 = np.ones((4, 5)), np.ones(4), np.ones(4), np.ones(())
    parts, mask = [np.ones((2, 3)), np.ones((2, 2))], np.ones((2, 5))
    with pytest.raises(ShapeError) as info:
        ad.mlp_head(parts, None, np.ones((4, 6)), b1, w2, b2)
    assert info.value.kind == "mlp_head"
    assert info.value.shapes == ((2, 5), (), (4, 6), (4,), (4,), ())
    for bad in ((mask[:, :4], w1, b1, w2, b2), (mask[:1], w1, b1, w2, b2), (None, np.ones(5), b1, w2, b2),
                (None, w1, np.ones(5), w2, b2), (None, w1, b1, np.ones((4, 1)), b2), (None, w1, b1, w2, np.ones(1))):
        with pytest.raises(ShapeError) as info:
            ad.mlp_head(parts, *bad)
        assert info.value.kind == "mlp_head"
    with pytest.raises(ShapeError) as info:
        ad.log_loss(np.full(3, 0.5), [1, 0, 1, 0], 1e-7)
    assert info.value.kind == "log_loss" and info.value.shapes == ((3,), (4,))
    with pytest.raises(ShapeError) as info:
        ad.log_loss(np.full((2, 1), 0.5), [1, 0], 1e-7)
    assert info.value.kind == "log_loss" and info.value.shapes == ((2, 1), (2,))
    with pytest.raises(ShapeError):
        ad.log_loss(np.full(2, 0.5), [[1, 0]], 1e-7)
    with pytest.raises(ShapeError):
        ad.add(np.ones(3), np.ones(4))
    with pytest.raises(ShapeError) as info:  # the parts' rows disagree
        ad.mlp_head([np.ones((2, 3)), np.ones((1, 4))], None, np.ones((4, 7)), b1, w2, b2)
    assert info.value.kind == "mlp_head" and info.value.shapes == ((2, 3), (1, 4))
    with pytest.raises(ShapeError):
        ad.mlp_head([np.ones(3), np.ones((1, 3))], None, np.ones((4, 6)), b1, w2, b2)
    with pytest.raises(ShapeError) as info:  # a 0-d part is not lifted to a vector
        ad.mlp_head([np.array(2.0), np.ones(2)], None, np.ones((4, 3)), b1, w2, b2)
    assert info.value.kind == "mlp_head" and info.value.shapes == ((), (2,))
    with pytest.raises(ShapeError):
        ad.mlp_head([], None, w1, b1, w2, b2)
    with pytest.raises(ShapeError):
        ad.reduce_sum(np.ones((2, 3)), axis=2)
    x, rows, widths = np.ones((4, 3)), np.zeros(3, dtype=int), np.array([2, 1])
    w, u, b = np.ones((8, 3)), np.ones((8, 2)), np.ones(8)
    for bad in ((np.ones(3), rows, widths, w, u, b), (x, np.zeros((3, 1), dtype=int), widths, w, u, b),
                (x, rows, widths[:, None], w, u, b), (x, rows, np.array([1, 2]), w, u, b),
                (x, rows, np.array([3, 0]), w, u, b), (x, rows, np.array([2, 2]), w, u, b),
                (x, rows, widths, np.ones((8, 2)), u, b), (x, rows, widths, np.ones((3, 8)), u, b),
                (x, rows, widths, w, np.ones((6, 2)), b), (x, rows, widths, w, np.ones((2, 8)), b),
                (x, rows, widths, w, u, np.ones((1, 8))), (x, rows, widths, w, u, np.ones(4))):
        with pytest.raises(ShapeError) as info:
            ad.lstm(*bad)
        assert info.value.kind == "lstm"
    with pytest.raises(IndexError, match="out of range"):
        ad.lstm(x, np.array([0, 4, 1]), widths, w, u, b)


def test_softmax_normalization_property():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(-50, 50, size=rng.integers(1, 12))
        out = _lone_group(x)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-12


def test_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(1)
    signs = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])

    def head(x):  # relu keeps the positive logits, whose signed sum may overflow exp(-s)
        return ad.mlp_head([x[None]], None, np.eye(6), np.zeros(6), signs, np.zeros(()))

    for _ in range(100):
        x = rng.uniform(-700, 700, size=6)
        for fn in (ad.sigmoid, _lone_group, head):
            assert np.all(np.isfinite(fn(x).data))


def test_tape_topological_order_invariant():
    t = Tape()
    x = t.watch(np.ones(3))
    y = ad.multiply_elementwise(ad.add(x, 1.0), x)
    ad.reduce_sum(y)
    for nid, (_, ids, _) in enumerate(t.nodes):
        for i in ids:
            assert i is None or i < nid


def test_embedding_lookup_scatters_gradient():
    t = Tape()
    table = t.watch(np.arange(12.0).reshape(4, 3))
    idx = np.array([1, 1, 3])
    out = ad.embedding_lookup(table, idx)
    g = backward(t, ad.reduce_sum(out))
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(g[table.node_id], expected)
    with pytest.raises(IndexError):
        ad.embedding_lookup(table.data, np.array([4]))


def test_gather_gradient_buffers_are_not_shared():
    # The source has two dense readers: a sum, whose rule hands it a
    # read-only broadcast view, and an add, whose rule hands one array to it
    # and to another leaf.  One reader comes after the gathers on the tape,
    # so its gradient reaches the source alone, before the gathers' rows;
    # the other comes before them, so its gradient arrives after.  The rows
    # go into a copy the sweep owns, so neither array is written.
    rng = np.random.default_rng(24)
    arrays = [rng.normal(size=(4, 3)), rng.normal(size=(4, 3))]
    cot = rng.normal(size=(4, 3))
    gathers = [np.array([2, 0]), np.array([3, 3, 1, 3])]  # unique rows, then repeated ones
    want = cot + 1.0
    np.add.at(want, np.concatenate(gathers), 1.0)
    for late in ("view", "shared"):

        def build(xs):
            src = ad.multiply_elementwise(xs[0], 1.0)
            readers = {
                "view": lambda: ad.reduce_sum(src),
                "shared": lambda: ad.reduce_sum(ad.multiply_elementwise(ad.add(src, xs[1]), cot)),
            }
            total = readers["shared" if late == "view" else "view"]()
            for idx in gathers:
                total = ad.add(total, ad.reduce_sum(ad.embedding_lookup(src, idx)))
            return ad.add(total, readers[late]())

        t = Tape()
        ops = [t.watch(a) for a in arrays]
        grads = backward(t, build(ops))
        np.testing.assert_allclose(grads[ops[0].node_id], want, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(grads[ops[1].node_id], cot)  # the array `_bk_add` shared
        assert fd_max_rel_error(build, arrays) <= FD_TOL


@pytest.mark.parametrize("repeats", [False, True])
def test_ten_gathers_of_one_block_hold_one_gradient_block(repeats):
    # Ten gathers of a tenth of a (40,000, 32) source each, with a gradient
    # array of their own (a product with a cotangent), as encoders and
    # pairs gather their tables' and owners' rows.  Each gather's rule adds
    # its rows into the one buffer the sweep owns for the source and drops
    # them, so no gather's rows wait for the source.  Gathers that repeat a
    # row add one transient (n, d) sum, the one-hot product, on top.  The
    # slack covers one gather's gradient rows, the indexed add's copy of its
    # buffer rows and the product's operands, and the row counts; it is under
    # half a block, so a second gradient block (or the ten gathers' rows
    # held at once) fails the bound.
    rng = np.random.default_rng(25)
    n, d, m = 40_000, 32, 4_000
    source = rng.normal(size=(n, d))
    index = [rng.integers(0, n, size=m) if repeats else rng.permutation(n)[:m] for _ in range(10)]
    cotangents = [rng.normal(size=(m, d)) for _ in index]
    block = source.nbytes
    slack = 3 * m * d * 8 + 3 * m * 8 + 2 * n * 8
    assert slack < block / 2
    tracemalloc.start()
    try:
        t = Tape()
        x = t.watch(source)
        parts = [ad.reduce_sum(ad.multiply_elementwise(ad.embedding_lookup(x, i), c))
                 for i, c in zip(index, cotangents)]
        total = parts[0]
        for p in parts[1:]:
            total = ad.add(total, p)
        saved = tracemalloc.get_traced_memory()[0]  # the gathered rows, which the products keep, and the tape
        grads = backward(t, total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = np.zeros((n, d))
    for i, c in zip(index, cotangents):
        np.add.at(want, i, c)
    np.testing.assert_allclose(grads[x.node_id], want, rtol=1e-14, atol=1e-14)
    bound = saved + (2 if repeats else 1) * block + slack
    assert peak < bound, (peak, saved, block, slack)


def test_backward_frees_gradients_during_the_sweep():
    # without freeing, each of the 400 nodes keeps its own gradient buffer
    n, depth = 10_000, 400
    t = Tape()
    x = t.watch(np.linspace(-1.0, 1.0, n))
    y = x
    for _ in range(depth):
        y = ad.sigmoid(y)
    root = ad.reduce_sum(y)
    tracemalloc.start()
    try:
        g = backward(t, root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g[x.node_id].shape == (n,)
    assert peak < 10 * n * 8


@pytest.mark.parametrize("dense", [False, True])
def test_add_rows_equals_add_at_bit_for_bit(dense):
    # unique indices take the indexed add, which is np.add.at on the
    # buffer; repeated ones sum each row's entries from zero in index order
    # (the one-hot product) and add the sums, which is the buffer plus
    # np.add.at on zeros. The buffer starts at zeros (a source's first
    # gradient term) or holds a dense term already.
    rng = np.random.default_rng(21)
    for n, m, k in ((7, 40, 3), (500, 300, 1), (6, 2, 2), (50, 7, 3), (4, 0, 3)):
        start = rng.normal(size=(n, k)) if dense else np.zeros((n, k))
        for idx in (rng.integers(0, n, size=m), rng.permutation(n)[: min(m, n)]):
            rows = rng.normal(size=(idx.size, k))
            buf = start.copy()
            _add_rows(buf, idx, rows)
            if np.unique(idx).size == idx.size:
                want = start.copy()
                np.add.at(want, idx, rows)
            else:
                summed = np.zeros((n, k))
                np.add.at(summed, idx, rows)
                want = start + summed
            assert np.array_equal(buf, want)


def _gather_case(case, rng):
    """(build(arrays) -> scalar Tensor, arrays) exercising the gather rule and `_add_rows`."""
    v, d = rng.integers(2, 6), rng.integers(1, 5)

    def cot(out):  # the same cotangent on every rebuild
        return _cotangent_sum(out, np.random.default_rng(7))

    if case == "repeated_indices":
        idx = rng.integers(0, v, size=rng.integers(v + 1, 3 * v + 2))  # pigeonhole: some index repeats
        return (lambda xs: cot(ad.embedding_lookup(xs[0], idx))), [rng.normal(size=(v, d))]
    if case == "unique_indices":  # every row at most once: the plain indexed add
        idx = rng.permutation(v)[: rng.integers(1, v + 1)]
        return (lambda xs: cot(ad.embedding_lookup(xs[0], idx))), [rng.normal(size=(v, d))]
    if case == "scalar_index":
        i = int(rng.integers(v))
        return (lambda xs: cot(ad.embedding_lookup(xs[0], i))), [rng.normal(size=(v, d))]
    gathers = [rng.integers(0, v, size=rng.integers(1, 5)) for _ in range(3)]
    gathers.append(int(rng.integers(v)))
    gathers.append(rng.integers(0, v, size=(2, 3)))

    def many_gathers_and_dense(src):
        total = ad.reduce_sum(ad.multiply_elementwise(src, src))  # dense use
        for idx in gathers:
            total = ad.add(total, cot(ad.embedding_lookup(src, idx)))
        return ad.add(total, ad.reduce_sum(ad.multiply_elementwise(src, np.arange(1.0, d + 1))))  # second dense use

    if case == "many_gathers_and_dense_leaf":
        return (lambda xs: many_gathers_and_dense(xs[0])), [rng.normal(size=(v, d))]
    if case == "many_gathers_and_dense_nonleaf":
        return (lambda xs: many_gathers_and_dense(ad.sigmoid(ad.multiply_elementwise(xs[0], xs[1])))), [
            rng.normal(size=(v, 1)), rng.normal(size=(1, d))
        ]
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "repeated_indices", "unique_indices", "scalar_index",
    "many_gathers_and_dense_leaf", "many_gathers_and_dense_nonleaf",
])
def test_gather_gradients_match_finite_differences(case):
    rng = np.random.default_rng(sum(map(ord, case)))
    for _ in range(50):
        build, arrays = _gather_case(case, rng)
        assert fd_max_rel_error(build, arrays) <= FD_TOL


# ---------------------------------------------------------------------------
# finite-difference suite, 100 random instances per op kind


def _vec(rng, lo=1, hi=9):
    return rng.normal(size=rng.integers(lo, hi))


def _cotangent_sum(out, rng):
    return ad.reduce_sum(ad.multiply_elementwise(out, rng.normal(size=out.shape)))


def _sampler(kind, rng):
    """Return (build(arrays) -> scalar Tensor, arrays) for one random instance."""
    if kind == "add" or kind == "multiply_elementwise":
        fn = ad.add if kind == "add" else ad.multiply_elementwise
        mode = rng.integers(3)
        if mode == 0:  # same shape
            shape = tuple(rng.integers(1, 5, size=rng.integers(1, 3)))
            arrays = [rng.normal(size=shape), rng.normal(size=shape)]
        elif mode == 1:  # scalar against tensor
            arrays = [rng.normal(size=()), rng.normal(size=rng.integers(1, 6))]
        else:  # outer (M,1) x (1,N)
            arrays = [rng.normal(size=(rng.integers(1, 5), 1)), rng.normal(size=(1, rng.integers(1, 5)))]
        return (lambda xs: _cotangent_sum(fn(xs[0], xs[1]), np.random.default_rng(7))), arrays
    if kind == "sum":
        mode = rng.integers(3)
        if mode == 0:
            arrays = [rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5)))]
            return (lambda xs: _cotangent_sum(ad.reduce_sum(xs[0], axis=0), np.random.default_rng(7))), arrays
        if mode == 1:  # 3-D input, summed along axis 1, 2 or -2
            axis = int(rng.choice([1, 2, -2]))
            arrays = [rng.normal(size=tuple(rng.integers(1, 4, size=3)))]
            return (lambda xs: _cotangent_sum(ad.reduce_sum(xs[0], axis=axis), np.random.default_rng(7))), arrays
        arrays = [rng.normal(size=tuple(rng.integers(1, 5, size=rng.integers(1, 3))))]
        return (lambda xs: ad.reduce_sum(xs[0])), arrays
    if kind == "sigmoid":
        arrays = [rng.uniform(-3, 3, size=rng.integers(1, 8))]
        return (lambda xs: _cotangent_sum(ad.sigmoid(xs[0]), np.random.default_rng(7))), arrays
    if kind == "mlp_head":
        return _mlp_head_case(rng)
    if kind in MLP_HEAD_RULES:
        return _mlp_head_case(rng, MLP_HEAD_RULES[kind])
    if kind == "log_loss":  # predictions inside the clip, away from its kinks
        n = rng.integers(1, 8)
        labels = rng.integers(0, 2, size=n)
        return (lambda xs: ad.log_loss(xs[0], labels, 1e-7)), [rng.uniform(0.05, 0.95, size=n)]
    if kind == "embedding_lookup":
        v, d = rng.integers(2, 6), rng.integers(1, 5)
        idx = rng.integers(0, v, size=rng.integers(1, 6))
        table = rng.normal(size=(v, d))
        return (lambda xs: _cotangent_sum(ad.embedding_lookup(xs[0], idx), np.random.default_rng(7))), [table]
    if kind == "pnn":  # one object or a block of them, slots padded with -1, a row read twice
        v, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 3)))
        positions = rng.integers(-1, v, size=shape)
        if positions.size > 1:
            positions.flat[0] = positions.flat[-1] = rng.integers(v)
        return (lambda xs: _cotangent_sum(ad.pnn(xs[0], positions), np.random.default_rng(7))), [rng.normal(size=(v, d))]
    if kind == "lstm":
        return _lstm_case(rng)
    if kind == "segment_attention":
        return _segment_case(rng)
    raise AssertionError(f"no sampler for {kind}")


def _mlp_head_case(rng, tracked=("parts", "w1", "b1", "w2", "b2")):
    """One to three parts of one to three columns, over one to four pairs
    and one to four hidden units, with a dropout mask one instance in two.
    The instance is drawn again until every hidden pre-activation is at
    least 0.05 from the relu's kink and every score's logit within 4 of 0,
    where the sigmoid's slope is not too small for the differences.  The
    inputs not named in ``tracked`` are held fixed."""
    while True:
        b, k = rng.integers(1, 5, size=2)
        parts = [rng.normal(size=(b, rng.integers(1, 4))) for _ in range(rng.integers(1, 4))]
        width = sum(p.shape[1] for p in parts)
        mask = (rng.random((b, width)) < 0.5) * 2.0 if rng.integers(2) else None
        weights = [rng.normal(size=(k, width)), rng.normal(size=k), rng.normal(size=k), rng.normal(size=())]
        z = np.concatenate(parts, axis=1) * (1.0 if mask is None else mask)
        a1 = z @ weights[0].T + weights[1]
        if np.abs(a1).min() >= 0.05 and np.abs(np.maximum(a1, 0.0) @ weights[2] + weights[3]).max() <= 4.0:
            break
    inputs = [("parts", p) for p in parts] + list(zip(("w1", "b1", "w2", "b2"), weights))
    free = [i for i, (name, _) in enumerate(inputs) if name in tracked]
    n = len(parts)

    def build(xs):
        ops = [x for _, x in inputs]
        for i, x in zip(free, xs):
            ops[i] = x
        return _cotangent_sum(ad.mlp_head(ops[:n], mask, *ops[n:]), np.random.default_rng(7))

    return build, [inputs[i][1] for i in free]


def _segment_case(rng):
    """Groups of unequal length over shared rows: always an empty group, a
    one-row group and a longer one, rows repeated across and within groups
    (as co-retrieved pairs share an owner's rows), in shuffled order.  One
    instance in two reads only some rows of a larger source block, as the
    pooled LSTM block and co-retrieval do.  One instance in four pools a
    lone group instead, the dense weight row's case, which reads a row
    twice and leaves rows of the source unread.  One instance in four holds
    w constant."""
    n, k = int(rng.integers(2, 8)), int(rng.integers(1, 4))
    lone = rng.integers(4) == 0
    if lone:
        lengths = np.array([rng.integers(2, 9)])
        read = rng.permutation(n)[: rng.integers(1, n)]
    else:
        lengths = np.concatenate([[0, 1, rng.integers(2, 5)], rng.integers(0, 4, size=rng.integers(0, 3))])
        rng.shuffle(lengths)
        read = np.arange(n) if rng.integers(2) else rng.permutation(n)[: rng.integers(1, n)]
    index = rng.choice(read, size=int(lengths.sum()))
    if lone:
        index[-1] = index[0]
    arrays = [rng.normal(size=(n, k)), rng.normal(size=k)]
    fixed = arrays.pop(1) if rng.integers(4) == 0 else None

    def build(xs):
        ops = list(xs)
        if fixed is not None:
            ops.insert(1, fixed)
        out = ad.segment_attention(ops[0], ops[1], index, lengths)
        return _cotangent_sum(out, np.random.default_rng(7))

    return build, arrays


def _large_segments(rng, n, groups):
    """Ragged groups over an (n,)-row source: a fifth of them empty, rows
    drawn (with repeats, within and across groups) from two thirds of the
    source, so the other rows are read by no group."""
    lengths = rng.integers(1, 60, size=groups)
    lengths[rng.random(groups) < 0.2] = 0
    read = rng.permutation(n)[: 2 * n // 3]
    return rng.choice(read, size=int(lengths.sum())), lengths


def test_segment_attention_matches_the_gathering_reference():
    rng = np.random.default_rng(32)
    for _ in range(3):
        n, k = int(rng.integers(200, 400)), int(rng.integers(4, 17))
        index, lengths = _large_segments(rng, n, int(rng.integers(100, 200)))
        states, w = rng.normal(size=(n, k)), rng.normal(size=k)
        g = rng.normal(size=(len(lengths), k))
        want, (want_s, want_w) = segment_attention_reference(states, w, index, lengths, g)
        t = Tape()
        ops = [t.watch(states), t.watch(w)]
        out = ad.segment_attention(ops[0], ops[1], index, lengths)
        grads = backward(t, ad.reduce_sum(ad.multiply_elementwise(out, g)))
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(grads[ops[0].node_id], want_s, rtol=0, atol=1e-13)
        np.testing.assert_allclose(grads[ops[1].node_id], want_w, rtol=1e-13, atol=1e-13)


def test_a_row_read_k_times_pools_like_one_row_with_log_k_added():
    # the browsed-anchor groups repeat an anchor once per visit: k entries
    # of a row weigh it as one entry whose logit is larger by log k
    rng = np.random.default_rng(33)
    states, w = rng.normal(size=(7, 4)), rng.normal(size=4)
    distinct, times = np.array([5, 1, 3, 6]), np.array([3, 1, 4, 2])
    index = rng.permutation(np.repeat(distinct, times))
    out = ad.segment_attention(states, w, index, [index.size]).data[0]
    p = np.array(softmax_list(list(states[distinct] @ w + np.log(times))))
    np.testing.assert_allclose(out, p @ states[distinct], rtol=0, atol=1e-14)


def test_segment_attention_saves_no_row_per_index_entry():
    # the pooled rows are never gathered: a tracked node keeps no (R, k)
    # block, only the weight matrix and the arrays it was given
    rng = np.random.default_rng(34)
    n, k = 40, 16
    index, lengths = _large_segments(rng, n, 30)
    assert index.size > 2 * n
    t = Tape()
    out = ad.segment_attention(t.watch(rng.normal(size=(n, k))), t.watch(rng.normal(size=k)), index, lengths)
    _, _, saved = t.nodes[out.node_id]
    blocks = [np.shape(v) for v in saved if isinstance(v, np.ndarray) and v.ndim == 2]
    assert blocks and all(shape[0] in (n, len(lengths)) for shape in blocks), blocks


def test_two_poolings_of_one_block_hold_one_gradient_block():
    # The item aspect pools one LSTM block twice, once per side.  Both rules
    # add their rows of the block's gradient into the one buffer the sweep
    # owns for it, `_BLOCK_ROWS` rows at a time, so one (n, d) gradient is
    # live, not one per rule.  The slack covers one row block's temporaries,
    # its (`_BLOCK_ROWS`, d) gradient rows and their outer product with w,
    # and four per-row vectors (the transposed weight matrix's entries,
    # indices and row pointer, and a block's logit gradients); it is under
    # half a block, so a second (n, d) gradient fails the bound.
    rng = np.random.default_rng(35)
    n, d, groups = 40_000, 32, 400
    states = rng.normal(size=(n, d))
    sides = [(rng.integers(0, n, size=n), np.full(groups, n // groups)) for _ in range(2)]
    ws = [rng.normal(size=d) for _ in range(2)]
    block = states.nbytes
    slack = 2 * ad._BLOCK_ROWS * d * 8 + 4 * n * 8
    assert slack < block / 2
    tracemalloc.start()
    try:
        t = Tape()
        x = t.watch(states)
        pooled = [ad.segment_attention(x, w, index, lengths) for w, (index, lengths) in zip(ws, sides)]
        saved = tracemalloc.get_traced_memory()[0]  # the weight matrices, the outputs and the tape
        grads = backward(t, ad.reduce_sum(ad.add(*pooled)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(grads[x.node_id]).all()
    assert peak < saved + block + slack, (peak, saved, block, slack)


def _two_poolings_case(rng, n, block):
    """Two `segment_attention` nodes over one tracked (n, k) block, as the
    item aspect's two sides pool the one LSTM block, with their own w and
    groups.  No group reads rows [block, 2 * block), a whole block when the rule
    walks ``block`` rows at a time.  A sum of the block, taken after both
    poolings, gives it a gradient the sweep shares (a broadcast view)
    before either rule runs.  Returns (build, arrays, cotangents, groups)."""
    k = int(rng.integers(1, 4))
    read = np.setdiff1d(np.arange(n), np.arange(block, 2 * block))
    sides = []
    for _ in range(2):
        lengths = np.concatenate([[0, 1, 3], rng.integers(0, 5, size=int(rng.integers(0, 4)))])
        rng.shuffle(lengths)
        sides.append((rng.choice(read, size=int(lengths.sum())), lengths))
    arrays = [rng.normal(size=(n, k)), rng.normal(size=k), rng.normal(size=k)]
    cotangents = [rng.normal(size=(len(lengths), k)) for _, lengths in sides]

    def build(xs):
        states, w1, w2 = xs
        first = ad.segment_attention(states, w1, *sides[0])
        second = ad.segment_attention(states, w2, *sides[1])
        pooled = [ad.reduce_sum(ad.multiply_elementwise(p, g)) for p, g in zip((first, second), cotangents)]
        return ad.add(ad.add(*pooled), ad.reduce_sum(states))

    return build, arrays, cotangents, sides


def test_two_poolings_of_one_block_match_finite_differences_in_small_blocks(monkeypatch):
    monkeypatch.setattr(ad, "_BLOCK_ROWS", SMALL_BLOCK)
    rng = np.random.default_rng(37)
    for _ in range(20):
        n = int(rng.integers(2 * SMALL_BLOCK + 1, 4 * SMALL_BLOCK))
        build, arrays, _, _ = _two_poolings_case(rng, n, SMALL_BLOCK)
        assert fd_max_rel_error(build, arrays) <= FD_TOL


def test_two_poolings_of_one_block_match_the_reference_in_small_blocks(monkeypatch):
    # 64-row blocks over 300-500 rows, one of them read by no group.  The
    # states' gradient sums each row's entries in one order whatever the
    # blocks, so it keeps the bits of a one-block run; only w's gradient,
    # summed block by block, may round differently.
    rng = np.random.default_rng(39)
    for _ in range(3):
        n = int(rng.integers(300, 500))
        build, arrays, cotangents, sides = _two_poolings_case(rng, n, 64)
        runs = []
        for rows in (ad._BLOCK_ROWS, 64):
            monkeypatch.setattr(ad, "_BLOCK_ROWS", rows)
            t = Tape()
            ops = [t.watch(a) for a in arrays]
            grads = backward(t, build(ops))
            runs.append([grads[op.node_id] for op in ops])
        states, w1, w2 = arrays
        _, (s1, dw1) = segment_attention_reference(states, w1, *sides[0], cotangents[0])
        _, (s2, dw2) = segment_attention_reference(states, w2, *sides[1], cotangents[1])
        whole, blocked = runs
        for got, ref in zip(blocked, [s1 + s2 + 1.0, dw1, dw2]):
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13)
        np.testing.assert_array_equal(blocked[0], whole[0])  # the states
        np.testing.assert_array_equal(blocked[0][64:128], 1.0)  # the unread block gets only the sum's gradient


def test_segment_attention_matches_a_softmax_per_group():
    rng = np.random.default_rng(22)
    states, w = rng.normal(size=(6, 3)), rng.normal(size=3)
    index, lengths = np.array([4, 0, 4, 5, 2, 1]), np.array([3, 0, 1, 2])
    out = ad.segment_attention(states, w, index, lengths).data
    assert out.shape == (4, 3)
    start = 0
    for s, n in enumerate(lengths):
        rows = index[start : start + n]
        start += n
        if not n:
            np.testing.assert_array_equal(out[s], 0.0)
            continue
        p = np.array(softmax_list(list(states[rows] @ w)))
        np.testing.assert_allclose(out[s], p @ states[rows], atol=1e-15)
    # every row in order as one group; a zero weight vector is the mean
    whole = ad.segment_attention(states, np.zeros(3), np.arange(6), [6]).data
    np.testing.assert_allclose(whole, states.mean(axis=0, keepdims=True), atol=1e-15)
    assert ad.segment_attention(states, w, np.zeros(0, dtype=int), [0, 0]).data.tolist() == [[0.0] * 3] * 2
    for bad in ((states, np.ones(2), index, lengths), (states, w, index, lengths[:3]),
                (states, w, index, np.array([3, -1, 2, 2])), (states[0], w, index, lengths)):
        with pytest.raises(ShapeError) as info:
            ad.segment_attention(*bad)
        assert info.value.kind == "segment_attention"
    with pytest.raises(IndexError, match="out of range"):
        ad.segment_attention(states, w, np.array([6]), [1])


def test_a_lone_group_over_many_blocks_matches_the_reference(monkeypatch):
    # a lone group's weights are one dense row, which the backward walks in
    # 64-row slices here, as a CSR matrix is walked; a third of the source
    # is read by no group and some rows are read many times.  The states'
    # gradient is a per-row product, so the slices keep a one-block run's
    # bits; only w's gradient, summed slice by slice, may round differently.
    rng = np.random.default_rng(40)
    n, k = 300, 6
    states, w = rng.normal(size=(n, k)), rng.normal(size=k)
    index = rng.choice(rng.permutation(n)[: 2 * n // 3], size=500)
    g = rng.normal(size=(1, k))
    runs = []
    for rows in (ad._BLOCK_ROWS, 64):
        monkeypatch.setattr(ad, "_BLOCK_ROWS", rows)
        t = Tape()
        ops = [t.watch(states), t.watch(w)]
        out = ad.segment_attention(ops[0], ops[1], index, [index.size])
        grads = backward(t, ad.reduce_sum(ad.multiply_elementwise(out, g)))
        runs.append((out.data, grads[ops[0].node_id], grads[ops[1].node_id]))
    want, (want_s, want_w) = segment_attention_reference(states, w, index, [index.size], g)
    for out, d_states, d_w in runs:
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(d_states, want_s, rtol=0, atol=1e-13)
        np.testing.assert_allclose(d_w, want_w, rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(runs[1][1], runs[0][1])


@pytest.mark.parametrize("padded", [False, True])
def test_pnn_has_the_bits_of_the_gather_and_sum_chain(padded):
    # the fused op against the generic-op chain it replaces, on one object
    # and on a block of objects: the same values and the same table
    # gradient, bit for bit.  The table is also summed after the encoding,
    # so it holds a gradient (a shared view) before the op's rule adds its
    # rows.  Padded, some slots read -1, and the block's first object has
    # none present.
    rng = np.random.default_rng(41 + padded)
    for shape in ((7,), (30, 6)):
        table = rng.normal(size=(12, 5))
        positions = rng.integers(0, 12, size=shape)
        if padded:
            positions[rng.random(shape) < 0.3] = -1
            positions[0] = -1
        g = rng.normal(size=shape[:-1] + (5,))
        runs = []
        for encode in (ad.pnn, pnn_chain):
            t = Tape()
            x = t.watch(table)
            out = encode(x, positions)
            grads = backward(t, ad.add(ad.reduce_sum(ad.multiply_elementwise(out, g)), ad.reduce_sum(x)))
            runs.append((out.data, grads[x.node_id]))
        (value, grad), (want, want_grad) = runs
        np.testing.assert_array_equal(value.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(grad.view(np.int64), want_grad.view(np.int64))


@pytest.mark.parametrize("masked", [False, True])
def test_mlp_head_has_the_bits_of_the_concat_to_sigmoid_chain(masked):
    # the fused op against the numpy chain it replaces: the same scores and
    # every input's gradient, bit for bit, with and without a dropout mask.
    # The middle part is untracked, as the no-item-aspect variant's zero
    # block is, and gets no gradient.  The first pair's parts and one
    # entry of b1 are zero, as at initialisation, so one pre-activation is
    # exactly 0.0, where the relu passes no gradient.
    rng = np.random.default_rng(43 + masked)
    b, d = 50, 6
    parts = [rng.normal(size=(b, d)), np.zeros((b, d)), rng.normal(size=(b, d))]
    parts[0][0] = parts[2][0] = 0.0
    weights = [rng.normal(size=(d, 3 * d)), rng.normal(size=d), rng.normal(size=d), rng.normal(size=())]
    weights[1][0] = 0.0
    mask = (rng.random((b, 3 * d)) < 0.5) / 0.5 if masked else None
    g = rng.normal(size=b)
    t = Tape()
    ws = [t.watch(w) for w in weights]
    ps = [t.watch(parts[0]), parts[1], t.watch(parts[2])]
    out = ad.mlp_head(ps, mask, *ws)
    grads = backward(t, ad.reduce_sum(ad.multiply_elementwise(out, g)))
    want, want_w, want_p = mlp_head_chain(parts, mask, *weights, g)
    assert out.shape == (b,)
    np.testing.assert_array_equal(out.data.view(np.int64), want.view(np.int64))
    for w, want_g in zip(ws, want_w):
        np.testing.assert_array_equal(np.asarray(grads[w.node_id]).view(np.int64), want_g.view(np.int64))
    for k in (0, 2):
        np.testing.assert_array_equal(grads[ps[k].node_id].view(np.int64), want_p[k].view(np.int64))
    plain = ad.mlp_head(parts, mask, *weights)
    assert not plain.tracked
    np.testing.assert_array_equal(plain.data, out.data)


def _packed(histories):
    """Pack row histories for ``ad.lstm``, longest first (a stable sort):
    (step rows, widths, each history's rows in the packed output)."""
    lengths = np.array([len(h) for h in histories])
    order = np.argsort(-lengths, kind="stable")
    widths = np.array([np.count_nonzero(lengths > t) for t in range(lengths.max(initial=0))], dtype=np.intp)
    starts = np.cumsum(widths) - widths
    places = [None] * len(histories)
    for rank, k in enumerate(order):
        places[k] = starts[: lengths[k]] + rank
    step_rows = np.empty(int(lengths.sum()), dtype=np.intp)
    for hist, at in zip(histories, places):
        step_rows[at] = hist
    return step_rows, widths, places


def _lstm_case(rng):
    """B >= 2 sequences of unequal lengths, packed, over T >= 3 steps: the
    longest runs every step and one stops early, so the carried state and
    cell gradients widen as the sweep goes back.  Sequences share rows as
    histories share items: the shortest reads the longest's second row
    first, and the longest reads its first row again at its last step.
    One instance in four holds one operand constant."""
    k, d, steps, width = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(3, 6)), int(rng.integers(2, 4))
    lengths = rng.integers(1, steps + 1, size=width)
    lengths[0], lengths[-1] = steps, rng.integers(1, steps)  # the longest, and one that stops early
    starts = np.cumsum(lengths) - lengths
    histories = [list(range(s, s + n)) for s, n in zip(starts, lengths)]
    histories[-1][0] = histories[0][1]
    histories[0][-1] = histories[0][0]
    step_rows, widths, _ = _packed(histories)
    arrays = [rng.normal(size=(int(lengths.sum()), k)), rng.normal(size=(4 * d, k)),
              rng.normal(size=(4 * d, d)), rng.normal(size=4 * d)]
    constant = int(rng.integers(4)) if rng.integers(4) == 0 else None
    fixed = arrays[constant] if constant is not None else None

    def build(xs):
        ops = list(xs)
        if constant is not None:
            ops.insert(constant, fixed)
        return _cotangent_sum(ad.lstm(ops[0], step_rows, widths, *ops[1:]), np.random.default_rng(7))

    if constant is not None:
        del arrays[constant]
    return build, arrays


def test_lstm_matches_a_step_by_step_loop():
    rng = np.random.default_rng(19)
    k, d = 3, 2
    x = rng.normal(size=(5, k))
    # the second sequence reads row 0 at its second step, as the first does
    # at its first, and ends after two steps
    histories = [[0, 1, 2], [3, 0]]
    w, u, b = rng.normal(size=(4 * d, k)), rng.normal(size=(4 * d, d)), rng.normal(size=4 * d)
    step_rows, widths, places = _packed(histories)
    got = ad.lstm(x, step_rows, widths, w, u, b)
    assert got.shape == (5, d)
    for hist, at in zip(histories, places):
        h = c = np.zeros(d)
        for t, row in enumerate(hist):
            pre = w @ x[row] + u @ h + b
            i, f, o = (1.0 / (1.0 + np.exp(-pre[j * d : (j + 1) * d])) for j in range(3))
            c = f * c + i * np.tanh(pre[3 * d :])
            h = o * np.tanh(c)
            np.testing.assert_allclose(got.data[at[t]], h, atol=1e-14)
    assert ad.lstm(x, np.zeros(0, dtype=int), np.zeros(0, dtype=int), w, u, b).shape == (0, d)
    t = Tape()
    grads = backward(t, ad.reduce_sum(ad.lstm(t.watch(x), [], [], t.watch(w), u, b)))
    assert all(not g.any() for g in grads.values())


def test_lstm_saturated_gates_stay_finite():
    # pre-activations near +-1e3: every gate saturates, with no overflow
    # warning (warnings are errors here) in the forward or backward pass
    d = 2
    x = np.array([[1.0], [-1.0]])
    w = np.array([[1e3], [-1e3], [1e3], [-1e3], [1e3], [1e3], [-1e3], [1e3]])
    step_rows, widths = np.array([0, 1, 1, 0, 0]), np.array([2, 2, 1])
    t = Tape()
    out = ad.lstm(t.watch(x), step_rows, widths, t.watch(w), t.watch(np.full((4 * d, d), 0.5)),
                  t.watch(np.zeros(4 * d)))
    _, _, saved = t.nodes[out.node_id]
    gates = _rebuilt_gates(saved)  # each step's (4, width, d) slab; its first 3*d*width floats are the sigmoids
    slabs = np.split(gates, 4 * d * np.cumsum(widths)[:-1])
    sigmoids = np.concatenate([s.reshape(4 * d, -1)[: 3 * d].ravel() for s in slabs])
    assert gates.size == 4 * d * widths.sum() and np.isfinite(out.data).all()
    assert ((sigmoids >= 0.0) & (sigmoids <= 1.0)).all()
    assert {0.0, 1.0} <= set(sigmoids.tolist())
    grads = backward(t, ad.reduce_sum(out))
    assert all(np.isfinite(g).all() for g in grads.values())


def test_lstm_saves_activations_only_when_tracked():
    rng = np.random.default_rng(20)
    x, w, u, b = rng.normal(size=(3, 2)), rng.normal(size=(8, 2)), rng.normal(size=(8, 2)), np.zeros(8)
    step_rows, widths = np.array([0, 1, 2, 0]), np.array([2, 2])  # 4 state rows over 3 input rows
    t = Tape()
    out = ad.lstm(x, step_rows, widths, t.watch(w), u, b)
    kind, _, saved = t.nodes[out.node_id]
    assert len(t.nodes) == 2 and kind == "lstm"
    shapes = [np.shape(v) for v in saved]
    assert shapes.count((4 * 2,)) == 1  # the cells, and not their tanh: the backward takes it again
    # nor the gate activations, 4d floats per state row: the backward rebuilds them
    assert max(np.size(v) for v in saved) < 4 * 4 * 2
    plain = ad.lstm(x, step_rows, widths, w, u, b)
    assert plain.tape is None and not plain.tracked
    np.testing.assert_array_equal(plain.data, out.data)


def test_fd_kinds_cover_every_backward_rule():
    assert sorted(FD_KINDS) == sorted(_BACKWARD)


@pytest.mark.parametrize("kind", FD_KINDS + tuple(MLP_HEAD_RULES))
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(100):
        build, arrays = _sampler(kind, rng)
        assert fd_max_rel_error(build, arrays) <= FD_TOL


# Three-row blocks make the LSTM backward flush between steps and, in
# `_lstm_case` and the packed cases below, sum an input row read at an early
# and a late step from two blocks; they also split the pooling backward's
# dense update of up to 7 source rows into slices.
SMALL_BLOCK = 3


@pytest.mark.parametrize("kind", ["lstm", "segment_attention"])
def test_gradients_match_finite_differences_in_small_blocks(kind, monkeypatch):
    monkeypatch.setattr(ad, "_BLOCK_ROWS", SMALL_BLOCK)
    test_gradients_match_finite_differences(kind)


def test_lstm_matches_a_step_by_step_loop_in_small_blocks(monkeypatch):
    monkeypatch.setattr(ad, "_BLOCK_ROWS", SMALL_BLOCK)
    test_lstm_matches_a_step_by_step_loop()


def test_lstm_backward_sums_a_row_across_blocks_like_one_block(monkeypatch):
    # packed as [0, 3 | 1, 0 | 2]: row 0 is read at packed rows 0 and 3, so
    # three-row blocks hold rows [2, 5) and then [0, 2), and row 0 is summed
    # from both
    rng = np.random.default_rng(23)
    k, d = 3, 2
    arrays = [rng.normal(size=(4, k)), rng.normal(size=(4 * d, k)), rng.normal(size=(4 * d, d)),
              rng.normal(size=4 * d)]
    step_rows, widths, _ = _packed([[0, 1, 2], [3, 0]])
    cot = rng.normal(size=(5, d))
    flushed = []
    real = ad._add_rows

    def spy(buf, idx, rows):
        flushed.append(idx.tolist())
        return real(buf, idx, rows)

    def grads():
        t = Tape()
        ops = [t.watch(a) for a in arrays]
        out = ad.lstm(ops[0], step_rows, widths, *ops[1:])
        got = backward(t, ad.reduce_sum(ad.multiply_elementwise(out, cot)))
        return [got[op.node_id] for op in ops]

    monkeypatch.setattr(ad, "_add_rows", spy)
    whole = grads()
    assert flushed == [[0, 3, 1, 0, 2]]
    flushed.clear()
    monkeypatch.setattr(ad, "_BLOCK_ROWS", SMALL_BLOCK)
    blocked = grads()
    assert flushed == [[1, 0, 2], [0, 3]]
    for got, want in zip(blocked, whole):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


# Square (k = d) cases for the scalar-loop oracle.  In the first the widths
# fall to 1 partway through the batch, [3, 3, 2, 2, 1, 1, 1, 1, 1], so the
# last steps take the width-1 product; in the second they never reach 1.
# Histories share rows, and the first reads one row at two steps.
LSTM_WIDTH_CASES = {
    "falls_to_one": [[0, 1, 2, 3, 4, 5, 6, 0, 7], [8, 9, 1, 10], [11, 3]],
    "stays_wide": [[0, 1, 2, 3, 4, 0], [5, 6, 1, 7, 8, 9], [10, 11, 3, 2, 4]],
}


def _square_lstm(rng, d=5, rows=12):
    x = rng.normal(size=(rows, d))
    w, u, b = rng.normal(size=(4 * d, d)), rng.normal(size=(4 * d, d)) * 0.5, rng.normal(size=4 * d)
    return x, w, u, b


@pytest.mark.parametrize("case", sorted(LSTM_WIDTH_CASES))
def test_lstm_histories_alone_equal_their_packed_rows_and_the_oracle(case):
    # a history run alone steps at width 1 throughout, on the flat gate
    # vector; packed with the others it runs on (width, d) row blocks
    rng = np.random.default_rng(41)
    histories = LSTM_WIDTH_CASES[case]
    x, w, u, b = _square_lstm(rng)
    step_rows, widths, places = _packed(histories)
    assert (widths.min() == 1) == (case == "falls_to_one")
    packed = ad.lstm(x, step_rows, widths, w, u, b).data
    p = lstm_gates(SimpleNamespace(w=w, u=u, b=b))
    for hist, at in zip(histories, places):
        alone = ad.lstm(x, hist, np.ones(len(hist), dtype=np.intp), w, u, b).data
        np.testing.assert_allclose(alone, packed[at], rtol=0, atol=1e-15)
        np.testing.assert_allclose(packed[at], np.array(lstm_reference([x[r] for r in hist], p)), rtol=0, atol=1e-14)


@pytest.mark.parametrize("case", sorted(LSTM_WIDTH_CASES))
def test_lstm_width_cases_match_finite_differences_in_small_blocks(case, monkeypatch):
    monkeypatch.setattr(ad, "_BLOCK_ROWS", SMALL_BLOCK)
    rng = np.random.default_rng(42)
    step_rows, widths, _ = _packed(LSTM_WIDTH_CASES[case])
    arrays = list(_square_lstm(rng))

    def build(ops):
        return _cotangent_sum(ad.lstm(ops[0], step_rows, widths, *ops[1:]), np.random.default_rng(7))

    assert fd_max_rel_error(build, arrays) <= FD_TOL


# the width cases and a history run alone, which steps at width 1 from its
# second step on
LSTM_TAIL_CASES = {"lone": LSTM_WIDTH_CASES["falls_to_one"][:1], **LSTM_WIDTH_CASES}


def _rebuilt_gates(saved):
    """Every step's gate slab, rebuilt from a tracked ``lstm`` node's saved
    values as `_bk_lstm` rebuilds it (a wide step through
    `ad._lstm_step_gates`, a width-1 step with the flat loop's calls), packed
    one after another as the forward once kept them."""
    _, rows, widths, _, ud, proj, u_half, u_gates, _, out = saved
    d = ud.shape[1]
    starts = np.cumsum(widths) - widths
    wide = max(np.count_nonzero(widths > 1), 1)
    slabs = []
    for t, (start, n) in enumerate(zip(starts, widths)):
        prev = starts[t - 1] if t else 0
        if t < wide:
            a = np.empty((4, n, d))
            ad._lstm_step_gates(a, out[prev : prev + n] if t else None, u_gates, proj[rows[start : start + n]])
        else:
            a = np.dot(u_half, out[prev])
            a += proj[rows[start]]
            np.tanh(a, out=a)
            a[: 3 * d] *= 0.5
            a[: 3 * d] += 0.5
        slabs.append(a.ravel())
    return np.concatenate(slabs)


def _forward_from_gates(gates, widths, d):
    """The cells and states the forward makes of the packed gate slabs
    ``gates``: ``c = f*c + i*g`` and ``h = o*tanh(c)``, step after step."""
    ends = np.cumsum(widths)
    cells, states = np.empty((ends[-1], d)), np.empty((ends[-1], d))
    c = None
    for start, n in zip(ends - widths, widths):
        i, f, o, g = gates[4 * d * start : 4 * d * (start + n)].reshape(4, n, d)
        c = i * g if c is None else f * c[:n] + i * g
        cells[start : start + n] = c
        states[start : start + n] = o * np.tanh(c)
    return cells.ravel(), states


def _step_loop_gates_and_cells(x, w, u, b, histories):
    """The gate activations and cells of a plain step loop over each history,
    laid out as ``ad.lstm`` saves them: step t's (4, widths[t], d) slab of
    ``[i | f | o | g]`` blocks and its (widths[t], d) cells, step after step."""
    d = u.shape[1]
    step_rows, widths, places = _packed(histories)
    starts = np.cumsum(widths) - widths
    gates, cells = np.empty(4 * d * widths.sum()), np.empty((widths.sum(), d))
    for hist, at in zip(histories, places):
        h = c = np.zeros(d)
        for t, (row, j) in enumerate(zip(hist, at)):
            pre = w @ x[row] + u @ h + b
            act = np.concatenate([1.0 / (1.0 + np.exp(-pre[: 3 * d])), np.tanh(pre[3 * d :])]).reshape(4, d)
            c = act[1] * c + act[0] * act[3]
            h = act[2] * np.tanh(c)
            gates[4 * d * starts[t] : 4 * d * (starts[t] + widths[t])].reshape(4, widths[t], d)[:, j - starts[t]] = act
            cells[j] = c
    return step_rows, widths, gates, cells.ravel()


@pytest.mark.parametrize("case", sorted(LSTM_TAIL_CASES))
def test_tracked_lstm_equals_untracked_and_saves_a_step_loops_gates_and_cells(case):
    rng = np.random.default_rng(43)
    x, w, u, b = _square_lstm(rng)
    step_rows, widths, want_gates, want_cells = _step_loop_gates_and_cells(x, w, u, b, LSTM_TAIL_CASES[case])
    plain = ad.lstm(x, step_rows, widths, w, u, b)
    t = Tape()
    out = ad.lstm(x, step_rows, widths, t.watch(w), u, b)
    _, _, saved = t.nodes[out.node_id]
    np.testing.assert_array_equal(plain.data, out.data)
    gates, cells = _rebuilt_gates(saved), saved[-2]
    np.testing.assert_allclose(gates, want_gates, rtol=0, atol=1e-14)
    np.testing.assert_allclose(cells, want_cells, rtol=0, atol=1e-14)
    # the rebuilt gates are the forward's to the bit: they make its cells and states
    got_cells, got_states = _forward_from_gates(gates, widths, x.shape[1])
    np.testing.assert_array_equal(got_cells, cells)
    np.testing.assert_array_equal(got_states, out.data)


@pytest.mark.parametrize("case", sorted(LSTM_TAIL_CASES))
def test_lstm_gathers_in_small_chunks_like_one_chunk(case, monkeypatch):
    # three-row gathers split the width-1 steps of "lone" (rows 1-8) and of
    # "falls_to_one" (rows 10-14), and the wide steps, across chunks
    rng = np.random.default_rng(44)
    histories = LSTM_TAIL_CASES[case]
    x, w, u, b = _square_lstm(rng)
    step_rows, widths, places = _packed(histories)

    def run():
        t = Tape()
        out = ad.lstm(x, step_rows, widths, t.watch(w), u, b)
        _, _, saved = t.nodes[out.node_id]
        return ad.lstm(x, step_rows, widths, w, u, b).data, out.data, _rebuilt_gates(saved), saved[-2]

    whole = run()
    monkeypatch.setattr(ad, "_GATHER_ROWS", SMALL_BLOCK)
    chunked = run()
    for got, want in zip(chunked, whole):
        np.testing.assert_array_equal(got, want)
    p = lstm_gates(SimpleNamespace(w=w, u=u, b=b))
    for hist, at in zip(histories, places):
        np.testing.assert_allclose(chunked[0][at], np.array(lstm_reference([x[r] for r in hist], p)), rtol=0, atol=1e-14)


@pytest.mark.parametrize("case", sorted(LSTM_WIDTH_CASES))
def test_lstm_width_cases_match_finite_differences_in_small_gathers(case, monkeypatch):
    monkeypatch.setattr(ad, "_GATHER_ROWS", SMALL_BLOCK)
    test_lstm_width_cases_match_finite_differences_in_small_blocks(case, monkeypatch)


def test_tracked_lstm_holds_no_gradient_row_per_state_beyond_a_block():
    # T = 200 steps over B = 200 sequences, d = 32: the tracked forward keeps
    # the cells (d floats per state row) and the states (d), and no gate
    # activations, which the sweep rebuilds a step at a time.  The sweep may
    # add its block of packed gradient rows and one block's row sums on top,
    # but no (sum(widths), 4d) gate or gradient block and no second
    # (sum(widths), d) buffer such as the cells' tanh.
    rng = np.random.default_rng(22)
    d, steps, width, items = 32, 200, 200, 100
    arrays = [rng.normal(size=(items, d)), rng.normal(size=(4 * d, d)) * 0.2,
              rng.normal(size=(4 * d, d)) * 0.2, np.zeros(4 * d)]
    step_rows, widths = rng.integers(0, items, size=steps * width), np.full(steps, width)
    saved = (d + d) * steps * width * 8
    slack = 2 * ad._BLOCK_ROWS * 4 * d * 8
    tracemalloc.start()
    try:
        t = Tape()
        ops = [t.watch(a) for a in arrays]
        grads = backward(t, ad.reduce_sum(ad.lstm(ops[0], step_rows, widths, *ops[1:])))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(g).all() for g in grads.values())
    assert peak < saved + slack, (peak, saved, slack)


_TABLE = np.ones((3, 2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: ad.multiply_elementwise(Tape().watch(np.ones(2)), Tape().watch(np.ones(2))),
     ValueError, "^operands tracked on different tapes$"),
    (lambda: ad.multiply_elementwise(np.ones((2, 3)), np.ones(2)),
     ShapeError, r"^multiply_elementwise: incompatible shapes \(2, 3\) vs \(2,\)$"),
    (lambda: ad.embedding_lookup(np.ones(3), [0]), ShapeError, r"^embedding_lookup: incompatible shapes \(3,\)$"),
    (lambda: ad.pnn(np.ones(3), [[0]]), ShapeError, r"^pnn: incompatible shapes \(3,\) vs \(1, 1\)$"),
    (lambda: ad.pnn(_TABLE, 0), ShapeError, r"^pnn: incompatible shapes \(3, 2\) vs \(\)$"),
    (lambda: pnn_encode_batch("item", np.zeros(3, dtype=int), PnnEncoderParams(_TABLE, _TABLE, _TABLE)),
     ValueError, r"^positions must be 2-D, got shape \(3,\)$"),
    (lambda: stream_rng(1, "noise"), ValueError, "^unknown random stream 'noise'$"),
], ids=["two-tapes", "multiply-shapes", "lookup-table-not-2d", "pnn-table-not-2d", "pnn-positions-0d",
        "pnn-batch-positions-not-2d", "unknown-stream"])
def test_ops_and_streams_refuse_bad_operands_by_name(call, error, message):
    with pytest.raises(error, match=message):
        call()
