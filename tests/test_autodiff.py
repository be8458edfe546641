"""Tape engine: op semantics, shape errors, gradient checks per kind."""
import tracemalloc

import numpy as np
import pytest

from liverec import autodiff as ad
from liverec.autodiff import _BACKWARD, ShapeError, Tape, Tensor, _scatter_rows, backward

from oracles import fd_max_rel_error, segment_attention_reference

FD_TOL = 1e-4

# every differentiable op kind; gathers take their own route in backward
FD_KINDS = (
    "add", "multiply_elementwise", "matmul", "concat", "sum", "sigmoid", "softmax", "relu",
    "dot", "log", "clamp", "embedding_lookup", "reshape", "transpose", "lstm", "segment_attention",
)


def test_sigmoid_at_zero():
    assert ad.sigmoid(np.zeros(1)).data[0] == 0.5


def test_softmax_shift_invariance():
    for c in (-3.0, 0.0, 17.5):
        out = ad.softmax(np.full(3, c)).data
        np.testing.assert_allclose(out, np.full(3, 1 / 3), atol=1e-15)


def test_multiply_elementwise_values():
    out = ad.multiply_elementwise(np.array([1.0, 2, 3]), np.array([4.0, 5, 6]))
    np.testing.assert_array_equal(out.data, [4.0, 10.0, 18.0])


def test_dot_linear_gradient():
    t = Tape()
    w = t.watch(np.array([1.0, -2.0, 0.5]))
    x = np.array([4.0, 5.0, 6.0])
    g = backward(t, ad.dot(w, x))
    np.testing.assert_array_equal(g[w.node_id], x)


def test_sigmoid_gradient_at_zero():
    t = Tape()
    s = t.watch(np.zeros(()))
    g = backward(t, ad.sigmoid(s))
    assert g[s.node_id] == pytest.approx(0.25)


def test_fanout_accumulates_both_paths():
    # f(x) = x*x built as multiply(x, x): df/dx = 2x from two contributions
    t = Tape()
    x = t.watch(np.array(3.0))
    g = backward(t, ad.multiply_elementwise(x, x))
    assert g[x.node_id] == pytest.approx(6.0)


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
    with pytest.raises(ShapeError) as info:
        ad.matmul(np.ones((2, 3)), np.ones(4))
    assert info.value.kind == "matmul"
    assert info.value.shapes == ((2, 3), (4,))
    with pytest.raises(ShapeError):
        ad.dot(np.ones(3), np.ones(4))
    with pytest.raises(ShapeError):
        ad.add(np.ones(3), np.ones(4))
    with pytest.raises(ShapeError) as info:
        ad.concat([np.ones((2, 3)), np.ones((1, 4))])
    assert info.value.kind == "concat" and info.value.shapes == ((2, 3), (1, 4))
    with pytest.raises(ShapeError):
        ad.concat([np.ones(3), np.ones((1, 3))])
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
        out = ad.softmax(x).data
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-12


def test_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-700, 700, size=6)
        for fn in (ad.sigmoid, ad.softmax, ad.relu):
            assert np.all(np.isfinite(fn(x).data))


def test_tape_topological_order_invariant():
    t = Tape()
    x = t.watch(np.ones(3))
    y = ad.multiply_elementwise(ad.add(x, 1.0), x)
    ad.reduce_sum(y)
    for nid, (_, ids, _) in enumerate(t.nodes):
        for i in ids:
            assert i is None or i < nid


def test_concat_lifts_scalars():
    t = Tape()
    a = t.watch(np.array(2.0))
    b = t.watch(np.array([3.0, 4.0]))
    out = ad.concat([a, b])
    np.testing.assert_array_equal(out.data, [2.0, 3.0, 4.0])
    g = backward(t, ad.reduce_sum(ad.multiply_elementwise(out, np.array([1.0, 10.0, 100.0]))))
    assert g[a.node_id] == pytest.approx(1.0)
    np.testing.assert_array_equal(g[b.node_id], [10.0, 100.0])


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
    # reduce_sum hands its source a read-only broadcast view as the dense
    # gradient; scattering the gather rows must not write into it
    t = Tape()
    table = t.watch(np.ones((3, 2)))
    src = ad.multiply_elementwise(table, 1.0)
    loss = ad.add(ad.reduce_sum(src), ad.reduce_sum(ad.embedding_lookup(src, np.array([2, 2]))))
    g = backward(t, loss)
    np.testing.assert_array_equal(g[table.node_id], [[1.0, 1.0], [1.0, 1.0], [3.0, 3.0]])
    for idx in (np.array([2, 0]), np.array([2, 2])):  # unique and repeated rows
        dense = np.broadcast_to(np.ones(()), (3, 2))
        buf = _scatter_rows(dense, (3, 2), [(idx, np.full((2, 2), 5.0))])
        np.testing.assert_array_equal(dense, np.ones((3, 2)))
        assert not np.shares_memory(buf, dense)
        want = np.ones((3, 2))
        np.add.at(want, idx, 5.0)
        np.testing.assert_array_equal(buf, want)


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
def test_scatter_rows_equals_add_at_bit_for_bit(dense):
    # repeated indices take the one-hot product, unique ones the indexed add
    rng = np.random.default_rng(21)
    for n, sizes in ((7, (40, 3)), (500, (300, 1)), (6, (2, 2)), (50, (7,))):
        start = rng.normal(size=(n, 3)) if dense else None
        gathers = [(rng.integers(0, n, size=m), rng.normal(size=(m, 3))) for m in sizes]
        gathers.append((rng.permutation(n)[:3].reshape(3, 1), rng.normal(size=(3, 1, 3))))
        want = np.zeros((n, 3)) if start is None else start.copy()
        for idx, rows in gathers:
            np.add.at(want, idx.reshape(-1), rows.reshape(-1, 3))
        assert np.array_equal(_scatter_rows(start, (n, 3), gathers), want)
        unique = [(rng.permutation(n)[:5], rng.normal(size=(5, 3)))]
        want = np.zeros((n, 3)) if start is None else start.copy()
        np.add.at(want, unique[0][0], unique[0][1])
        assert np.array_equal(_scatter_rows(start, (n, 3), unique), want)


def _gather_case(case, rng):
    """(build(arrays) -> scalar Tensor, arrays) exercising the deferred gather scatter."""
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
        return ad.add(total, ad.reduce_sum(ad.matmul(src, np.arange(1.0, d + 1))))  # second dense use

    if case == "many_gathers_and_dense_leaf":
        return (lambda xs: many_gathers_and_dense(xs[0])), [rng.normal(size=(v, d))]
    if case == "many_gathers_and_dense_nonleaf":
        k = rng.integers(1, 4)
        return (lambda xs: many_gathers_and_dense(ad.sigmoid(ad.matmul(xs[0], xs[1])))), [
            rng.normal(size=(v, k)), rng.normal(size=(k, d))
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
    if kind == "matmul":
        m, n, p = rng.integers(1, 5, size=3)
        case = rng.integers(3)
        if case == 0:
            arrays = [rng.normal(size=(m, n)), rng.normal(size=n)]
        elif case == 1:
            arrays = [rng.normal(size=(m, n)), rng.normal(size=(n, p))]
        else:
            arrays = [rng.normal(size=n), rng.normal(size=(n, p))]
        return (lambda xs: _cotangent_sum(ad.matmul(xs[0], xs[1]), np.random.default_rng(7))), arrays
    if kind == "concat":
        k, mode = rng.integers(1, 4), rng.integers(3)
        d = rng.integers(1, 4)
        if mode == 0:  # (k_i, d) blocks along axis 0
            arrays = [rng.normal(size=(rng.integers(1, 4), d)) for _ in range(k)]
        elif mode == 1:  # (d, k_i) blocks along axis 1
            arrays = [rng.normal(size=(d, rng.integers(1, 4))) for _ in range(k)]
            return (lambda xs: _cotangent_sum(ad.concat(xs, axis=1), np.random.default_rng(7))), arrays
        else:
            arrays = [rng.normal(size=rng.integers(1, 5)) for _ in range(k)]
        return (lambda xs: _cotangent_sum(ad.concat(xs), np.random.default_rng(7))), arrays
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
    if kind in ("sigmoid", "softmax"):
        fn = getattr(ad, kind)
        arrays = [rng.uniform(-3, 3, size=rng.integers(1, 8))]
        return (lambda xs: _cotangent_sum(fn(xs[0]), np.random.default_rng(7))), arrays
    if kind == "relu":
        x = rng.normal(size=rng.integers(1, 8))
        x[np.abs(x) < 0.05] = 0.5  # keep away from the kink
        return (lambda xs: _cotangent_sum(ad.relu(xs[0]), np.random.default_rng(7))), [x]
    if kind == "dot":
        n = rng.integers(1, 8)
        arrays = [rng.normal(size=n), rng.normal(size=n)]
        return (lambda xs: ad.dot(xs[0], xs[1])), arrays
    if kind == "log":
        arrays = [rng.uniform(0.1, 5.0, size=rng.integers(1, 8))]
        return (lambda xs: _cotangent_sum(ad.log(xs[0]), np.random.default_rng(7))), arrays
    if kind == "clamp":
        x = rng.uniform(-2, 2, size=rng.integers(1, 8))
        x[np.abs(np.abs(x) - 1.0) < 0.05] = 0.0  # keep away from the clamp edges
        return (lambda xs: _cotangent_sum(ad.clamp(xs[0], -1.0, 1.0), np.random.default_rng(7))), [x]
    if kind == "embedding_lookup":
        v, d = rng.integers(2, 6), rng.integers(1, 5)
        idx = rng.integers(0, v, size=rng.integers(1, 6))
        table = rng.normal(size=(v, d))
        return (lambda xs: _cotangent_sum(ad.embedding_lookup(xs[0], idx), np.random.default_rng(7))), [table]
    if kind == "reshape":
        m, n = rng.integers(1, 5, size=2)
        x = rng.normal(size=m * n)
        return (lambda xs: _cotangent_sum(ad.reshape(xs[0], (m, n)), np.random.default_rng(7))), [x]
    if kind == "transpose":
        x = rng.normal(size=tuple(rng.integers(1, 5, size=2)))
        return (lambda xs: _cotangent_sum(ad.transpose(xs[0]), np.random.default_rng(7))), [x]
    if kind == "lstm":
        return _lstm_case(rng)
    if kind == "segment_attention":
        return _segment_case(rng)
    raise AssertionError(f"no sampler for {kind}")


def _segment_case(rng):
    """Groups of unequal length over shared rows: always an empty group, a
    one-row group and a longer one, rows repeated across and within groups
    (as co-retrieved pairs share an owner's rows), in shuffled order.  One
    instance in two reads only some rows of a larger source block, as the
    pooled LSTM block and co-retrieval do.  One instance in three pools
    separate values, one in four holds w constant."""
    n, k = int(rng.integers(2, 8)), int(rng.integers(1, 4))
    lengths = np.concatenate([[0, 1, rng.integers(2, 5)], rng.integers(0, 4, size=rng.integers(0, 3))])
    rng.shuffle(lengths)
    read = np.arange(n) if rng.integers(2) else rng.permutation(n)[: rng.integers(1, n)]
    index = rng.choice(read, size=int(lengths.sum()))
    arrays = [rng.normal(size=(n, k)), rng.normal(size=k)]
    if rng.integers(3) == 0:
        arrays.append(rng.normal(size=(n, int(rng.integers(1, 4)))))
    fixed = arrays.pop(1) if rng.integers(4) == 0 else None

    def build(xs):
        ops = list(xs)
        if fixed is not None:
            ops.insert(1, fixed)
        out = ad.segment_attention(ops[0], ops[1], index, lengths, ops[2] if len(ops) > 2 else None)
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


@pytest.mark.parametrize("own_values", [True, False])
def test_segment_attention_matches_the_gathering_reference(own_values):
    rng = np.random.default_rng(31 + own_values)
    for _ in range(3):
        n, k = int(rng.integers(200, 400)), int(rng.integers(4, 17))
        index, lengths = _large_segments(rng, n, int(rng.integers(100, 200)))
        states, w = rng.normal(size=(n, k)), rng.normal(size=k)
        values = None if own_values else rng.normal(size=(n, int(rng.integers(3, 9))))
        g = rng.normal(size=(len(lengths), k if own_values else values.shape[1]))
        want, (want_s, want_w, want_v) = segment_attention_reference(states, w, index, lengths, values, g)
        t = Tape()
        ops = [t.watch(states), t.watch(w)] + ([] if own_values else [t.watch(values)])
        out = ad.segment_attention(ops[0], ops[1], index, lengths, None if own_values else ops[2])
        grads = backward(t, ad.reduce_sum(ad.multiply_elementwise(out, g)))
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(grads[ops[0].node_id], want_s, rtol=0, atol=1e-13)
        np.testing.assert_allclose(grads[ops[1].node_id], want_w, rtol=1e-13, atol=1e-13)
        if not own_values:
            np.testing.assert_allclose(grads[ops[2].node_id], want_v, rtol=0, atol=1e-13)


def test_a_row_read_k_times_pools_like_one_row_with_log_k_added():
    # the browsed-anchor groups repeat an anchor once per visit: k entries
    # of a row weigh it as one entry whose logit is larger by log k
    rng = np.random.default_rng(33)
    states, values, w = rng.normal(size=(7, 4)), rng.normal(size=(7, 3)), rng.normal(size=4)
    distinct, times = np.array([5, 1, 3, 6]), np.array([3, 1, 4, 2])
    index = rng.permutation(np.repeat(distinct, times))
    out = ad.segment_attention(states, w, index, [index.size], values).data[0]
    p = ad.softmax(states[distinct] @ w + np.log(times)).data
    np.testing.assert_allclose(out, p @ values[distinct], rtol=0, atol=1e-14)


def test_segment_attention_saves_no_row_per_index_entry():
    # the pooled rows are never gathered: a tracked node keeps no (R, k)
    # block, only the weight matrix and the arrays it was given
    rng = np.random.default_rng(34)
    n, k = 40, 16
    index, lengths = _large_segments(rng, n, 30)
    assert index.size > 2 * n
    states, values = rng.normal(size=(n, k)), rng.normal(size=(n, 5))
    for vals in (None, values):
        t = Tape()
        out = ad.segment_attention(t.watch(states), t.watch(rng.normal(size=k)), index, lengths, vals)
        _, _, saved = t.nodes[out.node_id]
        blocks = [np.shape(v) for v in saved if isinstance(v, np.ndarray) and v.ndim == 2]
        assert blocks and all(shape[0] in (n, len(lengths)) for shape in blocks), blocks


def test_segment_attention_matches_a_softmax_per_group():
    rng = np.random.default_rng(22)
    states, values, w = rng.normal(size=(6, 3)), rng.normal(size=(6, 2)), rng.normal(size=3)
    index, lengths = np.array([4, 0, 4, 5, 2, 1]), np.array([3, 0, 1, 2])
    for vals in (None, values):
        out = ad.segment_attention(states, w, index, lengths, vals).data
        v = states if vals is None else vals
        assert out.shape == (4, v.shape[1])
        start = 0
        for s, n in enumerate(lengths):
            rows = index[start : start + n]
            start += n
            if not n:
                np.testing.assert_array_equal(out[s], 0.0)
                continue
            p = ad.softmax(states[rows] @ w).data
            np.testing.assert_allclose(out[s], p @ v[rows], atol=1e-15)
    # every row in order as one group; a zero weight vector is the mean
    whole = ad.segment_attention(states, np.zeros(3), None, [6]).data
    np.testing.assert_allclose(whole, states.mean(axis=0, keepdims=True), atol=1e-15)
    assert ad.segment_attention(states, w, np.zeros(0, dtype=int), [0, 0]).data.tolist() == [[0.0] * 3] * 2
    for bad in ((states, np.ones(2), index, lengths), (states, w, index, lengths[:3]),
                (states, w, index, np.array([3, -1, 2, 2])), (states, w, index, lengths, values[:5]),
                (states[0], w, index, lengths)):
        with pytest.raises(ShapeError) as info:
            ad.segment_attention(*bad)
        assert info.value.kind == "segment_attention"
    with pytest.raises(IndexError, match="out of range"):
        ad.segment_attention(states, w, np.array([6]), [1])


def test_concat_along_axis_1_and_transpose():
    t = Tape()
    a, b = t.watch(np.ones((2, 1))), t.watch(np.arange(4.0).reshape(2, 2))
    out = ad.concat([a, b], axis=1)
    np.testing.assert_array_equal(out.data, [[1.0, 0.0, 1.0], [1.0, 2.0, 3.0]])
    flipped = ad.transpose(out)
    assert flipped.shape == (3, 2)
    g = backward(t, ad.reduce_sum(ad.multiply_elementwise(flipped, np.arange(6.0).reshape(3, 2))))
    np.testing.assert_array_equal(g[a.node_id], [[0.0], [1.0]])
    np.testing.assert_array_equal(g[b.node_id], [[2.0, 4.0], [3.0, 5.0]])
    with pytest.raises(ShapeError):
        ad.concat([np.ones((2, 1)), np.ones((3, 1))], axis=1)
    with pytest.raises(ShapeError):
        ad.transpose(np.ones(3))


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
    gates = saved[5]  # each step's (4d, width) slab, packed
    slabs = np.split(gates, 4 * d * np.cumsum(widths)[:-1])
    sigmoids = np.concatenate([s.reshape(4 * d, -1)[: 3 * d].ravel() for s in slabs])
    assert gates.size == 4 * d * widths.sum() and np.isfinite(out.data).all()
    assert ((sigmoids >= 0.0) & (sigmoids <= 1.0)).all()
    assert {0.0, 1.0} <= set(sigmoids.tolist())
    grads = backward(t, ad.reduce_sum(out))
    assert all(np.isfinite(g).all() for g in grads.values())


def test_lstm_saves_activations_only_when_tracked():
    rng = np.random.default_rng(20)
    x, w, u, b = rng.normal(size=(4, 2)), rng.normal(size=(8, 2)), rng.normal(size=(8, 2)), np.zeros(8)
    step_rows, widths = np.array([0, 1, 2, 3]), np.array([2, 2])
    t = Tape()
    out = ad.lstm(x, step_rows, widths, t.watch(w), u, b)
    kind, _, saved = t.nodes[out.node_id]
    assert len(t.nodes) == 2 and kind == "lstm"
    shapes = [np.shape(v) for v in saved]
    assert (8 * 4,) in shapes  # the gate activations, a 4d slab per step
    assert shapes.count((2 * 4,)) == 1  # the cells, and not their tanh: the backward takes it again
    plain = ad.lstm(x, step_rows, widths, w, u, b)
    assert plain.tape is None and not plain.tracked
    np.testing.assert_array_equal(plain.data, out.data)


def test_fd_kinds_cover_every_backward_rule():
    assert sorted(FD_KINDS) == sorted(set(_BACKWARD) | {"embedding_lookup"})


@pytest.mark.parametrize("kind", FD_KINDS)
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
    real = ad._scatter_rows

    def spy(dense, shape, gathers):
        flushed.append(shape[0])
        return real(dense, shape, gathers)

    def grads():
        t = Tape()
        ops = [t.watch(a) for a in arrays]
        out = ad.lstm(ops[0], step_rows, widths, *ops[1:])
        got = backward(t, ad.reduce_sum(ad.multiply_elementwise(out, cot)))
        return [got[op.node_id] for op in ops]

    monkeypatch.setattr(ad, "_scatter_rows", spy)
    whole = grads()
    assert flushed == [4]
    flushed.clear()
    monkeypatch.setattr(ad, "_BLOCK_ROWS", SMALL_BLOCK)
    blocked = grads()
    assert flushed == [3, 2]  # rows {0, 1, 2}, then {0, 3}
    for got, want in zip(blocked, whole):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_tracked_lstm_holds_no_gradient_row_per_state_beyond_a_block():
    # T = 200 steps over B = 200 sequences, d = 32: the tracked forward keeps
    # the gate activations (4d floats per state row), the cells (d) and the
    # states (d).  The sweep may add its block of packed gradient rows and one
    # block's row sums on top, but no (sum(widths), 4d) gradient block and no
    # second (sum(widths), d) buffer such as the cells' tanh.
    rng = np.random.default_rng(22)
    d, steps, width, items = 32, 200, 200, 100
    arrays = [rng.normal(size=(items, d)), rng.normal(size=(4 * d, d)) * 0.2,
              rng.normal(size=(4 * d, d)) * 0.2, np.zeros(4 * d)]
    step_rows, widths = rng.integers(0, items, size=steps * width), np.full(steps, width)
    saved = (4 * d + d + d) * steps * width * 8
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
