"""Tape engine: op semantics, shape errors, gradient checks per kind."""
import tracemalloc

import numpy as np
import pytest

from liverec import autodiff as ad
from liverec.autodiff import _BACKWARD, ShapeError, Tape, Tensor, _scatter_rows, backward

from oracles import fd_max_rel_error

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
    x, rows, w, u, b = np.ones((4, 3)), np.zeros((2, 1), dtype=int), np.ones((8, 3)), np.ones((8, 2)), np.ones(8)
    for bad in ((np.ones(3), rows, w, u, b), (x, np.zeros(2, dtype=int), w, u, b), (x, rows, np.ones((8, 2)), u, b),
                (x, rows, np.ones((3, 8)), u, b), (x, rows, w, np.ones((6, 2)), b), (x, rows, w, np.ones((2, 8)), b),
                (x, rows, w, u, np.ones((1, 8))), (x, rows, w, u, np.ones(4))):
        with pytest.raises(ShapeError) as info:
            ad.lstm(*bad)
        assert info.value.kind == "lstm"
    with pytest.raises(IndexError, match="out of range"):
        ad.lstm(x, np.array([[0], [4]]), w, u, b)


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
    instance in three pools separate values, one in four holds w constant."""
    n, k = int(rng.integers(2, 6)), int(rng.integers(1, 4))
    lengths = np.concatenate([[0, 1, rng.integers(2, 5)], rng.integers(0, 4, size=rng.integers(0, 3))])
    rng.shuffle(lengths)
    index = rng.integers(0, n, size=int(lengths.sum()))
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


def _lstm_case(rng):
    """T >= 3 steps over B >= 2 sequences of ragged length: a finished
    sequence keeps re-reading its last row, as in the batched encoder.
    Sequences share rows as histories share items: the last one reads at
    its first step the row the first reads at its second, and the first
    reads its first row again at its last step.  One instance in four
    holds one operand constant."""
    k, d, steps, width = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(3, 6)), int(rng.integers(2, 4))
    lengths = rng.integers(1, steps + 1, size=width)
    lengths[0], lengths[-1] = steps, rng.integers(1, steps)  # the longest, and one that goes stale
    starts = np.cumsum(lengths) - lengths
    rows = starts + np.minimum(np.arange(steps)[:, None], lengths - 1)
    rows[0, -1] = rows[1, 0]
    rows[-1, 0] = rows[0, 0]
    arrays = [rng.normal(size=(int(lengths.sum()), k)), rng.normal(size=(4 * d, k)),
              rng.normal(size=(4 * d, d)), rng.normal(size=4 * d)]
    constant = int(rng.integers(4)) if rng.integers(4) == 0 else None
    fixed = arrays[constant] if constant is not None else None

    def build(xs):
        ops = list(xs)
        if constant is not None:
            ops.insert(constant, fixed)
        return _cotangent_sum(ad.lstm(ops[0], rows, *ops[1:]), np.random.default_rng(7))

    if constant is not None:
        del arrays[constant]
    return build, arrays


def test_lstm_matches_a_step_by_step_loop():
    rng = np.random.default_rng(19)
    k, d = 3, 2
    x = rng.normal(size=(5, k))
    # the second sequence reads row 0 at its second step, as the first does
    # at its first, and ends after two steps
    rows = np.array([[0, 3], [1, 0], [2, 0]])
    w, u, b = rng.normal(size=(4 * d, k)), rng.normal(size=(4 * d, d)), rng.normal(size=4 * d)
    h = c = np.zeros((2, d))
    want = []
    for t in range(3):
        pre = x[rows[t]] @ w.T + h @ u.T + b
        i, f, o = (1.0 / (1.0 + np.exp(-pre[:, j * d : (j + 1) * d])) for j in range(3))
        c = f * c + i * np.tanh(pre[:, 3 * d :])
        h = o * np.tanh(c)
        want.append(h)
    got = ad.lstm(x, rows, w, u, b)
    assert got.shape == (6, d)
    np.testing.assert_allclose(got.data, np.concatenate(want), atol=1e-14)
    assert ad.lstm(x, np.zeros((0, 2), dtype=int), w, u, b).shape == (0, d)


def test_lstm_saturated_gates_stay_finite():
    # pre-activations near +-1e3: every gate saturates, with no overflow
    # warning (warnings are errors here) in the forward or backward pass
    d = 2
    x = np.array([[1.0], [-1.0]])
    w = np.array([[1e3], [-1e3], [1e3], [-1e3], [1e3], [1e3], [-1e3], [1e3]])
    rows = np.array([[0, 1], [1, 0], [0, 0]])
    t = Tape()
    out = ad.lstm(t.watch(x), rows, t.watch(w), t.watch(np.full((4 * d, d), 0.5)), t.watch(np.zeros(4 * d)))
    _, _, saved = t.nodes[out.node_id]
    gates = saved[4]
    assert gates.shape == (3, 2, 4 * d) and np.isfinite(out.data).all()
    assert ((gates[..., : 3 * d] >= 0.0) & (gates[..., : 3 * d] <= 1.0)).all()
    assert {0.0, 1.0} <= set(gates[..., : 3 * d].ravel().tolist())
    grads = backward(t, ad.reduce_sum(out))
    assert all(np.isfinite(g).all() for g in grads.values())


def test_lstm_saves_activations_only_when_tracked():
    rng = np.random.default_rng(20)
    x, w, u, b = rng.normal(size=(4, 2)), rng.normal(size=(8, 2)), rng.normal(size=(8, 2)), np.zeros(8)
    rows = np.array([[0, 1], [2, 3]])
    t = Tape()
    out = ad.lstm(x, rows, t.watch(w), u, b)
    kind, _, saved = t.nodes[out.node_id]
    assert len(t.nodes) == 2 and kind == "lstm"
    assert (2, 2, 8) in [np.shape(v) for v in saved]  # the (T, B, 4d) gate activations
    plain = ad.lstm(x, rows, w, u, b)
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
