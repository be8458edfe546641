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
    "add", "multiply_elementwise", "matmul", "concat", "sum", "sigmoid", "tanh", "softmax", "relu",
    "dot", "log", "clamp", "embedding_lookup", "dropout_mask_apply", "reshape", "transpose", "slice_last",
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
    for start, stop in ((0, 0), (2, 1), (-1, 2), (0, 4), (3, 4)):
        with pytest.raises(ShapeError) as info:
            ad.slice_last(np.ones((2, 3)), start, stop)
        assert info.value.kind == "slice_last" and info.value.shapes == ((2, 3), (start, stop))
    with pytest.raises(ShapeError):
        ad.slice_last(np.ones(()), 0, 1)


def test_slice_last_is_a_view_of_the_last_axis():
    x = np.arange(12.0).reshape(3, 4)
    out = ad.slice_last(x, 1, 3).data
    np.testing.assert_array_equal(out, x[:, 1:3])
    assert np.shares_memory(out, x)


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
        for fn in (ad.sigmoid, ad.tanh, ad.softmax, ad.relu):
            assert np.all(np.isfinite(fn(x).data))


def test_dropout_mask_semantics():
    rng = np.random.default_rng(2)
    keep = 0.5
    x = rng.normal(size=10000)
    mask = (rng.random(10000) < keep) / keep
    out = ad.dropout_mask_apply(x, mask).data
    zeroed = out == 0.0
    assert 0.45 < zeroed.mean() < 0.55
    np.testing.assert_allclose(out[~zeroed], x[~zeroed] / keep)
    # eval mode is the identity: the model simply skips the op
    np.testing.assert_array_equal(ad.dropout_mask_apply(x, np.ones(10000)).data, x)


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
        y = ad.tanh(y)
    root = ad.reduce_sum(y)
    tracemalloc.start()
    try:
        g = backward(t, root)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g[x.node_id].shape == (n,)
    assert peak < 10 * n * 8


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
        return (lambda xs: many_gathers_and_dense(ad.tanh(ad.matmul(xs[0], xs[1])))), [
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
        k = rng.integers(1, 4)
        if rng.integers(2):  # (k_i, d) blocks along axis 0
            d = rng.integers(1, 4)
            arrays = [rng.normal(size=(rng.integers(1, 4), d)) for _ in range(k)]
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
    if kind in ("sigmoid", "tanh", "softmax"):
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
    if kind == "dropout_mask_apply":
        n = rng.integers(1, 10)
        keep = 0.5
        mask = (rng.random(n) < keep) / keep
        x = rng.normal(size=n)
        return (lambda xs: _cotangent_sum(ad.dropout_mask_apply(xs[0], mask), np.random.default_rng(7))), [x]
    if kind == "reshape":
        m, n = rng.integers(1, 5, size=2)
        x = rng.normal(size=m * n)
        return (lambda xs: _cotangent_sum(ad.reshape(xs[0], (m, n)), np.random.default_rng(7))), [x]
    if kind == "transpose":
        x = rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5)))
        return (lambda xs: _cotangent_sum(ad.transpose(xs[0]), np.random.default_rng(7))), [x]
    if kind == "slice_last":
        shape = tuple(rng.integers(1, 6, size=rng.integers(1, 3)))  # 1-D or 2-D
        width = shape[-1]
        edge = rng.integers(3)
        if edge == 0:  # from the first column
            start, stop = 0, int(rng.integers(1, width + 1))
        elif edge == 1:  # up to the last column
            start, stop = int(rng.integers(width)), width
        else:  # anywhere, interior ranges included
            start = int(rng.integers(width))
            stop = int(rng.integers(start + 1, width + 1))
        x = rng.normal(size=shape)
        return (lambda xs: _cotangent_sum(ad.slice_last(xs[0], start, stop), np.random.default_rng(7))), [x]
    raise AssertionError(f"no sampler for {kind}")


def test_fd_kinds_cover_every_backward_rule():
    assert sorted(FD_KINDS) == sorted(set(_BACKWARD) | {"embedding_lookup"})


@pytest.mark.parametrize("kind", FD_KINDS)
def test_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(100):
        build, arrays = _sampler(kind, rng)
        assert fd_max_rel_error(build, arrays) <= FD_TOL
