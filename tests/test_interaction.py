"""Interaction networks against brute-force loop oracles."""
import numpy as np
import pytest

from liverec import autodiff as ad
from liverec.autodiff import ShapeError, Tensor
from liverec.interaction import (
    Segments,
    anchor_aspect_interaction,
    embed_similarity,
    item_aspect_interaction,
    svdpp_similarity,
)
from liverec.model import AttentionParams

from oracles import (
    anchor_attention_reference,
    fd_max_rel_error,
    item_attention_reference,
    paper_attention_weights,
    svdpp_reference,
)


def _attn(rng, d):
    return AttentionParams(item_user=rng.normal(size=d), item_anchor=rng.normal(size=d), browsed=rng.normal(size=d))


def _paper(params, rng):
    """The paper's full logit weights around ``params``: (item w, item b,
    anchor w, anchor b), the shared blocks and biases seeded from ``rng``."""
    return paper_attention_weights(params, seed=int(rng.integers(2**32)))


def _states(rows, d):
    """Stack (d,) rows into the (M, d) state tensor the model passes; no
    rows make a (0, d) block."""
    return Tensor(np.array(rows).reshape(len(rows), d))


def _whole(rows):
    """One pair's one group: every row of its state block, in order."""
    return Segments(np.arange(len(rows)), np.array([len(rows)]))


def _item(e_u, hu, e_a, ha, params):
    """Item-aspect attention for one pair, with the model's two item
    weight vectors; the static embeddings cancel and are not passed."""
    d = len(e_u)
    out = item_aspect_interaction(
        _states(hu, d), _whole(hu), _states(ha, d), _whole(ha), Tensor(params.item_user), Tensor(params.item_anchor),
    ).data
    assert out.shape == (1, len(e_u))
    return out[0]


def _anchor(e_u, hist, e_t, params):
    """Anchor-aspect attention for one pair, with the model's browsed-anchor weight vector."""
    out = anchor_aspect_interaction(_states(hist, len(e_u)), _whole(hist), Tensor(e_t[None]),
                                    Tensor(params.browsed)).data
    assert out.shape == (1, len(e_u))
    return out[0]


# ---------------------------------------------------------------------------
# embed_similarity


def test_embed_similarity_zero_absorbs():
    out = embed_similarity(Tensor(np.zeros(4)), Tensor(np.ones(4)))
    np.testing.assert_array_equal(out.data, np.zeros(4))


def test_embed_similarity_ones_identity():
    out = embed_similarity(Tensor(np.ones(3)), Tensor(np.ones(3)))
    np.testing.assert_array_equal(out.data, np.ones(3))


def test_embed_similarity_hand_values():
    out = embed_similarity(Tensor(np.array([1.0, 2.0])), Tensor(np.array([3.0, 4.0])))
    np.testing.assert_array_equal(out.data, [3.0, 8.0])


def test_embed_similarity_length_mismatch():
    with pytest.raises(ShapeError):
        embed_similarity(Tensor(np.ones(3)), Tensor(np.ones(4)))


# ---------------------------------------------------------------------------
# svdpp baseline


def test_svdpp_empty_histories_is_plain_dot():
    rng = np.random.default_rng(0)
    e_u, e_a = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
    got = svdpp_similarity(Tensor(e_u), _states([], 4), _whole([]), Tensor(e_a), _states([], 4), _whole([]))
    assert got.shape == (1,)
    assert float(got.data[0]) == pytest.approx(float(e_u[0] @ e_a[0]))


def test_svdpp_toy_expansion():
    e_u = np.array([1.0, 2.0])
    e_a = np.array([0.5, -1.0])
    user_h = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    anchor_h = [np.array([2.0, 2.0]), np.array([-1.0, 1.0])]
    got = svdpp_similarity(Tensor(e_u[None]), _states(user_h, 2), _whole(user_h),
                           Tensor(e_a[None]), _states(anchor_h, 2), _whole(anchor_h))
    want = svdpp_reference(e_u, user_h, e_a, anchor_h)
    assert float(got.data[0]) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# item-aspect bi-attention


def test_item_attention_singleton_softmax():
    rng = np.random.default_rng(2)
    d = 3
    params = _attn(rng, d)
    e_u, e_a = rng.normal(size=d), rng.normal(size=d)
    hu, ha = rng.normal(size=d), rng.normal(size=d)
    out = _item(e_u, [hu], e_a, [ha], params)
    np.testing.assert_allclose(out, hu * ha, atol=1e-12)


def test_item_attention_zero_weights_uniform_average():
    rng = np.random.default_rng(3)
    d, m, n = 2, 3, 4
    params = AttentionParams(np.zeros(d), np.zeros(d), np.zeros(d))
    e_u, e_a = rng.normal(size=d), rng.normal(size=d)
    hu = [rng.normal(size=d) for _ in range(m)]
    ha = [rng.normal(size=d) for _ in range(n)]
    out = _item(e_u, hu, e_a, ha, params)
    mean = sum(a * b for a in hu for b in ha) / (m * n)
    np.testing.assert_allclose(out, mean, atol=1e-12)


def test_item_attention_matches_bruteforce():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        params = _attn(rng, d)
        e_u, e_a = rng.normal(size=d), rng.normal(size=d)
        hu = [rng.normal(size=d) for _ in range(m)]
        ha = [rng.normal(size=d) for _ in range(n)]
        item_w, item_b, _, _ = _paper(params, rng)
        got = _item(e_u, hu, e_a, ha, params)
        want = item_attention_reference(e_u, hu, e_a, ha, item_w, item_b)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_item_attention_empty_side_gives_zero():
    rng = np.random.default_rng(5)
    d = 3
    params = _attn(rng, d)
    e_u, e_a, h = rng.normal(size=d), rng.normal(size=d), [rng.normal(size=d)]
    np.testing.assert_array_equal(_item(e_u, [], e_a, h, params), np.zeros(d))
    np.testing.assert_array_equal(_item(e_u, h, e_a, [], params), np.zeros(d))


def test_item_attention_weights_sum_to_one():
    # softmax weights are implicit; verify through a probe: every pair
    # shares the bias and the static-embedding blocks w1 and w3 of the
    # logit, so with weights summing to one the brute-force output under
    # any of those is the output of the two stored vectors alone
    rng = np.random.default_rng(6)
    d, m, n = 3, 4, 2
    e_u, e_a = rng.normal(size=d), rng.normal(size=d)
    hu = [rng.normal(size=d) for _ in range(m)]
    ha = [rng.normal(size=d) for _ in range(n)]
    base = _attn(rng, d)
    for _ in range(2):
        item_w, item_b, _, _ = _paper(base, rng)
        want = item_attention_reference(e_u, hu, e_a, ha, item_w, item_b + 5.0)
        np.testing.assert_allclose(_item(e_u, hu, e_a, ha, base), want, atol=1e-12)


def test_item_attention_permutation_invariance():
    rng = np.random.default_rng(7)
    d, m, n = 3, 4, 3
    params = _attn(rng, d)
    e_u, e_a = rng.normal(size=d), rng.normal(size=d)
    hu = [rng.normal(size=d) for _ in range(m)]
    ha = [rng.normal(size=d) for _ in range(n)]
    base = _item(e_u, hu, e_a, ha, params)
    perm_u = [2, 0, 3, 1]
    perm_a = [1, 2, 0]
    out = _item(e_u, [hu[i] for i in perm_u], e_a, [ha[i] for i in perm_a], params)
    np.testing.assert_allclose(out, base, atol=1e-12)


# ---------------------------------------------------------------------------
# anchor-aspect attention


def test_anchor_attention_singleton():
    rng = np.random.default_rng(9)
    d = 4
    params = _attn(rng, d)
    e_u, e_t = rng.normal(size=d), rng.normal(size=d)
    eh = rng.normal(size=d)
    out = _anchor(e_u, [eh], e_t, params)
    np.testing.assert_allclose(out, eh * e_t, atol=1e-12)


def test_anchor_attention_zero_weights_uniform():
    rng = np.random.default_rng(10)
    d, n = 3, 4
    params = AttentionParams(np.zeros(d), np.zeros(d), np.zeros(d))
    e_u, e_t = rng.normal(size=d), rng.normal(size=d)
    hist = [rng.normal(size=d) for _ in range(n)]
    out = _anchor(e_u, hist, e_t, params)
    np.testing.assert_allclose(out, sum(h * e_t for h in hist) / n, atol=1e-12)


def test_anchor_attention_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        params = _attn(rng, d)
        e_u, e_t = rng.normal(size=d), rng.normal(size=d)
        hist = [rng.normal(size=d) for _ in range(n)]
        got = _anchor(e_u, hist, e_t, params)
        _, _, anchor_w, anchor_b = _paper(params, rng)
        want = anchor_attention_reference(e_u, hist, e_t, anchor_w, anchor_b)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_anchor_attention_empty_history_gives_zero():
    rng = np.random.default_rng(12)
    d = 3
    out = _anchor(rng.normal(size=d), [], rng.normal(size=d), _attn(rng, d))
    np.testing.assert_array_equal(out, np.zeros(d))


# ---------------------------------------------------------------------------
# gradients through the interaction ops


def test_a_lone_group_pools_as_it_does_beside_an_empty_group():
    # a lone group (forward_pair's case) pools through a dense weight row,
    # and the same group beside an empty one through the sparse matrix; with
    # a repeated row and rows no group reads, both give the same pooled row
    # and gradients
    rng = np.random.default_rng(41)
    for n in (1, 4, 13):
        block, w, g = rng.normal(size=(n + 3, 5)), rng.normal(size=5), rng.normal(size=(1, 5))
        index = rng.choice(n + 2, size=n)
        index[-1] = index[0]
        runs = []
        for lengths, cotangent in (([n], g), ([n, 0], np.vstack([g, rng.normal(size=(1, 5))]))):
            t = ad.Tape()
            states, weights = t.watch(block), t.watch(w)
            out = ad.segment_attention(states, weights, index, lengths)
            grads = ad.backward(t, ad.reduce_sum(ad.multiply_elementwise(out, cotangent)))
            runs.append((out.data[:1], grads[states.node_id], grads[weights.node_id]))
        for got, want in zip(*runs):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_interaction_gradients():
    rng = np.random.default_rng(13)
    d, m, n = 3, 2, 2
    e_u = rng.normal(size=(1, d))
    e_a = rng.normal(size=(1, d))
    hu = rng.normal(size=(m, d))
    ha = rng.normal(size=(n, d))
    w = rng.normal(size=(3, d))
    cot = rng.normal(size=(1, d))

    def build_item(xs):
        out = item_aspect_interaction(xs[2], _whole(hu), Tensor(ha), _whole(ha), xs[0], xs[1])
        return ad.reduce_sum(ad.multiply_elementwise(out, cot))

    assert fd_max_rel_error(build_item, [w[0], w[1], hu]) <= 1e-4

    def build_anchor(xs):
        out = anchor_aspect_interaction(xs[1], _whole(hu), xs[2], xs[0])
        return ad.reduce_sum(ad.multiply_elementwise(out, cot))

    assert fd_max_rel_error(build_anchor, [w[2], hu, e_a]) <= 1e-4

    def build_svdpp(xs):
        return ad.reduce_sum(svdpp_similarity(xs[0], xs[2], _whole(hu), xs[1], xs[3], _whole(ha[:1])))

    assert fd_max_rel_error(build_svdpp, [e_u, e_a, hu, ha[:1]]) <= 1e-4

    def build_embed(xs):
        return ad.reduce_sum(ad.multiply_elementwise(embed_similarity(xs[0], xs[1]), cot))

    assert fd_max_rel_error(build_embed, [e_u, e_a]) <= 1e-4


# ---------------------------------------------------------------------------
# batches: groups of unequal length, empty groups, pairs sharing an owner


def _batch_case(rng, d=3):
    """Owner histories as rows of one shared state block, some empty, with
    pairs that share owners; returns the block, per-owner row lists and pairs."""
    block = rng.normal(size=(12, d))
    owner_rows = [[3, 0, 7], [], [5], [11, 2, 2, 9], [4, 6]]  # a repeated row, as a user who browsed an anchor twice
    pairs = [(0, 3), (2, 1), (3, 4), (0, 4), (1, 2), (3, 3), (4, 0)]
    return block, owner_rows, pairs


def _groups(owner_rows, pair_group=None):
    return Segments(np.array([r for rows in owner_rows for r in rows], dtype=np.intp),
                    np.array([len(rows) for rows in owner_rows]), pair_group)


def test_batched_item_attention_matches_per_pair_bruteforce():
    rng = np.random.default_rng(30)
    d = 3
    block, owner_rows, pairs = _batch_case(rng, d)
    params = _attn(rng, d)
    users, anchors = np.array([u for u, _ in pairs]), np.array([a for _, a in pairs])
    e = rng.normal(size=(len(owner_rows), d))
    got = item_aspect_interaction(Tensor(block), _groups(owner_rows, users), Tensor(block), _groups(owner_rows, anchors),
                                  params.item_user, params.item_anchor).data
    # the same pairs with one group per pair (the co-retrieval layout)
    per_pair = item_aspect_interaction(
        block, _groups([owner_rows[u] for u in users]), block, _groups([owner_rows[a] for a in anchors]),
        params.item_user, params.item_anchor,
    ).data
    item_w, item_b, _, _ = _paper(params, rng)
    for b, (u, a) in enumerate(pairs):
        want = item_attention_reference(e[u], block[owner_rows[u]], e[a], block[owner_rows[a]], item_w, item_b)
        np.testing.assert_allclose(got[b], want, atol=1e-12)
        np.testing.assert_allclose(per_pair[b], want, atol=1e-12)


def test_batched_anchor_attention_and_svdpp_match_per_pair_bruteforce():
    rng = np.random.default_rng(31)
    d = 3
    block, owner_rows, pairs = _batch_case(rng, d)
    params = _attn(rng, d)
    users, targets = np.array([u for u, _ in pairs]), rng.normal(size=(len(pairs), d))
    got = anchor_aspect_interaction(block, _groups(owner_rows, users), targets, params.browsed).data
    e = rng.normal(size=(len(owner_rows), d))
    _, _, anchor_w, anchor_b = _paper(params, rng)
    for b, u in enumerate(users):
        want = anchor_attention_reference(e[u], block[owner_rows[u]], targets[b], anchor_w, anchor_b)
        np.testing.assert_allclose(got[b], want, atol=1e-12)
    anchors = np.array([a for _, a in pairs])
    scores = svdpp_similarity(e, block, _groups(owner_rows, users), e, block, _groups(owner_rows, anchors)).data
    for b, (u, a) in enumerate(pairs):
        want = svdpp_reference(e[u], block[owner_rows[u]], e[a], block[owner_rows[a]])
        assert scores[b] == pytest.approx(want, abs=1e-12)
