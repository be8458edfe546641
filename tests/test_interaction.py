"""Interaction networks against brute-force loop oracles."""
import numpy as np
import pytest

from liverec import autodiff as ad
from liverec.autodiff import ShapeError, Tensor
from liverec.interaction import anchor_aspect_interaction, embed_similarity, item_aspect_interaction, svdpp_similarity
from liverec.model import AttentionParams

from oracles import (
    anchor_attention_reference,
    fd_max_rel_error,
    item_attention_reference,
    svdpp_reference,
)


def _attn(rng, d):
    return AttentionParams(
        item_w=rng.normal(size=4 * d),
        item_b=rng.normal(size=()),
        anchor_w=rng.normal(size=3 * d),
        anchor_b=rng.normal(size=()),
    )


def _states(rows):
    """Stack (d,) rows into the (M, d) state tensor the model passes."""
    return Tensor(np.array(rows))


def _item(e_u, hu, e_a, ha, params, literal_square=False):
    """Item-aspect attention with the (d,) weight slices the model cuts from ``params``."""
    w = np.reshape(params.item_w, (4, -1))
    return item_aspect_interaction(
        Tensor(e_u), hu if hu is None else _states(hu), Tensor(e_a), ha if ha is None else _states(ha),
        Tensor(w[1]), Tensor(w[3]), literal_square=literal_square,
    ).data


def _anchor(e_u, hist, e_t, params):
    """Anchor-aspect attention with the (d,) weight slice the model cuts from ``params``."""
    w = np.reshape(params.anchor_w, (3, -1))
    hist = hist if hist is None else _states(hist)
    return anchor_aspect_interaction(Tensor(e_u), hist, Tensor(e_t), Tensor(w[1])).data


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
    e_u, e_a = rng.normal(size=4), rng.normal(size=4)
    got = svdpp_similarity(Tensor(e_u), None, Tensor(e_a), None)
    assert float(got.data) == pytest.approx(float(e_u @ e_a))


def test_svdpp_toy_expansion():
    e_u = np.array([1.0, 2.0])
    e_a = np.array([0.5, -1.0])
    user_h = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    anchor_h = [np.array([2.0, 2.0]), np.array([-1.0, 1.0])]
    got = svdpp_similarity(Tensor(e_u), _states(user_h), Tensor(e_a), _states(anchor_h))
    want = svdpp_reference(e_u, user_h, e_a, anchor_h)
    assert float(got.data) == pytest.approx(want, abs=1e-12)


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
    params = AttentionParams(np.zeros(4 * d), np.zeros(()), np.zeros(3 * d), np.zeros(()))
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
        for literal in (False, True):
            got = _item(e_u, hu, e_a, ha, params, literal_square=literal)
            want = item_attention_reference(e_u, hu, e_a, ha, params.item_w, params.item_b, literal)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_item_attention_empty_side_gives_zero():
    rng = np.random.default_rng(5)
    d = 3
    params = _attn(rng, d)
    e_u, e_a, h = rng.normal(size=d), rng.normal(size=d), [rng.normal(size=d)]
    np.testing.assert_array_equal(_item(e_u, None, e_a, h, params), np.zeros(d))
    np.testing.assert_array_equal(_item(e_u, h, e_a, None, params), np.zeros(d))


def test_item_attention_weights_sum_to_one():
    # softmax weights are implicit; verify through a probe: every pair
    # shares the bias and the static-embedding blocks w1 and w3 of the
    # logit, so with weights summing to one the brute-force output with
    # those shifted is still the output of the two slices alone
    rng = np.random.default_rng(6)
    d, m, n = 3, 4, 2
    e_u, e_a = rng.normal(size=d), rng.normal(size=d)
    hu = [rng.normal(size=d) for _ in range(m)]
    ha = [rng.normal(size=d) for _ in range(n)]
    base = _attn(rng, d)
    shifted_w = np.reshape(base.item_w, (4, d)).copy()
    shifted_w[[0, 2]] = rng.normal(size=(2, d))
    want = item_attention_reference(e_u, hu, e_a, ha, shifted_w.ravel(), np.asarray(base.item_b) + 5.0)
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
    params = AttentionParams(np.zeros(4 * d), np.zeros(()), np.zeros(3 * d), np.zeros(()))
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
        want = anchor_attention_reference(e_u, hist, e_t, params.anchor_w, params.anchor_b)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_anchor_attention_empty_history_gives_zero():
    rng = np.random.default_rng(12)
    d = 3
    out = _anchor(rng.normal(size=d), None, rng.normal(size=d), _attn(rng, d))
    np.testing.assert_array_equal(out, np.zeros(d))


# ---------------------------------------------------------------------------
# gradients through the interaction ops


def test_interaction_gradients():
    rng = np.random.default_rng(13)
    d, m, n = 3, 2, 2
    e_u = rng.normal(size=d)
    e_a = rng.normal(size=d)
    hu = rng.normal(size=(m, d))
    ha = rng.normal(size=(n, d))
    w_i = rng.normal(size=4 * d)
    w_a = rng.normal(size=3 * d)
    cot = rng.normal(size=d)

    # the weight slices are cut from the whole vector on the tape, as the model does
    def build_item(xs):
        w = ad.reshape(xs[0], (4, d))
        out = item_aspect_interaction(
            xs[1], xs[3], xs[2], Tensor(ha), ad.embedding_lookup(w, 1), ad.embedding_lookup(w, 3)
        )
        return ad.reduce_sum(ad.multiply_elementwise(out, cot))

    assert fd_max_rel_error(build_item, [w_i, e_u, e_a, hu]) <= 1e-4

    def build_anchor(xs):
        out = anchor_aspect_interaction(xs[1], xs[2], xs[3], ad.embedding_lookup(ad.reshape(xs[0], (3, d)), 1))
        return ad.reduce_sum(ad.multiply_elementwise(out, cot))

    assert fd_max_rel_error(build_anchor, [w_a, e_u, hu, e_a]) <= 1e-4

    def build_svdpp(xs):
        return svdpp_similarity(xs[0], xs[2], xs[1], xs[3])

    assert fd_max_rel_error(build_svdpp, [e_u, e_a, hu, ha[:1]]) <= 1e-4

    def build_embed(xs):
        return ad.reduce_sum(ad.multiply_elementwise(embed_similarity(xs[0], xs[1]), cot))

    assert fd_max_rel_error(build_embed, [e_u, e_a]) <= 1e-4
