"""Interaction networks against brute-force loop oracles."""
import numpy as np
import pytest

from liverec import autodiff as ad
from liverec.autodiff import ShapeError, Tensor
from liverec.interaction import (
    AttentionParams,
    InteractionStats,
    SvdppWeights,
    anchor_aspect_interaction,
    embed_similarity,
    item_aspect_interaction,
    svdpp_similarity,
)

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


def test_svdpp_recovers_classical_form_with_zero_anchor_weights():
    # user weights 1/sqrt(M) and anchor weights 0: the anchor side reduces
    # to its static embedding alone
    rng = np.random.default_rng(1)
    d, m = 3, 4
    e_u, e_a = rng.normal(size=d), rng.normal(size=d)
    user_h = [rng.normal(size=d) for _ in range(m)]
    anchor_h = [rng.normal(size=d) for _ in range(2)]
    weights = SvdppWeights(anchor=np.zeros(2))
    got = svdpp_similarity(Tensor(e_u), _states(user_h), Tensor(e_a), _states(anchor_h), weights)
    classical = float((e_u + sum(user_h) / np.sqrt(m)) @ e_a)
    assert float(got.data) == pytest.approx(classical, abs=1e-12)


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
    out = item_aspect_interaction(Tensor(e_u), _states([hu]), Tensor(e_a), _states([ha]), params)
    np.testing.assert_allclose(out.data, hu * ha, atol=1e-12)


def test_item_attention_zero_weights_uniform_average():
    rng = np.random.default_rng(3)
    d, m, n = 2, 3, 4
    params = AttentionParams(np.zeros(4 * d), np.zeros(()), np.zeros(3 * d), np.zeros(()))
    e_u, e_a = rng.normal(size=d), rng.normal(size=d)
    hu = [rng.normal(size=d) for _ in range(m)]
    ha = [rng.normal(size=d) for _ in range(n)]
    out = item_aspect_interaction(Tensor(e_u), _states(hu), Tensor(e_a), _states(ha), params)
    mean = sum(a * b for a in hu for b in ha) / (m * n)
    np.testing.assert_allclose(out.data, mean, atol=1e-12)


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
            got = item_aspect_interaction(
                Tensor(e_u), _states(hu), Tensor(e_a), _states(ha), params, literal_square=literal
            ).data
            want = item_attention_reference(e_u, hu, e_a, ha, params.item_w, params.item_b, literal)
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_item_attention_empty_side_gives_zero():
    rng = np.random.default_rng(5)
    d = 3
    params = _attn(rng, d)
    stats = InteractionStats()
    out = item_aspect_interaction(
        Tensor(rng.normal(size=d)), None, Tensor(rng.normal(size=d)),
        _states([rng.normal(size=d)]), params, stats=stats,
    )
    np.testing.assert_array_equal(out.data, np.zeros(d))
    assert stats.pair_budgets == [0]


def test_item_attention_weights_sum_to_one():
    # softmax weights are implicit; verify through a probe: scaling all
    # products by adding a constant to each state is not linear, so check
    # via the bias shift invariance instead
    rng = np.random.default_rng(6)
    d, m, n = 3, 4, 2
    e_u, e_a = rng.normal(size=d), rng.normal(size=d)
    hu = [rng.normal(size=d) for _ in range(m)]
    ha = [rng.normal(size=d) for _ in range(n)]
    base = _attn(rng, d)
    shifted = AttentionParams(base.item_w, np.asarray(base.item_b) + 5.0, base.anchor_w, base.anchor_b)
    a = item_aspect_interaction(Tensor(e_u), _states(hu), Tensor(e_a), _states(ha), base).data
    b = item_aspect_interaction(Tensor(e_u), _states(hu), Tensor(e_a), _states(ha), shifted).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_item_attention_permutation_invariance():
    rng = np.random.default_rng(7)
    d, m, n = 3, 4, 3
    params = _attn(rng, d)
    e_u, e_a = rng.normal(size=d), rng.normal(size=d)
    hu = [rng.normal(size=d) for _ in range(m)]
    ha = [rng.normal(size=d) for _ in range(n)]
    base = item_aspect_interaction(Tensor(e_u), _states(hu), Tensor(e_a), _states(ha), params).data
    perm_u = [2, 0, 3, 1]
    perm_a = [1, 2, 0]
    out = item_aspect_interaction(
        Tensor(e_u), _states([hu[i] for i in perm_u]), Tensor(e_a), _states([ha[i] for i in perm_a]), params
    ).data
    np.testing.assert_allclose(out, base, atol=1e-12)


def test_item_attention_pair_budget_counter():
    rng = np.random.default_rng(8)
    d = 2
    params = _attn(rng, d)
    stats = InteractionStats()
    for m, n in ((1, 1), (3, 5), (7, 2)):
        item_aspect_interaction(
            Tensor(rng.normal(size=d)), _states([rng.normal(size=d) for _ in range(m)]),
            Tensor(rng.normal(size=d)), _states([rng.normal(size=d) for _ in range(n)]),
            params, stats=stats,
        )
    assert stats.pair_budgets == [1, 15, 14]


# ---------------------------------------------------------------------------
# anchor-aspect attention


def test_anchor_attention_singleton():
    rng = np.random.default_rng(9)
    d = 4
    params = _attn(rng, d)
    e_u, e_t = rng.normal(size=d), rng.normal(size=d)
    eh = rng.normal(size=d)
    out = anchor_aspect_interaction(Tensor(e_u), _states([eh]), Tensor(e_t), params)
    np.testing.assert_allclose(out.data, eh * e_t, atol=1e-12)


def test_anchor_attention_zero_weights_uniform():
    rng = np.random.default_rng(10)
    d, n = 3, 4
    params = AttentionParams(np.zeros(4 * d), np.zeros(()), np.zeros(3 * d), np.zeros(()))
    e_u, e_t = rng.normal(size=d), rng.normal(size=d)
    hist = [rng.normal(size=d) for _ in range(n)]
    out = anchor_aspect_interaction(Tensor(e_u), _states(hist), Tensor(e_t), params)
    np.testing.assert_allclose(out.data, sum(h * e_t for h in hist) / n, atol=1e-12)


def test_anchor_attention_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        params = _attn(rng, d)
        e_u, e_t = rng.normal(size=d), rng.normal(size=d)
        hist = [rng.normal(size=d) for _ in range(n)]
        got = anchor_aspect_interaction(Tensor(e_u), _states(hist), Tensor(e_t), params).data
        want = anchor_attention_reference(e_u, hist, e_t, params.anchor_w, params.anchor_b)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_anchor_attention_empty_history_gives_zero():
    rng = np.random.default_rng(12)
    d = 3
    out = anchor_aspect_interaction(Tensor(rng.normal(size=d)), None, Tensor(rng.normal(size=d)), _attn(rng, d))
    np.testing.assert_array_equal(out.data, np.zeros(d))


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
    b_i = rng.normal(size=())
    w_a = rng.normal(size=3 * d)
    b_a = rng.normal(size=())
    cot = rng.normal(size=d)

    def build_item(xs):
        params = AttentionParams(xs[0], xs[1], w_a, b_a)
        out = item_aspect_interaction(xs[2], xs[4], xs[3], Tensor(ha), params)
        return ad.reduce_sum(ad.multiply_elementwise(out, cot))

    assert fd_max_rel_error(build_item, [w_i, b_i, e_u, e_a, hu]) <= 1e-4

    def build_anchor(xs):
        params = AttentionParams(w_i, b_i, xs[0], xs[1])
        out = anchor_aspect_interaction(xs[2], xs[3], xs[4], params)
        return ad.reduce_sum(ad.multiply_elementwise(out, cot))

    assert fd_max_rel_error(build_anchor, [w_a, b_a, e_u, hu, e_a]) <= 1e-4

    def build_svdpp(xs):
        return svdpp_similarity(xs[0], xs[2], xs[1], xs[3])

    assert fd_max_rel_error(build_svdpp, [e_u, e_a, hu, ha[:1]]) <= 1e-4

    def build_embed(xs):
        return ad.reduce_sum(ad.multiply_elementwise(embed_similarity(xs[0], xs[1]), cot))

    assert fd_max_rel_error(build_embed, [e_u, e_a]) <= 1e-4
