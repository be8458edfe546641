"""KKV index build and co-retrieval against the naive scan oracle."""
from collections import Counter

import numpy as np
import pytest

from liverec.data import Anchor, Catalog, Item, SyntheticSpec, User, generate_synthetic
from liverec.retrieval import build_index, co_retrieve, pair_budget

from oracles import naive_co_retrieve


def _catalog(user_items, anchor_items, item_cats):
    items = {i: Item(i, (c, 0)) for i, c in item_cats.items()}
    users = {0: User(0, (0,), tuple(user_items), ())}
    anchors = {0: Anchor(0, (0,), tuple(anchor_items))}
    return Catalog(users, anchors, items, (1,), (1,), _vocab(item_cats))


def _vocab(item_cats):
    return (max(c for c in item_cats.values()) + 1, 1)


def test_build_index_groups_by_category():
    cat = _catalog([10, 11, 12], [], {10: 3, 11: 3, 12: 7})
    idx = build_index(cat, "user")
    per = idx.owners[0]
    assert set(per) == {3, 7}
    assert [i for _, i in per[3]] == [11, 10]  # most recent first
    assert [i for _, i in per[7]] == [12]


def test_build_index_empty_history():
    cat = _catalog([], [], {10: 0})
    idx = build_index(cat, "user")
    assert idx.owners[0] == {}


def test_build_index_deterministic():
    catalog, _ = generate_synthetic(SyntheticSpec(20, 6, 40, 5, (2, 8), 0.5, seed=3))
    assert build_index(catalog, "user") == build_index(catalog, "user")
    assert build_index(catalog, "anchor") == build_index(catalog, "anchor")


def test_build_index_union_covers_history():
    catalog, _ = generate_synthetic(SyntheticSpec(15, 5, 30, 4, (0, 9), 0.5, seed=6))
    idx = build_index(catalog, "anchor")
    for aid, anchor in catalog.anchors.items():
        flattened = [i for entries in idx.owners[aid].values() for _, i in entries]
        assert Counter(flattened) == Counter(anchor.broadcast_items)


def test_co_retrieve_common_categories_only():
    # user categories {1, 2}, anchor categories {2, 3}: only category 2 survives
    cat = _catalog([10, 11], [12, 13], {10: 1, 11: 2, 12: 2, 13: 3})
    u_idx = build_index(cat, "user")
    a_idx = build_index(cat, "anchor")
    got = co_retrieve(u_idx, a_idx, 0, 0, cap=10)
    assert got.common_categories == {2}
    assert got.user_items == [11]
    assert got.anchor_items == [12]


def test_co_retrieve_disjoint_categories():
    cat = _catalog([10], [13], {10: 1, 13: 3})
    got = co_retrieve(build_index(cat, "user"), build_index(cat, "anchor"), 0, 0, cap=5)
    assert got.user_items == [] and got.anchor_items == []
    assert pair_budget(got) == 0


def test_co_retrieve_identity_when_under_cap():
    history = [10, 11, 12, 13]
    cat = _catalog(history, history, {10: 1, 11: 2, 12: 1, 13: 4})
    got = co_retrieve(build_index(cat, "user"), build_index(cat, "anchor"), 0, 0, cap=10)
    assert got.user_items == history
    assert got.anchor_items == history


def test_co_retrieve_missing_owner_is_empty():
    cat = _catalog([10], [10], {10: 1})
    got = co_retrieve(build_index(cat, "user"), build_index(cat, "anchor"), 99, 0, cap=5)
    assert got.user_items == [] and got.common_categories == set()


def test_pair_budget_product():
    cat = _catalog([10, 11, 12], [10, 11, 12, 10], {10: 1, 11: 1, 12: 1})
    got = co_retrieve(build_index(cat, "user"), build_index(cat, "anchor"), 0, 0, cap=10)
    assert pair_budget(got) == 3 * 4


def test_oracle_equivalence_random_catalog():
    catalog, _ = generate_synthetic(
        SyntheticSpec(60, 20, 150, 12, (5, 40), 0.5, seed=8, num_pairs=1)
    )
    rng = np.random.default_rng(9)
    u_idx = build_index(catalog, "user")
    a_idx = build_index(catalog, "anchor")
    for _ in range(300):
        uid = int(rng.integers(60))
        aid = int(rng.integers(20))
        cap = int(rng.integers(1, 15))
        got = co_retrieve(u_idx, a_idx, uid, aid, cap)
        want = naive_co_retrieve(catalog, uid, aid, cap)
        assert got.common_categories == want["common"]
        assert got.user_items == want["user_items"]
        assert got.anchor_items == want["anchor_items"]
        assert got.user_positions == want["user_positions"]
        assert got.anchor_positions == want["anchor_positions"]
        # subset property
        u_hist = catalog.users[uid].browsed_items
        a_hist = catalog.anchors[aid].broadcast_items
        assert all(u_hist[p] == i for p, i in zip(got.user_positions, got.user_items))
        assert all(a_hist[p] == i for p, i in zip(got.anchor_positions, got.anchor_items))
        assert pair_budget(got) <= cap * cap


def test_monotonicity_in_anchor_categories():
    # enlarging the anchor's category set never shrinks the user's
    # pre-truncation retrieved set
    user_items = [10, 11, 12, 13]
    cats = {10: 1, 11: 2, 12: 3, 13: 1, 20: 1, 21: 2, 22: 3}
    small = _catalog(user_items, [20], cats)
    large = _catalog(user_items, [20, 21, 22], cats)
    big_cap = 100
    got_small = co_retrieve(build_index(small, "user"), build_index(small, "anchor"), 0, 0, big_cap)
    got_large = co_retrieve(build_index(large, "user"), build_index(large, "anchor"), 0, 0, big_cap)
    assert set(got_small.user_items) <= set(got_large.user_items)
    assert len(got_small.user_items) <= len(got_large.user_items)


def test_bad_side_and_cap():
    catalog, _ = generate_synthetic(SyntheticSpec(2, 2, 4, 2, (1, 2), 0.5, seed=1))
    with pytest.raises(ValueError, match="side"):
        build_index(catalog, "items")
    u = build_index(catalog, "user")
    a = build_index(catalog, "anchor")
    with pytest.raises(ValueError, match="cap"):
        co_retrieve(u, a, 0, 0, cap=0)
