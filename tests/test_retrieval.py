"""KKV index build and co-retrieval against the naive scan oracle."""
from collections import Counter

import numpy as np
import pytest

from liverec.data import Anchor, Catalog, Item, SyntheticSpec, User, generate_synthetic
from liverec.retrieval import _select, build_index, co_retrieve, pair_budget

from oracles import naive_co_retrieve, select_round_robin


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


def _per_cat(rng, cats, max_len):
    """A random owner's index entry: category -> [(position, item)], most
    recent first, positions distinct across categories."""
    lengths = rng.integers(0, max_len + 1, size=len(cats))
    positions = rng.permutation(int(lengths.sum()))
    per_cat, at = {}, 0
    for c, n in zip(cats, lengths):
        if n:
            chosen = np.sort(positions[at : at + n])[::-1]
            per_cat[int(c)] = [(int(p), int(rng.integers(100))) for p in chosen]
            at += n
    return per_cat


def test_select_equals_the_queue_round_robin_on_random_cases():
    rng = np.random.default_rng(31)
    for _ in range(2000):
        per_cat = _per_cat(rng, rng.permutation(12)[: int(rng.integers(0, 8))], int(rng.integers(1, 6)))
        common = {c for c in per_cat if rng.random() < 0.7}  # co_retrieve's common categories are both sides'
        cap = int(rng.integers(1, 20))
        assert _select(per_cat, common, cap) == select_round_robin(per_cat, common, cap)


@pytest.mark.parametrize("case", ["empty_side", "no_common", "cap_at_total", "cap_above_total",
                                  "cap_ends_a_round", "cap_one_into_a_round"])
def test_select_edges_equal_the_queue_round_robin(case):
    # three common categories of 3, 1 and 2 items: rounds of 3, 2 and 1
    per_cat = {4: [(9, 1), (5, 2), (0, 3)], 1: [(7, 4)], 8: [(8, 5), (2, 6)]}
    common, cap = {1, 4, 8}, 10
    if case == "empty_side":
        per_cat = {}
    elif case == "no_common":
        common = {2, 3}
    elif case == "cap_at_total":
        cap = 6
    elif case == "cap_above_total":
        cap = 7
    elif case == "cap_ends_a_round":
        cap = 3  # the first round, one item of each category
    else:
        cap = 4  # the first round and the second round's first category
    common &= per_cat.keys()
    got = _select(per_cat, common, cap)
    assert got == select_round_robin(per_cat, common, cap)
    picked = {"empty_side": [], "no_common": [], "cap_at_total": [0, 2, 5, 7, 8, 9],
              "cap_above_total": [0, 2, 5, 7, 8, 9], "cap_ends_a_round": [7, 8, 9],
              "cap_one_into_a_round": [5, 7, 8, 9]}[case]
    assert got[0] == picked
