"""Category-intersection co-retrieval over a Key-Key-Value index.

The index maps owner id -> category id -> item occurrences, most recent
first. One index covers user browsing histories, another anchor broadcast
histories; both are built in memory from the catalog and are immutable
afterwards, so concurrent lookups are safe.

Retrieval for a (user, anchor) pair keeps only items whose category lies
in the intersection of the two sides' category sets, then truncates each
side to the cap K by round-robin over the common categories (most recent
first within a category, categories cycled in ascending id order).  The
surviving items are returned in their original chronological order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, zip_longest


@dataclass
class KKVIndex:
    """owner id -> category id -> [(position, item id)], most recent first."""

    side: str  # "user" or "anchor"
    owners: dict[int, dict[int, list[tuple[int, int]]]]


@dataclass
class RetrievedHistories:
    """Co-retrieved per-pair histories plus the common category set.

    ``user_positions`` / ``anchor_positions`` index into the owner's full
    history (chronological, aligned with the id lists).
    """

    user_items: list[int]
    anchor_items: list[int]
    common_categories: set[int]
    user_positions: list[int]
    anchor_positions: list[int]


def build_index(catalog, side: str) -> KKVIndex:
    """Group every owner's item history by category, most recent first."""
    if side not in ("user", "anchor"):
        raise ValueError(f"side must be 'user' or 'anchor', got {side!r}")
    owners: dict[int, dict[int, list[tuple[int, int]]]] = {}
    ids = catalog.users if side == "user" else catalog.anchors
    category = {iid: item.category for iid, item in catalog.items.items()}
    for oid in ids:
        per_cat: dict[int, list[tuple[int, int]]] = {}
        history = catalog.history(side, oid)
        for pos in range(len(history) - 1, -1, -1):
            iid = history[pos]
            per_cat.setdefault(category[iid], []).append((pos, iid))
        owners[oid] = per_cat
    return KKVIndex(side, owners)


def co_retrieve(
    user_index: KKVIndex,
    anchor_index: KKVIndex,
    user_id: int,
    anchor_id: int,
    cap: int,
) -> RetrievedHistories:
    """Intersect category sets and keep at most `cap` items per side.

    Owners absent from an index are treated as having empty histories.
    """
    if cap < 1:
        raise ValueError(f"cap must be positive, got {cap}")
    u_cats = user_index.owners.get(user_id, {})
    a_cats = anchor_index.owners.get(anchor_id, {})
    common = u_cats.keys() & a_cats.keys()
    u_pos, u_items = _select(u_cats, common, cap)
    a_pos, a_items = _select(a_cats, common, cap)
    return RetrievedHistories(u_items, a_items, common, u_pos, a_pos)


def _select(per_cat, common: set[int], cap: int):
    """Round-robin the common categories, most recent first, then restore
    chronological order: round r takes each category's r-th item, in
    ascending category order, skipping the categories already used up."""
    rounds = zip_longest(*(per_cat[c] for c in sorted(common)))
    picked = sorted(islice(filter(None, chain.from_iterable(rounds)), cap))
    return [p for p, _ in picked], [i for _, i in picked]


def pair_budget(retrieved: RetrievedHistories) -> int:
    """Number of attention pair computations this retrieval implies."""
    return len(retrieved.user_items) * len(retrieved.anchor_items)
