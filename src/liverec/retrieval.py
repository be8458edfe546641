"""Category-intersection co-retrieval over a Key-Key-Value index.

The index maps owner id -> category id -> item occurrences, most recent
first. One index covers user browsing histories, another anchor broadcast
histories; both are built offline and are immutable afterwards, so
concurrent lookups are safe.

Retrieval for a (user, anchor) pair keeps only items whose category lies
in the intersection of the two sides' category sets, then truncates each
side to the cap K by round-robin over the common categories (most recent
first within a category, categories cycled in ascending id order).  The
surviving items are returned in their original chronological order.

Index files: magic ``KKV1`` then, per owner (ascending id): owner id,
category count, and per category (ascending id) the category id, item
count, and item ids most recent first.  All ids are little-endian signed
64-bit; counts are little-endian unsigned 64-bit.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

_MAGIC = b"KKV1"


class IndexFormatError(ValueError):
    """The index file is not a valid KKV1 file."""


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


def _history(catalog, side: str, owner_id: int):
    if side == "user":
        return catalog.users[owner_id].browsed_items
    return catalog.anchors[owner_id].broadcast_items


def build_index(catalog, side: str) -> KKVIndex:
    """Group every owner's item history by category, most recent first."""
    if side not in ("user", "anchor"):
        raise ValueError(f"side must be 'user' or 'anchor', got {side!r}")
    owners: dict[int, dict[int, list[tuple[int, int]]]] = {}
    ids = catalog.users if side == "user" else catalog.anchors
    for oid in ids:
        per_cat: dict[int, list[tuple[int, int]]] = {}
        history = _history(catalog, side, oid)
        for pos in range(len(history) - 1, -1, -1):
            iid = history[pos]
            cat = catalog.items[iid].category
            per_cat.setdefault(cat, []).append((pos, iid))
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
    common = set(u_cats) & set(a_cats)
    u_pos, u_items = _select(u_cats, common, cap)
    a_pos, a_items = _select(a_cats, common, cap)
    return RetrievedHistories(u_items, a_items, common, u_pos, a_pos)


def _select(per_cat, common: set[int], cap: int):
    """Round-robin the common categories, most recent first, then restore
    chronological order."""
    queues = {c: iter(per_cat[c]) for c in sorted(common)}
    picked: list[tuple[int, int]] = []
    while queues and len(picked) < cap:
        for c in list(queues):
            if len(picked) >= cap:
                break
            nxt = next(queues[c], None)
            if nxt is None:
                del queues[c]
            else:
                picked.append(nxt)
    picked.sort()
    return [p for p, _ in picked], [i for _, i in picked]


def pair_budget(retrieved: RetrievedHistories) -> int:
    """Number of attention pair computations this retrieval implies."""
    return len(retrieved.user_items) * len(retrieved.anchor_items)


def save_index(index: KKVIndex, path) -> None:
    """Write the documented KKV1 binary format (ids only, no positions)."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(index.owners)))
        for oid in sorted(index.owners):
            per_cat = index.owners[oid]
            fh.write(struct.pack("<qQ", oid, len(per_cat)))
            for cat in sorted(per_cat):
                entries = per_cat[cat]
                fh.write(struct.pack("<qQ", cat, len(entries)))
                fh.write(struct.pack(f"<{len(entries)}q", *[iid for _, iid in entries]))


def load_index(path, catalog, side: str) -> KKVIndex:
    """Read a KKV1 file back; positions are relinked from the catalog.

    The file stores per-category item ids most recent first, which pins
    each entry to one occurrence of that category in the owner's history,
    so positions are recovered exactly even with repeated items.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise IndexFormatError(f"bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    off = 4

    def take(fmt: str):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise IndexFormatError(f"truncated index file at byte {off}")
        vals = struct.unpack_from(fmt, blob, off)
        off += size
        return vals

    owners: dict[int, dict[int, list[tuple[int, int]]]] = {}
    (n_owners,) = take("<Q")
    for _ in range(n_owners):
        oid, n_cats = take("<qQ")
        history = _history(catalog, side, oid)
        positions_by_cat: dict[int, list[int]] = {}
        for pos in range(len(history) - 1, -1, -1):
            cat = catalog.items[history[pos]].category
            positions_by_cat.setdefault(cat, []).append(pos)
        per_cat: dict[int, list[tuple[int, int]]] = {}
        for _ in range(n_cats):
            cat, n_items = take("<qQ")
            ids = take(f"<{n_items}q")
            pos_list = positions_by_cat.get(cat, [])
            if len(pos_list) != n_items:
                raise IndexFormatError(
                    f"owner {oid} category {cat}: file lists {n_items} items, catalog has {len(pos_list)}"
                )
            per_cat[cat] = list(zip(pos_list, ids))
        owners[oid] = per_cat
    if off != len(blob):
        raise IndexFormatError(f"{len(blob) - off} trailing bytes after index data")
    return KKVIndex(side, owners)
