"""Domain model, JSONL log ingestion, dataset splitting, synthetic logs.

Objects come in three kinds: users, anchors (broadcast hosts, the thing
being recommended), and items.  Each carries dense integer categorical
features; feature slot 0 of an item is its category.  Histories are
time-ordered, oldest first.

File formats (UTF-8, newline-delimited JSON):

catalog lines, in any order (`write_catalog` writes users, then anchors,
then items)::

    {"kind": "user",   "id": 7, "features": [3, 1, 12],
     "browsed_items": [11, 13], "browsed_anchors": [2]}
    {"kind": "anchor", "id": 2, "features": [4, 0], "broadcast_items": [13]}
    {"kind": "item",   "id": 11, "features": [5, 9]}
    {"kind": "item",   "id": 13, "features": [2, 9]}

`_KINDS` defines this format: each kind's dataclass, and the id lists
a line of that kind may hold (an absent list is empty), each naming the
kind whose ids it holds.

pairs lines::

    {"user": 7, "anchor": 2, "label": 1}

Object ids must be integers that fit in 64 bits, since the model maps
them through ``np.intp`` arrays (`liverec.model._predict`).  Malformed
lines are skipped and reported through the `logging` module with their
line numbers; dangling id references are hard errors.
"""
from __future__ import annotations

import codecs
import json
import logging
import warnings
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from .seeding import stream_rng

log = logging.getLogger(__name__)

MAX_HISTORY_LEN = 200  # ingestion cap; most recent events win


class IngestError(ValueError):
    """A log file is unusable: dangling reference or broken catalog."""


@dataclass(frozen=True)
class Item:
    item_id: int
    features: tuple[int, ...]  # slot 0 is the category

    @property
    def category(self) -> int:
        return self.features[0]


@dataclass(frozen=True)
class User:
    user_id: int
    features: tuple[int, ...]
    browsed_items: tuple[int, ...]
    browsed_anchors: tuple[int, ...]


@dataclass(frozen=True)
class Anchor:
    anchor_id: int
    features: tuple[int, ...]
    broadcast_items: tuple[int, ...]


# the catalog format, kind by kind in file order: each kind's dataclass,
# whose fields are its id, its features and then these id lists, and for
# each list the kind whose ids it holds
_KINDS = {
    "user": (User, {"browsed_items": "item", "browsed_anchors": "anchor"}),
    "anchor": (Anchor, {"broadcast_items": "item"}),
    "item": (Item, {}),
}


@dataclass(frozen=True, order=True)
class LabeledPair:
    user_id: int
    anchor_id: int
    label: int


@dataclass(eq=True)
class Catalog:
    """Immutable registry of users, anchors and items.

    ``*_vocab`` holds, per feature slot, the dense vocabulary size
    (``max value + 1``) for that object kind.  Safe for concurrent reads.
    """

    users: dict[int, User]
    anchors: dict[int, Anchor]
    items: dict[int, Item]
    user_vocab: tuple[int, ...]
    anchor_vocab: tuple[int, ...]
    item_vocab: tuple[int, ...]
    _kkv: dict = field(default_factory=dict, compare=False, repr=False)

    def objects(self, kind: str) -> dict:
        """One kind's objects by id: ``objects("user")`` is ``users``."""
        return getattr(self, f"{kind}s")

    def vocab(self, kind: str) -> tuple[int, ...]:
        return getattr(self, f"{kind}_vocab")

    def history(self, side: str, owner_id: int) -> tuple[int, ...]:
        """The item ids in one owner's history, oldest first: a user's
        browsed items (side "user") or an anchor's broadcast items."""
        if side == "user":
            return self.users[owner_id].browsed_items
        return self.anchors[owner_id].broadcast_items

    def kkv_indices(self):
        """Build (once) and return the (user, anchor) retrieval indices."""
        if "pair" not in self._kkv:
            from .retrieval import build_index

            self._kkv["pair"] = (build_index(self, "user"), build_index(self, "anchor"))
        return self._kkv["pair"]


def _vocab_sizes(feature_lists) -> tuple[int, ...]:
    sizes: list[int] = []
    for feats in feature_lists:
        for j, v in enumerate(feats):
            while len(sizes) <= j:
                sizes.append(0)
            sizes[j] = max(sizes[j], v + 1)
    return tuple(sizes)


def _link_catalog(users, anchors, items) -> Catalog:
    """Validate cross-references and derive vocabulary sizes.  The first
    dangling id is reported, object by object and list by list."""
    objects = dict(zip(_KINDS, (users, anchors, items)))
    for kind, (_, lists) in _KINDS.items():
        # (list, what its ids are called, the objects they must name)
        refs = [(name, name[:-1].replace("_", " "), objects[to]) for name, to in lists.items()]
        for oid, obj in objects[kind].items():
            for name, what, targets in refs:
                for rid in getattr(obj, name):
                    if rid not in targets:
                        raise IngestError(f"{kind} {oid}: {what} {rid} is not in the catalog")
    vocabs = [_vocab_sizes(o.features for o in objs.values()) for objs in objects.values()]
    return Catalog(users, anchors, items, *vocabs)


def _is_int(v) -> bool:
    """A JSON integer that fits in 64 bits, as the model's id and feature
    arrays hold them: ``true`` and ``false`` decode to bools, which are ints
    in Python but not of type int."""
    return type(v) is int and -(2**63) <= v < 2**63


def _all_int(values: list) -> bool:
    """`_is_int` for every value of a list, with one range check per list."""
    return all(type(v) is int for v in values) and (not values or (-(2**63) <= min(values) and max(values) < 2**63))


def _ids(raw, what: str) -> tuple[int, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list) or not _all_int(raw):
        raise ValueError(f"{what} must be a list of integer ids")
    return tuple(raw[-MAX_HISTORY_LEN:])


def _features(raw) -> tuple[int, ...]:
    if not isinstance(raw, list) or not raw or not _all_int(raw) or min(raw) < 0:
        raise ValueError("features must be a non-empty list of non-negative integers")
    return tuple(raw)


# what a malformed line can raise: invalid UTF-8 (a ValueError), bad JSON,
# missing keys, wrong types, and nesting too deep for the JSON decoder
_MALFORMED = (ValueError, KeyError, TypeError, RecursionError)


def _numbered_lines(fh):
    """A binary file's lines numbered from 1, one leading UTF-8 byte-order
    mark dropped from the first (editors on some systems write one)."""
    lines = enumerate(fh, start=1)
    for lineno, line in lines:
        yield lineno, line.removeprefix(codecs.BOM_UTF8)
        break
    yield from lines


def ingest_logs(catalog_file, pairs_file) -> tuple[Catalog, list[LabeledPair]]:
    """Read catalog and pairs JSONL files into a linked Catalog.

    Malformed lines, invalid UTF-8 and over-deep JSON nesting included,
    are skipped and logged with their line numbers; a UTF-8 byte-order
    mark opening either file is dropped.  Dangling id references (a pair
    or history entry naming an unknown object) raise IngestError.
    """
    # per kind: its dataclass, its id lists and its objects read so far
    kinds = {kind: (cls, tuple(lists), {}) for kind, (cls, lists) in _KINDS.items()}
    with open(catalog_file, "rb") as fh:
        for lineno, line in _numbered_lines(fh):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                kind = obj["kind"]
                oid = obj["id"]
                if not _is_int(oid):
                    raise ValueError("id must be an integer")
                feats = _features(obj["features"])
                if type(kind) is not str or kind not in kinds:  # a list or object kind is unhashable
                    raise ValueError(f"unknown kind {kind!r}")
                cls, lists, found = kinds[kind]
                if oid in found:
                    raise ValueError(f"duplicate {kind} id {oid}")
                found[oid] = cls(oid, feats, *[_ids(obj.get(name), name) for name in lists])
            except _MALFORMED as exc:
                log.warning("%s:%d: skipping malformed line (%s)", catalog_file, lineno, exc)

    catalog = _link_catalog(*(found for _, _, found in kinds.values()))

    pairs: list[LabeledPair] = []
    with open(pairs_file, "rb") as fh:
        for lineno, line in _numbered_lines(fh):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                uid, aid, label = obj["user"], obj["anchor"], obj["label"]
                if isinstance(label, bool) or label not in (0, 1):
                    raise ValueError(f"label must be 0 or 1, got {label!r}")
                if not _is_int(uid) or not _is_int(aid):
                    raise ValueError("user and anchor must be integer ids")
            except _MALFORMED as exc:
                log.warning("%s:%d: skipping malformed line (%s)", pairs_file, lineno, exc)
                continue
            if uid not in catalog.users:
                raise IngestError(f"{pairs_file}:{lineno}: unknown user id {uid}")
            if aid not in catalog.anchors:
                raise IngestError(f"{pairs_file}:{lineno}: unknown anchor id {aid}")
            pairs.append(LabeledPair(uid, aid, int(label)))
    return catalog, pairs


def write_catalog(catalog: Catalog, path) -> None:
    """One line per object, kind by kind in `_KINDS` order, every id list
    written (an empty one as ``[]``)."""
    with open(path, "w", encoding="utf-8") as fh:
        for kind, (cls, lists) in _KINDS.items():
            keys = ("kind", "id", "features", *lists)  # the kind, then the dataclass's fields in order
            values = attrgetter(*(f.name for f in fields(cls)))
            for obj in catalog.objects(kind).values():
                fh.write(json.dumps(dict(zip(keys, (kind, *values(obj))))) + "\n")


def write_pairs(pairs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write(json.dumps({"user": p.user_id, "anchor": p.anchor_id, "label": p.label}) + "\n")


def split_dataset(pairs, ratios=(0.6, 0.2, 0.2), seed: int = 0):
    """Shuffle and partition pairs into train/validation/test.

    Sizes follow largest-remainder rounding of the ratios; ties go to the
    earlier split.  The partition is exhaustive, disjoint, and
    reproducible from the seed.  ``ratios`` must be exactly three.
    """
    if len(ratios) != 3:
        raise ValueError(f"ratios must be three (train, validation, test), got {ratios}")
    if any(not r >= 0 for r in ratios):
        raise ValueError(f"ratios must be non-negative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    n = len(pairs)
    if n < 3:
        warnings.warn(f"only {n} pairs; assigning all to the training split")
        return list(pairs), [], []
    exact = [n * r for r in ratios]
    sizes = [int(np.floor(e)) for e in exact]
    remainders = [e - s for e, s in zip(exact, sizes)]
    for _ in range(n - sum(sizes)):
        k = max(range(len(ratios)), key=lambda i: (remainders[i], -i))
        sizes[k] += 1
        remainders[k] = -1.0
    order = stream_rng(seed, "data").permutation(n)
    shuffled = [pairs[i] for i in order]
    a, b = sizes[0], sizes[0] + sizes[1]
    return shuffled[:a], shuffled[a:b], shuffled[b:]


# ---------------------------------------------------------------------------
# synthetic generator

# feature slot layouts (vocab sizes); item slot 0 must be the category
_USER_SLOTS = (8, 3, 16)  # age bucket, gender, city
_ANCHOR_SLOTS = (6, 16)  # level, region
_ITEM_EXTRA_SLOTS = (16,)  # brand noise after the category slot


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic interaction-log generator.

    The planted signal: the probability of a positive label for a pair is
    ``base_rate + signal_strength * jaccard(C_user, C_anchor)`` clamped to
    [0.02, 0.98], where C_user / C_anchor are the category sets of the
    user's browsed items and the anchor's broadcast items.  With
    ``id_features`` each object also gets a unique tag feature, which
    turns the static encoders into id-embedding lookups.
    """

    num_users: int
    num_anchors: int
    num_items: int
    num_categories: int
    history_len_range: tuple[int, int] = (5, 15)
    signal_strength: float = 0.8
    seed: int = 0
    num_pairs: int | None = None
    base_rate: float = 0.08
    id_features: bool = False

    def __post_init__(self):
        for name in ("num_users", "num_anchors", "num_items", "num_categories"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("signal_strength", "base_rate"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.num_pairs is not None and self.num_pairs < 0:
            raise ValueError(f"num_pairs must be >= 0, got {self.num_pairs}")
        lo, hi = self.history_len_range
        if lo < 0 or hi < lo:
            raise ValueError(f"bad history_len_range {self.history_len_range}")
        if hi > MAX_HISTORY_LEN:  # ingestion would cut the histories the labels were drawn from
            raise ValueError(f"history_len_range must be within [0, {MAX_HISTORY_LEN}], the events ingestion "
                             f"keeps per history, got {self.history_len_range}")


def _interests(rng, num_categories: int) -> np.ndarray:
    """Category preference distribution: 0.85 mass on 1-3 favourites."""
    k = int(rng.integers(1, min(3, num_categories) + 1))
    favs = rng.choice(num_categories, size=k, replace=False)
    p = np.full(num_categories, 0.15 / num_categories)
    p[favs] += 0.85 / k
    return p / p.sum()


def _jaccard(cu: set[int], ca: set[int]) -> float:
    union = cu | ca
    return len(cu & ca) / len(union) if union else 0.0


def category_jaccard(catalog: Catalog, user_id: int, anchor_id: int) -> float:
    """Jaccard overlap of history category sets for one pair."""
    items = catalog.items
    cu = {items[i].category for i in catalog.users[user_id].browsed_items}
    ca = {items[i].category for i in catalog.anchors[anchor_id].broadcast_items}
    return _jaccard(cu, ca)


def generate_synthetic(spec: SyntheticSpec) -> tuple[Catalog, list[LabeledPair]]:
    """Generate a catalog plus labeled pairs with a planted cross-side signal.

    Deterministic: the same spec (including seed) reproduces the output
    exactly.  Every value comes from the spec's one "data" stream, drawn in
    this order: per item its category and extra slots; per anchor its
    interests, features, history length and history; per user its
    interests, features, history length, history, browsed-anchor count and
    browsed anchors; per pair its user, anchor and label.  A history draws
    its categories in one ``rng.choice`` call and then, in one
    ``rng.integers`` call, a position within each category's items, which
    draws what one scalar call per position would.  The written bytes of
    five specs are pinned by sha256 in ``tests/test_data.py``
    (``test_generator_output_is_pinned``), so a change to this order or
    to any draw fails there.
    """
    rng = stream_rng(spec.seed, "data")
    C = spec.num_categories

    items: dict[int, Item] = {}
    item_cat: list[int] = []
    for iid in range(spec.num_items):
        cat = int(rng.integers(C))
        feats = [cat] + [int(rng.integers(v)) for v in _ITEM_EXTRA_SLOTS]
        if spec.id_features:
            feats.append(iid)
        items[iid] = Item(iid, tuple(feats))
        item_cat.append(cat)
    # category c's items, in id order, are by_cat[starts[c] : starts[c] + sizes[c]]
    sizes = np.bincount(item_cat, minlength=C)
    starts = np.cumsum(sizes) - sizes
    by_cat = np.argsort(item_cat, kind="stable")
    usable = np.flatnonzero(sizes)

    def sample_history(prefs: np.ndarray, length: int) -> tuple[int, ...]:
        p = prefs[usable]
        p = p / p.sum()
        cats = rng.choice(usable, size=length, p=p)
        picks = rng.integers(sizes[cats])
        return tuple(by_cat[starts[cats] + picks].tolist())

    lo, hi = spec.history_len_range
    anchor_prefs = []
    anchors: dict[int, Anchor] = {}
    for aid in range(spec.num_anchors):
        prefs = _interests(rng, C)
        anchor_prefs.append(prefs)
        feats = [int(rng.integers(v)) for v in _ANCHOR_SLOTS]
        if spec.id_features:
            feats.append(aid)
        length = int(rng.integers(lo, hi + 1))
        anchors[aid] = Anchor(aid, tuple(feats), sample_history(prefs, length))
    anchor_prefs = np.array(anchor_prefs)

    users: dict[int, User] = {}
    for uid in range(spec.num_users):
        prefs = _interests(rng, C)
        feats = [int(rng.integers(v)) for v in _USER_SLOTS]
        if spec.id_features:
            feats.append(uid)
        length = int(rng.integers(lo, hi + 1))
        browsed = sample_history(prefs, length)
        # browsed anchors lean toward hosts with overlapping interests
        w = 0.2 + anchor_prefs @ prefs
        w = w / w.sum()
        n_anchors = int(rng.integers(lo, hi + 1))
        browsed_anchors = tuple(rng.choice(spec.num_anchors, size=n_anchors, p=w).tolist())
        users[uid] = User(uid, tuple(feats), browsed, browsed_anchors)

    catalog = _link_catalog(users, anchors, items)
    user_cats = [{item_cat[i] for i in users[uid].browsed_items} for uid in range(spec.num_users)]
    anchor_cats = [{item_cat[i] for i in anchors[aid].broadcast_items} for aid in range(spec.num_anchors)]

    num_pairs = spec.num_pairs if spec.num_pairs is not None else 5 * spec.num_users
    pairs: list[LabeledPair] = []
    for _ in range(num_pairs):
        uid = int(rng.integers(spec.num_users))
        aid = int(rng.integers(spec.num_anchors))
        jac = _jaccard(user_cats[uid], anchor_cats[aid])
        p = min(max(spec.base_rate + spec.signal_strength * jac, 0.02), 0.98)
        pairs.append(LabeledPair(uid, aid, int(rng.random() < p)))
    return catalog, pairs
