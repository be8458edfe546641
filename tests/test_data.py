"""Ingestion, splitting, synthetic generation, serialization round-trips."""
import hashlib
import json
import logging
import re

import numpy as np
import pytest

from liverec.data import (
    MAX_HISTORY_LEN,
    IngestError,
    LabeledPair,
    SyntheticSpec,
    category_jaccard,
    generate_synthetic,
    ingest_logs,
    split_dataset,
    write_catalog,
    write_pairs,
)


def _write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _minimal_files(tmp_path):
    cat = tmp_path / "catalog.jsonl"
    prs = tmp_path / "pairs.jsonl"
    _write(cat, [
        json.dumps({"kind": "item", "id": 5, "features": [2, 1]}),
        json.dumps({"kind": "user", "id": 1, "features": [0], "browsed_items": [5], "browsed_anchors": [9]}),
        json.dumps({"kind": "anchor", "id": 9, "features": [3], "broadcast_items": [5]}),
    ])
    _write(prs, [json.dumps({"user": 1, "anchor": 9, "label": 1})])
    return cat, prs


def test_ingest_minimal_file(tmp_path):
    cat, prs = _minimal_files(tmp_path)
    catalog, pairs = ingest_logs(cat, prs)
    assert (len(catalog.users), len(catalog.anchors), len(catalog.items)) == (1, 1, 1)
    assert pairs == [LabeledPair(1, 9, 1)]
    assert catalog.items[5].category == 2


def test_ingest_unknown_anchor_in_pair(tmp_path):
    cat, prs = _minimal_files(tmp_path)
    _write(prs, [json.dumps({"user": 1, "anchor": 777, "label": 0})])
    with pytest.raises(IngestError, match=r"pairs.jsonl:1.*777"):
        ingest_logs(cat, prs)


def test_ingest_dangling_history_reference(tmp_path):
    cat, prs = _minimal_files(tmp_path)
    _write(cat, [
        json.dumps({"kind": "user", "id": 1, "features": [0], "browsed_items": [42]}),
    ])
    with pytest.raises(IngestError, match="42"):
        ingest_logs(cat, prs)


def test_ingest_accepts_empty_histories(tmp_path):
    cat, prs = _minimal_files(tmp_path)
    _write(cat, [
        json.dumps({"kind": "user", "id": 1, "features": [0]}),
        json.dumps({"kind": "anchor", "id": 9, "features": [3]}),
    ])
    catalog, pairs = ingest_logs(cat, prs)
    assert catalog.users[1].browsed_items == ()
    assert catalog.anchors[9].broadcast_items == ()
    assert len(pairs) == 1


def test_ingest_drops_a_byte_order_mark_from_either_file(tmp_path, caplog):
    # a BOM opening a file was once part of its first line, which was then
    # skipped as malformed: a pair lost, or a user and a misleading error
    catalog, pairs = generate_synthetic(SyntheticSpec(6, 3, 12, 3, (1, 4), 0.5, seed=2, num_pairs=6))
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    for d in (plain, marked):
        d.mkdir()
        write_catalog(catalog, d / "c.jsonl")
        write_pairs(pairs, d / "p.jsonl")
    for name in ("c.jsonl", "p.jsonl"):
        (marked / name).write_bytes(b"\xef\xbb\xbf" + (marked / name).read_bytes())
    want_catalog, want_pairs = ingest_logs(plain / "c.jsonl", plain / "p.jsonl")
    with caplog.at_level(logging.WARNING, logger="liverec.data"):
        got_catalog, got_pairs = ingest_logs(marked / "c.jsonl", marked / "p.jsonl")
    assert not caplog.records
    assert got_pairs == want_pairs and len(got_pairs) == 6
    assert (got_catalog.users, got_catalog.anchors, got_catalog.items) == (
        want_catalog.users, want_catalog.anchors, want_catalog.items)


_ITEM = {"kind": "item", "id": 5, "features": [2, 1]}
_USER = {"kind": "user", "id": 1, "features": [0], "browsed_items": [5], "browsed_anchors": [9]}
_ANCHOR = {"kind": "anchor", "id": 9, "features": [3], "broadcast_items": [5]}
_PAIR = {"user": 1, "anchor": 9, "label": 1}

# (catalog lines, pairs lines, what ingestion does): a logged skip of the
# named line, an IngestError, or the minimal files' result with no log
INGEST_EDGE_CASES = {
    "duplicate_user": ([_ITEM, _USER, _ANCHOR, _USER], [_PAIR], ("skip", r"catalog.jsonl:4: .*duplicate user id 1")),
    "duplicate_anchor": ([_ITEM, _ANCHOR, _USER, _ANCHOR], [_PAIR], ("skip", r"catalog.jsonl:4: .*duplicate anchor id 9")),
    "duplicate_item": ([_ITEM, _ITEM, _USER, _ANCHOR], [_PAIR], ("skip", r"catalog.jsonl:2: .*duplicate item id 5")),
    "unknown_kind": ([_ITEM, {"kind": "show", "id": 2, "features": [0]}, _USER, _ANCHOR], [_PAIR],
                     ("skip", r"catalog.jsonl:2: .*unknown kind 'show'")),
    "blank_catalog_lines": (["", _ITEM, "  ", _USER, "\t", _ANCHOR, ""], [_PAIR], ("same", None)),
    "blank_pairs_lines": ([_ITEM, _USER, _ANCHOR], ["", " ", _PAIR, ""], ("same", None)),
    "pair_names_an_unknown_user": ([_ITEM, _USER, _ANCHOR], [{**_PAIR, "user": 2}],
                                   ("error", r"pairs.jsonl:1: unknown user id 2")),
    "missing_browsed_anchor": ([_ITEM, {**_USER, "browsed_anchors": [8]}, _ANCHOR], [_PAIR],
                               ("error", r"user 1: browsed anchor 8 is not in the catalog")),
    "missing_broadcast_item": ([_ITEM, _USER, {**_ANCHOR, "broadcast_items": [6]}], [_PAIR],
                               ("error", r"anchor 9: broadcast item 6 is not in the catalog")),
}


@pytest.mark.parametrize("case", sorted(INGEST_EDGE_CASES))
def test_ingest_edge_cases(tmp_path, caplog, case):
    catalog_lines, pairs_lines, (outcome, pattern) = INGEST_EDGE_CASES[case]
    cat, prs = tmp_path / "catalog.jsonl", tmp_path / "pairs.jsonl"
    _write(cat, [v if isinstance(v, str) else json.dumps(v) for v in catalog_lines])
    _write(prs, [v if isinstance(v, str) else json.dumps(v) for v in pairs_lines])
    if outcome == "error":
        with pytest.raises(IngestError, match=pattern):
            ingest_logs(cat, prs)
        return
    with caplog.at_level(logging.WARNING, logger="liverec.data"):
        catalog, pairs = ingest_logs(cat, prs)
    messages = [r.getMessage() for r in caplog.records]
    if outcome == "skip":
        assert len(messages) == 1 and re.search(pattern, messages[0]), messages
    else:
        assert not messages
    assert pairs == [LabeledPair(1, 9, 1)]
    assert (sorted(catalog.users), sorted(catalog.anchors), sorted(catalog.items)) == ([1], [9], [5])
    assert catalog.users[1].browsed_items == (5,) and catalog.anchors[9].broadcast_items == (5,)


def test_ingest_malformed_lines_reported_with_numbers(tmp_path, caplog):
    cat, prs = _minimal_files(tmp_path)
    good = json.dumps({"user": 1, "anchor": 9, "label": 0})
    lines = []
    bad_lines = set()
    for i in range(1, 1001):
        if i % 100 == 0:  # 10 malformed lines
            lines.append("{not json")
            bad_lines.add(i)
        else:
            lines.append(good)
    _write(prs, lines)
    with caplog.at_level(logging.WARNING, logger="liverec.data"):
        _, pairs = ingest_logs(cat, prs)
    assert len(pairs) == 990
    assert len(caplog.records) == 10
    mentioned = {int(r.args[1]) for r in caplog.records}
    assert mentioned == bad_lines


@pytest.mark.parametrize("field", ["user", "anchor", "label"])
def test_ingest_skips_pairs_with_boolean_fields(tmp_path, caplog, field):
    # JSON true decodes to a Python bool, which is an int; a pairs line
    # with one is malformed, as a catalog line with a boolean id is
    cat, prs = _minimal_files(tmp_path)
    good = {"user": 1, "anchor": 9, "label": 1}
    _write(prs, [json.dumps({**good, field: True}), json.dumps(good)])
    with caplog.at_level(logging.WARNING, logger="liverec.data"):
        _, pairs = ingest_logs(cat, prs)
    assert pairs == [LabeledPair(1, 9, 1)]
    assert type(pairs[0].user_id) is int and type(pairs[0].label) is int
    assert [int(r.args[1]) for r in caplog.records] == [1]


def test_ingest_skips_ids_beyond_64_bits(tmp_path, caplog):
    # the model keeps item ids and features in int64 arrays; ids of every
    # kind are held to the same 64 bits, so a wider id is malformed
    cat, prs = _minimal_files(tmp_path)
    wide = 2**63
    lines = cat.read_text(encoding="utf-8").splitlines()
    _write(cat, lines + [json.dumps({"kind": "anchor", "id": wide, "features": [3], "broadcast_items": [5]}),
                         json.dumps({"kind": "user", "id": 2, "features": [0], "browsed_anchors": [9, wide]})])
    _write(prs, [json.dumps({"user": 1, "anchor": wide, "label": 1}), json.dumps({"user": 1, "anchor": 9, "label": 1})])
    with caplog.at_level(logging.WARNING, logger="liverec.data"):
        catalog, pairs = ingest_logs(cat, prs)
    assert (sorted(catalog.users), sorted(catalog.anchors), pairs) == ([1], [9], [LabeledPair(1, 9, 1)])
    assert [int(r.args[1]) for r in caplog.records] == [4, 5, 1]


_NOT_INT64 = [True, 1.0, 2**63, -(2**63) - 1]


@pytest.mark.parametrize("bad", _NOT_INT64, ids=["true", "float", "2**63", "-2**63-1"])
@pytest.mark.parametrize("where", ["id", "features", "browsed_items", "browsed_anchors", "broadcast_items",
                                   "user", "anchor"])
def test_ingest_skips_each_non_int64_value(tmp_path, caplog, where, bad):
    # a bool, a float or an integer outside 64 bits is malformed in every
    # id and feature position, with the same message as before
    cat, prs = _minimal_files(tmp_path)
    lines = cat.read_text(encoding="utf-8").splitlines()
    if where in ("user", "anchor"):
        _write(prs, [json.dumps({"user": 1, "anchor": 9, "label": 1, where: bad})])
        message = "user and anchor must be integer ids"
    else:
        obj = {"kind": "anchor" if where == "broadcast_items" else "user", "id": 2, "features": [0]}
        obj[where] = bad if where == "id" else [0, bad] if where == "features" else [bad]
        _write(cat, lines + [json.dumps(obj)])
        message = {"id": "id must be an integer",
                   "features": "features must be a non-empty list of non-negative integers"}.get(
            where, f"{where} must be a list of integer ids")
    with caplog.at_level(logging.WARNING, logger="liverec.data"):
        catalog, pairs = ingest_logs(cat, prs)
    assert (sorted(catalog.users), sorted(catalog.anchors)) == ([1], [9])
    assert pairs == ([] if where in ("user", "anchor") else [LabeledPair(1, 9, 1)])
    assert [str(r.args[2]) for r in caplog.records] == [message]


def test_ingest_accepts_the_int64_bounds(tmp_path, caplog):
    # -(2**63) is a valid id in every id position, and 2**63 - 1 a valid feature
    low = -(2**63)
    cat, prs = tmp_path / "catalog.jsonl", tmp_path / "pairs.jsonl"
    _write(cat, [
        json.dumps({"kind": "item", "id": low, "features": [2**63 - 1]}),
        json.dumps({"kind": "anchor", "id": low, "features": [0], "broadcast_items": [low]}),
        json.dumps({"kind": "user", "id": low, "features": [0], "browsed_items": [low], "browsed_anchors": [low]}),
    ])
    _write(prs, [json.dumps({"user": low, "anchor": low, "label": 1})])
    with caplog.at_level(logging.WARNING, logger="liverec.data"):
        catalog, pairs = ingest_logs(cat, prs)
    assert caplog.records == []
    assert catalog.users[low].browsed_anchors == (low,) and catalog.anchors[low].broadcast_items == (low,)
    assert catalog.item_vocab == (2**63,)
    assert pairs == [LabeledPair(low, low, 1)]


@pytest.mark.parametrize("which", ["catalog", "pairs"])
def test_ingest_skips_undecodable_and_over_deep_lines(tmp_path, caplog, which):
    # invalid UTF-8 and nesting deeper than the JSON decoder's recursion
    # limit are logged and skipped like any other malformed line
    cat, prs = _minimal_files(tmp_path)
    path = cat if which == "catalog" else prs
    good = path.read_bytes()
    path.write_bytes(b'{"kind": "\xff\xfe"}\n' + b"[" * 100000 + b"\n" + good)
    with caplog.at_level(logging.WARNING, logger="liverec.data"):
        catalog, pairs = ingest_logs(cat, prs)
    assert (len(catalog.users), len(catalog.anchors), len(catalog.items), len(pairs)) == (1, 1, 1, 1)
    assert sorted(int(r.args[1]) for r in caplog.records) == [1, 2]
    assert all(str(r.args[0]) == str(path) for r in caplog.records)


def test_histories_capped_at_200(tmp_path):
    cat, prs = _minimal_files(tmp_path)
    items = [json.dumps({"kind": "item", "id": i, "features": [0]}) for i in range(300)]
    _write(cat, items + [
        json.dumps({"kind": "user", "id": 1, "features": [0], "browsed_items": list(range(300))}),
        json.dumps({"kind": "anchor", "id": 9, "features": [0]}),
    ])
    catalog, _ = ingest_logs(cat, prs)
    assert len(catalog.users[1].browsed_items) == 200
    assert catalog.users[1].browsed_items == tuple(range(100, 300))  # most recent kept


def test_catalog_roundtrip(tmp_path):
    catalog, pairs = generate_synthetic(SyntheticSpec(30, 8, 50, 6, (0, 8), 0.5, seed=4, num_pairs=40))
    cat_path = tmp_path / "cat.jsonl"
    prs_path = tmp_path / "pairs.jsonl"
    write_catalog(catalog, cat_path)
    write_pairs(pairs, prs_path)
    catalog2, pairs2 = ingest_logs(cat_path, prs_path)
    assert catalog2 == catalog
    assert pairs2 == pairs


def test_history_membership_invariants():
    catalog, _ = generate_synthetic(SyntheticSpec(40, 10, 60, 8, (1, 10), 0.7, seed=5))
    for u in catalog.users.values():
        assert all(i in catalog.items for i in u.browsed_items)
        assert all(a in catalog.anchors for a in u.browsed_anchors)
    for a in catalog.anchors.values():
        assert all(i in catalog.items for i in a.broadcast_items)


def test_history_is_the_owners_items_per_side():
    catalog, _ = generate_synthetic(SyntheticSpec(40, 10, 60, 8, (1, 10), 0.7, seed=5))
    for uid, u in catalog.users.items():
        assert catalog.history("user", uid) is u.browsed_items
    for aid, a in catalog.anchors.items():
        assert catalog.history("anchor", aid) is a.broadcast_items


# ---------------------------------------------------------------------------
# split_dataset


def _pairs(n):
    return [LabeledPair(i, i % 3, i % 2) for i in range(n)]


def test_split_exact_ratio():
    tr, va, te = split_dataset(_pairs(10), seed=11)
    assert (len(tr), len(va), len(te)) == (6, 2, 2)


def test_split_deterministic():
    a = split_dataset(_pairs(50), seed=3)
    b = split_dataset(_pairs(50), seed=3)
    assert a == b
    c = split_dataset(_pairs(50), seed=4)
    assert a != c


def test_split_largest_remainder():
    tr, va, te = split_dataset(_pairs(11), seed=0)
    assert (len(tr), len(va), len(te)) == (7, 2, 2)


def test_split_partition_is_exhaustive_and_disjoint():
    pairs = _pairs(37)
    tr, va, te = split_dataset(pairs, seed=9)
    assert sorted(tr + va + te) == sorted(pairs)


def test_split_tiny_input_warns():
    with pytest.warns(UserWarning, match="training split"):
        tr, va, te = split_dataset(_pairs(2), seed=0)
    assert (len(tr), len(va), len(te)) == (2, 0, 0)


def test_split_bad_ratios():
    with pytest.raises(ValueError, match="sum to 1"):
        split_dataset(_pairs(10), ratios=(0.5, 0.2, 0.2), seed=0)


@pytest.mark.parametrize("ratios", [(0.25, 0.25, 0.25, 0.25), (1.0,), (0.5, 0.5), ()])
def test_split_rejects_other_than_three_ratios(ratios):
    # four ratios once merged the last two parts into the test split, and
    # one ratio failed with a bare IndexError
    with pytest.raises(ValueError, match="three"):
        split_dataset(_pairs(10), ratios=ratios, seed=0)


@pytest.mark.parametrize("ratios", [(1.5, -0.5, 0.0), (0.5, 0.6, -0.1), (0.5, float("nan"), 0.5)])
def test_split_rejects_a_negative_ratio(ratios):
    # (1.5, -0.5, 0.0) sums to 1 but is no partition of the pairs
    with pytest.raises(ValueError, match="non-negative"):
        split_dataset(_pairs(10), ratios=ratios, seed=0)


# ---------------------------------------------------------------------------
# synthetic generator


# sha256 of write_catalog's bytes followed by write_pairs' bytes, recorded
# before the generator drew each history's item picks in one call: any change
# to the draw order, to a draw, or to numpy's streams shows here
_PINNED_SPECS = {
    "empty-histories": (SyntheticSpec(30, 8, 40, 5, (0, 2), 0.8, seed=3, num_pairs=120),
                        "9521542b368a9d07a6d890605e1419f0eefe693f4b63ebe95ec0df96709b9d20"),
    "empty-categories": (SyntheticSpec(30, 8, 6, 20, (3, 8), 0.8, seed=5, num_pairs=120),
                         "796b8df60d2111431c6c07cabc7ba5b01aa9aa7e1089ebe5db0908ede165b5ba"),
    "id-features": (SyntheticSpec(25, 6, 40, 5, (2, 6), 0.9, seed=13, num_pairs=80, id_features=True),
                    "056ad9ea8b1ed7567150377496cfddb3c69a53485d9c77eac71429ea63ed2522"),
    "single-category": (SyntheticSpec(20, 5, 30, 1, (1, 5), 0.5, seed=7),
                        "971a38807920da65fa111b7a956ef7766dba0ea3b923c680325d7cce25b6557a"),
    "long-hist": (SyntheticSpec(400, 60, 500, 10, (150, 200), 0.8, seed=1, num_pairs=1800, base_rate=0.08),
                  "7381470f4e6a4da37077bdc52868b636dc0f9ad2746f416dd19599505e72d014"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_SPECS))
def test_generator_output_is_pinned(tmp_path, name):
    spec, digest = _PINNED_SPECS[name]
    catalog, pairs = generate_synthetic(spec)
    write_catalog(catalog, tmp_path / "catalog.jsonl")
    write_pairs(pairs, tmp_path / "pairs.jsonl")
    written = (tmp_path / "catalog.jsonl").read_bytes() + (tmp_path / "pairs.jsonl").read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest


def test_pinned_specs_reach_their_edges():
    # each edge spec really has what its name says
    catalog, _ = generate_synthetic(_PINNED_SPECS["empty-histories"][0])
    assert any(not u.browsed_items for u in catalog.users.values())
    assert any(not a.broadcast_items for a in catalog.anchors.values())
    catalog, _ = generate_synthetic(_PINNED_SPECS["empty-categories"][0])
    assert len({i.category for i in catalog.items.values()}) < 20
    catalog, _ = generate_synthetic(_PINNED_SPECS["single-category"][0])
    assert {i.category for i in catalog.items.values()} == {0}


def test_generator_deterministic(tmp_path):
    spec = SyntheticSpec(25, 6, 40, 5, (2, 6), 0.9, seed=13, num_pairs=80)
    a_cat, a_pairs = generate_synthetic(spec)
    b_cat, b_pairs = generate_synthetic(spec)
    assert a_cat == b_cat and a_pairs == b_pairs
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_catalog(a_cat, pa)
    write_catalog(b_cat, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generator_zero_signal_has_no_correlation():
    spec = SyntheticSpec(100, 25, 150, 8, (3, 10), 0.0, seed=21, num_pairs=10_000)
    catalog, pairs = generate_synthetic(spec)
    jac = np.array([category_jaccard(catalog, p.user_id, p.anchor_id) for p in pairs])
    labels = np.array([p.label for p in pairs], dtype=float)
    corr = np.corrcoef(jac, labels)[0, 1]
    assert abs(corr) <= 0.02


def test_generator_positive_signal_correlates():
    spec = SyntheticSpec(100, 25, 150, 8, (3, 10), 0.9, seed=21, num_pairs=10_000)
    catalog, pairs = generate_synthetic(spec)
    jac = np.array([category_jaccard(catalog, p.user_id, p.anchor_id) for p in pairs])
    labels = np.array([p.label for p in pairs], dtype=float)
    assert np.corrcoef(jac, labels)[0, 1] > 0.2


def test_generator_clamps_label_probability():
    # identical histories give jaccard 1: clamp(0.08 + 0.9) = 0.98
    assert min(max(0.08 + 0.9 * 1.0, 0.02), 0.98) == 0.98
    spec = SyntheticSpec(40, 10, 60, 2, (4, 8), 0.9, seed=2, num_pairs=4000)
    catalog, pairs = generate_synthetic(spec)
    # with 2 categories full-overlap pairs are common; their positive rate
    # should approach the 0.98 ceiling
    full = [p.label for p in pairs if category_jaccard(catalog, p.user_id, p.anchor_id) == 1.0]
    assert len(full) > 50
    assert np.mean(full) > 0.9


def test_generator_rejects_bad_spec():
    with pytest.raises(ValueError, match="num_users"):
        SyntheticSpec(0, 1, 1, 1)
    with pytest.raises(ValueError, match="finite"):
        SyntheticSpec(1, 1, 1, 1, signal_strength=float("nan"))
    for bad in ((-1, 4), (5, 3)):  # a negative or inverted history range
        with pytest.raises(ValueError, match=rf"^bad history_len_range \({bad[0]}, {bad[1]}\)$"):
            SyntheticSpec(1, 1, 1, 1, history_len_range=bad)


@pytest.mark.parametrize("field, value", [("base_rate", float("nan")), ("base_rate", float("inf")),
                                          ("base_rate", -float("inf")), ("num_pairs", -1),
                                          ("history_len_range", (240, 300)),
                                          ("history_len_range", (1, MAX_HISTORY_LEN + 1))])
def test_generator_spec_names_a_bad_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        SyntheticSpec(3, 2, 4, 2, **{field: value})


def test_histories_at_the_ingestion_cap_keep_their_planted_signal(tmp_path):
    # the longest history a spec may ask for reaches training whole, so each
    # pair's label still matches the histories it was drawn from
    spec = SyntheticSpec(20, 5, 60, 10, (MAX_HISTORY_LEN - 10, MAX_HISTORY_LEN), 0.8, seed=1, num_pairs=50)
    catalog, pairs = generate_synthetic(spec)
    write_catalog(catalog, tmp_path / "catalog.jsonl")
    write_pairs(pairs, tmp_path / "pairs.jsonl")
    ingested, _ = ingest_logs(tmp_path / "catalog.jsonl", tmp_path / "pairs.jsonl")
    assert max(len(u.browsed_items) for u in catalog.users.values()) == MAX_HISTORY_LEN
    assert ([category_jaccard(ingested, p.user_id, p.anchor_id) for p in pairs]
            == [category_jaccard(catalog, p.user_id, p.anchor_id) for p in pairs])


def test_generator_spec_accepts_zero_pairs():
    _, pairs = generate_synthetic(SyntheticSpec(3, 2, 4, 2, num_pairs=0))
    assert pairs == []


def test_id_features_extend_vocab():
    spec = SyntheticSpec(20, 5, 30, 4, (1, 4), 0.5, seed=1, id_features=True)
    catalog, _ = generate_synthetic(spec)
    assert catalog.user_vocab[-1] == 20
    assert catalog.anchor_vocab[-1] == 5
    assert catalog.item_vocab[-1] == 30
