"""Ingestion, splitting, synthetic generation, serialization round-trips."""
import json
import logging

import numpy as np
import pytest

from liverec.data import (
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


# ---------------------------------------------------------------------------
# synthetic generator


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
    assert float(np.clip(0.08 + 0.9 * 1.0, 0.02, 0.98)) == 0.98
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


def test_id_features_extend_vocab():
    spec = SyntheticSpec(20, 5, 30, 4, (1, 4), 0.5, seed=1, id_features=True)
    catalog, _ = generate_synthetic(spec)
    assert catalog.user_vocab[-1] == 20
    assert catalog.anchor_vocab[-1] == 5
    assert catalog.item_vocab[-1] == 30
