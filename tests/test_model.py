"""Whole-model forward, loss, training loop, and checkpoint behavior."""
import json
import math
import os
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from liverec import autodiff as ad
from liverec.data import (
    LabeledPair,
    SyntheticSpec,
    _link_catalog,
    category_jaccard,
    generate_synthetic,
    ingest_logs,
    split_dataset,
)
from liverec.encoders import encode_sequence
from liverec.metrics import CLAMP, compute_auc, compute_logloss
from liverec.model import (
    MAX_TABLE_ROWS,
    CheckpointError,
    NonFiniteScoreError,
    TrainConfig,
    TrainingDiverged,
    UnknownIdError,
    evaluate_pairs,
    forward_pair,
    init_model_params,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    train,
)
from liverec.seeding import stream_rng

from oracles import forward_reference, lstm_reference, naive_co_retrieve

DIMS = dict(dim=6, dropout=0.0, epochs=2, batch_size=16, l2_weight=1e-4)


def _tiny(seed=0, **spec_kw):
    kwargs = dict(num_users=15, num_anchors=5, num_items=30, num_categories=4,
                  history_len_range=(2, 6), signal_strength=0.8, seed=seed, num_pairs=50)
    kwargs.update(spec_kw)
    return generate_synthetic(SyntheticSpec(**kwargs))


def _params(catalog, config, seed=0):
    return init_model_params(catalog, config, stream_rng(seed, "init"))


# ---------------------------------------------------------------------------
# forward_pair


def test_forward_zero_mlp_gives_half():
    catalog, _ = _tiny()
    config = TrainConfig(**DIMS)
    params = _params(catalog, config)
    params.mlp.w1[:] = 0.0
    params.mlp.b1[:] = 0.0
    params.mlp.w2[:] = 0.0
    params.mlp.b2[()] = 0.0
    for uid in list(catalog.users)[:5]:
        assert forward_pair(catalog, params, config, uid, 0) == 0.5


def test_forward_empty_histories_fall_back_to_zero_vectors():
    catalog, _ = _tiny(history_len_range=(0, 0))
    config = TrainConfig(**DIMS)
    params = _params(catalog, config)
    got = forward_pair(catalog, params, config, 0, 0)
    assert forward_reference(catalog, params, config, 0, 0) == pytest.approx(got, abs=1e-12)
    assert 0.0 < got < 1.0


@pytest.mark.parametrize("variant", ["full", "no_item_aspect", "no_anchor_aspect", "with_co_retrieval"])
def test_forward_matches_straightline_reference(variant):
    catalog, pairs = _tiny(seed=3)
    config = TrainConfig(variant=variant, co_retrieval_k=3, **DIMS)
    params = _params(catalog, config, seed=5)
    for pair in pairs[:15]:
        got = forward_pair(catalog, params, config, pair.user_id, pair.anchor_id)
        want = forward_reference(catalog, params, config, pair.user_id, pair.anchor_id)
        assert got == pytest.approx(want, abs=1e-12)


def test_forward_svdpp_head_matches_straightline_reference():
    catalog, pairs = _tiny(seed=4)
    config = TrainConfig(**DIMS, svdpp_head=True)
    params = _params(catalog, config, seed=6)
    for pair in pairs[:8]:
        got = forward_pair(catalog, params, config, pair.user_id, pair.anchor_id)
        want = forward_reference(catalog, params, config, pair.user_id, pair.anchor_id)
        assert got == pytest.approx(want, abs=1e-12)


def _edge_catalog(seed):
    """A catalog holding each edge case of the batched forward: an empty
    item history on each side, an empty browsed-anchor history, a user who
    browsed the same anchor twice (and one who browsed it three times), and
    owners whose item history repeats an item.  Returns it with pairs that
    reach every such owner, most owners in several pairs."""
    catalog, pairs = _tiny(seed=seed, num_pairs=60)
    users, anchors = dict(catalog.users), dict(catalog.anchors)
    u = sorted(users)
    users[u[0]] = replace(users[u[0]], browsed_items=())
    users[u[1]] = replace(users[u[1]], browsed_anchors=())
    users[u[2]] = replace(users[u[2]], browsed_anchors=(1, 1, 3))
    users[u[3]] = replace(users[u[3]], browsed_anchors=(0, 2, 0, 0))
    hist = users[u[4]].browsed_items
    users[u[4]] = replace(users[u[4]], browsed_items=hist[:1] * 2 + hist + hist[:1])
    anchors[0] = replace(anchors[0], broadcast_items=())
    hist = anchors[1].broadcast_items
    anchors[1] = replace(anchors[1], broadcast_items=hist + hist[:2])
    edge = [LabeledPair(uid, aid, (uid + aid) % 2) for uid in u[:5] for aid in (0, 1, 2)]
    return _link_catalog(users, anchors, catalog.items), edge + pairs


def test_the_one_pair_route_gives_each_side_every_row_of_its_block_in_order():
    # one user and one anchor are each encoded alone, into a block of their
    # own; each side's one rows array lists that block's rows in history
    # order (empty for an empty history, whose block is (0, d)), and the rows
    # hold the states the batched route computes for that owner
    from liverec import model

    catalog, pairs = _edge_catalog(seed=21)
    config = TrainConfig(**DIMS)
    params = _params(catalog, config)
    other_user, other_anchor = pairs[-1].user_id, pairs[-1].anchor_id
    for p in pairs[:15]:
        alone = model._item_states(catalog, params, [p.user_id], [p.anchor_id])
        batched = model._item_states(catalog, params, [p.user_id, other_user], [p.anchor_id, other_anchor])
        histories = (catalog.users[p.user_id].browsed_items, catalog.anchors[p.anchor_id].broadcast_items)
        for side, hist in enumerate(histories):
            states, rows = alone[2 * side : 2 * side + 2]
            assert len(rows) == 1
            np.testing.assert_array_equal(rows[0], np.arange(len(hist)))
            assert states.shape == (len(hist), config.dim)
            block, owner_rows = batched[2 * side : 2 * side + 2]
            np.testing.assert_allclose(states.data, block.data[owner_rows[0]], rtol=0, atol=1e-14)


ALL_CONFIGS = {
    **{variant: dict(variant=variant) for variant in ("full", "no_item_aspect", "no_anchor_aspect", "with_co_retrieval")},
    "svdpp_head": dict(svdpp_head=True),
}


@pytest.mark.parametrize("name", sorted(ALL_CONFIGS))
def test_evaluate_pairs_scores_equal_forward_pair_and_the_reference(name, monkeypatch):
    from liverec import model

    catalog, pairs = _edge_catalog(seed=21)
    config = TrainConfig(co_retrieval_k=3, **DIMS, **ALL_CONFIGS[name])
    params = _params(catalog, config, seed=8)
    prng = np.random.default_rng(5)  # biases away from zero, so every block of the MLP input counts
    for _, arr in params.named_arrays():
        arr += prng.uniform(-0.3, 0.3, size=arr.shape)
    seen = []
    real = model.make_report
    monkeypatch.setattr(model, "make_report", lambda scores, *a, **k: seen.append(list(scores)) or real(scores, *a, **k))
    evaluate_pairs(catalog, params, config, pairs)
    (batched,) = seen
    assert len(batched) == len(pairs)
    for p, got in zip(pairs, batched):
        single = forward_pair(catalog, params, config, p.user_id, p.anchor_id)
        want = forward_reference(catalog, params, config, p.user_id, p.anchor_id)
        assert abs(got - single) <= 1e-12 and abs(got - want) <= 1e-12, p


@pytest.mark.parametrize("name", ["full", "no_item_aspect"])
def test_a_repeated_target_is_gathered_when_the_browsed_anchors_make_up_the_count(name):
    # two pairs share target 0 and their users browsed [1] and [0]: two
    # encoded anchors for two pairs, yet pair 2's target is encoded row 0
    from liverec import model

    catalog, _ = _tiny(seed=4)
    users = dict(catalog.users)
    u1, u2 = sorted(users)[:2]
    users[u1] = replace(users[u1], browsed_anchors=(1,))
    users[u2] = replace(users[u2], browsed_anchors=(0,))
    catalog = _link_catalog(users, catalog.anchors, catalog.items)
    batch = [LabeledPair(u1, 0, 1), LabeledPair(u2, 0, 0)]
    config = TrainConfig(**DIMS, **ALL_CONFIGS[name])
    params = _params(catalog, config, seed=3)
    prng = np.random.default_rng(6)
    for _, arr in params.named_arrays():
        arr += prng.uniform(-0.3, 0.3, size=arr.shape)
    want = [forward_reference(catalog, params, config, p.user_id, p.anchor_id) for p in batch]
    got = [forward_pair(catalog, params, config, p.user_id, p.anchor_id) for p in batch]
    assert got == pytest.approx(want, abs=1e-12)
    report = evaluate_pairs(catalog, params, config, batch)
    assert report.logloss == pytest.approx(compute_logloss(want, [1, 0]), abs=1e-12)
    data_value, _, _ = model._batch_gradients(catalog, params, config, batch, None)
    assert data_value == pytest.approx(-math.log(want[0]) - math.log(1.0 - want[1]), abs=1e-12)


@pytest.mark.parametrize("relabel", [lambda a: a + 1000, lambda a: 10**12 * a - 5], ids=["shifted", "sparse"])
def test_anchor_ids_are_labels_only(relabel):
    # anchor ids only name rows: shifted or sparse ids give the scores of
    # the original ids exactly
    catalog, pairs = _edge_catalog(seed=21)
    users = {k: replace(u, browsed_anchors=tuple(map(relabel, u.browsed_anchors))) for k, u in catalog.users.items()}
    anchors = {relabel(k): replace(a, anchor_id=relabel(k)) for k, a in catalog.anchors.items()}
    moved = _link_catalog(users, anchors, catalog.items)
    config = TrainConfig(**DIMS)
    params = _params(catalog, config, seed=8)
    prng = np.random.default_rng(5)
    for _, arr in params.named_arrays():
        arr += prng.uniform(-0.3, 0.3, size=arr.shape)
    want = evaluate_pairs(catalog, params, config, pairs)
    got = evaluate_pairs(moved, params, config, [replace(p, anchor_id=relabel(p.anchor_id)) for p in pairs])
    assert (got.logloss, got.auc) == (want.logloss, want.auc)


def test_evaluate_pairs_names_an_unknown_id_before_encoding(monkeypatch):
    from liverec import model

    catalog, pairs = _tiny(seed=2)
    config = TrainConfig(**DIMS)
    params = _params(catalog, config)
    encoded = []
    for name in ("pnn_encode", "pnn_encode_batch", "encode_sequence", "encode_sequences_batched"):
        monkeypatch.setattr(model, name, lambda *args, name=name: encoded.append(name))
    for bad, message in ((LabeledPair(pairs[0].user_id, 999, 1), "unknown anchor id 999"),
                         (LabeledPair(998, 999, 1), "unknown user id 998")):
        with pytest.raises(UnknownIdError) as info:
            evaluate_pairs(catalog, params, config, pairs[:5] + [bad] + pairs[5:])
        assert str(info.value) == message
    assert encoded == []


@pytest.mark.parametrize("variant", ["full", "with_co_retrieval"])
def test_training_tape_size_does_not_grow_with_batch_or_history(variant, monkeypatch):
    # the batched forward records a fixed set of nodes: one more pair, or a
    # longer history, adds no node to a training step's tape; the loss is one
    # node and the L2 penalty none (its gradient is added after the sweep);
    # co-retrieval adds one gather of the kept rows
    from liverec import model

    sizes = []
    real = ad.backward
    monkeypatch.setattr(ad, "backward", lambda tape, root: sizes.append(len(tape.nodes)) or real(tape, root))
    config = TrainConfig(variant=variant, co_retrieval_k=3, **{**DIMS, "dropout": 0.5})
    for history in ((5, 15), (150, 200)):
        catalog, pairs = _tiny(seed=23, history_len_range=history, num_pairs=200)
        params = _params(catalog, config)
        for n in (20, 200):
            model._batch_gradients(catalog, params, config, pairs[:n], stream_rng(0, "dropout"))
    assert len(sizes) == 4
    assert len(set(sizes)) == 1, sizes
    assert sizes == [{"full": 62, "with_co_retrieval": 61}[variant]] * 4


def _data(x):
    return x.data if isinstance(x, ad.Tensor) else x


def test_co_retrieval_pools_only_the_kept_rows_on_the_batched_route(monkeypatch):
    # a training batch gathers the rows either side keeps once, and both
    # item-aspect poolings walk that block alone, not the whole LSTM block;
    # the one-pair route pools from its own two blocks and gathers nothing more
    from liverec import model

    catalog, pairs = _tiny(seed=23, history_len_range=(20, 40), num_pairs=60)
    config = TrainConfig(variant="with_co_retrieval", co_retrieval_k=3, **DIMS)
    params = _params(catalog, config)
    item_w = (params.attn.item_user, params.attn.item_anchor)
    sources = []
    real = ad.segment_attention
    monkeypatch.setattr(ad, "segment_attention",
                        lambda states, w, *rest: sources.append((states, _data(w))) or real(states, w, *rest))
    batch = pairs[:24]
    kept = set()
    for p in batch:
        ret = naive_co_retrieve(catalog, p.user_id, p.anchor_id, config.co_retrieval_k)
        kept |= {("user", p.user_id, i) for i in ret["user_positions"]}
        kept |= {("anchor", p.anchor_id, i) for i in ret["anchor_positions"]}
    owners = {("user", p.user_id) for p in batch} | {("anchor", p.anchor_id) for p in batch}
    whole = sum(len(catalog.users[o].browsed_items if side == "user" else catalog.anchors[o].broadcast_items)
                for side, o in owners)
    model._batch_gradients(catalog, params, config, batch, None)
    pooled = [states for states, w in sources if any(w is x for x in item_w)]
    assert len(pooled) == 2 and pooled[0] is pooled[1]
    assert pooled[0].shape == (len(kept), config.dim) and len(kept) < whole

    gathers = []
    real_lookup = ad.embedding_lookup
    monkeypatch.setattr(ad, "embedding_lookup", lambda *args: gathers.append(1) or real_lookup(*args))
    full = TrainConfig(**DIMS)
    for p in batch:
        ret = naive_co_retrieve(catalog, p.user_id, p.anchor_id, config.co_retrieval_k)
        if not (ret["user_positions"] and ret["anchor_positions"]):
            continue  # an empty side pools through the segment op, not a gather
        counts = []
        for cfg in (config, full):
            gathers.clear()
            forward_pair(catalog, params, cfg, p.user_id, p.anchor_id)
            counts.append(len(gathers))
        assert counts[0] == counts[1], p


@pytest.mark.parametrize("history", [(2, 6), (150, 200)], ids=["short", "past-one-block"])
def test_the_kept_row_block_scores_and_trains_like_the_whole_block(history, monkeypatch):
    # the batched route pools from a gathered block of the kept rows; pooling
    # the whole LSTM block through the same groups gives the same predictions
    # and every leaf the same gradient, with a pair that has no common
    # category (both kept sides empty) and, for long histories, a whole block
    # past one backward block, which the pooling rule walks in row slices
    from liverec import model

    catalog, pairs = _tiny(seed=24, num_users=40, history_len_range=history, num_pairs=120)
    by_category = {}
    for iid, item in sorted(catalog.items.items()):
        by_category.setdefault(item.category, []).append(iid)
    users, anchors = dict(catalog.users), dict(catalog.anchors)
    lone_user, lone_anchor = sorted(users)[0], sorted(anchors)[0]
    users[lone_user] = replace(users[lone_user], browsed_items=tuple(by_category[0][:4]))
    anchors[lone_anchor] = replace(anchors[lone_anchor], broadcast_items=tuple(by_category[1][:5]))
    catalog = _link_catalog(users, anchors, catalog.items)
    batch = [LabeledPair(lone_user, lone_anchor, 1)] + pairs[:80]
    config = TrainConfig(variant="with_co_retrieval", co_retrieval_k=3, **{**DIMS, "dropout": 0.5})
    params = _params(catalog, config, seed=5)
    prng = np.random.default_rng(9)
    for _, arr in params.named_arrays():
        arr += prng.uniform(-0.3, 0.3, size=arr.shape)
    ids = [p.user_id for p in batch], [p.anchor_id for p in batch]

    def run():
        preds, budgets = model._predict(catalog, params, config, *ids)
        return preds.data, budgets, model._batch_gradients(catalog, params, config, batch, stream_rng(0, "dropout"))

    compact = run()
    rows = []
    real = model.item_aspect_interaction
    monkeypatch.setattr(model, "item_aspect_interaction", lambda states, *rest: rows.append(states.shape[0]) or real(states, *rest))
    monkeypatch.setattr(model, "_gather_kept", lambda states, users, anchors: (states, users, anchors))
    whole = run()
    assert compact[1][0] == 0 and (compact[1] > 0).any()
    np.testing.assert_array_equal(compact[1], whole[1])
    if history == (150, 200):
        assert min(rows) > ad._BLOCK_ROWS
    np.testing.assert_allclose(compact[0], whole[0], rtol=0, atol=1e-12)
    (data_c, loss_c, grads_c), (data_w, loss_w, grads_w) = compact[2], whole[2]
    assert data_c == pytest.approx(data_w, abs=1e-12) and loss_c == pytest.approx(loss_w, abs=1e-12)
    for (name, _), g, w in zip(params.named_arrays(), grads_c, grads_w, strict=True):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=name)


def test_clipping_sums_the_squared_norms_left_to_right():
    # squared norms of 1e16, 1 and 1 sum to 1e16 left to right and to 1e16 + 2
    # compensated (math.fsum, or sum() from Python 3.12); the clip scale is the
    # left-to-right one on every Python
    from liverec import model

    grads = [np.array([1e8]), np.array([1.0]), np.array([1.0])]
    squares = [float((g * g).sum()) for g in grads]
    left = 0.0
    for s in squares:
        left += s
    scale = model.GRAD_CLIP_NORM / np.sqrt(left)
    assert scale != model.GRAD_CLIP_NORM / np.sqrt(math.fsum(squares))
    clipped = list(grads)
    model._clip_gradients(clipped)
    assert [g.tobytes() for g in clipped] == [(g * scale).tobytes() for g in grads]


def _on_tape_l2_step(catalog, params, config, chunk):
    """A batch's loss and gradients with the L2 penalty recorded on the
    tape: per array a square and a sum, summed in array order, scaled and
    added to the data loss, then one sweep from that root."""
    from liverec.model import _predict

    tape = ad.Tape()
    bound, leaves = params.bind(tape)
    preds, _ = _predict(catalog, bound, config, [p.user_id for p in chunk], [p.anchor_id for p in chunk])
    penalty = None
    for t in leaves:
        sq = ad.reduce_sum(ad.multiply_elementwise(t, t))
        penalty = sq if penalty is None else ad.add(penalty, sq)
    loss = ad.add(ad.log_loss(preds, [p.label for p in chunk], CLAMP), ad.multiply_elementwise(penalty, config.l2_weight))
    grads = ad.backward(tape, loss)
    return float(loss.data), [grads[t.node_id] for t in leaves]


@pytest.mark.parametrize("variant", ["full", "no_item_aspect"])
def test_l2_gradient_added_after_the_sweep_has_the_bits_of_the_on_tape_penalty(variant):
    # each array's data gradient plus 2 * l2_weight * a equals, bit for bit,
    # the sweep through an on-tape penalty; under no_item_aspect the LSTM and
    # item-attention arrays get no data gradient, only the penalty's
    from liverec import model

    catalog, pairs = _edge_catalog(seed=21)
    config = TrainConfig(**{**DIMS, "variant": variant, "l2_weight": 3e-2})
    params = _params(catalog, config, seed=4)
    prng = np.random.default_rng(8)
    for _, arr in params.named_arrays():
        arr += prng.uniform(-0.3, 0.3, size=arr.shape)
    for chunk in (pairs[:2], pairs[:24], pairs):
        _, loss_value, grads = model._batch_gradients(catalog, params, config, chunk, None)
        want_loss, want = _on_tape_l2_step(catalog, params, config, chunk)
        assert loss_value == want_loss
        for (name, _), g, w in zip(params.named_arrays(), grads, want, strict=True):
            assert np.shape(g) == w.shape and np.asarray(g).tobytes() == w.tobytes(), name


def test_forward_unknown_ids():
    catalog, _ = _tiny()
    config = TrainConfig(**DIMS)
    params = _params(catalog, config)
    with pytest.raises(UnknownIdError):
        forward_pair(catalog, params, config, 999, 0)
    with pytest.raises(UnknownIdError) as info:
        forward_pair(catalog, params, config, 0, 999)
    assert str(info.value) == "unknown anchor id 999"


def test_forward_pair_raises_on_a_non_finite_score():
    catalog, pairs = _tiny(seed=17)
    config = TrainConfig(**DIMS)
    params = _params(catalog, config)
    params.mlp.w2[0] = np.nan
    pair = pairs[0]
    with pytest.raises(NonFiniteScoreError) as info:
        forward_pair(catalog, params, config, pair.user_id, pair.anchor_id)
    assert (info.value.user_id, info.value.anchor_id) == (pair.user_id, pair.anchor_id)
    assert np.isnan(info.value.score)


def test_dropout_mask_semantics():
    from liverec.model import _dropout_mask

    config = TrainConfig(**{**DIMS, "dim": 2000, "dropout": 0.3})
    mask = _dropout_mask(config, np.random.default_rng(2), 1)
    keep = 1.0 - config.dropout
    assert mask.shape == (1, 3 * config.dim)
    assert set(np.unique(mask)) == {0.0, 1.0 / keep}
    assert abs(float(np.mean(mask == 0.0)) - config.dropout) < 0.03
    assert _dropout_mask(config, None, 1) is None
    assert _dropout_mask(replace(config, dropout=0.0), np.random.default_rng(2), 1) is None


def test_one_dropout_block_equals_one_draw_per_pair():
    # a batch draws its (B, 3d) masks at once; pair by pair, from the same
    # stream, gives the same masks in the same order
    from liverec.model import _dropout_mask

    config = TrainConfig(**{**DIMS, "dropout": 0.4})
    block = _dropout_mask(config, stream_rng(3, "dropout"), 25)
    rng = stream_rng(3, "dropout")
    rows = [_dropout_mask(config, rng, 1) for _ in range(25)]
    assert block.shape == (25, 3 * config.dim)
    np.testing.assert_array_equal(block, np.concatenate(rows))


def test_dropout_applies_in_training_only():
    from liverec.model import _batch_gradients

    catalog, pairs = _tiny()
    on = TrainConfig(**{**DIMS, "dropout": 0.5})
    off = replace(on, dropout=0.0)
    params = _params(catalog, on)
    losses = [_batch_gradients(catalog, params, c, pairs[:16], stream_rng(on.seed, "dropout"))[0]
              for c in (on, off)]
    assert losses[0] != losses[1]
    reports = [evaluate_pairs(catalog, params, c, pairs) for c in (on, off)]
    metrics = [(r.auc, r.acc, r.logloss) for r in reports]
    assert metrics[0] == metrics[1]
    for p in pairs[:10]:
        assert (forward_pair(catalog, params, on, p.user_id, p.anchor_id)
                == forward_pair(catalog, params, off, p.user_id, p.anchor_id))


# ---------------------------------------------------------------------------
# a batch's training loss: `autodiff.log_loss` with the metrics' clamp


def test_batch_loss_at_half_is_n_ln2():
    n = 9
    preds = ad.Tensor(np.full(n, 0.5))
    loss = ad.log_loss(preds, [1, 0, 1, 0, 1, 0, 1, 0, 1], CLAMP)
    assert float(loss.data) == pytest.approx(n * math.log(2), abs=1e-12)


def test_batch_loss_perfect_predictions_clamped():
    preds = ad.Tensor(np.array([1.0, 0.0]))
    loss = ad.log_loss(preds, [1, 0], CLAMP)
    assert float(loss.data) == pytest.approx(2e-7, rel=1e-6)


def test_batch_loss_hand_value():
    preds = ad.Tensor(np.array([0.9, 0.2]))
    loss = ad.log_loss(preds, [1, 0], CLAMP)
    assert float(loss.data) == pytest.approx(-(math.log(0.9) + math.log(0.8)), abs=1e-12)
    assert float(loss.data) == pytest.approx(0.3285, abs=1e-4)


def test_batch_loss_length_mismatch():
    with pytest.raises(ValueError, match="log_loss: incompatible shapes"):
        ad.log_loss(ad.Tensor(np.array([0.5])), [1, 0], CLAMP)


# ---------------------------------------------------------------------------
# training loop


def test_train_zero_lr_leaves_params_unchanged():
    catalog, pairs = _tiny()
    config = TrainConfig(dim=6, epochs=1, batch_size=len(pairs), lr_start=0.0, lr_end=0.0,
                         dropout=0.0, l2_weight=1e-4)
    params, rows = train(catalog, pairs, config)
    fresh = init_model_params(catalog, config, stream_rng(config.seed, "init"))
    for (_, a), (_, b) in zip(params.named_arrays(), fresh.named_arrays()):
        np.testing.assert_array_equal(a, b)
    assert len(rows) == 1


def test_lr_schedule_geometric():
    config = TrainConfig(lr_start=1e-2, lr_end=1e-6, epochs=5)
    rates = [lr_schedule(config, e) for e in range(5)]
    np.testing.assert_allclose(rates, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6], rtol=1e-9)


def test_lr_schedule_single_epoch():
    assert lr_schedule(TrainConfig(lr_start=1e-2, lr_end=1e-6, epochs=1), 0) == 1e-2


def test_train_deterministic():
    catalog, pairs = _tiny(seed=7)
    config = TrainConfig(dim=6, epochs=3, batch_size=16, dropout=0.3, seed=11)
    pa, ra = train(catalog, pairs, config)
    pb, rb = train(catalog, pairs, config)
    for (_, a), (_, b) in zip(pa.named_arrays(), pb.named_arrays()):
        np.testing.assert_array_equal(a, b)
    assert all(abs(x.train_loss - y.train_loss) <= 1e-12 for x, y in zip(ra, rb))


@pytest.mark.parametrize("field, value", [("dim", 0), ("dim", -2), ("batch_size", 0), ("epochs", 0), ("epochs", -1),
                                          ("co_retrieval_k", 0), ("co_retrieval_k", -1)])
def test_train_rejects_a_size_below_one_before_any_work(monkeypatch, field, value):
    from liverec import model

    catalog, pairs = _tiny()
    monkeypatch.setattr(model, "init_model_params", lambda *a: pytest.fail("parameters were drawn"))
    with pytest.raises(ValueError, match=rf"train: {field} must be at least 1, got {value}$"):
        train(catalog, pairs, replace(TrainConfig(dim=6), **{field: value}))


@pytest.mark.parametrize("field, settings", [
    ("lr_start", {"lr_start": float("nan")}), ("lr_start", {"lr_start": float("inf")}),
    ("lr_start", {"lr_start": -0.5, "lr_end": -1.0}), ("lr_end", {"lr_end": float("nan")}),
    ("lr_end", {"lr_end": -1e-6}), ("l2_weight", {"l2_weight": float("nan")}),
    ("l2_weight", {"l2_weight": -1.0}), ("l2_weight", {"l2_weight": float("inf")}),
])
def test_train_rejects_a_bad_rate_or_l2_weight_before_any_work(monkeypatch, field, settings):
    # NaN or a negative L2 weight trained with L2 silently off, a NaN or
    # infinite rate returned NaN parameters, a negative one ascended the loss
    from liverec import model

    catalog, pairs = _tiny()
    monkeypatch.setattr(model, "init_model_params", lambda *a: pytest.fail("parameters were drawn"))
    with pytest.raises(ValueError, match=rf"^train: {field} must be finite and at least 0, got {settings[field]}$"):
        train(catalog, pairs, replace(TrainConfig(dim=6), **settings))


def test_train_accepts_zero_rates_and_l2_weight():
    catalog, pairs = _tiny()
    params, rows = train(catalog, pairs, TrainConfig(dim=6, epochs=2, lr_start=0.0, lr_end=0.0, l2_weight=0.0))
    assert [r.lr for r in rows] == [0.0, 0.0] and all(np.isfinite(r.train_loss) for r in rows)


@pytest.mark.parametrize("kind", ["user", "anchor", "item"])
def test_train_rejects_an_embedding_table_past_the_row_bound_before_any_work(monkeypatch, kind):
    # a slot's vocabulary is its largest feature value + 1, so one feature of
    # 2**40 asks for a table of 2**40 + 1 rows, besides the other slots' rows
    from liverec import model

    catalog, pairs = _tiny()
    vocab = catalog.vocab(kind)
    huge = replace(catalog, **{f"{kind}_vocab": vocab[:-1] + (2**40 + 1,)})
    rows = sum(vocab[:-1]) + 2**40 + 1
    monkeypatch.setattr(model, "init_model_params", lambda *a: pytest.fail("parameters were drawn"))
    with pytest.raises(ValueError, match=rf"train: the {kind} embedding table would have {rows} rows, "
                                         rf"more than {MAX_TABLE_ROWS};"):
        train(huge, pairs, TrainConfig(dim=6))


def test_train_accepts_an_embedding_table_at_the_row_bound(monkeypatch):
    from liverec import model

    catalog, pairs = _tiny()
    at_bound = replace(catalog, item_vocab=catalog.item_vocab[:-1] + (MAX_TABLE_ROWS - sum(catalog.item_vocab[:-1]),))

    class Drawn(Exception):
        pass

    def draw(*args):
        raise Drawn

    monkeypatch.setattr(model, "init_model_params", draw)
    with pytest.raises(Drawn):  # past the check, and stopped before a 2**24-row table is drawn
        train(at_bound, pairs, TrainConfig(dim=6))


def test_evaluate_pairs_rejects_no_pairs():
    catalog, _ = _tiny()
    config = TrainConfig(dim=6)
    with pytest.raises(ValueError, match="^evaluate_pairs: no pairs to score$"):
        evaluate_pairs(catalog, _params(catalog, config), config, [])


def test_train_empty_split_rejected():
    catalog, _ = _tiny()
    with pytest.raises(ValueError, match="empty"):
        train(catalog, [], TrainConfig(dim=6))


def test_train_nan_divergence_aborts_with_batch_index():
    catalog, pairs = _tiny()
    # an absurd learning rate overflows activations within a batch or two
    config = TrainConfig(dim=6, epochs=3, batch_size=16, dropout=0.0,
                         lr_start=1e150, lr_end=1e150, l2_weight=0.0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match=r"batch \d+"):
        import warnings

        warnings.simplefilter("ignore", RuntimeWarning)
        train(catalog, pairs, config)


def test_l2_shrinks_parameters_without_data_signal():
    # predictions pinned past the clamp with matching labels give zero data
    # gradient, leaving only the L2 pull: nonzero norms strictly decrease
    catalog, _ = _tiny()
    config = TrainConfig(dim=6, epochs=1, batch_size=8, dropout=0.0,
                         lr_start=1e-2, lr_end=1e-2, l2_weight=1e-2)
    params = init_model_params(catalog, config, stream_rng(0, "init"))
    np.asarray(params.mlp.b2)[()] = 100.0  # sigmoid saturates to 1.0, past the clamp
    batch = [LabeledPair(u, 0, 1) for u in list(catalog.users)[:8]]

    from liverec.model import _batch_gradients

    norms = lambda: [np.linalg.norm(a) for _, a in params.named_arrays()]
    previous = norms()
    for _ in range(3):
        data_value, _, grads = _batch_gradients(catalog, params, config, batch, None)
        assert data_value == pytest.approx(8 * 1.00000005e-7, rel=1e-3)  # at the clamp
        for (_, arr), g in zip(params.named_arrays(), grads):
            arr -= 1e-2 * g
        current = norms()
        for before, after in zip(previous, current):
            if before > 0:
                assert after < before
            else:
                assert after == 0.0
        previous = current


def test_variant_ignores_unused_attention_params():
    catalog, pairs = _tiny(seed=9)
    for variant, unused in (("no_item_aspect", ("item_user", "item_anchor")), ("no_anchor_aspect", ("browsed",))):
        config = TrainConfig(variant=variant, **DIMS)
        params = _params(catalog, config, seed=2)
        base = [forward_pair(catalog, params, config, p.user_id, p.anchor_id) for p in pairs[:10]]
        rng = np.random.default_rng(123)
        for name in unused:
            getattr(params.attn, name)[:] = rng.normal(size=config.dim)
        changed = [forward_pair(catalog, params, config, p.user_id, p.anchor_id) for p in pairs[:10]]
        assert base == changed


def test_every_stored_parameter_gets_a_data_gradient():
    # a stored array the forward never reads would only be moved by L2
    from liverec.model import _batch_gradients

    catalog, pairs = _tiny(seed=9)
    config = TrainConfig(dim=6, dropout=0.0, l2_weight=0.0)
    params = _params(catalog, config, seed=2)
    _, _, grads = _batch_gradients(catalog, params, config, pairs, None)
    for (name, _), g in zip(params.named_arrays(), grads, strict=True):
        assert np.any(g != 0.0), name


def test_with_co_retrieval_equals_full_when_everything_shared():
    # single category, histories under the cap: co-retrieval is the identity
    catalog, pairs = _tiny(seed=10, num_categories=1, history_len_range=(1, 5))
    base_cfg = TrainConfig(**DIMS)
    co_cfg = TrainConfig(variant="with_co_retrieval", co_retrieval_k=10, **DIMS)
    params = _params(catalog, base_cfg, seed=3)
    for p in pairs[:15]:
        a = forward_pair(catalog, params, base_cfg, p.user_id, p.anchor_id)
        b = forward_pair(catalog, params, co_cfg, p.user_id, p.anchor_id)
        assert a == pytest.approx(b, abs=1e-15)


def _ragged(catalog, seed):
    """The catalog with items cut to 1-3 feature slots and users to 2-3."""
    rng = np.random.default_rng(seed)
    users = {k: replace(u, features=u.features[: rng.integers(2, 4)]) for k, u in catalog.users.items()}
    items = {k: replace(i, features=i.features[: rng.integers(1, 4)]) for k, i in catalog.items.items()}
    return _link_catalog(users, catalog.anchors, items)


@pytest.mark.parametrize("variant", ["full", "with_co_retrieval"])
def test_ragged_feature_layouts_train_and_score_like_the_reference(variant):
    catalog, pairs = _tiny(seed=12, id_features=True)
    catalog = _ragged(catalog, seed=12)
    assert {len(i.features) for i in catalog.items.values()} == {1, 2, 3}
    assert {len(u.features) for u in catalog.users.values()} == {2, 3}
    config = TrainConfig(variant=variant, dim=6, epochs=2, batch_size=10, dropout=0.2, seed=5, co_retrieval_k=3)
    params, _ = train(catalog, pairs[:30], config)
    test = pairs[30:]
    report = evaluate_pairs(catalog, params, config, test)
    scores = [forward_pair(catalog, params, config, p.user_id, p.anchor_id) for p in test]
    assert report.logloss == compute_logloss(scores, [p.label for p in test])
    for p, got in zip(test, scores):
        assert got == pytest.approx(forward_reference(catalog, params, config, p.user_id, p.anchor_id), abs=1e-12)


def test_position_rows_match_active_positions_on_both_paths():
    # full rows take the vectorised path, a catalog with short rows the
    # per-object one; both give active_positions, padded with -1
    from liverec.encoders import active_positions, field_offsets
    from liverec.model import _position_rows

    catalog, _ = _tiny(seed=12, id_features=True)
    offsets = field_offsets(catalog.item_vocab)
    full = list(catalog.items.values())
    for objects in (full, list(_ragged(catalog, seed=12).items.values())):
        want = [active_positions(o.features, offsets) for o in objects]
        want = [r + [-1] * (len(offsets) - len(r)) for r in want]
        got = _position_rows(objects, offsets)
        assert got.dtype == np.intp and got.tolist() == want
    assert _position_rows([], offsets).shape == (0, len(offsets))
    with pytest.raises(ValueError, match="feature slots"):
        _position_rows(full + [replace(full[0], features=full[0].features + (0,))], offsets)


def test_catalog_that_outgrows_the_trained_layout_raises():
    catalog, _ = _tiny(seed=12)
    config = TrainConfig(**DIMS)
    params = _params(catalog, config)
    vocab = catalog.anchor_vocab
    # one anchor takes a slot-0 value one past the trained vocabulary, which
    # would otherwise read the first row of slot 1
    anchor = catalog.anchors[0]
    grown = replace(anchor, features=(vocab[0],) + anchor.features[1:])
    bigger = _link_catalog(catalog.users, {**catalog.anchors, 0: grown}, catalog.items)
    assert bigger.anchor_vocab == (vocab[0] + 1,) + vocab[1:]
    with pytest.raises(ValueError, match=rf"anchor feature slot 0 has vocabulary {vocab[0] + 1}.* {vocab[0]}"):
        forward_pair(bigger, params, config, 1, 2)


def test_an_empty_history_is_encoded_once_per_context(monkeypatch):
    # every owner of a batch, one without items included, is one sequence
    # of a single batched encoder call, however many pairs it is in
    from liverec import model

    catalog, pairs = _tiny(seed=12)
    uid = pairs[0].user_id
    users = {**catalog.users, uid: replace(catalog.users[uid], browsed_items=())}
    catalog = _link_catalog(users, catalog.anchors, catalog.items)
    batch = [p for p in pairs if p.user_id == uid] * 3 + pairs[:10]
    config = TrainConfig(**DIMS)
    calls = []
    real = model.encode_sequences_batched
    monkeypatch.setattr(model, "encode_sequences_batched", lambda *args: calls.append(args) or real(*args))
    evaluate_pairs(catalog, _params(catalog, config), config, batch)
    owners = {("user", p.user_id) for p in batch} | {("anchor", p.anchor_id) for p in batch}
    assert len(calls) == 1
    assert len(calls[0][0]) == len(owners)
    assert sum(len(m) == 0 for m in calls[0][0]) == 1


def test_each_distinct_history_item_is_pnn_encoded_once(monkeypatch):
    # histories share items; the item PNN sees each distinct one once per
    # batch, not once per history position
    from liverec import encoders, model

    catalog, pairs = _tiny(seed=21, history_len_range=(5, 15))
    config = TrainConfig(**DIMS)
    params = _params(catalog, config)
    item_rows = []
    for module in (model, encoders):
        real = module.pnn_encode_batch

        def spy(kind, positions, pnn, real=real):
            if kind == "item":
                item_rows.append(len(positions))
            return real(kind, positions, pnn)

        monkeypatch.setattr(module, "pnn_encode_batch", spy)
    batch = pairs[:20]
    histories = [catalog.users[u].browsed_items for u in {p.user_id for p in batch}]
    histories += [catalog.anchors[a].broadcast_items for a in {p.anchor_id for p in batch}]
    distinct = len({i for hist in histories for i in hist})
    assert sum(map(len, histories)) > distinct
    evaluate_pairs(catalog, params, config, batch)
    assert item_rows == [distinct]
    item_rows.clear()
    model._batch_gradients(catalog, params, config, batch, None)
    assert item_rows == [distinct]


def test_adam_optimizer_runs_and_is_deterministic():
    catalog, pairs = _tiny(seed=13)
    config = TrainConfig(dim=6, epochs=2, batch_size=25, optimizer="adam", seed=4, dropout=0.0)
    pa, ra = train(catalog, pairs, config)
    pb, rb = train(catalog, pairs, config)
    assert ra[-1].train_loss == rb[-1].train_loss
    assert ra[-1].train_loss < ra[0].train_loss


def test_config_validation():
    with pytest.raises(ValueError, match="variant"):
        TrainConfig(variant="bogus")
    with pytest.raises(ValueError, match="lr_end"):
        TrainConfig(lr_start=1e-4, lr_end=1e-2)
    with pytest.raises(ValueError, match="dropout"):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError, match="threads"):
        TrainConfig(threads=2)
    with pytest.raises(ValueError, match="literal_eq4_product"):
        TrainConfig(literal_eq4_product=True)
    # the SVD++ head has no ablation, so it takes only the full variant
    for variant in ("no_item_aspect", "no_anchor_aspect", "with_co_retrieval"):
        with pytest.raises(ValueError, match=f"svdpp_head=True .* variant must be 'full', got '{variant}'"):
            TrainConfig(variant=variant, svdpp_head=True)
    assert TrainConfig(svdpp_head=True).variant == "full"


def test_the_model_learns_the_planted_signal_and_the_item_aspect_helps():
    # Setting A: 400 users, 60 anchors, 500 items, histories of 5-15, signal
    # 1.5, 6,000 pairs split 0.8/0/0.2; dim 32, batch 200, Adam at a constant
    # 3e-3, no L2, no dropout, 8 epochs; one fixed seed.  Measured test AUCs:
    # the planted category Jaccard, read as a score, 0.821; `full` 0.650;
    # `no_item_aspect` 0.551.  The thresholds sit at about half of each
    # measured margin, so a trainer or kernel change that keeps the model
    # learning passes, and one that loses the learning fails:
    # - `full` beats `no_item_aspect` by at least 0.05 (measured 0.099), the
    #   paper's item-aspect ablation;
    # - `full` lifts AUC over 0.5 by at least a third of the oracle's lift
    #   (measured 0.150 against 0.321, about half of it).
    spec = SyntheticSpec(400, 60, 500, 10, history_len_range=(5, 15), signal_strength=1.5, num_pairs=6000, seed=1)
    catalog, pairs = generate_synthetic(spec)
    train_split, _, test_split = split_dataset(pairs, ratios=(0.8, 0.0, 0.2), seed=1)
    labels = np.array([p.label for p in test_split])
    oracle = compute_auc(np.array([category_jaccard(catalog, p.user_id, p.anchor_id) for p in test_split]), labels)
    auc = {}
    for variant in ("full", "no_item_aspect"):
        config = TrainConfig(variant=variant, dim=32, batch_size=200, optimizer="adam", lr_start=3e-3, lr_end=3e-3,
                             l2_weight=0.0, dropout=0.0, epochs=8, seed=1)
        params, _ = train(catalog, train_split, config)
        auc[variant] = evaluate_pairs(catalog, params, config, test_split).auc
    assert auc["full"] - auc["no_item_aspect"] >= 0.05, auc
    assert auc["full"] - 0.5 >= (oracle - 0.5) / 3, (auc, oracle)


# ---------------------------------------------------------------------------
# end-to-end gradient check on a micro model


def test_full_model_gradients_match_finite_differences():
    catalog, pairs = _tiny(seed=14, num_users=6, num_anchors=3, num_items=10,
                           history_len_range=(1, 3), num_pairs=6)
    config = TrainConfig(dim=4, dropout=0.0, l2_weight=1e-3, batch_size=6)
    params = init_model_params(catalog, config, stream_rng(1, "init"))
    # perturb every array (biases included) so the L2 term gives each
    # coordinate a gradient well above the finite-difference noise floor
    prng = np.random.default_rng(99)
    for _, arr in params.named_arrays():
        arr += prng.uniform(-0.3, 0.3, size=arr.shape)

    from liverec.model import _batch_gradients

    _, _, grads = _batch_gradients(catalog, params, config, pairs, None)
    named = params.named_arrays()
    rng = np.random.default_rng(2)
    eps = 1e-5
    worst = 0.0
    for (name, arr), g in zip(named, grads):
        for _ in range(min(4, arr.size)):
            i = int(rng.integers(arr.size))
            orig = arr.ravel()[i]
            arr.ravel()[i] = orig + eps
            _, up, _ = _batch_gradients(catalog, params, config, pairs, None)
            arr.ravel()[i] = orig - eps
            _, down, _ = _batch_gradients(catalog, params, config, pairs, None)
            arr.ravel()[i] = orig
            num = (up - down) / (2 * eps)
            an = g.ravel()[i]
            worst = max(worst, abs(an - num) / max(abs(an), abs(num), 1e-8))
    assert worst <= 1e-3


def test_full_model_gradients_match_finite_differences_in_small_blocks(monkeypatch):
    # three-row blocks: the LSTM backward sums its gradient rows a step or
    # two at a time, and the pooling backward updates its source in slices
    monkeypatch.setattr(ad, "_BLOCK_ROWS", 3)
    test_full_model_gradients_match_finite_differences()


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_exact(tmp_path):
    catalog, pairs = _tiny(seed=15)
    config = TrainConfig(dim=6, epochs=1, batch_size=25, dropout=0.0)
    params, _ = train(catalog, pairs, config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, config, path)
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == config
    rng = np.random.default_rng(3)
    for _ in range(100):
        uid = int(rng.integers(len(catalog.users)))
        aid = int(rng.integers(len(catalog.anchors)))
        a = forward_pair(catalog, params, config, uid, aid)
        b = forward_pair(catalog, loaded, loaded_cfg, uid, aid)
        assert a == b  # bit-exact


def test_checkpoint_truncated_file(tmp_path):
    catalog, _ = _tiny()
    config = TrainConfig(dim=6)
    params = _params(catalog, config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, config, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 40])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    catalog, _ = _tiny()
    config = TrainConfig(dim=6)
    params = _params(catalog, config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, config, path)
    blob = path.read_bytes()
    head, _, rest = blob.partition(b"\n")
    head = head.replace(b'"version": 3', b'"version": 99')
    path.write_bytes(head + b"\n" + rest)
    with pytest.raises(CheckpointError, match=r"version 99 .*supported versions: 1, 2, 3\)"):
        load_checkpoint(path)


def _write_old(path, params, config, version, gates=None):
    """Write a v1 or v2 checkpoint as their writers laid it out: the PNN
    tables, the LSTM (v1: twelve per-gate arrays named lstm.{w,u,b}{i,f,o,c},
    from ``gates``), the whole attention vectors and biases, then the MLP.
    The blocks and biases the model does not store are non-zero."""
    rng = np.random.default_rng(8)
    d = params.dim
    item_w = np.concatenate([rng.normal(size=d), params.attn.item_user, rng.normal(size=d), params.attn.item_anchor])
    anchor_w = np.concatenate([rng.normal(size=d), params.attn.browsed, rng.normal(size=d)])
    attn = [("attn.item_w", item_w), ("attn.item_b", rng.normal(size=())),
            ("attn.anchor_w", anchor_w), ("attn.anchor_b", rng.normal(size=()))]
    named = params.named_arrays()
    lstm = named[3:6] if version == 2 else [(f"lstm.{m}{g}", gates[m + g]) for m in "wub" for g in "ifoc"]
    named = named[:3] + lstm + attn + named[9:]
    header = {
        "format": "liverec-checkpoint",
        "version": version,
        "config": asdict(config),
        "dim": d,
        "offsets": {k: list(v) for k, v in params.offsets.items()},
        "arrays": [{"name": n, "shape": list(np.shape(a))} for n, a in named],
    }
    body = b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in named)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)


def _v1_gates(d, rng):
    return {m + g: rng.normal(scale=0.5, size=(d,) if m == "b" else (d, d)) for m in "wub" for g in "ifoc"}


def test_checkpoint_v1_loads_to_the_same_model_as_v2(tmp_path):
    catalog, pairs = _tiny(seed=15)
    config = TrainConfig(dim=6, epochs=1, batch_size=25, dropout=0.0)
    params, _ = train(catalog, pairs, config)
    rng = np.random.default_rng(4)
    gates = _v1_gates(config.dim, rng)
    v1 = tmp_path / "v1.ckpt"
    _write_old(v1, params, config, 1, gates)
    p1, c1 = load_checkpoint(v1)
    assert c1 == config
    # the gate order comes from the oracle, which reads the per-gate arrays as written
    xs = rng.normal(size=(5, config.dim))
    got = encode_sequence(ad.Tensor(xs), p1.lstm).data
    np.testing.assert_allclose(got, np.array(lstm_reference(list(xs), gates)), atol=1e-12)
    v2 = tmp_path / "v2.ckpt"
    _write_old(v2, p1, c1, 2)
    v3 = tmp_path / "v3.ckpt"
    save_checkpoint(p1, c1, v3)
    assert json.loads(v3.read_bytes().partition(b"\n")[0])["version"] == 3
    for path in (v2, v3):
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == c1
        for (n1, a1), (n2, a2) in zip(p1.named_arrays(), loaded.named_arrays(), strict=True):
            assert n1 == n2 and np.array_equal(a1, a2)
        for p in pairs[:20]:
            assert forward_pair(catalog, loaded, loaded_cfg, p.user_id, p.anchor_id) == forward_pair(
                catalog, p1, c1, p.user_id, p.anchor_id)


# a v2 checkpoint of a `full` dim-6 model, written by commit ac260c9 (the
# last v2 writer) with its biases set non-zero, its catalog, and the scores
# that commit's forward_pair gave 20 of the catalog's pairs; data/README.md
# tells how they were made
V2_DATA = Path(__file__).parent / "data"


def _read_raw(path):
    """A checkpoint's header and its arrays by name, as stored."""
    head, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    arrays, off = {}, 0
    for spec in header["arrays"]:
        size = math.prod(spec["shape"])
        arrays[spec["name"]] = np.frombuffer(body, "<f8", size, off).reshape(spec["shape"])
        off += size * 8
    return header, arrays


def test_a_checked_in_v2_checkpoint_scores_as_it_did_and_resaves_as_v3(tmp_path):
    header, raw = _read_raw(V2_DATA / "v2_model.ckpt")
    assert header["version"] == 2
    item_w, anchor_w = raw["attn.item_w"].reshape(4, 6), raw["attn.anchor_w"].reshape(3, 6)
    # the dropped blocks and biases are not zero, so a loader that read them would show
    assert np.all(item_w[[0, 2]] != 0) and np.all(anchor_w[[0, 2]] != 0)
    assert raw["attn.item_b"] != 0 and raw["attn.anchor_b"] != 0
    catalog, _ = ingest_logs(V2_DATA / "v2_catalog.jsonl", os.devnull)
    scored = json.loads((V2_DATA / "v2_scores.json").read_text())
    params, config = load_checkpoint(V2_DATA / "v2_model.ckpt")
    np.testing.assert_array_equal(params.attn.item_user, item_w[1])
    np.testing.assert_array_equal(params.attn.item_anchor, item_w[3])
    np.testing.assert_array_equal(params.attn.browsed, anchor_w[1])
    assert [forward_pair(catalog, params, config, u, a) for u, a, _ in scored] == [s for _, _, s in scored]

    v3 = tmp_path / "v3.ckpt"
    save_checkpoint(params, config, v3)
    header, raw = _read_raw(v3)
    assert header["version"] == 3
    assert [n for n in raw if n.startswith("attn.")] == ["attn.item_user", "attn.item_anchor", "attn.browsed"]
    loaded, loaded_cfg = load_checkpoint(v3)
    assert loaded_cfg == config
    for (n1, a1), (n2, a2) in zip(params.named_arrays(), loaded.named_arrays(), strict=True):
        assert n1 == n2 and np.array_equal(a1, a2)
    assert [forward_pair(catalog, loaded, config, u, a) for u, a, _ in scored] == [s for _, _, s in scored]


def _edit(fn):
    """Turn an in-place header edit into one that returns the edited header."""
    def apply(header):
        fn(header)
        return header
    return apply


def _drop(key):
    return _edit(lambda h: h.pop(key))


def _set(path, value):
    def edit(h):
        *outer, last = path
        for k in outer:
            h = h[k]
        h[last] = value
    return _edit(edit)


# each edit returns the new header and leaves the array bytes as saved; each
# is made to a v3 header and to the checked-in v2 one
MALFORMED_HEADERS = {
    "unknown config key": _set(("config", "bogus"), 1),
    "unknown config key set to null": _set(("config", "bogus"), None),
    "config field of the wrong type": _set(("config", "epochs"), "ten"),
    "config value rejected by TrainConfig": _set(("config", "variant"), "nope"),
    "config not an object": _set(("config",), [1, 2]),
    "missing config": _drop("config"),
    "missing arrays": _drop("arrays"),
    "missing dim": _drop("dim"),
    "missing offsets": _drop("offsets"),
    "dim not an int": _set(("dim",), "6"),
    "dim disagrees with config": _set(("dim",), 7),
    "offsets not an object": _set(("offsets",), [0, 1]),
    "offsets missing a kind": _edit(lambda h: h["offsets"].pop("item")),
    "negative offset": _set(("offsets", "user"), [-1]),
    "arrays not a list": _set(("arrays",), {"pnn.user": [1, 6]}),
    "array entry not an object": _set(("arrays", 0), "pnn.user"),
    "array entry without a name": _edit(lambda h: h["arrays"][0].pop("name")),
    "array entry without a shape": _edit(lambda h: h["arrays"][0].pop("shape")),
    "unknown array name": _set(("arrays", 3, "name"), "lstm.zz"),
    "repeated array name": _set(("arrays", 4, "name"), "lstm.w"),
    "v1 array name in a v2 header": _set(("arrays", 3, "name"), "lstm.wi"),
    "missing array name": _edit(lambda h: h["arrays"].pop()),
    "negative array size": _set(("arrays", 0, "shape"), [-2, 6]),
    "float array size": _set(("arrays", 3, "shape"), [6.0, 6.0]),
    "string array size": _set(("arrays", 0, "shape"), ["a", 6]),
    "array of the wrong rank": _set(("arrays", 3, "shape"), [36]),
    "array disagrees with dim": _set(("arrays", 3, "shape"), [6, 5]),
    "attention vector of the wrong size": _set(("arrays", 6, "shape"), [5]),
    "header is a list": lambda h: [h],
    "header is a string": lambda h: "liverec-checkpoint",
    "header is null": lambda h: None,
    "threads not an integer": _set(("config", "threads"), 2.5),
    "threads a string": _set(("config", "threads"), "4"),
}


def _assert_malformed(path, edit):
    """``path`` loads as written, and raises CheckpointError once ``edit`` rewrites its header."""
    load_checkpoint(path)
    head, _, body = path.read_bytes().partition(b"\n")
    path.write_bytes(json.dumps(edit(json.loads(head))).encode("utf-8") + b"\n" + body)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_checkpoint_malformed_header_raises_checkpoint_error(tmp_path, case):
    catalog, _ = _tiny()
    config = TrainConfig(dim=6)
    v3, v2 = tmp_path / "v3.ckpt", tmp_path / "v2.ckpt"
    save_checkpoint(_params(catalog, config), config, v3)
    v2.write_bytes((V2_DATA / "v2_model.ckpt").read_bytes())
    for path in (v3, v2):
        _assert_malformed(path, MALFORMED_HEADERS[case])


V3_MALFORMED = {
    "v2 attention names in a v3 header": _set(("arrays", slice(6, 9)), [
        {"name": "attn.item_w", "shape": [24]}, {"name": "attn.item_b", "shape": []},
        {"name": "attn.anchor_w", "shape": [18]}, {"name": "attn.anchor_b", "shape": []},
    ]),
    "a v2 bias added to a v3 header": _edit(lambda h: h["arrays"].append({"name": "attn.item_b", "shape": []})),
    "an attention vector of the v2 size": _set(("arrays", 6, "shape"), [24]),
    "v3 names under version 2": lambda h: {**h, "version": 2},
    "v3 names under version 1": lambda h: {**h, "version": 1},
}


@pytest.mark.parametrize("case", sorted(V3_MALFORMED))
def test_checkpoint_malformed_v3_header_raises_checkpoint_error(tmp_path, case):
    catalog, _ = _tiny()
    config = TrainConfig(dim=6)
    path = tmp_path / "v3.ckpt"
    save_checkpoint(_params(catalog, config), config, path)
    _assert_malformed(path, V3_MALFORMED[case])


V1_MALFORMED = {
    "v1 names under version 2": lambda h: {**h, "version": 2},
    "v1 names under version 3": lambda h: {**h, "version": 3},
    "version true, which equals 1": lambda h: {**h, "version": True},
    "a v2 block in a v1 header": _set(("arrays", 3), {"name": "lstm.w", "shape": [24, 6]}),
    "a v1 gate of the v2 shape": _set(("arrays", 3, "shape"), [24, 6]),
    "repeated v1 gate": _set(("arrays", 4, "name"), "lstm.wi"),
    "missing v1 gate": _edit(lambda h: h["arrays"].pop(14)),
}


@pytest.mark.parametrize("case", sorted(V1_MALFORMED))
def test_checkpoint_malformed_v1_header_raises_checkpoint_error(tmp_path, case):
    catalog, _ = _tiny()
    config = TrainConfig(dim=6)
    path = tmp_path / "v1.ckpt"
    _write_old(path, _params(catalog, config), config, 1, _v1_gates(6, np.random.default_rng(5)))
    _assert_malformed(path, V1_MALFORMED[case])


def test_checkpoint_any_integer_thread_count_loads_as_one(tmp_path):
    catalog, pairs = _tiny(seed=15)
    config = TrainConfig(dim=6, epochs=1, batch_size=25, dropout=0.0)
    params, _ = train(catalog, pairs, config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, config, path)
    head, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    assert header["config"]["threads"] == 1
    header["config"]["threads"] = 4
    four = tmp_path / "four.ckpt"
    four.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    (p1, c1), (p4, c4) = load_checkpoint(path), load_checkpoint(four)
    assert c4 == c1 and c4.threads == 1
    for p in pairs[:20]:
        assert forward_pair(catalog, p4, c4, p.user_id, p.anchor_id) == forward_pair(catalog, p1, c1, p.user_id, p.anchor_id)


def test_a_checkpoint_that_recorded_the_square_product_raises_checkpoint_error(tmp_path):
    # the anchor-side square product is gone: a header that recorded it
    # fails by naming the field instead of scoring as `full`
    catalog, _ = _tiny()
    config = TrainConfig(dim=6)
    path = tmp_path / "v3.ckpt"
    save_checkpoint(_params(catalog, config), config, path)
    head, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    assert header["version"] == 3 and header["config"]["literal_eq4_product"] is False
    header["config"]["literal_eq4_product"] = True
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    with pytest.raises(CheckpointError, match="literal_eq4_product"):
        load_checkpoint(path)


def test_a_checkpoint_that_recorded_an_svdpp_head_ablation_raises_checkpoint_error(tmp_path):
    # the SVD++ head ignores the variant: a header that pairs them fails by
    # naming both instead of scoring as the plain SVD++ model
    catalog, _ = _tiny()
    config = TrainConfig(dim=6, svdpp_head=True)
    path = tmp_path / "svdpp.ckpt"
    save_checkpoint(_params(catalog, config), config, path)
    head, _, body = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    header["config"]["variant"] = "no_item_aspect"
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    with pytest.raises(CheckpointError, match="bad config in header: svdpp_head=True .* got 'no_item_aspect'"):
        load_checkpoint(path)


def test_checkpoint_variant_honored(tmp_path):
    catalog, pairs = _tiny(seed=16)
    config = TrainConfig(variant="no_item_aspect", **DIMS)
    params, _ = train(catalog, pairs[:30], config)
    path = tmp_path / "ni.ckpt"
    save_checkpoint(params, config, path)
    loaded, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg.variant == "no_item_aspect"
    # behaves as the ablated model: item attention params are irrelevant
    loaded.attn.item_user[:] = 123.0
    loaded.attn.item_anchor[:] = -123.0
    for p in pairs[:5]:
        a = forward_pair(catalog, params, config, p.user_id, p.anchor_id)
        b = forward_pair(catalog, loaded, loaded_cfg, p.user_id, p.anchor_id)
        assert a == pytest.approx(b, abs=0)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_pairs_reports_budget_and_metrics():
    catalog, pairs = _tiny(seed=17)
    config = TrainConfig(**DIMS)
    params = _params(catalog, config)
    report = evaluate_pairs(catalog, params, config, pairs)
    assert report.n_samples == len(pairs)
    assert report.mean_pair_budget > 0
    assert 0 <= report.acc <= 1


def test_evaluate_with_co_retrieval_caps_budget():
    from liverec import model

    catalog, pairs = _tiny(seed=18, history_len_range=(10, 20))
    config = TrainConfig(variant="with_co_retrieval", co_retrieval_k=3, **DIMS)
    params = _params(catalog, config)
    _, budgets = model._predict(catalog, params, config, [p.user_id for p in pairs], [p.anchor_id for p in pairs])
    assert len(budgets) == len(pairs)
    assert max(budgets) <= 9


@pytest.mark.parametrize("variant", ["full", "with_co_retrieval", "no_item_aspect"])
def test_evaluate_pairs_mean_pair_budget(variant):
    # M*N over the full histories, the kept rows' product under co-retrieval, 0 without the item aspect
    catalog, pairs = _tiny(seed=18, history_len_range=(10, 20))
    config = TrainConfig(variant=variant, co_retrieval_k=3, **DIMS)
    report = evaluate_pairs(catalog, _params(catalog, config), config, pairs)
    if variant == "full":
        budgets = [len(catalog.users[p.user_id].browsed_items) * len(catalog.anchors[p.anchor_id].broadcast_items)
                   for p in pairs]
    elif variant == "with_co_retrieval":
        kept = [naive_co_retrieve(catalog, p.user_id, p.anchor_id, 3) for p in pairs]
        budgets = [len(k["user_positions"]) * len(k["anchor_positions"]) for k in kept]
        assert 0 in budgets and max(budgets) == 9  # both an empty intersection and a full cap occur
    else:
        budgets = [0]
    assert report.mean_pair_budget == pytest.approx(np.mean(budgets), abs=1e-12)


def test_evaluate_pairs_raises_on_a_non_finite_score():
    # a NaN in one MLP output weight: every score is NaN, and the first pair is named
    catalog, pairs = _tiny(seed=17)
    config = TrainConfig(**DIMS)
    params = _params(catalog, config)
    params.mlp.w2[0] = np.nan
    with pytest.raises(NonFiniteScoreError) as info:
        evaluate_pairs(catalog, params, config, pairs)
    err = info.value
    assert isinstance(err, ValueError)
    assert (err.user_id, err.anchor_id) == (pairs[0].user_id, pairs[0].anchor_id)
    assert f"user {pairs[0].user_id}, anchor {pairs[0].anchor_id}" in str(err)
    # a later pair: a NaN in the embedding row of a user feature no earlier pair has
    row_of = {p.user_id: params.offsets["user"][0] + catalog.users[p.user_id].features[0] for p in pairs}
    k = next(k for k in range(1, len(pairs)) if row_of[pairs[k].user_id] not in
             {row_of[p.user_id] for p in pairs[:k]})
    params = _params(catalog, config)
    params.pnn.user[row_of[pairs[k].user_id]] = np.nan
    with pytest.raises(NonFiniteScoreError) as info:
        evaluate_pairs(catalog, params, config, pairs)
    assert (info.value.user_id, info.value.anchor_id) == (pairs[k].user_id, pairs[k].anchor_id)
