"""End-to-end model: forward pass, loss, training loop, checkpoints.

The prediction for a (user, anchor) pair is
``sigmoid(mlp([y_e, y_i, y_a]))`` over the three interaction signals.
Ablation variants replace one signal with a zero vector
(``no_item_aspect`` / ``no_anchor_aspect``) or run the item-aspect
attention over co-retrieved histories only (``with_co_retrieval``, both
in training and inference).

A batch of pairs is scored as one graph (`_predict`).  Each signal is a
product of a user-side and an anchor-side vector that depends on one
owner alone: ``y_e = e_u * e_a``, ``y_i = P_u * Q_a`` and
``y_a = A_u * e_a``, where ``P_u``, ``Q_a`` and ``A_u`` pool one owner's
rows with its own softmax.  So every distinct user, anchor and history
item is PNN-encoded once, every item history goes through one batched
LSTM, each side's owners are pooled by one segment-attention node, one
row per pair is gathered, and the MLP runs on one (B, 3d) block.  The
tape holds a fixed number of nodes whatever the batch size and history
lengths.
Under ``with_co_retrieval`` a pooled group is one pair's kept rows.
Training, ``evaluate_pairs`` and ``forward_pair`` (a batch of one, which
encodes its two histories alone) all take this path.  On the batched
route, where both sides share the packed LSTM block, the rows either side
keeps are gathered once into one compact block, and both item-aspect
poolings walk that block alone, forward and backward, not the whole LSTM
block; the gather adds their gradient rows back into the LSTM's.

The attention weights are the three (d,) blocks of the paper's logit
vectors that score pooled rows (`AttentionParams`); the blocks and biases
every candidate of a softmax shares would cancel in it, so they are not
parameters.

Training is plain mini-batch gradient descent with a geometric per-epoch
learning-rate decay, dense L2 on every parameter, global-norm gradient
clipping at 10, and inverted dropout on the MLP input.  The backward sweep
runs from the data loss alone; the L2 penalty's gradient ``2 * l2_weight *
a`` is added to each array's gradient after it, before clipping.
Everything is deterministic given the seed; see `liverec.seeding` for the
stream split.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from itertools import chain
from math import isfinite, prod

import numpy as np

from . import autodiff as ad
from . import encoders
from .autodiff import Tape, Tensor
from .data import Catalog
from .encoders import (
    LstmParams,
    PnnEncoderParams,
    active_positions,
    encode_sequence,
    encode_sequences_batched,
    field_offsets,
    init_lstm_params,
    init_pnn_params,
    pnn_encode_batch,
)
from .interaction import (
    Segments,
    anchor_aspect_interaction,
    embed_similarity,
    item_aspect_interaction,
    svdpp_similarity,
)
from .metrics import CLAMP, EvalReport, make_report
from .retrieval import co_retrieve
from .seeding import stream_rng

# not called here: perfbench's tracer finds the encoders.pnn layer by
# wrapping pnn_encode and pnn_encode_batch on this module by name
pnn_encode = encoders.pnn_encode

VARIANTS = ("full", "no_item_aspect", "no_anchor_aspect", "with_co_retrieval")

CHECKPOINT_FORMAT = "liverec-checkpoint"
CHECKPOINT_VERSION = 3
# v1 files store the LSTM as one (d, d) matrix or (d,) bias per gate, named
# lstm.{w,u,b}{i,f,o,c}; the loader stacks them into v2's blocks in this order
_V1_GATES = "ifoc"

GRAD_CLIP_NORM = 10.0
# the most rows `train` gives one embedding table: a feature value indexes a
# row, so one value of 2**40 would ask for a 32 TiB table at dim 4; at dim 32
# this bound is already 4 GiB of float64 per table
MAX_TABLE_ROWS = 2**24


class UnknownIdError(KeyError):
    """A user or anchor id does not resolve in the catalog."""

    # a KeyError's str() quotes its argument; this one is a message
    __str__ = Exception.__str__


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; names the offending batch."""

    def __init__(self, batch_index: int):
        self.batch_index = batch_index
        super().__init__(f"non-finite loss in batch {batch_index}; aborting")


class CheckpointError(ValueError):
    """Checkpoint file is unreadable or from an incompatible version."""


class NonFiniteScoreError(ValueError):
    """A pair scored NaN or infinity; names the first such pair."""

    def __init__(self, user_id: int, anchor_id: int, score: float):
        self.user_id, self.anchor_id, self.score = user_id, anchor_id, score
        super().__init__(f"non-finite score {score!r} for pair (user {user_id}, anchor {anchor_id})")


@dataclass
class TrainConfig:
    variant: str = "full"
    lr_start: float = 1e-2
    lr_end: float = 1e-6
    batch_size: int = 2000
    l2_weight: float = 4e-4
    dropout: float = 0.5  # drop probability on the MLP input concatenation
    dim: int = 64
    co_retrieval_k: int = 10
    epochs: int = 10
    seed: int = 0
    literal_eq4_product: bool = False  # only False is legal; kept so existing configs still construct
    optimizer: str = "sgd"
    svdpp_head: bool = False
    threads: int = 1  # the only legal value; kept so existing configs still construct

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.lr_end > self.lr_start:
            raise ValueError("lr_end must not exceed lr_start")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.threads != 1:
            raise ValueError(f"threads must be 1 (training runs on one thread), got {self.threads!r}")
        if self.literal_eq4_product:
            raise ValueError("literal_eq4_product must be False (the anchor-side square product was removed), "
                             f"got {self.literal_eq4_product!r}")
        if self.svdpp_head and self.variant != "full":
            raise ValueError("svdpp_head=True scores with the dot-product head, which has no ablation: "
                             f"variant must be 'full', got {self.variant!r}")


@dataclass
class AttentionParams:
    """Shared attention weights, one (d,) vector per pooled side.

    The paper's item-aspect logit is ``w . [e_u, h_user, e_a, h_anchor] +
    b`` and its anchor-aspect logit ``w . [e_u, e_browsed, e_target] + b``.
    The static-embedding blocks and the bias are the same for every
    candidate of a softmax and cancel in it, so only the blocks that score
    pooled rows are stored: ``item_user`` scores ``h_user``,
    ``item_anchor`` scores ``h_anchor`` and ``browsed`` scores
    ``e_browsed``.
    """

    item_user: object
    item_anchor: object
    browsed: object


@dataclass
class MlpParams:
    w1: object  # (d, 3d)
    b1: object  # (d,)
    w2: object  # (d,)
    b2: object  # ()


@dataclass
class ModelParams:
    dim: int
    offsets: dict  # kind -> one-hot layout offsets
    pnn: PnnEncoderParams
    lstm: LstmParams
    attn: AttentionParams
    mlp: MlpParams

    def named_arrays(self):
        """Every trainable array exactly once, in a fixed order."""
        out = [
            ("pnn.user", self.pnn.user),
            ("pnn.anchor", self.pnn.anchor),
            ("pnn.item", self.pnn.item),
        ]
        out += [
            ("lstm.w", self.lstm.w),
            ("lstm.u", self.lstm.u),
            ("lstm.b", self.lstm.b),
            ("attn.item_user", self.attn.item_user),
            ("attn.item_anchor", self.attn.item_anchor),
            ("attn.browsed", self.attn.browsed),
            ("mlp.w1", self.mlp.w1),
            ("mlp.b1", self.mlp.b1),
            ("mlp.w2", self.mlp.w2),
            ("mlp.b2", self.mlp.b2),
        ]
        return out

    def bind(self, tape: Tape):
        """Watch every array on a tape; returns (bound params, leaf tensors)."""
        tensors = {name: tape.watch(arr) for name, arr in self.named_arrays()}
        bound = _params_from_arrays(self.dim, self.offsets, tensors)
        leaves = [tensors[name] for name, _ in self.named_arrays()]
        return bound, leaves


def _params_from_arrays(dim: int, offsets: dict, arrays: dict) -> ModelParams:
    return ModelParams(
        dim=dim,
        offsets=offsets,
        pnn=PnnEncoderParams(arrays["pnn.user"], arrays["pnn.anchor"], arrays["pnn.item"]),
        lstm=LstmParams(arrays["lstm.w"], arrays["lstm.u"], arrays["lstm.b"]),
        attn=AttentionParams(arrays["attn.item_user"], arrays["attn.item_anchor"], arrays["attn.browsed"]),
        mlp=MlpParams(arrays["mlp.w1"], arrays["mlp.b1"], arrays["mlp.w2"], arrays["mlp.b2"]),
    )


def init_model_params(catalog: Catalog, config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    d = config.dim
    bound = 1.0 / np.sqrt(d)
    pnn = init_pnn_params(catalog, d, rng)
    lstm = init_lstm_params(d, rng)
    # the paper's whole logit vectors are drawn so that every other array
    # keeps its initial value; only the blocks that score pooled rows are kept
    item_w = rng.uniform(-bound, bound, size=(4, d))
    anchor_w = rng.uniform(-bound, bound, size=(3, d))
    attn = AttentionParams(item_user=item_w[1], item_anchor=item_w[3], browsed=anchor_w[1])
    mlp = MlpParams(
        w1=rng.uniform(-bound, bound, size=(d, 3 * d)),
        b1=np.zeros(d),
        w2=rng.uniform(-bound, bound, size=d),
        b2=np.zeros(()),
    )
    offsets = {kind: field_offsets(catalog.vocab(kind)) for kind in ("user", "anchor", "item")}
    return ModelParams(dim=d, offsets=offsets, pnn=pnn, lstm=lstm, attn=attn, mlp=mlp)


def _item_positions(catalog: Catalog, offsets, owners) -> tuple[np.ndarray, list[np.ndarray]]:
    """The (n, F) one-hot positions of the distinct items in the (side,
    owner id)s' histories in id order, -1 padded, and each history as an
    int array of rows into them, in history order."""
    histories = [
        (catalog.users[oid].browsed_items if side == "user" else catalog.anchors[oid].broadcast_items)
        for side, oid in owners
    ]
    lengths = [len(hist) for hist in histories]
    flat = np.fromiter(chain.from_iterable(histories), dtype=np.intp, count=sum(lengths))
    items, rows = np.unique(flat, return_inverse=True)
    positions = _position_rows([catalog.items[i] for i in items.tolist()], offsets)
    ends = np.cumsum(lengths).tolist()
    return positions, [rows[end - n : end] for n, end in zip(lengths, ends)]


def _item_states(catalog: Catalog, params: ModelParams, users, anchors):
    """Every owner's item states: (user block, user rows, anchor block,
    anchor rows), where rows[k] indexes owner k's states in its side's
    block in history order.  Each distinct item of the batch is
    PNN-encoded once.  All histories go through one packed LSTM and both
    sides share its block, which holds one row per history item of every
    owner, step-major (see `encode_sequences_batched`), so rows[k] is not
    a contiguous range.  One user and one anchor (the single-pair case)
    are each encoded alone from their gathered items, through
    `encode_sequence`, so each side's one rows array is every row of its
    own block, in order."""
    owners = [("user", u) for u in users] + [("anchor", a) for a in anchors]
    positions, histories = _item_positions(catalog, params.offsets["item"], owners)
    pnn, lstm = params.pnn, params.lstm
    if len(users) == len(anchors) == 1:
        items = pnn_encode_batch("item", positions, pnn)
        u_states, a_states = (encode_sequence(ad.embedding_lookup(items, h), lstm) for h in histories)
        u_rows, a_rows = ([np.arange(len(h))] for h in histories)
        return u_states, u_rows, a_states, a_rows
    states, rows = encode_sequences_batched(histories, positions, pnn, lstm)
    return states, rows[: len(users)], states, rows[len(users) :]


def _position_rows(objects, offsets) -> np.ndarray:
    """(n, F) one-hot positions of the objects' features, rows padded with -1."""
    n_fields = len(offsets)
    features = [obj.features for obj in objects]
    if all(len(f) == n_fields for f in features):
        return np.array(features, dtype=np.intp).reshape(len(features), n_fields) + np.array(offsets, dtype=np.intp)
    rows = [active_positions(f, offsets) for f in features]
    return np.array([r + [-1] * (n_fields - len(r)) for r in rows], dtype=np.intp)


def _check_layout(kind: str, vocab, offsets, rows: int) -> None:
    """Raise ValueError when a catalog feature slot outgrows its trained slot.

    A catalog with more slots than the layout fails in ``active_positions``.
    """
    ends = tuple(offsets[1:]) + (rows,)
    for j, (size, start, end) in enumerate(zip(vocab, offsets, ends)):
        if size > end - start:
            raise ValueError(
                f"catalog {kind} feature slot {j} has vocabulary {size}, "
                f"the parameters were trained with {end - start}"
            )


def _dropout_mask(config: TrainConfig, rng: np.random.Generator | None, pairs: int):
    """Inverted-dropout masks (0 or 1/keep) for the MLP input, one (3d,)
    row per pair drawn in pair order; None without an rng or at dropout 0."""
    if rng is None or config.dropout <= 0.0:
        return None
    keep = 1.0 - config.dropout
    return (rng.random((pairs, 3 * config.dim)) < keep) / keep


def _owners(ids):
    """The distinct ids in first-seen order, and each pair's owner row
    (None when every pair has its own owner, in pair order)."""
    owners = list(dict.fromkeys(ids))
    if len(owners) == len(ids):
        return owners, None
    at = {o: k for k, o in enumerate(owners)}
    return owners, np.array([at[i] for i in ids], dtype=np.intp)


def _per_pair(x: Tensor, pair_owner) -> Tensor:
    """Each pair's owner's row of x in one gather; x itself for pair_owner
    None, when pair b owns row b."""
    return x if pair_owner is None else ad.embedding_lookup(x, pair_owner)


def _segments(rows, pair_group=None) -> Segments:
    """One group per row-index array."""
    return Segments(np.concatenate(rows), np.array([len(r) for r in rows], dtype=np.intp), pair_group)


def _predict(catalog: Catalog, params: ModelParams, config: TrainConfig, user_ids, anchor_ids,
             dropout_mask=None):
    """Predictions for a batch of pairs, a (B,) tensor (on the tape the
    parameters are bound to in training), and each pair's item-attention
    budget (M*N, or the kept rows' product under co-retrieval; 0 under
    ``no_item_aspect``; an empty array for the SVD++ head).

    Every distinct user and anchor, and every anchor the users browsed, is
    PNN-encoded once per side, and every owner's item history once, so the
    tape has a fixed number of nodes whatever the batch size: the
    interaction layer pools each owner's rows once and gathers one row per
    pair, and the MLP runs on one (B, 3d) block.  ``dropout_mask`` is the
    (B, 3d) block `_dropout_mask` draws.  Objects with fewer feature slots
    than the layout pad their position rows with -1.  A catalog slot whose
    vocabulary outgrew its trained size raises ValueError, and an unknown
    id UnknownIdError, before anything is encoded.
    """
    for kind in ("user", "anchor", "item"):
        _check_layout(kind, catalog.vocab(kind), params.offsets[kind], params.pnn.table(kind).shape[0])
    for u, a in zip(user_ids, anchor_ids):
        if u not in catalog.users:
            raise UnknownIdError(f"unknown user id {u}")
        if a not in catalog.anchors:
            raise UnknownIdError(f"unknown anchor id {a}")
    users, pair_user = _owners(user_ids)
    anchors, pair_anchor = _owners(anchor_ids)
    browsing = config.variant != "no_anchor_aspect" and not config.svdpp_head
    browsed = [catalog.users[u].browsed_anchors for u in users] if browsing else []
    encoded = list(dict.fromkeys(chain(anchors, *browsed)))  # targets first
    e_anchor = pnn_encode_batch(
        "anchor", _position_rows([catalog.anchors[a] for a in encoded], params.offsets["anchor"]), params.pnn
    )
    e_user = pnn_encode_batch(
        "user", _position_rows([catalog.users[u] for u in users], params.offsets["user"]), params.pnn
    )

    if config.svdpp_head:
        u_states, u_rows, a_states, a_rows = _item_states(catalog, params, users, anchors)
        score = svdpp_similarity(
            e_user, u_states, _segments(u_rows, pair_user),
            e_anchor, a_states, _segments(a_rows, pair_anchor),
        )
        return ad.sigmoid(score), np.zeros(0)

    row = {a: k for k, a in enumerate(encoded)}
    e_target = ad.embedding_lookup(e_anchor, [row[a] for a in anchor_ids])
    y_e = embed_similarity(_per_pair(e_user, pair_user), e_target)

    n_pairs, d = len(user_ids), config.dim
    if config.variant == "no_item_aspect":
        y_i = Tensor(np.zeros((n_pairs, d)))
        budgets = np.zeros(n_pairs)
    else:
        u_states, u_rows, a_states, a_rows = _item_states(catalog, params, users, anchors)
        u_groups, a_groups = _segments(u_rows, pair_user), _segments(a_rows, pair_anchor)
        if config.variant == "with_co_retrieval":
            u_groups, a_groups = _kept_rows(catalog, config, user_ids, anchor_ids, u_groups, a_groups)
            if u_states is a_states:  # the batched route: pool from the kept rows alone
                block, u_groups, a_groups = _gather_kept(u_states, u_groups, a_groups)
                u_states = a_states = block
        y_i = item_aspect_interaction(
            u_states, u_groups, a_states, a_groups, params.attn.item_user, params.attn.item_anchor
        )
        budgets = u_groups.per_pair(u_groups.lengths) * a_groups.per_pair(a_groups.lengths)

    if browsing:
        lengths = [len(hist) for hist in browsed]
        flat = np.fromiter(map(row.__getitem__, chain.from_iterable(browsed)), dtype=np.intp, count=sum(lengths))
        groups = Segments(flat, np.array(lengths, dtype=np.intp), pair_user)
        y_a = anchor_aspect_interaction(e_anchor, groups, e_target, params.attn.browsed)
    else:
        y_a = Tensor(np.zeros((n_pairs, d)))

    z = ad.concat([y_e, y_i, y_a], axis=1)
    if dropout_mask is not None:
        z = ad.multiply_elementwise(z, dropout_mask)
    mlp = params.mlp
    hidden = ad.relu(ad.add(ad.matmul(z, ad.transpose(mlp.w1)), mlp.b1))
    return ad.sigmoid(ad.add(ad.matmul(hidden, mlp.w2), mlp.b2)), budgets


def _kept_rows(catalog: Catalog, config: TrainConfig, user_ids, anchor_ids, users: Segments,
               anchors: Segments) -> tuple[Segments, Segments]:
    """Co-retrieval's groups, one per pair, user side then anchor side.

    ``users`` and ``anchors`` are each side's per-owner groups (an owner's
    rows in history order) with each pair's owner.  ``co_retrieve`` runs
    once per pair, and of the pair's owners' rows each side's group keeps
    those at the retrieved history positions, in history order; a side
    with no common category gets an empty group.
    """
    user_index, anchor_index = catalog.kkv_indices()
    cap = config.co_retrieval_k
    kept = [co_retrieve(user_index, anchor_index, u, a, cap) for u, a in zip(user_ids, anchor_ids)]
    return (_kept_side(users, [r.user_positions for r in kept]),
            _kept_side(anchors, [r.anchor_positions for r in kept]))


def _kept_side(owners: Segments, positions) -> Segments:
    """One group per pair: its owner's rows at ``positions``, indices into
    that owner's history."""
    counts = list(map(len, positions))
    lengths = np.array(counts, dtype=np.intp)
    flat = np.fromiter(chain.from_iterable(positions), dtype=np.intp, count=sum(counts))
    starts = owners.per_pair(np.cumsum(owners.lengths) - owners.lengths)
    return Segments(owners.index[np.repeat(starts, lengths) + flat], lengths)


def _gather_kept(states: Tensor, users: Segments, anchors: Segments) -> tuple[Tensor, Segments, Segments]:
    """The rows of ``states`` that either side's groups read, as one
    gathered block in row order, and both sides' groups re-indexed into
    it.  The poolings then walk these rows alone, forward and backward,
    and the gather adds their gradient rows into ``states``' in one
    step."""
    rows, at = np.unique(np.concatenate([users.index, anchors.index]), return_inverse=True)
    split = users.rows
    return (ad.embedding_lookup(states, rows),
            Segments(at[:split], users.lengths), Segments(at[split:], anchors.lengths))


def forward_pair(catalog: Catalog, params: ModelParams, config: TrainConfig,
                 user_id: int, anchor_id: int) -> float:
    """Predict the browse probability for one pair, as ``evaluate_pairs``
    scores it: deterministic, with no dropout (only ``train`` draws dropout
    masks).  A non-finite score raises NonFiniteScoreError.
    """
    score = float(_predict(catalog, params, config, [user_id], [anchor_id])[0].data[0])
    if not np.isfinite(score):
        raise NonFiniteScoreError(user_id, anchor_id, score)
    return score


def lr_schedule(config: TrainConfig, epoch: int) -> float:
    """Geometric interpolation from lr_start to lr_end across the epochs."""
    if config.epochs <= 1 or config.lr_start == 0.0:
        return config.lr_start
    ratio = (config.lr_end / config.lr_start) ** (1.0 / (config.epochs - 1))
    return config.lr_start * ratio**epoch


@dataclass
class EpochMetrics:
    """One epoch's row; ``val`` is the validation split's report after the
    epoch, None when training has no validation split."""

    epoch: int
    lr: float
    train_loss: float
    val: EvalReport | None
    wall_seconds: float


def _clip_gradients(grads) -> None:
    """Scale the gradients in place to a global norm of at most
    `GRAD_CLIP_NORM`, the squared norms summed left to right."""
    norm_sq = 0.0
    for g in grads:  # from Python 3.12, sum() of floats compensates
        norm_sq += float((g * g).sum())
    norm = np.sqrt(norm_sq)
    if norm > GRAD_CLIP_NORM:
        scale = GRAD_CLIP_NORM / norm
        for i in range(len(grads)):
            grads[i] = grads[i] * scale


def _batch_gradients(catalog, params, config, chunk, dropout_rng):
    """One batch's (data loss, loss, gradients), the gradients in
    ``named_arrays`` order, or None when the loss is not finite.

    The data loss is the batch's summed log loss, the one root of a
    backward sweep over the batch's tape.  The loss adds ``l2_weight``
    times each array's sum of squares, summed in array order; its gradient
    ``2 * l2_weight * a`` is added to each array's data gradient after the
    sweep, so the penalty records no tape node.
    """
    tape = Tape()
    bound, leaves = params.bind(tape)
    mask = _dropout_mask(config, dropout_rng, len(chunk))
    preds, _ = _predict(catalog, bound, config, [p.user_id for p in chunk], [p.anchor_id for p in chunk], mask)
    data = ad.log_loss(preds, [p.label for p in chunk], CLAMP)
    data_value = loss_value = float(data.data)
    arrays = [t.data for t in leaves]
    if config.l2_weight > 0.0:
        penalty = 0.0
        for a in arrays:  # left to right: from Python 3.12, sum() of floats compensates
            penalty += float((a * a).sum())
        loss_value += config.l2_weight * penalty
    if not np.isfinite(loss_value):
        return data_value, loss_value, None
    gmap = ad.backward(tape, data)
    grads = [gmap[t.node_id] for t in leaves]
    if config.l2_weight > 0.0:
        grads = [g + 2.0 * config.l2_weight * a for g, a in zip(grads, arrays)]
    return data_value, loss_value, grads


def check_training(catalog: Catalog, pairs, config: TrainConfig) -> None:
    """Raise ValueError when `train` would refuse these inputs: a ``dim``,
    ``batch_size``, ``epochs`` or ``co_retrieval_k`` below 1, an
    ``lr_start``, ``lr_end`` or ``l2_weight`` that is negative or not
    finite (NaN would turn L2 off or the parameters NaN, a negative rate
    ascend the loss), an embedding table of more than `MAX_TABLE_ROWS` rows
    (the sum of a kind's slot vocabularies), or no training pairs."""
    for name in ("dim", "batch_size", "epochs", "co_retrieval_k"):
        if getattr(config, name) < 1:
            raise ValueError(f"train: {name} must be at least 1, got {getattr(config, name)}")
    for name in ("lr_start", "lr_end", "l2_weight"):
        value = getattr(config, name)
        if not (isfinite(value) and value >= 0.0):
            raise ValueError(f"train: {name} must be finite and at least 0, got {value}")
    for kind in ("user", "anchor", "item"):
        rows = sum(catalog.vocab(kind))
        if rows > MAX_TABLE_ROWS:
            raise ValueError(f"train: the {kind} embedding table would have {rows} rows, "
                             f"more than {MAX_TABLE_ROWS}; a feature value indexes a table row")
    if not pairs:
        raise ValueError("train: empty training split")


def train(catalog: Catalog, pairs, config: TrainConfig, val_pairs=None):
    """Run the training loop; returns (params, per-epoch metrics rows).

    Batches are sampled without replacement, reshuffled each epoch from
    the seed's shuffle stream.  Two runs with the same inputs and config
    produce identical parameters and metrics.  Inputs that
    `check_training` refuses raise ValueError before any work.
    """
    check_training(catalog, pairs, config)
    rng_init = stream_rng(config.seed, "init")
    params = init_model_params(catalog, config, rng_init)
    rng_shuffle = stream_rng(config.seed, "shuffle")
    rng_dropout = stream_rng(config.seed, "dropout")

    adam_m = adam_v = None
    adam_t = 0
    if config.optimizer == "adam":
        adam_m = [np.zeros_like(a) for _, a in params.named_arrays()]
        adam_v = [np.zeros_like(a) for _, a in params.named_arrays()]

    rows: list[EpochMetrics] = []
    n = len(pairs)
    global_batch = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        lr = lr_schedule(config, epoch)
        order = rng_shuffle.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            chunk = [pairs[int(i)] for i in order[start : start + config.batch_size]]
            data_value, loss_value, grads = _batch_gradients(catalog, params, config, chunk, rng_dropout)
            if grads is None:
                raise TrainingDiverged(global_batch)
            _clip_gradients(grads)
            arrays = [a for _, a in params.named_arrays()]
            if config.optimizer == "sgd":
                for arr, g in zip(arrays, grads):
                    arr -= lr * g
            else:
                adam_t += 1
                b1, b2, eps = 0.9, 0.999, 1e-8
                for i, (arr, g) in enumerate(zip(arrays, grads)):
                    adam_m[i] = b1 * adam_m[i] + (1 - b1) * g
                    adam_v[i] = b2 * adam_v[i] + (1 - b2) * g * g
                    mhat = adam_m[i] / (1 - b1**adam_t)
                    vhat = adam_v[i] / (1 - b2**adam_t)
                    arr -= lr * mhat / (np.sqrt(vhat) + eps)
            loss_sum += data_value
            global_batch += 1
        train_loss = loss_sum / n
        val = evaluate_pairs(catalog, params, config, val_pairs) if val_pairs else None
        rows.append(EpochMetrics(epoch, lr, train_loss, val, time.perf_counter() - t0))
    return params, rows


def evaluate_pairs(catalog: Catalog, params: ModelParams, config: TrainConfig, pairs) -> EvalReport:
    """Score pairs in eval mode and compute the offline metrics.

    The report's ``mean_pair_budget`` is the mean item-attention pair
    count over the pairs (M*N, or the kept rows' product under
    co-retrieval; 0 for an empty side, under ``no_item_aspect`` and for
    the SVD++ head).  A non-finite score (from non-finite parameters, say)
    raises NonFiniteScoreError naming the first such pair instead of
    entering the metrics.  No pairs raises ValueError.
    """
    if not pairs:
        raise ValueError("evaluate_pairs: no pairs to score")
    t0 = time.perf_counter()
    preds, budgets = _predict(catalog, params, config, [p.user_id for p in pairs], [p.anchor_id for p in pairs])
    scores = preds.data.tolist()
    finite = np.isfinite(preds.data)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NonFiniteScoreError(pairs[bad].user_id, pairs[bad].anchor_id, scores[bad])
    labels = [p.label for p in pairs]
    return make_report(
        scores, labels,
        mean_pair_budget=float(np.mean(budgets)) if budgets.size else 0.0,
        wall_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(params: ModelParams, config: TrainConfig, path) -> None:
    """JSON header line, then raw little-endian float64 arrays in order."""
    named = params.named_arrays()
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "dim": params.dim,
        "offsets": {k: list(v) for k, v in params.offsets.items()},
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in named],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for _, a in named:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _array_shapes(dim: int, version: int) -> dict[str, tuple]:
    """The shape each array of a v1, v2 or v3 checkpoint must have; None
    is a table's free row count."""
    shapes = {f"pnn.{kind}": (None, dim) for kind in ("user", "anchor", "item")}
    if version == 1:
        shapes.update({f"lstm.{m}{g}": (dim, dim) for m in "wu" for g in _V1_GATES})
        shapes.update({f"lstm.b{g}": (dim,) for g in _V1_GATES})
    else:
        shapes.update({"lstm.w": (4 * dim, dim), "lstm.u": (4 * dim, dim), "lstm.b": (4 * dim,)})
    if version < 3:
        shapes.update({"attn.item_w": (4 * dim,), "attn.item_b": (), "attn.anchor_w": (3 * dim,), "attn.anchor_b": ()})
    else:
        shapes.update({"attn.item_user": (dim,), "attn.item_anchor": (dim,), "attn.browsed": (dim,)})
    shapes.update({"mlp.w1": (dim, 3 * dim), "mlp.b1": (dim,), "mlp.w2": (dim,), "mlp.b2": ()})
    return shapes


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _parse_header(header) -> tuple[int, TrainConfig, int, dict, list]:
    """Validate a decoded v1, v2 or v3 header; returns (version, config,
    dim, offsets, array specs).  The array names must be those of the
    header's own version."""
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a {CHECKPOINT_FORMAT} file")
    version = header.get("version")
    if type(version) is not int or not 1 <= version <= CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {version!r} is not supported (supported versions: 1, 2, 3)")
    for key, kind, json_kind in (("config", dict, "object"), ("dim", int, "integer"),
                                 ("offsets", dict, "object"), ("arrays", list, "array")):
        if type(header.get(key)) is not kind:
            raise CheckpointError(f"header field {key!r} is missing or not a JSON {json_kind}")
    defaults = asdict(TrainConfig())
    for key, value in header["config"].items():
        kind = type(defaults[key]) if key in defaults else None
        if kind is None or not (type(value) is kind or (kind is float and type(value) is int)):
            raise CheckpointError(f"config field {key!r} is unknown or has a bad value {value!r}")
    try:
        # v1 headers may record any integer thread count; training now runs on one
        config = TrainConfig(**{**header["config"], "threads": 1})
    except ValueError as exc:
        raise CheckpointError(f"bad config in header: {exc}") from None
    dim = header["dim"]
    if dim < 1 or config.dim != dim:
        raise CheckpointError(f"header dim {dim} must be positive and equal config dim {config.dim}")
    offsets = header["offsets"]
    if set(offsets) != {"user", "anchor", "item"} or not all(
        isinstance(v, list) and all(_is_count(x) for x in v) for v in offsets.values()
    ):
        raise CheckpointError("header offsets must list non-negative ints for user, anchor and item")
    want = _array_shapes(dim, version)
    specs = []
    for spec in header["arrays"]:
        name = spec.get("name") if isinstance(spec, dict) else None
        shape = spec.get("shape") if isinstance(spec, dict) else None
        expected = want.pop(name, False) if isinstance(name, str) else False
        if expected is False:
            raise CheckpointError(f"unknown or repeated array entry {spec!r}")
        if not (isinstance(shape, list) and len(shape) == len(expected)
                and all(_is_count(n) and e in (None, n) for n, e in zip(shape, expected))):
            raise CheckpointError(f"array {name} has shape {shape!r}, expected {expected}")
        specs.append((name, tuple(shape)))
    if want:
        raise CheckpointError(f"header lists no array {sorted(want)[0]}")
    return version, config, dim, {k: tuple(v) for k, v in offsets.items()}, specs


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig]:
    """Read a file written by save_checkpoint.

    Reads v1, v2 or v3, and upgrades an old file here, once: a v1 file's
    twelve per-gate LSTM arrays are stacked into the v2 blocks, and a v1 or
    v2 file's whole attention vectors are cut to the three (d,) blocks of
    `AttentionParams`; their other blocks and the biases are dropped.  A
    file that is not a well-formed checkpoint of its version raises
    CheckpointError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise CheckpointError("no header line found")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable header: {exc}") from None
    version, config, dim, offsets, specs = _parse_header(header)
    body = blob[nl + 1 :]
    arrays = {}
    off = 0
    for name, shape in specs:
        nbytes = prod(shape) * 8
        if off + nbytes > len(body):
            raise CheckpointError(f"truncated checkpoint: array {name} is incomplete")
        arrays[name] = np.frombuffer(body[off : off + nbytes], dtype="<f8").reshape(shape).copy()
        off += nbytes
    if off != len(body):
        raise CheckpointError(f"{len(body) - off} trailing bytes after arrays")
    if version == 1:
        for m in "wub":
            arrays[f"lstm.{m}"] = np.concatenate([arrays.pop(f"lstm.{m}{g}") for g in _V1_GATES])
    if version < 3:
        item_w, anchor_w = arrays["attn.item_w"].reshape(4, dim), arrays["attn.anchor_w"].reshape(3, dim)
        arrays.update({"attn.item_user": item_w[1], "attn.item_anchor": item_w[3], "attn.browsed": anchor_w[1]})
    params = _params_from_arrays(dim, offsets, arrays)
    return params, config


def write_metrics_csv(rows, path, include_timing: bool = False) -> None:
    """Per-epoch metrics CSV.

    The wall_seconds column is written as 0.000 unless timing is opted in,
    so identical runs produce byte-identical files.
    """

    def fmt(v):
        return "" if v is None else repr(float(v))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("epoch,lr,train_loss,val_auc,val_acc,val_logloss,wall_seconds\n")
        for r in rows:
            wall = f"{r.wall_seconds:.3f}" if include_timing else "0.000"
            val = (r.val.auc, r.val.acc, r.val.logloss) if r.val else (None, None, None)
            fh.write(f"{r.epoch},{fmt(r.lr)},{fmt(r.train_loss)},{','.join(map(fmt, val))},{wall}\n")
