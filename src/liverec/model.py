"""End-to-end model: forward pass, loss, training loop, checkpoints.

The prediction for a (user, anchor) pair is
``sigmoid(mlp([y_e, y_i, y_a]))`` over the three interaction signals.
Ablation variants replace one signal with a zero vector
(``no_item_aspect`` / ``no_anchor_aspect``) or run the item-aspect
attention over co-retrieved histories only (``with_co_retrieval``, both
in training and inference).

Training is plain mini-batch gradient descent with a geometric per-epoch
learning-rate decay, dense L2 on every parameter, global-norm gradient
clipping at 10, and inverted dropout on the MLP input.  Everything is
deterministic given the seed; see `liverec.seeding` for the stream split.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from math import prod

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .data import Catalog
from .encoders import (
    EncodedSequence,
    LstmParams,
    PnnEncoderParams,
    active_positions,
    encode_sequence,
    encode_sequences_batched,
    field_offsets,
    init_lstm_params,
    init_pnn_params,
    pnn_encode,
    pnn_encode_batch,
)
from .interaction import (
    AttentionParams,
    InteractionStats,
    anchor_aspect_interaction,
    embed_similarity,
    item_aspect_interaction,
    svdpp_similarity,
)
from .metrics import EvalReport, make_report
from .retrieval import co_retrieve
from .seeding import stream_rng

VARIANTS = ("full", "no_item_aspect", "no_anchor_aspect", "with_co_retrieval")

CHECKPOINT_FORMAT = "liverec-checkpoint"
CHECKPOINT_VERSION = 1

GRAD_CLIP_NORM = 10.0
PRED_CLAMP = 1e-7


class UnknownIdError(KeyError):
    """A user or anchor id does not resolve in the catalog."""


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
    literal_eq4_product: bool = False
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
        for name in ("wi", "wf", "wo", "wc", "ui", "uf", "uo", "uc", "bi", "bf", "bo", "bc"):
            out.append((f"lstm.{name}", getattr(self.lstm, name)))
        out += [
            ("attn.item_w", self.attn.item_w),
            ("attn.item_b", self.attn.item_b),
            ("attn.anchor_w", self.attn.anchor_w),
            ("attn.anchor_b", self.attn.anchor_b),
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
    lstm = LstmParams(*[arrays[f"lstm.{n}"] for n in ("wi", "wf", "wo", "wc", "ui", "uf", "uo", "uc", "bi", "bf", "bo", "bc")])
    return ModelParams(
        dim=dim,
        offsets=offsets,
        pnn=PnnEncoderParams(arrays["pnn.user"], arrays["pnn.anchor"], arrays["pnn.item"]),
        lstm=lstm,
        attn=AttentionParams(
            arrays["attn.item_w"], arrays["attn.item_b"], arrays["attn.anchor_w"], arrays["attn.anchor_b"]
        ),
        mlp=MlpParams(arrays["mlp.w1"], arrays["mlp.b1"], arrays["mlp.w2"], arrays["mlp.b2"]),
    )


def init_model_params(catalog: Catalog, config: TrainConfig, rng: np.random.Generator) -> ModelParams:
    d = config.dim
    bound = 1.0 / np.sqrt(d)
    pnn = init_pnn_params(catalog, d, rng)
    lstm = init_lstm_params(d, rng)
    attn = AttentionParams(
        item_w=rng.uniform(-bound, bound, size=4 * d),
        item_b=np.zeros(()),
        anchor_w=rng.uniform(-bound, bound, size=3 * d),
        anchor_b=np.zeros(()),
    )
    mlp = MlpParams(
        w1=rng.uniform(-bound, bound, size=(d, 3 * d)),
        b1=np.zeros(d),
        w2=rng.uniform(-bound, bound, size=d),
        b2=np.zeros(()),
    )
    offsets = {kind: field_offsets(catalog.vocab(kind)) for kind in ("user", "anchor", "item")}
    return ModelParams(dim=d, offsets=offsets, pnn=pnn, lstm=lstm, attn=attn, mlp=mlp)


class _PairContext:
    """Per-batch (or per-eval) memo of encodings shared across pairs.

    Static embeddings and full-history item states depend only on the
    object and the parameters, so within one tape they are computed once
    and reused by every pair that touches the object.  ``precompute``
    pushes whole groups of histories through the batched sequence
    encoder, and the anchors the users browsed through one PNN pass,
    which is much cheaper on the tape than owner-by-owner encoding; an
    owner missed there is encoded alone on first use through the same
    kernels.  Objects with fewer feature slots than the layout pad their
    position rows with -1.  ``item_rows`` (from ``_item_rows``) carries
    every item's position row, built once per train or eval call; without
    it an owner's rows are derived from its items.  A catalog slot whose
    vocabulary outgrew its trained size raises ValueError on construction.
    """

    def __init__(self, catalog: Catalog, params: ModelParams, config: TrainConfig, item_rows=None):
        self.catalog = catalog
        self.params = params
        self.config = config
        for kind in ("user", "anchor", "item"):
            _check_layout(kind, catalog.vocab(kind), params.offsets[kind], params.pnn.table(kind).shape[0])
        self._item_rows = item_rows
        self._static: dict[tuple[str, int], Tensor] = {}
        self._states: dict[tuple[str, int], EncodedSequence] = {}
        self._browsed: dict[int, Tensor | None] = {}
        self._item_pieces = None
        self._anchor_pieces = None
        if config.variant == "with_co_retrieval":
            self.user_index, self.anchor_index = catalog.kkv_indices()

    def attention_pieces(self, aspect: str):
        from .interaction import _split

        if aspect == "item":
            if self._item_pieces is None:
                self._item_pieces = _split(self.params.attn.item_w, self.config.dim, 4)
            return self._item_pieces
        if self._anchor_pieces is None:
            self._anchor_pieces = _split(self.params.attn.anchor_w, self.config.dim, 3)
        return self._anchor_pieces

    def static(self, kind: str, obj_id: int) -> Tensor:
        key = (kind, obj_id)
        got = self._static.get(key)
        if got is None:
            obj = (self.catalog.users if kind == "user" else self.catalog.anchors)[obj_id]
            got = pnn_encode(kind, active_positions(obj.features, self.params.offsets[kind]), self.params.pnn)
            self._static[key] = got
        return got

    def _item_positions(self, side: str, owner_id: int) -> np.ndarray:
        """(L, F) one-hot positions of an owner's history items, -1 padded."""
        if side == "user":
            ids = self.catalog.users[owner_id].browsed_items
        else:
            ids = self.catalog.anchors[owner_id].broadcast_items
        if self._item_rows is None:
            return _position_rows([self.catalog.items[i] for i in ids], self.params.offsets["item"])
        index, rows = self._item_rows
        return rows[[index[i] for i in ids]]

    def precompute(self, pairs) -> None:
        """Encode what the owners in the pairs share, in batched passes.

        Item histories go through the batched sequence encoder and the
        users' browsed anchors through one PNN pass; each is skipped when
        the variant's head does not read it.
        """
        config = self.config
        if config.variant != "no_item_aspect" or config.svdpp_head:
            pending = [
                (side, oid)
                for side in ("user", "anchor")
                for oid in dict.fromkeys(getattr(p, f"{side}_id") for p in pairs)
                if (side, oid) not in self._states
            ]
            if pending:
                matrices = [self._item_positions(side, oid) for side, oid in pending]
                encoded = encode_sequences_batched(matrices, "item", self.params.pnn, self.params.lstm)
                self._states.update(zip(pending, encoded))
        if config.variant != "no_anchor_aspect" and not config.svdpp_head:
            self._encode_browsed([u for u in dict.fromkeys(p.user_id for p in pairs) if u not in self._browsed])

    def item_states(self, side: str, owner_id: int) -> Tensor | None:
        """(M, d) matrix of an owner's item states; None for empty history."""
        key = (side, owner_id)
        got = self._states.get(key)
        if got is None:
            embedded = pnn_encode_batch("item", self._item_positions(side, owner_id), self.params.pnn)
            got = encode_sequence(embedded, self.params.lstm)
            self._states[key] = got
        return got.hidden_states

    def _encode_browsed(self, user_ids) -> None:
        """Encode every anchor the users browsed in one PNN pass; each user's
        (N, d) matrix is then one gather of its rows (None for no history)."""
        histories = {u: self.catalog.users[u].browsed_anchors for u in user_ids}
        anchors = list(dict.fromkeys(a for hist in histories.values() for a in hist))
        if anchors:
            positions = _position_rows([self.catalog.anchors[a] for a in anchors], self.params.offsets["anchor"])
            encoded = pnn_encode_batch("anchor", positions, self.params.pnn)
            row = {a: k for k, a in enumerate(anchors)}
        for u, hist in histories.items():
            self._browsed[u] = ad.embedding_lookup(encoded, [row[a] for a in hist]) if hist else None

    def browsed_anchor_matrix(self, user_id: int) -> Tensor | None:
        if user_id not in self._browsed:
            self._encode_browsed([user_id])
        return self._browsed[user_id]


def _position_rows(objects, offsets) -> np.ndarray:
    """(n, F) one-hot positions of the objects' features, rows padded with -1."""
    n_fields = len(offsets)
    rows = [active_positions(obj.features, offsets) for obj in objects]
    if any(len(r) != n_fields for r in rows):
        rows = [r + [-1] * (n_fields - len(r)) for r in rows]
    return np.array(rows, dtype=np.intp).reshape(len(rows), n_fields)


def _item_rows(catalog: Catalog, offsets) -> tuple[dict[int, int], np.ndarray]:
    """Every item's position row: (row index per item id, (n_items, F) rows)."""
    return {iid: k for k, iid in enumerate(catalog.items)}, _position_rows(catalog.items.values(), offsets)


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


def _rows(states: Tensor | None, positions) -> Tensor | None:
    """Gather the given rows of a state matrix in one step; None when there are none."""
    return ad.embedding_lookup(states, np.asarray(positions, dtype=np.intp)) if len(positions) else None


def _dropout_mask(config: TrainConfig, rng: np.random.Generator | None):
    if rng is None or config.dropout <= 0.0:
        return None
    keep = 1.0 - config.dropout
    return (rng.random(3 * config.dim) < keep) / keep


def _forward(ctx: _PairContext, user_id: int, anchor_id: int,
             dropout_mask: np.ndarray | None, stats: InteractionStats | None) -> Tensor:
    catalog, config = ctx.catalog, ctx.config
    if user_id not in catalog.users:
        raise UnknownIdError(f"unknown user id {user_id}")
    if anchor_id not in catalog.anchors:
        raise UnknownIdError(f"unknown anchor id {anchor_id}")
    user = catalog.users[user_id]
    d = config.dim
    e_u = ctx.static("user", user_id)
    e_a = ctx.static("anchor", anchor_id)

    if config.svdpp_head:
        score = svdpp_similarity(
            e_u, ctx.item_states("user", user_id), e_a, ctx.item_states("anchor", anchor_id)
        )
        return ad.sigmoid(score)

    y_e = embed_similarity(e_u, e_a)

    if config.variant == "no_item_aspect":
        y_i = Tensor(np.zeros(d))
        if stats is not None:
            stats.pair_budgets.append(0)
    else:
        if config.variant == "with_co_retrieval":
            ret = co_retrieve(ctx.user_index, ctx.anchor_index, user_id, anchor_id, config.co_retrieval_k)
            ustates = _rows(ctx.item_states("user", user_id), ret.user_positions)
            astates = _rows(ctx.item_states("anchor", anchor_id), ret.anchor_positions)
        else:
            ustates = ctx.item_states("user", user_id)
            astates = ctx.item_states("anchor", anchor_id)
        y_i = item_aspect_interaction(
            e_u, ustates, e_a, astates, ctx.params.attn,
            literal_square=config.literal_eq4_product, stats=stats,
            weight_pieces=ctx.attention_pieces("item"),
        )

    if config.variant == "no_anchor_aspect":
        y_a = Tensor(np.zeros(d))
    else:
        hist = ctx.browsed_anchor_matrix(user_id)
        y_a = anchor_aspect_interaction(e_u, hist, e_a, ctx.params.attn,
                                        weight_pieces=ctx.attention_pieces("anchor"))

    z = ad.concat([y_e, y_i, y_a])
    if dropout_mask is not None:
        z = ad.dropout_mask_apply(z, dropout_mask)
    hidden = ad.relu(ad.add(ad.matmul(ctx.params.mlp.w1, z), ctx.params.mlp.b1))
    score = ad.add(ad.dot(ctx.params.mlp.w2, hidden), ctx.params.mlp.b2)
    return ad.sigmoid(score)


def forward_pair(catalog: Catalog, params: ModelParams, config: TrainConfig,
                 user_id: int, anchor_id: int, mode: str = "eval",
                 stats: InteractionStats | None = None) -> float:
    """Predict the browse probability for one pair.

    In train mode dropout is active, drawing its mask from the config
    seed's dropout stream; eval mode is deterministic.
    """
    ctx = _PairContext(catalog, params, config)
    rng = stream_rng(config.seed, "dropout") if mode == "train" else None
    return float(_forward(ctx, user_id, anchor_id, _dropout_mask(config, rng), stats).data)


def batch_loss(predictions, labels) -> Tensor:
    """Summed log loss over a batch (the trainer adds the L2 term)."""
    if len(predictions) != len(labels):
        raise ValueError(f"batch_loss: {len(predictions)} predictions vs {len(labels)} labels")
    p = ad.clamp(ad.concat(predictions), PRED_CLAMP, 1.0 - PRED_CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    pos = ad.dot(ad.log(p), y)
    neg = ad.dot(ad.log(ad.add(ad.multiply_elementwise(p, -1.0), 1.0)), 1.0 - y)
    return ad.multiply_elementwise(ad.add(pos, neg), -1.0)


def lr_schedule(config: TrainConfig, epoch: int) -> float:
    """Geometric interpolation from lr_start to lr_end across the epochs."""
    if config.epochs <= 1 or config.lr_start == 0.0:
        return config.lr_start
    ratio = (config.lr_end / config.lr_start) ** (1.0 / (config.epochs - 1))
    return config.lr_start * ratio**epoch


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    train_loss: float
    val_auc: float | None
    val_acc: float | None
    val_logloss: float | None
    wall_seconds: float


def _l2_term(leaves) -> Tensor:
    total = None
    for t in leaves:
        sq = ad.reduce_sum(ad.multiply_elementwise(t, t))
        total = sq if total is None else ad.add(total, sq)
    return total


def _clip_gradients(grads) -> None:
    norm_sq = sum(float((g * g).sum()) for g in grads)
    norm = np.sqrt(norm_sq)
    if norm > GRAD_CLIP_NORM:
        scale = GRAD_CLIP_NORM / norm
        for i in range(len(grads)):
            grads[i] = grads[i] * scale


def _batch_gradients(catalog, params, config, chunk, dropout_rng, item_rows=None):
    """Forward+backward over one batch on a shared tape."""
    tape = Tape()
    bound, leaves = params.bind(tape)
    ctx = _PairContext(catalog, bound, config, item_rows)
    ctx.precompute(chunk)
    preds = [
        _forward(ctx, p.user_id, p.anchor_id, _dropout_mask(config, dropout_rng), None)
        for p in chunk
    ]
    data = batch_loss(preds, [p.label for p in chunk])
    loss = data
    if config.l2_weight > 0.0:
        loss = ad.add(loss, ad.multiply_elementwise(_l2_term(leaves), config.l2_weight))
    loss_value = float(loss.data)
    data_value = float(data.data)
    if not np.isfinite(loss_value):
        return data_value, loss_value, None
    gmap = ad.backward(tape, loss)
    grads = [gmap[t.node_id] for t in leaves]
    return data_value, loss_value, grads


def train(catalog: Catalog, pairs, config: TrainConfig, val_pairs=None):
    """Run the training loop; returns (params, per-epoch metrics rows).

    Batches are sampled without replacement, reshuffled each epoch from
    the seed's shuffle stream.  Two runs with the same inputs and config
    produce identical parameters and metrics.
    """
    if not pairs:
        raise ValueError("train: empty training split")
    rng_init = stream_rng(config.seed, "init")
    params = init_model_params(catalog, config, rng_init)
    rng_shuffle = stream_rng(config.seed, "shuffle")
    rng_dropout = stream_rng(config.seed, "dropout")
    item_rows = _item_rows(catalog, params.offsets["item"])

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
            data_value, loss_value, grads = _batch_gradients(catalog, params, config, chunk, rng_dropout, item_rows)
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
        val_auc = val_acc = val_ll = None
        if val_pairs:
            report = evaluate_pairs(catalog, params, config, val_pairs)
            val_auc, val_acc, val_ll = report.auc, report.acc, report.logloss
        rows.append(
            EpochMetrics(epoch, lr, train_loss, val_auc, val_acc, val_ll, time.perf_counter() - t0)
        )
    return params, rows


def evaluate_pairs(catalog: Catalog, params: ModelParams, config: TrainConfig, pairs,
                   stats: InteractionStats | None = None) -> EvalReport:
    """Score pairs in eval mode and compute the offline metrics.

    Pass an InteractionStats to capture attention pair budgets and the
    interaction stage's wall time.  A non-finite score (from non-finite
    parameters, say) raises NonFiniteScoreError naming the first such pair
    instead of entering the metrics.
    """
    if stats is None:
        stats = InteractionStats()
    t0 = time.perf_counter()
    ctx = _PairContext(catalog, params, config, _item_rows(catalog, params.offsets["item"]))
    ctx.precompute(pairs)
    scores = [float(_forward(ctx, p.user_id, p.anchor_id, None, stats).data) for p in pairs]
    finite = np.isfinite(scores)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NonFiniteScoreError(pairs[bad].user_id, pairs[bad].anchor_id, scores[bad])
    labels = [p.label for p in pairs]
    return make_report(
        scores, labels,
        mean_pair_budget=stats.mean_pair_budget(),
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


def _array_shapes(dim: int) -> dict[str, tuple]:
    """The shape each checkpoint array must have; None is a table's free row count."""
    shapes = {f"pnn.{kind}": (None, dim) for kind in ("user", "anchor", "item")}
    shapes.update({f"lstm.{n}": (dim, dim) for n in ("wi", "wf", "wo", "wc", "ui", "uf", "uo", "uc")})
    shapes.update({f"lstm.{n}": (dim,) for n in ("bi", "bf", "bo", "bc")})
    shapes.update({
        "attn.item_w": (4 * dim,), "attn.item_b": (), "attn.anchor_w": (3 * dim,), "attn.anchor_b": (),
        "mlp.w1": (dim, 3 * dim), "mlp.b1": (dim,), "mlp.w2": (dim,), "mlp.b2": (),
    })
    return shapes


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _parse_header(header) -> tuple[TrainConfig, int, dict, list]:
    """Validate a decoded v1 header; returns (config, dim, offsets, array specs)."""
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a {CHECKPOINT_FORMAT} file")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} does not match supported version {CHECKPOINT_VERSION}"
        )
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
    want = _array_shapes(dim)
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
    return config, dim, {k: tuple(v) for k, v in offsets.items()}, specs


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig]:
    """Read a file written by save_checkpoint.

    A file that is not a well-formed v1 checkpoint raises CheckpointError.
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
    config, dim, offsets, specs = _parse_header(header)
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
            fh.write(
                f"{r.epoch},{fmt(r.lr)},{fmt(r.train_loss)},{fmt(r.val_auc)},"
                f"{fmt(r.val_acc)},{fmt(r.val_logloss)},{wall}\n"
            )
