"""Static-feature encoder and recurrent sequence encoder.

The static encoder sums per-feature embedding vectors (first order) plus
elementwise products of every embedding pair (second order), so feature
conjunctions contribute their own directions.  The sequence encoder is a
standard LSTM over already-encoded item vectors, returning every
position's hidden state because downstream attention needs them all:
one (L, d) matrix per history, row t being the state after item t.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class PnnEncoderParams:
    """One (positions, d) embedding table per object kind.

    A position is a one-hot feature coordinate: feature slot vocabularies
    are laid out back to back, so slot j with value v maps to position
    ``offset[j] + v``.  Tables may hold numpy arrays (untracked) or
    tracked tensors bound to a tape.
    """

    user: object
    anchor: object
    item: object

    def table(self, kind: str):
        return {"user": self.user, "anchor": self.anchor, "item": self.item}[kind]


@dataclass
class LstmParams:
    """Gate weights for a square (d -> d) LSTM cell.

    w_* multiply the input, u_* the previous hidden state; one matrix and
    bias per gate (input i, forget f, output o, candidate c).
    """

    wi: object
    wf: object
    wo: object
    wc: object
    ui: object
    uf: object
    uo: object
    uc: object
    bi: object
    bf: object
    bo: object
    bc: object


@dataclass
class EncodedSequence:
    """LSTM hidden states for one history.

    ``hidden_states`` is one (L, d) tensor whose row t is the state after
    item t, or None for an empty history.
    """

    hidden_states: Tensor | None

    def __len__(self) -> int:
        return 0 if self.hidden_states is None else self.hidden_states.shape[0]


def field_offsets(vocab_sizes: Sequence[int]) -> tuple[int, ...]:
    """Start position of each feature slot in the one-hot layout."""
    return tuple(int(x) for x in np.concatenate([[0], np.cumsum(vocab_sizes)[:-1]])) if len(vocab_sizes) else ()


def active_positions(features: Sequence[int], offsets: Sequence[int]) -> list[int]:
    """Map per-slot feature values to one-hot positions."""
    if len(features) > len(offsets):
        raise ValueError(f"object has {len(features)} feature slots, layout has {len(offsets)}")
    return [offsets[j] + v for j, v in enumerate(features)]


def init_pnn_params(catalog, dim: int, rng: np.random.Generator) -> PnnEncoderParams:
    bound = 1.0 / np.sqrt(dim)
    tables = {}
    for kind in ("user", "anchor", "item"):
        total = int(sum(catalog.vocab(kind)))
        tables[kind] = rng.uniform(-bound, bound, size=(max(total, 1), dim))
    return PnnEncoderParams(tables["user"], tables["anchor"], tables["item"])


def init_lstm_params(dim: int, rng: np.random.Generator) -> LstmParams:
    bound = 1.0 / np.sqrt(dim)
    mats = [rng.uniform(-bound, bound, size=(dim, dim)) for _ in range(8)]
    biases = [np.zeros(dim) for _ in range(4)]
    return LstmParams(*mats, *biases)


def pnn_encode(kind: str, active_fields: Sequence[tuple[int, float]], params: PnnEncoderParams) -> Tensor:
    """Encode one object from its active one-hot fields.

    ``active_fields`` lists (position j, value x_j) pairs; categorical
    features use x_j = 1.  Output is
    ``sum_j x_j v_j + sum_{j'<j''} (v_j' * v_j'') x_j' x_j''``, computed
    through the half-square identity rather than the double loop.
    """
    table = params.table(kind)
    tdata = table.data if isinstance(table, Tensor) else np.asarray(table)
    total, dim = tdata.shape
    for j, _ in active_fields:
        if not 0 <= j < total:
            raise IndexError(f"{kind} field position {j} out of range [0, {total})")
    if not active_fields:
        return Tensor(np.zeros(dim))
    idx = np.array([j for j, _ in active_fields], dtype=np.intp)
    values = np.array([x for _, x in active_fields])
    vecs = ad.embedding_lookup(table, idx)  # (F, d)
    scaled = ad.multiply_elementwise(vecs, values[:, None])
    s = ad.reduce_sum(scaled, axis=0)
    sq = ad.reduce_sum(ad.multiply_elementwise(scaled, scaled), axis=0)
    second = ad.multiply_elementwise(ad.add(ad.multiply_elementwise(s, s), ad.multiply_elementwise(sq, -1.0)), 0.5)
    return ad.add(s, second)


def pnn_encode_batch(kind: str, positions: np.ndarray, params: PnnEncoderParams) -> Tensor:
    """Encode a batch of same-layout categorical objects at once.

    ``positions`` is an (L, F) int array of one-hot positions with all
    values implicitly 1.  Returns an (L, d) tensor; row order follows the
    input.
    """
    table = params.table(kind)
    positions = np.asarray(positions, dtype=np.intp)
    if positions.ndim != 2:
        raise ValueError(f"positions must be 2-D, got shape {positions.shape}")
    per_field = [ad.embedding_lookup(table, positions[:, j]) for j in range(positions.shape[1])]  # (L, d) each
    s = per_field[0]
    for v in per_field[1:]:
        s = ad.add(s, v)
    sq = ad.multiply_elementwise(per_field[0], per_field[0])
    for v in per_field[1:]:
        sq = ad.add(sq, ad.multiply_elementwise(v, v))
    second = ad.multiply_elementwise(ad.add(ad.multiply_elementwise(s, s), ad.multiply_elementwise(sq, -1.0)), 0.5)
    return ad.add(s, second)


def lstm_step(x: Tensor, h, c, p: LstmParams):
    i = ad.sigmoid(ad.add(ad.add(ad.matmul(p.wi, x), ad.matmul(p.ui, h)), p.bi))
    f = ad.sigmoid(ad.add(ad.add(ad.matmul(p.wf, x), ad.matmul(p.uf, h)), p.bf))
    o = ad.sigmoid(ad.add(ad.add(ad.matmul(p.wo, x), ad.matmul(p.uo, h)), p.bo))
    g = ad.tanh(ad.add(ad.add(ad.matmul(p.wc, x), ad.matmul(p.uc, h)), p.bc))
    c_new = ad.add(ad.multiply_elementwise(f, c), ad.multiply_elementwise(i, g))
    h_new = ad.multiply_elementwise(o, ad.tanh(c_new))
    return h_new, c_new


def encode_sequence(item_embeddings, params: LstmParams) -> EncodedSequence:
    """Run the LSTM over encoded items (oldest first, zero initial state).

    ``item_embeddings`` is either a list of (d,) tensors or one (L, d)
    tensor.  An empty input yields an empty sequence.
    """
    if isinstance(item_embeddings, Tensor):
        xs = [ad.embedding_lookup(item_embeddings, t) for t in range(item_embeddings.shape[0])]
    else:
        xs = list(item_embeddings)
    if not xs:
        return EncodedSequence(None)
    dim = xs[0].shape[0]
    h = np.zeros(dim)
    c = np.zeros(dim)
    states = []
    for x in xs:
        h, c = lstm_step(x, h, c, params)
        states.append(h)
    return EncodedSequence(stack_states(states))


def stack_states(states) -> Tensor:
    """Stack a non-empty list of (d,) tensors into an (M, d) tensor.

    A list of T (B, d) blocks stacks block after block into a (T*B, d)
    tensor.
    """
    dim = states[0].shape[-1]
    flat = ad.concat([s if len(s.shape) == 1 else ad.reshape(s, (s.data.size,)) for s in states])
    return ad.reshape(flat, (flat.shape[0] // dim, dim))


def encode_sequences_batched(position_matrices, kind: str, pnn: PnnEncoderParams,
                             lstm: LstmParams) -> list[EncodedSequence]:
    """Encode many same-kind categorical item sequences through one LSTM.

    Equivalent to calling ``pnn_encode_batch`` + ``encode_sequence`` per
    sequence, but all sequences advance together: each step works on a
    (B, d) state block, so the tape grows with the longest sequence
    instead of the summed lengths.  Rows of finished sequences keep
    computing garbage that is never read.

    ``position_matrices`` is a list of (L_i, F) one-hot position arrays
    sharing the same field count F.  Returns one EncodedSequence per
    input, aligned.  The T step states are stacked once into a (T*B, d)
    tensor and each sequence takes its rows ``t*B + b`` with one gather.
    """
    lengths = [int(m.shape[0]) for m in position_matrices]
    n_seq = len(lengths)
    maxlen = max(lengths, default=0)
    if maxlen == 0:
        return [EncodedSequence(None) for _ in lengths]
    nonempty = [m for m in position_matrices if m.shape[0]]
    flat = np.concatenate(nonempty, axis=0)
    embedded = pnn_encode_batch(kind, flat, pnn)  # (sum L_i, d)
    offsets = np.zeros(n_seq, dtype=np.intp)
    off = 0
    for b, n in enumerate(lengths):
        offsets[b] = off
        off += n

    wxt = [ad.transpose(w) for w in (lstm.wi, lstm.wf, lstm.wo, lstm.wc)]
    uht = [ad.transpose(u) for u in (lstm.ui, lstm.uf, lstm.uo, lstm.uc)]
    biases = (lstm.bi, lstm.bf, lstm.bo, lstm.bc)
    lens_arr = np.array(lengths, dtype=np.intp)

    total = int(flat.shape[0])
    h = c = None
    per_step: list[Tensor] = []
    for t in range(maxlen):
        # finished rows gather a stale placeholder; their states are never read
        idx = np.minimum(offsets + np.minimum(t, np.maximum(lens_arr - 1, 0)), total - 1)
        x = ad.embedding_lookup(embedded, idx)  # (B, d)
        if h is None:
            pre = [ad.add(ad.matmul(x, wt), b) for wt, b in zip(wxt, biases)]
        else:
            pre = [
                ad.add(ad.add(ad.matmul(x, wt), ad.matmul(h, ut)), b)
                for wt, ut, b in zip(wxt, uht, biases)
            ]
        i_g = ad.sigmoid(pre[0])
        f_g = ad.sigmoid(pre[1])
        o_g = ad.sigmoid(pre[2])
        g_g = ad.tanh(pre[3])
        c = ad.multiply_elementwise(i_g, g_g) if c is None else ad.add(
            ad.multiply_elementwise(f_g, c), ad.multiply_elementwise(i_g, g_g)
        )
        h = ad.multiply_elementwise(o_g, ad.tanh(c))
        per_step.append(h)

    stacked = stack_states(per_step)  # row t*B + b is sequence b's state after step t
    return [
        EncodedSequence(ad.embedding_lookup(stacked, np.arange(n) * n_seq + b) if n else None)
        for b, n in enumerate(lengths)
    ]
