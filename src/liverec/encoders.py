"""Static-feature encoder and recurrent sequence encoder.

The static encoder sums per-feature embedding vectors (first order) plus
elementwise products of every embedding pair (second order), so feature
conjunctions contribute their own directions.  The sequence encoder is a
standard LSTM over already-encoded item vectors, returning every
position's hidden state because downstream attention needs them all:
one (L, d) matrix per history, row t being the state after item t.

Each encoder has one kernel.  ``pnn_encode_batch`` encodes a block of
objects and ``pnn_encode`` is its one-object form; ``encode_sequence``
runs the LSTM loop of ``encode_sequences_batched`` on a single history.
Objects with fewer feature slots than the layout pad with position -1.
The LSTM step is fused: the per-gate weights are joined once per call
into (d, 4d) matrices with gate blocks ``[i | f | o | c]``, so each step
is one projection of the input, one of the state, and one sigmoid and
one tanh over column ranges of the result.
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
    bias per gate (input i, forget f, output o, candidate c).  These twelve
    arrays are what checkpoints store; the LSTM loop fuses them per call.
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


def pnn_encode(kind: str, positions: Sequence[int], params: PnnEncoderParams) -> Tensor:
    """Encode one object from its one-hot positions; a (d,) vector.

    One row of ``pnn_encode_batch``: same kernel, same padding rule.
    """
    return _pnn(params.table(kind), np.asarray(positions, dtype=np.intp))


def pnn_encode_batch(kind: str, positions: np.ndarray, params: PnnEncoderParams) -> Tensor:
    """Encode a batch of categorical objects at once.

    ``positions`` is an (L, F) int array of one-hot positions, every
    active field having value 1.  An object with fewer than F slots pads
    its row with position -1, which contributes nothing.  Returns an
    (L, d) tensor; row order follows the input.  The output per row is
    ``sum_j v_j + sum_{j'<j''} v_j' * v_j''``, computed through the
    half-square identity rather than the double loop.
    """
    positions = np.asarray(positions, dtype=np.intp)
    if positions.ndim != 2:
        raise ValueError(f"positions must be 2-D, got shape {positions.shape}")
    return _pnn(params.table(kind), positions)


def _pnn(table, positions: np.ndarray) -> Tensor:
    """The PNN kernel: one (..., F, d) gather, then sums along the field axis."""
    absent = positions < 0
    if absent.any():
        vecs = ad.multiply_elementwise(ad.embedding_lookup(table, np.where(absent, 0, positions)),
                                       ~absent[..., None])
    else:
        vecs = ad.embedding_lookup(table, positions)
    s = ad.reduce_sum(vecs, axis=-2)
    sq = ad.reduce_sum(ad.multiply_elementwise(vecs, vecs), axis=-2)
    second = ad.multiply_elementwise(ad.add(ad.multiply_elementwise(s, s), ad.multiply_elementwise(sq, -1.0)), 0.5)
    return ad.add(s, second)


def encode_sequence(embedded: Tensor, params: LstmParams) -> EncodedSequence:
    """Run the LSTM over one (L, d) block of encoded items, oldest first.

    The state starts at zero; an empty block yields an empty sequence.
    """
    n = embedded.shape[0]
    if not n:
        return EncodedSequence(None)
    return EncodedSequence(_lstm(embedded, np.arange(n)[:, None], params))


def stack_states(states) -> Tensor:
    """Stack a non-empty list of (d,) tensors into an (M, d) tensor."""
    return ad.reshape(ad.concat(states), (len(states), states[0].shape[0]))


def _lstm(embedded: Tensor, step_rows: np.ndarray, p: LstmParams) -> Tensor:
    """The LSTM loop over B sequences advancing together.

    Step t reads rows ``step_rows[t]`` of ``embedded`` as its (B, d) input
    block.  Returns the T step states stacked into one (T*B, d) tensor:
    row ``t*B + b`` is sequence b's state after step t.

    The four gates are fused: each call joins the twelve per-gate arrays
    into one (d, 4d) input matrix, one (d, 4d) recurrent matrix and one
    (1, 4d) bias with column blocks in gate order ``[i | f | o | c]``, so
    a step makes one projection per operand, one sigmoid over the first
    3d columns and one tanh over the last d.
    """
    dim = embedded.shape[1]
    w = ad.transpose(ad.concat([p.wi, p.wf, p.wo, p.wc]))
    u = ad.transpose(ad.concat([p.ui, p.uf, p.uo, p.uc]))
    b = ad.reshape(ad.concat([p.bi, p.bf, p.bo, p.bc]), (1, 4 * dim))
    h = c = None
    per_step: list[Tensor] = []
    for rows in step_rows:
        x = ad.embedding_lookup(embedded, rows)  # (B, d)
        pre = ad.matmul(x, w)
        if h is not None:
            pre = ad.add(pre, ad.matmul(h, u))
        pre = ad.add(pre, b)  # (B, 4d)
        gates = ad.sigmoid(ad.slice_last(pre, 0, 3 * dim))
        g_g = ad.tanh(ad.slice_last(pre, 3 * dim, 4 * dim))
        i_g = ad.slice_last(gates, 0, dim)
        o_g = ad.slice_last(gates, 2 * dim, 3 * dim)
        ig = ad.multiply_elementwise(i_g, g_g)
        c = ig if c is None else ad.add(ad.multiply_elementwise(ad.slice_last(gates, dim, 2 * dim), c), ig)
        h = ad.multiply_elementwise(o_g, ad.tanh(c))
        per_step.append(h)
    return ad.concat(per_step)


def encode_sequences_batched(position_matrices, kind: str, pnn: PnnEncoderParams,
                             lstm: LstmParams) -> list[EncodedSequence]:
    """Encode many same-kind categorical item sequences through one LSTM.

    Equivalent to calling ``pnn_encode_batch`` + ``encode_sequence`` per
    sequence, but all sequences advance together: each step works on a
    (B, d) state block, so the tape grows with the longest sequence
    instead of the summed lengths.  Rows of finished sequences keep
    computing garbage that is never read.

    ``position_matrices`` is a list of (L_i, F) one-hot position arrays
    sharing the same field count F, padded with -1 as in
    ``pnn_encode_batch``.  Returns one EncodedSequence per input,
    aligned.  The T step states are stacked once into a (T*B, d) tensor
    and each sequence takes its rows ``t*B + b`` with one gather.
    """
    lengths = np.array([m.shape[0] for m in position_matrices], dtype=np.intp)
    n_seq = len(lengths)
    maxlen = int(lengths.max(initial=0))
    if maxlen == 0:
        return [EncodedSequence(None) for _ in lengths]
    embedded = pnn_encode_batch(kind, np.concatenate(position_matrices, axis=0), pnn)  # (sum L_i, d)
    offsets = np.cumsum(lengths) - lengths
    # finished rows gather a stale placeholder; their states are never read
    last = np.maximum(lengths - 1, 0)
    step_rows = np.minimum(offsets + np.minimum(np.arange(maxlen)[:, None], last), embedded.shape[0] - 1)
    stacked = _lstm(embedded, step_rows, lstm)
    return [
        EncodedSequence(ad.embedding_lookup(stacked, np.arange(n) * n_seq + b) if n else None)
        for b, n in enumerate(lengths.tolist())
    ]
