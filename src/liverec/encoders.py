"""Static-feature encoder and recurrent sequence encoder.

The static encoder sums per-feature embedding vectors (first order) plus
elementwise products of every embedding pair (second order), so feature
conjunctions contribute their own directions.  The sequence encoder is a
standard LSTM over already-encoded item vectors, returning every
position's hidden state because downstream attention needs them all:
one (L, d) matrix per history, row t being the state after item t.  The
batched form takes the histories as rows into one block of distinct
items, encodes each item once, runs the histories packed (longest first,
each step over the histories still running) and returns one block with
exactly one state row per history item, and each history's row indices
into it.

Each encoder has one kernel, a fused op that records one tape node.
``pnn_encode_batch`` encodes a block of objects and ``pnn_encode`` is its
one-object form, both through ``autodiff.pnn``; ``encode_sequence`` runs
the LSTM kernel of ``encode_sequences_batched`` on a single history.
Objects with fewer feature slots than the layout pad with position -1,
the only negative position allowed.  The LSTM loop is one fused op:
``autodiff.lstm`` reads the gate weights as stored, (4d, d) row blocks in
gate order ``[i | f | o | c]``, projects each input row once, runs every
step of width 2 or more on one (4, width, d) slab of four gate blocks,
and the width-1 steps (the last steps of a batch, every step but the
first of a lone history) on one flat ``[i | f | o | g | c]`` vector, in
plain numpy, and records a single tape node for the whole loop.
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
    """Gate weights for a square (d -> d) LSTM cell, one block per role.

    ``w`` (4d, d) multiplies the input and ``u`` (4d, d) the previous
    hidden state; ``b`` is the (4d,) bias.  Each holds four d-row blocks
    in gate order ``[i | f | o | c]`` (input, forget, output, candidate),
    so ``w[:d]`` is the input gate's matrix.  Arrays may be numpy arrays
    or tracked tensors bound to a tape.
    """

    w: object
    u: object
    b: object


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
    return LstmParams(np.concatenate(mats[:4]), np.concatenate(mats[4:]), np.zeros(4 * dim))


def pnn_encode(kind: str, positions: Sequence[int], params: PnnEncoderParams) -> Tensor:
    """Encode one object from its one-hot positions; a (d,) vector.

    One row of ``pnn_encode_batch``: same kernel, same padding rule.
    """
    return ad.pnn(params.table(kind), positions)


def pnn_encode_batch(kind: str, positions: np.ndarray, params: PnnEncoderParams) -> Tensor:
    """Encode a batch of categorical objects at once.

    ``positions`` is an (L, F) int array of one-hot positions, every
    active field having value 1.  An object with fewer than F slots pads
    its row with position -1, which contributes nothing; any other
    negative position raises IndexError, as one past the table does.
    Returns an (L, d) tensor; row order follows the input.  The output per
    row is ``sum_j v_j + sum_{j'<j''} v_j' * v_j''``, computed through the
    half-square identity rather than the double loop.
    """
    positions = np.asarray(positions, dtype=np.intp)
    if positions.ndim != 2:
        raise ValueError(f"positions must be 2-D, got shape {positions.shape}")
    return ad.pnn(params.table(kind), positions)


def encode_sequence(embedded: Tensor, params: LstmParams) -> Tensor:
    """Run the LSTM over one (L, d) block of encoded items, oldest first.

    Returns the (L, d) hidden states, row t being the state after item t;
    the state starts at zero, and an empty block yields a (0, d) block.
    """
    n = embedded.shape[0]
    return ad.lstm(embedded, np.arange(n), np.ones(n, dtype=np.intp), params.w, params.u, params.b)


def encode_sequences_batched(histories, item_positions: np.ndarray, pnn: PnnEncoderParams,
                             lstm: LstmParams) -> tuple[Tensor, list[np.ndarray]]:
    """Encode many item sequences that draw on one set of items through one LSTM.

    Equivalent to calling ``pnn_encode_batch`` + ``encode_sequence`` per
    sequence, but each item is encoded once, and projected into the gates
    once, however many sequences and steps read it, and the sequences run
    packed: sorted longest first (a stable sort), step t works on the
    states of the sequences still running, a prefix of step t-1's, and
    the tape holds one PNN pass and one fused LSTM node whatever the
    number of sequences.

    ``item_positions`` is the (n, F) one-hot position array of the items,
    padded with -1 as in ``pnn_encode_batch``, and ``histories`` a list of
    int arrays, one per sequence, of rows into it, oldest first; rows may
    repeat within and across sequences.  Returns the packed states, one
    (sum of lengths, d) tensor holding exactly one row per history item,
    and each sequence's row indices into it, aligned with the inputs and
    in history order; an empty sequence has no rows.  The rows are
    step-major: step t's rows follow step t-1's, and within a step the
    sequences keep their sorted order.  Readers gather or pool the rows
    they need from the one tensor.
    """
    lengths = np.array([len(h) for h in histories], dtype=np.intp)
    n_seq = lengths.size
    maxlen = int(lengths.max(initial=0))
    # widths[t]: the sequences longer than t, the first ones in sorted order
    widths = n_seq - np.cumsum(np.bincount(lengths, minlength=maxlen + 1))[:maxlen]
    starts = np.cumsum(widths) - widths
    rank = np.empty(n_seq, dtype=np.intp)
    rank[np.argsort(-lengths, kind="stable")] = np.arange(n_seq)
    rows = [starts[:n] + r for n, r in zip(lengths.tolist(), rank.tolist())]
    items = pnn_encode_batch("item", item_positions, pnn)  # (n, d)
    step_rows = np.empty(int(widths.sum()), dtype=np.intp)
    step_rows[np.concatenate(rows)] = np.concatenate(histories)
    return ad.lstm(items, step_rows, widths, lstm.w, lstm.u, lstm.b), rows
