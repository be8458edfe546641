"""Two-side interaction networks.

Three similarity signals feed the prediction head: the elementwise
product of the two static embeddings, an item-aspect bi-attention that
scores every (user-item, anchor-item) state pair jointly, and an
anchor-aspect attention over the user's previously browsed anchors.
A dot-product baseline in the SVD++ style is kept as an alternative
scoring head.  Each function scores a whole batch of B pairs: its output
is one (B, d) block, or (B,) scores for the SVD++ head.

Attention weights are shared across all pairs (one weight vector and bias
per aspect).  Each logit is linear in a concatenation, so the terms every
candidate shares (the static embeddings' and the bias) cancel in the
softmax and are not computed.  What is left is a pooling of one owner's
rows: the item-aspect softmax over all M*N pairs factors into one softmax
per side, and the anchor-aspect softmax never sees the target.  So each
function pools every group of rows once, with one
`autodiff.segment_attention` node per side (a plain softmax when the side
has one group), then gathers one pooled row per pair.  That node scores
each row of the side's block once and pools through a sparse matrix of
the softmax weights, so a row read by many groups, or many times by one
(an anchor a user browsed again), is never copied.  A group is the rows
of one owner's history, or under co-retrieval one pair's kept rows;
`Segments` says which rows form each group and which group each pair
reads.  Each function takes only the (d,) slice of the weight vector that
scores the rows it pools; the caller cuts them.  An empty group pools to
a zero row, so a pair with an empty side gets a zero signal.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass(frozen=True)
class Segments:
    """Ragged groups of a state block's rows, and the group each pair reads.

    ``index`` lists the block's rows group after group and ``lengths``
    counts each group's rows (0 for an empty group); ``index`` None is the
    whole block, in order, as the one group.  ``pair_group`` maps each
    pair to its group, or is None when pair b reads group b.  ``len()`` is
    the number of groups.
    """

    index: np.ndarray | None
    lengths: np.ndarray
    pair_group: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def rows(self) -> int:
        """Rows over all groups."""
        return int(self.lengths[0]) if self.index is None else len(self.index)

    @property
    def pairs(self) -> int:
        return len(self) if self.pair_group is None else len(self.pair_group)

    def per_pair(self, x):
        """Each pair's row of a per-group tensor or array."""
        if self.pair_group is None:
            return x
        return ad.embedding_lookup(x, self.pair_group) if isinstance(x, Tensor) else x[self.pair_group]


def _pool(states, groups: Segments, w, values=None) -> Tensor | None:
    """(S, d) attention-pooled rows of each group; None when no group has a row."""
    if not groups.rows:
        return None
    if len(groups) > 1:
        return ad.segment_attention(states, w, groups.index, groups.lengths, values)
    # one group (forward_pair's case): a plain softmax.  The segment op's
    # sparse weight matrix costs about 105 us a call whatever the rows,
    # this softmax about 20 us over 10 or 200 rows (forward, untracked)
    if groups.index is not None:
        states = ad.embedding_lookup(states, groups.index)
        values = None if values is None else ad.embedding_lookup(values, groups.index)
    p = ad.softmax(ad.matmul(states, w))
    return ad.matmul(ad.reshape(p, (1, p.shape[0])), states if values is None else values)


def embed_similarity(e_u, e_a) -> Tensor:
    """Elementwise product of the pairs' static embeddings, (B, d) each."""
    if e_u.shape != e_a.shape:
        raise ad.ShapeError("embed_similarity", e_u.shape, e_a.shape)
    return ad.multiply_elementwise(e_u, e_a)


def _enriched(e, states, groups: Segments):
    """``e`` (S, d) plus each group's rows summed with weight 1/sqrt(n)."""
    if not groups.rows:
        return e
    mean = ad.segment_attention(states, np.zeros(states.shape[1]), groups.index, groups.lengths)
    return ad.add(e, ad.multiply_elementwise(mean, np.sqrt(groups.lengths)[:, None]))


def svdpp_similarity(e_u, user_states, user_groups: Segments, e_a, anchor_states,
                     anchor_groups: Segments) -> Tensor:
    """Dot product of history-enriched user and anchor vectors, (B,).

    ``e_u`` and ``e_a`` hold one static embedding per group.  Each side
    adds the sum of its group's item states weighted by 1/sqrt(history
    length) to its static embedding; an empty history adds nothing.
    """
    left = user_groups.per_pair(_enriched(e_u, user_states, user_groups))
    right = anchor_groups.per_pair(_enriched(e_a, anchor_states, anchor_groups))
    return ad.reduce_sum(ad.multiply_elementwise(left, right), axis=1)


def item_aspect_interaction(user_states, user_groups: Segments, anchor_states, anchor_groups: Segments,
                            w_user, w_anchor, literal_square: bool = False) -> Tensor:
    """Bi-attention over all (user item, anchor item) state pairs, (B, d).

    Logit for pair (q', q'') is ``w . [e_u, h_q', e_a, h_q''] + b`` with a
    single softmax over all M*N pairs; the output is the attention-weighted
    sum of ``h_q' * h_q''`` products.  ``literal_square`` switches the
    product to the anchor-side square ``h_q'' * h_q''`` variant.  Either
    side empty yields a zero vector.  ``w_user`` and ``w_anchor`` are the
    (d,) slices of ``w`` that score ``h_q'`` and ``h_q''``.

    The logit separates as ``lu_q' + la_q'' + const``, so the joint softmax
    is exactly ``outer(softmax(lu), softmax(la))`` and the output is
    ``(p^T H_u) * (q^T H_a)`` (``q^T (H_a * H_a)`` for the square), with
    no (M, N) block: each side's group is pooled once and every pair reads
    its two pooled rows.  The shared ``const = w1 . e_u + w3 . e_a + b``
    cancels in the softmax and is not taken: the output does not depend on
    ``w1``, ``w3``, the bias or the static embeddings, so they get no
    gradient from this layer (in exact arithmetic that gradient was
    already zero; only their L2 term moves them).
    """
    zero = Tensor(np.zeros((user_groups.pairs, w_user.shape[0])))
    if literal_square:
        has_user = user_groups.per_pair(user_groups.lengths > 0)
        squares = None if anchor_states is None else ad.multiply_elementwise(anchor_states, anchor_states)
        pooled = _pool(anchor_states, anchor_groups, w_anchor, squares)
        if pooled is None or not has_user.any():
            return zero
        out = anchor_groups.per_pair(pooled)
        return out if has_user.all() else ad.multiply_elementwise(out, has_user[:, None])
    p = _pool(user_states, user_groups, w_user)
    q = _pool(anchor_states, anchor_groups, w_anchor)
    if p is None or q is None:
        return zero
    return ad.multiply_elementwise(user_groups.per_pair(p), anchor_groups.per_pair(q))


def anchor_aspect_interaction(browsed_embeddings, browsed_groups: Segments, e_target, w_history) -> Tensor:
    """Attention over each user's browsed anchors against the target anchor, (B, d).

    A group is one user's browsed anchors, as rows of
    ``browsed_embeddings``, and ``e_target`` holds each pair's target
    embedding.  Logit for history anchor n' is ``w . [e_u, e_n', e_target]
    + b``; the output is the weighted sum of ``e_n' * e_target`` products.
    An empty history yields a zero vector.  ``w_history`` is the (d,) slice
    of ``w`` that scores ``e_n'``.  The shared ``w1 . e_u + w3 . e_target +
    b`` cancels in the softmax and is not taken, so ``w1``, ``w3`` and the
    bias get no gradient from this layer, and the softmax never sees the
    target: each user's browsed anchors are pooled once.
    """
    pooled = _pool(browsed_embeddings, browsed_groups, w_history)
    if pooled is None:
        return Tensor(np.zeros(e_target.shape))
    return ad.multiply_elementwise(browsed_groups.per_pair(pooled), e_target)
