"""Two-side interaction networks.

Three similarity signals feed the prediction head: the elementwise
product of the two static embeddings, an item-aspect bi-attention that
scores every (user-item, anchor-item) state pair jointly, and an
anchor-aspect attention over the user's previously browsed anchors.
A dot-product baseline in the SVD++ style is kept as an alternative
scoring head.  Each function scores a whole batch of B pairs: its output
is one (B, d) block, or (B,) scores for the SVD++ head.

Attention weights are shared across all pairs.  The paper's logit for
each aspect is a weight vector times a concatenation plus a bias, so the
terms every candidate shares (the static embeddings' and the bias) cancel
in the softmax: they are neither computed nor stored, and the model keeps
only the (d,) blocks that score pooled rows (`model.AttentionParams`).
What is left is a pooling of one owner's rows: the item-aspect softmax
over all M*N pairs factors into one softmax per side, and the
anchor-aspect softmax never sees the target.  So each function pools
every group of rows once, with one `autodiff.segment_attention` node per
side whatever its number of groups, then gathers one pooled row per
pair.  That node scores each row of the side's block once and pools
through a matrix of the softmax weights (sparse, or one dense row for a
lone group), so a row read by many groups, or many times by one (an
anchor a user browsed again), is never copied.  A group is the rows
of one owner's history, or under co-retrieval one pair's kept rows;
`Segments` says which rows form each group and which group each pair
reads.  Each function takes the (d,) weight vector that scores the rows
it pools.  An empty group pools to a zero row, so a pair with an empty
side gets a zero signal.
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
    counts each group's rows (0 for an empty group).  ``pair_group`` maps
    each pair to its group, or is None when pair b reads group b.
    ``len()`` is the number of groups.
    """

    index: np.ndarray
    lengths: np.ndarray
    pair_group: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.lengths)

    @property
    def rows(self) -> int:
        """Rows over all groups."""
        return len(self.index)

    def per_pair(self, x):
        """Each pair's row of a per-group tensor or array."""
        if self.pair_group is None:
            return x
        return ad.embedding_lookup(x, self.pair_group) if isinstance(x, Tensor) else x[self.pair_group]


def embed_similarity(e_u, e_a) -> Tensor:
    """Elementwise product of the pairs' static embeddings, (B, d) each."""
    if e_u.shape != e_a.shape:
        raise ad.ShapeError("embed_similarity", e_u.shape, e_a.shape)
    return ad.multiply_elementwise(e_u, e_a)


def _enriched(e, states, groups: Segments):
    """``e`` (S, d) plus each group's rows summed with weight 1/sqrt(n)."""
    mean = ad.segment_attention(states, np.zeros(states.shape[1]), groups.index, groups.lengths)
    return ad.add(e, ad.multiply_elementwise(mean, np.sqrt(groups.lengths)[:, None]))


def svdpp_similarity(e_u, user_states, user_groups: Segments, e_a, anchor_states,
                     anchor_groups: Segments) -> Tensor:
    """Dot product of history-enriched user and anchor vectors, (B,).

    ``e_u`` and ``e_a`` hold one static embedding per group.  Each side
    adds the sum of its group's item states weighted by 1/sqrt(history
    length) to its static embedding; an empty history adds nothing.

    That enrichment is ``sqrt(n)`` times the mean state, so the score grows
    with the history length, and on histories of 150-200 items training
    diverges: with `perfbench`'s `long-hist` config at seed 1 the train loss
    went from 0.634 in epoch 1 to 3.358 in epoch 2 and test scores read
    0.9999999 and above, where the MLP head's loss fell from 0.694 to 0.576.
    """
    left = user_groups.per_pair(_enriched(e_u, user_states, user_groups))
    right = anchor_groups.per_pair(_enriched(e_a, anchor_states, anchor_groups))
    return ad.reduce_sum(ad.multiply_elementwise(left, right), axis=1)


def item_aspect_interaction(user_states, user_groups: Segments, anchor_states, anchor_groups: Segments,
                            w_user, w_anchor) -> Tensor:
    """Bi-attention over all (user item, anchor item) state pairs, (B, d).

    Logit for pair (q', q'') is ``w . [e_u, h_q', e_a, h_q''] + b`` with a
    single softmax over all M*N pairs; the output is the attention-weighted
    sum of ``h_q' * h_q''`` products.  Either side empty yields a zero
    vector.  ``w_user`` and ``w_anchor`` are the (d,) blocks of ``w`` that
    score ``h_q'`` and ``h_q''``.

    The logit separates as ``lu_q' + la_q'' + const``, so the joint softmax
    is exactly ``outer(softmax(lu), softmax(la))`` and the output is
    ``(p^T H_u) * (q^T H_a)``, with no (M, N) block: each side's group is
    pooled once and every pair reads its two pooled rows.  The shared
    ``const = w1 . e_u + w3 . e_a + b`` cancels in the softmax: the output
    does not depend on ``w1``, ``w3``, the bias or the static embeddings,
    so none of them is taken.
    """
    p = ad.segment_attention(user_states, w_user, user_groups.index, user_groups.lengths)
    q = ad.segment_attention(anchor_states, w_anchor, anchor_groups.index, anchor_groups.lengths)
    return ad.multiply_elementwise(user_groups.per_pair(p), anchor_groups.per_pair(q))


def anchor_aspect_interaction(browsed_embeddings, browsed_groups: Segments, e_target, w_history) -> Tensor:
    """Attention over each user's browsed anchors against the target anchor, (B, d).

    A group is one user's browsed anchors, as rows of
    ``browsed_embeddings``, and ``e_target`` holds each pair's target
    embedding.  Logit for history anchor n' is ``w . [e_u, e_n', e_target]
    + b``; the output is the weighted sum of ``e_n' * e_target`` products.
    An empty history yields a zero vector.  ``w_history`` is the (d,) block
    of ``w`` that scores ``e_n'``.  The shared ``w1 . e_u + w3 . e_target +
    b`` cancels in the softmax and is not taken, so the softmax never sees
    the target: each user's browsed anchors are pooled once.
    """
    pooled = ad.segment_attention(browsed_embeddings, w_history, browsed_groups.index, browsed_groups.lengths)
    return ad.multiply_elementwise(browsed_groups.per_pair(pooled), e_target)
