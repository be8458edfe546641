"""Two-side interaction networks.

Three similarity signals feed the prediction head: the elementwise
product of the two static embeddings, an item-aspect bi-attention that
scores every (user-item, anchor-item) state pair jointly, and an
anchor-aspect attention over the user's previously browsed anchors.
A dot-product baseline in the SVD++ style is kept as an alternative
scoring head.

Attention weights are shared across all pairs (one weight vector and bias
per aspect).  Each logit is linear in a concatenation, so the terms every
candidate shares (the static embeddings' and the bias) cancel in the
softmax and are not computed, and the item-aspect softmax over all M*N
pairs factors into one softmax per side.  So each function takes only the
(d,) slices of the weight vector that score the rows it attends over;
the caller cuts them.  Empty histories yield zero vectors so the
downstream concatenation is always well-formed.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def _state_matrix(states):
    """An (M, d) state tensor or array as given; None when it has no rows."""
    if states is None or not states.shape[0]:
        return None
    return states


def _dim_of(e_u) -> int:
    return e_u.shape[0] if isinstance(e_u, Tensor) else np.asarray(e_u).shape[0]


def embed_similarity(e_u, e_a) -> Tensor:
    """Elementwise product of the two static embeddings."""
    du, da = _dim_of(e_u), _dim_of(e_a)
    if du != da:
        raise ad.ShapeError("embed_similarity", (du,), (da,))
    return ad.multiply_elementwise(e_u, e_a)


def _enriched(e, states):
    """``e`` plus the 1/sqrt(n)-weighted sum of the n state rows; ``e`` alone for none."""
    h = _state_matrix(states)
    if h is None:
        return e
    n = h.shape[0]
    mixed = ad.matmul(np.full((1, n), 1.0 / np.sqrt(n)), h)
    return ad.add(e, ad.reshape(mixed, (_dim_of(e),)))


def svdpp_similarity(e_u, user_item_states, e_a, anchor_item_states) -> Tensor:
    """Dot product of history-enriched user and anchor vectors (scalar).

    Each side adds the sum of its item states weighted by 1/sqrt(history
    length) to its static embedding; an empty history adds nothing.
    """
    return ad.dot(_enriched(e_u, user_item_states), _enriched(e_a, anchor_item_states))


def item_aspect_interaction(e_u, user_states, e_a, anchor_states, w_user, w_anchor,
                            literal_square: bool = False) -> Tensor:
    """Bi-attention over all (user item, anchor item) state pairs.

    Logit for pair (q', q'') is ``w . [e_u, h_q', e_a, h_q''] + b`` with a
    single softmax over all M*N pairs; the output is the attention-weighted
    sum of ``h_q' * h_q''`` products.  ``literal_square`` switches the
    product to the anchor-side square ``h_q'' * h_q''`` variant.  Either
    side empty yields a zero vector.  ``w_user`` and ``w_anchor`` are the
    (d,) slices of ``w`` that score ``h_q'`` and ``h_q''``.

    The logit separates as ``lu_q' + la_q'' + const``, so the joint softmax
    is exactly ``outer(softmax(lu), softmax(la))`` and the output is
    ``(p^T H_u) * (q^T H_a)`` (``q^T (H_a * H_a)`` for the square), with
    no (M, N) block.  The shared ``const = w1 . e_u + w3 . e_a + b``
    cancels in the softmax and is not taken: the output does not depend on
    ``w1``, ``w3``, the bias or the static embeddings, so they get no
    gradient from this layer (in exact arithmetic that gradient was
    already zero; only their L2 term moves them).
    """
    hu = _state_matrix(user_states)  # (M, d)
    ha = _state_matrix(anchor_states)  # (N, d)
    if hu is None or ha is None:
        return Tensor(np.zeros(_dim_of(e_u)))
    q = ad.softmax(ad.matmul(ha, w_anchor))  # (N,)
    if literal_square:
        return ad.matmul(q, ad.multiply_elementwise(ha, ha))
    p = ad.softmax(ad.matmul(hu, w_user))  # (M,)
    return ad.multiply_elementwise(ad.matmul(p, hu), ad.matmul(q, ha))


def anchor_aspect_interaction(e_u, browsed_anchor_embeddings, e_a_target, w_history) -> Tensor:
    """Attention over the user's browsed anchors against the target anchor.

    Logit for history anchor n' is ``w . [e_u, e_n', e_target] + b``; the
    output is the weighted sum of ``e_n' * e_target`` products.  An empty
    history yields a zero vector.  ``w_history`` is the (d,) slice of ``w``
    that scores ``e_n'``.  The shared ``w1 . e_u + w3 . e_target + b``
    cancels in the softmax and is not taken, so ``w1``, ``w3`` and the
    bias get no gradient from this layer.
    """
    eh = _state_matrix(browsed_anchor_embeddings)  # (N, d)
    if eh is None:
        return Tensor(np.zeros(_dim_of(e_u)))
    alpha = ad.softmax(ad.matmul(eh, w_history))
    return ad.multiply_elementwise(ad.matmul(alpha, eh), e_a_target)
