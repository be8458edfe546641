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
pairs factors into one softmax per side.  Empty histories yield zero
vectors so the downstream concatenation is always well-formed.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import stack_states


@dataclass
class AttentionParams:
    """Shared attention weights: item aspect (4d,) + bias, anchor aspect (3d,) + bias."""

    item_w: object
    item_b: object
    anchor_w: object
    anchor_b: object


@dataclass
class SvdppWeights:
    """Per-position scalar weights for the dot-product baseline.

    None means the default 1/sqrt(history length) on either side; an
    all-zero anchor side recovers the classical user-only form.
    """

    user: np.ndarray | None = None
    anchor: np.ndarray | None = None


@dataclass
class InteractionStats:
    """Instrumentation: attention pair counts and wall time."""

    pair_budgets: list = field(default_factory=list)
    wall_seconds: float = 0.0

    def mean_pair_budget(self) -> float:
        return float(np.mean(self.pair_budgets)) if self.pair_budgets else 0.0


def _state_matrix(states):
    """Normalize state input to an (M, d) tensor; None when empty.

    Accepts an (M, d) tensor or array, None, or a list of (d,) tensors.
    """
    if states is None:
        return None
    if isinstance(states, Tensor) or (isinstance(states, np.ndarray) and states.ndim == 2):
        return states if states.shape[0] else None
    states = list(states)
    if not states:
        return None
    return stack_states(states)


def _dim_of(e_u) -> int:
    return e_u.shape[0] if isinstance(e_u, Tensor) else np.asarray(e_u).shape[0]


def embed_similarity(e_u, e_a) -> Tensor:
    """Elementwise product of the two static embeddings."""
    du, da = _dim_of(e_u), _dim_of(e_a)
    if du != da:
        raise ad.ShapeError("embed_similarity", (du,), (da,))
    return ad.multiply_elementwise(e_u, e_a)


def _split(w, dim: int, k: int) -> list[Tensor]:
    """Slice a (k*dim,) weight vector into k (dim,) pieces: one reshape, k row gathers."""
    rows = ad.reshape(w, (k, dim))
    return [ad.embedding_lookup(rows, i) for i in range(k)]


def svdpp_similarity(e_u, user_item_states, e_a, anchor_item_states, weights: SvdppWeights | None = None) -> Tensor:
    """Dot product of history-enriched user and anchor vectors (scalar)."""
    hu = _state_matrix(user_item_states)
    ha = _state_matrix(anchor_item_states)
    weights = weights or SvdppWeights()
    left = e_u
    if hu is not None:
        m = hu.shape[0]
        lam = weights.user if weights.user is not None else np.full(m, 1.0 / np.sqrt(m))
        mixed = ad.matmul(ad.reshape(np.asarray(lam, dtype=float), (1, m)), hu)
        left = ad.add(left, ad.reshape(mixed, (_dim_of(e_u),)))
    right = e_a
    if ha is not None:
        n = ha.shape[0]
        beta = weights.anchor if weights.anchor is not None else np.full(n, 1.0 / np.sqrt(n))
        mixed = ad.matmul(ad.reshape(np.asarray(beta, dtype=float), (1, n)), ha)
        right = ad.add(right, ad.reshape(mixed, (_dim_of(e_a),)))
    return ad.dot(left, right)


def item_aspect_interaction(
    e_u,
    user_states,
    e_a,
    anchor_states,
    params: AttentionParams,
    literal_square: bool = False,
    stats: InteractionStats | None = None,
    weight_pieces=None,
) -> Tensor:
    """Bi-attention over all (user item, anchor item) state pairs.

    Logit for pair (q', q'') is ``w . [e_u, h_q', e_a, h_q''] + b`` with a
    single softmax over all M*N pairs; the output is the attention-weighted
    sum of ``h_q' * h_q''`` products.  ``literal_square`` switches the
    product to the anchor-side square ``h_q'' * h_q''`` variant.  Either
    side empty yields a zero vector.  ``weight_pieces`` optionally carries
    the four (d,) slices of the weight vector, already split on this tape.

    The logit separates as ``lu_q' + la_q'' + const``, so the joint softmax
    is exactly ``outer(softmax(lu), softmax(la))`` and the output is
    ``(p^T H_u) * (q^T H_a)`` (``q^T (H_a * H_a)`` for the square), with
    no (M, N) block.  The shared ``const = w1 . e_u + w3 . e_a + b``
    cancels in the softmax and is not computed: the output does not depend
    on ``w1``, ``w3``, the bias or the static embeddings, so they get no
    gradient from this layer (in exact arithmetic that gradient was
    already zero; only their L2 term moves them).
    """
    hu = _state_matrix(user_states)  # (M, d)
    ha = _state_matrix(anchor_states)  # (N, d)
    if hu is None or ha is None:
        if stats is not None:
            stats.pair_budgets.append(0)
        return Tensor(np.zeros(_dim_of(e_u)))
    t0 = time.perf_counter()
    _, w2, _, w4 = weight_pieces if weight_pieces is not None else _split(params.item_w, _dim_of(e_u), 4)
    q = ad.softmax(ad.matmul(ha, w4))  # (N,)
    if literal_square:
        out = ad.matmul(q, ad.multiply_elementwise(ha, ha))
    else:
        p = ad.softmax(ad.matmul(hu, w2))  # (M,)
        out = ad.multiply_elementwise(ad.matmul(p, hu), ad.matmul(q, ha))
    if stats is not None:
        stats.pair_budgets.append(hu.shape[0] * ha.shape[0])
        stats.wall_seconds += time.perf_counter() - t0
    return out


def anchor_aspect_interaction(e_u, browsed_anchor_embeddings, e_a_target, params: AttentionParams,
                              weight_pieces=None) -> Tensor:
    """Attention over the user's browsed anchors against the target anchor.

    Logit for history anchor n' is ``w . [e_u, e_n', e_target] + b``; the
    output is the weighted sum of ``e_n' * e_target`` products.  An empty
    history yields a zero vector.  The shared ``w1 . e_u + w3 . e_target
    + b`` cancels in the softmax and is not computed, so ``w1``, ``w3``
    and the bias get no gradient from this layer.
    """
    dim = _dim_of(e_u)
    eh = _state_matrix(browsed_anchor_embeddings)  # (N, d)
    if eh is None:
        return Tensor(np.zeros(dim))
    _, w2, _ = weight_pieces if weight_pieces is not None else _split(params.anchor_w, dim, 3)
    alpha = ad.softmax(ad.matmul(eh, w2))
    return ad.multiply_elementwise(ad.matmul(alpha, eh), e_a_target)
