"""Two-side interaction networks.

Three similarity signals feed the prediction head: the elementwise
product of the two static embeddings, an item-aspect bi-attention that
scores every (user-item, anchor-item) state pair jointly, and an
anchor-aspect attention over the user's previously browsed anchors.
A dot-product baseline in the SVD++ style is kept as an alternative
scoring head.

Attention weights are shared across all pairs (one weight vector and bias
per aspect).  Empty histories yield zero vectors so the downstream
concatenation is always well-formed.
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
    """
    dim = _dim_of(e_u)
    hu = _state_matrix(user_states)  # (M, d)
    ha = _state_matrix(anchor_states)  # (N, d)
    if hu is None or ha is None:
        if stats is not None:
            stats.pair_budgets.append(0)
        return Tensor(np.zeros(dim))
    t0 = time.perf_counter()
    m, n = hu.shape[0], ha.shape[0]
    w1, w2, w3, w4 = weight_pieces if weight_pieces is not None else _split(params.item_w, dim, 4)
    # the logit is linear in the concatenation, so it splits exactly into
    # a shared scalar plus per-side contributions
    const = ad.add(ad.add(ad.dot(w1, e_u), ad.dot(w3, e_a)), params.item_b)
    lu = ad.matmul(hu, w2)  # (M,)
    la = ad.matmul(ha, w4)  # (N,)
    logits = ad.add(ad.add(ad.reshape(lu, (m, 1)), ad.reshape(la, (1, n))), const)
    alpha = ad.softmax(ad.reshape(logits, (m * n,)))
    a_mat = ad.reshape(alpha, (m, n))
    right = ad.multiply_elementwise(ha, ha) if literal_square else ha
    mixed = ad.matmul(a_mat, right)  # (M, d)
    if literal_square:
        out = ad.reduce_sum(mixed, axis=0)
    else:
        out = ad.reduce_sum(ad.multiply_elementwise(hu, mixed), axis=0)
    if stats is not None:
        stats.pair_budgets.append(m * n)
        stats.wall_seconds += time.perf_counter() - t0
    return out


def anchor_aspect_interaction(e_u, browsed_anchor_embeddings, e_a_target, params: AttentionParams,
                              weight_pieces=None) -> Tensor:
    """Attention over the user's browsed anchors against the target anchor.

    Logit for history anchor n' is ``w . [e_u, e_n', e_target] + b``; the
    output is the weighted sum of ``e_n' * e_target`` products.  An empty
    history yields a zero vector.
    """
    dim = _dim_of(e_u)
    eh = _state_matrix(browsed_anchor_embeddings)  # (N, d)
    if eh is None:
        return Tensor(np.zeros(dim))
    n = eh.shape[0]
    w1, w2, w3 = weight_pieces if weight_pieces is not None else _split(params.anchor_w, dim, 3)
    const = ad.add(ad.add(ad.dot(w1, e_u), ad.dot(w3, e_a_target)), params.anchor_b)
    logits = ad.add(ad.matmul(eh, w2), const)
    alpha = ad.softmax(logits)
    mixed = ad.reshape(ad.matmul(ad.reshape(alpha, (1, n)), eh), (dim,))
    return ad.multiply_elementwise(mixed, e_a_target)
