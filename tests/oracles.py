"""Independent reference implementations used as test oracles.

Everything here is deliberately written as straight-line numpy / Python
loops, separate from the library's vectorized tape code paths, so the two
routes can be compared against each other.  ``pnn_chain`` is the one
tape-built reference: the chain of generic ops that the fused
``autodiff.pnn`` replaced, kept so that the op's bits stay pinned to it.
``mlp_head_chain`` does the same for ``autodiff.mlp_head`` in plain numpy,
since the ops of its chain have left the tape.
"""
from __future__ import annotations

import math

import numpy as np

from liverec import autodiff as ad


# ---------------------------------------------------------------------------
# finite differences


def fd_max_rel_error(build, arrays, eps=1e-5, floor=1e-8):
    """Max relative error between tape gradients and central differences.

    ``build`` maps a list of operands (tracked tensors or plain arrays)
    to a scalar; it is re-run with perturbed plain arrays for the
    numeric side.
    """
    tape = ad.Tape()
    tracked = [tape.watch(a) for a in arrays]
    root = build(tracked)
    gmap = ad.backward(tape, root)
    analytic = [gmap[t.node_id] for t in tracked]
    worst = 0.0
    for k, a in enumerate(arrays):
        for i in range(a.size):
            plus = [x.copy() for x in arrays]
            plus[k].ravel()[i] += eps
            minus = [x.copy() for x in arrays]
            minus[k].ravel()[i] -= eps
            num = (float(build(plus).data) - float(build(minus).data)) / (2 * eps)
            an = float(np.asarray(analytic[k]).ravel()[i])
            worst = max(worst, abs(an - num) / max(abs(an), abs(num), floor))
    return worst


# ---------------------------------------------------------------------------
# scalar math helpers


def sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def softmax_list(logits):
    m = max(logits)
    exps = [math.exp(v - m) for v in logits]
    s = sum(exps)
    return [e / s for e in exps]


# ---------------------------------------------------------------------------
# encoder references


def pnn_reference(active_fields, table):
    """Double-loop first/second order sum, straight from the definition."""
    d = table.shape[1]
    out = np.zeros(d)
    for j, x in active_fields:
        out += x * table[j]
    for a in range(len(active_fields)):
        for b in range(a + 1, len(active_fields)):
            ja, xa = active_fields[a]
            jb, xb = active_fields[b]
            out += (table[ja] * table[jb]) * xa * xb
    return out


def pnn_chain(table, positions):
    """``autodiff.pnn`` as the chain of generic tape ops it fuses: a gather
    (a -1 slot reads row 0), a mask when a slot is absent, the sum and the
    sum of squares over the slots, and the half-square arithmetic, nine
    nodes (ten with the mask)."""
    positions = np.asarray(positions, dtype=np.intp)
    absent = positions < 0
    vecs = ad.embedding_lookup(table, np.where(absent, 0, positions))
    if absent.any():
        vecs = ad.multiply_elementwise(vecs, ~absent[..., None])
    s = ad.reduce_sum(vecs, axis=-2)
    sq = ad.reduce_sum(ad.multiply_elementwise(vecs, vecs), axis=-2)
    second = ad.multiply_elementwise(ad.add(ad.multiply_elementwise(s, s), ad.multiply_elementwise(sq, -1.0)), 0.5)
    return ad.add(s, second)


def mlp_head_chain(parts, mask, w1, b1, w2, b2, g):
    """``autodiff.mlp_head`` as the chain of generic tape ops it fuses,
    each forward step and each backward rule as numpy computes it: join,
    mask, transpose, matmul, add, relu, matmul, add and a libm sigmoid, then
    the reverse sweep from the cotangent ``g`` of the (B,) scores.  Returns
    (scores, [d_w1, d_b1, d_w2, d_b2], [d_part for each part])."""
    z = np.concatenate(parts, axis=1)
    if mask is not None:
        z = z * mask
    w1_t = w1.T
    a1 = z @ w1_t + b1
    h = np.maximum(a1, 0.0)
    a2 = h @ w2 + b2
    out = np.array([1.0 / (math.exp(-v) + 1.0) for v in a2.tolist()])
    d_a2 = g * out * (1.0 - out)  # the sigmoid
    d_b2 = d_a2.sum(axis=0)  # the output add
    d_w2 = h.T @ d_a2  # the output matmul
    d_h = np.outer(d_a2, w2)
    d_a1 = d_h * (a1 > 0.0)  # the relu
    d_b1 = d_a1.sum(axis=0)  # the hidden add
    d_w1 = (z.T @ d_a1).T  # the hidden matmul, then the transpose
    d_z = d_a1 @ w1_t.T
    if mask is not None:  # the mask
        d_z = d_z * mask
    ends = np.cumsum([p.shape[1] for p in parts])
    return out, [d_w1, d_b1, d_w2, d_b2], [d_z[:, end - p.shape[1] : end] for p, end in zip(parts, ends)]


def lstm_gates(p):
    """Per-gate arrays of a fused LstmParams, keyed "wi", "uf", "bc", ...

    Row block j of ``w``, ``u`` and ``b`` belongs to gate ``"ifoc"[j]``
    (input, forget, output, candidate).
    """
    d = np.shape(p.u)[1]
    return {f"{m}{g}": np.asarray(getattr(p, m))[j * d : (j + 1) * d]
            for m in "wub" for j, g in enumerate("ifoc")}


def lstm_reference(xs, p):
    """Pure scalar-loop LSTM over a list of (d,) inputs; returns all h.

    ``p`` maps "wi", "wf", ..., "bc" to one (d, d) matrix or (d,) bias per
    gate, as ``lstm_gates`` returns them.
    """
    d = xs[0].shape[0] if xs else 0
    h = [0.0] * d
    c = [0.0] * d
    states = []
    for x in xs:
        zi = [sum(p["wi"][r][k] * x[k] for k in range(d)) + sum(p["ui"][r][k] * h[k] for k in range(d)) + p["bi"][r] for r in range(d)]
        zf = [sum(p["wf"][r][k] * x[k] for k in range(d)) + sum(p["uf"][r][k] * h[k] for k in range(d)) + p["bf"][r] for r in range(d)]
        zo = [sum(p["wo"][r][k] * x[k] for k in range(d)) + sum(p["uo"][r][k] * h[k] for k in range(d)) + p["bo"][r] for r in range(d)]
        zc = [sum(p["wc"][r][k] * x[k] for k in range(d)) + sum(p["uc"][r][k] * h[k] for k in range(d)) + p["bc"][r] for r in range(d)]
        i_g = [sigmoid(v) for v in zi]
        f_g = [sigmoid(v) for v in zf]
        o_g = [sigmoid(v) for v in zo]
        g_g = [math.tanh(v) for v in zc]
        c = [f_g[r] * c[r] + i_g[r] * g_g[r] for r in range(d)]
        h = [o_g[r] * math.tanh(c[r]) for r in range(d)]
        states.append(np.array(h))
    return states


# ---------------------------------------------------------------------------
# op references


def segment_attention_reference(states, w, index, lengths, cotangent=None):
    """``autodiff.segment_attention`` by gathering each entry's rows.

    Every entry of ``index`` gathers its state row, the softmax runs per
    group with ``np.maximum.reduceat`` and ``np.add.reduceat``, and the
    weighted rows are summed per group with ``np.add.reduceat``.  Returns
    the (S, d) output; given a (S, d) ``cotangent`` g, also the gradients
    of ``sum(g * out)`` as (states, w).  The gathered gradient rows go back
    with ``np.add.at``.
    """
    states, w = np.asarray(states, dtype=float), np.asarray(w, dtype=float)
    idx = np.asarray(index, dtype=np.intp)
    counts = np.asarray(lengths, dtype=np.intp)
    full = counts > 0
    starts = (np.cumsum(counts) - counts)[full]
    group = np.repeat(np.arange(starts.size), counts[full])  # each entry's non-empty group
    x = states[idx]
    out = np.zeros((counts.size, states.shape[1]))
    d_states, d_w = np.zeros_like(states), np.zeros_like(w)
    if idx.size:
        logits = x @ w
        e = np.exp(logits - np.maximum.reduceat(logits, starts)[group])
        a = e / np.add.reduceat(e, starts)[group]
        pooled = np.add.reduceat(a[:, None] * x, starts, axis=0)
        out[full] = pooled
    if cotangent is None:
        return out
    if idx.size:
        gs = np.asarray(cotangent, dtype=float)[full]
        gk = gs[group]  # each entry's group gradient
        dl = a * (np.einsum("ij,ij->i", gk, x) - np.einsum("ij,ij->i", gs, pooled)[group])
        d_w = dl @ x
        np.add.at(d_states, idx, a[:, None] * gk + np.outer(dl, w))
    return out, (d_states, d_w)


# ---------------------------------------------------------------------------
# interaction references


def item_attention_reference(e_u, user_h, e_a, anchor_h, w, b):
    """Brute-force double loop over all state pairs."""
    if not len(user_h) or not len(anchor_h):
        return np.zeros(len(e_u))
    logits = []
    prods = []
    for hu in user_h:
        for ha in anchor_h:
            feats = np.concatenate([e_u, hu, e_a, ha])
            logits.append(float(np.dot(w, feats)) + float(b))
            prods.append(hu * ha)
    alphas = softmax_list(logits)
    out = np.zeros(len(e_u))
    for alpha, prod in zip(alphas, prods):
        out += alpha * prod
    return out


def paper_attention_weights(attn, seed=0):
    """The paper's whole attention logit weights around the model's stored
    blocks: (item ``w`` over ``[e_u, h_user, e_a, h_anchor]``, its bias,
    anchor ``w`` over ``[e_u, e_browsed, e_target]``, its bias).

    The model stores only the blocks that score pooled rows, because the
    others and the biases are shared by every candidate of a softmax.
    Here they are seeded random values, so a reference that takes these
    logits and agrees with the model re-checks that they cancel.
    """
    rng = np.random.default_rng(seed)
    shared = rng.normal(size=(4, len(attn.item_user)))
    item_w = np.concatenate([shared[0], attn.item_user, shared[1], attn.item_anchor])
    anchor_w = np.concatenate([shared[2], attn.browsed, shared[3]])
    return item_w, rng.normal(), anchor_w, rng.normal()


def anchor_attention_reference(e_u, history, e_target, w, b):
    if not len(history):
        return np.zeros(len(e_u))
    logits = []
    for eh in history:
        feats = np.concatenate([e_u, eh, e_target])
        logits.append(float(np.dot(w, feats)) + float(b))
    alphas = softmax_list(logits)
    out = np.zeros(len(e_u))
    for alpha, eh in zip(alphas, history):
        out += alpha * (eh * e_target)
    return out


def svdpp_reference(e_u, user_h, e_a, anchor_h, lam=None, beta=None):
    left = np.array(e_u, dtype=float)
    if len(user_h):
        lam = np.full(len(user_h), 1.0 / math.sqrt(len(user_h))) if lam is None else lam
        for w, h in zip(lam, user_h):
            left = left + w * h
    right = np.array(e_a, dtype=float)
    if len(anchor_h):
        beta = np.full(len(anchor_h), 1.0 / math.sqrt(len(anchor_h))) if beta is None else beta
        for w, h in zip(beta, anchor_h):
            right = right + w * h
    return float(np.dot(left, right))


# ---------------------------------------------------------------------------
# retrieval reference


def naive_filtered_history(catalog, side, owner_id, common):
    """Scan the full history and keep common-category occurrences."""
    if side == "user":
        history = catalog.users[owner_id].browsed_items
    else:
        history = catalog.anchors[owner_id].broadcast_items
    return [(pos, iid) for pos, iid in enumerate(history) if catalog.items[iid].category in common]


def select_round_robin(per_cat, common, cap):
    """Queue-by-queue round-robin truncation, as ``retrieval._select`` once
    ran it: cycle the common categories in ascending order, one item (most
    recent first) per category a turn, dropping a category once it is used
    up, until ``cap`` items are picked; then restore chronological order."""
    queues = {c: iter(per_cat[c]) for c in sorted(common)}
    picked: list[tuple[int, int]] = []
    while queues and len(picked) < cap:
        for c in list(queues):
            if len(picked) >= cap:
                break
            nxt = next(queues[c], None)
            if nxt is None:
                del queues[c]
            else:
                picked.append(nxt)
    picked.sort()
    return [p for p, _ in picked], [i for _, i in picked]


def naive_co_retrieve(catalog, user_id, anchor_id, cap):
    """Scan-and-filter retrieval with the same round-robin truncation."""
    u_hist = catalog.users[user_id].browsed_items
    a_hist = catalog.anchors[anchor_id].broadcast_items
    c_u = {catalog.items[i].category for i in u_hist}
    c_a = {catalog.items[i].category for i in a_hist}
    common = c_u & c_a

    def truncate(entries):
        by_cat: dict[int, list] = {}
        for pos, iid in entries:  # chronological; most recent first per category
            by_cat.setdefault(catalog.items[iid].category, []).insert(0, (pos, iid))
        queues = {c: list(v) for c, v in sorted(by_cat.items())}
        picked = []
        while queues and len(picked) < cap:
            for c in sorted(list(queues)):
                if len(picked) >= cap:
                    break
                if not queues[c]:
                    del queues[c]
                    continue
                picked.append(queues[c].pop(0))
        picked.sort()
        return picked

    u_sel = truncate(naive_filtered_history(catalog, "user", user_id, common))
    a_sel = truncate(naive_filtered_history(catalog, "anchor", anchor_id, common))
    return {
        "common": common,
        "user_multiset": sorted(i for _, i in naive_filtered_history(catalog, "user", user_id, common)),
        "anchor_multiset": sorted(i for _, i in naive_filtered_history(catalog, "anchor", anchor_id, common)),
        "user_items": [i for _, i in u_sel],
        "anchor_items": [i for _, i in a_sel],
        "user_positions": [p for p, _ in u_sel],
        "anchor_positions": [p for p, _ in a_sel],
    }


# ---------------------------------------------------------------------------
# metric reference


def auc_reference(scores, labels):
    """Rank-sum AUC with midranks found by a loop over the sorted scores:
    each tie group (sorted positions i..j) ranks ``0.5*(i+j) + 1``, as
    ``metrics.compute_auc`` ranks them."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s), dtype=np.float64)
    sorted_scores = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def auc_pairwise(scores, labels):
    """O(n^2) pairwise counting with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# whole-model straight-line reference (eval mode)


def forward_reference(catalog, params, config, user_id, anchor_id):
    """Recompute the eval-mode forward pass without the tape machinery."""
    def pnn(kind, features):
        table = getattr(params.pnn, kind)
        offsets = params.offsets[kind]
        fields = [(offsets[j] + v, 1.0) for j, v in enumerate(features)]
        return pnn_reference(fields, np.asarray(table))

    user = catalog.users[user_id]
    anchor = catalog.anchors[anchor_id]
    e_u = pnn("user", user.features)
    e_a = pnn("anchor", anchor.features)

    def item_states(ids):
        xs = [pnn("item", catalog.items[i].features) for i in ids]
        return lstm_reference(xs, lstm_gates(params.lstm))

    d = config.dim
    item_w, item_b, anchor_w, anchor_b = paper_attention_weights(params.attn)
    if config.svdpp_head:
        score = svdpp_reference(
            e_u, item_states(user.browsed_items), e_a, item_states(anchor.broadcast_items)
        )
        return sigmoid(score)

    y_e = e_u * e_a

    if config.variant == "no_item_aspect":
        y_i = np.zeros(d)
    else:
        u_states = item_states(user.browsed_items)
        a_states = item_states(anchor.broadcast_items)
        if config.variant == "with_co_retrieval":
            sel = naive_co_retrieve(catalog, user_id, anchor_id, config.co_retrieval_k)
            u_states = [u_states[p] for p in sel["user_positions"]]
            a_states = [a_states[p] for p in sel["anchor_positions"]]
        y_i = item_attention_reference(e_u, u_states, e_a, a_states, item_w, item_b)

    if config.variant == "no_anchor_aspect" or not user.browsed_anchors:
        y_a = np.zeros(d)
    else:
        hist = [pnn("anchor", catalog.anchors[h].features) for h in user.browsed_anchors]
        y_a = anchor_attention_reference(e_u, hist, e_a, anchor_w, anchor_b)

    z = np.concatenate([y_e, y_i, y_a])
    hidden = np.maximum(np.asarray(params.mlp.w1) @ z + np.asarray(params.mlp.b1), 0.0)
    score = float(np.asarray(params.mlp.w2) @ hidden) + float(np.asarray(params.mlp.b2))
    return sigmoid(score)
