"""Offline evaluation: AUC, accuracy at a fixed threshold, mean log loss.

AUC is the probability that a random positive outranks a random negative
(ties count half), computed by rank-sum in O(n log n).  A split with only
one class has no defined AUC and is reported as absent rather than as a
number.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# scores are clipped to [CLAMP, 1 - CLAMP] before a log, here and in the
# training loss (`autodiff.log_loss`), so both take the same log loss
CLAMP = 1e-7


class UndefinedMetricError(ValueError):
    """The metric is undefined for this input (single-class labels)."""


def compute_auc(scores, labels) -> float:
    """Rank-sum AUC with midrank tie handling."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative label")
    order = np.argsort(s, kind="stable")
    sorted_scores = s[order]
    # tie groups of the sorted scores: sorted positions first..last
    first = np.flatnonzero(np.concatenate([[True], sorted_scores[1:] != sorted_scores[:-1]]))
    last = np.append(first[1:], len(s)) - 1
    ranks = np.empty(len(s), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)  # midrank, 1-based
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def compute_acc(scores, labels, threshold: float = 0.5) -> float:
    """Fraction of samples where (score >= threshold) matches the label."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if len(s) == 0:
        raise ValueError("compute_acc: empty input")
    return float(np.mean((s >= threshold) == (y == 1)))


def compute_logloss(scores, labels) -> float:
    """Mean negative log-likelihood with scores clamped to [1e-7, 1-1e-7]."""
    s = np.clip(np.asarray(scores, dtype=np.float64), CLAMP, 1.0 - CLAMP)
    y = np.asarray(labels, dtype=np.float64)
    if len(s) == 0:
        raise ValueError("compute_logloss: empty input")
    return float(-np.mean(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)))


@dataclass
class EvalReport:
    """Metrics for one evaluation run; auc is None when undefined."""

    auc: float | None
    acc: float
    logloss: float
    n_samples: int
    mean_pair_budget: float
    wall_seconds: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "auc": self.auc,
                "acc": self.acc,
                "logloss": self.logloss,
                "n_samples": self.n_samples,
                "mean_pair_budget": self.mean_pair_budget,
                "wall_seconds": self.wall_seconds,
            }
        )

    def table(self) -> str:
        rows = [
            ("auc", "undefined (single-class split)" if self.auc is None else f"{self.auc:.6f}"),
            ("acc", f"{self.acc:.6f}"),
            ("logloss", f"{self.logloss:.6f}"),
            ("n_samples", str(self.n_samples)),
            ("mean_pair_budget", f"{self.mean_pair_budget:.2f}"),
            ("wall_seconds", f"{self.wall_seconds:.3f}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def make_report(scores, labels, mean_pair_budget: float = 0.0, wall_seconds: float = 0.0) -> EvalReport:
    y = np.asarray(labels)
    try:
        auc = compute_auc(scores, y)
    except UndefinedMetricError:
        auc = None
    return EvalReport(
        auc=auc,
        acc=compute_acc(scores, y),
        logloss=compute_logloss(scores, y),
        n_samples=len(y),
        mean_pair_budget=float(mean_pair_budget),
        wall_seconds=float(wall_seconds),
    )
