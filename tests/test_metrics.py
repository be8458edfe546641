"""AUC / ACC / LogLoss against hand values and the pairwise oracle."""
import json
import math

import numpy as np
import pytest

from liverec.metrics import (
    UndefinedMetricError,
    compute_acc,
    compute_auc,
    compute_logloss,
    make_report,
)

from oracles import auc_pairwise, auc_reference


def test_auc_perfect_ranking():
    assert compute_auc([0.9, 0.1], [1, 0]) == 1.0


def test_auc_all_ties_is_half():
    assert compute_auc([0.3, 0.3, 0.3, 0.3], [1, 0, 1, 0]) == 0.5


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(10, 500))
        # quantized scores make ties common
        scores = np.round(rng.random(n), 1 if trial % 2 else 3)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        got = compute_auc(scores, labels)
        want = auc_pairwise(list(scores), list(labels))
        assert got == pytest.approx(want, abs=1e-9)


def test_auc_equals_the_midrank_loop_exactly():
    # the tie groups come from numpy, the ranks and their sum must not move
    rng = np.random.default_rng(3)
    cases = [
        (np.full(7, 0.25), [1, 0, 0, 1, 0, 1, 1]),  # one group of everything
        (rng.permutation(50) / 50.0, rng.integers(0, 2, size=50)),  # single-element groups only
    ]
    for trial in range(30):
        n = int(rng.integers(2, 400))
        # heavy ties: a handful of distinct values, and a run of singletons
        scores = np.concatenate([rng.integers(0, 1 + trial % 5, size=n) / 7.0, rng.random(trial)])
        cases.append((rng.permutation(scores), rng.integers(0, 2, size=scores.size)))
    for scores, labels in cases:
        labels = np.array(labels)
        labels[:2] = (0, 1)
        assert compute_auc(scores, labels) == auc_reference(scores, labels)


def test_auc_single_class_is_undefined():
    with pytest.raises(UndefinedMetricError):
        compute_auc([0.2, 0.8], [1, 1])


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.random(200)
    labels = rng.integers(0, 2, size=200)
    base = compute_auc(scores, labels)
    for f in (lambda s: 2 * s + 3, lambda s: s**3, np.tanh):
        assert compute_auc(f(scores), labels) == pytest.approx(base, abs=1e-12)


def test_acc_hand_cases():
    assert compute_acc([0.6, 0.4], [1, 0]) == 1.0
    assert compute_acc([0.4] * 5, [1] * 5) == 0.0
    scores = [0.9, 0.8, 0.2, 0.6, 0.4, 0.5, 0.1, 0.7, 0.3, 0.55]
    labels = [1, 0, 0, 1, 1, 0, 0, 1, 1, 1]
    # manual tally: predictions at >= 0.5 are 1,1,0,1,0,1,0,1,0,1
    assert compute_acc(scores, labels) == pytest.approx(6 / 10)


def test_acc_threshold_is_greater_equal():
    assert compute_acc([0.5], [1]) == 1.0
    assert compute_acc([0.5], [0]) == 0.0


def test_acc_equals_one_minus_hamming():
    rng = np.random.default_rng(2)
    scores = rng.random(100)
    labels = rng.integers(0, 2, size=100)
    preds = (scores >= 0.5).astype(int)
    hamming = np.mean(preds != labels)
    assert compute_acc(scores, labels) == pytest.approx(1.0 - hamming)


def test_logloss_at_half_is_ln2():
    assert compute_logloss([0.5] * 7, [1, 0, 1, 0, 1, 0, 1]) == pytest.approx(math.log(2), abs=1e-12)


def test_logloss_perfect_predictions_hit_clamp_floor():
    assert compute_logloss([1.0, 0.0], [1, 0]) == pytest.approx(1e-7, rel=1e-6)


def test_logloss_hand_value():
    # mean of -(ln 0.9 + ln 0.8) = 0.32850.../2
    want = -(math.log(0.9) + math.log(0.8)) / 2
    assert compute_logloss([0.9, 0.2], [1, 0]) == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.16425, abs=1e-4)


def test_metrics_permutation_invariant():
    rng = np.random.default_rng(3)
    scores = rng.random(50)
    labels = rng.integers(0, 2, size=50)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    perm = rng.permutation(50)
    assert compute_auc(scores[perm], labels[perm]) == pytest.approx(compute_auc(scores, labels), abs=1e-12)
    assert compute_acc(scores[perm], labels[perm]) == pytest.approx(compute_acc(scores, labels))
    assert compute_logloss(scores[perm], labels[perm]) == pytest.approx(compute_logloss(scores, labels), abs=1e-12)


def test_report_single_class_flags_absent_auc():
    report = make_report([0.2, 0.7], [1, 1])
    assert report.auc is None
    parsed = json.loads(report.to_json())
    assert parsed["auc"] is None
    assert "undefined" in report.table()


def test_report_fields():
    report = make_report([0.9, 0.1], [1, 0], mean_pair_budget=12.5, wall_seconds=0.25)
    assert report.auc == 1.0
    assert report.n_samples == 2
    assert report.mean_pair_budget == 12.5
