"""Classification metrics against brute-force oracles."""

import numpy as np
import pytest

from tabrobust.metrics import auc_score, classification_metrics, mcc_score


def auc_pairwise(y_true, y_score):
    """O(n^2) comparison count: ties contribute one half."""
    pos = y_score[y_true == 1]
    neg = y_score[y_true == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def auc_by_loop(y_true, y_score):
    """The midrank loop auc_score used to run, kept as its bit-exact reference."""
    y_true = np.asarray(y_true, dtype=int)
    y_score = np.asarray(y_score, dtype=float)
    n_pos = int(np.sum(y_true == 1))
    n_neg = int(np.sum(y_true == 0))
    order = np.argsort(y_score, kind="stable")
    ranks = np.empty(len(y_score), dtype=float)
    sorted_scores = y_score[order]
    i = 0
    rank = 1
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        midrank = 0.5 * (rank + rank + (j - i))
        ranks[order[i : j + 1]] = midrank
        rank += j - i + 1
        i = j + 1
    rank_sum_pos = float(ranks[y_true == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def mcc_contingency(y_true, y_pred):
    tp = fn = fp = tn = 0
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 1 and p == 0:
            fn += 1
        elif t == 0 and p == 1:
            fp += 1
        else:
            tn += 1
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / (denom**0.5)


class TestAuc:
    def test_perfect_separation(self):
        y = np.array([0, 0, 1, 1])
        s = np.array([0.1, 0.2, 0.8, 0.9])
        assert auc_score(y, s) == 1.0

    def test_constant_scores_give_half(self):
        y = np.array([0, 1, 0, 1])
        s = np.full(4, 0.5)
        assert auc_score(y, s) == 0.5

    def test_single_class_raises(self):
        with pytest.raises(ValueError, match="single class"):
            auc_score(np.ones(4, dtype=int), np.linspace(0, 1, 4))

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(4, 30))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            # Coarse grid scores force plenty of ties.
            s = rng.integers(0, 5, n) / 4.0
            assert abs(auc_score(y, s) - auc_pairwise(y, s)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_bit_exact_against_midrank_loop(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            y = rng.integers(0, 2, n)
            y[:2] = rng.permutation([0, 1])
            scores = rng.uniform(0, 1, n)
            cases = {
                "tie-heavy": np.round(scores, 1),
                "tie-free": scores,
                "all tied": np.full(n, scores[0]),
                "two rows": scores[:2],
            }
            for name, s in cases.items():
                labels = y[: len(s)]
                assert auc_score(labels, s) == auc_by_loop(labels, s), name


class TestMcc:
    def test_perfect_prediction(self):
        y = np.array([0, 1, 0, 1])
        assert mcc_score(y, y) == 1.0

    def test_degenerate_margin_is_zero(self):
        y = np.array([0, 1, 0, 1])
        assert mcc_score(y, np.zeros(4, dtype=int)) == 0.0

    def test_matches_contingency_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            y = rng.integers(0, 2, n)
            p = rng.integers(0, 2, n)
            assert abs(mcc_score(y, p) - mcc_contingency(y, p)) <= 1e-12


class TestBundle:
    def test_all_fields_present(self):
        y = np.array([0, 1, 0, 1, 1])
        s = np.array([0.2, 0.9, 0.4, 0.6, 0.3])
        m = classification_metrics(y, s)
        assert set(m) == {"accuracy", "auc", "mcc", "precision", "recall"}
        assert m["accuracy"] == 0.8
        assert m["precision"] == 1.0
        assert m["recall"] == pytest.approx(2 / 3)

    def test_empty_positive_predictions(self):
        y = np.array([0, 1])
        s = np.array([0.1, 0.2])
        m = classification_metrics(y, s)
        assert m["precision"] == 0.0 and m["recall"] == 0.0
