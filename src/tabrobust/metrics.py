"""Binary classification metrics.

AUC uses the rank statistic with midranks for tied scores, so it agrees
exactly with the pairwise comparison count. MCC follows the contingency
definition and is 0 whenever a confusion row or column is empty.
"""

from __future__ import annotations

import numpy as np


def auc_score(y_true: np.ndarray, y_score: np.ndarray) -> float:
    """Area under the ROC curve via the Mann-Whitney rank statistic."""
    y_true = np.asarray(y_true, dtype=int)
    y_score = np.asarray(y_score, dtype=float)
    n_pos = int(np.sum(y_true == 1))
    n_neg = int(np.sum(y_true == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC is undefined when y_true has a single class")
    order = np.argsort(y_score, kind="stable")
    sorted_scores = y_score[order]
    # Tie groups of the sorted scores: each one's first position and size.
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    counts = np.diff(np.r_[starts, len(sorted_scores)])
    ranks = np.empty(len(y_score), dtype=float)
    ranks[order] = np.repeat(0.5 * (2 * (starts + 1) + (counts - 1)), counts)
    rank_sum_pos = float(ranks[y_true == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def confusion_counts(
    y_true: np.ndarray, y_pred: np.ndarray
) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) for binary labels."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    return tp, fp, tn, fn


def mcc_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Matthews correlation coefficient; 0 for degenerate margins."""
    tp, fp, tn, fn = confusion_counts(y_true, y_pred)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / np.sqrt(float(denom))


def classification_metrics(y_true: np.ndarray, y_score: np.ndarray) -> dict[str, float]:
    """accuracy, AUC, MCC, precision, recall at the score threshold 0.5.

    Precision/recall of an empty predicted/actual positive set are 0.
    """
    y_true = np.asarray(y_true, dtype=int)
    y_score = np.asarray(y_score, dtype=float)
    y_pred = (y_score >= 0.5).astype(int)
    tp, fp, tn, fn = confusion_counts(y_true, y_pred)
    n = len(y_true)
    return {
        "accuracy": (tp + tn) / n if n else 0.0,
        "auc": auc_score(y_true, y_score),
        "mcc": mcc_score(y_true, y_pred),
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "recall": tp / (tp + fn) if tp + fn else 0.0,
    }
