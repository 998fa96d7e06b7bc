"""Per-pair one-vs-one loops (oracles for ``OneVsOneClassifier``)."""

import numpy as np

from repro.ml.base import check_Xy
from repro.ml.ovo import OneVsOneClassifier


def ovo_fit_reference(
    clf: OneVsOneClassifier, X: np.ndarray, y: np.ndarray
) -> OneVsOneClassifier:
    """Fit ``clf`` by refitting the base estimator on every pair subset."""
    X, y = check_Xy(X, y)
    clf.classes_ = np.unique(y)
    clf.estimators_ = {}
    for a, b in clf._class_pairs():
        mask = (y == clf.classes_[a]) | (y == clf.classes_[b])
        clone = clf.base_estimator.clone()
        clone.fit(X[mask], y[mask])
        clf.estimators_[(a, b)] = clone
    return clf


def ovo_vote_matrix_reference(
    clf: OneVsOneClassifier, X: np.ndarray
) -> np.ndarray:
    """Raw vote counts accumulated pair by pair."""
    X = check_Xy(X)
    votes = np.zeros((len(X), len(clf.classes_)))
    for (a, b), estimator in clf.estimators_.items():
        winner_a = estimator.predict(X) == clf.classes_[a]
        votes[winner_a, a] += 1
        votes[~winner_a, b] += 1
    return votes


def ovo_predict_reference(clf: OneVsOneClassifier, X: np.ndarray) -> np.ndarray:
    """Majority vote with soft-score tie-breaking, accumulated pair by pair."""
    X = check_Xy(X)
    votes = np.zeros((len(X), len(clf.classes_)))
    scores = np.zeros((len(X), len(clf.classes_)))
    for (a, b), estimator in clf.estimators_.items():
        winner_a = estimator.predict(X) == clf.classes_[a]
        votes[winner_a, a] += 1
        votes[~winner_a, b] += 1
        soft = clf._pair_soft_score(estimator, X, clf.classes_[a])
        if soft is not None:
            scores[:, a] += soft
            scores[:, b] -= soft
    ranking = votes + 1e-9 * np.tanh(scores)
    return clf.classes_[np.argmax(ranking, axis=1)]
