"""Per-pair vote loop (oracle for ``PairwiseVotingClassifier.predict``)."""

import numpy as np

from repro.core.voting import PairwiseVotingClassifier


def voting_predict_reference(
    voting: PairwiseVotingClassifier, windows: np.ndarray
) -> np.ndarray:
    """Majority vote over the per-pair classifiers, accumulated one by one."""
    if not voting._pairs:
        raise RuntimeError("classifier is not fitted")
    values = voting._normalize(
        voting._point_values(np.asarray(windows)), fit=False
    )
    n = len(values)
    votes = np.zeros((n, len(voting.label_names)))
    scores = np.zeros((n, len(voting.label_names)))
    for pair in voting._pairs:
        projected = pair.pca.transform(values[:, pair.columns])
        pred = pair.classifier.predict(projected)
        winner_a = pred == pair.code_a
        votes[winner_a, pair.code_a] += 1
        votes[~winner_a, pair.code_b] += 1
        if hasattr(pair.classifier, "predict_proba"):
            proba = pair.classifier.predict_proba(projected)
            column = list(pair.classifier.classes_).index(pair.code_a)
            soft = proba[:, column] - 0.5
            scores[:, pair.code_a] += soft
            scores[:, pair.code_b] -= soft
    ranking = votes + 1e-9 * np.tanh(scores)
    return np.argmax(ranking, axis=1)
