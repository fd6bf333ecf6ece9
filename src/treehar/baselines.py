"""From-scratch KNN and CART decision tree over flattened windows.

Both baselines see exactly the feature the deep model sees: the window's
k one-hot embeddings concatenated oldest-first into a 0/1 vector, so a
comparison isolates the model rather than the featurization. The tree
is written for that input: every feature is 0 or 1, so each has one cut,
at 0.5, and the right side of a split is the rows with a 1 in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .casas import NUM_ACTIVITIES, NUM_RESIDENTS
from .windowing import stack_windows

NUM_COMPOSITE = NUM_RESIDENTS * NUM_ACTIVITIES
MIN_GINI_GAIN = 1e-12
KNN_CHUNK = 256   # query rows per distance matrix


class FlatDataset:
    """Stacked flat samples: X is (n, k * vocab) plus per-head label arrays."""

    def __init__(self, X, residents, activities):
        self.X = np.asarray(X, dtype=np.float64)
        self.residents = np.asarray(residents, dtype=np.int64)
        self.activities = np.asarray(activities, dtype=np.int64)
        if not (len(self.X) == len(self.residents) == len(self.activities)):
            raise ValueError("inconsistent dataset lengths")

    def __len__(self):
        return len(self.X)

    @classmethod
    def from_windows(cls, windows):
        events, residents, activities = stack_windows(windows)
        n, k, vocab = events.shape
        return cls(events.reshape(n, k * vocab), residents, activities)


def _vote(labels: np.ndarray, num_classes: int) -> np.ndarray:
    # majority of each (queries, k) row; the first argmax wins, so vote
    # ties go to the smallest class index
    counts = (labels[:, :, None] == np.arange(num_classes)).sum(axis=1)
    return np.argmax(counts, axis=1)


def knn_predict_batch(train: FlatDataset, queries: np.ndarray,
                      k_neighbors: int = 5):
    """Euclidean k-NN per query row with independent majority votes per
    head; distance ties go to the earliest training index, vote ties to the
    smallest class index. Returns (residents, activities) int arrays."""
    if len(train) == 0:
        raise ValueError("knn_predict_batch: empty training set")
    if not 1 <= k_neighbors <= len(train):
        raise ValueError(
            f"k_neighbors must be in 1..{len(train)}, got {k_neighbors}"
        )
    queries = np.asarray(queries, dtype=np.float64)
    train_norms = (train.X * train.X).sum(axis=1)
    nearest = np.empty((len(queries), k_neighbors), dtype=np.int64)
    for start in range(0, len(queries), KNN_CHUNK):
        chunk = queries[start:start + KNN_CHUNK]
        # train_norms - 2 (chunk @ X.T) + |chunk|^2 in place, with the same
        # bits: -2x is exact, and a + (-b) is a - b
        d2 = np.matmul(chunk, train.X.T)
        d2 *= -2.0
        d2 += train_norms[None, :]
        d2 += (chunk * chunk).sum(axis=1)[:, None]
        nearest[start:start + KNN_CHUNK] = \
            np.argsort(d2, axis=1, kind="stable")[:, :k_neighbors]
    return (_vote(train.residents[nearest], NUM_RESIDENTS),
            _vote(train.activities[nearest], NUM_ACTIVITIES))


# ---------------------------------------------------------------------------
# decision tree


@dataclass
class _Node:
    prediction: int
    feature: int = -1
    left: "_Node" = None
    right: "_Node" = None

    @property
    def is_leaf(self):
        return self.left is None


@dataclass
class DecisionTree:
    """CART over the joint (resident, activity) target encoded as
    resident * 15 + activity; predictions decode back to both heads."""

    root: _Node

    def predict_batch(self, queries: np.ndarray):
        composites = np.empty(len(queries), dtype=np.int64)
        for row, x in enumerate(np.asarray(queries, dtype=np.float64)):
            node = self.root
            while not node.is_leaf:
                node = node.left if x[node.feature] <= 0.5 else node.right
            composites[row] = node.prediction
        return composites // NUM_ACTIVITIES, composites % NUM_ACTIVITIES


def _best_split(X, y, min_leaf):
    """Index of the highest Gini-gain feature of a 0/1 matrix, splitting the
    rows with a 0 in it (left) from the rows with a 1 (right); ties go to
    the lowest index. None if no split with min_leaf rows a side gains."""
    n = len(y)
    onehot = np.zeros((n, NUM_COMPOSITE))
    onehot[np.arange(n), y] = 1.0
    parent_counts = np.bincount(y, minlength=NUM_COMPOSITE)
    right_counts = X.T @ onehot     # class counts of each feature's 1-rows
    right_n = right_counts.sum(axis=1)
    left_n = n - right_n
    valid = np.flatnonzero((left_n >= min_leaf) & (right_n >= min_leaf))
    if len(valid) == 0:
        return None
    right_counts, left_n, right_n = right_counts[valid], left_n[valid], right_n[valid]
    left_counts = parent_counts[None, :] - right_counts
    gini_left = 1.0 - (left_counts ** 2).sum(axis=1) / left_n ** 2
    gini_right = 1.0 - (right_counts ** 2).sum(axis=1) / right_n ** 2
    weighted = (left_n * gini_left + right_n * gini_right) / n
    frac = parent_counts / n
    gains = (1.0 - float(frac @ frac)) - weighted
    i = int(np.argmax(gains))
    return int(valid[i]) if gains[i] > MIN_GINI_GAIN else None


def dt_fit(train: FlatDataset, max_depth: int = None,
           min_leaf: int = 1) -> DecisionTree:
    """Grow a CART greedily until pure, out of gain, or at the limits."""
    if len(train) == 0:
        raise ValueError("dt_fit: empty training set")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
    if not ((train.X == 0.0) | (train.X == 1.0)).all():
        raise ValueError("dt_fit: features must be 0 or 1")
    y = train.residents * NUM_ACTIVITIES + train.activities

    def build(idx, depth):
        sub_y = y[idx]
        counts = np.bincount(sub_y, minlength=NUM_COMPOSITE)
        majority = int(np.argmax(counts))
        if counts[majority] == len(sub_y):
            return _Node(prediction=majority)
        if max_depth is not None and depth >= max_depth:
            return _Node(prediction=majority)
        feature = _best_split(train.X[idx], sub_y, min_leaf)
        if feature is None:
            return _Node(prediction=majority)
        goes_left = train.X[idx, feature] <= 0.5
        return _Node(
            prediction=majority,
            feature=feature,
            left=build(idx[goes_left], depth + 1),
            right=build(idx[~goes_left], depth + 1),
        )

    return DecisionTree(build(np.arange(len(train)), 0))
