"""From-scratch KNN and CART decision tree over flattened windows.

Both baselines see exactly the feature the deep model sees: the window's
k one-hot embeddings concatenated oldest-first into a 0/1 vector, so a
comparison isolates the model rather than the featurization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .casas import NUM_ACTIVITIES, NUM_RESIDENTS
from .windowing import stack_windows

NUM_COMPOSITE = NUM_RESIDENTS * NUM_ACTIVITIES
MIN_GINI_GAIN = 1e-12


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


def _majority(labels: np.ndarray, num_classes: int) -> int:
    # first argmax wins, so vote ties go to the smallest class index
    return int(np.argmax(np.bincount(labels, minlength=num_classes)))


def knn_predict_batch(train: FlatDataset, queries: np.ndarray,
                      k_neighbors: int = 5, chunk_size: int = 256):
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
    residents = np.empty(len(queries), dtype=np.int64)
    activities = np.empty(len(queries), dtype=np.int64)
    for start in range(0, len(queries), chunk_size):
        chunk = queries[start:start + chunk_size]
        d2 = train_norms[None, :] - 2.0 * (chunk @ train.X.T) \
            + (chunk * chunk).sum(axis=1)[:, None]
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k_neighbors]
        for row, nn in enumerate(nearest):
            residents[start + row] = _majority(train.residents[nn], NUM_RESIDENTS)
            activities[start + row] = _majority(train.activities[nn], NUM_ACTIVITIES)
    return residents, activities


# ---------------------------------------------------------------------------
# decision tree


@dataclass
class _Node:
    prediction: int
    feature: int = -1
    threshold: float = 0.0
    left: "_Node" = None
    right: "_Node" = None

    @property
    def is_leaf(self):
        return self.left is None


class DecisionTree:
    """CART over the joint (resident, activity) target encoded as
    resident * 15 + activity; predictions decode back to both heads."""

    def __init__(self, root: _Node, depth: int, node_count: int):
        self.root = root
        self.depth = depth
        self.node_count = node_count

    def predict_batch(self, queries: np.ndarray):
        composites = np.empty(len(queries), dtype=np.int64)
        for row, x in enumerate(np.asarray(queries, dtype=np.float64)):
            node = self.root
            while not node.is_leaf:
                node = node.left if x[node.feature] <= node.threshold else node.right
            composites[row] = node.prediction
        return composites // NUM_ACTIVITIES, composites % NUM_ACTIVITIES


def _gini(counts: np.ndarray, total: int) -> float:
    frac = counts / total
    return 1.0 - float(frac @ frac)


def _best_split(X, y, min_leaf):
    """Highest Gini-gain (feature, threshold); ties go to the lowest
    feature index, then the lowest threshold. None if nothing gains."""
    n, d = X.shape
    parent_counts = np.bincount(y, minlength=NUM_COMPOSITE)
    parent_gini = _gini(parent_counts, n)
    onehot = np.zeros((n, NUM_COMPOSITE))
    onehot[np.arange(n), y] = 1.0

    best = None  # (gain, feature, threshold)
    for f in range(d):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        cum = np.cumsum(onehot[order], axis=0)  # class counts left of each cut
        cut = np.nonzero(sorted_col[:-1] < sorted_col[1:])[0]  # split boundaries
        if len(cut) == 0:
            continue
        left_n = cut + 1
        right_n = n - left_n
        valid = (left_n >= min_leaf) & (right_n >= min_leaf)
        if not valid.any():
            continue
        cut, left_n, right_n = cut[valid], left_n[valid], right_n[valid]
        left_counts = cum[cut]
        right_counts = parent_counts[None, :] - left_counts
        gini_left = 1.0 - (left_counts ** 2).sum(axis=1) / left_n ** 2
        gini_right = 1.0 - (right_counts ** 2).sum(axis=1) / right_n ** 2
        weighted = (left_n * gini_left + right_n * gini_right) / n
        gains = parent_gini - weighted
        i = int(np.argmax(gains))
        if gains[i] > MIN_GINI_GAIN and (best is None or gains[i] > best[0]):
            threshold = 0.5 * (sorted_col[cut[i]] + sorted_col[cut[i] + 1])
            best = (float(gains[i]), f, threshold)
    return best


def dt_fit(train: FlatDataset, max_depth: int = None,
           min_leaf: int = 1) -> DecisionTree:
    """Grow a CART greedily until pure, out of gain, or at the limits."""
    if len(train) == 0:
        raise ValueError("dt_fit: empty training set")
    if min_leaf < 1:
        raise ValueError(f"min_leaf must be >= 1, got {min_leaf}")
    y = train.residents * NUM_ACTIVITIES + train.activities
    stats = {"depth": 0, "nodes": 0}

    def build(idx, depth):
        stats["nodes"] += 1
        stats["depth"] = max(stats["depth"], depth)
        sub_y = y[idx]
        counts = np.bincount(sub_y, minlength=NUM_COMPOSITE)
        majority = int(np.argmax(counts))
        if counts[majority] == len(sub_y):
            return _Node(prediction=majority)
        if max_depth is not None and depth >= max_depth:
            return _Node(prediction=majority)
        split = _best_split(train.X[idx], sub_y, min_leaf)
        if split is None:
            return _Node(prediction=majority)
        _, feature, threshold = split
        goes_left = train.X[idx, feature] <= threshold
        return _Node(
            prediction=majority,
            feature=feature,
            threshold=threshold,
            left=build(idx[goes_left], depth + 1),
            right=build(idx[~goes_left], depth + 1),
        )

    root = build(np.arange(len(train)), 0)
    return DecisionTree(root, stats["depth"], stats["nodes"])
