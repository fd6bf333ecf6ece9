import numpy as np
import pytest

from treehar.baselines import FlatDataset, dt_fit, knn_predict_batch
from treehar.casas import LabelPair
from treehar.windowing import make_windows

from test_model import _events


def _dataset(X, residents, activities):
    return FlatDataset(np.asarray(X, dtype=float), residents, activities)


def _knn_one(train, query, k_neighbors):
    """knn_predict_batch on a batch of one query."""
    res, act = knn_predict_batch(train, np.asarray(query)[None], k_neighbors)
    return LabelPair(int(res[0]), int(act[0]))


def _predict_one(tree, query):
    res, act = tree.predict_batch(np.asarray(query, dtype=float)[None])
    return LabelPair(int(res[0]), int(act[0]))


# ---------------------------------------------------------------------------
# featurization


def test_flat_dataset_from_windows():
    windows = make_windows(_events(9), k=4)
    data = FlatDataset.from_windows(windows)
    assert data.X.shape == (9, 4 * 37)
    assert set(np.unique(data.X)) <= {0.0, 1.0}
    # oldest-first concatenation: the target event occupies the last block
    for block, sensor in enumerate(windows[5].sensors):
        assert np.flatnonzero(data.X[5][block * 37:(block + 1) * 37]).tolist() \
            == [sensor]
    last_block = data.X[5][3 * 37:]
    assert last_block[_events(9)[5].sensor] == 1.0


# ---------------------------------------------------------------------------
# knn


def test_knn_exact_match_k1():
    train = _dataset([[0, 0, 1], [0, 1, 0], [1, 0, 0]],
                     [0, 1, 0], [3, 5, 7])
    assert _knn_one(train, np.array([0.0, 1.0, 0.0]), 1) == LabelPair(1, 5)


def test_knn_k_equals_n_gives_global_majority():
    train = _dataset([[0, 0], [1, 0], [0, 1], [1, 1], [2, 2]],
                     [1, 1, 1, 0, 0], [2, 2, 9, 9, 9])
    pred = _knn_one(train, np.array([10.0, 10.0]), 5)
    assert pred == LabelPair(1, 9)


def test_knn_vote_tie_goes_to_smallest_class():
    train = _dataset([[0.0], [1.0]], [1, 0], [9, 2])
    # both neighbors equally voted: resident {1,0} -> 0; activity {9,2} -> 2
    assert _knn_one(train, np.array([0.5]), 2) == LabelPair(0, 2)


def test_knn_distance_tie_goes_to_earliest_index():
    # two training points equidistant from the query; k=1 must pick index 0
    train = _dataset([[1.0, 0.0], [0.0, 1.0]], [1, 0], [4, 11])
    assert _knn_one(train, np.array([0.0, 0.0]), 1) == LabelPair(1, 4)
    reordered = _dataset([[0.0, 1.0], [1.0, 0.0]], [0, 1], [11, 4])
    assert _knn_one(reordered, np.array([0.0, 0.0]), 1) == LabelPair(0, 11)


def test_knn_permutation_invariant_with_distinct_distances():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 6))
    residents = rng.integers(0, 2, 20)
    activities = rng.integers(0, 15, 20)
    train = _dataset(X, residents, activities)
    perm = rng.permutation(20)
    shuffled = _dataset(X[perm], residents[perm], activities[perm])
    for q in rng.normal(size=(10, 6)):
        assert _knn_one(train, q, 5) == _knn_one(shuffled, q, 5)


def test_knn_batch_matches_single():
    # against a per-query loop: exact integer distances on 0/1 features,
    # ties to the earliest index, votes to the smallest class
    rng = np.random.default_rng(1)
    X = (rng.random((30, 8)) > 0.5).astype(float)
    train = _dataset(X, rng.integers(0, 2, 30), rng.integers(0, 15, 30))
    queries = (rng.random((12, 8)) > 0.5).astype(float)
    res, act = knn_predict_batch(train, queries, k_neighbors=3, chunk_size=5)
    for i, q in enumerate(queries):
        d2 = [sum((a - b) ** 2 for a, b in zip(x, q)) for x in X]
        nearest = sorted(range(30), key=lambda j: (d2[j], j))[:3]
        votes_r = [list(train.residents[nearest]).count(c) for c in range(2)]
        votes_a = [list(train.activities[nearest]).count(c) for c in range(15)]
        assert (res[i], act[i]) == (votes_r.index(max(votes_r)),
                                    votes_a.index(max(votes_a)))


def test_knn_validation():
    train = _dataset([[0.0]], [0], [0])
    with pytest.raises(ValueError):
        _knn_one(_dataset(np.empty((0, 1)), [], []), np.array([0.0]), 1)
    with pytest.raises(ValueError):
        _knn_one(train, np.array([0.0]), 2)
    with pytest.raises(ValueError):
        _knn_one(train, np.array([0.0]), 0)


# ---------------------------------------------------------------------------
# decision tree


def test_dt_pure_class_is_depth_zero():
    train = _dataset([[0, 1], [1, 0], [1, 1]], [1, 1, 1], [4, 4, 4])
    tree = dt_fit(train)
    assert tree.depth == 0
    assert tree.node_count == 1
    assert _predict_one(tree, np.array([0.0, 0.0])) == LabelPair(1, 4)


def test_dt_separable_points_depth_one():
    train = _dataset([[0.0], [1.0]], [0, 1], [2, 9])
    tree = dt_fit(train)
    assert tree.depth == 1
    assert _predict_one(tree, np.array([0.0])) == LabelPair(0, 2)
    assert _predict_one(tree, np.array([1.0])) == LabelPair(1, 9)
    assert _predict_one(tree, np.array([0.2])) == LabelPair(0, 2)
    assert _predict_one(tree, np.array([0.8])) == LabelPair(1, 9)


def _training_accuracy(tree, data):
    res, act = tree.predict_batch(data.X)
    return float(np.mean((res == data.residents) & (act == data.activities)))


def test_dt_training_accuracy_nondecreasing_in_depth():
    # 36 windows: below the fixture's sensor-cycle period, so no two
    # windows share features with different labels
    windows = make_windows(_events(36), k=3)
    data = FlatDataset.from_windows(windows)
    accuracies = []
    for depth in (1, 2, 4, 8, None):
        tree = dt_fit(data, max_depth=depth)
        accuracies.append(_training_accuracy(tree, data))
    assert all(b >= a - 1e-12 for a, b in zip(accuracies, accuracies[1:]))
    assert accuracies[-1] == 1.0  # distinct windows are fully separable


def test_dt_min_leaf_limits_splits():
    train = _dataset([[0.0], [1.0]], [0, 1], [2, 9])
    tree = dt_fit(train, min_leaf=2)
    assert tree.depth == 0


def test_dt_deterministic():
    rng = np.random.default_rng(5)
    X = (rng.random((40, 10)) > 0.5).astype(float)
    data = _dataset(X, rng.integers(0, 2, 40), rng.integers(0, 15, 40))
    t1 = dt_fit(data, max_depth=4)
    t2 = dt_fit(data, max_depth=4)
    queries = (rng.random((15, 10)) > 0.5).astype(float)
    r1, a1 = t1.predict_batch(queries)
    r2, a2 = t2.predict_batch(queries)
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(a1, a2)


def test_dt_empty_and_bad_min_leaf():
    with pytest.raises(ValueError):
        dt_fit(_dataset(np.empty((0, 2)), [], []))
    with pytest.raises(ValueError):
        dt_fit(_dataset([[0.0]], [0], [0]), min_leaf=0)


def test_dt_composite_decoding_covers_both_heads():
    # four joint classes over two features
    train = _dataset(
        [[0, 0], [0, 1], [1, 0], [1, 1]] * 3,
        [0, 0, 1, 1] * 3,
        [2, 5, 2, 5] * 3,
    )
    tree = dt_fit(train)
    for x, resident, activity in [([0, 0], 0, 2), ([0, 1], 0, 5),
                                  ([1, 0], 1, 2), ([1, 1], 1, 5)]:
        assert _predict_one(tree, np.array(x, dtype=float)) == \
            LabelPair(resident, activity)
