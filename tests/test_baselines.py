import numpy as np
import pytest

from treehar import baselines
from treehar.baselines import (FlatDataset, _best_split, dt_fit,
                               knn_predict_batch)
from treehar.casas import LabelPair
from treehar.windowing import make_windows

from oracles import naive_best_split
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


def _depth(node):
    """Edges on the longest root-to-leaf path below node."""
    if node.is_leaf:
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


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
    assert last_block[_events(9).sensor[5]] == 1.0


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


def test_knn_batch_matches_single(monkeypatch):
    # against a per-query loop: exact integer distances on 0/1 features,
    # ties to the earliest index, votes to the smallest class; chunks of 5
    # leave a partial last chunk
    monkeypatch.setattr(baselines, "KNN_CHUNK", 5)
    rng = np.random.default_rng(1)
    X = (rng.random((30, 8)) > 0.5).astype(float)
    train = _dataset(X, rng.integers(0, 2, 30), rng.integers(0, 15, 30))
    queries = (rng.random((12, 8)) > 0.5).astype(float)
    res, act = knn_predict_batch(train, queries, k_neighbors=3)
    for i, q in enumerate(queries):
        d2 = [sum((a - b) ** 2 for a, b in zip(x, q)) for x in X]
        nearest = sorted(range(30), key=lambda j: (d2[j], j))[:3]
        votes_r = [list(train.residents[nearest]).count(c) for c in range(2)]
        votes_a = [list(train.activities[nearest]).count(c) for c in range(15)]
        assert (res[i], act[i]) == (votes_r.index(max(votes_r)),
                                    votes_a.index(max(votes_a)))


def test_knn_distances_in_place_are_the_expressions_bits(monkeypatch):
    # on non-integer features, where every operation rounds, the distances
    # that knn_predict_batch sorts are bitwise
    #   train_norms - 2 * (chunk @ X.T) + |chunk|^2
    # per chunk, and so are its predictions; chunks of 16 leave a partial
    # last chunk
    monkeypatch.setattr(baselines, "KNN_CHUNK", 16)
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 12))
    train = _dataset(X, rng.integers(0, 2, 60), rng.integers(0, 15, 60))
    queries = rng.normal(size=(37, 12))
    sorted_d2, argsort = [], np.argsort

    def recording_argsort(a, *args, **kwargs):
        sorted_d2.append(a.copy())
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recording_argsort)
    res, act = knn_predict_batch(train, queries, k_neighbors=4)
    monkeypatch.setattr(np, "argsort", argsort)
    norms = (X * X).sum(axis=1)
    want = [norms[None, :] - 2.0 * (chunk @ X.T) + (chunk * chunk).sum(axis=1)[:, None]
            for chunk in np.split(queries, [16, 32])]
    assert len(sorted_d2) == len(want)
    for got, expected in zip(sorted_d2, want):
        np.testing.assert_array_equal(got, expected)
    nearest = np.argsort(np.concatenate(want), axis=1, kind="stable")[:, :4]
    np.testing.assert_array_equal(res, baselines._vote(train.residents[nearest], 2))
    np.testing.assert_array_equal(act, baselines._vote(train.activities[nearest], 15))


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
    assert tree.root.is_leaf
    assert _predict_one(tree, np.array([0.0, 0.0])) == LabelPair(1, 4)


def test_dt_separable_points_depth_one():
    train = _dataset([[0.0], [1.0]], [0, 1], [2, 9])
    tree = dt_fit(train)
    assert _depth(tree.root) == 1
    assert _predict_one(tree, np.array([0.0])) == LabelPair(0, 2)
    assert _predict_one(tree, np.array([1.0])) == LabelPair(1, 9)
    assert _predict_one(tree, np.array([0.2])) == LabelPair(0, 2)
    assert _predict_one(tree, np.array([0.8])) == LabelPair(1, 9)


def _training_accuracy(tree, data):
    res, act = tree.predict_batch(data.X)
    return float(np.mean((res == data.residents) & (act == data.activities)))


def _separable_data():
    # 36 windows: below the fixture's sensor-cycle period, so no two
    # windows share features with different labels
    return FlatDataset.from_windows(make_windows(_events(36), k=3))


def test_dt_training_accuracy_nondecreasing_in_depth():
    data = _separable_data()
    accuracies = []
    for depth in (1, 2, 4, 8, None):
        tree = dt_fit(data, max_depth=depth)
        accuracies.append(_training_accuracy(tree, data))
    assert all(b >= a - 1e-12 for a, b in zip(accuracies, accuracies[1:]))
    assert accuracies[-1] == 1.0  # distinct windows are fully separable


def test_dt_max_depth_bounds_the_tree():
    data = _separable_data()
    assert _depth(dt_fit(data).root) > 2     # unlimited, the tree goes deeper
    for max_depth in (0, 1, 2):
        assert _depth(dt_fit(data, max_depth=max_depth).root) <= max_depth


def test_dt_min_leaf_limits_splits():
    train = _dataset([[0.0], [1.0]], [0, 1], [2, 9])
    tree = dt_fit(train, min_leaf=2)
    assert tree.root.is_leaf


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


@pytest.mark.parametrize("min_leaf", [1, 2, 5])
def test_best_split_matches_naive_oracle(min_leaf):
    rng = np.random.default_rng(min_leaf)
    for _ in range(300):
        n, d = int(rng.integers(2, 30)), int(rng.integers(3, 10))
        X = (rng.random((n, d)) < rng.random()).astype(float)
        X[:, rng.integers(d)] = X[:, rng.integers(d)]     # duplicate: a tie
        X[:, rng.integers(d)] = rng.integers(2)           # constant column
        y = rng.integers(0, int(rng.integers(1, 6)), n) * int(rng.integers(1, 7))
        got = _best_split(X, y, min_leaf)
        want, gains = naive_best_split(X, y, min_leaf)
        if want is None:
            assert got is None
            continue
        # a different feature is only right as an exact tie between two
        # different columns, whose float gains may round apart
        assert got == want or (gains[got] == gains[want]
                               and not np.array_equal(X[:, got], X[:, want]))
        # of identical columns, the lowest index wins
        assert not any(np.array_equal(X[:, f], X[:, got]) for f in range(got))


def test_dt_rejects_features_other_than_0_and_1():
    with pytest.raises(ValueError, match="0 or 1"):
        dt_fit(_dataset([[0.0, 1.0], [1.0, 0.5]], [0, 1], [2, 9]))
    with pytest.raises(ValueError, match="0 or 1"):
        dt_fit(_dataset([[0.0], [np.nan]], [0, 1], [2, 9]))


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


@pytest.mark.parametrize("short", ["X", "residents", "activities"])
def test_flat_dataset_rejects_unequal_lengths(short):
    columns = {"X": np.zeros((3, 4)), "residents": np.zeros(3),
               "activities": np.zeros(3)}
    columns[short] = columns[short][:2]
    with pytest.raises(ValueError, match="inconsistent dataset lengths"):
        FlatDataset(**columns)
