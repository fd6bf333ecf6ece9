import numpy as np
import pytest

from treehar import baselines
from treehar.baselines import (DecisionTree, FlatDataset, _best_split, dt_fit,
                               knn_predict_batch)
from treehar.casas import LabelPair
from treehar.windowing import make_windows

from oracles import naive_best_split
from test_model import _events


def _dataset(X, residents, activities):
    return FlatDataset(np.asarray(X, dtype=float), residents, activities)


def _knn_one(train, query):
    """knn_predict_batch on a batch of one query."""
    res, act = knn_predict_batch(train, np.asarray(query)[None])
    return LabelPair(int(res[0]), int(act[0]))


def _predict_one(tree, query):
    res, act = tree.predict_batch(np.asarray(query, dtype=float)[None])
    return LabelPair(int(res[0]), int(act[0]))


def _depth(node):
    """Edges on the longest root-to-leaf path below node."""
    if node.is_leaf:
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


def _truncated(node, depth):
    """The tree below node cut at depth: each node at that depth becomes a
    leaf predicting its majority, as a greedy tree stopped there would."""
    if node.is_leaf or depth == 0:
        return baselines._Node(prediction=node.prediction)
    return baselines._Node(node.prediction, node.feature,
                           _truncated(node.left, depth - 1),
                           _truncated(node.right, depth - 1))


def _leaf_rows(node, X, rows):
    """(leaf, the rows of X that reach it) for every leaf below node."""
    if node.is_leaf:
        return [(node, rows)]
    goes_left = X[rows, node.feature] <= 0.5
    return (_leaf_rows(node.left, X, rows[goes_left])
            + _leaf_rows(node.right, X, rows[~goes_left]))


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


def test_knn_exact_matches_outvote_the_rest():
    # five copies of the query against four other rows: the five nearest
    # are the copies
    train = _dataset([[0, 0, 1]] * 2 + [[0, 1, 0]] * 5 + [[1, 0, 0]] * 2,
                     [0, 0, 1, 1, 1, 1, 1, 0, 0], [3, 3, 5, 5, 5, 5, 5, 7, 7])
    assert _knn_one(train, np.array([0.0, 1.0, 0.0])) == LabelPair(1, 5)


def test_knn_k_equals_n_gives_global_majority():
    train = _dataset([[0, 0], [1, 0], [0, 1], [1, 1], [2, 2]],
                     [1, 1, 1, 0, 0], [2, 2, 9, 9, 9])
    pred = _knn_one(train, np.array([10.0, 10.0]))
    assert pred == LabelPair(1, 9)


def test_knn_vote_tie_goes_to_smallest_class():
    # all five rows vote: activity {9, 9, 2, 2, 7} ties 9 with 2 -> 2
    train = _dataset([[0.0], [1.0], [2.0], [3.0], [4.0]], [1, 1, 1, 0, 0],
                     [9, 9, 2, 2, 7])
    assert _knn_one(train, np.array([0.5])) == LabelPair(1, 2)


def test_knn_distance_tie_goes_to_earliest_index():
    # four rows at the query, then two equidistant from it: the fifth
    # neighbour is the earlier of the two, and its labels decide both votes
    near = [[0.0, 0.0]] * 4
    train = _dataset(near + [[1.0, 0.0], [0.0, 1.0]], [0, 0, 1, 1, 1, 0],
                     [3, 3, 4, 4, 4, 3])
    assert _knn_one(train, np.array([0.0, 0.0])) == LabelPair(1, 4)
    reordered = _dataset(near + [[0.0, 1.0], [1.0, 0.0]], [0, 0, 1, 1, 0, 1],
                         [3, 3, 4, 4, 3, 4])
    assert _knn_one(reordered, np.array([0.0, 0.0])) == LabelPair(0, 3)


def test_knn_permutation_invariant_with_distinct_distances():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 6))
    residents = rng.integers(0, 2, 20)
    activities = rng.integers(0, 15, 20)
    train = _dataset(X, residents, activities)
    perm = rng.permutation(20)
    shuffled = _dataset(X[perm], residents[perm], activities[perm])
    for q in rng.normal(size=(10, 6)):
        assert _knn_one(train, q) == _knn_one(shuffled, q)


def test_knn_batch_matches_single(monkeypatch):
    # against a per-query loop: exact integer distances on 0/1 features,
    # ties to the earliest index, votes to the smallest class; chunks of 5
    # leave a partial last chunk
    monkeypatch.setattr(baselines, "KNN_CHUNK", 5)
    rng = np.random.default_rng(1)
    X = (rng.random((30, 8)) > 0.5).astype(float)
    train = _dataset(X, rng.integers(0, 2, 30), rng.integers(0, 15, 30))
    queries = (rng.random((12, 8)) > 0.5).astype(float)
    res, act = knn_predict_batch(train, queries)
    for i, q in enumerate(queries):
        d2 = [sum((a - b) ** 2 for a, b in zip(x, q)) for x in X]
        nearest = sorted(range(30), key=lambda j: (d2[j], j))[:5]
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
    res, act = knn_predict_batch(train, queries)
    monkeypatch.setattr(np, "argsort", argsort)
    norms = (X * X).sum(axis=1)
    want = [norms[None, :] - 2.0 * (chunk @ X.T) + (chunk * chunk).sum(axis=1)[:, None]
            for chunk in np.split(queries, [16, 32])]
    assert len(sorted_d2) == len(want)
    for got, expected in zip(sorted_d2, want):
        np.testing.assert_array_equal(got, expected)
    nearest = np.argsort(np.concatenate(want), axis=1, kind="stable")[:, :5]
    np.testing.assert_array_equal(res, baselines._vote(train.residents[nearest], 2))
    np.testing.assert_array_equal(act, baselines._vote(train.activities[nearest], 15))


def test_knn_validation():
    # fewer rows than the 5 neighbours is an error; 5 rows vote
    for n in (0, 1, 4):
        with pytest.raises(ValueError, match="fewer than the 5 neighbours"):
            _knn_one(_dataset(np.zeros((n, 1)), [0] * n, [0] * n), [0.0])
    assert _knn_one(_dataset(np.zeros((5, 1)), [1] * 5, [6] * 5), [0.0]) \
        == LabelPair(1, 6)


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
    root = dt_fit(data).root
    assert _depth(root) > 2
    accuracies = [_training_accuracy(DecisionTree(_truncated(root, depth)), data)
                  for depth in (0, 1, 2, 4, 8, _depth(root))]
    assert all(b >= a - 1e-12 for a, b in zip(accuracies, accuracies[1:]))
    assert accuracies[-1] == 1.0  # distinct windows are fully separable


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dt_grows_until_no_leaf_split_gains(seed):
    """Every leaf of a fitted tree is pure, or no split of its rows has a
    positive exact Gini gain."""
    rng = np.random.default_rng(seed)
    X = (rng.random((60, 6)) > 0.5).astype(float)
    data = _dataset(X, rng.integers(0, 2, 60), rng.integers(0, 3, 60))
    y = data.residents * 15 + data.activities
    leaves = _leaf_rows(dt_fit(data).root, X, np.arange(60))
    assert sum(len(rows) for _, rows in leaves) == 60
    for leaf, rows in leaves:
        assert len(rows) > 0
        assert naive_best_split(X[rows], y[rows])[0] is None
        assert leaf.prediction == np.bincount(y[rows]).argmax()


def test_dt_deterministic():
    rng = np.random.default_rng(5)
    X = (rng.random((40, 10)) > 0.5).astype(float)
    data = _dataset(X, rng.integers(0, 2, 40), rng.integers(0, 15, 40))
    t1 = dt_fit(data)
    t2 = dt_fit(data)
    queries = (rng.random((15, 10)) > 0.5).astype(float)
    r1, a1 = t1.predict_batch(queries)
    r2, a2 = t2.predict_batch(queries)
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(a1, a2)


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_best_split_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    for _ in range(300):
        n, d = int(rng.integers(2, 30)), int(rng.integers(3, 10))
        X = (rng.random((n, d)) < rng.random()).astype(float)
        X[:, rng.integers(d)] = X[:, rng.integers(d)]     # duplicate: a tie
        X[:, rng.integers(d)] = rng.integers(2)           # constant column
        y = rng.integers(0, int(rng.integers(1, 6)), n) * int(rng.integers(1, 7))
        got = _best_split(X, y)
        want, gains = naive_best_split(X, y)
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


def test_dt_empty_training_set():
    with pytest.raises(ValueError, match="empty training set"):
        dt_fit(_dataset(np.empty((0, 2)), [], []))


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
