import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehar.casas import Events
from treehar.windowing import PAD, make_windows, stack_windows


def events(n, sensor_offset=0):
    i = np.arange(n)
    return Events(day=np.full(n, dt.date(2009, 2, 2).toordinal()),
                  time=(8 * 3600 + i) * 1_000_000,
                  sensor=(i + sensor_offset) % 37, value=["ON"] * n,
                  resident=i % 2, activity=i % 15)


def test_one_window_per_event_and_pad_counts():
    windows = make_windows(events(10), k=8)
    assert len(windows) == 10
    pad_counts = [int((w.sensors == PAD).sum()) for w in windows]
    assert pad_counts == [max(0, 8 - 1 - t) for t in range(10)]
    assert pad_counts[0] == 7 and pad_counts[9] == 0
    assert all(len(w.sensors) == 8 for w in windows)


def test_k2_windows():
    evs = events(2, sensor_offset=5)
    windows = make_windows(evs, k=2)
    assert len(windows) == 2
    first, second = windows
    assert first.sensors.tolist() == [PAD, 5]
    assert second.sensors.tolist() == [5, 6]
    stacked = stack_windows(windows)[0]
    assert np.all(stacked[0, 0] == 0)
    assert np.flatnonzero(stacked[0, 1]).tolist() == [5]
    assert np.flatnonzero(stacked[1, 0]).tolist() == [5]
    assert np.flatnonzero(stacked[1, 1]).tolist() == [6]


def test_last_embedding_is_target_event():
    evs = events(12)
    windows = make_windows(evs, k=5)
    stacked = stack_windows(windows)[0]
    for t, w in enumerate(windows):
        assert w.sensors[-1] == evs.sensor[t]
        assert np.flatnonzero(stacked[t, -1]).tolist() == [evs.sensor[t]]
        assert w.label.resident_id == evs.resident[t]
        assert w.label.activity_id == evs.activity[t]


def test_consecutive_windows_share_k_minus_1_embeddings():
    windows = make_windows(events(20), k=8)
    for a, b in zip(windows, windows[1:]):
        np.testing.assert_array_equal(a.sensors[1:], b.sensors[:-1])


def test_empty_and_invalid_inputs():
    assert make_windows(events(0), k=8) == []
    with pytest.raises(ValueError):
        make_windows(events(3), k=1)


def test_stack_windows_shapes_and_labels():
    windows = make_windows(events(6), k=4, source="s")
    stacked, residents, activities = stack_windows(windows)
    assert stacked.shape == (6, 4, 37)
    assert stacked.dtype == np.float64
    assert stack_windows(windows, dtype=np.float32)[0].dtype == np.float32
    assert residents.tolist() == events(6).resident.tolist()
    assert activities.tolist() == events(6).activity.tolist()
    np.testing.assert_array_equal(stacked[3], np.eye(37)[[0, 1, 2, 3]])
    with pytest.raises(ValueError):
        stack_windows([])


def test_stack_windows_one_hot_shape_and_mass():
    evs = events(37)
    stacked = stack_windows(make_windows(evs, k=3))[0]
    for t, sensor in enumerate(evs.sensor):
        target = stacked[t, -1]
        assert target.shape == (37,)
        assert target[sensor] == 1.0
        assert target.sum() == 1.0
    assert stacked[0, -1, 0] == 1.0
    assert stacked[36, -1, 36] == 1.0
    assert stacked[0, :2].sum() == 0.0  # padding slots are all-zero


@given(st.integers(min_value=0, max_value=36), st.integers(min_value=2, max_value=9))
@settings(max_examples=37, deadline=None)
def test_stack_windows_one_hot_l1_norm_is_one(sensor, k):
    stacked = stack_windows(make_windows(events(k, sensor_offset=sensor), k=k))[0]
    assert np.abs(stacked[-1]).sum(axis=1).tolist() == [1.0] * k


def test_window_provenance():
    windows = make_windows(events(3), k=2, source="fileA")
    assert [w.index for w in windows] == [0, 1, 2]
    assert all(w.source == "fileA" for w in windows)
    first = windows[0]
    assert int((first.sensors == PAD).sum()) == 1
    assert (first.label.resident_id, first.label.activity_id) == (0, 0)
