import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehar.casas import SensorEvent
from treehar.windowing import PAD, make_windows, stack_windows, dump_windows_csv


def events(n, sensor_offset=0):
    return [
        SensorEvent(
            date=dt.date(2009, 2, 2), time=dt.time(8, 0, i),
            sensor=(i + sensor_offset) % 37, value="ON",
            resident_id=i % 2, activity_id=i % 15,
        )
        for i in range(n)
    ]


def test_one_window_per_event_and_pad_counts():
    windows = make_windows(events(10), k=8)
    assert len(windows) == 10
    assert windows[0].pad_count == 7
    assert windows[9].pad_count == 0
    for t, w in enumerate(windows):
        assert w.pad_count == max(0, 8 - 1 - t)
        assert w.k == 8


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
        assert w.sensors[-1] == evs[t].sensor
        assert np.flatnonzero(stacked[t, -1]).tolist() == [evs[t].sensor]
        assert w.label.resident_id == evs[t].resident_id
        assert w.label.activity_id == evs[t].activity_id


def test_consecutive_windows_share_k_minus_1_embeddings():
    windows = make_windows(events(20), k=8)
    for a, b in zip(windows, windows[1:]):
        np.testing.assert_array_equal(a.sensors[1:], b.sensors[:-1])


def test_empty_and_invalid_inputs():
    assert make_windows([], k=8) == []
    with pytest.raises(ValueError):
        make_windows(events(3), k=1)


def test_stack_windows_shapes_and_labels():
    windows = make_windows(events(6), k=4, source="s")
    stacked, residents, activities = stack_windows(windows)
    assert stacked.shape == (6, 4, 37)
    assert stacked.dtype == np.float64
    assert stack_windows(windows, dtype=np.float32)[0].dtype == np.float32
    assert residents.tolist() == [e.resident_id for e in events(6)]
    assert activities.tolist() == [e.activity_id for e in events(6)]
    np.testing.assert_array_equal(stacked[3], np.eye(37)[[0, 1, 2, 3]])
    with pytest.raises(ValueError):
        stack_windows([])


def test_stack_windows_one_hot_shape_and_mass():
    evs = events(37)
    stacked = stack_windows(make_windows(evs, k=3))[0]
    for t, e in enumerate(evs):
        target = stacked[t, -1]
        assert target.shape == (37,)
        assert target[e.sensor] == 1.0
        assert target.sum() == 1.0
    assert stacked[0, -1, 0] == 1.0
    assert stacked[36, -1, 36] == 1.0
    assert stacked[0, :2].sum() == 0.0  # padding slots are all-zero


@given(st.integers(min_value=0, max_value=36), st.integers(min_value=2, max_value=9))
@settings(max_examples=37, deadline=None)
def test_stack_windows_one_hot_l1_norm_is_one(sensor, k):
    stacked = stack_windows(make_windows(events(k, sensor_offset=sensor), k=k))[0]
    assert np.abs(stacked[-1]).sum(axis=1).tolist() == [1.0] * k


def test_window_provenance_and_csv_dump(tmp_path):
    windows = make_windows(events(3), k=2, source="fileA")
    assert [w.index for w in windows] == [0, 1, 2]
    assert all(w.source == "fileA" for w in windows)
    out = tmp_path / "windows.csv"
    dump_windows_csv(windows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "source,index,pad_count,resident,activity"
    assert len(lines) == 4
    assert lines[1] == "fileA,0,1,0,0"
