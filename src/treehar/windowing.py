"""Per-event sample windows.

Every ON event becomes one prediction target carrying its k-1
predecessors; nothing is discarded at sequence starts, the missing
history is zero-padded instead. Windows never span files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .casas import DEFAULT_VOCAB, LabelPair

PAD = -1  # sensor index of a padding slot; it one-hot encodes to zeros


@dataclass(eq=False)  # compared by identity: the sensors array has no truth value
class SampleWindow:
    """The sensor indices of the k most recent events, oldest first; the
    last one is the labeled target event and is never padding."""

    sensors: np.ndarray        # (k,) ints, PAD before the first event
    label: LabelPair
    source: str = ""           # provenance for canonical ordering
    index: int = 0


def make_windows(events, k: int, source: str = ""):
    """One window per event of a casas.Events: for event t, the sensors of
    events t-k+1..t, left-padded with PAD while t < k-1."""
    if k < 2:
        raise ValueError(f"window size k must be >= 2, got {k}")
    padded = np.concatenate([np.full(k - 1, PAD, dtype=np.int64), events.sensor])
    return [
        SampleWindow(
            sensors=padded[t:t + k],
            label=LabelPair(resident, activity),
            source=source,
            index=t,
        )
        for t, (resident, activity) in enumerate(
            zip(events.resident.tolist(), events.activity.tolist()))
    ]


def one_hot(sensors: np.ndarray, dtype=np.float64) -> np.ndarray:
    """(n, k, vocab) one-hot encoding of an (n, k) matrix of sensor
    indices against the sensor vocabulary; a PAD slot is all zeros."""
    events = np.zeros(sensors.shape + (len(DEFAULT_VOCAB),), dtype=dtype)
    rows, slots = np.nonzero(sensors != PAD)
    events[rows, slots, sensors[rows, slots]] = 1.0
    return events


def stack_windows(windows, dtype=np.float64):
    """Pack windows for batched training.

    Returns (events, residents, activities): events is (n, k, vocab), the
    one-hot encoding of every window's sensors against the sensor
    vocabulary; label arrays are (n,) ints. Window order is preserved.
    """
    windows = list(windows)
    if not windows:
        raise ValueError("no windows to stack")
    events = one_hot(np.stack([w.sensors for w in windows]), dtype)
    residents = np.array([w.label.resident_id for w in windows], dtype=np.int64)
    activities = np.array([w.label.activity_id for w in windows], dtype=np.int64)
    return events, residents, activities
