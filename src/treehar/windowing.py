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
    source: str = ""           # provenance for canonical ordering / debug dumps
    index: int = 0

    @property
    def k(self) -> int:
        return len(self.sensors)

    @property
    def pad_count(self) -> int:
        return int((self.sensors == PAD).sum())


def make_windows(events, k: int, source: str = ""):
    """One window per event: for event t, the sensors of events t-k+1..t,
    left-padded with PAD while t < k-1."""
    if k < 2:
        raise ValueError(f"window size k must be >= 2, got {k}")
    events = list(events)
    padded = np.array([PAD] * (k - 1) + [e.sensor for e in events], dtype=np.int64)
    return [
        SampleWindow(
            sensors=padded[t:t + k],
            label=LabelPair(event.resident_id, event.activity_id),
            source=source,
            index=t,
        )
        for t, event in enumerate(events)
    ]


def stack_windows(windows, dtype=np.float64):
    """Pack windows for batched training.

    Returns (events, residents, activities): events is (n, k, vocab), the
    one-hot encoding of every window's sensors against the sensor
    vocabulary; label arrays are (n,) ints. Window order is preserved.
    """
    windows = list(windows)
    if not windows:
        raise ValueError("no windows to stack")
    sensors = np.stack([w.sensors for w in windows])
    events = np.zeros(sensors.shape + (len(DEFAULT_VOCAB),), dtype=dtype)
    rows, slots = np.nonzero(sensors != PAD)
    events[rows, slots, sensors[rows, slots]] = 1.0
    residents = np.array([w.label.resident_id for w in windows], dtype=np.int64)
    activities = np.array([w.label.activity_id for w in windows], dtype=np.int64)
    return events, residents, activities


def dump_windows_csv(windows, path):
    """Debug dump: source, index, pad_count, resident, activity."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["source", "index", "pad_count", "resident", "activity"])
        for w in windows:
            writer.writerow([
                w.source, w.index, w.pad_count,
                w.label.resident_id, w.label.activity_id,
            ])
