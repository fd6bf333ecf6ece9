"""Synthetic corpus generation in the exact log line format.

Lets the whole pipeline run offline: events come in labeled activity
segments, with each activity biased toward its own small sensor pool so
the labels are learnable, plus uniform noise events. Deterministic per
seed, byte for byte.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .casas import (
    DEFAULT_VOCAB,
    MICROS_PER_DAY,
    NUM_ACTIVITIES,
    NUM_RESIDENTS,
    Events,
    format_events,
)
from .training import STREAM_SYNTH, derive_rng

NOISE_PROB = 0.15
POOL_SIZE = 5
ON_PROB = 0.6


@dataclass(frozen=True)
class SynthProfile:
    """Corpus size; every file draws from the full label and sensor spaces."""

    files: int = 26
    events_per_file: int = 240

    def __post_init__(self):
        if self.files < 1 or self.events_per_file < 1:
            raise ValueError("files and events_per_file must be positive")


DEFAULT_PROFILE = SynthProfile()


def _activity_pool(activity: int):
    return [(activity * POOL_SIZE + j) % len(DEFAULT_VOCAB) for j in range(POOL_SIZE)]


def generate_file_events(profile: SynthProfile, rng) -> Events:
    """Labeled events for one session file, non-decreasing in time."""
    day = dt.date(2009, 2, 2).toordinal() + int(rng.integers(0, 365))
    clock = day * MICROS_PER_DAY + 8 * 3600 * 1_000_000   # 08:00:00, in µs
    stamps, sensors, values, residents, activities = [], [], [], [], []
    remaining = profile.events_per_file
    while remaining > 0:
        segment = min(int(rng.integers(5, 26)), remaining)
        resident = int(rng.integers(0, NUM_RESIDENTS))
        activity = int(rng.integers(0, NUM_ACTIVITIES))
        pool = _activity_pool(activity)
        for _ in range(segment):
            if rng.random() < NOISE_PROB:
                sensors.append(int(rng.integers(0, len(DEFAULT_VOCAB))))
            else:
                sensors.append(pool[int(rng.integers(0, POOL_SIZE))])
            clock += (int(rng.integers(1, 30)) * 1_000_000      # seconds
                      + int(rng.integers(0, 1000)) * 1_000)     # milliseconds
            stamps.append(clock)
            values.append("ON" if rng.random() < ON_PROB else "OFF")
            residents.append(resident)
            activities.append(activity)
        remaining -= segment
    days, times = np.divmod(np.array(stamps, dtype=np.int64), MICROS_PER_DAY)
    return Events(days, times, sensors, values, residents, activities)


def generate_corpus(out_dir, profile: SynthProfile = DEFAULT_PROFILE,
                    seed: int = 0) -> list:
    """Write profile.files log files into out_dir; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(profile.files):
        rng = derive_rng(seed, STREAM_SYNTH, index)
        events = generate_file_events(profile, rng)
        path = out_dir / f"synth_{index:02d}.txt"
        path.write_text(
            "".join(" ".join(fields) + "\n" for fields in format_events(events)),
            encoding="ascii",
        )
        paths.append(path)
    return paths
