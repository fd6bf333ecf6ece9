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

from .casas import (
    DEFAULT_VOCAB,
    NUM_ACTIVITIES,
    NUM_RESIDENTS,
    SensorEvent,
    serialize_event,
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


def generate_file_events(profile: SynthProfile, rng) -> list:
    """Labeled events for one session file, non-decreasing in time."""
    events = []
    day = dt.date(2009, 2, 2) + dt.timedelta(days=int(rng.integers(0, 365)))
    clock = dt.datetime.combine(day, dt.time(8, 0, 0))
    remaining = profile.events_per_file
    while remaining > 0:
        segment = min(int(rng.integers(5, 26)), remaining)
        resident = int(rng.integers(0, NUM_RESIDENTS))
        activity = int(rng.integers(0, NUM_ACTIVITIES))
        pool = _activity_pool(activity)
        for _ in range(segment):
            if rng.random() < NOISE_PROB:
                sensor = int(rng.integers(0, len(DEFAULT_VOCAB)))
            else:
                sensor = pool[int(rng.integers(0, POOL_SIZE))]
            clock += dt.timedelta(
                seconds=int(rng.integers(1, 30)),
                milliseconds=int(rng.integers(0, 1000)),
            )
            events.append(SensorEvent(
                date=clock.date(),
                time=clock.time(),
                sensor=sensor,
                value="ON" if rng.random() < ON_PROB else "OFF",
                resident_id=resident,
                activity_id=activity,
            ))
        remaining -= segment
    return events


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
            "".join(serialize_event(e) + "\n" for e in events),
            encoding="ascii",
        )
        paths.append(path)
    return paths
