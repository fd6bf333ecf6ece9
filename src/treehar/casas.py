"""CASAS multi-resident log ingestion.

One event per line, whitespace separated:
    date time sensor value resident activity
e.g. "2009-02-02 12:18:45.51 M13 ON 2 5". Resident and activity are
1-based in the files and stored 0-based. The sensor vocabulary is the
fixed 37-tag set of the ADLMR testbed, indexed by catalog id minus one.
"""

from __future__ import annotations

import csv
import datetime as dt
import random
from dataclasses import dataclass

NUM_RESIDENTS = 2
NUM_ACTIVITIES = 15

ACTIVITY_NAMES = [
    "Filling medication dispenser",
    "Hanging up clothes",
    "Moving furniture",
    "Reading magazine (R2)",
    "Watering plants",
    "Sweeping floor",
    "Playing checkers",
    "Preparing dinner",
    "Setting table",
    "Reading magazine (R1)",
    "Paying bills",
    "Packing picnic food",
    "Retrieving dishes",
    "Packing picnic supplies",
    "Packing and bring supplies",
]

_SENSOR_TAGS = (
    [f"M{i:02d}" for i in range(1, 27)]
    + ["M51", "I04", "I06", "D07"]
    + [f"D{i:02d}" for i in range(9, 16)]
)


class ParseError(ValueError):
    """A malformed log line; carries file/line provenance when known."""

    def __init__(self, message, source=None, line_no=None):
        self.source = source
        self.line_no = line_no
        prefix = ""
        if source is not None:
            prefix = f"{source}:{line_no}: " if line_no is not None else f"{source}: "
        super().__init__(prefix + message)


class SensorVocabulary:
    """Closed, ordered tag set mapping sensor tag to index 0..36."""

    def __init__(self, tags=None):
        self.entries = list(tags if tags is not None else _SENSOR_TAGS)
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("sensor vocabulary has duplicate tags")
        self._index = {tag: i for i, tag in enumerate(self.entries)}

    def __len__(self):
        return len(self.entries)

    def __contains__(self, tag):
        return tag in self._index

    def index(self, tag: str) -> int:
        try:
            return self._index[tag]
        except KeyError:
            raise KeyError(f"unknown sensor tag {tag!r}") from None

    def tag(self, index: int) -> str:
        return self.entries[index]


DEFAULT_VOCAB = SensorVocabulary()


@dataclass(frozen=True)
class SensorEvent:
    date: dt.date
    time: dt.time
    sensor: int
    value: str
    resident_id: int
    activity_id: int

    def timestamp(self):
        return (self.date, self.time)


@dataclass(frozen=True)
class LabelPair:
    resident_id: int
    activity_id: int


@dataclass(frozen=True)
class DatasetSplit:
    train_files: tuple
    test_files: tuple
    seed: int


SKIP = object()  # marker for blank or unlabeled lines


def _parse_timestamp(date_text, time_text):
    date = dt.date.fromisoformat(date_text)
    # time-of-day with optional fractional seconds of any width
    if "." in time_text:
        whole, frac = time_text.split(".", 1)
        if not frac.isdigit():
            raise ValueError(f"bad fractional seconds {time_text!r}")
        micro = int(round(float("0." + frac) * 1e6))
        micro = min(micro, 999999)
    else:
        whole, micro = time_text, 0
    h, m, s = whole.split(":")
    return date, dt.time(int(h), int(m), int(s), micro)


def parse_line(line: str, vocab: SensorVocabulary = DEFAULT_VOCAB,
               source=None, line_no=None):
    """Parse one log line into a SensorEvent.

    Returns SKIP for blank lines and for unlabeled 4-field lines (real
    corpora contain annotation gaps); raises ParseError for anything else
    that does not match the format.
    """
    fields = line.split()
    if not fields:
        return SKIP
    if len(fields) == 4:
        return SKIP  # event without labels
    if len(fields) != 6:
        raise ParseError(
            f"expected 6 whitespace-separated fields, got {len(fields)}",
            source, line_no,
        )
    date_text, time_text, tag, value, res_text, act_text = fields
    try:
        date, time = _parse_timestamp(date_text, time_text)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"unparseable timestamp: {exc}", source, line_no) from None
    if tag not in vocab:
        raise ParseError(f"unknown sensor tag {tag!r}", source, line_no)
    try:
        resident = int(res_text)
        activity = int(act_text)
    except ValueError:
        raise ParseError(
            f"labels must be integers, got {res_text!r} {act_text!r}",
            source, line_no,
        ) from None
    if not 1 <= resident <= NUM_RESIDENTS:
        raise ParseError(
            f"resident id {resident} out of range 1..{NUM_RESIDENTS}",
            source, line_no,
        )
    if not 1 <= activity <= NUM_ACTIVITIES:
        raise ParseError(
            f"activity id {activity} out of range 1..{NUM_ACTIVITIES}",
            source, line_no,
        )
    return SensorEvent(
        date=date,
        time=time,
        sensor=vocab.index(tag),
        value=value,
        resident_id=resident - 1,
        activity_id=activity - 1,
    )


def serialize_event(event: SensorEvent, vocab: SensorVocabulary = DEFAULT_VOCAB) -> str:
    """Inverse of parse_line on the six-field subset (canonical form:
    fractional seconds carry no trailing zeros)."""
    if event.time.microsecond:
        frac = f".{event.time.microsecond:06d}".rstrip("0")
    else:
        frac = ""
    time_text = event.time.strftime("%H:%M:%S") + frac
    return (
        f"{event.date.isoformat()} {time_text} {vocab.tag(event.sensor)} "
        f"{event.value} {event.resident_id + 1} {event.activity_id + 1}"
    )


@dataclass
class FileParseResult:
    source: str
    events: list
    skipped_blank: int = 0
    skipped_unlabeled: int = 0


def parse_file(path, vocab: SensorVocabulary = DEFAULT_VOCAB,
               check_order: bool = True) -> FileParseResult:
    """Parse one log file; verifies events are non-decreasing in time."""
    result = FileParseResult(source=str(path), events=[])
    # surrogateescape keeps undecodable bytes in the line (as U+DC80..U+DCFF)
    # so the error can name the line they are on
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        prev = None
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
                raise ParseError(f"undecodable byte 0x{byte:02x}", str(path), line_no)
            parsed = parse_line(line, vocab, source=str(path), line_no=line_no)
            if parsed is SKIP:
                if line.split():
                    result.skipped_unlabeled += 1
                else:
                    result.skipped_blank += 1
                continue
            if check_order and prev is not None and parsed.timestamp() < prev:
                raise ParseError(
                    "events out of order: "
                    f"{parsed.date} {parsed.time} after {prev[0]} {prev[1]}",
                    str(path), line_no,
                )
            prev = parsed.timestamp()
            result.events.append(parsed)
    return result


def filter_on(events, on_value: str = "ON"):
    """Keep exactly the events whose value equals on_value, in order."""
    return [e for e in events if e.value == on_value]


def split_files(files, ratio: float = 0.7, seed: int = 0) -> DatasetSplit:
    """Deterministic random partition; train gets round(ratio * total) files.

    The file list is canonicalized by sorting before shuffling, so the
    split depends only on the set of names and the seed.
    """
    files = sorted(str(f) for f in files)
    if len(files) < 2:
        raise ValueError(f"need at least 2 files to split, got {len(files)}")
    rng = random.Random(seed)
    rng.shuffle(files)
    n_train = round(ratio * len(files))
    return DatasetSplit(
        train_files=tuple(files[:n_train]),
        test_files=tuple(files[n_train:]),
        seed=seed,
    )


CSV_HEADER = ["date", "time", "sensor", "value", "resident", "activity"]


def write_events_csv(events, path, vocab: SensorVocabulary = DEFAULT_VOCAB):
    """Canonical event stream: date,time,sensor,value,resident,activity
    with 1-based labels, matching the raw line fields."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for e in events:
            date_text, time_text, tag, value, res, act = serialize_event(
                e, vocab
            ).split()
            writer.writerow([date_text, time_text, tag, value, res, act])
