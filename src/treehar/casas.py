"""CASAS multi-resident log ingestion.

One event per line, whitespace separated:
    date time sensor value resident activity
e.g. "2009-02-02 12:18:45.51 M13 ON 2 5": the date is YYYY-MM-DD, the
time HH:MM:SS with an optional fraction of 1 to 6 digits, the sensor a
tag of the fixed 37-tag set of the ADLMR testbed (indexed by catalog id
minus one), and resident and activity are ASCII digit strings, 1-based
in the files and stored 0-based. Lines are ASCII, time never goes back,
and a blank or a 4-field line (an annotation gap) gives no event.

parse_file returns a file's labeled events as columns (Events): one
array per field, a row per event, in file order. It reads the file once,
as text-mode lines: universal newlines turn "\r\n" and a lone "\r" into
"\n", and lines end at "\n" alone. str.splitlines would also end a line
at \v, \f and \x1c-\x1e, which split() reads as field separators, and
so shift the line numbers. The lines are checked in blocks of about
32 KiB, so the text, every line's field list and the digit arrays of the
whole file are never alive at once. Each line is split into fields once;
dates, tags and labels are converted once per distinct text, and times
by _clock_micros. Each rule of the format is written once, as one of
these column checks: the first failing line in file order raises a
ParseError, file:line included, that _fault words from its first
failing check."""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass

import numpy as np

NUM_RESIDENTS = 2
NUM_ACTIVITIES = 15
MICROS_PER_DAY = 86_400 * 1_000_000

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

DEFAULT_VOCAB = tuple(
    [f"M{i:02d}" for i in range(1, 27)]
    + ["M51", "I04", "I06", "D07"]
    + [f"D{i:02d}" for i in range(9, 16)]
)
_VOCAB_INDEX = {tag: i for i, tag in enumerate(DEFAULT_VOCAB)}


class ParseError(ValueError):
    """A malformed log line, with its file and line number."""

    def __init__(self, message, source, line_no):
        self.source = source
        self.line_no = line_no
        super().__init__(f"{source}:{line_no}: {message}")


@dataclass(frozen=True)
class LabelPair:
    resident_id: int
    activity_id: int


@dataclass(frozen=True)
class DatasetSplit:
    train_files: tuple
    test_files: tuple


_COLUMNS = {"day": np.int64, "time": np.int64, "sensor": np.int64,
            "value": object, "resident": np.int64, "activity": np.int64}


@dataclass(eq=False)  # the columns are arrays, which have no truth value
class Events:
    """Labeled events as columns, a row per event: day (proleptic
    Gregorian ordinal), time (microseconds of the day), sensor (index
    into DEFAULT_VOCAB), value (text), resident and activity (0-based)."""

    day: np.ndarray
    time: np.ndarray
    sensor: np.ndarray
    value: np.ndarray
    resident: np.ndarray
    activity: np.ndarray

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))

    def __len__(self):
        return len(self.sensor)

    def __getitem__(self, rows):
        """The events at rows: a slice, an index array or a boolean mask."""
        return Events(*(getattr(self, name)[rows] for name in _COLUMNS))


def _shown(text, show=repr) -> str:
    """A field as a ParseError message quotes it: show(text), or past 32
    characters the repr of its first 32 and its length, on one short line."""
    if len(text) <= 32:
        return show(text)
    return f"{text[:32]!r}... ({len(text)} characters)"


def _date(text) -> dt.date:
    """The date of a YYYY-MM-DD text; ValueError for any other. Python
    3.11's date.fromisoformat alone also reads 20090202 and 2009-W06-1,
    which 3.10's refuses."""
    if not (len(text) == 10 and text[4] == text[7] == "-" and text.isascii()
            and (text[:4] + text[5:7] + text[8:]).isdigit()):
        raise ValueError(f"date {_shown(text)} is not YYYY-MM-DD")
    return dt.date.fromisoformat(text)


_CLOCK_WIDTH = 15                        # len("HH:MM:SS.ffffff")
_CLOCK_DIGITS = [0, 1, 3, 4, 6, 7]       # the H, M and S digits of a time text
_CLOCK_PLACES = np.array([36_000, 3_600, 600, 60, 10, 1]) * 1_000_000
_FRACTION_PLACES = 10 ** np.arange(5, -1, -1)


def _clock_micros(texts) -> np.ndarray:
    """Microseconds of the day of each time text, HH:MM:SS with an
    optional fraction of 1 to 6 digits; -1 for any other text. Each
    text's length is taken before it is packed into the fixed-width
    array, so a longer text is never truncated into a canonical one."""
    width = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    chars = np.array(texts, dtype=f"S{_CLOCK_WIDTH}").view(np.uint8)
    return _packed_clock_micros(chars.reshape(-1, _CLOCK_WIDTH), width)


def _packed_clock_micros(chars, width) -> np.ndarray:
    """_clock_micros of texts packed as (n, 15) ASCII codes, NUL-padded,
    and their lengths. The fraction is read right-padded to 6 digits, so
    a fraction f of 1 to 6 digits gives f's microseconds exactly."""
    digit = (chars >= ord("0")) & (chars <= ord("9"))
    value = np.where(digit, chars - ord("0"), 0)   # NUL padding reads as 0
    past_end = np.arange(_CLOCK_WIDTH) >= width[:, None]
    fraction = ((width >= 10) & (width <= _CLOCK_WIDTH) & (chars[:, 8] == ord("."))
                & (digit | past_end)[:, 9:].all(axis=1))
    canonical = ((width == 8) | fraction) \
        & digit[:, _CLOCK_DIGITS].all(axis=1) \
        & (chars[:, 2] == ord(":")) & (chars[:, 5] == ord(":")) \
        & (value[:, 0] * 10 + value[:, 1] < 24) \
        & (value[:, 3] < 6) & (value[:, 6] < 6)
    micros = value[:, _CLOCK_DIGITS] @ _CLOCK_PLACES \
        + value[:, 9:] @ _FRACTION_PLACES
    return np.where(canonical, micros, -1)


def _per_distinct(texts, convert) -> np.ndarray:
    """convert(text) for each of texts, called once per distinct text."""
    table = {text: convert(text) for text in set(texts)}
    return np.fromiter(map(table.__getitem__, texts), dtype=np.int64,
                       count=len(texts))


def _day(text) -> int:
    try:
        return _date(text).toordinal()
    except ValueError:
        return -1


def _label(limit):
    """Text to a 0-based label: -1 unless it is ASCII digits that int()
    reads, -2 unless their value is in 1..limit."""
    def convert(text) -> int:
        if not text.isdigit():   # int() alone also reads "+2" and "0_5"
            return -1
        try:
            value = int(text)
        except ValueError:   # past int()'s 4300-digit limit
            return -1
        return value - 1 if 1 <= value <= limit else -2
    return convert


_BLOCK_CHARS = 1 << 15   # parse_file checks lines in blocks of about 32 KiB


@dataclass
class FileParseResult:
    events: Events
    skipped_unlabeled: int = 0


def _fault(line, decoded, columns, row, prev) -> str:
    """The ParseError message of a failing line: its first failing check,
    in the format's order. decoded is False for a non-ASCII line; columns
    are the block's day, time, sensor, resident and activity codes (-1
    where a check fails, -2 for a label out of range), row the line's row
    in them if labeled, and prev the stamp of the file's event before it."""
    if not decoded:
        byte = next(ord(c) - 0xDC00 for c in line if not c.isascii())
        return f"undecodable byte 0x{byte:02x}"
    fields = line.split()
    if len(fields) != 6:
        return f"expected 6 whitespace-separated fields, got {len(fields)}"
    date_text, time_text, tag, _, res_text, act_text = fields
    day, time, sensor, resident, activity = (int(column[row]) for column in columns)
    if day < 0:
        try:
            _date(date_text)
        except ValueError as exc:
            return f"unparseable timestamp: {exc}"
    if time < 0:
        return (f"unparseable timestamp: time {_shown(time_text)} "
                "is not HH:MM:SS[.f], f 1 to 6 digits")
    if sensor < 0:
        return f"unknown sensor tag {_shown(tag)}"
    if -1 in (resident, activity):
        return f"labels must be integers, got {_shown(res_text)} {_shown(act_text)}"
    if resident < 0:
        return (f"resident id {_shown(str(int(res_text)), str)} "
                f"out of range 1..{NUM_RESIDENTS}")
    if activity < 0:
        return (f"activity id {_shown(str(int(act_text)), str)} "
                f"out of range 1..{NUM_ACTIVITIES}")
    stamps = (day * MICROS_PER_DAY + time, prev)   # datetime.min is day 1
    return "events out of order: {} after {}".format(*(
        dt.datetime.min + dt.timedelta(microseconds=s - MICROS_PER_DAY) for s in stamps))


def _parse_block(lines, source, offset: int, last: int):
    """The labeled events of lines offset+1.. of source, as Events, and
    the count of unlabeled lines among them; last is the stamp of the
    file's event before them, or -1. The first failing line raises its
    ParseError."""
    decodable = next((i for i, line in enumerate(lines) if not line.isascii()),
                     len(lines))
    rows = [line.split() for line in lines[:decodable]]
    n_fields = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    labeled = np.flatnonzero(n_fields == 6)
    dates, times, tags, values, residents, activities = \
        tuple(zip(*(row for row in rows if len(row) == 6))) or ((),) * 6
    del rows

    day = _per_distinct(dates, _day)
    time = _clock_micros(times)
    sensor = _per_distinct(tags, lambda tag: _VOCAB_INDEX.get(tag, -1))
    resident = _per_distinct(residents, _label(NUM_RESIDENTS))
    activity = _per_distinct(activities, _label(NUM_ACTIVITIES))

    invalid = np.flatnonzero((day < 0) | (time < 0) | (sensor < 0)
                             | (resident < 0) | (activity < 0))
    n_valid = invalid[0] if invalid.size else len(labeled)
    stamp = day[:n_valid] * MICROS_PER_DAY + time[:n_valid]
    backwards = np.flatnonzero(np.diff(stamp, prepend=last) < 0)
    wrong = np.flatnonzero((n_fields != 0) & (n_fields != 4) & (n_fields != 6))
    failing = min([decodable, *wrong[:1], *labeled[invalid[:1]],
                   *labeled[backwards[:1]]])
    if failing < len(lines):
        row = int(np.searchsorted(labeled, failing))   # the events before it
        raise ParseError(_fault(lines[failing], failing < decodable,
                                (day, time, sensor, resident, activity), row,
                                int(stamp[row - 1]) if row else last),
                         source, offset + failing + 1)
    shared = {value: value for value in set(values)}   # one str per distinct value
    return (Events(day, time, sensor, [shared[value] for value in values],
                   resident, activity),
            int(np.count_nonzero(n_fields == 4)))


def parse_file(path) -> FileParseResult:
    """Parse one log file into columns; verifies events are non-decreasing
    in time. The first failing line raises its ParseError."""
    blocks, skipped, offset, last = [Events(*((),) * 6)], 0, 0, -1
    # surrogateescape keeps undecodable bytes in the text (as U+DC80..U+DCFF)
    # so the error can name the line they are on
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        while lines := fh.readlines(_BLOCK_CHARS):
            events, unlabeled = _parse_block(lines, str(path), offset, last)
            blocks.append(events)
            skipped += unlabeled
            offset += len(lines)
            if len(events):
                last = int(events.day[-1]) * MICROS_PER_DAY + int(events.time[-1])
    return FileParseResult(
        Events(*(np.concatenate([getattr(block, name) for block in blocks])
                 for name in _COLUMNS)),
        skipped_unlabeled=skipped,
    )


def format_events(events: Events):
    """Yield each event's six fields as the log holds them, with
    fractional seconds free of trailing zeros and 1-based labels."""
    dates = {day: dt.date.fromordinal(day).isoformat()
             for day in set(events.day.tolist())}
    for day, micros, sensor, value, resident, activity in zip(
            events.day.tolist(), events.time.tolist(), events.sensor.tolist(),
            events.value.tolist(), events.resident.tolist(),
            events.activity.tolist()):
        seconds, fraction = divmod(micros, 1_000_000)
        minutes, second = divmod(seconds, 60)
        clock = f"{minutes // 60:02d}:{minutes % 60:02d}:{second:02d}"
        if fraction:
            clock += f".{fraction:06d}".rstrip("0")
        yield (dates[day], clock, DEFAULT_VOCAB[sensor], value,
               str(resident + 1), str(activity + 1))


def filter_on(events: Events, on_value: str = "ON") -> Events:
    """Keep exactly the events whose value equals on_value, in order."""
    return events[events.value == on_value]


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
    )
