"""CASAS multi-resident log ingestion.

One event per line, whitespace separated:
    date time sensor value resident activity
e.g. "2009-02-02 12:18:45.51 M13 ON 2 5": the date is YYYY-MM-DD, the
time HH:MM:SS with an optional fraction of 1 to 6 digits, the sensor a
tag of the fixed 37-tag set of the ADLMR testbed (indexed by catalog id
minus one), and resident and activity are ASCII digit strings, 1-based
in the files and stored 0-based. Lines are ASCII, time never goes back,
and a blank or a 4-field line (an annotation gap) gives no event.

parse_file returns a file's labeled events as columns (Events): one array
per field, a row per event, in file order. It reads the file's bytes once,
in blocks of whole lines (_BLOCK_CHARS); a line ends at "\n", "\r\n" or a
lone "\r". A field is a maximal run of bytes other than str.split()'s ASCII
separators, 9-13 and 28-32, so \v, \f and \x1c-\x1f separate fields and end
no line. Each distinct date, tag, value and label text of a block is
converted once, and times are packed from the bytes; beside its events, a
block holds its bytes and a few arrays of a byte per byte or an int per
field. Each rule of the format is written once, as one of these column
checks: the first failing line in file order raises a ParseError,
file:line included, that _fault words from its first failing check."""

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
_CLOCK_DIGITS = [0, 1, 3, 4, 6, 7, *range(9, _CLOCK_WIDTH)]   # H, M, S, fraction
_CLOCK_PLACES = np.array([36e9, 3.6e9, 6e8, 6e7, 1e7, 1e6, 1e5, 1e4, 1e3, 100, 10, 1])


def _packed_clock_micros(chars, width) -> np.ndarray:
    """Microseconds of the day of each time text, HH:MM:SS with a fraction
    f of 1 to 6 digits or none (f read right-padded to 6 digits, exactly);
    -1 for any other. The texts come as their lengths and their first 15
    ASCII codes, (n, 15) uint8 and NUL past each text's end."""
    value = chars.T[_CLOCK_DIGITS] - ord("0")   # a row per digit; wraps below "0"
    digit = value < 10
    value *= digit                              # NUL padding reads as 0
    past_end = np.arange(9, _CLOCK_WIDTH)[:, None] >= width
    fraction = ((width >= 10) & (width <= _CLOCK_WIDTH) & (chars[:, 8] == ord("."))
                & (digit[6:] | past_end).all(axis=0))
    canonical = ((width == 8) | fraction) & digit[:6].all(axis=0) \
        & (chars[:, 2] == ord(":")) & (chars[:, 5] == ord(":")) \
        & (value[0] * 10 + value[1] < 24) & (value[2] < 6) & (value[4] < 6)
    micros = (_CLOCK_PLACES @ value.astype(np.float64)).astype(np.int64)   # < 2**53
    return np.where(canonical, micros, -1)


_FIRST_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _packed(words, start, width):
    """Fields as two words each, words[i] being the 8 bytes at offset i:
    bytes 0-7, then bytes 8-14 and the width's low byte, zero past the
    field's end. Fields of up to 15 bytes pack equal iff they are equal."""
    head = words[start] & _FIRST_BYTES[np.minimum(width, 8)]
    tail = words[start + 8] & _FIRST_BYTES[np.maximum(np.minimum(width, 15) - 8, 0)]
    return head, tail | width.astype(np.uint64) << 56


def _per_distinct(raw, words, start, end, convert, dtype=np.int64):
    """convert(text) of each field raw[start:end], called once per
    distinct text: each run of equal _packed words, sorted, is decoded
    once, and a field over 15 bytes is a run of its own."""
    head, tail = _packed(words, start, end - start)
    wide = np.flatnonzero(end - start > 15)
    head[wide], tail[wide] = wide, 255 << 56
    order = np.argsort(head ^ tail * np.uint64(0x9E3779B97F4A7C15))
    head, tail = head[order], tail[order]
    new = np.ones(len(order), dtype=bool)   # the first of each run
    new[1:] = (head[1:] != head[:-1]) | (tail[1:] != tail[:-1])
    table = {}   # text: its index, so that each distinct text is converted once
    first = [table.setdefault(raw[s:e].decode("ascii"), len(table))
             for s, e in zip(start[order[new]].tolist(), end[order[new]].tolist())]
    index = np.empty_like(order)
    index[order] = np.array(first, dtype=np.intp)[np.cumsum(new) - 1]
    return np.array([convert(text) for text in table], dtype=dtype)[index]


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


# 256 KiB blocks hold the 178 KB, 5000-event predict history whole: 2.3 ms to parse,
# 2.5 at 128 KiB, 2.6 at 64, 3.5 at 32 (2 vCPUs); predict's peak RSS 45.0 MiB at each
_BLOCK_CHARS = 1 << 18


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


def _parse_block(padded, source, offset: int, last: int):
    """The labeled events of padded (lines offset+1.. of source, then 16
    NULs) as Events, with its counts of unlabeled lines and of lines; last
    is the stamp of the file's event before, or -1. Fields are maximal runs
    of bytes other than 9-13 and 28-32, and each distinct text of a column
    is converted once. The first failing line raises its ParseError."""
    size = len(padded) - 16   # so that 16 bytes can be read at any field start
    block = np.frombuffer(padded, dtype=np.uint8)
    words = np.ndarray((size + 9,), dtype="<u8", buffer=padded, strides=(1,))
    line_end = np.flatnonzero((block[:size] == 10)   # "\n", "\r\n" or a lone "\r"
                              | (block[:size] == 13) & (block[1:size + 1] != 10))
    edge = np.flatnonzero(np.diff((block[:size] - 9 < 5) | (block[:size] - 28 < 5),
                                  prepend=True, append=True))   # uint8 wraps
    field_start, field_end = edge[0::2], edge[1::2]
    before = np.searchsorted(field_start, line_end)   # fields before each line end
    decodable = len(line_end) if padded.isascii() \
        else int(np.searchsorted(line_end, np.argmax(block >= 128)))
    n_fields = np.diff(before, prepend=0)[:decodable]
    labeled = np.flatnonzero(n_fields == 6)
    first = before[labeled] - 6   # the first field of each labeled line

    def column(j, convert, dtype=np.int64):   # convert of each labeled field j
        return _per_distinct(padded, words, field_start[first + j],
                             field_end[first + j], convert, dtype)

    start, end = field_start[first + 1], field_end[first + 1]
    chars = np.stack(_packed(words, start, end - start), axis=1).astype("<u8", copy=False)
    time = _packed_clock_micros(chars.view(np.uint8)[:, :_CLOCK_WIDTH], end - start)
    day = column(0, _day)
    sensor = column(2, lambda tag: _VOCAB_INDEX.get(tag, -1))
    resident = column(4, _label(NUM_RESIDENTS))
    activity = column(5, _label(NUM_ACTIVITIES))

    invalid = np.flatnonzero((day < 0) | (time < 0) | (sensor < 0)
                             | (resident < 0) | (activity < 0))
    n_valid = invalid[0] if invalid.size else len(labeled)
    stamp = day[:n_valid] * MICROS_PER_DAY + time[:n_valid]
    backwards = np.flatnonzero(np.diff(stamp, prepend=last) < 0)
    wrong = np.flatnonzero((n_fields != 0) & (n_fields != 4) & (n_fields != 6))
    failing = min([decodable, *wrong[:1], *labeled[invalid[:1]],
                   *labeled[backwards[:1]]])
    if failing < len(line_end):
        row = int(np.searchsorted(labeled, failing))   # the events before it
        begin = line_end[failing - 1] + 1 if failing else 0
        line = padded[begin:line_end[failing] + 1].decode("ascii", "surrogateescape")
        raise ParseError(_fault(line, failing < decodable,
                                (day, time, sensor, resident, activity), row,
                                int(stamp[row - 1]) if row else last),
                         source, offset + failing + 1)
    return (Events(day, time, sensor, column(3, str, object), resident, activity),
            int(np.count_nonzero(n_fields == 4)), len(line_end))


def parse_file(path) -> FileParseResult:
    """Parse one log file into columns; verifies events are non-decreasing
    in time. The first failing line raises its ParseError."""
    blocks, skipped, offset, last, raw = [Events(*((),) * 6)], 0, 0, -1, bytearray()
    with open(path, "rb") as fh:
        while (new := fh.read(_BLOCK_CHARS)) or raw:
            new = new or b"\n"   # end the file's last line; "\r" + "\n" is one end
            raw += new
            # cut after the new bytes' last line end; a last "\r" may be half a "\r\n"
            cut = max(raw.rfind(b"\n", -len(new)), raw.rfind(b"\r", -len(new), -1)) + 1
            block = raw[:cut] + bytes(16)
            del raw[:cut]
            events, unlabeled, lines = _parse_block(block, str(path), offset, last)
            blocks.append(events)
            skipped += unlabeled
            offset += lines
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
