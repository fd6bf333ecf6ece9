import datetime as dt
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treehar import casas, synth
from treehar.casas import (
    DEFAULT_VOCAB,
    DatasetSplit,
    Events,
    ParseError,
    _packed_clock_micros,
    filter_on,
    format_events,
    parse_file,
    split_files,
)
from treehar.cli import run

from oracles import naive_parse_file
from test_cli import _mutate

GOOD_LINE = "2009-02-02 12:18:45.51 M13 ON 2 5"


def _parse_one_line(tmp_path, line):
    """_outcome of parse_file on tmp_path/log.txt, a file of line alone:
    its (events, skipped_unlabeled), or its ParseError's text."""
    path = tmp_path / "log.txt"
    path.write_text(line + "\n")
    return _outcome(parse_file, path)


def test_vocabulary_is_the_37_tag_catalog(tmp_path):
    assert len(DEFAULT_VOCAB) == 37
    assert DEFAULT_VOCAB.index("M01") == 0
    assert DEFAULT_VOCAB.index("M26") == 25
    assert DEFAULT_VOCAB.index("M51") == 26
    assert DEFAULT_VOCAB.index("I04") == 27
    assert DEFAULT_VOCAB.index("I06") == 28
    assert DEFAULT_VOCAB.index("D07") == 29
    assert DEFAULT_VOCAB.index("D09") == 30
    assert DEFAULT_VOCAB.index("D15") == 36
    assert len(set(DEFAULT_VOCAB)) == 37
    for i, tag in enumerate(DEFAULT_VOCAB):
        (event,), _ = _parse_one_line(tmp_path, f"2009-02-02 08:00:00 {tag} ON 1 1")
        assert event[2] == i


def test_parse_line_field_mapping(tmp_path):
    (event,), skipped = _parse_one_line(tmp_path, GOOD_LINE)
    date, time, sensor, value, resident, activity = event
    assert sensor == 12           # M13
    assert value == "ON"
    assert resident == 1          # 1-based 2
    assert activity == 4          # 1-based 5
    assert date == dt.date(2009, 2, 2)
    assert time == dt.time(12, 18, 45, 510000)
    assert skipped == 0


def test_parse_line_blank_is_skip(tmp_path):
    """A blank line is neither an event nor an unlabeled skip."""
    assert _parse_one_line(tmp_path, "") == ([], 0)
    assert _parse_one_line(tmp_path, "   \t  ") == ([], 0)


def test_parse_line_unlabeled_is_skip(tmp_path):
    assert _parse_one_line(tmp_path, "2009-02-02 12:18:45.51 M13 ON") == ([], 1)


def test_parse_line_unknown_tag_rejected(tmp_path):
    assert _parse_one_line(tmp_path, "2009-02-02 12:18:45.51 M99 ON 1 1") \
        == f"{tmp_path / 'log.txt'}:1: unknown sensor tag 'M99'"


def test_parse_line_field_count_rejected(tmp_path):
    for line, count in [("2009-02-02 12:18:45.51 M13 ON 2 5 9", 7),
                        ("2009-02-02 12:18:45.51 M13 ON 2", 5)]:
        assert _parse_one_line(tmp_path, line) == (
            f"{tmp_path / 'log.txt'}:1: expected 6 whitespace-separated fields, "
            f"got {count}")


def test_parse_line_bad_timestamp_rejected(tmp_path):
    for line, fault in [
            ("2009-13-40 12:18:45.51 M13 ON 2 5", "month must be in 1..12"),
            ("2009-02-02 25:00:00 M13 ON 2 5",
             "time '25:00:00' is not HH:MM:SS[.f], f 1 to 6 digits"),
            ("2009-02-02 12:18:45.x1 M13 ON 2 5",
             "time '12:18:45.x1' is not HH:MM:SS[.f], f 1 to 6 digits")]:
        assert _parse_one_line(tmp_path, line) \
            == f"{tmp_path / 'log.txt'}:1: unparseable timestamp: {fault}"


def test_parse_line_out_of_range_labels_rejected(tmp_path):
    for labels, fault in [("3 5", "resident id 3 out of range 1..2"),
                          ("0 5", "resident id 0 out of range 1..2"),
                          ("2 16", "activity id 16 out of range 1..15")]:
        assert _parse_one_line(tmp_path, f"2009-02-02 12:18:45.51 M13 ON {labels}") \
            == f"{tmp_path / 'log.txt'}:1: {fault}"


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "log.txt"
    path.write_text("\n" * 6 + "2009-02-02 12:18:45.51 M99 ON 1 1\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:7: unknown sensor tag")) \
            as caught:
        parse_file(path)
    assert (caught.value.source, caught.value.line_no) == (str(path), 7)


def test_parse_serialize_round_trip(tmp_path):
    lines = ["2008-11-10 14:28:17.986759 M22 ON 2 2",
             "2009-02-02 12:18:45 D15 OFF 1 15",
             GOOD_LINE]
    path = tmp_path / "session.txt"
    path.write_text("\n".join(lines) + "\n")
    events = parse_file(path).events
    assert [" ".join(fields) for fields in format_events(events)] == lines


def _events(values, sensors=None):
    n = len(values)
    return Events(day=np.full(n, dt.date(2009, 2, 2).toordinal()),
                  time=np.arange(n) * 1_000_000,
                  sensor=range(n) if sensors is None else sensors,
                  value=values, resident=np.zeros(n), activity=np.zeros(n))


def _columns(events):
    return {name: column.tolist() for name, column in vars(events).items()}


def test_filter_on_keeps_order_and_is_idempotent():
    events = _events(["ON", "OFF", "ON"], sensors=[1, 2, 3])
    kept = filter_on(events)
    assert kept.sensor.tolist() == [1, 3]
    assert _columns(filter_on(kept)) == _columns(kept)
    assert len(filter_on(_events(["OFF", "OFF"]))) == 0


def test_filter_on_custom_value():
    events = _events(["OPEN", "ON"], sensors=[1, 2])
    assert filter_on(events, "OPEN").sensor.tolist() == [1]


def test_split_files_sizes():
    files26 = [f"f{i:02d}" for i in range(26)]
    split = split_files(files26, seed=3)
    assert len(split.train_files) == 18
    assert len(split.test_files) == 8
    split10 = split_files([f"g{i}" for i in range(10)], seed=3)
    assert len(split10.train_files) == 7
    assert len(split10.test_files) == 3


def test_split_files_deterministic_partition():
    files = [f"f{i:02d}" for i in range(26)]
    a = split_files(files, seed=11)
    b = split_files(files, seed=11)
    assert a == b
    assert isinstance(a, DatasetSplit)
    assert set(a.train_files) | set(a.test_files) == set(files)
    assert not set(a.train_files) & set(a.test_files)
    # order of the input list must not matter
    c = split_files(list(reversed(files)), seed=11)
    assert c == a


def test_split_files_needs_two():
    with pytest.raises(ValueError):
        split_files(["only"], seed=0)


def test_parse_file_counts_and_order_check(tmp_path):
    path = tmp_path / "session.txt"
    path.write_text(
        "2009-02-02 08:00:00 M01 ON 1 1\n"
        "\n"
        "2009-02-02 08:00:05.2 M02 OFF 2 3\n"
        "2009-02-02 08:00:06 M03 ON\n"  # unlabeled
        "2009-02-02 08:00:07 M03 ON 1 2\n"
    )
    result = parse_file(path)
    # the blank line is neither an event nor an unlabeled skip
    assert len(result.events) == 3
    assert result.skipped_unlabeled == 1

    bad = tmp_path / "bad.txt"
    bad.write_text(
        "2009-02-02 08:00:10 M01 ON 1 1\n"
        "2009-02-02 08:00:05 M02 ON 1 1\n"
    )
    with pytest.raises(ParseError, match="order"):
        parse_file(bad)


def test_parse_file_undecodable_byte_names_file_and_line(tmp_path):
    path = tmp_path / "session.txt"
    path.write_bytes(
        b"2009-02-02 08:00:00 M01 ON 1 1\n"
        b"2009-02-02 08:00:01 M02 ON caf\xe9 1\n"
    )
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: ") + ".*0xe9"):
        parse_file(path)


def test_write_events_csv(tmp_path):
    """ingest writes each event back as the log's six fields, 1-based."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "session.txt").write_text(GOOD_LINE + "\n")
    assert run(["ingest", "--data", str(corpus), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "events.csv").read_text().splitlines() == [
        "date,time,sensor,value,resident,activity",
        "2009-02-02,12:18:45.51,M13,ON,2,5",
    ]


# ---------------------------------------------------------------------------
# the columnar parse_file against the line-by-line oracle


def _outcome(parse, path):
    """What a parser makes of a file: its events as (date, time, sensor,
    value, resident_id, activity_id) tuples and its skip count, or the
    text of its ParseError."""
    try:
        result = parse(path)
    except ParseError as exc:
        return str(exc)
    if isinstance(result, tuple):   # the oracle's (events, skipped_unlabeled)
        return result
    events = result.events
    clocks = [(dt.datetime.min + dt.timedelta(microseconds=t)).time()
              for t in events.time.tolist()]
    return list(zip(map(dt.date.fromordinal, events.day.tolist()), clocks,
                    events.sensor.tolist(), events.value.tolist(),
                    events.resident.tolist(), events.activity.tolist())), \
        result.skipped_unlabeled


def _agreed_outcome(path):
    outcome = _outcome(parse_file, path)
    assert outcome == _outcome(naive_parse_file, path)
    return outcome


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    path, = synth.generate_corpus(tmp_path_factory.mktemp("oracle"),
                                  synth.SynthProfile(files=1, events_per_file=30),
                                  seed=3)
    return path.read_bytes()


# _mutate's edits, with the bytes of the line format drawn as often as any other
_LOG_EDITS = st.lists(
    st.tuples(st.floats(0.0, 1.0, exclude_max=True),
              st.sampled_from(["replace", "insert", "delete"]),
              st.one_of(st.integers(0, 255),
                        st.sampled_from(list(b"0123456789:.-+_ \t\n\r\v\f")))),
    min_size=1, max_size=4)


@given(edits=_LOG_EDITS)
@settings(max_examples=250, deadline=None)
def test_parse_file_agrees_with_the_line_by_line_oracle(history, edits):
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "log.txt"
        path.write_bytes(_mutate(history, edits))
        _agreed_outcome(path)


def _line(second, time=None, labels="1 1", tag="M01"):
    return f"2009-02-02 {time or f'08:00:{second:02d}'} {tag} ON {labels}"


def _log(*lines, end="\n"):
    return end.join(lines).encode("ascii", "surrogateescape") + end.encode()


BAD = _line(9, tag="M99")   # unknown sensor tag


@pytest.mark.parametrize("blob, expected", [
    # line endings: "\r\n" and a lone "\r" end a line, as "\n" does
    (_log(_line(1), BAD, _line(3), end="\r\n"), ":2: unknown sensor tag 'M99'"),
    (_log(_line(1), _line(2), BAD, end="\r"), ":3: unknown sensor tag"),
    # \v, \f and \x1c-\x1e separate fields but do not end a line
    (_log(_line(1).replace(" ", "\v", 1), _line(2).replace(" ", "\f"),
          _line(3).replace(" ", "\x1c"), BAD), ":4: unknown sensor tag"),
    (_log(_line(1).replace(" ", "\x1d"), _line(2).replace(" ", "\x1e")), 2),
    # an unlabeled line is skipped before any check
    (_log("2009-02-02 garbage M99 ON", _line(1), "x y z w"), 1),
    # a fraction has at most 6 digits: 7 or more are rejected, not rounded
    (_log(_line(1), _line(2, time="08:00:02.1234567")),
     ":2: unparseable timestamp: time '08:00:02.1234567' is not HH:MM:SS"),
    # each of H, M and S is two ASCII digits, though int() reads 8:0:2
    # (test_only_canonical_clocks_and_digit_labels_parse has the others)
    (_log(_line(1), _line(2, time="8:0:2")), ":2: unparseable timestamp"),
    # longer than the packed width: read whole, never truncated
    (_log(_line(1), _line(2, time="08:00:02.12345678901234567")),
     ":2: unparseable timestamp"),
    # past int()'s 4300-digit limit: still the line's ParseError, and a
    # field past 32 characters is quoted as its first 32 and its length
    (_log(_line(1), _line(2, time="0" * 4992 + "08:00:02")),
     f":2: unparseable timestamp: time {'0' * 32!r}... (5000 characters) is not"),
    (_log(_line(1), _line(2, time="08:00:02.123456x")), ":2: unparseable timestamp"),
    (_log(_line(1), _line(2, time="08:00:02.1234567x")), ":2: unparseable timestamp"),
    (_log(_line(1), _line(2, time="08:00:02.")), ":2: unparseable timestamp"),
    (_log(_line(1), _line(2, time="24:00:00")), ":2: unparseable timestamp"),
    (_log(_line(1), _line(2, time="08:60:00")), ":2: unparseable timestamp"),
    (_log(_line(1), _line(2, time="08:00:60.5")), ":2: unparseable timestamp"),
    (_log(_line(1), _line(2, labels="0 1")), ":2: resident id 0 out of range"),
    (_log(_line(1), _line(2, labels="2 0")), ":2: activity id 0 out of range"),
    # labels are ASCII digit strings, though int() reads "+2"
    (_log(_line(1), _line(2, labels="1 015"), _line(3, labels="+2 1")),
     ":3: labels must be integers, got '+2' '1'"),
    (_log(_line(1), _line(2, labels="1 x")), ":2: labels must be integers"),
    (_log(_line(1), _line(2, labels="1" * 5000 + " 1")),
     f":2: labels must be integers, got {'1' * 32!r}... (5000 characters) '1'"),
    (_log(_line(1), _line(2, labels="1" * 4000 + " 1")),
     f":2: resident id {'1' * 32!r}... (4000 characters) out of range 1..2"),
    (_log(_line(1), _line(2).replace("2009-02-02", "2009-02-30")),
     ":2: unparseable timestamp"),
    # equal timestamps are in order
    (_log(_line(5), _line(5), _line(5, time="08:00:05.0")), 3),
    # the first failing line wins, whatever its kind
    (_log(_line(1), BAD, _line(2) + "\udce9"), ":2: unknown sensor tag"),
    (_log(_line(1), _line(2) + "\udce9", BAD), ":2: undecodable byte 0xe9"),
    (_log(_line(1), "4 field line \udcff", BAD), ":2: undecodable byte 0xff"),
    (_log(_line(5), _line(6, labels="1 16"), _line(1)), ":2: activity id 16"),
    (_log(_line(5), _line(6, labels="1"), _line(1)), ":2: expected 6"),
    # of a line's own faults, the first in the format's order names it
    (_log(_line(1), _line(2, tag="M99").replace("2009-02-02", "2009-02-30")),
     ":2: unparseable timestamp: day is out of range for month"),
    (_log(_line(1), _line(2, labels="x 16")),
     ":2: labels must be integers, got 'x' '16'"),
    (_log(_line(1), _line(2, labels="3 16")), ":2: resident id 3 out of range"),
    (_log(_line(5), "", "a b c d", _line(1)),
     ":4: events out of order: 2009-02-02 08:00:01 after 2009-02-02 08:00:05"),
    (_log(_line(5, time="08:00:05.25"), _line(5, time="08:00:05.2")),
     ":2: events out of order: 2009-02-02 08:00:05.200000 after "
     "2009-02-02 08:00:05.250000"),
    (_log(_line(5), _line(4).replace("2009-02-02", "2009-02-03")), 2),
    (b"", 0),
    (b"\n\n  \n", 0),
    # every byte but 9-13 and 28-32 is a field byte, NUL and DEL too
    (_log(_line(1).replace(" ON ", " O\x00N "), _line(2)), 2),
    (_log(_line(1), _line(2, tag="M0\x001")), ":2: unknown sensor tag 'M0\\x001'"),
    (_log(_line(1).replace(" ON ", " O\x7fN ")), 1),
    (_log(_line(1).replace(" ", "\x1f")), 1),
    (_log(_line(1), _line(2, labels="1\x01 1")),
     ":2: labels must be integers, got '1\\x01' '1'"),
    (_log(_line(1), " \t\v\f\x1c\x1d\x1e\x1f ", _line(2)), 2),
    (_log(_line(1), _line(2), end="\r\n")[:-2], 2),
    (_log(_line(1), _line(2, labels="1 x"))[:-1],
     ":2: labels must be integers, got '1' 'x'"),
    # a field's bytes are its text: "ON\x00" is not "ON", and two fields
    # past 15 bytes that differ only there are two texts
    (_log(_line(1), _line(2).replace(" ON ", " ON\x00 ")), 2),
    (_log(_line(1).replace(" ON ", f" {'V' * 20}1 "),
          _line(2).replace(" ON ", f" {'V' * 20}2 ")), 2),
    # a "\r\n" whose "\r" is a block's last byte ends one line, not two
    (_log(_line(1).ljust(casas._BLOCK_CHARS - 1), BAD, end="\r\n"),
     ":2: unknown sensor tag 'M99'"),
], ids=["crlf", "cr", "vt-ff-fs", "gs-rs", "unlabeled-garbage", "long-fractions",
        "loose-clocks", "wide-clock", "time-5000-chars", "wide-clock-bad-16",
        "wide-clock-bad-17", "empty-fraction", "hour-24", "minute-60", "second-60",
        "resident-0", "activity-0", "signed-labels", "label-text",
        "label-5000-digits", "resident-4000-digits", "february-30", "equal-stamps",
        "byte-after-error", "byte-before-error", "byte-on-unlabeled-line",
        "order-after-label-error", "order-after-field-error",
        "date-and-tag", "text-and-range-labels", "both-labels-out-of-range", "order-across-skips", "order-in-fraction",
        "next-day", "empty", "blank", "nul-in-value", "nul-in-tag", "del-in-value",
        "us-separator", "control-in-label", "only-separators", "crlf-no-final-newline",
        "fault-on-last-line-without-newline", "trailing-nul-in-value",
        "wide-values-differ-past-15-bytes", "crlf-split-by-a-block-cut"])
def test_parse_file_edge_cases_agree_with_the_oracle(tmp_path, blob, expected):
    path = tmp_path / "log.txt"
    path.write_bytes(blob)
    outcome = _agreed_outcome(path)
    if isinstance(expected, int):
        events, _ = outcome
        assert len(events) == expected
    else:
        assert outcome.startswith(f"{path}{expected}")


@pytest.mark.parametrize("date", ["20090202", "2009-W06-1", "2009W061",
                                  "2009-02-2", "+009-02-02"])
def test_only_yyyy_mm_dd_dates_parse(tmp_path, capsys, date):
    """The log's date is YYYY-MM-DD. Python 3.11's date.fromisoformat
    alone also reads the first three (2009-W06-1 as 2009-02-02), and
    3.10's does not, so each is rejected explicitly, by parse_file and
    the oracle alike, and ingest exits 2 naming the file and line."""
    line = _line(2).replace("2009-02-02", date)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "log.txt"
    path.write_bytes(_log(_line(1), line))
    assert _agreed_outcome(path).startswith(f"{path}:2: unparseable timestamp")
    assert run(["ingest", "--data", str(corpus), "--out", str(tmp_path / "o")]) == 2
    assert f"{path}:2: unparseable timestamp" in capsys.readouterr().err


@pytest.mark.parametrize("time, labels, message", [
    ("8:0:0", "1 1", "unparseable timestamp: time '8:0:0'"),
    ("+08:00:01", "1 1", "unparseable timestamp: time '+08:00:01'"),
    ("0_8:00:02", "1 1", "unparseable timestamp: time '0_8:00:02'"),
    ("08:00:3", "1 1", "unparseable timestamp: time '08:00:3'"),
    ("08:00:03.1234567", "1 1", "unparseable timestamp: time '08:00:03.1234567'"),
    ("08:00:03", "+2 1", "labels must be integers, got '+2' '1'"),
    ("08:00:03", "1 0_5", "labels must be integers, got '1' '0_5'"),
])
def test_only_canonical_clocks_and_digit_labels_parse(tmp_path, capsys, time,
                                                      labels, message):
    """The log's time is HH:MM:SS with a fraction of at most 6 digits, and
    its labels are ASCII digit strings. int() also reads each of these
    forms, so each is rejected by parse_file and the oracle alike, and
    ingest exits 2 naming the file and line, with no traceback."""
    line = _line(2, time=time, labels=labels)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    path = corpus / "log.txt"
    path.write_bytes(_log(_line(1), line))
    assert _agreed_outcome(path).startswith(f"{path}:2: {message}")
    assert run(["ingest", "--data", str(corpus), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"data error: {path}:2: {message}" in err
    assert "Traceback" not in err


def test_parse_file_carries_order_and_line_numbers_across_blocks(tmp_path):
    """A log of at least three blocks, sized from the block, with each
    fault just past the first or the second block cut: the order check
    and the line numbers carry across both."""
    path, = synth.generate_corpus(   # a synthetic line is over 30 bytes
        tmp_path / "corpus",
        synth.SynthProfile(files=1, events_per_file=3 * casas._BLOCK_CHARS // 30),
        seed=5)

    def cuts(blob):   # the lines before each of parse_file's first two block cuts
        return [blob[:k * casas._BLOCK_CHARS].count(b"\n") for k in (1, 2)]

    blob = path.read_bytes()
    lines = blob.decode("ascii").splitlines()
    assert len(blob) > 2 * casas._BLOCK_CHARS   # so a third block follows both cuts
    cases = {"whole": (lines, 0, None)}
    for k, cut in enumerate(cuts(blob)):
        swapped = lines[:cut - 1] + [lines[cut], lines[cut - 1]] + lines[cut + 1:]
        cases |= {
            # the first line of the next block is earlier than the block before
            f"swap-{k}": (swapped, k, f":{cut + 1}: events out of order"),
            f"bad-tag-{k}": (lines[:cut + 5] + [BAD] + lines[cut + 5:], k,
                             f":{cut + 6}: unknown sensor tag"),
            f"byte-{k}": (lines[:cut + 9] + [lines[cut + 9] + "\udce9"]
                          + lines[cut + 10:], k, f":{cut + 10}: undecodable byte 0xe9"),
        }
    for name, (log, k, expected) in cases.items():
        mutated = tmp_path / f"{name}.txt"
        mutated.write_bytes(_log(*log))
        assert cuts(mutated.read_bytes())[k] == cuts(blob)[k], name
        outcome = _agreed_outcome(mutated)
        if expected is None:
            assert len(outcome[0]) == len(lines)
        else:
            assert outcome.startswith(f"{mutated}{expected}"), (name, outcome)


@pytest.mark.parametrize("wide, expected", [
    (("V" * (4 << 20), "1"), 2000),
    (("ON", "0" * ((4 << 20) - 1) + "1"), ":1001: labels must be integers"),
], ids=["4-MiB-value", "4-Mi-digit-label"])
def test_parse_file_memory_stays_near_the_file_size(tmp_path, wide, expected):
    """A line with one 4 MiB field among 2000: parse_file's tracemalloc
    peak stays below 10x the file's size, so no array is sized rows x
    the widest field."""
    value, resident = wide
    lines = [f"2009-02-02 08:{i // 60:02d}:{i % 60:02d} M01 ON 1 1" for i in range(2000)]
    lines[1000] = f"2009-02-02 08:16:40 M01 {value} {resident} 1"
    path = tmp_path / "log.txt"
    path.write_bytes(_log(*lines))
    peaks = []

    def traced_parse(path):
        tracemalloc.start()
        try:
            return parse_file(path)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    outcome = _outcome(traced_parse, path)
    if isinstance(expected, int):
        assert len(outcome[0]) == expected
    else:
        assert outcome.startswith(f"{path}{expected}")
    assert peaks[0] < 10 * path.stat().st_size


def test_clock_digits_match_the_scalar_rounding_for_every_short_fraction():
    """Every fraction of 1 to 6 digits, 1,111,110 in all, packed as
    "00:00:00.f": the digit arithmetic gives f's exact microseconds, which
    equal min(int(round(float("0." + f) * 1e6)), 999999), the rounding of
    the float reading."""
    width = np.repeat(np.arange(1, 7), 10 ** np.arange(1, 7))
    value = np.concatenate([np.arange(10 ** w) for w in range(1, 7)])
    chars = np.zeros((len(value), 15), dtype=np.uint8)
    chars[:, :9] = np.frombuffer(b"00:00:00.", dtype=np.uint8)
    for j in range(6):   # digit j of the fraction, where the fraction has one
        has = width > j
        chars[has, 9 + j] = ord("0") + value[has] // 10 ** (width[has] - 1 - j) % 10
    got = _packed_clock_micros(chars, 9 + width)
    # float("0." + f) is the correctly rounded f / 10**w, as this division is
    want = np.minimum(np.rint(value / 10 ** width * 1e6), 999999).astype(np.int64)
    np.testing.assert_array_equal(got, want)
    for i in range(0, len(value), 997):
        f = f"{value[i]:0{width[i]}d}"
        assert want[i] == min(int(round(float("0." + f) * 1e6)), 999999), f
