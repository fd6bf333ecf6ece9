import datetime as dt
import re

import pytest

from treehar.casas import (
    DEFAULT_VOCAB,
    SKIP,
    DatasetSplit,
    ParseError,
    SensorEvent,
    SensorVocabulary,
    filter_on,
    parse_file,
    parse_line,
    serialize_event,
    split_files,
    write_events_csv,
)

GOOD_LINE = "2009-02-02 12:18:45.51 M13 ON 2 5"


def test_vocabulary_is_the_37_tag_catalog():
    assert len(DEFAULT_VOCAB) == 37
    assert DEFAULT_VOCAB.index("M01") == 0
    assert DEFAULT_VOCAB.index("M26") == 25
    assert DEFAULT_VOCAB.index("M51") == 26
    assert DEFAULT_VOCAB.index("I04") == 27
    assert DEFAULT_VOCAB.index("I06") == 28
    assert DEFAULT_VOCAB.index("D07") == 29
    assert DEFAULT_VOCAB.index("D09") == 30
    assert DEFAULT_VOCAB.index("D15") == 36
    assert len(set(DEFAULT_VOCAB.entries)) == 37


def test_vocabulary_rejects_duplicates():
    with pytest.raises(ValueError):
        SensorVocabulary(["M01", "M01"])


def test_parse_line_field_mapping():
    event = parse_line(GOOD_LINE)
    assert event.sensor == 12           # M13
    assert event.value == "ON"
    assert event.resident_id == 1       # 1-based 2
    assert event.activity_id == 4       # 1-based 5
    assert event.date == dt.date(2009, 2, 2)
    assert event.time == dt.time(12, 18, 45, 510000)


def test_parse_line_blank_is_skip():
    assert parse_line("") is SKIP
    assert parse_line("   \t  ") is SKIP


def test_parse_line_unlabeled_is_skip():
    assert parse_line("2009-02-02 12:18:45.51 M13 ON") is SKIP


def test_parse_line_unknown_tag_rejected():
    with pytest.raises(ParseError, match="M99"):
        parse_line("2009-02-02 12:18:45.51 M99 ON 1 1")


def test_parse_line_field_count_rejected():
    with pytest.raises(ParseError, match="fields"):
        parse_line("2009-02-02 12:18:45.51 M13 ON 2 5 9")
    with pytest.raises(ParseError, match="fields"):
        parse_line("2009-02-02 12:18:45.51 M13 ON 2")


def test_parse_line_bad_timestamp_rejected():
    with pytest.raises(ParseError, match="timestamp"):
        parse_line("2009-13-40 12:18:45.51 M13 ON 2 5")
    with pytest.raises(ParseError, match="timestamp"):
        parse_line("2009-02-02 25:00:00 M13 ON 2 5")
    with pytest.raises(ParseError, match="timestamp"):
        parse_line("2009-02-02 12:18:45.x1 M13 ON 2 5")


def test_parse_line_out_of_range_labels_rejected():
    with pytest.raises(ParseError, match="resident"):
        parse_line("2009-02-02 12:18:45.51 M13 ON 3 5")
    with pytest.raises(ParseError, match="resident"):
        parse_line("2009-02-02 12:18:45.51 M13 ON 0 5")
    with pytest.raises(ParseError, match="activity"):
        parse_line("2009-02-02 12:18:45.51 M13 ON 2 16")


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError, match=r"log\.txt:7"):
        parse_line("2009-02-02 12:18:45.51 M99 ON 1 1",
                   source="log.txt", line_no=7)


def test_parse_serialize_round_trip():
    assert serialize_event(parse_line(GOOD_LINE)) == GOOD_LINE
    no_frac = "2009-02-02 12:18:45 D15 OFF 1 15"
    assert serialize_event(parse_line(no_frac)) == no_frac
    micros = "2008-11-10 14:28:17.986759 M22 ON 2 2"
    assert serialize_event(parse_line(micros)) == micros


def _event(value="ON", sensor=0, second=0):
    return SensorEvent(
        date=dt.date(2009, 2, 2), time=dt.time(8, 0, second),
        sensor=sensor, value=value, resident_id=0, activity_id=0,
    )


def test_filter_on_keeps_order_and_is_idempotent():
    events = [_event("ON", 1), _event("OFF", 2), _event("ON", 3)]
    kept = filter_on(events)
    assert [e.sensor for e in kept] == [1, 3]
    assert filter_on(kept) == kept
    assert filter_on([_event("OFF"), _event("OFF")]) == []


def test_filter_on_custom_value():
    events = [_event("OPEN", 1), _event("ON", 2)]
    assert [e.sensor for e in filter_on(events, "OPEN")] == [1]


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
    assert len(result.events) == 3
    assert result.skipped_blank == 1
    assert result.skipped_unlabeled == 1

    bad = tmp_path / "bad.txt"
    bad.write_text(
        "2009-02-02 08:00:10 M01 ON 1 1\n"
        "2009-02-02 08:00:05 M02 ON 1 1\n"
    )
    with pytest.raises(ParseError, match="order"):
        parse_file(bad)
    assert len(parse_file(bad, check_order=False).events) == 2


def test_parse_file_undecodable_byte_names_file_and_line(tmp_path):
    path = tmp_path / "session.txt"
    path.write_bytes(
        b"2009-02-02 08:00:00 M01 ON 1 1\n"
        b"2009-02-02 08:00:01 M02 ON caf\xe9 1\n"
    )
    with pytest.raises(ParseError, match=re.escape(f"{path}:2: ") + ".*0xe9"):
        parse_file(path)


def test_write_events_csv(tmp_path):
    events = [parse_line(GOOD_LINE)]
    out = tmp_path / "events.csv"
    write_events_csv(events, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "date,time,sensor,value,resident,activity"
    assert lines[1] == "2009-02-02,12:18:45.51,M13,ON,2,5"
