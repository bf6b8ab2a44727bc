import io
import json
import random
import re
import tempfile
from operator import attrgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pkgverse import eventlog
from pkgverse.errors import CorruptLog, SchemaError
from pkgverse.eventlog import (
    CONTRIBUTION_TYPES,
    EventLog,
    alias_event,
    contribution_event,
    replay,
    unit_event,
    update_event,
    use_event,
    validate_payload,
)
from pkgverse.fixtures import sample_universe, sample_universe_events, sample_universe_extended
from pkgverse.ingest import registry_dump_records

from oracles import reference_validate_payload


def write_log(path, events):
    path.touch()
    with EventLog(path) as log:
        for e in events:
            log.append(e)
    return log


class TestAppend:
    def test_first_seq_is_one(self, tmp_path):
        with EventLog(tmp_path / "log.ndjson") as log:
            assert log.append(unit_event("a", "1", 10)) == 1
            assert log.append(unit_event("a", "2", 20)) == 2

    def test_seq_continues_across_reopen(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(path, [unit_event("a", "1", 10)])
        log = EventLog(path)
        assert log.append(unit_event("a", "2", 20)) == 2
        log.close()

    def test_torn_tail_is_dropped_before_the_next_append(self, tmp_path):
        # an append interrupted mid-record leaves bytes without the
        # committing newline; the next append must not be glued onto them
        path = tmp_path / "log.ndjson"
        write_log(path, [unit_event("a", "1", 10), unit_event("a", "2", 20)])
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"v":1,"seq":3,"kind":"un')
        with EventLog(path) as log:
            assert log.append(unit_event("a", "3", 30)) == 3
            assert log.append(unit_event("a", "4", 40)) == 4
        result = replay(path)
        assert result.quarantine == []
        assert [(u.release, u.time) for u in result.graph.units] == [
            ("1", 10), ("2", 20), ("3", 30), ("4", 40)
        ]
        assert [json.loads(line)["seq"] for line in path.read_text().splitlines()] == [1, 2, 3, 4]

    def test_malformed_payload_rejected(self, tmp_path):
        log = EventLog(tmp_path / "log.ndjson")
        with pytest.raises(SchemaError):
            log.append(unit_event("a", "", 10))
        with pytest.raises(SchemaError):
            log.append(contribution_event("c1", "dev", "pkg", "vote", 5))
        assert not (tmp_path / "log.ndjson").exists()

    @pytest.mark.parametrize("record", [
        unit_event("a", "1", True),
        unit_event("a", "2", 2.9),
        contribution_event("c", "d", "a", "pr", 3, "no"),
    ])
    def test_constructors_leave_type_checks_to_the_encoder(self, tmp_path, record):
        with EventLog(tmp_path / "log.ndjson") as log:
            with pytest.raises(SchemaError):
                log.append(record)
        path = tmp_path / "log.ndjson"
        assert not path.exists() or path.read_bytes() == b""

    def test_wire_format_is_exact(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(
            path,
            [
                unit_event("a", "1.0.0", 100),
                use_event(("a", "1.0.0"), ("b", "2.0.0")),
                contribution_event("c1", "alice", "a", "pr", 120, merged=True),
                alias_event("alice", "a.jones"),
            ],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == '{"v":1,"seq":1,"kind":"unit","name":"a","release":"1.0.0","time":100}'
        assert lines[1] == '{"v":1,"seq":2,"kind":"use","from":["a","1.0.0"],"to":["b","2.0.0"]}'
        assert lines[2] == (
            '{"v":1,"seq":3,"kind":"contribution","id":"c1","dev":"alice",'
            '"target":["a"],"ctype":"pr","time":120,"merged":true}'
        )
        assert lines[3] == '{"v":1,"seq":4,"kind":"developer-alias","canonical":"alice","alias":"a.jones"}'

    def test_append_only_file_growth(self, tmp_path):
        path = tmp_path / "log.ndjson"
        sizes = []
        with EventLog(path) as log:
            for i in range(20):
                log.append(unit_event("p", str(i), i))
                sizes.append(path.stat().st_size)
        assert sizes == sorted(sizes)
        head = path.read_bytes()[: sizes[0]]
        assert head == json.dumps(
            {"v": 1, "seq": 1, "kind": "unit", "name": "p", "release": "0", "time": 0},
            separators=(",", ":"),
        ).encode() + b"\n"


    def test_appends_encode_no_payload(self, tmp_path):
        records = [unit_event("a", "1", 1), unit_event("b", "1", 2), use_event(("a", "1"), ("b", "1")),
                   update_event(("a", "1"), ("a", "2")), contribution_event("c1", "ann", "a", "pr", 3),
                   alias_event("ann", "a.n")]
        with mock.patch.object(eventlog, "_body", wraps=eventlog._body) as body, \
                mock.patch.object(eventlog, "_payload", wraps=eventlog._payload) as payload:
            with EventLog(tmp_path / "log.ndjson") as log:
                assert log.append(records[0]) == 1
                assert log.append_records(records[1:]) == len(records) - 1
        assert (body.call_count, payload.call_count) == (0, 0)


class TestValidatePayload:
    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            validate_payload("rename", {})

    def test_extra_fields_dropped(self):
        payload = validate_payload("unit", {"name": "a", "release": "1", "time": 1, "junk": 9})
        assert payload == {"name": "a", "release": "1", "time": 1}

    def test_bool_is_not_a_time(self):
        with pytest.raises(SchemaError):
            validate_payload("unit", {"name": "a", "release": "1", "time": True})


class TestReplay:
    def test_empty_log(self, tmp_path):
        path = tmp_path / "log.ndjson"
        path.write_text("")
        result = replay(path)
        assert result.graph.unit_count() == 0
        assert result.quarantine == []

    def test_replays_sample_universe(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(path, sample_universe_events())
        result = replay(path)
        expected, _ = sample_universe()
        assert result.graph == expected
        assert result.quarantine == []

    def test_growth_events_extend_base_log(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(path, sample_universe_events())
        with EventLog(path) as log:
            log.append(unit_event("a", "3", 6))
            log.append(use_event(("a", "3"), ("x", "2")))
            log.append(update_event(("a", "2"), ("a", "3")))
        result = replay(path)
        expected, _ = sample_universe_extended()
        assert result.graph == expected

    def test_axiom_violation_quarantined_rest_applied(self, tmp_path):
        path = tmp_path / "log.ndjson"
        events = sample_universe_events() + [update_event(("q", "3"), ("x", "2"))]
        write_log(path, events)
        result = replay(path)
        expected, _ = sample_universe()
        assert result.graph == expected
        assert len(result.quarantine) == 1
        assert result.quarantine[0].reason == "NameAxiomViolation"

    def test_unknown_reference_quarantined(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(path, [unit_event("a", "1", 1), use_event(("a", "1"), ("ghost", "9"))])
        result = replay(path)
        assert [q.reason for q in result.quarantine] == ["UnknownUnit"]
        assert result.graph.unit_count() == 1

    def test_contributions_and_aliases_surface(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(
            path,
            [
                contribution_event("c1", "alice", "a", "issue", 50),
                alias_event("alice", "al"),
            ],
        )
        result = replay(path)
        assert result.contributions[0]["id"] == "c1"
        assert result.aliases == [("alice", "al")]

    def test_garbled_line_is_corrupt_log(self, tmp_path):
        path = tmp_path / "log.ndjson"
        path.write_text('{"v":1,"seq":1,"kind":"unit","name":"a","release":"1","time":1}\n{oops\n')
        with pytest.raises(CorruptLog):
            replay(path)

    def test_schema_violations_quarantined(self, tmp_path):
        path = tmp_path / "log.ndjson"
        path.write_text('{"v":1,"seq":1,"kind":"unit","name":"a","time":1}\n')
        result = replay(path)
        assert result.graph.unit_count() == 0
        assert result.quarantine[0].reason == "SchemaError"

    def test_quarantined_record_with_bool_seq_reports_no_seq(self, tmp_path):
        path = tmp_path / "log.ndjson"
        path.write_text('{"v":1,"seq":true,"kind":"unit","name":"a","time":1}\n')
        result = replay(path)
        assert [(q.reason, q.seq) for q in result.quarantine] == [("SchemaError", None)]

    def test_strict_mode_quarantines_time_anomalies(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(
            path,
            [
                unit_event("old", "1", 1),
                unit_event("new", "1", 9),
                use_event(("old", "1"), ("new", "1")),
            ],
        )
        relaxed = replay(path)
        assert relaxed.quarantine == [] and len(relaxed.graph.anomalies) == 1
        strict = replay(path, strict=True)
        assert [q.reason for q in strict.quarantine] == ["TimeAnomaly"]


def random_events(rng, n):
    events = []
    units = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.45 or len(units) < 2:
            name = f"p{rng.randrange(8)}"
            release = f"{rng.randrange(40)}"
            events.append(unit_event(name, release, i))
            units.append((name, release))
        elif roll < 0.8:
            events.append(use_event(rng.choice(units), rng.choice(units)))
        elif roll < 0.92:
            events.append(update_event(rng.choice(units), rng.choice(units)))
        else:
            events.append(
                contribution_event(f"c{i}", f"dev{rng.randrange(5)}", "p0", "issue", i)
            )
    return events


class TestReplayProperties:
    def test_replay_determinism(self, tmp_path):
        rng = random.Random(7)
        for round_no in range(25):
            path = tmp_path / f"log{round_no}.ndjson"
            write_log(path, random_events(rng, rng.randint(1, 120)))
            first = replay(path)
            second = replay(path)
            assert first.graph == second.graph
            assert first.quarantine == second.quarantine

    def test_split_replay_equivalence(self, tmp_path):
        rng = random.Random(11)
        for round_no in range(25):
            events = random_events(rng, rng.randint(2, 120))
            cut = rng.randrange(len(events) + 1)
            p1 = tmp_path / f"a{round_no}.ndjson"
            p2 = tmp_path / f"b{round_no}.ndjson"
            p12 = tmp_path / f"ab{round_no}.ndjson"
            write_log(p1, events[:cut])
            write_log(p2, events[cut:])
            # byte-level concatenation of the two logs
            p12.write_bytes(p1.read_bytes() + p2.read_bytes())
            combined = replay(p12)
            split = replay(p1)
            split = replay(p2, into=split)
            assert combined.graph == split.graph
            assert [q.reason for q in combined.quarantine] == [
                q.reason for q in split.quarantine
            ]


def test_reader_between_appends_sees_a_prefix(tmp_path):
    path = tmp_path / "log.ndjson"
    events = sample_universe_events()
    with EventLog(path) as log:
        for i, event in enumerate(events):
            log.append(event)
            if i == 3:
                partial = replay(path)
                assert partial.graph.unit_count() == 4
    full = replay(path)
    assert full.graph.unit_count() == 7
    expected, _ = sample_universe()
    assert full.graph == expected


class TestReplayUntil:
    """The state at a time is the timed snapshot of the replayed graph."""

    def test_zero_is_empty(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(path, sample_universe_events())
        assert len(replay(path).graph.timed_snapshot(0).units) == 0

    def test_infinity_is_full_graph(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(path, sample_universe_events())
        snap = replay(path).graph.timed_snapshot(10**12)
        expected, _ = sample_universe()
        assert snap.units == set(expected.units)
        assert (snap.use_edges, snap.update_edges) == (expected.use_edges, expected.update_edges)


class TestTail:
    def test_unterminated_whole_record_is_committed(self, tmp_path):
        path = tmp_path / "log.ndjson"
        first = '{"v":1,"seq":1,"kind":"unit","name":"a","release":"1","time":1}'
        path.write_text(first)
        assert [u.release for u in replay(path).graph.units] == ["1"]
        with EventLog(path) as log:
            assert log.append(unit_event("a", "2", 2)) == 2
        lines = path.read_text().split("\n")
        assert lines[0] == first and json.loads(lines[1])["seq"] == 2 and lines[2] == ""
        result = replay(path)
        assert result.quarantine == []
        assert [u.release for u in result.graph.units] == ["1", "2"]

    def test_torn_fragment_is_reported_on_replay(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(path, [unit_event("a", "1", 10), unit_event("a", "2", 20)])
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"v":1,"seq":3,"kind":"un')
        result = replay(path)
        assert [(q.line_no, q.seq, q.reason) for q in result.quarantine] == [(3, None, "TornTail")]
        assert [u.release for u in result.graph.units] == ["1", "2"]
        with EventLog(path) as log:
            assert log.append(unit_event("a", "3", 30)) == 3
        result = replay(path)
        assert result.quarantine == []
        assert [u.release for u in result.graph.units] == ["1", "2", "3"]

    def test_invalid_utf8_line_is_corrupt_log(self, tmp_path):
        path = tmp_path / "log.ndjson"
        path.write_bytes(b'{"v":1,"seq":1,"kind":"unit","name":"\xff","release":"1","time":1}\n')
        with pytest.raises(CorruptLog):
            replay(path)

    def test_tail_scan_equals_full_scan_maximum(self, tmp_path, monkeypatch):
        def full_scan(data: bytes) -> int:
            last = 0
            for line in data.split(b"\n"):
                try:
                    record = json.loads(line.decode("utf-8"))
                except ValueError:
                    continue
                seq = record.get("seq") if isinstance(record, dict) else None
                if type(seq) is int:
                    last = max(last, seq)
            return last

        damage = [b"{oops", b"[1, 2]", b"", b'{"seq": "7"}', b'{"seq": true}', b"\xff\xfe", b'{"v":1}']
        rng = random.Random(5)
        block = eventlog._TAIL_BLOCK
        longest = 0
        for round_no in range(60):
            # small blocks put block boundaries inside the lines the scan reads
            monkeypatch.setattr(eventlog, "_TAIL_BLOCK", rng.choice([1, 5, 64, block]))
            path = tmp_path / f"log{round_no}.ndjson"
            write_log(path, random_events(rng, rng.randint(0, 400)))
            lines = path.read_bytes().split(b"\n")[:-1]
            cut = rng.randint(0, len(lines))  # damage reaches back from the end
            for i in range(cut, len(lines)):
                if rng.random() < 0.7:
                    lines[i] = rng.choice(damage)
            if lines and rng.random() < 0.3:
                lines[rng.randrange(len(lines))] = rng.choice(damage)  # and somewhere before
            data = b"".join(line + b"\n" for line in lines)
            torn = rng.choice([b"", b'{"v":1,"seq":99', b"[", b"\xff"])
            path.write_bytes(data + torn)
            longest = max(longest, len(data))
            log = EventLog(path)
            assert log._scan_last_seq() == full_scan(data)
            assert path.read_bytes() == data  # the torn fragment is gone
        assert longest > 2 * block


_text = st.text(
    st.one_of(
        st.characters(exclude_categories=()),  # surrogates included
        st.sampled_from('"\\\x00\x1f\x7f\n 𐏿é😀'),
    ),
    min_size=1,
    max_size=12,
)
_int = st.integers(min_value=-(2**80), max_value=2**80)
_ref = st.tuples(_text, _text)
_events = st.one_of(
    st.builds(unit_event, _text, _text, _int),
    st.builds(use_event, _ref, _ref),
    st.builds(update_event, _ref, _ref),
    st.builds(contribution_event, _text, _text, _text, st.sampled_from(CONTRIBUTION_TYPES), _int, st.booleans()),
    st.builds(alias_event, _text, _text),
)


class TestQuarantineRecord:
    def test_ingest_and_replay_quarantine_the_same_record(self, tmp_path):
        dump = io.StringIO("name,version,released_at\napp,1.0.0,not-a-time\n")
        [dropped] = registry_dump_records(dump, source="dump.csv")
        path = tmp_path / "log.ndjson"
        write_log(path, [unit_event("a", "1", 10), use_event(("a", "1"), ("b", "1"))])
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"v":1,"seq":3,"kind":"un')
        unknown, torn = replay(path).quarantine
        assert type(dropped) is type(unknown) is type(torn) is eventlog.Quarantined
        assert (dropped.source, dropped.line_no, dropped.reason) == ("dump.csv", 2, "InvalidTimestamp")
        assert (unknown.source, unknown.line_no, unknown.seq, unknown.reason) == (str(path), 2, 2, "UnknownUnit")
        assert unknown.detail == "unresolvable reference b@1"
        assert (torn.source, torn.line_no, torn.seq, torn.reason, torn.record) == (str(path), 3, None, "TornTail", {})
        assert torn.detail.startswith(f"{path}:3: ")


class TestEncoding:
    @settings(deadline=None, max_examples=200)
    @given(events=st.lists(_events, min_size=1, max_size=8))
    def test_lines_equal_json_dumps(self, events):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.ndjson"
            with EventLog(path) as log:
                assert log.append_records(events) == len(events)
            expected = "".join(
                json.dumps(
                    {"v": 1, "seq": n, "kind": kind, **validate_payload(kind, eventlog._payload(kind, leaves))},
                    separators=(",", ":"),
                )
                + "\n"
                for n, (kind, leaves) in enumerate(events, start=1)
            )
            assert path.read_bytes() == expected.encode("utf-8")

    def test_lines_before_an_invalid_event_are_written(self, tmp_path):
        path = tmp_path / "log.ndjson"
        with EventLog(path) as log:
            with pytest.raises(SchemaError):
                log.append_records([unit_event("a", "1", 1), unit_event("a", "2", 2), unit_event("a", "", 3)])
            assert len(path.read_text().splitlines()) == 2
            assert log.append(unit_event("a", "3", 3)) == 3
        assert [json.loads(line)["seq"] for line in path.read_text().splitlines()] == [1, 2, 3]


# Payloads around the wire schema: every kind, unknown kinds and non-object
# payloads; fields missing, extra, empty or of the wrong type (bools where
# ints belong, tuples for lists, refs of the wrong length); text with
# non-ASCII characters, quotes and backslashes.
_FIELD_SHAPES = {
    "unit": (("name", "text"), ("release", "text"), ("time", "int")),
    "use": (("from", "ref"), ("to", "ref")),
    "update": (("from", "ref"), ("to", "ref")),
    "contribution": (("id", "text"), ("dev", "text"), ("target", "name"), ("ctype", "ctype"),
                     ("time", "int"), ("merged", "bool")),
    "developer-alias": (("canonical", "text"), ("alias", "text")),
}
_some_text = st.one_of(
    st.text(min_size=1, max_size=6), st.sampled_from(['"', "\\", "é", "😀", 'a"b\\c', "\x00"])
)
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _texts_of(n, near_miss):
    """Lists and tuples of ``n`` non-empty strings, or near misses: the
    wrong length, or the right one holding an empty string."""
    if near_miss:
        wrong_length = st.lists(_some_text, max_size=n + 2).filter(lambda v: len(v) != n)
        some_empty = st.lists(st.one_of(_some_text, st.just("")), min_size=n, max_size=n)
        with_empty = some_empty.filter(lambda v: "" in v)
        listed = st.one_of(wrong_length, with_empty)
    else:
        listed = st.lists(_some_text, min_size=n, max_size=n)
    return st.one_of(listed, listed.map(tuple))


# per shape: values that fit, and near misses that do not
_VALUES = {
    "text": (_some_text, st.just("")),
    "int": (st.integers(-(2**70), 2**70), st.booleans()),
    "bool": (st.booleans(), st.integers(0, 1)),
    "ref": (_texts_of(2, False), _texts_of(2, True)),
    "name": (_texts_of(1, False), _texts_of(1, True)),
    "ctype": (st.sampled_from(CONTRIBUTION_TYPES), st.sampled_from(["vote", "PR", ""])),
}


@st.composite
def _wire_payloads(draw, kind):
    """Payloads for ``kind`` (any unknown one for None) with at most one
    defect each."""
    if kind is None:
        kind = draw(st.sampled_from(["rename", "", None, ["unit"]]))
    if draw(st.integers(0, 19)) == 0:
        return kind, draw(st.one_of(_junk, st.lists(st.tuples(st.text(max_size=4), st.integers()))))
    rows = _FIELD_SHAPES.get(kind) if isinstance(kind, str) else None
    rows = rows or draw(st.sampled_from(list(_FIELD_SHAPES.values())))
    defect_at = draw(st.integers(-1, len(rows) - 1))  # -1: none
    defect = draw(st.sampled_from(["missing", "junk", "near miss"]))
    payload = {}
    for i, (key, shape) in enumerate(rows):
        fits, near_miss = _VALUES[shape]
        if i != defect_at:
            payload[key] = draw(fits)
        elif defect != "missing":
            payload[key] = draw(_junk if defect == "junk" else near_miss)
    extra = st.dictionaries(st.sampled_from(["v", "seq", "kind", "title", "junk"]), _junk, max_size=2)
    return kind, {**payload, **draw(extra)}


class TestSchemaTable:
    @pytest.mark.parametrize("kind", [*_FIELD_SHAPES, None])
    @settings(deadline=None, max_examples=250)
    @given(data=st.data())
    def test_validate_payload_matches_the_hand_written_reference(self, kind, data):
        kind, payload = data.draw(_wire_payloads(kind))
        try:
            expected = reference_validate_payload(kind, payload)
        except SchemaError:
            with pytest.raises(SchemaError):
                validate_payload(kind, payload)
            with pytest.raises(SchemaError):
                eventlog._line(1, kind, payload)
            return
        got = validate_payload(kind, payload)
        assert list(got.items()) == list(expected.items())
        assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]
        record = {"v": 1, "seq": 7, "kind": kind, **expected}
        assert eventlog._line(7, kind, payload) == json.dumps(record, separators=(",", ":")) + "\n"

    def test_constructor_payload_keys_follow_the_table(self):
        records = [
            unit_event("a", "1", 10),
            use_event(("a", "1"), ("b", "2")),
            update_event(("a", "1"), ("a", "2")),
            contribution_event("c1", "alice", "a", "pr", 10, True),
            alias_event("alice", "a.jones"),
        ]
        assert [kind for kind, _ in records] == list(eventlog.SCHEMA)
        payloads = [eventlog._payload(kind, leaves) for kind, leaves in records]
        assert payloads == [
            {"name": "a", "release": "1", "time": 10},
            {"from": ["a", "1"], "to": ["b", "2"]},
            {"from": ["a", "1"], "to": ["a", "2"]},
            {"id": "c1", "dev": "alice", "target": ["a"], "ctype": "pr", "time": 10, "merged": True},
            {"canonical": "alice", "alias": "a.jones"},
        ]
        for (kind, _), payload in zip(records, payloads):
            assert tuple(payload) == eventlog._FIELDS[kind]
            assert validate_payload(kind, payload) == payload


# Replay reads canonical lines with one regex and every other line as JSON;
# both must give the same graph, payloads and quarantine. Each spelling
# below writes one record's line: canonical lines without escapes take the
# regex, and the other spellings take the JSON path (unless, like raw
# non-ASCII of ASCII text, they come out canonical).
_compact = dict(separators=(",", ":"))
_SPELLINGS = {
    "canonical": lambda r: eventlog._line(r["seq"], r["kind"], r),
    "sorted keys": lambda r: json.dumps(r, sort_keys=True, **_compact) + "\n",
    "whitespace": lambda r: json.dumps(r) + "\n",
    "raw non-ASCII": lambda r: json.dumps(r, ensure_ascii=False, **_compact) + "\n",
    "extra field": lambda r: json.dumps({**r, "title": "t"}, **_compact) + "\n",
    "CRLF": lambda r: eventlog._line(r["seq"], r["kind"], r)[:-1] + "\r\n",
    "seq -0": lambda r: eventlog._line(r["seq"], r["kind"], r).replace('"seq":%d,' % r["seq"], '"seq":-0,'),
    "bools for ints": lambda r: json.dumps({**r, "seq": True, "time": True}, **_compact) + "\n",
    "wrong type": lambda r: json.dumps({**r, list(r)[3]: 1.5}, **_compact) + "\n",
    "v 2": lambda r: json.dumps({**r, "v": 2}, **_compact) + "\n",
}
_pool_name = st.sampled_from(["a", "b", "é", 'q"', "s\\", "\x01", "😀"])
_pool_release = st.sampled_from(["1", "2"])
_pool_time = st.one_of(st.integers(-2, 5), st.just(-(10**120)))  # the latter too long for the regex
_pool_ref = st.tuples(_pool_name, _pool_release)
_pool_events = st.one_of(
    st.builds(unit_event, _pool_name, _pool_release, _pool_time),
    st.builds(use_event, _pool_ref, _pool_ref),
    st.builds(update_event, _pool_ref, _pool_ref),
    st.builds(contribution_event, _pool_name, _pool_name, _pool_name, st.sampled_from(CONTRIBUTION_TYPES),
              _pool_time, st.booleans()),
    st.builds(alias_event, _pool_name, _pool_name),
)


@st.composite
def _random_logs(draw):
    """The bytes of a log: events in any spelling, with at times a damaged
    line in the middle, a torn tail or a final line without its newline."""
    events = draw(st.lists(st.tuples(_pool_events, st.sampled_from(list(_SPELLINGS))), max_size=25))
    lines = [
        _SPELLINGS[spelling]({"v": 1, "seq": seq, "kind": kind, **eventlog._payload(kind, leaves)}).encode()
        for seq, ((kind, leaves), spelling) in enumerate(events, start=1)
    ]
    damage = draw(st.sampled_from(["none"] * 4 + ["torn tail", "no final newline", "corrupt line"]))
    if damage == "corrupt line":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([b"[1]\n", b"\n", b"\xff\n"])))
    elif damage == "torn tail":
        lines.append(b'{"v":1,"seq":99')
    elif damage == "no final newline" and lines:
        lines[-1] = lines[-1].rstrip(b"\r\n")
    return b"".join(lines)


def _replayed(path) -> str:
    """Everything a replay gives, or the CorruptLog it raises, as text that
    tells ints from bools and shows the key order of every record."""
    try:
        result = replay(path)
    except CorruptLog as exc:
        return f"CorruptLog: {exc}"
    g = result.graph
    ends = attrgetter("src", "dst")
    quarantine = [(q.line_no, q.seq, q.reason, q.detail, list(q.record.items())) for q in result.quarantine]
    return repr((
        g.units, sorted(g.use_edges, key=ends), sorted(g.update_edges, key=ends), g.anomalies,
        [list(c.items()) for c in result.contributions], result.aliases, quarantine,
    ))


def _replayed_as_json(path) -> str:
    with mock.patch.object(eventlog, "_CANONICAL", re.compile("(?!)")):
        return _replayed(path)


class TestReplayFastPath:
    @settings(deadline=None, max_examples=300)
    @given(data=_random_logs())
    def test_regex_and_json_paths_agree(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "log.ndjson"
            path.write_bytes(data)
            assert _replayed(path) == _replayed_as_json(path)

    def test_canonical_lines_are_not_read_as_json(self, tmp_path):
        path = tmp_path / "log.ndjson"
        events = [*sample_universe_events(extended=True), contribution_event("c1", "ann", "x", "pr", 3, True),
                  alias_event("ann", "a.n"), unit_event("x", "1", 9)]  # the last one is a duplicate
        write_log(path, events)
        with mock.patch.object(eventlog, "_decode", side_effect=AssertionError("read as JSON")):
            fast = _replayed(path)
        assert fast == _replayed_as_json(path)
        assert "DuplicateUnit" in fast and "'merged', True" in fast

    def test_canonical_regex_takes_only_what_json_reads_the_same(self):
        line = eventlog._line(3, "unit", {"name": "a", "release": "1", "time": 5})
        assert eventlog._CANONICAL.fullmatch(line)
        for other in (line.replace('"a"', '"\\u0061"'), line.replace(":5", ":05"), line.replace(":5", ":-0"),
                      line.replace('"a"', '"\xe9"'), line.replace('"v":1', '"v":2'), line + "\n", " " + line):
            assert eventlog._CANONICAL.fullmatch(other) is None, other


class TestReplayFallback:
    def test_each_fallback_line_is_decoded_once(self, tmp_path, monkeypatch):
        path = tmp_path / "log.ndjson"
        events = [unit_event("é", "1", 1), unit_event("ü", "1", 2), use_event(("é", "1"), ("ü", "1")),
                  use_event(("é", "1"), ("ö", "1"))]  # the last one is quarantined
        write_log(path, events)
        expected = _replayed(path)
        calls = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
        assert _replayed(path) == expected
        assert len(calls) == len(events)


class TestTooDeepLines:
    DEEP = b"[" * 200_000 + b"]" * 200_000

    def test_a_deep_committed_line_is_corrupt_and_appends_walk_past_it(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(path, [unit_event("a", "1", 10)])
        with path.open("ab") as fh:
            fh.write(self.DEEP + b"\n")
        with pytest.raises(CorruptLog, match=":2: maximum recursion depth exceeded"):
            replay(path)
        with EventLog(path) as log:
            assert log.append(unit_event("b", "1", 20)) == 2

    def test_a_deep_final_fragment_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "log.ndjson"
        write_log(path, [unit_event("a", "1", 10)])
        with path.open("ab") as fh:
            fh.write(self.DEEP)
        [q] = replay(path).quarantine
        assert (q.line_no, q.reason) == (2, "TornTail")
        with EventLog(path) as log:
            assert log.append(unit_event("b", "1", 20)) == 2
        assert [r["name"] for r in map(json.loads, path.read_text().splitlines())] == ["a", "b"]
