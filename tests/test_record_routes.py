"""The record routes against the payload encoder and the frozen references.

CLI ingest writes dump and contribution records through
``EventLog.append_records``. The same run with each record written as a
payload, through the encoder replay's fallback uses (``_body``), and with
each dump read by the frozen ``csv.DictReader`` walker in ``oracles``, must
give the same bytes, report, summary and exit code. The contribution view
(``parse_contributions``) must give the record view's quarantine and its
records as ``Contribution`` values, with each line's title, line by line.
Replay applies canonical lines straight into the graph; the frozen generic
loop in ``oracles`` must give the same graph, quarantine, contributions and
aliases.
"""

import contextlib
import csv
import io
import json
import tempfile
from operator import attrgetter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pkgverse import cli, eventlog
from pkgverse.contrib import Contribution
from pkgverse.errors import CorruptLog, SchemaError
from pkgverse.eventlog import (
    EventLog,
    alias_event,
    contribution_event,
    replay,
    unit_event,
    update_event,
    use_event,
)
from pkgverse.ingest import Quarantined, contribution_records, parse_contributions

from oracles import reference_parse_registry_dump, reference_replay

# --- ingest: records against payloads -------------------------------------------------

_TEXT = st.sampled_from(["", " ", "app", " lib ", "é", 'q"uote', "s\\lash", "\x01", "a,b", "a\nb", "😀", "name"])
_VERSION = st.sampled_from(["1.0.0", "2.0.0", "", " 1.0.0 ", "^1.0.0", ">=1 <2", "x\ny"])
_TIME = st.sampled_from(["100", "-5", "0", "never", "", "2015-03-17 22:05:49 UTC", "1e3", "1970-01-02", "9" * 5000])
_HEADERS = [
    ["platform", "name", "version", "released_at", "dep_name", "dep_requirement"],
    ["platform", "name", "version", "released_at", "dep_name"],
    ["name", "version", "released_at"],  # no dependency columns
    ["P", "N", "V", "T", "D", "R"],  # read with --columns P,N,V,T,D,R
    ["plat", "pkg", "version", "released_at", "dep_name", "dep_requirement"],  # --columns plat,pkg
    ["name", "version"],  # lacks a required column
]
_COLUMNS = {3: "P,N,V,T,D,R", 4: "plat,pkg"}
_PRIOR_LOGS = [
    b"",
    b'{"v":1,"seq":1,"kind":"unit","name":"a","release":"1","time":5}\n',
    b'{"v":1,"seq":4,"kind":"unit","name":"a","release":"1","time":5}\n{"v":1,"seq":5,"ki',  # torn tail
    b'{"v":1,"seq":2,"kind":"unit","name":"a","release":"1","time":5}',  # no final newline
]


@st.composite
def _dumps(draw):
    """A dump's bytes and its --columns: quoted fields, blank, short and
    long rows, runs of rows of one (name, version), at times a BOM."""
    at = draw(st.integers(0, len(_HEADERS) - 1))
    header = _HEADERS[at]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    key = ("npm", "app", "1.0.0", "100")
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.sampled_from(["row", "row", "same key", "blank", "short", "long"]))
        if shape == "blank":
            buf.write("\n")
            continue
        if shape != "same key":
            key = ("npm", draw(_TEXT), draw(_VERSION), draw(_TIME))
        full = [*key, draw(_TEXT), draw(_VERSION)]  # in the default column order
        row = full[1:4] if header == ["name", "version", "released_at"] else full[:len(header)]
        if shape == "short":
            row = row[:draw(st.integers(1, len(header)))]
        elif shape == "long":
            row += ["extra"]
        writer.writerow(row)
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + buf.getvalue().encode(), _COLUMNS.get(at)


_VALUE = st.one_of(_TEXT, st.integers(-3, 3), st.booleans(), st.none(), st.just([]), st.just(["app"]))


@st.composite
def _contributions(draw):
    """A contribution file's bytes: good, partial and junk records, blank
    lines, and lines that are not JSON objects."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["record", "record", "record", "blank", "not json", "array"]))
        if shape == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\r"])))
        elif shape == "not json":
            lines.append(draw(st.sampled_from(["{", "nope", "[" * 3000])))
        elif shape == "array":
            lines.append("[1, 2]")
        else:
            record = {
                "author": draw(st.one_of(_TEXT, _VALUE)),
                "target": draw(st.one_of(_TEXT, st.just(["lib"]), _VALUE)),
                "type": draw(st.sampled_from(["pr", "pull_request", "Issue", "discussion", "vote", 3])),
                "time": draw(st.one_of(_TIME, st.integers(-5, 5), st.floats(allow_nan=True))),
            }
            for key, values in (("merged", _VALUE), ("id", _VALUE), ("title", _VALUE), ("dev", _TEXT)):
                if draw(st.booleans()):
                    record[key] = draw(values)
            lines.append(json.dumps(record, ensure_ascii=draw(st.booleans())))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + "\n".join(lines).encode() + b"\n"


def _ingest(kind, inputs, log, columns):
    """What ``pkgverse ingest`` gives: the exit code, stderr with the log's
    directory left out, the log and the quarantine report."""
    argv = ["ingest", *map(str, inputs), "--kind", kind, "--log", str(log)]
    if columns:
        argv += ["--columns", columns]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    report = Path(str(log) + ".quarantine.ndjson")
    return (code, err.getvalue().replace(str(log.parent), "DIR"), log.read_bytes() if log.exists() else None,
            report.read_bytes() if report.exists() else None)


def _append_payloads(log, events):
    """Append ``(kind, payload)`` pairs through the payload encoder that
    replay's fallback uses; returns how many were written."""
    return log._append(eventlog._body(kind, payload)[0] for kind, payload in events)


@contextlib.contextmanager
def _patched():
    """The CLI run on payloads: each dump read by the frozen DictReader
    walker, and each record written as its payload."""
    def append_records(log, records):
        return _append_payloads(log, ((kind, eventlog._payload(kind, leaves)) for kind, leaves in records))

    with mock.patch.object(cli, "registry_dump_records", reference_parse_registry_dump), \
            mock.patch.object(EventLog, "append_records", append_records):
        yield


def _both_routes(kind, inputs, prior, columns=None):
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for route in ("records", "payloads"):
            log = Path(tmp) / route / "log.ndjson"
            log.parent.mkdir()
            log.write_bytes(prior)
            with _patched() if route == "payloads" else contextlib.nullcontext():
                results.append(_ingest(kind, inputs, log, columns))
        return results


class TestIngestRoutes:
    @settings(deadline=None, max_examples=150)
    @given(dumps=st.lists(_dumps(), min_size=1, max_size=2), prior=st.sampled_from(_PRIOR_LOGS))
    def test_dump_records_write_what_its_events_write(self, dumps, prior):
        with tempfile.TemporaryDirectory() as tmp:
            inputs = []
            for i, (data, _) in enumerate(dumps):
                inputs.append(Path(tmp) / f"dump{i}.csv")
                inputs[-1].write_bytes(data)
            records, payloads = _both_routes("dump", inputs, prior, dumps[0][1])
        assert records == payloads

    @settings(deadline=None, max_examples=150)
    @given(files=st.lists(_contributions(), min_size=1, max_size=2), prior=st.sampled_from(_PRIOR_LOGS))
    def test_contribution_records_write_what_their_events_write(self, files, prior):
        with tempfile.TemporaryDirectory() as tmp:
            inputs = []
            for i, data in enumerate(files):
                inputs.append(Path(tmp) / f"c{i}.ndjson")
                inputs[-1].write_bytes(data)
            records, payloads = _both_routes("contributions", inputs, prior)
        assert records == payloads

    def test_only_the_event_route_encodes_payloads(self, tmp_path):
        dump = tmp_path / "d.csv"
        dump.write_text("name,version,released_at\napp,1.0.0,5\n")
        argv = ["ingest", str(dump), "--kind", "dump", "--log", str(tmp_path / "log")]
        with mock.patch.object(eventlog, "_body", wraps=eventlog._body) as body:
            assert cli.main(argv) == 0
            assert body.call_count == 0
            with _patched():
                assert cli.main(argv) == 0
            assert body.call_count == 1


class TestContributionView:
    @settings(deadline=None, max_examples=150)
    @given(data=_contributions())
    def test_contributions_are_the_event_payloads_field_by_field(self, data):
        text = data.decode("utf-8-sig")
        records = list(contribution_records(io.StringIO(text), "c.ndjson"))
        lines = [line for line in io.StringIO(text) if line.strip()]
        assert len(records) == len(lines)  # one item per non-blank line

        def from_record(item, line):
            if isinstance(item, Quarantined):
                return item
            title = json.loads(line).get("title")
            return Contribution(*item[1], title if isinstance(title, str) else "")

        expected = [from_record(item, line) for item, line in zip(records, lines)]
        # repr: a quarantined record may hold a NaN, which equals no other NaN
        assert repr(list(parse_contributions(io.StringIO(text), "c.ndjson"))) == repr(expected)


# --- the record encoder against _line ----------------------------------------------------

_LEAF = st.one_of(_TEXT, st.integers(-2, 2), st.booleans(), st.none(), st.floats(), st.just(["a"]),
                  st.sampled_from(eventlog.CONTRIBUTION_TYPES), st.integers(10**30, 10**31))


@st.composite
def _records(draw):
    kind = draw(st.sampled_from([*eventlog.SCHEMA, "rename", None]))
    n = sum(shape.arity or 1 for _, shape in eventlog.SCHEMA.get(kind, ((None, eventlog._TEXT),)))
    fitting = {"unit": (_TEXT, _TEXT, st.integers()), "contribution": (
        _TEXT, _TEXT, _TEXT, st.sampled_from(eventlog.CONTRIBUTION_TYPES), st.integers(), st.booleans())}
    strategies = fitting.get(kind, (_TEXT,) * n)
    return kind, tuple(draw(st.one_of(s, _LEAF) if draw(st.booleans()) else s) for s in strategies)


def _outcome(write):
    try:
        return write()
    except SchemaError as exc:
        return f"SchemaError: {exc}"


class TestRecordEncoder:
    @settings(deadline=None, max_examples=400)
    @given(record=_records())
    def test_rejects_exactly_what_line_rejects(self, record):
        kind, leaves = record
        payload = eventlog._payload(kind, leaves) if kind in eventlog.SCHEMA else {}
        via_line = _outcome(lambda: eventlog._line(3, kind, payload))
        assert _outcome(lambda: f'{eventlog._HEAD}3,{next(eventlog._record_bodies([(kind, leaves)]))}') == via_line
        with tempfile.TemporaryDirectory() as tmp:
            paths = Path(tmp) / "records.ndjson", Path(tmp) / "payloads.ndjson"
            for path in paths:
                path.write_text('{"v":1,"seq":2,"kind":"unit","name":"a","release":"1","time":5}\n{"v":1,"se')
            with EventLog(paths[0]) as log:
                by_records = _outcome(lambda: log.append_records([(kind, leaves)]))
            with EventLog(paths[1]) as log:
                by_payloads = _outcome(lambda: _append_payloads(log, [(kind, payload)]))
            assert by_records == by_payloads
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_an_invalid_record_raises_after_the_records_before_it_are_written(self, tmp_path):
        path = tmp_path / "log.ndjson"
        with EventLog(path) as log:
            with pytest.raises(SchemaError, match=r"^field 'to' must be a \[name, release\] pair, got \['b', ''\]$"):
                log.append_records([("unit", ("a", "1", 5)), ("use", ("a", "1", "b", ""))])
        assert path.read_text() == '{"v":1,"seq":1,"kind":"unit","name":"a","release":"1","time":5}\n'

    @pytest.mark.parametrize("record, message", [
        (("use", ("a", "1", "b")), "a use record holds 4 leaf values, got ('a', '1', 'b')"),
        (("use", "abcd"), "a use record holds 4 leaf values, got 'abcd'"),
        (("unit", ("a", "1", 5, 6)), "a unit record holds 3 leaf values, got ('a', '1', 5, 6)"),
        (("unit", "a", "1"), "a record must be a (kind, leaf values) pair, got ('unit', 'a', '1')"),
        (("rename", ()), "unknown event kind 'rename'"),
    ], ids=["short", "str", "long", "not a pair", "unknown kind"])
    def test_a_malformed_record_is_a_schema_error_and_writes_nothing(self, tmp_path, record, message):
        path = tmp_path / "log.ndjson"
        with EventLog(path) as log:
            with pytest.raises(SchemaError) as info:
                log.append_records([record])
        assert str(info.value) == message
        assert not path.exists()


# --- replay: straight into the graph against the generic loop ---------------------------

_NAMES = st.sampled_from(["a", "é", 'q"'])
_RELEASES = st.sampled_from(["1", "2", "3"])
_TIMES = st.integers(-1, 4)
_REFS = st.tuples(_NAMES, _RELEASES)
_UNITS = st.one_of(
    st.builds(unit_event, _NAMES, _RELEASES, _TIMES),
    st.builds(lambda name, release: unit_event(name, release, int(release)), _NAMES, _RELEASES),
)


def _other_events(refs):
    """Lists of events over ``refs``: a use once or twice, an update, two
    updates from one release, a contribution or an alias."""
    return st.one_of(
        st.builds(lambda src, dst, n: [use_event(src, dst)] * n, refs, refs, st.integers(1, 2)),
        st.builds(lambda src, dst: [update_event(src, dst)], refs, refs),
        st.builds(lambda src, b, c: [update_event(src, (src[0], b)), update_event(src, (src[0], c))],
                  refs, _RELEASES, _RELEASES),
        st.builds(lambda dst, a, b: [update_event((dst[0], a), dst), update_event((dst[0], b), dst)],
                  refs, _RELEASES, _RELEASES),
        st.builds(lambda *fields: [contribution_event(*fields)], _NAMES, _NAMES, _NAMES,
                  st.sampled_from(eventlog.CONTRIBUTION_TYPES), _TIMES, st.booleans()),
        st.builds(lambda canonical, alias: [alias_event(canonical, alias)], _NAMES, _NAMES),
    )


_compact = dict(separators=(",", ":"))
_SPELLINGS = {
    "canonical": lambda r: eventlog._line(r["seq"], r["kind"], r),
    "sorted keys": lambda r: json.dumps(r, sort_keys=True, **_compact) + "\n",
    "raw non-ASCII": lambda r: json.dumps(r, ensure_ascii=False, **_compact) + "\n",
    "wrong type": lambda r: json.dumps({**r, list(r)[3]: 1.5}, **_compact) + "\n",
    "missing field": lambda r: json.dumps({k: v for k, v in r.items() if k != list(r)[-1]}, **_compact) + "\n",
    "unknown kind": lambda r: json.dumps({**r, "kind": "rename"}, **_compact) + "\n",
}


@st.composite
def _replay_logs(draw):
    """Lines of a log, mostly canonical, among them every quarantine reason
    a small pool of names and releases runs into, and at times a damaged
    line or a torn tail."""
    events = draw(st.lists(_UNITS, min_size=1, max_size=9))
    keys = st.sampled_from([leaves[:2] for _, leaves in events])
    events += sum(draw(st.lists(_other_events(st.one_of(keys, keys, _REFS)), max_size=12)), [])
    if events and draw(st.booleans()):
        events.insert(draw(st.integers(0, len(events))), events.pop(draw(st.integers(0, len(events) - 1))))
    spellings = st.sampled_from(["canonical"] * 8 + ["sorted keys", "raw non-ASCII"] * 2 + list(_SPELLINGS))
    events = [(e, draw(spellings)) for e in events]
    lines = [
        _SPELLINGS[spelling]({"v": 1, "seq": seq, "kind": kind, **eventlog._payload(kind, leaves)}).encode()
        for seq, ((kind, leaves), spelling) in enumerate(events, start=1)
    ]
    damage = draw(st.sampled_from(["none"] * 6 + ["torn tail", "corrupt line"]))
    if damage == "corrupt line":
        lines.insert(draw(st.integers(0, len(lines))), b"[1]\n")
    elif damage == "torn tail":
        lines.append(b'{"v":1,"seq":99')
    return lines


def _state(run) -> str:
    try:
        result = run()
    except CorruptLog as exc:
        return f"CorruptLog: {exc}"
    g = result.graph
    ends = attrgetter("src", "dst")
    quarantine = [(q.line_no, q.seq, q.reason, q.detail, list(q.record.items())) for q in result.quarantine]
    return repr((
        g.units, sorted(g.use_edges, key=ends), sorted(g.update_edges, key=ends), g.anomalies,
        result.contributions, result.aliases, quarantine,
    ))


class TestReplayRoutes:
    @settings(deadline=None, max_examples=300)
    @given(lines=_replay_logs(), strict=st.booleans(), split=st.integers(0, 40))
    def test_direct_apply_matches_the_generic_loop(self, lines, strict, split):
        with tempfile.TemporaryDirectory() as tmp:
            whole, head, tail = (Path(tmp) / name for name in ("whole", "head", "tail"))
            whole.write_bytes(b"".join(lines))
            head.write_bytes(b"".join(lines[:split]))
            tail.write_bytes(b"".join(lines[split:]))
            assert _state(lambda: replay(whole, strict=strict)) == _state(
                lambda: reference_replay(whole, strict=strict))
            assert _state(lambda: replay(tail, into=replay(head, strict=strict))) == _state(
                lambda: reference_replay(tail, into=reference_replay(head, strict=strict)))

    def test_the_logs_reach_every_quarantine_reason(self):
        reasons = set()

        @settings(deadline=None, max_examples=300, database=None, derandomize=True)
        @given(lines=_replay_logs(), strict=st.booleans())
        def collect(lines, strict):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "log"
                path.write_bytes(b"".join(lines))
                try:
                    reasons.update(q.reason for q in replay(path, strict=strict).quarantine)
                except CorruptLog:
                    reasons.add("CorruptLog")

        collect()
        assert reasons >= {"UnknownUnit", "DuplicateUnit", "SelfLoop", "ParallelEdge", "TimeAnomaly",
                           "NameAxiomViolation", "TimeOrderViolation", "BranchingUpdate", "SchemaError",
                           "TornTail", "CorruptLog"}
