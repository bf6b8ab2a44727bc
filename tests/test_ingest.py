import csv
import io
import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from pkgverse.errors import CsvError, InvalidTimestamp, MissingField, ParseError
from pkgverse.ingest import (
    ColumnMap,
    Quarantined,
    load_registry_table,
    manifest_records,
    manifest_to_json,
    parse_contribution_events,
    parse_manifest,
    parse_registry_dump,
    parse_timestamp,
    registry_info,
)
from pkgverse.semver import VersionRange

from oracles import reference_parse_registry_dump


class TestParseTimestamp:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (1234, 1234),
            ("1234", 1234),
            ("1970-01-01T00:00:00+00:00", 0),
            ("1970-01-01T00:01:00Z", 60),
            ("1970-01-02", 86400),
            ("1970-01-01T01:00:00+01:00", 0),
            ("1970-01-01 00:02:00 UTC", 120),
        ],
    )
    def test_accepted(self, value, expected):
        assert parse_timestamp(value) == expected

    @pytest.mark.parametrize("bad", ["", "yesterday", None, True, [1], float("nan"), float("inf"), float("-inf")])
    def test_rejected(self, bad):
        with pytest.raises(InvalidTimestamp):
            parse_timestamp(bad)

    @pytest.mark.parametrize("lenient", ["1_000", "\u0661\u0662\u0663", " +5 ", "+5"])
    def test_only_a_minus_and_ascii_digits_are_epoch_seconds(self, lenient):
        with pytest.raises(InvalidTimestamp):
            parse_timestamp(lenient)
        assert parse_timestamp(" -5 ") == -5


class TestParseManifest:
    def test_direct_field_mapping(self):
        m = parse_manifest('{"name":"a","version":"1.0.0","dependencies":{"b":"^1.0.0"}}')
        assert m.name == "a"
        assert m.release == "1.0.0"
        assert m.dependencies == (("b", VersionRange.parse("^1.0.0")),)

    def test_no_dependencies_key(self):
        m = parse_manifest('{"name":"a","version":"1.0.0"}')
        assert m.dependencies == ()

    def test_utf8_bom_bytes(self):
        m = parse_manifest(b'\xef\xbb\xbf{"name":"a","version":"1.0.0","dependencies":{"b":"1.0.0"}}')
        assert (m.name, m.release, m.dependency_names()) == ("a", "1.0.0", {"b"})

    def test_duplicate_dependency_key_rejected(self):
        # JSON object key-uniqueness checked by a pre-scan of the pairs
        text = '{"name":"a","version":"1.0.0","dependencies":{"b":"^1.0.0","b":"^2.0.0"}}'
        pairs = json.loads(
            text, object_pairs_hook=lambda ps: ps
        )  # oracle: raw pair scan sees the duplicate
        dep_pairs = dict(pairs)["dependencies"]
        assert len(dep_pairs) != len({k for k, _ in dep_pairs})
        with pytest.raises(ParseError):
            parse_manifest(text)

    def test_missing_name_or_version(self):
        with pytest.raises(MissingField):
            parse_manifest('{"version":"1.0.0"}')
        with pytest.raises(MissingField):
            parse_manifest('{"name":"a"}')

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_manifest("{nope")

    def test_unknown_fields_ignored(self):
        m = parse_manifest('{"name":"a","version":"1.0.0","scripts":{"test":"x"}}')
        assert m.name == "a"

    def test_dev_dependencies_opt_in(self):
        text = json.dumps(
            {
                "name": "a",
                "version": "1.0.0",
                "dependencies": {"b": "^1.0.0"},
                "devDependencies": {"c": "~2.0.0"},
            }
        )
        assert len(parse_manifest(text).dependencies) == 1
        both = parse_manifest(text, sections=("dependencies", "devDependencies"))
        assert {name for name, _ in both.dependencies} == {"b", "c"}

    def test_round_trip(self):
        text = '{"name":"a","version":"1.0.0","dependencies":{"b":"^1.0.0","c":"1.2.3 - 2.0.0"}}'
        m = parse_manifest(text)
        assert parse_manifest(manifest_to_json(m)) == m

    def test_manifest_events_carry_requirement_verbatim(self):
        m = parse_manifest('{"name":"a","version":"1.0.0","dependencies":{"b":"^1.0.0"}}')
        assert manifest_records(m, time=50) == [("unit", ("a", "1.0.0", 50)), ("use", ("a", "1.0.0", "b", "^1.0.0"))]


DUMP_HEADER = "platform,name,version,released_at,dep_name,dep_requirement\n"


def run_dump(text, mapping=None):
    events, quarantined = [], []
    for item in parse_registry_dump(io.StringIO(text), mapping):
        (quarantined if isinstance(item, Quarantined) else events).append(item)
    return events, quarantined


_MAPPINGS = [
    ColumnMap(),
    ColumnMap("Platform", "Project Name", "Version Number", "Created", "Dep", "Req"),
]
# one-letter columns, so short random texts hit them
_RAW_MAPPINGS = [ColumnMap("p", "a", "b", "1", "ab", "a1"), ColumnMap("p", "a", "a", "b", "1")]
_CELL = st.sampled_from([
    "", " ", "npm", "app", " lib ", "1.0.0", "2.0.0", "^1.0.0", "100", "never", "2015-03-17 22:05:49 UTC",
    "a\nb", "x,y", 'q"uote', "name", "version",
])


def _outcome(parse):
    """Everything a parse yields, then the error that ends it, if any."""
    items = []
    try:
        items.extend(parse())
    except (CsvError, csv.Error) as exc:
        return items, repr(exc)
    return items, None


def _dump_outcome(text, mapping):
    return _outcome(lambda: parse_registry_dump(io.StringIO(text, newline=""), mapping))


def _reference_outcome(text, mapping):
    lines = itertools.dropwhile(lambda line: line in ("\n", "\r", "\r\n"), io.StringIO(text, newline=""))
    return _outcome(lambda: reference_parse_registry_dump(lines, mapping))


class TestParseRegistryDump:
    def test_two_row_fixture(self):
        text = DUMP_HEADER + "npm,app,1.0.0,100,lib,1.0.0\nnpm,lib,1.0.0,50,,\n"
        events, quarantined = run_dump(text)
        assert not quarantined
        kinds = [e.kind for e in events]
        assert kinds == ["unit", "use", "unit"]
        assert events[1].payload == {"from": ["app", "1.0.0"], "to": ["lib", "1.0.0"]}

    def test_header_only(self):
        events, quarantined = run_dump(DUMP_HEADER)
        assert events == [] and quarantined == []

    def test_empty_file_is_csv_error(self):
        with pytest.raises(CsvError):
            list(parse_registry_dump(io.StringIO("")))

    def test_missing_column_is_csv_error(self):
        with pytest.raises(CsvError):
            list(parse_registry_dump(io.StringIO("name,version\napp,1.0.0\n")))

    def test_bad_timestamp_quarantined_with_row(self):
        text = DUMP_HEADER + "npm,app,1.0.0,not-a-time,,\nnpm,lib,1.0.0,50,,\n"
        events, quarantined = run_dump(text)
        assert len(events) == 1
        assert quarantined[0].line_no == 2
        assert quarantined[0].reason == "InvalidTimestamp"

    def test_multi_dependency_package_emits_unit_once(self):
        text = (
            DUMP_HEADER
            + "npm,app,1.0.0,100,lib,1.0.0\n"
            + "npm,app,1.0.0,100,util,2.0.0\n"
        )
        events, _ = run_dump(text)
        assert [e.kind for e in events] == ["unit", "use", "use"]

    def test_custom_column_mapping(self):
        text = "Platform,Project Name,Version Number,Created Timestamp\nnpm,app,1.0.0,77\n"
        mapping = ColumnMap(
            platform="Platform",
            name="Project Name",
            version="Version Number",
            released_at="Created Timestamp",
        )
        events, _ = run_dump(text, mapping)
        assert events[0].payload == {"name": "app", "release": "1.0.0", "time": 77}

    def test_event_count_matches_line_count_oracle(self):
        rows = []
        for i in range(5000):
            rows.append(f"npm,pkg{i},1.0.0,{i},dep{i % 7},1.0.0")
        text = DUMP_HEADER + "\n".join(rows) + "\n"
        events, quarantined = run_dump(text)
        line_count = text.count("\n") - 1  # oracle: data lines in the file
        assert not quarantined
        assert sum(1 for e in events if e.kind == "unit") == line_count
        assert sum(1 for e in events if e.kind == "use") == line_count

    def test_blank_lines_are_skipped_and_not_counted(self):
        text = "\n\r\n" + DUMP_HEADER + "\n" + "npm,app,1.0.0,oops,,\n\n" + "npm,lib,,50,,\n"
        events, quarantined = run_dump(text)
        assert events == []
        assert [(q.line_no, q.reason) for q in quarantined] == [(2, "InvalidTimestamp"), (3, "MissingField")]

    def test_rows_are_numbered_by_row_not_by_line(self):
        text = DUMP_HEADER + 'npm,app,1.0.0,100,lib,"1.0.0\n|| 2.0.0"\n' + "npm,lib,1.0.0,never,,\n"
        events, quarantined = run_dump(text)
        assert events[1].payload["to"] == ["lib", "1.0.0\n|| 2.0.0"]
        assert quarantined[0].line_no == 3

    def test_long_row_is_quarantined_with_its_extra_fields(self):
        _, [q] = run_dump(DUMP_HEADER + "npm,app,1.0.0,100,lib,1.0.0,x,y\n")
        assert (q.line_no, q.reason, q.record) == (2, "CsvError", "row has extra fields: ['x', 'y']")

    def test_short_row_reads_missing_cells_as_none(self):
        events, _ = run_dump(DUMP_HEADER + "npm,app,1.0.0,100\n")
        assert [e.kind for e in events] == ["unit"]
        _, [q] = run_dump(DUMP_HEADER + "npm,app\n")
        assert q.record == {
            "platform": "npm", "name": "app", "version": None, "released_at": None,
            "dep_name": None, "dep_requirement": None,
        }

    def test_repeated_column_reads_its_last_cell(self):
        text = "name,version,released_at,name\nfirst,1.0.0,5,last\nfirst,,5,last\n"
        events, [q] = run_dump(text)
        assert events[0].payload["name"] == "last"
        assert q.record == {"name": "last", "version": "", "released_at": "5"}

    def test_dependency_requirement_column_is_optional(self):
        events, _ = run_dump("name,version,released_at,dep_name\napp,1.0.0,5,lib\n")
        assert events[1].payload == {"from": ["app", "1.0.0"], "to": ["lib", "*"]}

    @settings(deadline=None, max_examples=400)
    @given(data=st.data())
    def test_matches_the_dict_reader_version(self, data):
        # written by csv.writer: quoting, embedded newlines and commas
        mapping = data.draw(st.sampled_from(_MAPPINGS))
        pool = [*vars(mapping).values(), "extra"]
        header = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))
        width = len(header)
        rows = data.draw(st.lists(st.lists(_CELL, max_size=width + 2), max_size=12))
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator=data.draw(st.sampled_from(["\n", "\r\n"])))
        buf.write(data.draw(st.sampled_from(["", "\n", "\r\n\n"])))
        writer.writerow(header)
        for row in rows:
            if row:
                writer.writerow(row)
            else:
                buf.write("\n")
        assert _dump_outcome(buf.getvalue(), mapping) == _reference_outcome(buf.getvalue(), mapping)

    @settings(deadline=None, max_examples=400)
    @given(text=st.text(alphabet='ab1,"\n\r ', max_size=60), mapping=st.sampled_from(_RAW_MAPPINGS))
    def test_matches_the_dict_reader_version_on_raw_text(self, text, mapping):
        assert _dump_outcome(text, mapping) == _reference_outcome(text, mapping)


def run_contributions(text):
    events, quarantined = [], []
    for item in parse_contribution_events(io.StringIO(text)):
        (quarantined if isinstance(item, Quarantined) else events).append(item)
    return events, quarantined


class TestParseContributionEvents:
    def test_merged_pr_record(self):
        text = '{"id":"c1","author":"alice","target":"app","type":"pr","time":100,"merged":true}\n'
        events, quarantined = run_contributions(text)
        assert not quarantined
        assert events[0].payload["ctype"] == "pr"
        assert events[0].payload["merged"] is True
        assert events[0].payload["dev"] == "alice"

    def test_missing_author_quarantined(self):
        text = '{"id":"c1","target":"app","type":"pr","time":100,"merged":true}\n'
        events, quarantined = run_contributions(text)
        assert events == []
        assert quarantined[0].reason == "SchemaError"

    @pytest.mark.parametrize("merged", ['"false"', '"true"', "0", "1", "null", "[]"])
    def test_merged_that_is_not_a_json_bool_is_quarantined(self, merged):
        text = '{"author":"bob","target":"app","type":"pr","time":5,"merged":%s}\n' % merged
        events, quarantined = run_contributions(text)
        assert events == []
        assert [q.reason for q in quarantined] == ["SchemaError"]

    def test_discussion_accepted(self):
        text = '{"author":"bob","target":"app","type":"discussion","time":5}\n'
        events, _ = run_contributions(text)
        assert events[0].payload["ctype"] == "discussion"
        assert events[0].payload["id"] == "app#1"
        assert events[0].payload["merged"] is False

    def test_title_carried_in_memory(self):
        text = '{"author":"bob","target":"app","type":"pr","time":5,"title":"bump x"}\n'
        events, _ = run_contributions(text)
        assert events[0].payload["title"] == "bump x"

    def test_mixed_fixture_counts_match_tally_oracle(self):
        import random

        rng = random.Random(5)
        lines = []
        tally = {"pr": 0, "issue": 0, "discussion": 0, "bad": 0}
        for i in range(1000):
            ctype = rng.choice(["pr", "issue", "discussion", "bad"])
            tally[ctype] += 1
            if ctype == "bad":
                lines.append(json.dumps({"target": "app", "type": "pr", "time": i}))
            else:
                lines.append(
                    json.dumps(
                        {"id": f"c{i}", "author": f"dev{i % 9}", "target": f"p{i % 4}",
                         "type": ctype, "time": i, "merged": bool(i % 2)}
                    )
                )
        events, quarantined = run_contributions("\n".join(lines) + "\n")
        counts = {"pr": 0, "issue": 0, "discussion": 0}
        for e in events:
            counts[e.payload["ctype"]] += 1
        assert counts == {k: v for k, v in tally.items() if k != "bad"}
        assert len(quarantined) == tally["bad"]


class TestRegistryTable:
    def test_thirteen_rows(self):
        table = load_registry_table()
        assert len(table) == 13

    def test_npm_is_nested(self):
        assert registry_info("npm").tree_style == "nested"

    def test_meteor_is_nested(self):
        assert registry_info("Meteor").tree_style == "nested"

    @pytest.mark.parametrize("ecosystem", ["PyPI", "Maven", "CRAN", "CPAN", "RubyGems", "NuGet"])
    def test_flat_registries(self, ecosystem):
        assert registry_info(ecosystem).tree_style == "flat"

    def test_unknown_is_none(self):
        assert registry_info("nonexistent") is None

    def test_case_insensitive(self):
        assert registry_info("pypi").ecosystem == "PyPI"

    def test_utf8_bom_table(self, tmp_path):
        text = b"ecosystem,language,tiobe_rank,environment,tree_style,archive_url\nnpm,JavaScript,7,Node.js,nested,npmjs.com\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(text)
        bom.write_bytes(b"\xef\xbb\xbf" + text)
        assert load_registry_table(bom) == load_registry_table(plain)
        assert [r.ecosystem for r in load_registry_table(bom)] == ["npm"]

    def test_expected_column_values(self):
        npm = registry_info("npm")
        assert npm.language == "JavaScript"
        assert npm.environment == "Node.js"
        assert npm.archive_url == "npmjs.com"


class TestStreamingMemory:
    def test_dump_parsing_is_streaming(self):
        # memory must track the row, not the file: feed a dump far larger
        # than the allowed allocation ceiling through a generator reader
        import tracemalloc

        class EndlessRows(io.TextIOBase):
            def __init__(self, n):
                self.lines = self._gen(n)

            @staticmethod
            def _gen(n):
                yield DUMP_HEADER
                for i in range(n):
                    yield f"npm,pkg{i},1.0.0,{i},dep,1.0.0\n"

            def read(self, size=-1):
                raise NotImplementedError

            def __iter__(self):
                return self.lines

        n_rows = 200_000
        reader = EndlessRows(n_rows)
        tracemalloc.start()
        count = 0
        for item in parse_registry_dump(reader):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 2 * n_rows
        assert peak < 8 * 1024 * 1024  # a ceiling far below the ~10MB+ of text streamed


class TestUnreadableInput:
    def test_a_field_over_the_csv_limit_is_a_csv_error_naming_its_row(self):
        text = DUMP_HEADER + "\n" + "npm,lib,1.0.0,5,,\n" + "npm,app,1.0.0,6,lib," + "x" * 200_000 + "\n"
        items = []
        with pytest.raises(CsvError, match=r"^<dump>:3: field larger than field limit"):
            items.extend(parse_registry_dump(io.StringIO(text)))
        assert [e.payload["name"] for e in items] == ["lib"]

    def test_a_header_over_the_csv_limit_is_row_1(self):
        with pytest.raises(CsvError, match=r"^d.csv:1: "):
            list(parse_registry_dump(io.StringIO("x" * 200_000 + "\n"), source="d.csv"))

    def test_an_over_long_timestamp_is_quarantined(self):
        events, [q] = run_dump(DUMP_HEADER + "npm,app,1.0.0," + "9" * 5000 + ",,\nnpm,lib,1.0.0,5,,\n")
        assert [e.payload["name"] for e in events] == ["lib"]
        assert (q.line_no, q.reason) == (2, "InvalidTimestamp")
        with pytest.raises(InvalidTimestamp):
            parse_timestamp("9" * 5000)

    @pytest.mark.parametrize("line", [
        "[" * 200_000 + "]" * 200_000,
        '{"author": "bob", "target": "app", "type": "pr", "time": %s}' % ("9" * 5000),
    ], ids=["deep", "long number"])
    def test_too_deep_or_too_long_json_is_a_parse_error(self, line):
        events, [q] = run_contributions(line + '\n{"author": "bob", "target": "app", "type": "pr", "time": 5}\n')
        assert len(events) == 1
        assert (q.line_no, q.reason, q.record) == (1, "ParseError", line)

    def test_too_deep_manifest_is_a_parse_error(self):
        with pytest.raises(ParseError, match="malformed JSON"):
            parse_manifest('{"name": "app", "version": "1", "x": ' + "[" * 200_000 + "]" * 200_000 + "}")
