import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from pkgverse import export
from pkgverse.cli import main
from pkgverse.contrib import build_dc_graph
from pkgverse.eventlog import EventLog, alias_event, replay, unit_event, update_event, use_event
from pkgverse.fixtures import client_library_fixture, sample_universe_events

from oracles import check_dot_document, reference_dot

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture
def universe_log(tmp_path):
    path = tmp_path / "universe.ndjson"
    with EventLog(path) as log:
        for event in sample_universe_events(extended=True):
            log.append(event)
    return path


@pytest.fixture
def contributions_file(tmp_path):
    records = [
        {"id": "c1", "author": "alice", "target": "app", "type": "pr", "time": 10, "merged": True},
        {"id": "c2", "author": "alice", "target": "parser", "type": "issue", "time": 20},
        {"id": "c3", "author": "bob", "target": "app", "type": "pr", "time": 15, "merged": True},
        {"id": "c4", "author": "bob", "target": "utils", "type": "pr", "time": 30, "merged": True},
        {"id": "b1", "author": "dependabot", "target": "parser", "type": "pr", "time": 12,
         "merged": True, "title": "bump utils from 0.9.0 to 1.0.0"},
        {"id": "b2", "author": "dependabot", "target": "utils", "type": "pr", "time": 14,
         "merged": True, "title": "bump utils from 0.9.1 to 1.0.0"},
    ]
    path = tmp_path / "contributions.ndjson"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


@pytest.fixture
def app_log(tmp_path):
    """Event log mirroring the client/library fixture graph."""
    g, _ = client_library_fixture()
    path = tmp_path / "app.ndjson"
    with EventLog(path) as log:
        from pkgverse.eventlog import unit_event, use_event

        for u in sorted(g.units, key=lambda u: u.uid):
            log.append(unit_event(u.name, u.release, u.time))
        for e in sorted(g.use_edges, key=lambda e: (e.src, e.dst)):
            log.append(use_event(
                (g.unit(e.src).name, g.unit(e.src).release),
                (g.unit(e.dst).name, g.unit(e.dst).release),
            ))
    return path


class TestIngest:
    def test_two_row_dump(self, tmp_path, capsys):
        dump = tmp_path / "dump.csv"
        dump.write_text(
            "platform,name,version,released_at,dep_name,dep_requirement\n"
            "npm,app,1.0.0,100,lib,1.0.0\n"
            "npm,lib,1.0.0,50,,\n"
        )
        log = tmp_path / "log.ndjson"
        code = main(["ingest", str(dump), "--kind", "dump", "--log", str(log)])
        err = capsys.readouterr().err
        assert code == 0
        assert "2 unit, 1 use" in err
        assert "0 quarantined" in err

    def test_bad_row_quarantines_with_exit_2(self, tmp_path, capsys):
        dump = tmp_path / "dump.csv"
        dump.write_text(
            "platform,name,version,released_at,dep_name,dep_requirement\n"
            "npm,app,1.0.0,never,,\n"
            "npm,lib,1.0.0,50,,\n"
        )
        log = tmp_path / "log.ndjson"
        code = main(["ingest", str(dump), "--kind", "dump", "--log", str(log)])
        err = capsys.readouterr().err
        assert code == 2
        assert "quarantine report" in err
        assert (tmp_path / "log.ndjson.quarantine.ndjson").exists()

    def test_unreadable_log_is_fatal(self, tmp_path, capsys):
        dump = tmp_path / "dump.csv"
        dump.write_text(
            "platform,name,version,released_at,dep_name,dep_requirement\n"
            "npm,app,1.0.0,1,,\n"
        )
        code = main(["ingest", str(dump), "--kind", "dump", "--log", str(tmp_path / "nope" / "log")])
        assert code == 1

    def test_manifest_ingest(self, tmp_path, capsys):
        manifest = tmp_path / "package.json"
        manifest.write_text('{"name":"app","version":"1.0.0","dependencies":{"lib":"^1.0.0"}}')
        log = tmp_path / "log.ndjson"
        code = main(["ingest", str(manifest), "--kind", "manifest", "--log", str(log), "--time", "42"])
        assert code == 0
        lines = log.read_text().splitlines()
        assert json.loads(lines[0])["time"] == 42
        assert json.loads(lines[1])["to"] == ["lib", "^1.0.0"]

    def test_wildcard_major_manifest_range_exits_0(self, tmp_path):
        manifest = tmp_path / "package.json"
        manifest.write_text('{"name":"app","version":"1.0.0","dependencies":{"lib":"x.x"}}')
        log = tmp_path / "log.ndjson"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "pkgverse", "ingest", str(manifest), "--kind", "manifest",
             "--log", str(log)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(log.read_text().splitlines()[1])["to"] == ["lib", "x.x"]

    @pytest.mark.parametrize("flag", [["--strict"], ["--out", "nowhere/x"]], ids=["strict", "out"])
    def test_flags_ingest_never_reads_are_usage_errors(self, tmp_path, capsys, flag):
        dump = tmp_path / "d.csv"
        dump.write_text("platform,name,version,released_at,dep_name,dep_requirement\nnpm,lib,1.0.0,5,,\n")
        log = tmp_path / "log.ndjson"
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", str(dump), "--kind", "dump", "--log", str(log), *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not log.exists()

    def test_contribution_ingest(self, tmp_path, contributions_file):
        log = tmp_path / "log.ndjson"
        code = main(["ingest", str(contributions_file), "--kind", "contributions", "--log", str(log)])
        assert code == 0
        assert len(log.read_text().splitlines()) == 6

    @pytest.mark.parametrize("time", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_time_is_quarantined(self, tmp_path, time):
        source = tmp_path / "contributions.ndjson"
        source.write_text(
            '{"id": "c1", "author": "alice", "target": "app", "type": "pr", "time": 10}\n'
            '{"id": "c2", "author": "bob", "target": "app", "type": "pr", "time": %s}\n' % time
        )
        log = tmp_path / "log.ndjson"
        assert main(["ingest", str(source), "--kind", "contributions", "--log", str(log)]) == 2
        assert len(log.read_text().splitlines()) == 1
        [entry] = map(json.loads, (tmp_path / "log.ndjson.quarantine.ndjson").read_text().splitlines())
        assert (entry["line"], entry["reason"]) == (2, "InvalidTimestamp")

    def test_more_than_six_columns_exits_1_with_one_error_line(self, tmp_path, capsys):
        dump = tmp_path / "d.csv"
        dump.write_text("a,b,c,d,e,f,g\n")
        log = tmp_path / "log.ndjson"
        code = main(["ingest", str(dump), "--kind", "dump", "--columns", "a,b,c,d,e,f,g", "--log", str(log)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err == ["error: --columns takes at most 6 names, got 7"]
        assert not log.exists()

    def test_short_column_list_overrides_the_leading_columns(self, tmp_path):
        dump = tmp_path / "d.csv"
        dump.write_text("plat,pkg,version,released_at,dep_name,dep_requirement\nnpm,app,1.0.0,5,lib,^1.0.0\n")
        log = tmp_path / "log.ndjson"
        assert main(["ingest", str(dump), "--kind", "dump", "--columns", "plat,pkg", "--log", str(log)]) == 0
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [(r["kind"], r.get("name"), r.get("to")) for r in lines] == [
            ("unit", "app", None), ("use", None, ["lib", "^1.0.0"]),
        ]

    @pytest.mark.parametrize("kind", ["dump", "contributions", "manifest"])
    def test_utf8_bom_is_dropped(self, tmp_path, kind):
        text = {
            "dump": "name,version,released_at\napp,1.0.0,5\n",
            "contributions": '{"id": "c1", "author": "alice", "target": "app", "type": "pr", "time": 5}\n',
            "manifest": '{"name": "app", "version": "1.0.0"}',
        }[kind]
        source = tmp_path / "bom.txt"
        source.write_bytes(b"\xef\xbb\xbf" + text.encode())
        log = tmp_path / "log.ndjson"
        assert main(["ingest", str(source), "--kind", kind, "--log", str(log), "--time", "5"]) == 0
        [line] = log.read_text().splitlines()
        assert json.loads(line)["time"] == 5

    def test_100k_row_dump_summary_matches_line_count(self, tmp_path, capsys):
        rows = ["platform,name,version,released_at,dep_name,dep_requirement"]
        for i in range(100_000):
            rows.append(f"npm,pkg{i},1.0.0,{i},dep{i % 10},1.0.0")
        dump = tmp_path / "big.csv"
        dump.write_text("\n".join(rows) + "\n")
        log = tmp_path / "log.ndjson"
        code = main(["ingest", str(dump), "--kind", "dump", "--log", str(log)])
        err = capsys.readouterr().err
        line_count = 100_000  # oracle: data rows written above
        assert code == 0
        assert f"{line_count} unit, {line_count} use" in err


class TestSnapshot:
    def test_at_zero_is_empty_document(self, universe_log, capsys):
        code = main(["snapshot", "--log", str(universe_log), "--at", "0", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["units"] == [] and doc["use_edges"] == []

    def test_before_growth_step_lacks_new_release(self, universe_log, capsys):
        code = main(["snapshot", "--log", str(universe_log), "--at", "5", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        names = {(u["name"], u["release"]) for u in doc["units"]}
        assert ("a", "3") not in names
        assert ("a", "2") in names

    def test_dot_export_passes_grammar_checker(self, universe_log, capsys):
        code = main(["snapshot", "--log", str(universe_log), "--at", "99", "--format", "dot"])
        out = capsys.readouterr().out
        assert code == 0
        nodes, edges = check_dot_document(out)
        assert len(nodes) == 8

    def test_graphml_export_parses(self, universe_log, capsys):
        import xml.etree.ElementTree as ET

        code = main(["snapshot", "--log", str(universe_log), "--at", "99", "--format", "graphml"])
        out = capsys.readouterr().out
        assert code == 0
        assert ET.fromstring(out).tag.endswith("graphml")

    def test_byte_determinism(self, universe_log, capsys):
        main(["snapshot", "--log", str(universe_log), "--at", "99", "--format", "dot"])
        first = capsys.readouterr().out
        main(["snapshot", "--log", str(universe_log), "--at", "99", "--format", "dot"])
        assert capsys.readouterr().out == first

    def test_out_file(self, universe_log, tmp_path, capsys):
        out = tmp_path / "snap.json"
        code = main(["snapshot", "--log", str(universe_log), "--at", "99", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["at"] == 99

    def test_series_export(self, universe_log, tmp_path, capsys):
        out_dir = tmp_path / "series"
        code = main([
            "snapshot", "--log", str(universe_log), "--at", "0",
            "--series-until", "6", "--series-step", "2s", "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert len(list(out_dir.glob("*.dot"))) == 4

    def test_bad_timestamp_is_fatal(self, universe_log, capsys):
        assert main(["snapshot", "--log", str(universe_log), "--at", "whenever"]) == 1

    @pytest.mark.parametrize("extra", [
        ["--series-until", "6", "--series-step", "2s", "--format", "graphml", "--out-dir", "s"],
        ["--series-until", "6", "--series-step", "2s", "--out", "x.json", "--out-dir", "s"],
        ["--out-dir", "s"],
        ["--series-step", "50"],
        ["--series-step", "90d", "--out", "x.json"],
    ])
    def test_options_that_do_not_apply_are_fatal(self, universe_log, tmp_path, monkeypatch, capsys, extra):
        # a series is DOT files in --out-dir; a single snapshot is one document
        monkeypatch.chdir(tmp_path)
        assert main(["snapshot", "--log", str(universe_log), "--at", "0", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["universe.ndjson"]

    def test_series_step_defaults_to_90_days(self, universe_log, tmp_path, capsys):
        out_dir = tmp_path / "series"
        code = main(["snapshot", "--log", str(universe_log), "--at", "0",
                     "--series-until", str(180 * 86400), "--out-dir", str(out_dir)])
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "snapshot_0.dot", "snapshot_15552000.dot", "snapshot_7776000.dot",
        ]

    def test_series_takes_format_dot(self, universe_log, tmp_path, capsys):
        out_dir = tmp_path / "series"
        code = main([
            "snapshot", "--log", str(universe_log), "--at", "0", "--series-until", "6", "--series-step", "2s",
            "--format", "dot", "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert len(list(out_dir.glob("*.dot"))) == 4


class TestReplayWarning:
    def test_quarantine_reasons_on_stderr_only(self, tmp_path, capsys):
        clean, dirty = tmp_path / "clean.ndjson", tmp_path / "dirty.ndjson"
        for path, extra in ((clean, []), (dirty, [
            use_event(("a", "1"), ("ghost", "1")),
            update_event(("q", "3"), ("q", "1")),
            update_event(("q", "2"), ("q", "1")),
        ])):
            with EventLog(path) as log:
                for event in [*sample_universe_events(extended=True), *extra]:
                    log.append(event)
        assert main(["snapshot", "--log", str(clean), "--at", "100"]) == 0
        expected = capsys.readouterr().out
        assert main(["snapshot", "--log", str(dirty), "--at", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == expected
        assert "3 events quarantined during replay (TimeOrderViolation: 2, UnknownUnit: 1)" in captured.err


class TestResolve:
    def test_flat_conflict_fixture(self, tmp_path, capsys):
        log = tmp_path / "log.ndjson"
        rows = [
            "platform,name,version,released_at,dep_name,dep_requirement",
            "npm,B,1.0.0,1,,",
            "npm,B,2.0.0,2,,",
            "npm,C,1.0.0,3,B,2.0.0",
            "npm,A,1.0.0,4,B,1.0.0",
            "npm,A,1.0.0,4,C,1.0.0",
        ]
        dump = tmp_path / "dump.csv"
        dump.write_text("\n".join(rows) + "\n")
        assert main(["ingest", str(dump), "--kind", "dump", "--log", str(log)]) == 0
        code = main(["resolve", "--log", str(log), "--root", "A@1.0.0", "--style", "flat"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        top = {(c["name"], c["version"]) for c in doc["root"]["children"]}
        assert top == {("B", "1.0.0"), ("C", "1.0.0")}
        c_node = next(c for c in doc["root"]["children"] if c["name"] == "C")
        assert c_node["children"] == [{"name": "B", "version": "2.0.0"}]
        assert doc["conflicts"] == [{"name": "B", "versions": ["1.0.0", "2.0.0"]}]

    def test_dependency_free_root(self, universe_log, capsys):
        code = main(["resolve", "--log", str(universe_log), "--root", "q@3", "--style", "nested"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["root"] == {"name": "q", "version": "3"}

    def test_nested_and_flat_agree_on_conflict_free_fixture(self, app_log, capsys):
        def package_set(doc):
            out, stack = set(), [doc["root"]]
            while stack:
                node = stack.pop()
                out.add((node["name"], node["version"]))
                stack.extend(node.get("children", ()))
            return out

        main(["resolve", "--log", str(app_log), "--root", "app@1.0.0", "--style", "nested"])
        nested = json.loads(capsys.readouterr().out)
        main(["resolve", "--log", str(app_log), "--root", "app@1.0.0", "--style", "flat"])
        flat = json.loads(capsys.readouterr().out)
        assert package_set(nested) == package_set(flat)
        assert nested["conflicts"] == flat["conflicts"] == []

    def test_lock_format(self, app_log, capsys):
        code = main(["resolve", "--log", str(app_log), "--root", "app@1.0.0",
                     "--style", "flat", "--format", "lock"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "package,path"
        assert "app@1.0.0," in lines[1]

    def test_unknown_root_is_fatal(self, universe_log, capsys):
        assert main(["resolve", "--log", str(universe_log), "--root", "ghost@1"]) == 1
        assert main(["resolve", "--log", str(universe_log), "--root", "malformed"]) == 1

    def test_scoped_npm_root_splits_at_the_last_at(self, tmp_path, capsys):
        log, dump = tmp_path / "log.ndjson", tmp_path / "dump.csv"
        dump.write_text("platform,name,version,released_at,dep_name,dep_requirement\n"
                        "npm,@babel/types,7.0.0,1,,\nnpm,@babel/core,7.0.0,2,@babel/types,7.0.0\n")
        assert main(["ingest", str(dump), "--kind", "dump", "--log", str(log)]) == 0
        capsys.readouterr()
        assert main(["resolve", "--log", str(log), "--root", "@babel/core@7.0.0"]) == 0
        root = json.loads(capsys.readouterr().out)["root"]
        assert (root["name"], root["version"]) == ("@babel/core", "7.0.0")
        assert root["children"] == [{"name": "@babel/types", "version": "7.0.0"}]
        for malformed in ("lib", "@scope/lib", "lib@"):
            assert main(["resolve", "--log", str(log), "--root", malformed]) == 1
            assert "--root must look like name@version" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--style", "flat"], ["--format", "lock"]])
    def test_a_chain_too_deep_for_the_tree_walks_is_one_error_line(self, tmp_path, flags):
        # The tree walks are loops now, so flat JSON and lock form resolve this chain;
        # only nested JSON, written by json.dumps, is still one error line.
        log = tmp_path / "chain.ndjson"
        with EventLog(log) as out:
            out.append_records(("unit", (f"p{i}", "1.0.0", i)) for i in range(1500))
            out.append_records(("use", (f"p{i + 1}", "1.0.0", f"p{i}", "1.0.0")) for i in range(1499))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "pkgverse", "resolve", "--log", str(log), "--root", "p1499@1.0.0", *flags],
            env=env, capture_output=True, text=True,
        )
        if not flags:  # the trees are loops, but json.dumps recurses once per level of the document
            assert proc.returncode == 1
            [line] = proc.stderr.splitlines()
            assert line.startswith("error: ") and "Traceback" not in proc.stderr
            return
        assert (proc.returncode, proc.stderr) == (0, "0 version conflicts\n")
        names = [f"p{i}" for i in reversed(range(1500))]
        if "flat" in flags:
            assert json.loads(proc.stdout) == {
                "style": "flat",
                "root": {"name": "p1499", "version": "1.0.0", "children": [
                    {"name": name, "version": "1.0.0"} for name in names[1:]
                ]},
                "conflicts": [],
            }
        else:
            lines = proc.stdout.splitlines()
            assert len(lines) == 1501
            assert lines[:3] == ["package,path", "p1499@1.0.0,", "p1498@1.0.0,p1499"]
            assert lines[-1] == "p0@1.0.0," + "/".join(names[:-1])


class TestCongruence:
    def test_fixture_emits_two_pairs(self, app_log, contributions_file, capsys):
        code = main([
            "congruence", "--log", str(app_log),
            "--contributions", str(contributions_file), "--window", "90d",
        ])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert {(r["developer"], r["client"], r["library"]) for r in rows} == {
            ("alice", "app", "parser"),
            ("bob", "app", "utils"),
        }

    def test_empty_contributions(self, app_log, tmp_path, capsys):
        empty = tmp_path / "none.ndjson"
        empty.write_text("")
        code = main(["congruence", "--log", str(app_log), "--contributions", str(empty)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "window_start,developer,client,library,client_contribution,library_contribution"
        ]

    def test_keep_bots_is_monotone(self, app_log, contributions_file, capsys):
        main(["congruence", "--log", str(app_log), "--contributions", str(contributions_file)])
        default_rows = len(capsys.readouterr().out.splitlines()) - 1
        main(["congruence", "--log", str(app_log), "--contributions", str(contributions_file),
              "--keep-bots"])
        kept_rows = len(capsys.readouterr().out.splitlines()) - 1
        assert kept_rows >= default_rows
        assert kept_rows == 3  # the bot's parser/utils pair appears

    def test_byte_determinism(self, app_log, contributions_file, capsys):
        argv = ["congruence", "--log", str(app_log), "--contributions", str(contributions_file)]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_cross_window_spans_the_range(self, app_log, tmp_path, capsys):
        # contributions a window width apart pair up only in cross-window mode
        records = [
            {"id": "c1", "author": "alice", "target": "app", "type": "pr", "time": 10, "merged": True},
            {"id": "c2", "author": "alice", "target": "parser", "type": "pr",
             "time": 10 + 200 * 86400, "merged": True},
        ]
        path = tmp_path / "far.ndjson"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        main(["congruence", "--log", str(app_log), "--contributions", str(path)])
        windowed = len(capsys.readouterr().out.splitlines()) - 1
        main(["congruence", "--log", str(app_log), "--contributions", str(path), "--cross-window"])
        spanning = len(capsys.readouterr().out.splitlines()) - 1
        assert windowed == 0
        assert spanning == 1

    def test_bad_bot_threshold_is_fatal(self, app_log, contributions_file):
        assert main(["congruence", "--log", str(app_log), "--contributions",
                     str(contributions_file), "--bot-threshold", "1.5"]) == 1

    @pytest.mark.parametrize("bounds", [
        ["--window-start", "2020-01-01", "--window-end", "2019-01-01"],
        ["--window-start", "2020-01-01", "--window-end", "2020-01-01"],
        ["--window-start", "1970-01-02"],  # after the last contribution (t=30)
    ])
    def test_empty_or_inverted_range_exits_1_with_one_error_line(self, app_log, contributions_file, bounds):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "pkgverse", "congruence", "--log", str(app_log),
             "--contributions", str(contributions_file), *bounds],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and "empty range" in line

    @pytest.fixture
    def pair_inputs(self, tmp_path):
        """A log where app uses lib, and contributions holding one pair."""
        log = tmp_path / "log.ndjson"
        with EventLog(log) as events:
            events.append(unit_event("lib", "1.0.0", 1))
            events.append(unit_event("app", "1.0.0", 2))
            events.append(use_event(("app", "1.0.0"), ("lib", "1.0.0")))
        records = tmp_path / "c.ndjson"
        records.write_text("".join(json.dumps(r) + "\n" for r in [
            {"id": "c1", "author": "alice", "target": "app", "type": "pr", "time": 130, "merged": True},
            {"id": "c2", "author": "alice", "target": "lib", "type": "issue", "time": 130},
            {"id": "c3", "author": "bob", "target": "lib", "type": "issue", "time": 120},
        ]))
        return log, records

    def test_only_windows_holding_contributions_build_a_graph(self, pair_inputs, monkeypatch, capsys):
        log, records = pair_inputs
        windows = []

        def counting(graph, contributions, window):
            windows.append(window)
            return build_dc_graph(graph, contributions, window)

        monkeypatch.setattr("pkgverse.contrib.build_dc_graph", counting)
        assert main(["congruence", "--log", str(log), "--contributions", str(records), "--window", "1s",
                     "--window-start", "0", "--window-end", "100000"]) == 0
        out, err = capsys.readouterr()
        assert [(w.start, w.end) for w in windows] == [(119, 120), (129, 130)]
        assert out.splitlines() == [
            "window_start,developer,client,library,client_contribution,library_contribution",
            "129,alice,app,lib,c1,c2",
        ]
        assert err == "1 congruent pairs across 100000 windows; 0 developers excluded as bots\n"

    def test_a_million_one_second_windows_build_no_window_list(self, pair_inputs, capsys):
        log, records = pair_inputs
        tracemalloc.start()
        try:
            code = main(["congruence", "--log", str(log), "--contributions", str(records), "--window", "1s",
                         "--window-start", "0", "--window-end", "1000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 5 * 2**20
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == ["129,alice,app,lib,c1,c2"]
        assert err == "1 congruent pairs across 1000000 windows; 0 developers excluded as bots\n"


class TestSample:
    def test_fixture_breakage(self, universe_log, capsys):
        code = main([
            "sample", "--log", str(universe_log), "--at", "5",
            "--metric", "dependents", "--k", "1", "--measure-breakage",
        ])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["selected"] == ["x"]
        assert doc["breakage"]["dangling_use_edges"] == 3

    def test_k_larger_than_ecosystem(self, universe_log, capsys):
        code = main(["sample", "--log", str(universe_log), "--metric", "dependents",
                     "--k", "99", "--measure-breakage"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(doc["selected"]) == {"a", "q", "x"}
        assert doc["breakage"] == {
            "dangling_use_edges": 0,
            "broken_transitive_paths": 0,
            "severed_update_chains": 0,
        }

    def test_breakage_matches_library_call(self, universe_log, capsys):
        from pkgverse.eventlog import replay
        from pkgverse.sampling import SampleSpec, chain_breakage, sample_top_k

        main(["sample", "--log", str(universe_log), "--metric", "activity", "--k", "2",
              "--measure-breakage"])
        doc = json.loads(capsys.readouterr().out)
        graph = replay(universe_log).graph
        snap = graph.timed_snapshot(max(u.time for u in graph.units))
        selected = sample_top_k(snap, SampleSpec("activity", 2))
        report = chain_breakage(snap, set(selected))
        assert doc["selected"] == selected
        assert doc["breakage"]["dangling_use_edges"] == report.dangling_use_edges
        assert doc["breakage"]["broken_transitive_paths"] == report.broken_transitive_paths
        assert doc["breakage"]["severed_update_chains"] == report.severed_update_chains

    def test_contributors_metric_without_file_is_fatal(self, universe_log, capsys):
        assert main(["sample", "--log", str(universe_log), "--metric", "contributors",
                     "--k", "1"]) == 1

    @pytest.mark.parametrize("argv, table, detail", [
        (["--metric", "dependents", "--k", "0"], None, "k must be >= 1"),
        (["--metric", "popularity", "--k", "1"], "package,stars\nx,3\n", "popularity.csv:2:"),
        (["--metric", "popularity", "--k", "1"], "name,score\nx,3\n", "popularity.csv:2:"),
        (["--metric", "popularity", "--k", "1"], "package,score\nx,3\nq,lots\n", "popularity.csv:3:"),
        (["--metric", "popularity", "--k", "1"], "package,score\nx,1\nq,nan\n", "popularity.csv:3:"),
        (["--metric", "popularity", "--k", "1"], "package,score\nx,inf\nq,1\n", "popularity.csv:2:"),
        (["--metric", "popularity", "--k", "1"], "package,score\nx,1\nq,-inf\n", "popularity.csv:3:"),
    ])
    def test_bad_input_exits_1_with_one_error_line(self, universe_log, tmp_path, argv, table, detail):
        if table is not None:
            (tmp_path / "popularity.csv").write_text(table)
            argv = [*argv, "--popularity-csv", str(tmp_path / "popularity.csv")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "pkgverse", "sample", "--log", str(universe_log), *argv],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and detail in line

    def test_bad_contribution_records_are_reported_and_exit_2(self, universe_log, tmp_path, capsys):
        records = tmp_path / "c.ndjson"
        good = '{"id": "c1", "author": "alice", "target": "x", "type": "pr", "time": 1, "merged": true}\n'
        records.write_text(good + "not json\n" + '{"author": "bob"}\n')
        argv = ["sample", "--log", str(universe_log), "--metric", "contributors", "--k", "1"]
        assert main([*argv, "--contributions", str(records)]) == 2
        out, err = capsys.readouterr()
        assert f"quarantined {records}:2: ParseError" in err.splitlines()
        assert f"quarantined {records}:3: SchemaError" in err.splitlines()
        records.write_text(good)
        assert main([*argv, "--contributions", str(records)]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("argv, detail", [
        (["--metric", "dependents", "--contributions", "c.ndjson"], "--contributions"),
        (["--metric", "popularity", "--popularity-csv", "pop.csv", "--contributions", "c.ndjson"],
         "--contributions"),
        (["--metric", "contributors", "--contributions", "c.ndjson", "--popularity-csv", "missing.csv"],
         "--popularity-csv"),
        (["--metric", "activity", "--popularity-csv", "pop.csv"], "--popularity-csv"),
    ])
    def test_a_file_the_metric_does_not_read_is_fatal(self, universe_log, tmp_path, monkeypatch, capsys,
                                                      argv, detail):
        monkeypatch.chdir(tmp_path)
        good = '{"id": "c1", "author": "alice", "target": "x", "type": "pr", "time": 1, "merged": true}\n'
        Path("c.ndjson").write_text(good + "not json\n")
        Path("pop.csv").write_text("package,score\nx,1\n")
        assert main(["sample", "--log", str(universe_log), "--k", "1", *argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith(f"error: {detail} takes --metric ")

    def test_utf8_bom_popularity_csv(self, universe_log, tmp_path, capsys):
        table = tmp_path / "pop.csv"
        table.write_bytes(b"\xef\xbb\xbfpackage,score\nq,9\nx,1\n")
        code = main(["sample", "--log", str(universe_log), "--metric", "popularity", "--k", "1",
                     "--popularity-csv", str(table)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["selected"] == ["q"]

    def test_csv_format(self, universe_log, capsys):
        code = main(["sample", "--log", str(universe_log), "--at", "5", "--metric", "dependents",
                     "--k", "1", "--measure-breakage", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == (
            "rank,package,broken_transitive_paths,dangling_use_edges,severed_update_chains"
        )
        assert lines[1].startswith("1,x,")


class TestActivity:
    def test_report_document(self, universe_log, capsys):
        code = main(["activity", "--log", str(universe_log), "--package", "x",
                     "--window", "2s", "--at", "20"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["package"] == "x"
        assert doc["dormant_but_depended_upon"] is True

    def test_unknown_package_is_fatal(self, universe_log, capsys):
        assert main(["activity", "--log", str(universe_log), "--package", "nope"]) == 1

    @pytest.mark.parametrize("window", ["0", "0d", "-5d"])
    def test_non_positive_window_exits_1_with_one_error_line(self, universe_log, window):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, "-m", "pkgverse", "activity", "--log", str(universe_log), "--package", "x",
             f"--window={window}", "--at", "20"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and "window must be positive" in line

    @pytest.mark.parametrize("window", ["1_0d", "\u0661\u0662s", "+5d"])
    def test_window_takes_only_a_minus_and_ascii_digits(self, universe_log, capsys, window):
        code = main(["activity", "--log", str(universe_log), "--package", "x", f"--window={window}", "--at", "20"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: not a duration")

    @pytest.mark.parametrize("threshold", ["0", "-1"])
    def test_threshold_below_1_exits_1_with_one_error_line(self, universe_log, capsys, threshold):
        # with 0, a package nothing depends upon would be flagged dormant but depended upon
        code = main(["activity", "--log", str(universe_log), "--package", "x", "--threshold", threshold])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: --threshold must be at least 1, got {threshold}"]

    def test_csv_format_single_row(self, universe_log, capsys):
        code = main(["activity", "--log", str(universe_log), "--package", "x",
                     "--window", "2s", "--at", "20", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(lines) == 2
        assert "dormant_but_depended_upon" in lines[0]


class TestRegistries:
    def test_csv_table(self, capsys):
        code = main(["registries"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 14  # header + 13 registries

    def test_single_lookup_json(self, capsys):
        code = main(["registries", "--ecosystem", "npm", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc[0]["tree_style"] == "nested"

    def test_unknown_is_fatal(self, capsys):
        assert main(["registries", "--ecosystem", "nope"]) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_utf8_bom_table(self, tmp_path, capsys, fmt):
        text = b"ecosystem,language,tiobe_rank,environment,tree_style,archive_url\nnpm,JavaScript,7,Node.js,nested,npmjs.com\n"
        (tmp_path / "plain.csv").write_bytes(text)
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text)
        assert main(["registries", "--format", fmt, "--table", str(tmp_path / "plain.csv")]) == 0
        plain = capsys.readouterr().out
        assert main(["registries", "--format", fmt, "--table", str(tmp_path / "bom.csv")]) == 0
        assert capsys.readouterr().out == plain
        assert "npmjs.com" in plain


class TestImportFootprint:
    def test_cli_loads_only_light_stdlib_modules(self):
        # What `import pkgverse.cli` adds to a fresh interpreter (-S: no site
        # imports): stdlib modules only, and none of the mail, HTTP and XML
        # packages or urllib.request, which xml.sax.saxutils once pulled in
        # with 6 MB of RSS. pathlib itself imports urllib.parse.
        code = "import sys; b = set(sys.modules); import pkgverse.cli; print(*sorted(set(sys.modules) - b))"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env=dict(os.environ, PYTHONPATH=str(REPO / "src")), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "pkgverse.cli" in loaded
        assert {name.partition(".")[0] for name in loaded} - {"pkgverse"} <= sys.stdlib_module_names
        heavy = [n for n in loaded if n == "urllib.request" or n.partition(".")[0] in ("email", "http", "xml")]
        assert heavy == []


class TestSnapshotStreaming:
    @pytest.mark.parametrize("fmt", ["json", "dot", "graphml"])
    def test_stdout_and_out_file_hold_the_same_bytes(self, universe_log, tmp_path, capsys, fmt):
        argv = ["snapshot", "--log", str(universe_log), "--at", "99", "--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        path = tmp_path / f"snap.{fmt}"
        assert main([*argv, "--out", str(path)]) == 0
        assert path.read_bytes() == out.encode("utf-8")
        graph = replay(universe_log).graph
        assert out == getattr(export, f"snapshot_to_{fmt}")(graph.timed_snapshot(99))

    def test_series_files_are_the_point_snapshots(self, universe_log, tmp_path, capsys):
        out_dir = tmp_path / "series"
        assert main(["snapshot", "--log", str(universe_log), "--at", "-1",
                     "--series-until", "7", "--series-step", "3s", "--out-dir", str(out_dir)]) == 0
        graph = replay(universe_log).graph
        assert sorted(p.name for p in out_dir.iterdir()) == ["snapshot_-1.dot", "snapshot_2.dot", "snapshot_5.dot"]
        for t in (-1, 2, 5):
            assert (out_dir / f"snapshot_{t}.dot").read_text() == reference_dot(graph.timed_snapshot(t))

    @pytest.mark.parametrize("until, step", [("5", "0s"), ("-3", "1s")])
    def test_bad_series_range_writes_nothing(self, universe_log, tmp_path, capsys, until, step):
        out_dir = tmp_path / "series"
        assert main(["snapshot", "--log", str(universe_log), "--at", "0",
                     "--series-until", until, "--series-step", step, "--out-dir", str(out_dir)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert not out_dir.exists()


class TestSampleAliases:
    def test_contributors_merge_the_logs_aliases(self, universe_log, tmp_path, capsys):
        records = tmp_path / "c.ndjson"
        records.write_text("".join(
            json.dumps({"id": cid, "author": dev, "target": target, "type": "issue", "time": 1}) + "\n"
            for cid, dev, target in [("c1", "alice", "x"), ("c2", "a.jones", "x"), ("c3", "bob", "q")]
        ))
        argv = ["sample", "--log", str(universe_log), "--metric", "contributors", "--k", "1",
                "--contributions", str(records)]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["selected"] == ["x"]  # two contributors
        with EventLog(universe_log) as log:
            log.append(alias_event("alice", "a.jones"))
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["selected"] == ["q"]  # one each; q ranks first by name


class TestUnreadableIngestInput:
    HEADER = "platform,name,version,released_at,dep_name,dep_requirement\n"

    def test_field_over_the_csv_limit_is_one_error_line(self, tmp_path, capsys):
        dump = tmp_path / "d.csv"
        dump.write_text(self.HEADER + "npm,lib,1.0.0,5,,\nnpm,app,1.0.0,6,lib," + "x" * 200_000 + "\n")
        log = tmp_path / "log.ndjson"
        assert main(["ingest", str(dump), "--kind", "dump", "--log", str(log)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {dump}:3: field larger than field limit")
        assert [json.loads(r)["name"] for r in log.read_text().splitlines()] == ["lib"]  # rows before it

    @pytest.mark.parametrize("kind, text", [
        ("dump", HEADER.encode() + b"npm,\xff,1.0.0,5,,\n"),
        ("contributions", b'{"author": "\xff", "target": "app", "type": "pr", "time": 5}\n'),
    ], ids=["dump", "contributions"])
    def test_bytes_that_are_not_utf8_are_one_error_line(self, tmp_path, capsys, kind, text):
        source = tmp_path / "input.txt"
        source.write_bytes(text)
        assert main(["ingest", str(source), "--kind", kind, "--log", str(tmp_path / "log.ndjson")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {source}: 'utf-8' codec can't decode byte 0xff")

    def test_too_deep_or_too_long_json_records_are_quarantined(self, tmp_path, capsys):
        source = tmp_path / "c.ndjson"
        good = '{"author": "alice", "target": "app", "type": "pr", "time": 5}'
        source.write_text("\n".join([good, "[" * 200_000 + "]" * 200_000, good.replace("5", "9" * 5000)]) + "\n")
        log = tmp_path / "log.ndjson"
        assert main(["ingest", str(source), "--kind", "contributions", "--log", str(log)]) == 2
        assert "appended 1 contribution; 2 quarantined" in capsys.readouterr().err
        report = [json.loads(r) for r in (tmp_path / "log.ndjson.quarantine.ndjson").read_text().splitlines()]
        assert [(q["line"], q["reason"]) for q in report] == [(2, "ParseError"), (3, "ParseError")]

    def test_too_deep_manifest_is_one_error_line(self, tmp_path, capsys):
        manifest = tmp_path / "package.json"
        manifest.write_text('{"name": "app", "version": "1.0.0", "dependencies": ' + "[" * 200_000 + "]" * 200_000 + "}")
        assert main(["ingest", str(manifest), "--kind", "manifest", "--log", str(tmp_path / "log.ndjson")]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: malformed JSON: ")

    def test_too_deep_log_line_is_a_damaged_line(self, tmp_path, capsys):
        log = tmp_path / "log.ndjson"
        deep = "[" * 200_000 + "]" * 200_000
        log.write_text('{"v":1,"seq":1,"kind":"unit","name":"a","release":"1","time":5}\n' + deep + "\n")
        assert main(["snapshot", "--at", "9", "--log", str(log)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {log}:2: maximum recursion depth exceeded")

    @pytest.mark.parametrize("argv", [["congruence"], ["sample", "--metric", "contributors", "--k", "1"]],
                             ids=["congruence", "sample"])
    def test_contribution_file_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys, argv):
        log = tmp_path / "log.ndjson"
        log.write_text('{"v":1,"seq":1,"kind":"unit","name":"app","release":"1.0.0","time":5}\n')
        source = tmp_path / "c.ndjson"
        source.write_bytes(b'{"author": "\xff", "target": "app", "type": "pr", "time": 5}\n')
        assert main([*argv, "--log", str(log), "--contributions", str(source)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {source}: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("argv, table", [
        (["sample", "--metric", "popularity", "--k", "1", "--log", "log.ndjson", "--popularity-csv"],
         "package,score\napp,1\nlib," + "9" * 200_000 + "\n"),
        (["registries", "--table"],
         "ecosystem,language,tiobe_rank,environment,tree_style,archive_url\n"
         "npm,JavaScript,7,Node.js,nested,https://example.org\npypi," + "x" * 200_000 + ",1,CPython,flat,u\n"),
    ], ids=["popularity", "registries"])
    def test_cell_over_the_csv_limit_in_a_table_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv, table):
        monkeypatch.chdir(tmp_path)
        Path("log.ndjson").write_text('{"v":1,"seq":1,"kind":"unit","name":"app","release":"1.0.0","time":5}\n')
        Path("table.csv").write_text(table)
        assert main([*argv, "table.csv"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: table.csv:3: field larger than field limit (131072)"]

    @pytest.mark.parametrize("argv", [
        ["sample", "--metric", "popularity", "--k", "1", "--log", "log.ndjson", "--popularity-csv"],
        ["registries", "--table"],
    ], ids=["popularity", "registries"])
    def test_table_that_is_not_utf8_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        Path("log.ndjson").write_text('{"v":1,"seq":1,"kind":"unit","name":"app","release":"1.0.0","time":5}\n')
        Path("table.csv").write_bytes(b"package,score\napp,\xff\n")
        assert main([*argv, "table.csv"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: table.csv: 'utf-8' codec can't decode byte 0xff")
