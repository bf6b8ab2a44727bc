"""The CLI contract as a golden corpus.

Every step runs ``cli.main`` in-process, in one working directory that the
steps share in order, with relative paths only, so nothing it prints
depends on where the directory is. A step is recorded as its exit code, the
sha256 of its stdout and stderr, and the sha256 of every file it created or
changed, logs and quarantine reports included. ``golden_cli.json`` holds
the recorded table. Nothing rewrites it: an intended change of an output
byte edits it by hand and says so in ``CHANGES.md``.
"""

import hashlib
import json
import random
from pathlib import Path

from pkgverse.cli import main

TABLE = Path(__file__).with_name("golden_cli.json")


def _random_log(seed: int, events: int = 80) -> str:
    """A log drawn from ``random.Random(seed)``: units, and use and update
    edges mostly between units declared before them, over a small pool of
    names and releases, so that replay quarantines repeated releases,
    unknown references and axiom violations; one line in ten has a field of
    the wrong type, the non-ASCII name is escaped, and the log ends in a
    torn fragment of one more line."""
    rng = random.Random(seed)
    names, releases = ["a", "b", "c", "é"], ["1.0.0", "1.1.0", "1.2.0", "2.0.0", "2.1.0", "3.0.0"]
    declared, lines = [], []

    def ref():  # three in four a declared unit
        if declared and rng.randrange(4):
            return list(rng.choice(declared))
        return [rng.choice(names), rng.choice(releases)]

    for seq in range(1, events + 1):
        kind = rng.choice(["unit", "unit", "use", "use", "update"])
        if kind == "unit":
            declared.append((rng.choice(names), rng.choice(releases)))
            payload = {"name": declared[-1][0], "release": declared[-1][1], "time": rng.randrange(100)}
        else:
            payload = {"from": ref(), "to": ref()}
        if rng.randrange(10) == 0:
            payload[rng.choice(sorted(payload))] = 1.5
        lines.append(json.dumps({"v": 1, "seq": seq, "kind": kind, **payload}, separators=(",", ":")) + "\n")
    return "".join(lines) + f'{{"v":1,"seq":{events + 1},"kind":"un'


INPUTS = {
    # one row with an unreadable time is quarantined; the non-ASCII name is
    # escaped in the log and written as text by the exports
    "dump.csv": (
        "platform,name,version,released_at,dep_name,dep_requirement\n"
        "npm,utils,1.0.0,100,,\n"
        "npm,utils,1.1.0,200,,\n"
        "npm,parser,1.0.0,150,utils,1.0.0\n"
        "npm,parser,2.0.0,300,utils,1.1.0\n"
        "npm,app,1.0.0,250,parser,1.0.0\n"
        "npm,app,1.0.0,250,utils,1.1.0\n"
        "npm,app,2.0.0,400,parser,2.0.0\n"
        "npm,café,0.1.0,350,utils,1.1.0\n"
        "npm,app,2.1.0,not-a-time,parser,2.0.0\n"
    ),
    # the line that is not JSON is quarantined
    "prs.ndjson": "\n".join([
        '{"id": "c1", "author": "alice", "target": "app", "type": "pr", "time": 260, "merged": true}',
        '{"id": "c2", "author": "alice", "target": "parser", "type": "issue", "time": 270}',
        '{"id": "c3", "author": "bob", "target": "parser", "type": "pr", "time": 310, "merged": true}',
        '{"id": "c4", "author": "bob", "target": "utils", "type": "pr", "time": 320, "merged": true}',
        '{"id": "c5", "author": "bob", "target": "café", "type": "discussion", "time": 360}',
        '{"id": "b1", "author": "dependabot", "target": "app", "type": "pr", "time": 265,'
        ' "merged": true, "title": "bump parser from 1.0.0 to 2.0.0"}',
        '{"id": "b2", "author": "dependabot", "target": "parser", "type": "pr", "time": 275,'
        ' "merged": true, "title": "bump utils from 1.0.0 to 1.1.0"}',
        "not json",
    ]) + "\n",
    # an exact pin, a range and a devDependency
    "package.json": json.dumps({
        "name": "site",
        "version": "1.0.0",
        "dependencies": {"app": "2.0.0", "utils": "^1.0.0"},
        "devDependencies": {"parser": "2.0.0"},
    }),
    "pop.csv": "package,score\nutils,3\nparser,9\napp,1\ncafé,5\n",
    "random.ndjson": _random_log(seed=19),
    # one cell longer than csv.field_size_limit(), in the third row of each
    "big-pop.csv": "package,score\nutils,3\nparser," + "9" * 200_000 + "\n",
    "big-registries.csv": (
        "ecosystem,language,tiobe_rank,environment,tree_style,archive_url\n"
        "npm,JavaScript,7,Node.js,nested,https://example.org\npypi," + "x" * 200_000 + ",1,CPython,flat,u\n"
    ),
    # alias events merge "Alice", "ALICE" (a spelling differing only in
    # case) and "a.jones" into one developer, who then works on both ends
    # of app -> lib, and lib falls from two contributors to one
    "aliases.ndjson": "".join(line + "\n" for line in [
        '{"v":1,"seq":1,"kind":"unit","name":"lib","release":"1.0.0","time":10}',
        '{"v":1,"seq":2,"kind":"unit","name":"app","release":"1.0.0","time":20}',
        '{"v":1,"seq":3,"kind":"unit","name":"tool","release":"1.0.0","time":30}',
        '{"v":1,"seq":4,"kind":"use","from":["app","1.0.0"],"to":["lib","1.0.0"]}',
        '{"v":1,"seq":5,"kind":"use","from":["tool","1.0.0"],"to":["lib","1.0.0"]}',
        '{"v":1,"seq":6,"kind":"developer-alias","canonical":"alice","alias":"a.jones"}',
        '{"v":1,"seq":7,"kind":"developer-alias","canonical":"alice","alias":"ALICE"}',
    ]),
    "aliased-prs.ndjson": "".join(line + "\n" for line in [
        '{"id": "a1", "author": "Alice", "target": "app", "type": "pr", "time": 100, "merged": true}',
        '{"id": "a2", "author": "a.jones", "target": "lib", "type": "issue", "time": 110}',
        '{"id": "a3", "author": "ALICE", "target": "lib", "type": "discussion", "time": 120}',
        '{"id": "t1", "author": "bob", "target": "tool", "type": "pr", "time": 105, "merged": true}',
        '{"id": "t2", "author": "carol", "target": "tool", "type": "issue", "time": 115}',
    ]),
}

LOG = ["--log", "eco.ndjson"]

STEPS = [
    ("ingest dump", ["ingest", "dump.csv", "--kind", "dump", *LOG]),
    ("ingest contributions", ["ingest", "prs.ndjson", "--kind", "contributions", *LOG]),
    ("ingest manifest", ["ingest", "package.json", "--kind", "manifest", "--include-dev", "--time", "500",
                         "--log", "site.ndjson"]),
    ("snapshot with replay quarantine", ["snapshot", "--at", "500", "--log", "site.ndjson"]),
    ("snapshot json", ["snapshot", "--at", "300", *LOG]),
    ("snapshot json --out", ["snapshot", "--at", "400", "--out", "eco.json", *LOG]),
    ("snapshot dot --out", ["snapshot", "--at", "400", "--format", "dot", "--out", "eco.dot", *LOG]),
    ("snapshot graphml", ["snapshot", "--at", "400", "--format", "graphml", *LOG]),
    ("snapshot graphml --out", ["snapshot", "--at", "350", "--format", "graphml", "--out", "eco.graphml", *LOG]),
    ("snapshot series", ["snapshot", "--at", "0", "--series-until", "400", "--series-step", "100s",
                         "--out-dir", "series", *LOG]),
    ("resolve nested", ["resolve", "--root", "app@1.0.0", *LOG]),
    ("resolve flat", ["resolve", "--root", "app@1.0.0", "--style", "flat", *LOG]),
    ("resolve lock", ["resolve", "--root", "app@1.0.0", "--style", "flat", "--format", "lock", *LOG]),
    ("resolve nested lock --at", ["resolve", "--root", "parser@1.0.0", "--at", "200", "--format", "lock",
                                  "--out", "parser.lock", *LOG]),
    ("sample json", ["sample", "--metric", "dependents", "--k", "2", "--measure-breakage", *LOG]),
    ("sample csv", ["sample", "--metric", "dependents", "--k", "3", "--measure-breakage", "--format", "csv",
                    *LOG]),
    ("sample contributors", ["sample", "--metric", "contributors", "--k", "2", "--contributions", "prs.ndjson",
                             "--format", "csv", *LOG]),
    ("sample popularity", ["sample", "--metric", "popularity", "--k", "2", "--popularity-csv", "pop.csv",
                           "--at", "350", "--measure-breakage", "--out", "sample.json", *LOG]),
    ("congruence", ["congruence", "--contributions", "prs.ndjson", "--window", "100s", *LOG]),
    ("congruence keep bots", ["congruence", "--contributions", "prs.ndjson", "--window", "50s",
                              "--window-start", "250", "--window-end", "400", "--keep-bots", *LOG]),
    ("congruence cross window", ["congruence", "--contributions", "prs.ndjson", "--cross-window",
                                 "--out", "pairs.csv", *LOG]),
    ("activity", ["activity", "--package", "utils", "--window", "100s", *LOG]),
    ("activity csv", ["activity", "--package", "parser", "--window", "1d", "--at", "350", "--format", "csv",
                      *LOG]),
    ("registries", ["registries"]),
    ("registries json", ["registries", "--ecosystem", "npm", "--format", "json"]),
    ("error: root without a version", ["resolve", "--root", "app", *LOG]),
    ("error: unknown package", ["activity", "--package", "nope", *LOG]),
    ("snapshot random log", ["snapshot", "--at", "60", "--log", "random.ndjson"]),
    ("activity random log", ["activity", "--package", "a", "--window", "30s", "--log", "random.ndjson"]),
    ("error: popularity cell over the csv limit", ["sample", "--metric", "popularity", "--k", "1",
                                                   "--popularity-csv", "big-pop.csv", *LOG]),
    ("error: registries cell over the csv limit", ["registries", "--table", "big-registries.csv"]),
    ("congruence with log aliases", ["congruence", "--contributions", "aliased-prs.ndjson",
                                     "--log", "aliases.ndjson"]),
    ("sample contributors with log aliases", ["sample", "--metric", "contributors", "--k", "2", "--at", "200",
                                              "--contributions", "aliased-prs.ndjson", "--format", "csv",
                                              "--log", "aliases.ndjson"]),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): _sha256(p.read_bytes()) for p in root.rglob("*") if p.is_file()}


def test_every_step_matches_the_recorded_table(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in INPUTS.items():
        Path(name).write_bytes(text.encode("utf-8"))
    recorded = {}
    before = _files(tmp_path)
    for step, argv in STEPS:
        code = main(argv)
        out, err = capsys.readouterr()
        after = _files(tmp_path)
        recorded[step] = {
            "argv": argv,
            "exit": code,
            "stdout": _sha256(out.encode("utf-8")),
            "stderr": _sha256(err.encode("utf-8")),
            "files": {path: digest for path, digest in sorted(after.items()) if before.get(path) != digest},
        }
        before = after
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    differing = [step for step in expected.keys() | recorded.keys() if expected.get(step) != recorded.get(step)]
    assert not differing, f"steps that differ from {TABLE.name}: {sorted(differing)}"
