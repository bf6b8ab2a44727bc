"""
The full pipeline from the command line
=======================================

Everything the library does is scriptable: ingest raw files into the event
log, then snapshot, resolve, sample and detect congruence from that log.
This demo shells out to the installed CLI exactly as a user would.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(*args):
    """Run one CLI command; stop the demo if it does not succeed (no input
    here is malformed, so no command should quarantine and exit 2)."""
    cmd = [sys.executable, "-m", "pkgverse", *args]
    print("\n$", "pkgverse", " ".join(args))
    proc = subprocess.run(cmd, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"pkgverse {args[0]} exited with {proc.returncode}, expected 0")


with tempfile.TemporaryDirectory(prefix="pkgverse-cli-") as tmp:
    workdir = Path(tmp)
    log = workdir / "ecosystem.ndjson"

    dump = workdir / "registry.csv"
    dump.write_text(
        "platform,name,version,released_at,dep_name,dep_requirement\n"
        "npm,utils,1.0.0,100,,\n"
        "npm,parser,1.0.0,200,utils,1.0.0\n"
        "npm,app,1.0.0,300,parser,1.0.0\n"
        "npm,app,1.0.0,300,utils,1.0.0\n"
    )

    contributions = workdir / "contributions.ndjson"
    contributions.write_text(
        "\n".join(
            json.dumps(r)
            for r in [
                {"id": "c1", "author": "alice", "target": "app", "type": "pr", "time": 310, "merged": True},
                {"id": "c2", "author": "alice", "target": "parser", "type": "issue", "time": 320},
                {"id": "c3", "author": "bob", "target": "app", "type": "pr", "time": 330, "merged": True},
                {"id": "c4", "author": "bob", "target": "utils", "type": "pr", "time": 340, "merged": True},
            ]
        )
        + "\n"
    )

    run("ingest", str(dump), "--kind", "dump", "--log", str(log))
    run("snapshot", "--log", str(log), "--at", "250", "--format", "dot")
    run("resolve", "--log", str(log), "--root", "app@1.0.0", "--style", "flat", "--format", "lock")
    run("sample", "--log", str(log), "--metric", "dependents", "--k", "1", "--measure-breakage")
    run("congruence", "--log", str(log), "--contributions", str(contributions), "--window", "90d")
    run("activity", "--log", str(log), "--package", "utils", "--window", "90d")
    run("registries", "--ecosystem", "npm")
