"""
The event log: durable, replayable history
===========================================

The log is newline-delimited JSON, append-only, with sequence numbers
assigned by the log itself. Replaying the same bytes always rebuilds the
same graph; events that violate the model's rules are quarantined with a
reason instead of poisoning the rest of the ingest.
"""

import tempfile
from pathlib import Path

from pkgverse import EventLog, replay
from pkgverse.eventlog import unit_event, update_event, use_event

with tempfile.TemporaryDirectory(prefix="pkgverse-demo-") as workdir:
    log_path = Path(workdir) / "ecosystem.ndjson"

    with EventLog(log_path) as log:
        log.append(unit_event("redis-client", "1.0.0", 100))
        log.append(unit_event("redis-client", "1.1.0", 200))
        log.append(unit_event("webapp", "0.9.0", 250))
        log.append(use_event(("webapp", "0.9.0"), ("redis-client", "1.1.0")))
        log.append(update_event(("redis-client", "1.0.0"), ("redis-client", "1.1.0")))
        # two events that cannot be applied: an unknown target and a
        # backwards-in-time update
        log.append(use_event(("webapp", "0.9.0"), ("ghost", "1.0.0")))
        log.append(update_event(("redis-client", "1.1.0"), ("redis-client", "1.0.0")))

    print("log contents:")
    for line in log_path.read_text().splitlines():
        print("  ", line)

    result = replay(log_path)
    print("\nreplayed:", result.graph)
    print("quarantined events:")
    for q in result.quarantine:
        print(f"   line {q.line_no}: {q.reason} — {q.detail}")

    # the replayed graph answers historical questions, keyed on release time
    for t in (150, 300):
        snap = result.graph.timed_snapshot(t)
        print(f"\nstate at t={t}:", sorted(f"{u.name}@{u.release}" for u in snap.units))
        print("   use-edges:", len(snap.use_edges), " update-edges:", len(snap.update_edges))
