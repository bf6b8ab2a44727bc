"""
Sampling an ecosystem without fooling yourself
==============================================

Keeping only the "important" packages changes the network you study. This
demo ranks packages by dependents, measures exactly what a subset severs
(dangling edges, broken reachability, discarded update chains), walks the
graph through time as a snapshot series, and checks whether a quiet
package is dormant-but-depended-upon rather than dead.
"""

import tempfile

from pkgverse import SampleSpec, activity_report, chain_breakage, sample_top_k, snapshot_series
from pkgverse.export import export_snapshot_series
from pkgverse.fixtures import sample_universe_extended

g, _ = sample_universe_extended()
now = max(u.time for u in g.units)
snap = g.timed_snapshot(now)

top = sample_top_k(snap, SampleSpec(metric="dependents", k=1))
print("most depended-upon package:", top)

report = chain_breakage(snap, set(top))
print("\nkeeping only that package severs:")
print("  dangling use-edges:      ", report.dangling_use_edges)
print("  broken transitive paths: ", report.broken_transitive_paths)
print("  severed update chains:   ", report.severed_update_chains)

full = chain_breakage(snap, snap.names())
print("keeping everything severs nothing:", full.all_zero())

series = snapshot_series(g, 0, now, 2)
print("\nsnapshot series sizes:", [(s.at, len(s.units)) for s in series])
with tempfile.TemporaryDirectory(prefix="pkgverse-series-") as out_dir:
    paths = export_snapshot_series(series, out_dir)
    print("wrote", len(paths), "DOT files:", ", ".join(p.name for p in paths))

# x released nothing recently but still carries dependents: dormant, not dead
activity = activity_report(g, "x", window=1, at=now)
print(
    f"\npackage x: {activity.releases_in_window} releases in the last window, "
    f"{activity.dependent_count} dependents, "
    f"dormant-but-depended-upon={activity.dormant_but_depended_upon}"
)
