"""
Who contributes across a dependency edge?
=========================================

Joining contribution streams with the dependency graph inside a time
window surfaces *congruent* pairs: one developer landing work on a client
and on a library the client uses. Before pairing, raw identities are
merged (same email, or an explicit alias file) and bot accounts are
filtered out with cheap heuristics.
"""

from pkgverse import (
    classify_bot,
    congruence_windows,
    congruent_contributions,
    merge_identities,
    window_partition,
)
from pkgverse.contrib import canonicalize_contributions, filter_contributions
from pkgverse.fixtures import client_library_fixture

graph, contributions = client_library_fixture(include_bot=True)

# identity merging: two spellings of one person, joined by an alias file
devs = merge_identities(
    [("alice", "alice@example.org"), ("a-jones", "alice@example.org"), ("bob", "bob@example.org")],
    extra_aliases=[("alice", "a-jones")],
)
for d in devs:
    print(f"developer {d.canonical_id}: aliases {sorted(d.aliases)}")
contributions = canonicalize_contributions(contributions, devs)

# bot filtering: the dependency-update account is excluded by default
by_dev = {}
for c in contributions:
    by_dev.setdefault(c.developer, []).append(c)
bots = set()
for dev, items in by_dev.items():
    flagged, score = classify_bot(dev, items)
    print(f"bot score for {dev:12s} {score:.2f}" + ("  -> excluded" if flagged else ""))
    if flagged:
        bots.add(dev)
human = filter_contributions(contributions, exclude_developers=bots)

# a three-month window per the usual analysis granularity; the sweep builds
# the dependency-contribution graph of each window holding a contribution
print("\nanalysis windows:", [(w.start, w.end) for w in window_partition(0, 90 * 86400)])

for window, dc in congruence_windows(graph, human, 0, 90 * 86400):
    print(f"\nwindow ({window.start}, {window.end}]:")
    print("  dependency edges:  ", sorted(dc.dependency_edges))
    print("  contribution edges:", sorted(dc.contribution_edges))
    for pair in congruent_contributions(dc):
        print(
            f"  congruent: {pair.developer} touched {pair.client} ({pair.client_contribution}) "
            f"and its dependency {pair.library} ({pair.library_contribution})"
        )
