"""Sampling strategies and the distortion they inflict on the network.

Researchers rarely analyse a whole ecosystem; they keep the top-k packages
by some importance metric, or a time slice. Both moves bias the picture:
keeping a subset severs dependency chains, and the network itself drifts
over time. This module provides deterministic top-k selection, a
three-count report quantifying how badly a subset breaks the dependency
structure, an evenly spaced snapshot series for temporal studies, and a
per-package activity report that flags dormant-but-depended-upon libraries
without branding them failures (feature-complete libraries go quiet while
remaining heavily used). Rankings read the snapshot's instant: a developer
counts as a contributor only for contributions made by ``snapshot.at``.

Chain breakage has no single canonical formula; the three counts here are
one concretization, computed against the package-level projection:

* ``dangling_use_edges`` — release-level use-edges with exactly one
  endpoint's package inside the subset (a boundary measure, symmetric
  between a subset and its complement);
* ``broken_transitive_paths`` — ordered package pairs reachable in the
  full projection but not inside the subset-induced projection;
* ``severed_update_chains`` — update chains (maximal runs of linked
  releases, two or more long) that the subset discards entirely;
  name-level subsets drop whole packages, so discarding is the only way
  a chain can break. A chain is counted by its head, the one linked
  release that no update edge leads to.

Reachable pairs are counted, never enumerated. An iterative Tarjan pass
condenses the projection into strongly connected components, which it
emits successors first. Each emitted component takes the next bit
positions for its members, so everything it reaches sits at lower
positions. It keeps a Python-int bitset of the packages it reaches outside
itself, the OR of its successor components' bitsets and members, next to
the start and size of its own run of positions. A package in a
multi-member component also reaches its fellow members, never itself. The
subset-induced projection is a subgraph of the full one, so ``broken =
|R(full)| - |R(subset)|``. For P packages, E package edges and C components
this costs O(P + E) steps plus O(E·P/64) machine words of bitset work, in
place of the O(P·(P+E)) time and one set entry per reachable pair of a
per-package search. A bitset is as wide as the highest position it
reaches, and packages that many others use are emitted early, at low
positions, so memory follows what components reach rather than the number
of packages. Holding a component's own members in its bitset would make
every late-emitted one about P bits wide.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .contrib import Contribution
from .errors import InsufficientData, InvalidRange, UnknownPackage
from .graph import TimedSnapshot, UniverseGraph

__all__ = [
    "SampleSpec",
    "BreakageReport",
    "ActivityReport",
    "sample_top_k",
    "chain_breakage",
    "snapshot_series",
    "series_instants",
    "activity_report",
]

METRICS = ("dependents", "contributors", "activity", "popularity")


@dataclass(frozen=True)
class SampleSpec:
    """How to pick packages: a ranking metric and how many to keep.

    Ties always break by ascending package name, making selection
    deterministic. ``popularity`` ranks by an externally supplied score
    column (downloads, stars), since the graph itself has no native
    popularity source.
    """

    metric: str
    k: int

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class BreakageReport:
    dangling_use_edges: int
    broken_transitive_paths: int
    severed_update_chains: int

    def all_zero(self) -> bool:
        return not (
            self.dangling_use_edges
            or self.broken_transitive_paths
            or self.severed_update_chains
        )


def _scores(snapshot: TimedSnapshot, metric: str, contributions, popularity):
    packages = sorted(snapshot.names())
    if metric == "activity":
        return {p: len(snapshot.units_of_name(p)) for p in packages}
    if metric == "dependents":  # the projection holds each (client, library) pair once
        counts = Counter(library for _, library in snapshot.package_dependency_edges())
    elif metric == "contributors":
        if contributions is None:
            raise InsufficientData("metric 'contributors' needs a contribution list")
        pairs = {(c.target, c.developer) for c in contributions if c.time <= snapshot.at}
        counts = Counter(target for target, _ in pairs)
    elif popularity is None:
        raise InsufficientData("metric 'popularity' needs an external score table")
    else:
        counts = popularity
    return {p: counts.get(p, 0) for p in packages}


def sample_top_k(
    snapshot: TimedSnapshot,
    spec: SampleSpec,
    contributions: list[Contribution] | None = None,
    popularity: dict[str, float] | None = None,
) -> list[str]:
    """The k top-ranked package names, in rank order (score desc, name asc)."""
    scores = _scores(snapshot, spec.metric, contributions, popularity)
    ranked = sorted(scores, key=lambda p: (-scores[p], p))
    return ranked[: spec.k]


def _reachable_pair_count(packages, edges) -> int:
    """Number of ordered pairs (a, b), a != b, with b reachable from a.

    ``edges`` must only join members of ``packages``.
    """
    index = {p: i for i, p in enumerate(packages)}
    out: list[list[int]] = [[] for _ in index]
    for a, b in edges:
        out[index[a]].append(index[b])

    # iterative Tarjan; each component takes the next ``size`` bit positions
    # as it is emitted, so its successors hold lower ones, and ``closure[c]``
    # is ``(bits, start, size)``: the bitset of packages reachable from
    # component c outside it, and the positions of its members
    n = len(out)
    disc = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    closure: list[tuple[int, int, int]] = []
    position = 0
    counter = 0
    total = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(out[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if disc[w] < 0:
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(out[w])))
                    break
                if comp[w] < 0 and disc[w] < low[v]:  # discovered, no component: on the stack
                    low[v] = disc[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] != disc[v]:
                    continue
                # v roots a component; every successor outside it is done
                c = len(closure)
                members = []
                while True:
                    w = stack.pop()
                    comp[w] = c
                    members.append(w)
                    if w == v:
                        break
                successor_comps = set()
                for w in members:
                    successor_comps.update(comp[x] for x in out[w])
                successor_comps.discard(c)
                bits = 0
                for d in successor_comps:
                    reached, start, size = closure[d]
                    bits |= reached | (((1 << size) - 1) << start)
                size = len(members)
                closure.append((bits, position, size))
                position += size
                # each member reaches everything beyond its component and
                # its fellow members, never itself
                total += size * (bits.bit_count() + size - 1)
    return total


def chain_breakage(snapshot: TimedSnapshot, subset: set[str]) -> BreakageReport:
    """Measure what analysing only ``subset`` would destroy.

    ``subset`` must name packages present in the snapshot. All counts are
    zero when the subset is the whole snapshot.
    """
    packages = snapshot.names()
    unknown = set(subset) - packages
    if unknown:
        raise UnknownPackage(f"not in snapshot: {sorted(unknown)}")
    subset = set(subset)

    name_of = {u.uid: u.name for u in snapshot.units}
    dangling = sum(
        1
        for e in snapshot.use_edges
        if (name_of[e.src] in subset) != (name_of[e.dst] in subset)
    )

    edges = snapshot.package_dependency_edges()
    kept_edges = [(a, b) for a, b in edges if a in subset and b in subset]
    # sorted, so the traversal (and its depth) does not depend on hashing
    broken = _reachable_pair_count(sorted(packages), edges) - _reachable_pair_count(
        sorted(subset), kept_edges
    )

    # chains are linear, so each has one head: the source of its first edge
    successors = {e.dst for e in snapshot.update_edges}
    severed = sum(
        1 for e in snapshot.update_edges if e.src not in successors and name_of[e.src] not in subset
    )
    return BreakageReport(
        dangling_use_edges=dangling,
        broken_transitive_paths=broken,
        severed_update_chains=severed,
    )


def series_instants(t0: int, t1: int, step: int) -> range:
    """t0, t0+step, ... up to and including t1 when it falls on a step
    multiple; :class:`InvalidRange` when t1 < t0 or step is not positive."""
    if t1 < t0:
        raise InvalidRange(f"t1={t1} before t0={t0}")
    if step <= 0:
        raise InvalidRange(f"step must be positive, got {step}")
    return range(t0, t1 + 1, step)


def snapshot_series(g: UniverseGraph, t0: int, t1: int, step: int) -> list[TimedSnapshot]:
    """Snapshots at :func:`series_instants`, built in one sweep of the time
    index (:meth:`UniverseGraph.timed_snapshots`), each from the one before
    it. Consecutive pairs feed :func:`pkgverse.graph.diff`."""
    return list(g.timed_snapshots(series_instants(t0, t1, step)))


@dataclass(frozen=True)
class ActivityReport:
    """Release activity of one package around an observation instant.

    ``dormant_but_depended_upon`` marks quiet-but-used packages; quiet
    explicitly does not mean failed, so the flag is a prompt for a closer
    look, not a verdict.
    """

    package: str
    at: int
    window: int
    releases_in_window: int
    last_release_time: int
    time_since_last_release: int
    dependent_count: int
    dormant_but_depended_upon: bool


def activity_report(
    g: UniverseGraph | TimedSnapshot,
    package: str,
    window: int,
    at: int | None = None,
    dormant_threshold: int = 1,
) -> ActivityReport:
    """Summarize one package's recent releases and current dependents.

    ``at`` defaults to the newest release time in the graph; the window is
    the half-open interval ``(at - window, at]``. On either kind of graph
    only units released at or before ``at`` count, as in
    ``g.timed_snapshot(at)``, but the query reads the graph's own maps
    instead of building that snapshot. A ``window`` that is not positive or
    a ``dormant_threshold`` below 1 raises :class:`InvalidRange`.
    """
    if window <= 0:
        raise InvalidRange(f"window must be positive, got {window}")
    if dormant_threshold < 1:  # below 1 would flag a package nothing depends upon
        raise InvalidRange(f"dormant_threshold must be at least 1, got {dormant_threshold}")
    live = isinstance(g, UniverseGraph)
    if at is None:
        if live and not g.unit_count():
            raise UnknownPackage(f"{package!r}: graph is empty")
        at = max(u.time for u in g.units) if live else g.at

    def visible(uid: int) -> bool:
        return g.unit(uid).time <= at

    releases = [uid for uid in g.units_of_name(package) if visible(uid)]
    if not releases:
        raise UnknownPackage(f"{package!r} has no releases at t={at}")
    times = [g.unit(uid).time for uid in releases]
    last = max(times)
    in_window = sum(1 for t in times if at - window < t <= at)
    dependents = {
        g.unit(user).name for uid in releases for user in g.used_by(uid) if visible(user)
    } - {package}
    return ActivityReport(
        package=package,
        at=at,
        window=window,
        releases_in_window=in_window,
        last_release_time=last,
        time_since_last_release=at - last,
        dependent_count=len(dependents),
        dormant_but_depended_upon=(in_window == 0 and len(dependents) >= dormant_threshold),
    )
