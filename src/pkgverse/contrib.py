"""Developer contributions joined with dependency structure.

The centre piece is the dependency-contribution graph: inside one analysis
window it holds the package-level dependency edges active at the window's
end together with the (developer -> package) contribution edges that fall
inside the window. A *congruent* contribution pair is one developer
landing work on both sides of a dependency edge — on a client and on a
library that client uses — within the same window.

Two data-hygiene steps come first. Raw author records are merged into
developers: records sharing an email are the same person, and explicit
alias declarations can merge further identities that emails alone cannot
link. Bot accounts are scored by cheap, auditable heuristics (name
marker, title repetitiveness, clockwork timing) and excluded from
congruence analysis by default.

Windows are half-open ``(start, end]`` intervals of a fixed width (90 days
by default) aligned to the analysis start, tiling the requested range.
``congruence_windows`` sweeps the contributions once in time order and
builds only the windows that hold one, so a fine width over a long range
costs what the contributions cost.
"""

from __future__ import annotations

import re
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter
from typing import AbstractSet, Iterator

from .errors import ConflictingAlias, InvalidRange
from .graph import UniverseGraph

__all__ = [
    "Developer",
    "Contribution",
    "Window",
    "DcGraph",
    "CongruentPair",
    "DEFAULT_WINDOW_SECONDS",
    "BOT_THRESHOLD",
    "merge_identities",
    "canonicalize_contributions",
    "filter_contributions",
    "classify_bot",
    "window_partition",
    "build_dc_graph",
    "congruence_windows",
    "congruent_contributions",
]

DEFAULT_WINDOW_SECONDS = 90 * 86400  # three months
BOT_THRESHOLD = 0.8

_in_order = attrgetter("time", "id")  # the order of contributions: by time, then id


@dataclass(frozen=True)
class Developer:
    """A person (or bot) behind one or more raw identity strings."""

    canonical_id: str
    aliases: frozenset[str]


@dataclass(frozen=True)
class Contribution:
    """One pull request, issue or discussion aimed at a package."""

    id: str
    developer: str
    target: str
    ctype: str  # pr | issue | discussion
    time: int
    merged: bool = False
    title: str = ""


# --- identity merging -----------------------------------------------------------


class _Dsu:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def merge_identities(
    raw_authors, extra_aliases=()
) -> list[Developer]:
    """Partition raw (name, email) author records into developers.

    The default merge key is the case-folded email; two same-named authors
    with different emails stay distinct people. Explicit ``(canonical,
    alias)`` pairs override the default and may merge groups that emails
    alone cannot — alias strings are matched case-insensitively against
    both names and emails. An alias string explicitly bound to two
    different canonicals raises :class:`ConflictingAlias`, and an empty
    one :class:`ValueError`.

    Every raw author lands in exactly one developer. Identity strings that
    would end up shared between two developers (e.g. the bare name of the
    two John Smiths) are usable by neither and are dropped from both alias
    sets, keeping alias sets disjoint; a developer left with none is named
    ``name#n``, for an ``n`` that makes it no other alias. The canonical id
    is the lexicographically smallest remaining alias.
    """
    authors = list(dict.fromkeys((name, email) for name, email in raw_authors))
    dsu = _Dsu()  # nodes: author indices and case-folded identity strings
    explicit: dict[str, str] = {}  # folded -> first spelling in extra_aliases
    bound_to: dict[str, str] = {}
    for canonical, alias in extra_aliases:
        if not canonical or not alias:
            raise ValueError(f"alias pair {(canonical, alias)!r} holds an empty string")
        owner = bound_to.setdefault(alias.casefold(), canonical.casefold())
        if owner != canonical.casefold():
            raise ConflictingAlias(
                f"alias {alias!r} is bound to both {owner!r} and {canonical!r}"
            )
        for text in (canonical, alias):
            explicit.setdefault(text.casefold(), text)
        dsu.union(canonical.casefold(), alias.casefold())

    for idx, (name, email) in enumerate(authors):
        if email:  # empty emails must not merge unrelated authors
            dsu.union(idx, email.casefold())
        # a bare name is a merge key only when an explicit alias names it
        if name and name.casefold() in explicit:
            dsu.union(idx, name.casefold())

    # each group's first author and candidate alias strings, in first-author
    # order; a string that two groups would both claim is usable by neither
    groups: dict = {}
    for idx, (name, email) in enumerate(authors):
        _, candidates = groups.setdefault(dsu.find(idx), (idx, {}))
        for text in (name, email):
            if text:
                candidates.setdefault(text.casefold(), text)
    for folded, text in explicit.items():
        if (root := dsu.find(folded)) in groups:
            groups[root][1].setdefault(folded, text)
    claims = Counter(folded for _, candidates in groups.values() for folded in candidates)
    taken = {folded for folded, count in claims.items() if count == 1}

    developers = []
    for group_no, (first, candidates) in enumerate(groups.values()):
        aliases = {text for folded, text in candidates.items() if claims[folded] == 1}
        if not aliases:  # name#n, from the group's number to the first n no one holds
            name, email = authors[first]
            n = group_no
            while (fallback := f"{name or email or 'author'}#{n}").casefold() in taken:
                n += 1
            taken.add(fallback.casefold())
            aliases = {fallback}
        developers.append(Developer(canonical_id=min(aliases), aliases=frozenset(aliases)))
    return sorted(developers, key=lambda d: d.canonical_id)


def canonicalize_contributions(
    contributions, developers: list[Developer]
) -> list[Contribution]:
    """Rewrite each contribution's developer to its canonical id; unknown
    identities pass through unchanged (implicit singleton developers)."""
    index = {alias.casefold(): dev for dev in developers for alias in dev.aliases}
    out = []
    for c in contributions:
        dev = index.get(c.developer.casefold())
        out.append(replace(c, developer=dev.canonical_id) if dev else c)
    return out


def filter_contributions(
    contributions,
    *,
    include_unmerged: bool = False,
    exclude_developers: set[str] = frozenset(),
) -> list[Contribution]:
    """Default analysis filter: merged pull requests plus all issues and
    discussions, minus excluded (e.g. bot) developers."""
    kept = []
    for c in contributions:
        if c.developer in exclude_developers:
            continue
        if c.ctype == "pr" and not c.merged and not include_unmerged:
            continue
        kept.append(c)
    return kept


# --- bot detection ----------------------------------------------------------------

_BOT_NAME = re.compile(r"(\[bot\]$|[-_.]?bot$)", re.IGNORECASE)
_W_NAME, _W_TEMPLATE, _W_REGULARITY = 0.95, 0.75, 0.6


def _normalize_title(title: str) -> str:
    text = re.sub(r"\d+", "#", title.casefold())
    return re.sub(r"\s+", " ", text).strip()


def classify_bot(name: str, contributions) -> tuple[bool, float]:
    """Heuristic bot score in [0, 1] and the flag at the default threshold.

    Signals: a bot-style account name (``...bot`` suffix or ``[bot]``
    marker), near-duplicate normalized titles, and low variance of the
    gaps between contribution times. Signals are combined as a noisy-OR,
    so a clear name alone flags, and strongly template-like behaviour
    flags accounts with innocuous names.
    """
    s_name = 1.0 if _BOT_NAME.search(name) else 0.0

    titles = [_normalize_title(c.title) for c in contributions if c.title]
    if len(titles) >= 2:
        s_template = 1.0 - len(set(titles)) / len(titles)
    else:
        s_template = 0.0

    times = sorted(c.time for c in contributions)
    s_regular = 0.0
    if len(times) >= 4:
        gaps = [b - a for a, b in zip(times, times[1:])]
        mean = statistics.mean(gaps)
        if mean <= 0:
            s_regular = 1.0
        else:
            s_regular = max(0.0, 1.0 - statistics.pstdev(gaps) / mean)

    score = 1.0
    for weight, signal in (
        (_W_NAME, s_name),
        (_W_TEMPLATE, s_template),
        (_W_REGULARITY, s_regular),
    ):
        score *= 1.0 - weight * signal
    score = 1.0 - score
    return score >= BOT_THRESHOLD, score


# --- windows ------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """Half-open analysis interval: a time t belongs iff start < t <= end."""

    start: int
    end: int

    def contains(self, t: int) -> bool:
        return self.start < t <= self.end


def _window_starts(start: int, end: int, width: int) -> range:
    if end <= start:
        raise InvalidRange(f"empty range: start={start}, end={end}")
    if width <= 0:
        raise InvalidRange(f"window width must be positive, got {width}")
    return range(start, end, width)


def window_partition(
    start: int, end: int, width: int = DEFAULT_WINDOW_SECONDS
) -> list[Window]:
    """Tile ``start..end`` with consecutive windows of ``width`` seconds,
    aligned to ``start``; the last window may be short."""
    return [Window(lo, min(lo + width, end)) for lo in _window_starts(start, end, width)]


# --- dependency-contribution graph -----------------------------------------------------


@dataclass(frozen=True)
class DcGraph:
    """Package dependencies and developer contributions inside one window."""

    window: Window
    dependency_edges: AbstractSet[tuple[str, str]]  # (client, library)
    contributions: tuple[Contribution, ...]


@dataclass(frozen=True)
class CongruentPair:
    """One developer contributing to both sides of a dependency edge."""

    developer: str
    client: str
    library: str
    client_contribution: str
    library_contribution: str


def build_dc_graph(graph: UniverseGraph, contributions, window: Window) -> DcGraph:
    """Join the dependency state of the live ``graph`` at the window's end
    with the window's contributions. Callers pass contributions already
    identity-merged and (normally) bot-filtered. The dependency edges come
    from the graph's package projection, indexed by time once per write and
    bisected per window."""
    dep_edges = graph.package_dependency_edges(window.end)
    in_window = tuple(sorted((c for c in contributions if window.contains(c.time)), key=_in_order))
    return DcGraph(window=window, dependency_edges=dep_edges, contributions=in_window)


def congruence_windows(
    graph: UniverseGraph, contributions, start: int, end: int, width: int = DEFAULT_WINDOW_SECONDS
) -> Iterator[DcGraph]:
    """Yield ``build_dc_graph(graph, held, window)`` for each window of
    ``window_partition(start, end, width)`` that holds a contribution, in
    window order. The contributions inside the range are sorted once, by
    time then id, and grouped by window index; no other window is built."""
    starts = _window_starts(start, end, width)
    held = sorted((c for c in contributions if start < c.time <= end), key=_in_order)
    for k, group in groupby(held, key=lambda c: (c.time - start - 1) // width):
        yield build_dc_graph(graph, list(group), Window(starts[k], min(starts[k] + width, end)))


def congruent_contributions(g: DcGraph) -> list[CongruentPair]:
    """All (developer, client, library) triples where the developer
    contributed to both endpoints of a dependency edge in the window.

    One pair is reported per triple regardless of how many individual
    contributions landed on each side; the earliest contribution (by time,
    then id) represents each side. Pairs come ordered by (developer,
    client, library). The join probes ``g.dependency_edges`` with each
    ordered pair of one developer's targets, so its cost follows the
    window's contributions, not the size of the projection.
    """
    by_dev_target: dict[tuple[str, str], Contribution] = {}
    for c in g.contributions:
        key = (c.developer, c.target)
        best = by_dev_target.get(key)
        if best is None or _in_order(c) < _in_order(best):
            by_dev_target[key] = c

    targets_of: dict[str, list[str]] = {}
    for dev, target in by_dev_target:
        targets_of.setdefault(dev, []).append(target)

    deps = g.dependency_edges
    pairs = []
    for dev in sorted(targets_of):
        targets = sorted(targets_of[dev])
        for client in targets:
            c_client = by_dev_target[(dev, client)]
            for library in targets:
                if (client, library) in deps:
                    c_library = by_dev_target[(dev, library)]
                    pairs.append(
                        CongruentPair(
                            developer=dev,
                            client=client,
                            library=library,
                            client_contribution=c_client.id,
                            library_contribution=c_library.id,
                        )
                    )
    return pairs
