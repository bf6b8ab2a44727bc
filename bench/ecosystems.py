"""Seeded generators for the benchmark's three ecosystems.

Every generator takes the seed and a size scale and returns plain data:
the records the program is fed plus what the generator knows to be true
about them (counts, injected invalid records by reason, expected query
answers). The same (seed, scale) always gives byte-identical inputs.

Release times are unique integers and versions grow with time within a
package, so "the latest release" and "the greatest version" coincide and
expected answers can be derived without running the library.
"""

from __future__ import annotations

import bisect
import csv
import json
import random
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone

T0 = 1_420_000_000  # 2015-01-01
SPAN = 8 * 365 * 86400
DAY = 86400


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash through sha512, so they are stable across processes
    return random.Random(f"pkgverse-bench:{workload}:{seed}")


def _poisson_small(rng: random.Random, mean: float, cap: int) -> int:
    """A small non-negative count with the given mean (binomial draw)."""
    n = 2 * cap
    p = min(1.0, mean / n)
    return sum(1 for _ in range(n) if rng.random() < p)


@dataclass
class Release:
    idx: int
    name: str
    version: tuple[int, int, int]
    time: int

    @property
    def label(self) -> str:
        return "%d.%d.%d" % self.version

    @property
    def key(self) -> tuple[str, str]:
        return (self.name, self.label)


@dataclass
class History:
    """A time-ordered release history with release-level use-edges.

    ``releases`` is sorted by time; ``uses[i]`` lists the indices of the
    releases release ``i`` depends on, all strictly older than ``i`` and
    of other packages. ``declared[i]`` holds the range text declared for
    each of those edges; it resolves to exactly that target among the
    releases available at release ``i``'s time.
    """

    releases: list[Release]
    by_name: dict[str, list[int]]
    uses: list[list[int]]
    declared: list[list[str]]

    @property
    def use_edge_count(self) -> int:
        return sum(len(u) for u in self.uses)

    @property
    def update_edge_count(self) -> int:
        return len(self.releases) - len(self.by_name)


def _next_version(rng: random.Random, v: tuple[int, int, int]) -> tuple[int, int, int]:
    roll = rng.random()
    if roll < 0.12:
        return (v[0] + 1, 0, 0)
    if roll < 0.45:
        return (v[0], v[1] + 1, 0)
    return (v[0], v[1], v[2] + 1)


def build_history(
    rng: random.Random, n_packages: int, releases_mean: float, uses_mean: float, latest_bias: float
) -> History:
    """Packages appear over the first 80% of the span and release until its
    end. Each release uses a few older releases of other packages, picked
    by preferential attachment over packages, preferring (with
    ``latest_bias``) the dependency's newest release."""
    names = ["pkg%05d" % i for i in range(n_packages)]
    used_times: set[int] = set()

    def unique_time(t: int) -> int:
        while t in used_times:
            t += 1
        used_times.add(t)
        return t

    raw: list[tuple[int, str, tuple[int, int, int]]] = []
    for name in names:
        birth = T0 + rng.randrange(int(SPAN * 0.8))
        count = 1 + _poisson_small(rng, releases_mean - 1, 12)
        times = sorted(birth + rng.randrange(T0 + SPAN - birth) for _ in range(count - 1))
        version = (1, 0, 0)
        for t in [birth] + times:
            raw.append((unique_time(t), name, version))
            version = _next_version(rng, version)
    raw.sort()
    releases = [Release(i, name, version, t) for i, (t, name, version) in enumerate(raw)]

    by_name: dict[str, list[int]] = {}
    uses: list[list[int]] = []
    declared: list[list[str]] = []
    seen_packages: list[str] = []
    popular: list[str] = []  # one entry per time a package was chosen
    for rel in releases:
        targets: list[int] = []
        ranges: list[str] = []
        if seen_packages:
            wanted = _poisson_small(rng, uses_mean, 10)
            chosen: set[str] = {rel.name}
            for _ in range(wanted * 3):
                if len(targets) == wanted:
                    break
                pool = popular if popular and rng.random() < 0.6 else seen_packages
                dep = rng.choice(pool)
                if dep in chosen:
                    continue
                chosen.add(dep)
                popular.append(dep)
                target, text = _declare(rng, releases, by_name[dep], latest_bias)
                targets.append(target)
                ranges.append(text)
        uses.append(targets)
        declared.append(ranges)
        if rel.name not in by_name:
            by_name[rel.name] = []
            seen_packages.append(rel.name)
        by_name[rel.name].append(rel.idx)
    return History(releases, by_name, uses, declared)


def _declare(rng, releases, available: list[int], latest_bias: float) -> tuple[int, str]:
    """Pick a range over ``available`` (one package's releases so far, oldest
    first) and the release it must resolve to."""
    latest = available[-1]
    roll = rng.random()
    if roll < latest_bias:
        kind = rng.choice((">=", "*", "^", "~", "="))
        picked = rng.choice(available) if kind in (">=", "^", "~") else latest
    else:
        kind = "="
        picked = rng.choice(available)
    v = releases[picked].version
    if kind == "=":
        return picked, releases[picked].label
    if kind == "*":
        return latest, "*"
    if kind == ">=":
        return latest, ">=" + releases[picked].label
    if kind == "^":  # every major is >= 1, so ^ keeps the major
        target = max(i for i in available if releases[i].version[0] == v[0])
        return target, "^" + releases[picked].label
    target = max(i for i in available if releases[i].version[:2] == v[:2])
    return target, "~" + releases[picked].label


# --- timetravel -----------------------------------------------------------------


@dataclass
class TimetravelInput:
    """Log events in write order, the point queries, and expectations."""

    events: list[tuple]  # ("unit", name, release, time) | ("use"|"update", src_key, dst_key)
    injected: Counter
    history: History
    queries: list[tuple[str, int]]
    window: int
    cutoffs: list[int]
    expected_series: list[tuple[int, int, int]]
    expected_activity: list[tuple[int, int, int]]


def timetravel_input(seed: int, scale: float) -> TimetravelInput:
    rng = _rng("timetravel", seed)
    hist = build_history(rng, max(20, int(2200 * scale)), 4.5, 3.0, 0.7)
    rels = hist.releases
    events: list[tuple] = []
    injected: Counter = Counter()
    previous: dict[str, int] = {}
    for rel in rels:
        events.append(("unit", rel.name, rel.label, rel.time))
        for dst in hist.uses[rel.idx]:
            events.append(("use", rel.key, rels[dst].key))
        prev = previous.get(rel.name)
        if prev is not None:
            events.append(("update", rels[prev].key, rel.key))
        previous[rel.name] = rel.idx
        # about 1% of events are invalid; each reason is counted as injected
        roll = rng.random()
        if roll < 0.025:
            other = rng.choice(list(previous))
            events.append(("use", rel.key, (other, "0.0.0-missing")))
            injected["UnknownUnit"] += 1
        elif roll < 0.045 and prev is not None:
            first = hist.by_name[rel.name][0]
            events.append(("update", rel.key, rels[first].key))
            injected["TimeOrderViolation"] += 1

    t_first, t_last = rels[0].time, rels[-1].time
    step = -(-(t_last - t_first) // 10)
    cutoffs = [t_first + i * step for i in range(11)]
    times = [r.time for r in rels]
    update_dst_times = sorted(r.time for r in rels if hist.by_name[r.name][0] != r.idx)
    use_src_times = sorted(r.time for r in rels for _ in hist.uses[r.idx])
    expected_series = [
        (
            bisect.bisect_right(times, c),
            bisect.bisect_right(use_src_times, c),
            bisect.bisect_right(update_dst_times, c),
        )
        for c in cutoffs
    ]

    window = 90 * DAY
    users_of: dict[str, list[tuple[int, str]]] = {}
    for rel in rels:
        for dst in hist.uses[rel.idx]:
            users_of.setdefault(rels[dst].name, []).append((rel.time, rel.name))
    names = sorted(hist.by_name)
    queries, expected_activity = [], []
    for _ in range(20):
        name = rng.choice(names)
        first = rels[hist.by_name[name][0]].time
        at = first + rng.randrange(t_last - first + 1)
        own = [rels[i].time for i in hist.by_name[name] if rels[i].time <= at]
        in_window = sum(1 for t in own if at - window < t <= at)
        dependents = {src for t, src in users_of.get(name, ()) if t <= at}
        queries.append((name, at))
        expected_activity.append((in_window, max(own), len(dependents)))
    return TimetravelInput(
        events, injected, hist, queries, window, cutoffs, expected_series, expected_activity
    )


# --- analysis -------------------------------------------------------------------


@dataclass
class Author:
    names: list[str]
    email: str
    bot: bool
    home: str


@dataclass
class AnalysisInput:
    """A cyclic-at-package-level history, contributions and expectations."""

    history: History
    contributions: list[dict]
    authors: list[Author]
    roots: list[int]
    available: list[list[list[str]]]  # per release, per use: labels available then


def analysis_input(seed: int, scale: float) -> AnalysisInput:
    rng = _rng("analysis", seed)
    hist = build_history(rng, max(20, int(500 * scale)), 4.5, 3.0, 0.5)
    rels = hist.releases

    # labels of each dependency's releases available at the source's time
    available = []
    for rel in rels:
        rows = []
        for dst in hist.uses[rel.idx]:
            name = rels[dst].name
            rows.append([rels[i].label for i in hist.by_name[name] if rels[i].time < rel.time])
        available.append(rows)

    package_deps: dict[str, set[str]] = {}
    for rel in rels:
        for dst in hist.uses[rel.idx]:
            package_deps.setdefault(rel.name, set()).add(rels[dst].name)
    names = sorted(hist.by_name)
    authors: list[Author] = []
    contributions: list[dict] = []
    n_humans = max(4, int(60 * scale))
    for i in range(n_humans):
        email = "dev%04d@example.org" % i
        aliases = ["dev%04d" % i] + (["Dev %d" % i] if rng.random() < 0.3 else [])
        authors.append(Author(aliases, email, False, rng.choice(names)))
    for i in range(max(1, n_humans // 25)):
        name = "deps-%d[bot]" % i
        authors.append(Author([name], name + "@users.example.org", True, rng.choice(names)))

    cid = 0
    for author in authors:
        home = author.home
        near = sorted(package_deps.get(home, ()))
        if author.bot:
            start = T0 + rng.randrange(SPAN // 2)
            for k in range(40):
                cid += 1
                contributions.append({
                    "id": "c%06d" % cid, "author": author.names[0], "email": author.email,
                    "target": rng.choice([home] + near), "type": "pr", "merged": True,
                    "time": start + k * 7 * DAY, "title": "Bump dependency to %d.0.%d" % (k, k),
                })
            continue
        # people contribute in bursts of about a year, so one window often
        # holds work on a package and on its dependencies
        start = T0 + rng.randrange(SPAN - 365 * DAY)
        for _ in range(_poisson_small(rng, 24, 30)):
            cid += 1
            roll = rng.random()
            if roll < 0.45 or not near:
                target = home
            elif roll < 0.95:
                target = rng.choice(near)
            else:
                target = rng.choice(names)
            ctype = rng.choice(("pr", "pr", "issue", "discussion"))
            contributions.append({
                "id": "c%06d" % cid, "author": rng.choice(author.names), "email": author.email,
                "target": target, "type": ctype, "merged": ctype == "pr" and rng.random() < 0.7,
                "time": start + rng.randrange(365 * DAY), "title": "",
            })

    with_deps = [r.idx for r in rels if hist.uses[r.idx] and r.idx > len(rels) // 3]
    roots = sorted(rng.sample(with_deps, min(12, len(with_deps))))
    return AnalysisInput(hist, contributions, authors, roots, available)


def closure(hist: History, root: int) -> set[int]:
    """Release indices reachable from ``root`` over use-edges, root included."""
    seen = {root}
    stack = [root]
    while stack:
        for dst in hist.uses[stack.pop()]:
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def longest_use_path(hist: History) -> int:
    """Releases on the longest use-path; bounds the resolver's recursion."""
    depth = [1] * len(hist.releases)
    for rel in hist.releases:  # time order is a topological order
        for dst in hist.uses[rel.idx]:
            depth[rel.idx] = max(depth[rel.idx], depth[dst] + 1)
    return max(depth, default=0)


# --- ingest ---------------------------------------------------------------------

DUMP_COLUMNS = ("platform", "name", "version", "released_at", "dep_name", "dep_requirement")


@dataclass
class IngestInput:
    dump_rows: list[tuple]
    contribution_lines: list[str]
    units: int
    uses: int
    contributions: int
    injected_dump: Counter  # quarantine reason -> count
    injected_contributions: Counter

    @property
    def injected(self) -> Counter:
        return self.injected_dump + self.injected_contributions


def _stamp(rng: random.Random, t: int) -> str:
    roll = rng.random()
    if roll < 0.4:
        return str(t)
    dt = datetime.fromtimestamp(t, timezone.utc)
    if roll < 0.8:
        return dt.strftime("%Y-%m-%d %H:%M:%S UTC")
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def ingest_input(seed: int, scale: float) -> IngestInput:
    """A libraries.io-style dump (one row per declared dependency, or one
    bare row) with a bad row after about 0.6% of releases, and a
    contribution NDJSON file with about 0.6% bad records."""
    rng = _rng("ingest", seed)
    n_packages = max(20, int(6000 * scale))
    names = ["lib-%05d" % i for i in range(n_packages)]
    rows: list[tuple] = []
    units = uses = 0
    injected_dump: Counter = Counter()
    for name in names:
        t = T0 + rng.randrange(SPAN // 2)
        version = (1, 0, 0)
        for _ in range(1 + _poisson_small(rng, 3.5, 12)):
            label = "%d.%d.%d" % version
            stamp = _stamp(rng, t)
            deps = [d for d in rng.sample(names, _poisson_small(rng, 3.0, 10)) if d != name]
            units += 1
            uses += len(deps)
            if not deps:
                rows.append(("NPM", name, label, stamp, "", ""))
            for dep in deps:
                x, y, z = rng.randrange(1, 5), rng.randrange(10), rng.randrange(10)
                req = rng.choice((
                    "%d.%d.%d" % (x, y, z), "^%d.%d.%d" % (x, y, z), "~%d.%d.%d" % (x, y, z),
                    ">=%d.%d.%d" % (x, y, z), ">=%d.0.0 <%d.0.0" % (x, x + 1), "*",
                ))
                rows.append(("NPM", name, label, stamp, dep, req))
            # bad rows go between release blocks, so they never split one
            roll = rng.random()
            if roll < 0.003:
                rows.append(("NPM", "", label, stamp, "x", "*"))
                injected_dump["MissingField"] += 1
            elif roll < 0.006:
                rows.append(("NPM", "broken-%05d" % len(rows), "1.0.0", "not-a-date", "", ""))
                injected_dump["InvalidTimestamp"] += 1
            version = _next_version(rng, version)
            t += 1 + rng.randrange(60 * DAY)

    injected_contributions: Counter = Counter()
    lines: list[str] = []
    good = 0
    n_records = max(20, int(10000 * scale))
    for i in range(n_records):
        roll = rng.random()
        if roll < 0.002:
            lines.append('{"author": "truncated", "target": ')
            injected_contributions["ParseError"] += 1
            continue
        record = {
            "id": "r%06d" % i,
            "author": "user%04d" % rng.randrange(max(2, n_records // 20)),
            "target": rng.choice(names),
            "type": rng.choice(("pr", "pull_request", "issue", "discussion")),
            "time": _stamp(rng, T0 + rng.randrange(SPAN)),
            "merged": rng.random() < 0.6,
        }
        if rng.random() < 0.3:
            record["title"] = "Fix #%d in %s" % (i, record["target"])
        if roll < 0.004:
            del record["author"]
            injected_contributions["SchemaError"] += 1
        elif roll < 0.006:
            record["time"] = "last tuesday"
            injected_contributions["InvalidTimestamp"] += 1
        else:
            good += 1
        lines.append(json.dumps(record, sort_keys=True))
    return IngestInput(rows, lines, units, uses, good, injected_dump, injected_contributions)


def write_ingest_files(data: IngestInput, dump_path, contributions_path) -> None:
    with open(dump_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DUMP_COLUMNS)
        writer.writerows(data.dump_rows)
    with open(contributions_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(data.contribution_lines) + "\n")
