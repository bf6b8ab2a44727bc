"""Independent oracles the tests check the library against.

Everything here recomputes results from first principles (plain scans,
brute-force enumeration, or networkx), deliberately avoiding the code
paths under test.
"""

from __future__ import annotations

import csv
import operator
from operator import attrgetter

import networkx as nx

from pkgverse import eventlog
from pkgverse.contrib import Developer
from pkgverse.errors import (
    BranchingUpdate,
    ConflictingAlias,
    CsvError,
    DuplicateUnit,
    InvalidTimestamp,
    NameAxiomViolation,
    NoMatchingVersion,
    ParallelEdge,
    PkgverseError,
    SchemaError,
    SelfLoop,
    TimeAnomaly,
    TimeOrderViolation,
    TornTail,
    UnknownUnit,
)
from pkgverse.eventlog import Quarantined, ReplayResult, unit_event, use_event
from pkgverse.graph import SoftwareUnit, TimedSnapshot, UniverseGraph, UpdateEdge, UseEdge
from pkgverse.ingest import ColumnMap, Manifest, parse_timestamp
from pkgverse.resolve import DepTree, ManifestRegistry
from pkgverse.semver import VersionRange, resolve_version_range


def edge_scan_out(g, uid: int) -> set[int]:
    """Out-neighbourhood recomputed by scanning the full use-edge set."""
    return {e.dst for e in g.use_edges if e.src == uid}


def edge_scan_in(g, uid: int) -> set[int]:
    return {e.src for e in g.use_edges if e.dst == uid}


def reachability_closure(g, uid: int) -> set[int]:
    """Transitive dependencies recomputed via networkx descendants."""
    dg = nx.DiGraph()
    units = g.units if isinstance(g, UniverseGraph) else sorted(g.units, key=lambda u: u.uid)
    dg.add_nodes_from(u.uid for u in units)
    dg.add_edges_from((e.src, e.dst) for e in g.use_edges)
    return set(nx.descendants(dg, uid)) - {uid}


class BruteSnapshot:
    """A snapshot computed directly from the definition, answering every
    query by scanning its own member sets. It equals, and hashes like, a
    :class:`TimedSnapshot` with the same ``at`` and members."""

    def __init__(self, at: int, units, use_edges, update_edges):
        self.at = at
        self.units = frozenset(units)
        self.use_edges = frozenset(use_edges)
        self.update_edges = frozenset(update_edges)

    def _fields(self):
        return (self.at, self.units, self.use_edges, self.update_edges)

    def __eq__(self, other):
        if not all(hasattr(other, f) for f in ("at", "units", "use_edges", "update_edges")):
            return NotImplemented
        return self._fields() == (other.at, other.units, other.use_edges, other.update_edges)

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"BruteSnapshot{self._fields()!r}"

    def unit(self, uid: int) -> SoftwareUnit:
        for u in self.units:
            if u.uid == uid:
                return u
        raise UnknownUnit(f"no unit with handle {uid!r} in snapshot")

    def find(self, name: str, release: str):
        return next((u.uid for u in self.units if (u.name, u.release) == (name, release)), None)

    def names(self) -> set[str]:
        return {u.name for u in self.units}

    def units_of_name(self, name: str) -> list[int]:
        return sorted(u.uid for u in self.units if u.name == name)

    def use_of(self, uid: int) -> set[int]:
        self.unit(uid)
        return edge_scan_out(self, uid)

    def used_by(self, uid: int) -> set[int]:
        self.unit(uid)
        return edge_scan_in(self, uid)

    def update_chain(self, name: str) -> list[int]:
        return time_sorted_chain(self, name)

    def transitive_dependencies(self, uid: int) -> set[int]:
        self.unit(uid)
        return reachability_closure(self, uid)

    def package_dependency_edges(self) -> frozenset:
        name_of = {u.uid: u.name for u in self.units}
        pairs = ((name_of[e.src], name_of[e.dst]) for e in self.use_edges)
        return frozenset((a, b) for a, b in pairs if a != b)

    def is_subgraph_of(self, other) -> bool:
        return (
            self.units <= other.units
            and self.use_edges <= other.use_edges
            and self.update_edges <= other.update_edges
        )


def brute_snapshot(g: UniverseGraph, t: int) -> BruteSnapshot:
    """Filter-and-induce computed directly from the definition."""
    units = frozenset(u for u in g.units if u.time <= t)
    uids = {u.uid for u in units}
    return BruteSnapshot(
        t,
        units,
        (e for e in g.use_edges if {e.src, e.dst} <= uids),
        (e for e in g.update_edges if {e.src, e.dst} <= uids),
    )


def time_sorted_chain(g, name: str) -> list[int]:
    """Chain order predicted by sorting that name's units by time."""
    units = [u for u in (g.units if isinstance(g, UniverseGraph) else g.units) if u.name == name]
    return [u.uid for u in sorted(units, key=lambda u: (u.time, u.uid))]


def congruence_brute_force(dependency_edges, contributions):
    """O(D * C^2) scan over every developer's contribution pairs.

    Returns the set of (developer, client, library, client_cid, library_cid)
    tuples, with each side represented by its earliest contribution.
    """
    dep_edges = set(dependency_edges)
    by_dev: dict[str, list] = {}
    for c in contributions:
        by_dev.setdefault(c.developer, []).append(c)
    found = {}
    for dev, items in by_dev.items():
        for c1 in items:
            for c2 in items:
                if (c1.target, c2.target) in dep_edges:
                    key = (dev, c1.target, c2.target)
                    best_client, best_library = found.get(key, (None, None))
                    if best_client is None or (c1.time, c1.id) < (best_client.time, best_client.id):
                        best_client = c1
                    if best_library is None or (c2.time, c2.id) < (best_library.time, best_library.id):
                        best_library = c2
                    found[key] = (best_client, best_library)
    return {
        (dev, client, library, cc.id, lc.id)
        for (dev, client, library), (cc, lc) in found.items()
    }


def breakage_oracle(snapshot: TimedSnapshot, subset: set[str]):
    """(dangling, broken, severed) recomputed with networkx reachability."""
    name_of = {u.uid: u.name for u in snapshot.units}
    dangling = sum(
        1
        for e in snapshot.use_edges
        if (name_of[e.src] in subset) != (name_of[e.dst] in subset)
    )

    full = nx.DiGraph()
    full.add_nodes_from(name_of.values())
    for e in snapshot.use_edges:
        a, b = name_of[e.src], name_of[e.dst]
        if a != b:
            full.add_edge(a, b)
    kept = full.subgraph(subset)
    full_pairs = {
        (a, b) for a in full.nodes for b in nx.descendants(full, a) if a != b
    }
    kept_pairs = {
        (a, b) for a in kept.nodes for b in nx.descendants(kept, a) if a != b
    }
    broken = len(full_pairs - kept_pairs)

    # chains of an excluded name, recomputed as the connected components
    # (with at least one edge) of its update-edge subgraph
    severed = 0
    for name in {u.name for u in snapshot.units} - set(subset):
        chain_graph = nx.Graph()
        for e in snapshot.update_edges:
            if name_of[e.src] == name:
                chain_graph.add_edge(e.src, e.dst)
        severed += sum(1 for comp in nx.connected_components(chain_graph) if len(comp) >= 2)
    return dangling, broken, severed


def nested_resolution_map(tree) -> dict:
    """(name, version) -> {dep name: resolved version}, read off the nested
    tree by enumeration (shared subtrees visited once)."""
    resolution: dict = {}
    stack, seen = [tree], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node.back_reference:
            continue
        seen.add(id(node))
        resolution[(node.name, node.version)] = {c.name: c.version for c in node.children}
        stack.extend(node.children)
    return resolution


def flat_lookup(flat_root, node, dep_name):
    """Version found from ``node`` under the nearest-enclosing-scope rule:
    own nested children first, then the top level."""
    for child in node.children:
        if child.name == dep_name:
            return child.version
    for child in flat_root.children:
        if child.name == dep_name:
            return child.version
    if flat_root.name == dep_name:
        return flat_root.version
    return None


def assert_flatten_preserves_resolution(nested, flat):
    resolution = nested_resolution_map(nested)
    stack = [flat]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if node.back_reference:
            continue
        for dep_name, version in resolution.get((node.name, node.version), {}).items():
            assert flat_lookup(flat, node, dep_name) == version


_REFERENCE_COMPARE = {"=": operator.eq, ">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def reference_matches(rng, version) -> bool:
    """The clause rule as ranges applied it before compiling their clauses:
    each comparator compares ``Version`` values, and a prerelease version
    also needs a prerelease-tagged comparator of its own triple in the
    satisfied clause."""
    for clause in rng.clauses:
        if all(_REFERENCE_COMPARE[c.op](version, c.version) for c in clause):
            if not version.prerelease:
                return True
            if any(
                c.version.triple == version.triple and c.version.prerelease
                for c in clause
            ):
                return True
    return False


def satisfying_max(rng, versions):
    """Resolution oracle: enumerate every satisfying version, take the max
    (the first one listed among equal keys)."""
    matching = [v for v in versions if reference_matches(rng, v)]
    if not matching:
        return None
    best = matching[0]
    for v in matching[1:]:
        if v > best:
            best = v
    return best


# --- DOT grammar checker -----------------------------------------------------

import re

_DOT_TOKEN = re.compile(
    r"""\s*(?:
        (?P<string>"(?:[^"\\]|\\.)*")
      | (?P<id>[A-Za-z_][A-Za-z_0-9]*|-?\d+(?:\.\d+)?)
      | (?P<punct>->|[{}\[\];=,])
    )""",
    re.VERBOSE,
)


def _tokenize_dot(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _DOT_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"unexpected DOT character at {pos}: {text[pos:pos + 20]!r}")
            break
        pos = m.end()
        if m.lastgroup == "punct":
            tokens.append(("punct", m.group("punct")))
        elif m.lastgroup == "string":
            tokens.append(("id", m.group("string")))
        else:
            tokens.append(("id", m.group("id")))
    return tokens


def check_dot_document(text: str):
    """Parse a digraph document; returns (node_ids, edges) or raises.

    Accepts the subset of the DOT grammar the exporter may emit: node
    statements with optional attribute lists, and edge statements.
    """
    tokens = _tokenize_dot(text)
    pos = 0

    def expect(value=None, kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of DOT document")
        t_kind, t_value = tokens[pos]
        if value is not None and t_value != value:
            raise ValueError(f"expected {value!r}, got {t_value!r}")
        if kind is not None and t_kind != kind:
            raise ValueError(f"expected {kind}, got {t_kind} {t_value!r}")
        pos += 1
        return t_value

    def maybe(value):
        nonlocal pos
        if pos < len(tokens) and tokens[pos][1] == value:
            pos += 1
            return True
        return False

    expect("digraph")
    if tokens[pos][1] != "{":
        expect(kind="id")  # graph name
    expect("{")
    nodes: set[str] = set()
    edges: list[tuple[str, str]] = []
    while not maybe("}"):
        left = expect(kind="id")
        if maybe("->"):
            right = expect(kind="id")
            edges.append((left, right))
        else:
            nodes.add(left)
        if maybe("["):
            while not maybe("]"):
                expect(kind="id")
                expect("=")
                expect(kind="id")
                maybe(",")
        maybe(";")
    if pos != len(tokens):
        raise ValueError("trailing tokens after closing brace")
    return nodes, edges


# --- event-log wire schema ------------------------------------------------------
# A frozen copy of the hand-written validator that eventlog.SCHEMA replaced:
# one branch per kind, written without the table.

_REFERENCE_KINDS = ("unit", "use", "update", "contribution", "developer-alias")
_REFERENCE_CONTRIBUTION_TYPES = ("pr", "issue", "discussion")


def _require(payload: dict, key: str, types) -> object:
    if key not in payload:
        raise SchemaError(f"missing field {key!r}")
    value = payload[key]
    if not isinstance(value, types) or isinstance(value, bool) and types is int:
        raise SchemaError(f"field {key!r} has wrong type {type(value).__name__}")
    return value


def _require_ref(payload: dict, key: str) -> tuple[str, str]:
    value = _require(payload, key, (list, tuple))
    if len(value) != 2 or not all(isinstance(p, str) and p for p in value):
        raise SchemaError(f"field {key!r} must be a [name, release] pair")
    return (value[0], value[1])


def reference_validate_payload(kind: str, payload: dict) -> dict:
    """Canonical payload of an event, or SchemaError, as the event log
    validated it before its schema became a table."""
    if kind not in _REFERENCE_KINDS:
        raise SchemaError(f"unknown event kind {kind!r}")
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
    if kind == "unit":
        name = _require(payload, "name", str)
        release = _require(payload, "release", str)
        if not name or not release:
            raise SchemaError("unit name and release must be non-empty")
        time = _require(payload, "time", int)
        return {"name": name, "release": release, "time": time}
    if kind in ("use", "update"):
        return {"from": list(_require_ref(payload, "from")), "to": list(_require_ref(payload, "to"))}
    if kind == "contribution":
        cid = _require(payload, "id", str)
        dev = _require(payload, "dev", str)
        target = _require(payload, "target", (list, tuple))
        if len(target) != 1 or not isinstance(target[0], str) or not target[0]:
            raise SchemaError("field 'target' must be a one-element [name] list")
        ctype = _require(payload, "ctype", str)
        if ctype not in _REFERENCE_CONTRIBUTION_TYPES:
            raise SchemaError(f"ctype must be one of {_REFERENCE_CONTRIBUTION_TYPES}, got {ctype!r}")
        time = _require(payload, "time", int)
        merged = _require(payload, "merged", bool)
        if not dev or not cid:
            raise SchemaError("contribution id and dev must be non-empty")
        return {
            "id": cid,
            "dev": dev,
            "target": [target[0]],
            "ctype": ctype,
            "time": time,
            "merged": merged,
        }
    # developer-alias
    canonical = _require(payload, "canonical", str)
    alias = _require(payload, "alias", str)
    if not canonical or not alias:
        raise SchemaError("canonical and alias must be non-empty")
    return {"canonical": canonical, "alias": alias}


# --- registry dumps ------------------------------------------------------------
# A frozen copy of parse_registry_dump as it read rows through csv.DictReader,
# one dict per row. DictReader takes a blank first line for an empty header;
# callers drop leading blank lines first.


def reference_parse_registry_dump(reader, mapping: ColumnMap | None = None, source: str = "<dump>"):
    mapping = mapping or ColumnMap()
    rows = csv.DictReader(reader)
    if rows.fieldnames is None:
        raise CsvError(f"{source}: empty file, expected a header row")
    required = (mapping.name, mapping.version, mapping.released_at)
    for column in required:
        if column not in rows.fieldnames:
            raise CsvError(f"{source}: missing column {column!r}")
    has_deps = mapping.dep_name in rows.fieldnames
    previous_key = None
    for row_no, row in enumerate(rows, start=2):
        if None in row:
            yield Quarantined(source, row_no, "CsvError", f"row has extra fields: {row[None]!r}")
            continue
        name = (row.get(mapping.name) or "").strip()
        version = (row.get(mapping.version) or "").strip()
        if not name or not version:
            yield Quarantined(source, row_no, "MissingField", dict(row))
            continue
        key = (name, version)
        if key != previous_key:
            try:
                time = parse_timestamp(row.get(mapping.released_at, ""))
            except InvalidTimestamp:
                yield Quarantined(source, row_no, "InvalidTimestamp", dict(row))
                previous_key = None
                continue
            yield unit_event(name, version, time)
            previous_key = key
        if has_deps:
            dep_name = (row.get(mapping.dep_name) or "").strip()
            if dep_name:
                requirement = (row.get(mapping.dep_requirement) or "").strip() or "*"
                yield use_event((name, version), (dep_name, requirement))


# --- replay ----------------------------------------------------------------------
# A frozen copy of replay as it applied every line through a list of field
# values, one dispatch and UniverseGraph.find, onto a graph whose writes
# checked each handle through unit().


class ReferenceGraph(UniverseGraph):
    def add_unit(self, name, release, time):
        if not name or not release:
            raise ValueError("unit name and release must be non-empty")
        key = (name, release)
        if key in self._by_key:
            raise DuplicateUnit(f"{name}@{release} already present")
        uid = len(self._units)
        unit = SoftwareUnit(uid, name, release, int(time))
        self._units.append(unit)
        self._by_key[key] = uid
        self._by_name.setdefault(name, []).append(uid)
        self._unit_timeline.append(unit.time, unit)
        return uid

    def add_use_edge(self, src, dst):
        t_src, t_dst = self.unit(src).time, self.unit(dst).time
        if src == dst:
            raise SelfLoop(f"unit {self._label(src)} cannot use itself")
        if dst in self._use_out.get(src, ()):
            raise ParallelEdge(f"{self._label(src)} -> {self._label(dst)} already present")
        if t_dst > t_src and self.strict:
            raise TimeAnomaly(f"{self._label(src)} uses {self._label(dst)} released later")
        edge = UseEdge(src, dst)
        self._use_out.setdefault(src, {})[dst] = len(self._use_timeline.cols[1])
        self._use_in.setdefault(dst, set()).add(src)
        self._use_timeline.append(max(t_src, t_dst), edge)
        if t_dst > t_src:
            self.anomalies.append(edge)
        return edge

    def add_update_edge(self, src, dst):
        u, v = self.unit(src), self.unit(dst)
        if u.name != v.name:
            raise NameAxiomViolation(f"{self._label(src)} => {self._label(dst)}")
        if not u.time < v.time:
            raise TimeOrderViolation(f"{self._label(src)} (t={u.time}) => {self._label(dst)} (t={v.time})")
        if src in self._successor:
            raise BranchingUpdate(f"{self._label(src)} already has a successor")
        if dst in self._predecessor:
            raise BranchingUpdate(f"{self._label(dst)} already has a predecessor")
        edge = UpdateEdge(src, dst)
        self._successor[src] = dst
        self._predecessor[dst] = src
        self._update_timeline.append(v.time, edge)
        return edge


def _reference_apply(result, kind, values):
    graph = result.graph
    if kind == "unit":
        graph.add_unit(*values)
    elif kind == "use" or kind == "update":
        src_ref, dst_ref = values
        src, dst = graph.find(*src_ref), graph.find(*dst_ref)
        if src is None or dst is None:
            missing = src_ref if src is None else dst_ref
            raise UnknownUnit(f"unresolvable reference {missing[0]}@{missing[1]}")
        (graph.add_use_edge if kind == "use" else graph.add_update_edge)(src, dst)
    elif kind == "contribution":
        result.contributions.append(dict(zip(eventlog._FIELDS[kind], values)))
    else:
        result.aliases.append(tuple(values))


def reference_replay(path, *, strict=False, into=None) -> ReplayResult:
    result = into if into is not None else ReplayResult(graph=ReferenceGraph(strict=strict))
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                record = eventlog._decode(line)
            except ValueError as exc:
                error = eventlog._damaged(path, line_no, line, exc)
                if type(error) is not TornTail:
                    raise error from None
                result.quarantine.append(Quarantined(str(path), line_no, "TornTail", {}, str(error)))
                break
            seq, kind = record.get("seq"), record.get("kind")
            seq = seq if type(seq) is int else None
            try:
                eventlog._line(0, kind, record)
                _reference_apply(result, kind, [record[key] for key in eventlog._FIELDS[kind]])
            except PkgverseError as exc:
                result.quarantine.append(Quarantined(str(path), line_no, type(exc).__name__, record, str(exc), seq))
    return result


def reference_dot(snapshot) -> str:
    """The DOT export as a list of lines joined once, the way the renderer
    wrote it before it emitted chunks; the chunked renderer must match it."""
    ends = attrgetter("src", "dst")

    def quote(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph universe {"]
    for u in sorted(snapshot.units, key=attrgetter("uid")):
        lines.append(f"  n{u.uid} [label={quote(f'{u.name}@{u.release}')}, time={u.time}];")
    for e in sorted(snapshot.use_edges, key=ends):
        lines.append(f"  n{e.src} -> n{e.dst};")
    for e in sorted(snapshot.update_edges, key=ends):
        lines.append(f"  n{e.src} -> n{e.dst} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- identity merging ------------------------------------------------------------
# A frozen copy of merge_identities as it gathered each group's candidate
# aliases by scanning every explicit alias string once per group, with the
# rules added since: empty alias strings are refused, and a name#n id is
# never an alias another developer holds.


class _ReferenceDsu:
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


def reference_merge_identities(
    raw_authors, extra_aliases=()
) -> list[Developer]:
    """Partition raw (name, email) author records into developers.

    The default merge key is the case-folded email; two same-named authors
    with different emails stay distinct people. Explicit ``(canonical,
    alias)`` pairs override the default and may merge groups that emails
    alone cannot — alias strings are matched case-insensitively against
    both names and emails. An alias string explicitly bound to two
    different canonicals raises :class:`ConflictingAlias`.

    Every raw author lands in exactly one developer. Identity strings that
    would end up shared between two developers (e.g. the bare name of the
    two John Smiths) are usable by neither and are dropped from both alias
    sets, keeping alias sets disjoint. The canonical id is the
    lexicographically smallest remaining alias.
    """
    authors = list(dict.fromkeys((name, email) for name, email in raw_authors))
    dsu = _ReferenceDsu()
    originals: dict[str, str] = {}  # folded -> first original spelling

    def string_node(text: str) -> str:
        folded = text.casefold()
        originals.setdefault(folded, text)
        return "s:" + folded

    bound_to: dict[str, str] = {}
    for canonical, alias in extra_aliases:
        if not canonical or not alias:
            raise ValueError(f"alias pair {(canonical, alias)!r} holds an empty string")
        owner = bound_to.setdefault(alias.casefold(), canonical.casefold())
        if owner != canonical.casefold():
            raise ConflictingAlias(
                f"alias {alias!r} is bound to both {owner!r} and {canonical!r}"
            )
        dsu.union(string_node(canonical), string_node(alias))
    explicit_strings = {s.casefold() for pair in extra_aliases for s in pair}

    for idx, (name, email) in enumerate(authors):
        node = ("a", idx)
        dsu.find(node)
        if email:  # empty emails must not merge unrelated authors
            dsu.union(node, string_node(email))
        # a bare name is a merge key only when an explicit alias names it
        if name and name.casefold() in explicit_strings:
            dsu.union(node, string_node(name))

    groups: dict = {}
    for idx in range(len(authors)):
        groups.setdefault(dsu.find(("a", idx)), []).append(idx)

    # gather candidate alias strings per group, then drop any string that
    # two groups would both claim
    claims: dict[str, set] = {}
    candidate_aliases: dict[object, dict[str, str]] = {}
    for root, members in groups.items():
        candidates: dict[str, str] = {}
        for idx in members:
            name, email = authors[idx]
            for text in (name, email):
                if text:
                    candidates.setdefault(text.casefold(), text)
        for folded in explicit_strings:
            if dsu.find("s:" + folded) == root:
                candidates.setdefault(folded, originals[folded])
        candidate_aliases[root] = candidates
        for folded in candidates:
            claims.setdefault(folded, set()).add(root)
    ambiguous = {folded for folded, owners in claims.items() if len(owners) > 1}
    taken = set(claims) - ambiguous  # strings some developer keeps

    developers = []
    ordered = sorted(groups.items(), key=lambda item: min(item[1]))
    for group_no, (root, members) in enumerate(ordered):
        aliases = {
            text
            for folded, text in candidate_aliases[root].items()
            if folded not in ambiguous
        }
        if not aliases:
            name, email = authors[min(members)]
            n = group_no
            while f"{name or email or 'author'}#{n}".casefold() in taken:
                n += 1
            aliases = {f"{name or email or 'author'}#{n}"}
            taken |= {a.casefold() for a in aliases}
        canonical = min(aliases)
        developers.append(Developer(canonical_id=canonical, aliases=frozenset(aliases)))
    return sorted(developers, key=lambda d: d.canonical_id)


# --- the recursive tree walks of resolve.py, as they were before the loops ------
# Kept unchanged: the iterative walks must build and print exactly what these do.


def reference_build_nested_tree(root: Manifest, registry: ManifestRegistry) -> DepTree:
    """Fully resolve ``root`` against ``registry`` into a nested tree.

    Every dependency range picks the greatest satisfying release available
    in the registry. A (name, version) repeating on the active path becomes
    a back-reference leaf. Raises :class:`NoMatchingVersion` with the
    path at which resolution failed.
    """
    # memo holds finished subtrees that contain no back-reference escaping
    # them, keyed by (name, version); those are path-independent.
    memo: dict[tuple[str, str], DepTree] = {}

    def resolve_dep(dep_name: str, rng: VersionRange, path: tuple) -> str:
        available = registry.releases(dep_name)
        if rng.raw and rng.raw in available:
            # a requirement naming an existing release label verbatim is an
            # exact pin, whether or not the label parses as semver
            return rng.raw
        try:
            if not available:
                raise NoMatchingVersion(f"{dep_name!r} has no releases")
            return str(resolve_version_range(rng, available))
        except NoMatchingVersion as exc:
            at = " -> ".join(f"{n}@{v}" for n, v in path)
            raise NoMatchingVersion(f"{exc} (required at {at})") from None

    def expand(name: str, version: str, manifest: Manifest, path: tuple):
        """Returns (node, open_refs): names/versions of back-references
        inside the subtree that point above this node."""
        node = DepTree(name, version)
        key = (name, version)
        open_refs: set[tuple[str, str]] = set()
        for dep_name, rng in manifest.dependencies:
            dep_version = resolve_dep(dep_name, rng, path + (key,))
            dep_key = (dep_name, dep_version)
            if dep_key in path + (key,):
                node.children.append(
                    DepTree(dep_name, dep_version, back_reference=True)
                )
                open_refs.add(dep_key)
                continue
            if dep_key in memo:
                node.children.append(memo[dep_key])
                continue
            dep_manifest = registry.manifest(dep_name, dep_version)
            if dep_manifest is None:
                # release known to the registry index but with no manifest
                node.children.append(DepTree(dep_name, dep_version))
                continue
            child, child_open = expand(dep_name, dep_version, dep_manifest, path + (key,))
            node.children.append(child)
            open_refs |= child_open
        open_refs.discard(key)
        if not open_refs:
            memo[key] = node
        return node, open_refs

    tree, _ = expand(root.name, root.release, root, ())
    return tree


def reference_tree_to_dict(tree: DepTree) -> dict:
    """JSON-ready nested document."""
    doc: dict = {"name": tree.name, "version": tree.version}
    if tree.back_reference:
        doc["back_reference"] = True
    if tree.children:
        doc["children"] = [reference_tree_to_dict(c) for c in tree.children]
    return doc


def reference_iter_lock_entries(tree: DepTree):
    """Lock-style rows for a flat tree: (``name@version``, nesting path)."""
    def walk(node: DepTree, path: tuple[str, ...]):
        yield f"{node.name}@{node.version}", "/".join(path)
        for child in node.children:
            yield from walk(child, path + (node.name,))

    yield from walk(tree, ())


def reference_count_nodes(tree: DepTree) -> int:
    """Number of package occurrences in the tree, counting shared subtrees
    once per occurrence (computed analytically, not by unfolding)."""
    counts: dict[int, int] = {}

    def total(node: DepTree) -> int:
        cached = counts.get(id(node))
        if cached is not None:
            return cached
        value = 1 + sum(total(c) for c in node.children)
        counts[id(node)] = value
        return value

    return total(tree)
