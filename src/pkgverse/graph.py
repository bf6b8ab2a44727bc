"""In-memory universe graph of released software units.

Nodes are *software units* — one released version of a program, identified
by ``(name, release)`` and carrying a UTC release timestamp. Two edge kinds
connect them: a *use-edge* records that one unit depends on another, and an
*update-edge* links a release to its immediate successor under the same
name. The graph is append-only: units and edges are never modified or
removed, so the stored sets only grow over time. Historical states are
answered by :meth:`UniverseGraph.timed_snapshot`, which induces the
immutable subgraph of everything released at or before an instant, or by
:meth:`UniverseGraph.timed_snapshots`, which sweeps a run of instants.

Time index: an edge joins every snapshot from its activation time
``max(t_src, t_dst)`` on. The graph keeps units ordered by (time, handle)
and edges by activation time, sorting once on the first read after a
write, so a snapshot is a bisected prefix. Its fields are read-only set
views over those prefixes of the sorted columns, not copies, and
:func:`diff` of two views over the same columns is the view between their
ends. A view pins the whole lists it read, even once a re-sort has built
new ones, and writes only extend those lists past its end, so a snapshot
never changes but keeps its graph's columns alive. The first package
projection after a write indexes each (client, library) pair at its first
activation time, so the graph projects at any instant by bisecting a
prefix, with no snapshot built; writes and replay do no extra work. A
snapshot projects only the whole of itself. A snapshot is a cut of its
graph: its read queries filter the graph's own (see :class:`TimedSnapshot`).

Structural rules enforced on every write:

* ``(name, release)`` is unique; name and release are non-empty.
* use-edges: no self-loops, no parallel duplicates of an ordered pair.
* update-edges: same name on both ends, strictly increasing time, and at
  most one successor / one predecessor per unit (forks are separate units,
  never update branches).

Use-edges whose target was released *after* the source are timestamp noise
in real registry dumps; by default they are accepted and recorded in
:attr:`UniverseGraph.anomalies`, while ``strict=True`` rejects them.

Unit references are stable integer handles assigned in insertion order.
Construction is single-writer; any number of readers, of the graph or of
its snapshots, may query between writes. Snapshots are immutable values.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import (
    BranchingUpdate,
    DuplicateUnit,
    NameAxiomViolation,
    ParallelEdge,
    SelfLoop,
    SnapshotOrderError,
    TimeAnomaly,
    TimeOrderViolation,
    UnknownUnit,
)

__all__ = [
    "SoftwareUnit",
    "UseEdge",
    "UpdateEdge",
    "UniverseGraph",
    "TimedSnapshot",
    "GrowthDelta",
    "diff",
]


@dataclass(frozen=True, slots=True)
class SoftwareUnit:
    """One released version: the atom of the ecosystem."""

    uid: int
    name: str
    release: str
    time: int


@dataclass(frozen=True, slots=True)
class UseEdge:
    """Directed dependency: the unit ``src`` uses the unit ``dst``."""

    src: int
    dst: int


@dataclass(frozen=True, slots=True)
class UpdateEdge:
    """``dst`` is the immediate successor release of ``src``."""

    src: int
    dst: int


@dataclass(frozen=True, slots=True)
class GrowthDelta:
    """Additions separating two snapshots of the same graph.

    ``strict_growth`` reports whether every added edge touches at least one
    added unit — i.e. whether the growth consists purely of new material.
    Real dumps violate this when metadata corrections introduce edges
    between pre-existing releases, so it is surfaced as a flag rather than
    enforced.

    The fields are read-only sets: views of the time index between two
    snapshots of it, else frozensets. Equality and hashing follow members.
    """

    added_units: AbstractSet[SoftwareUnit]
    added_use_edges: AbstractSet[UseEdge]
    added_update_edges: AbstractSet[UpdateEdge]
    strict_growth: bool

    def is_empty(self) -> bool:
        return not (self.added_units or self.added_use_edges or self.added_update_edges)


class _Timeline:
    """Append-only values with fixed times, answered as time prefixes.

    :meth:`sorted_cols` sorts the columns (stably) into new lists on its
    first call after an append, and stores them before setting the flag, so
    a reader that finds the flag set never bisects unsorted columns. Appends
    only extend lists, so a sorted prefix a reader holds never changes."""

    __slots__ = ("cols", "is_sorted")

    def __init__(self):
        self.cols: tuple[list[int], list] = ([], [])  # (times, values)
        self.is_sorted = True

    def append(self, time: int, value) -> None:
        self.cols[0].append(time)
        self.cols[1].append(value)
        self.is_sorted = False

    def sorted_cols(self) -> tuple[list[int], list]:
        """The columns in time order."""
        if not self.is_sorted:
            times, values = self.cols
            order = sorted(range(len(times)), key=times.__getitem__)
            self.cols = ([times[i] for i in order], [values[i] for i in order])
            self.is_sorted = True
        return self.cols


class _Span(AbstractSet):
    """Read-only set of ``values[lo:hi]`` of one time-sorted column of
    distinct values, keeping the column's ``times``. Set operators give
    frozensets. Membership, ``==`` and ``hash`` read a frozenset of the
    members, built on first need and published whole, except that spans of
    one list compare by bounds and a prefix span given ``first`` (value ->
    time it joined) tests membership there. Pickles and copies are that
    frozenset, so they never carry the rest of the column."""

    __slots__ = ("times", "values", "lo", "hi", "first", "_set")

    def __init__(self, times: list[int], values: list, lo: int, hi: int, first: dict | None = None):
        self.times, self.values, self.lo, self.hi, self.first = times, values, lo, hi, first
        self._set: frozenset | None = None

    _from_iterable = staticmethod(frozenset)

    def _members(self) -> frozenset:
        members = self._set
        if members is None:
            members = self._set = frozenset(self)
        return members

    def __len__(self) -> int:
        return self.hi - self.lo

    def __iter__(self):
        return islice(self.values, self.lo, self.hi)

    def __contains__(self, value) -> bool:
        if self.first is None:
            return value in self._members()
        return self.hi > 0 and self.first.get(value, float("inf")) <= self.times[self.hi - 1]

    def __eq__(self, other) -> bool:
        if isinstance(other, _Span) and other.values is self.values:
            return (self.lo, self.hi) == (other.lo, other.hi) or not (self or other)
        return self._members() == other if isinstance(other, AbstractSet) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._members())

    def __reduce__(self):
        return frozenset, (list(self),)

    def __repr__(self) -> str:
        return repr(self._members())


class UniverseGraph:
    """Append-only graph of software units, use-edges and update-edges."""

    def __init__(self, strict: bool = False):
        self.strict = strict
        self._units: list[SoftwareUnit] = []
        self._by_key: dict[tuple[str, str], int] = {}
        self._by_name: dict[str, list[int]] = {}
        self._use_out: dict[int, dict[int, int]] = {}  # src -> dst -> the use-edge's write number
        self._use_in: dict[int, set[int]] = {}
        self._successor: dict[int, int] = {}
        self._predecessor: dict[int, int] = {}
        # the time index: units by release time, edges by activation time
        self._unit_timeline = _Timeline()
        self._use_timeline = _Timeline()
        self._update_timeline = _Timeline()
        # (use-edges indexed, first activation times, package pairs, pair -> time)
        self._pair_index: tuple[int, list[int], list[tuple[str, str]], dict] = (0, [], [], {})
        #: use-edges accepted despite the target postdating the source
        self.anomalies: list[UseEdge] = []

    # --- write API -----------------------------------------------------

    def add_unit(self, name: str, release: str, time: int) -> int:
        """Insert a unit and return its integer handle.

        Duplicates are rejected, not deduplicated: a second (name, release)
        almost always signals a broken ingest.
        """
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

    def add_use_edge(self, src: int, dst: int) -> UseEdge:
        """Record that ``src`` uses ``dst``."""
        units = self._units
        if not (isinstance(src, int) and 0 <= src < len(units) and isinstance(dst, int) and 0 <= dst < len(units)):
            self.unit(src), self.unit(dst)  # the UnknownUnit of the first bad handle
        t_src, t_dst = units[src].time, units[dst].time
        if src == dst:
            raise SelfLoop(f"unit {self._label(src)} cannot use itself")
        if dst in self._use_out.get(src, ()):
            raise ParallelEdge(f"{self._label(src)} -> {self._label(dst)} already present")
        if t_dst > t_src and self.strict:
            raise TimeAnomaly(
                f"{self._label(src)} uses {self._label(dst)} released later"
            )
        edge = UseEdge(src, dst)
        self._use_out.setdefault(src, {})[dst] = len(self._use_timeline.cols[1])
        self._use_in.setdefault(dst, set()).add(src)
        self._use_timeline.append(max(t_src, t_dst), edge)
        if t_dst > t_src:
            self.anomalies.append(edge)
        return edge

    def add_update_edge(self, src: int, dst: int) -> UpdateEdge:
        """Record that ``dst`` is the immediate successor release of ``src``."""
        units = self._units
        if not (isinstance(src, int) and 0 <= src < len(units) and isinstance(dst, int) and 0 <= dst < len(units)):
            self.unit(src), self.unit(dst)  # the UnknownUnit of the first bad handle
        u, v = units[src], units[dst]
        if u.name != v.name:
            raise NameAxiomViolation(f"{self._label(src)} => {self._label(dst)}")
        if not u.time < v.time:
            raise TimeOrderViolation(
                f"{self._label(src)} (t={u.time}) => {self._label(dst)} (t={v.time})"
            )
        if src in self._successor:
            raise BranchingUpdate(f"{self._label(src)} already has a successor")
        if dst in self._predecessor:
            raise BranchingUpdate(f"{self._label(dst)} already has a predecessor")
        edge = UpdateEdge(src, dst)
        self._successor[src] = dst
        self._predecessor[dst] = src
        self._update_timeline.append(v.time, edge)
        return edge

    # --- lookup --------------------------------------------------------

    def unit(self, uid: int) -> SoftwareUnit:
        if not isinstance(uid, int) or not 0 <= uid < len(self._units):
            raise UnknownUnit(f"no unit with handle {uid!r}")
        return self._units[uid]

    def find(self, name: str, release: str) -> int | None:
        """Handle of (name, release), or None."""
        return self._by_key.get((name, release))

    def names(self) -> set[str]:
        return set(self._by_name)

    def units_of_name(self, name: str) -> list[int]:
        return list(self._by_name.get(name, ()))

    def use_of(self, uid: int) -> set[int]:
        """Out-neighbourhood over use-edges: everything ``uid`` uses."""
        self.unit(uid)
        return set(self._use_out.get(uid, ()))

    def used_by(self, uid: int) -> set[int]:
        """In-neighbourhood over use-edges: everything using ``uid``."""
        self.unit(uid)
        return set(self._use_in.get(uid, ()))

    def update_chain(self, name: str) -> list[int]:
        """All releases of ``name``, oldest first.

        Update edges carry strictly increasing timestamps, so ordering by
        (time, handle) respects every chain while interleaving units that
        have no update edges. Unknown names yield an empty list.
        """
        return sorted(self._by_name.get(name, ()), key=lambda u: (self.unit(u).time, u))

    def transitive_dependencies(self, uid: int) -> set[int]:
        """Everything reachable from ``uid`` over use-edges, minus ``uid``.

        Terminates on cyclic graphs; a unit on a cycle through itself is
        still excluded from its own result.
        """
        seen, stack = set(), [uid]
        while stack:
            for v in self.use_of(stack.pop()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        seen.discard(uid)
        return seen

    @property
    def units(self) -> tuple[SoftwareUnit, ...]:
        return tuple(self._units)

    @property
    def use_edges(self) -> AbstractSet[UseEdge]:
        return _Span(*self._use_timeline.sorted_cols(), 0, len(self._use_timeline.cols[1]))

    @property
    def update_edges(self) -> AbstractSet[UpdateEdge]:
        return _Span(*self._update_timeline.sorted_cols(), 0, len(self._update_timeline.cols[1]))

    def unit_count(self) -> int:
        return len(self._units)

    def timed_snapshot(self, at: int) -> TimedSnapshot:
        """Immutable state of the graph at time ``at``: units released at or
        before ``at`` plus the edges induced on them."""
        return next(self.timed_snapshots((at,)))

    def timed_snapshots(self, instants: Iterable[int]) -> Iterator[TimedSnapshot]:
        """``timed_snapshot(t)`` for each ``t`` of ``instants``, lazily, in one
        pass over the time index. The graph is read as it stands at the first
        step: writes made while the sweep is consumed do not show in it.
        Instants must not decrease (:class:`SnapshotOrderError`)."""
        cols = [tl.sorted_cols() for tl in (self._unit_timeline, self._use_timeline, self._update_timeline)]
        ends = [len(times) for times, _ in cols]  # bounds every bisect
        his, last = [0, 0, 0], None
        for at in instants:
            if last is not None and at < last:
                raise SnapshotOrderError(f"instant {at} after {last}")
            last = at
            for i, (times, _) in enumerate(cols):
                his[i] = bisect_right(times, at, his[i], ends[i])
            yield TimedSnapshot(at, *(_Span(t, v, 0, hi) for (t, v), hi in zip(cols, his)), self, *ends[:2])

    def package_dependency_edges(self, at: int | None = None) -> AbstractSet[tuple[str, str]]:
        """Package projection of the use-edges active at ``at`` (of every
        use-edge when None): ``self.timed_snapshot(at).package_dependency_edges()``
        without building the snapshot. It is a view of a prefix of the pair
        index whose membership test reads each pair's first activation."""
        count, times, pairs, first = self._pair_index
        if count != len(self._use_timeline.cols[0]):
            count, times, pairs, first = self._pair_index = self._index_pairs()
        return _Span(times, pairs, 0, len(pairs) if at is None else bisect_right(times, at), first)

    def _index_pairs(self) -> tuple[int, list[int], list[tuple[str, str]], dict[tuple[str, str], int]]:
        """The number of use-edges indexed, then each package pair's first
        activation time and the pairs in that order, and pair -> that time."""
        times, edges = self._use_timeline.sorted_cols()
        units = self._units
        first: dict[tuple[str, str], int] = {}
        for t, e in zip(times, edges):
            client, library = units[e.src].name, units[e.dst].name
            if client != library:
                first.setdefault((client, library), t)
        return len(edges), list(first.values()), list(first), first

    def _label(self, uid: int) -> str:
        u = self._units[uid]
        return f"{u.name}@{u.release}"

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniverseGraph):
            return NotImplemented
        return (
            self._units == other._units
            and self.use_edges == other.use_edges
            and self.update_edges == other.update_edges
        )

    def __repr__(self) -> str:
        n_use, n_upd = len(self._use_timeline.cols[0]), len(self._update_timeline.cols[0])
        return f"UniverseGraph(units={len(self._units)}, use_edges={n_use}, update_edges={n_upd})"


@dataclass(frozen=True)
class TimedSnapshot:
    """Frozen subgraph of everything released at or before ``at``: a cut of
    the graph it was taken from, whose read queries filter the graph's own.

    Equality and hashing consider only ``at``, ``units``, ``use_edges`` and
    ``update_edges``, whether views of the graph's time index or frozensets.
    A unit is in the cut when the graph held it at capture and it was
    released at or before ``at``; a use-edge when the graph held it at
    capture and both its ends are in the cut. So a snapshot never shows a
    later write, but it reads its graph: query it between writes. It keeps
    the graph's column lists alive, even once a re-sort replaced them; a
    pickle or copy carries its graph.
    """

    at: int
    units: AbstractSet[SoftwareUnit]
    use_edges: AbstractSet[UseEdge]
    update_edges: AbstractSet[UpdateEdge]
    _graph: UniverseGraph = field(compare=False, repr=False)
    _unit_count: int = field(compare=False, repr=False)  # at capture
    _use_count: int = field(compare=False, repr=False)  # at capture

    def _has(self, uid: int) -> bool:
        return uid < self._unit_count and self._graph._units[uid].time <= self.at

    def _same_uses(self) -> bool:  # the graph has gained no use-edge since capture
        return len(self._graph._use_timeline.cols[1]) == self._use_count

    def _has_use(self, src: int, dst: int) -> bool:  # written before capture, both ends in the cut
        return self._graph._use_out[src][dst] < self._use_count and self._has(src) and self._has(dst)

    def unit(self, uid: int) -> SoftwareUnit:
        if not (isinstance(uid, int) and uid >= 0 and self._has(uid)):
            raise UnknownUnit(f"no unit with handle {uid!r} in snapshot")
        return self._graph._units[uid]

    def find(self, name: str, release: str) -> int | None:
        uid = self._graph.find(name, release)
        return uid if uid is not None and self._has(uid) else None

    def names(self) -> set[str]:
        return {u.name for u in self.units}

    def units_of_name(self, name: str) -> list[int]:
        return [uid for uid in self._graph.units_of_name(name) if self._has(uid)]

    def use_of(self, uid: int) -> set[int]:
        self.unit(uid)
        return {v for v in self._graph.use_of(uid) if self._has_use(uid, v)}

    def used_by(self, uid: int) -> set[int]:
        self.unit(uid)
        return {v for v in self._graph.used_by(uid) if self._has_use(v, uid)}

    def update_chain(self, name: str) -> list[int]:
        return [uid for uid in self._graph.update_chain(name) if self._has(uid)]

    transitive_dependencies = UniverseGraph.transitive_dependencies  # over this use_of

    @cached_property
    def _sorted_parts(self) -> tuple[list[SoftwareUnit], list[UseEdge], list[UpdateEdge]]:
        """Units by handle, then use-edges and update-edges by (src, dst):
        the order every export writes."""
        ends = attrgetter("src", "dst")
        return (
            sorted(self.units, key=attrgetter("uid")),
            sorted(self.use_edges, key=ends),
            sorted(self.update_edges, key=ends),
        )

    def package_dependency_edges(self) -> AbstractSet[tuple[str, str]]:
        """Package-level projection of the snapshot's use-edges, computed
        once: :meth:`UniverseGraph.package_dependency_edges` at ``at``, the
        projection at any instant, while the graph has no later use-edge.

        Any use-edge between releases of two distinct names induces one
        (client, library) pair; edges between releases of the same name are
        not dependencies at package granularity and are dropped.
        """
        return self._projection

    @cached_property
    def _projection(self) -> AbstractSet[tuple[str, str]]:
        if self._same_uses():
            return self._graph.package_dependency_edges(self.at)
        units = self._graph._units
        pairs = ((units[e.src].name, units[e.dst].name) for e in self.use_edges)
        return frozenset((a, b) for a, b in pairs if a != b)

    def is_subgraph_of(self, other: "TimedSnapshot") -> bool:
        return (
            self.units <= other.units
            and self.use_edges <= other.use_edges
            and self.update_edges <= other.update_edges
        )


def diff(older: TimedSnapshot, newer: TimedSnapshot) -> GrowthDelta:
    """Additions that turn ``older`` into ``newer``.

    Both snapshots must come from the same graph, with ``older.at`` not
    after ``newer.at``; monotonic growth then guarantees the delta contains
    additions only. Where both fields are views of one time-sorted column,
    the addition is the view between their ends and nothing is subtracted.
    """
    if older.at > newer.at:
        raise SnapshotOrderError(f"older.at={older.at} > newer.at={newer.at}")
    added_units = _added(older.units, newer.units)
    added_use = _added(older.use_edges, newer.use_edges)
    added_upd = _added(older.update_edges, newer.update_edges)
    new_uids = {u.uid for u in added_units}
    strict = all(e.src in new_uids or e.dst in new_uids for e in chain(added_use, added_upd))
    return GrowthDelta(added_units, added_use, added_upd, strict)


def _added(old: AbstractSet, new: AbstractSet) -> AbstractSet:
    """``new - old``, as a view when both are views of one column from the same start."""
    if isinstance(old, _Span) and isinstance(new, _Span) and old.values is new.values and old.lo == new.lo:
        return _Span(new.times, new.values, min(old.hi, new.hi), new.hi)
    return frozenset(new) - frozenset(old)
