import copy
import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pkgverse.errors import (
    BranchingUpdate,
    DuplicateUnit,
    NameAxiomViolation,
    ParallelEdge,
    PkgverseError,
    SelfLoop,
    SnapshotOrderError,
    TimeAnomaly,
    TimeOrderViolation,
    UnknownUnit,
)
from pkgverse.fixtures import sample_universe, sample_universe_extended
from pkgverse.graph import GrowthDelta, UniverseGraph, UseEdge, diff
from pkgverse.sampling import snapshot_series

from conftest import random_universe
from oracles import (
    brute_snapshot,
    edge_scan_in,
    edge_scan_out,
    reachability_closure,
    time_sorted_chain,
)


class TestAddUnit:
    def test_single_unit(self):
        g = UniverseGraph()
        uid = g.add_unit("x", "1", 10)
        assert g.unit(uid).name == "x"
        assert g.unit_count() == 1

    def test_duplicate_rejected(self):
        g = UniverseGraph()
        g.add_unit("x", "1", 10)
        with pytest.raises(DuplicateUnit):
            g.add_unit("x", "1", 10)

    def test_empty_name_rejected(self):
        g = UniverseGraph()
        with pytest.raises(ValueError):
            g.add_unit("", "1", 10)
        with pytest.raises(ValueError):
            g.add_unit("x", "", 10)

    def test_handles_are_insertion_ordered(self):
        g = UniverseGraph()
        assert [g.add_unit("p", str(i), i) for i in range(5)] == [0, 1, 2, 3, 4]

    def test_growth_step_adds_new_release(self):
        g, handles = sample_universe_extended()
        assert g.find("a", "3") == handles["a3"]


class TestUseEdges:
    def test_neighbourhoods_on_sample_universe(self):
        g, h = sample_universe()
        assert g.use_of(h["a1"]) == {h["x1"]}
        assert g.used_by(h["x1"]) == {h["a1"], h["q1"], h["q2"]}

    def test_parallel_edge_rejected(self):
        g, h = sample_universe()
        with pytest.raises(ParallelEdge):
            g.add_use_edge(h["a1"], h["x1"])

    def test_self_loop_rejected(self):
        g, h = sample_universe()
        with pytest.raises(SelfLoop):
            g.add_use_edge(h["a1"], h["a1"])

    def test_unknown_unit_rejected(self):
        g, h = sample_universe()
        with pytest.raises(UnknownUnit):
            g.add_use_edge(h["a1"], 999)

    def test_leaf_has_no_dependencies(self):
        g, h = sample_universe()
        assert g.use_of(h["x1"]) == set()
        assert g.used_by(h["q3"]) == set()

    def test_time_anomaly_recorded_by_default(self):
        g = UniverseGraph()
        old = g.add_unit("old", "1", 1)
        new = g.add_unit("new", "1", 5)
        edge = g.add_use_edge(old, new)  # uses something released later
        assert g.anomalies == [edge]

    def test_time_anomaly_rejected_in_strict_mode(self):
        g = UniverseGraph(strict=True)
        old = g.add_unit("old", "1", 1)
        new = g.add_unit("new", "1", 5)
        with pytest.raises(TimeAnomaly):
            g.add_use_edge(old, new)
        assert g.use_edges == frozenset()

    def test_neighbourhoods_match_edge_scan_on_random_graphs(self, rng):
        for _ in range(10):
            g = random_universe(rng, rng.randint(20, 200))
            for uid in range(0, g.unit_count(), 7):
                assert g.use_of(uid) == edge_scan_out(g, uid)
                assert g.used_by(uid) == edge_scan_in(g, uid)


class TestUpdateEdges:
    def test_chain_on_sample_universe(self):
        g, h = sample_universe()
        assert g.update_chain("q") == [h["q1"], h["q2"], h["q3"]]

    def test_unknown_name_gives_empty_chain(self):
        g, _ = sample_universe()
        assert g.update_chain("nope") == []

    def test_name_axiom_enforced(self):
        g, h = sample_universe()
        with pytest.raises(NameAxiomViolation):
            g.add_update_edge(h["q2"], h["a2"])

    def test_equal_times_rejected(self):
        g = UniverseGraph()
        u1 = g.add_unit("p", "1", 10)
        u2 = g.add_unit("p", "2", 10)
        with pytest.raises(TimeOrderViolation):
            g.add_update_edge(u1, u2)

    def test_backwards_time_rejected(self):
        g = UniverseGraph()
        u1 = g.add_unit("p", "1", 10)
        u2 = g.add_unit("p", "2", 5)
        with pytest.raises(TimeOrderViolation):
            g.add_update_edge(u1, u2)

    def test_branching_rejected(self):
        g = UniverseGraph()
        u1 = g.add_unit("p", "1", 1)
        u2 = g.add_unit("p", "2", 2)
        u3 = g.add_unit("p", "3", 3)
        g.add_update_edge(u1, u2)
        with pytest.raises(BranchingUpdate):
            g.add_update_edge(u1, u3)  # second successor
        g.add_update_edge(u2, u3)
        u0 = g.add_unit("p", "0", 0)
        with pytest.raises(BranchingUpdate):
            g.add_update_edge(u0, u2)  # second predecessor

    def test_chain_order_equals_time_sort(self, rng):
        for _ in range(10):
            g = random_universe(rng, rng.randint(10, 120))
            for name in g.names():
                assert g.update_chain(name) == time_sorted_chain(g, name)

    def test_chain_respects_every_update_edge(self, rng):
        g = random_universe(rng, 150)
        for name in g.names():
            chain = g.update_chain(name)
            position = {uid: i for i, uid in enumerate(chain)}
            for e in g.update_edges:
                if g.unit(e.src).name == name:
                    assert position[e.src] < position[e.dst]


class TestSnapshots:
    def test_before_everything_is_empty(self):
        g, _ = sample_universe()
        snap = g.timed_snapshot(0)
        assert not snap.units and not snap.use_edges and not snap.update_edges

    def test_at_max_time_is_whole_graph(self):
        g, _ = sample_universe()
        latest = max(u.time for u in g.units)
        snap = g.timed_snapshot(latest)
        assert snap.units == frozenset(g.units)
        assert snap.use_edges == g.use_edges
        assert snap.update_edges == g.update_edges

    def test_growth_step_is_excluded_before_its_time(self):
        g, h = sample_universe_extended()
        snap = g.timed_snapshot(g.unit(h["a3"]).time - 1)
        assert snap.find("a", "3") is None
        assert UseEdge(h["a3"], h["x2"]) not in snap.use_edges
        assert all(e.dst != h["a3"] for e in snap.update_edges)

    def test_snapshot_equals_brute_force_filter(self, rng):
        for _ in range(20):
            g = random_universe(rng, rng.randint(5, 200))
            t = rng.randint(-1, g.unit_count() + 4)
            assert g.timed_snapshot(t) == brute_snapshot(g, t)

    def test_snapshot_monotonicity(self, rng):
        g = random_universe(rng, 100)
        times = sorted(rng.randint(0, 110) for _ in range(6))
        snaps = [g.timed_snapshot(t) for t in times]
        for earlier, later in zip(snaps, snaps[1:]):
            assert earlier.is_subgraph_of(later)

    def test_snapshot_is_immutable(self):
        g, _ = sample_universe()
        snap = g.timed_snapshot(3)
        with pytest.raises(Exception):
            snap.at = 99


class TestTimeIndex:
    def test_snapshots_track_interleaved_writes(self, rng):
        # release times are drawn from the whole range, so new units are
        # often older than existing ones, and edges join arbitrary existing
        # units: every write can land inside an already sorted prefix
        for _ in range(6):
            g = UniverseGraph()
            taken = []
            for step in range(150):
                n = g.unit_count()
                op = rng.random()
                try:
                    if op < 0.4 or n < 2:
                        g.add_unit(f"p{rng.randrange(6)}", str(rng.randrange(40)), rng.randrange(50))
                    elif op < 0.8:
                        g.add_use_edge(rng.randrange(n), rng.randrange(n))
                    else:
                        g.add_update_edge(rng.randrange(n), rng.randrange(n))
                except (DuplicateUnit, SelfLoop, ParallelEdge, NameAxiomViolation,
                        TimeOrderViolation, BranchingUpdate):
                    pass
                t = rng.randrange(-1, 52)
                snap = g.timed_snapshot(t)
                assert snap == brute_snapshot(g, t)
                if step % 5 == 0:
                    chains = {name: snap.update_chain(name) for name in snap.names()}
                    taken.append((snap, brute_snapshot(g, t), chains))
                for earlier, value, chains in taken:
                    assert earlier == value
                    assert {name: earlier.update_chain(name) for name in earlier.names()} == chains
                if step % 25 == 24:
                    t0, step_t = rng.randrange(-1, 10), rng.randrange(1, 12)
                    series = snapshot_series(g, t0, 55, step_t)
                    assert series == [brute_snapshot(g, t) for t in range(t0, 56, step_t)]


# a write or query script: add a unit (name, time), add a use-edge between
# two existing units (picked modulo the unit count), or project at a time
_graph_ops = st.lists(
    st.one_of(
        st.tuples(st.just("unit"), st.integers(0, 3), st.integers(0, 8)),
        st.tuples(st.just("use"), st.integers(0, 60), st.integers(0, 60)),
        st.tuples(st.just("query"), st.none() | st.integers(-1, 9), st.none()),
    ),
    max_size=80,
)


class TestPackageProjection:
    @settings(deadline=None, max_examples=300)
    @given(ops=_graph_ops)
    def test_live_projection_equals_snapshot_projection(self, ops):
        # few names make same-name edges, few times make ties, and
        # arbitrary endpoints make edges whose target postdates the source
        g = UniverseGraph()
        for kind, a, b in ops:
            n = g.unit_count()
            if kind == "unit":
                g.add_unit(f"p{a}", str(n), b)
            elif kind == "use" and n:
                try:
                    g.add_use_edge(a % n, b % n)
                except (SelfLoop, ParallelEdge):
                    pass
            elif kind == "query":
                latest = max((u.time for u in g.units), default=0)
                snap = g.timed_snapshot(latest if a is None else a)
                assert g.package_dependency_edges(a) == snap.package_dependency_edges()
        for t in range(-1, 10):
            assert g.package_dependency_edges(t) == brute_snapshot(g, t).package_dependency_edges()

    def test_index_follows_writes_between_queries(self):
        g = UniverseGraph()
        a, b = g.add_unit("a", "1", 5), g.add_unit("b", "1", 3)
        assert g.package_dependency_edges() == frozenset()
        g.add_use_edge(a, b)
        assert g.package_dependency_edges(4) == frozenset()
        assert g.package_dependency_edges(5) == {("a", "b")}
        c = g.add_unit("c", "1", 1)
        g.add_use_edge(c, b)  # an anomaly: active from b's time, 3
        assert g.package_dependency_edges(3) == {("c", "b")}
        assert g.package_dependency_edges() == {("a", "b"), ("c", "b")}

    def test_snapshot_projects_once(self, rng):
        snap = random_universe(rng, 30).timed_snapshot(40)
        assert snap.package_dependency_edges() is snap.package_dependency_edges()


class TestDiff:
    def test_growth_step_delta(self):
        g, h = sample_universe_extended()
        t_new = g.unit(h["a3"]).time
        older = g.timed_snapshot(t_new - 1)
        newer = g.timed_snapshot(t_new)
        delta = diff(older, newer)
        assert {u.uid for u in delta.added_units} == {h["a3"]}
        assert delta.added_use_edges == frozenset({UseEdge(h["a3"], h["x2"])})
        assert {(e.src, e.dst) for e in delta.added_update_edges} == {(h["a2"], h["a3"])}
        assert delta.strict_growth is True

    def test_diff_with_itself_is_empty(self):
        g, _ = sample_universe()
        snap = g.timed_snapshot(3)
        delta = diff(snap, snap)
        assert delta.is_empty() and delta.strict_growth is True

    def test_wrong_order_rejected(self):
        g, _ = sample_universe()
        with pytest.raises(SnapshotOrderError):
            diff(g.timed_snapshot(4), g.timed_snapshot(2))

    def test_edge_between_old_nodes_is_not_strict_growth(self):
        # three units released early, the a->b edge recorded between two
        # pre-existing releases: enumeration says the delta cannot be strict
        g = UniverseGraph()
        a = g.add_unit("a", "1", 1)
        b = g.add_unit("b", "1", 2)
        older = g.timed_snapshot(5)
        g2 = UniverseGraph()
        a2 = g2.add_unit("a", "1", 1)
        b2 = g2.add_unit("b", "1", 2)
        g2.add_unit("c", "1", 9)
        g2.add_use_edge(a2, b2)
        newer = g2.timed_snapshot(9)
        delta = diff(older, newer)
        assert delta.added_use_edges == frozenset({UseEdge(a, b)})
        assert delta.strict_growth is False

    def test_applying_delta_reproduces_newer(self, rng):
        for _ in range(10):
            g = random_universe(rng, rng.randint(10, 120))
            t1 = rng.randint(0, 60)
            t2 = rng.randint(t1, 130)
            older, newer = g.timed_snapshot(t1), g.timed_snapshot(t2)
            delta = diff(older, newer)
            assert older.units | delta.added_units == newer.units
            assert older.use_edges | delta.added_use_edges == newer.use_edges
            assert older.update_edges | delta.added_update_edges == newer.update_edges


class TestTransitiveDependencies:
    def test_diamond(self):
        g = UniverseGraph()
        top = g.add_unit("top", "1", 3)
        mid = g.add_unit("mid", "1", 2)
        base = g.add_unit("base", "1", 1)
        g.add_use_edge(top, mid)
        g.add_use_edge(top, base)
        g.add_use_edge(mid, base)
        assert g.transitive_dependencies(top) == {mid, base}

    def test_leaf(self):
        g, h = sample_universe()
        assert g.transitive_dependencies(h["x1"]) == set()

    def test_terminates_and_excludes_self_on_cycle(self):
        g = UniverseGraph()
        a = g.add_unit("a", "1", 1)
        b = g.add_unit("b", "1", 2)
        g.add_use_edge(a, b)
        g.add_use_edge(b, a)
        assert g.transitive_dependencies(a) == {b}
        assert g.transitive_dependencies(b) == {a}

    def test_matches_reachability_oracle(self, rng):
        for _ in range(10):
            g = random_universe(rng, rng.randint(10, 100), p_edge=0.08)
            for uid in range(0, g.unit_count(), 5):
                assert g.transitive_dependencies(uid) == reachability_closure(g, uid)

    def test_works_on_snapshots(self, rng):
        g = random_universe(rng, 80)
        snap = g.timed_snapshot(50)
        for u in sorted(snap.units, key=lambda u: u.uid)[::7]:
            assert snap.transitive_dependencies(u.uid) == reachability_closure(snap, u.uid)


class TestMonotonicity:
    def test_event_sequences_only_grow(self, rng):
        g = UniverseGraph()
        snapshots = []
        for i in range(60):
            op = rng.random()
            try:
                if op < 0.5 or g.unit_count() < 2:
                    name = f"p{rng.randrange(6)}"
                    g.add_unit(name, str(rng.randrange(50)), i)
                elif op < 0.85:
                    g.add_use_edge(
                        rng.randrange(g.unit_count()), rng.randrange(g.unit_count())
                    )
                else:
                    g.add_update_edge(
                        rng.randrange(g.unit_count()), rng.randrange(g.unit_count())
                    )
            except Exception:
                pass  # invalid operations must leave the graph untouched
            snapshots.append((set(g.units), set(g.use_edges), set(g.update_edges)))
        for (u1, e1, p1), (u2, e2, p2) in zip(snapshots, snapshots[1:]):
            assert u1 <= u2 and e1 <= e2 and p1 <= p2


def test_growth_delta_is_addition_only_by_construction():
    assert set(GrowthDelta.__dataclass_fields__) == {
        "added_units",
        "added_use_edges",
        "added_update_edges",
        "strict_growth",
    }


def test_snapshots_are_safe_to_share_across_threads():
    import threading

    g, h = sample_universe()
    snap = g.timed_snapshot(4)
    errors = []

    def reader():
        try:
            for _ in range(300):
                assert snap.use_of(h["a1"]) == {h["x1"]}
                assert len(snap.transitive_dependencies(h["q2"])) == 1
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    def writer():
        for i in range(300):
            g.add_unit("w", str(i), 100 + i)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    threads.append(threading.Thread(target=writer))
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(snap.units) == 6  # the snapshot never saw the writer's units


# A write: a unit (name, time), or a use / update edge between two handles,
# any of which may be refused; or a point snapshot, which re-sorts the index.
_writes = st.one_of(
    st.tuples(st.just("unit"), st.sampled_from("abc"), st.integers(0, 9)),
    st.tuples(st.sampled_from(["use", "update"]), st.integers(0, 14), st.integers(0, 14)),
    st.tuples(st.just("read"), st.integers(-1, 10), st.just(0)),
)


def _write(g: UniverseGraph, op) -> None:
    kind, x, y = op
    try:
        if kind == "unit":
            g.add_unit(x, str(g.unit_count()), y)
        elif kind == "read":
            g.timed_snapshot(x)
        else:
            (g.add_use_edge if kind == "use" else g.add_update_edge)(x, y)
    except PkgverseError:
        pass


def _assert_queries_match(snap, oracle, g: UniverseGraph) -> None:
    """Every read query of ``snap`` answers as the scan oracle ``oracle``,
    probed with every name and handle of ``g`` and some that are in none."""
    assert snap.names() == oracle.names()
    for name in sorted({u.name for u in g.units}) + ["ghost"]:
        assert snap.units_of_name(name) == oracle.units_of_name(name)
        assert snap.update_chain(name) == oracle.update_chain(name)
    for u in g.units:
        assert snap.find(u.name, u.release) == oracle.find(u.name, u.release)
    queries = ("unit", "use_of", "used_by", "transitive_dependencies")
    for uid in range(-1, g.unit_count() + 1):
        try:
            expected = [getattr(oracle, q)(uid) for q in queries]
        except UnknownUnit:
            for q in queries:
                with pytest.raises(UnknownUnit):
                    getattr(snap, q)(uid)
            continue
        assert [getattr(snap, q)(uid) for q in queries] == expected
    assert snap.package_dependency_edges() == oracle.package_dependency_edges()


class TestSweep:
    @settings(deadline=None, max_examples=300)
    @given(
        before=st.lists(_writes, max_size=40),
        instants=st.lists(st.integers(-1, 11), max_size=8).map(sorted),
        during=st.lists(st.lists(_writes, max_size=5), max_size=8),
    )
    def test_sweep_equals_point_snapshots(self, before, instants, during):
        """Writes between ``next()`` calls do not show in the sweep: it
        answers for the graph as it stood at its first step."""
        g = UniverseGraph()
        for op in before:
            _write(g, op)
        got, expected, brute = [], [], []
        for k, snap in enumerate(g.timed_snapshots(instants)):
            if k == 0:
                expected = [g.timed_snapshot(t) for t in instants]
                brute = [brute_snapshot(g, t) for t in instants]
            got.append(snap)
            for op in during[k] if k < len(during) else ():
                _write(g, op)
        assert got == expected == brute
        for snap, oracle in zip(got, brute):
            _assert_queries_match(snap, oracle, g)

    def test_writes_between_steps_do_not_show_in_queries(self):
        g = UniverseGraph()
        a = g.add_unit("a", "1", 1)
        sweep = g.timed_snapshots([5, 5])
        first = next(sweep)
        b = g.add_unit("b", "1", 2)
        g.add_use_edge(a, b)
        second = next(sweep)
        assert first == second
        assert second.find("b", "1") is None and second.names() == {"a"}
        assert second.use_of(a) == set() and not second.package_dependency_edges()

    def test_empty_graph_and_duplicate_instants(self):
        g = UniverseGraph()
        assert list(g.timed_snapshots([])) == []
        assert [s.units for s in g.timed_snapshots([0, 0, 5])] == [frozenset()] * 3
        g, _ = sample_universe()
        first, second = g.timed_snapshots([2, 2])
        assert first == second == brute_snapshot(g, 2)

    def test_decreasing_instants_raise(self):
        g, _ = sample_universe()
        sweep = g.timed_snapshots([3, 1])
        assert next(sweep) == g.timed_snapshot(3)
        with pytest.raises(SnapshotOrderError):
            next(sweep)

    def test_series_is_the_sweep(self):
        g = random_universe(random.Random(3), 60)
        assert snapshot_series(g, -2, 70, 9) == [brute_snapshot(g, t) for t in range(-2, 71, 9)]


# a step: a write or a point snapshot (see _writes), a lazy sweep over some
# instants, or one step of a sweep already started (picked modulo their count)
_steps = st.lists(
    st.one_of(
        _writes,
        st.tuples(st.just("sweep"), st.lists(st.integers(-1, 11), max_size=4).map(sorted), st.just(0)),
        st.tuples(st.just("next"), st.integers(0, 3), st.just(0)),
    ),
    min_size=20,
    max_size=60,
)


class TestSnapshotQueries:
    @settings(deadline=None, max_examples=200)
    @given(steps=_steps)
    def test_queries_equal_the_oracle_at_capture(self, steps):
        """Each query of each snapshot, point or swept, answers as the scan
        oracle taken at capture, both then and after every later write,
        including edges between units the snapshot holds."""
        g = UniverseGraph()
        taken, sweeps = [], []  # sweeps: [sweep, instants, oracles at its first step]
        for op in steps:
            kind, x, _ = op
            if kind == "read":
                taken.append((g.timed_snapshot(x), brute_snapshot(g, x)))
            elif kind == "sweep":
                sweeps.append([g.timed_snapshots(x), x, None])
            elif kind == "next" and sweeps:
                sweep = sweeps[x % len(sweeps)]
                if sweep[2] is None:
                    sweep[2] = iter([brute_snapshot(g, t) for t in sweep[1]])
                snap = next(sweep[0], None)
                if snap is None:
                    sweeps.remove(sweep)
                else:
                    taken.append((snap, next(sweep[2])))
            elif kind != "next":
                _write(g, op)
            if kind in ("read", "next") and len(taken) % 2:
                _assert_queries_match(*taken[-1], g)
        for snap, oracle in taken:
            assert snap == oracle
            _assert_queries_match(snap, oracle, g)

    def test_a_later_use_edge_builds_no_member_set(self):
        """A use-edge written after capture, even one between two units of
        the cut, leaves use_of and used_by answering off the graph's
        adjacency: the snapshot never builds the frozenset of its use-edges."""
        g = random_universe(random.Random(8), 120)
        snap, oracle = g.timed_snapshot(60), brute_snapshot(g, 60)
        held = sorted(u.uid for u in oracle.units)
        src, dst = next((a, b) for a in held for b in held if a != b and b not in g.use_of(a))
        g.add_use_edge(src, dst)
        g.add_use_edge(g.add_unit("late", "1", 0), src)
        for uid in held:
            assert snap.use_of(uid) == oracle.use_of(uid)
            assert snap.used_by(uid) == oracle.used_by(uid)
        assert dst not in snap.use_of(src)
        assert snap.use_edges._set is None


def _frozen(snap):
    return (snap.units, snap.use_edges, snap.update_edges)


def _same_set(view, expected: frozenset) -> None:
    assert view == expected and expected == view
    assert not (view != expected or expected != view)
    assert hash(view) == hash(expected) and len(view) == len(expected)
    assert set(view) == expected


class TestSnapshotViews:
    """Snapshot and delta fields are views of the graph's time index; they
    must behave as the frozensets of their members."""

    @settings(deadline=None, max_examples=200)
    @given(rounds=st.lists(
        st.tuples(st.lists(_writes, max_size=12), st.lists(st.integers(-1, 11), max_size=5).map(sorted)),
        max_size=5,
    ))
    def test_views_equal_brute_force_sets(self, rounds):
        g = UniverseGraph()
        taken = []
        for writes, instants in rounds:
            for op in writes:
                _write(g, op)
            snaps = list(g.timed_snapshots(instants))
            brutes = [brute_snapshot(g, t) for t in instants]
            for snap, brute in zip(snaps, brutes):
                assert snap == brute and brute == snap and hash(snap) == hash(brute)
                for view, expected in zip(_frozen(snap), _frozen(brute)):
                    _same_set(view, expected)
                pairs = brute.package_dependency_edges()
                live = g.package_dependency_edges(snap.at)
                _same_set(live, pairs)
                names = sorted(g.names())
                assert {(a, b) for a in names for b in names if (a, b) in live} == pairs
            for (s1, b1), (s2, b2) in zip(zip(snaps, brutes), zip(snaps[1:], brutes[1:])):
                got, expected = diff(s1, s2), diff(b1, b2)
                assert got == expected and hash(got) == hash(expected)
                for field in ("added_units", "added_use_edges", "added_update_edges"):
                    _same_set(getattr(got, field), getattr(expected, field))
                assert s1.is_subgraph_of(s2) and b1.is_subgraph_of(b2)
                assert s2.is_subgraph_of(s1) == b2.is_subgraph_of(b1)
            taken += zip(snaps, brutes)
        for snap, brute in taken:  # later writes never show in a snapshot
            assert snap == brute
        for (s1, b1), (s2, b2) in zip(taken, taken[1:]):
            assert s1.is_subgraph_of(s2) == b1.is_subgraph_of(b2)
            if s1.at <= s2.at:
                assert diff(s1, s2) == diff(b1, b2)

    def test_set_operators_give_frozensets(self):
        g, _ = sample_universe()
        older, newer = g.timed_snapshot(2), g.timed_snapshot(4)
        for op in ("__or__", "__and__", "__sub__", "__xor__"):
            got = getattr(newer.units, op)(older.units)
            assert type(got) is frozenset
            assert got == getattr(frozenset(newer.units), op)(frozenset(older.units))
        assert frozenset(newer.units) - older.units == newer.units - frozenset(older.units)
        assert repr(older.units) == repr(frozenset(older.units))

    def test_older_units_written_later_do_not_show(self):
        g = random_universe(random.Random(5), 40)
        snap, oracle = g.timed_snapshot(20), brute_snapshot(g, 20)
        new = [g.add_unit("late", str(i), i) for i in range(10)]  # all older than 20
        g.add_use_edge(new[1], new[0])
        g.add_update_edge(new[0], new[1])
        g.timed_snapshot(20)  # re-sorts the time index into new lists
        assert _frozen(snap) == _frozen(oracle)
        assert snap == oracle and hash(snap) == hash(oracle)
        assert g.timed_snapshot(20) != snap

    def test_pickle_and_deepcopy_round_trip(self):
        g = random_universe(random.Random(6), 60)
        snap = g.timed_snapshot(30)
        for copied in (pickle.loads(pickle.dumps(snap)), copy.deepcopy(snap)):
            assert copied == snap and hash(copied) == hash(snap)
            assert all(type(field) is frozenset for field in _frozen(copied))
        delta = diff(g.timed_snapshot(10), snap)
        assert pickle.loads(pickle.dumps(delta)) == delta

    def test_pickle_never_carries_the_rest_of_the_column(self):
        # a delta's fields are views of the graph's columns; a pickle holds
        # only their members
        g = UniverseGraph()
        a, b = g.add_unit("a", "1", 1), g.add_unit("b", "1", 1)
        g.add_use_edge(a, b)
        for i in range(10_000):
            g.add_unit("c", str(i), 2)
        delta = diff(g.timed_snapshot(0), g.timed_snapshot(1))
        assert len(delta.added_units) == 2 and len(pickle.dumps(delta)) < 1024
        # a snapshot's pickle or copy carries its graph, and answers every
        # query as the original does
        snap, oracle = g.timed_snapshot(1), brute_snapshot(g, 1)
        for copied in (pickle.loads(pickle.dumps(snap)), copy.deepcopy(snap)):
            _assert_queries_match(copied, oracle, g)

    def test_series_and_diffs_hold_no_copy_of_the_graph(self):
        g = random_universe(random.Random(7), 5_000, p_edge=0.0004)
        g.timed_snapshot(0)  # sort the time index before measuring
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            series = snapshot_series(g, 0, 5_000, 500)
            diffs = [diff(a, b) for a, b in zip(series, series[1:])]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(series) == 11 and len(diffs) == 10
        assert sum(len(d.added_units) for d in diffs) + len(series[0].units) == len(series[-1].units)
        assert held <= 64 * 1024, held
