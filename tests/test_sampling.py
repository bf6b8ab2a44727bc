import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pkgverse.contrib import Contribution
from pkgverse.errors import InsufficientData, InvalidRange, UnknownPackage
from pkgverse.fixtures import sample_universe
from pkgverse.graph import UniverseGraph, diff
from pkgverse.sampling import (
    BreakageReport,
    SampleSpec,
    _reachable_pair_count,
    activity_report,
    chain_breakage,
    sample_top_k,
    snapshot_series,
)

from conftest import random_universe
from oracles import breakage_oracle, brute_snapshot


def full_snapshot(g):
    return g.timed_snapshot(max(u.time for u in g.units))


@st.composite
def package_graphs(draw):
    """A snapshot whose package projection has planted multi-member cycles,
    random cross edges and isolated packages, plus a subset of its names:
    empty, a singleton, all of them, or a random pick."""
    n = draw(st.integers(min_value=1, max_value=14))
    names = [f"p{i:02d}" for i in range(n)]
    linked = names[: draw(st.integers(min_value=0, max_value=n))]  # the rest stay isolated
    g = UniverseGraph()
    releases = {}
    for i, name in enumerate(names):
        count = draw(st.integers(min_value=1, max_value=2))
        releases[name] = [g.add_unit(name, str(r + 1), i + 100 * r) for r in range(count)]
        if count == 2:
            g.add_update_edge(*releases[name])
    pairs = set()
    if len(linked) >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            cycle = draw(st.lists(st.sampled_from(linked), min_size=2, max_size=5, unique=True))
            pairs.update(zip(cycle, cycle[1:] + cycle[:1]))
        pair = st.tuples(st.sampled_from(linked), st.sampled_from(linked))
        pairs.update(draw(st.lists(pair, max_size=3 * len(linked))))
    for a, b in sorted(pairs):
        if a != b:
            g.add_use_edge(draw(st.sampled_from(releases[a])), draw(st.sampled_from(releases[b])))
    kind = draw(st.sampled_from(("empty", "singleton", "full", "random")))
    if kind == "empty":
        subset = set()
    elif kind == "singleton":
        subset = {draw(st.sampled_from(names))}
    elif kind == "full":
        subset = set(names)
    else:
        subset = set(draw(st.lists(st.sampled_from(names), unique=True)))
    return g.timed_snapshot(1000), subset


class TestSampleSpec:
    def test_rejects_bad_metric(self):
        with pytest.raises(ValueError):
            SampleSpec(metric="stars", k=1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            SampleSpec(metric="dependents", k=0)


class TestSampleTopK:
    def test_most_depended_on_package_wins(self):
        g, _ = sample_universe()
        snap = full_snapshot(g)
        assert sample_top_k(snap, SampleSpec("dependents", 1)) == ["x"]

    def test_k_larger_than_ecosystem_returns_all(self):
        g, _ = sample_universe()
        snap = full_snapshot(g)
        assert sample_top_k(snap, SampleSpec("dependents", 99)) == ["x", "a", "q"]

    def test_tie_breaks_by_name_ascending(self):
        g = UniverseGraph()
        b = g.add_unit("beta", "1", 1)
        a = g.add_unit("alpha", "1", 2)
        assert sample_top_k(g.timed_snapshot(5), SampleSpec("dependents", 1)) == ["alpha"]

    def test_activity_metric_counts_releases(self):
        g, _ = sample_universe()
        snap = full_snapshot(g)
        assert sample_top_k(snap, SampleSpec("activity", 1)) == ["q"]  # three releases

    def test_contributors_metric(self):
        g, _ = sample_universe()
        snap = full_snapshot(g)
        contribs = [
            Contribution("c1", "alice", "a", "pr", 2, merged=True),
            Contribution("c2", "bob", "a", "issue", 3),
            Contribution("c3", "alice", "q", "issue", 3),
        ]
        assert sample_top_k(snap, SampleSpec("contributors", 1), contributions=contribs) == ["a"]

    def test_contributors_counted_up_to_the_instant(self):
        g = UniverseGraph()
        g.add_unit("lib", "1.0.0", 50)
        g.add_unit("app", "1.0.0", 100)
        contribs = [
            Contribution("c1", "alice", "app", "pr", 60, merged=True),
            Contribution("c2", "bob", "lib", "issue", 500),
            Contribution("c3", "carol", "lib", "issue", 600),
        ]
        spec = SampleSpec("contributors", 1)
        assert sample_top_k(g.timed_snapshot(100), spec, contributions=contribs) == ["app"]
        # one at the instant itself counts: lib has two contributors at t=600
        assert sample_top_k(g.timed_snapshot(600), spec, contributions=contribs) == ["lib"]

    def test_contributors_without_data_is_an_error(self):
        g, _ = sample_universe()
        with pytest.raises(InsufficientData):
            sample_top_k(full_snapshot(g), SampleSpec("contributors", 1))

    def test_popularity_from_external_table(self):
        g, _ = sample_universe()
        snap = full_snapshot(g)
        pop = {"a": 10.0, "q": 50.0, "x": 30.0}
        assert sample_top_k(snap, SampleSpec("popularity", 2), popularity=pop) == ["q", "x"]
        with pytest.raises(InsufficientData):
            sample_top_k(snap, SampleSpec("popularity", 2))

    def test_determinism(self, rng):
        g = random_universe(rng, 80)
        snap = full_snapshot(g)
        first = sample_top_k(snap, SampleSpec("dependents", 10))
        for _ in range(3):
            assert sample_top_k(snap, SampleSpec("dependents", 10)) == first


class TestChainBreakage:
    def test_full_subset_is_all_zero(self):
        g, _ = sample_universe()
        snap = full_snapshot(g)
        report = chain_breakage(snap, {"a", "q", "x"})
        assert report.all_zero()

    def test_excluding_the_hub_dangles_three_edges(self):
        g, _ = sample_universe()
        snap = full_snapshot(g)
        report = chain_breakage(snap, {"a", "q"})
        assert report.dangling_use_edges == 3  # a1->x1, q1->x1, q2->x1

    def test_keeping_only_the_hub_dangles_the_same_edges(self):
        g, _ = sample_universe()
        snap = full_snapshot(g)
        assert chain_breakage(snap, {"x"}).dangling_use_edges == 3

    def test_unknown_package_rejected(self):
        g, _ = sample_universe()
        with pytest.raises(UnknownPackage):
            chain_breakage(full_snapshot(g), {"ghost"})

    def test_severed_chains_count_discarded_linked_chains(self):
        g, _ = sample_universe()
        snap = full_snapshot(g)
        # the q1=>q2=>q3 and x1=>x2 chains are discarded; a's chain is kept
        report = chain_breakage(snap, {"a"})
        assert report.severed_update_chains == 2

    def test_unlinked_releases_are_not_chains(self):
        g = UniverseGraph()
        g.add_unit("loose", "1", 5)
        g.add_unit("loose", "2", 5)  # tied times, never linked
        g.add_unit("kept", "1", 1)
        report = chain_breakage(g.timed_snapshot(9), {"kept"})
        assert report.severed_update_chains == 0

    def test_broken_paths_on_a_chain(self):
        g = UniverseGraph()
        a = g.add_unit("a", "1", 1)
        b = g.add_unit("b", "1", 2)
        c = g.add_unit("c", "1", 3)
        g.add_use_edge(c, b)
        g.add_use_edge(b, a)
        snap = g.timed_snapshot(5)
        # dropping the middle package breaks c->b, b->a and the transitive c->a
        report = chain_breakage(snap, {"a", "c"})
        assert report.broken_transitive_paths == 3
        assert report.dangling_use_edges == 2

    def test_matches_recomputation_oracle(self, rng):
        for _ in range(15):
            g = random_universe(rng, rng.randint(10, 100))
            snap = full_snapshot(g)
            names = sorted(snap.names())
            subset = {n for n in names if rng.random() < 0.6}
            report = chain_breakage(snap, subset)
            dangling, broken, severed = breakage_oracle(snap, subset)
            assert report == BreakageReport(dangling, broken, severed)

    @settings(deadline=None, max_examples=200)
    @given(case=package_graphs())
    def test_matches_oracle_on_cyclic_package_graphs(self, case):
        snap, subset = case
        report = chain_breakage(snap, subset)
        assert report == BreakageReport(*breakage_oracle(snap, subset))
        if subset == snap.names():
            assert report.all_zero()

    def test_long_linear_chain_does_not_recurse(self):
        # p0000 -> p0001 -> ... -> p2999 drives the SCC search 3000 deep
        n = 3000
        g = UniverseGraph()
        uids = [g.add_unit(f"p{i:04d}", "1", n - i) for i in range(n)]
        for a, b in zip(uids, uids[1:]):
            g.add_use_edge(a, b)
        half = n // 2
        report = chain_breakage(g.timed_snapshot(n), {f"p{i:04d}" for i in range(half)})
        assert report.broken_transitive_paths == n * (n - 1) // 2 - half * (half - 1) // 2
        assert report.dangling_use_edges == 1

    def test_count_memory_follows_reach_not_name_order(self):
        # 20k packages, each using 3 of 200 popular ones spread over name
        # order, as chain_breakage counts them with every second package
        # kept; bits numbered by name order made each closure about as wide
        # as the whole package list, some 58 MB here
        rng = random.Random(7)
        names = [f"p{i:05d}" for i in range(20_000)]
        popular = names[::100]
        edges = sorted({(a, b) for a in names for b in rng.sample(popular, 3) if a != b})
        subset = set(names[::2])
        kept = [(a, b) for a, b in edges if a in subset and b in subset]
        tracemalloc.start()
        try:
            broken = _reachable_pair_count(names, edges) - _reachable_pair_count(sorted(subset), kept)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert broken > 0
        assert peak < 20 * 2**20

    def test_removal_never_decreases_path_and_chain_counts(self, rng):
        # holds for the reachability and chain counts; the dangling count
        # is a boundary measure and is legitimately non-monotone
        g = random_universe(rng, 60)
        snap = full_snapshot(g)
        subset = set(snap.names())
        previous = chain_breakage(snap, subset)
        for name in sorted(snap.names())[:10]:
            subset = subset - {name}
            report = chain_breakage(snap, subset)
            assert report.broken_transitive_paths >= previous.broken_transitive_paths
            assert report.severed_update_chains >= previous.severed_update_chains
            previous = report


class TestSnapshotSeries:
    def test_single_point(self):
        g, _ = sample_universe()
        series = snapshot_series(g, 3, 3, 90)
        assert len(series) == 1 and series[0].at == 3

    def test_270_day_span_in_90_day_steps(self):
        g, _ = sample_universe()
        day = 86400
        series = snapshot_series(g, 0, 270 * day, 90 * day)
        assert [s.at for s in series] == [0, 90 * day, 180 * day, 270 * day]

    def test_invalid_range(self):
        g, _ = sample_universe()
        with pytest.raises(InvalidRange):
            snapshot_series(g, 10, 5, 1)
        with pytest.raises(InvalidRange):
            snapshot_series(g, 0, 10, 0)

    def test_series_is_pointwise_increasing(self, rng):
        g = random_universe(rng, 80)
        series = snapshot_series(g, 0, 90, 10)
        for earlier, later in zip(series, series[1:]):
            assert earlier.is_subgraph_of(later)

    def test_concatenated_diffs_rebuild_final_snapshot(self, rng):
        g = random_universe(rng, 100)
        series = snapshot_series(g, 0, 110, 13)
        units = set(series[0].units)
        use = set(series[0].use_edges)
        upd = set(series[0].update_edges)
        for earlier, later in zip(series, series[1:]):
            delta = diff(earlier, later)
            units |= delta.added_units
            use |= delta.added_use_edges
            upd |= delta.added_update_edges
        assert units == set(series[-1].units)
        assert use == set(series[-1].use_edges)
        assert upd == set(series[-1].update_edges)


class TestActivityReport:
    def test_recent_release_is_not_dormant(self):
        g, _ = sample_universe()
        report = activity_report(g, "x", window=3)
        assert report.releases_in_window >= 1
        assert not report.dormant_but_depended_upon

    def test_quiet_but_used_package_is_flagged_not_failed(self):
        g, _ = sample_universe()
        # x last released at t=5; observe much later with a short window
        report = activity_report(g, "x", window=2, at=20)
        assert report.releases_in_window == 0
        assert report.dependent_count >= 1
        assert report.dormant_but_depended_upon
        assert report.time_since_last_release == 15

    def test_dependent_count_matches_projection_oracle(self, rng):
        for _ in range(10):
            g = random_universe(rng, rng.randint(10, 80))
            snap = full_snapshot(g)
            edges = snap.package_dependency_edges()
            for name in sorted(snap.names()):
                report = activity_report(g, name, window=10)
                assert report.dependent_count == len(
                    {client for client, lib in edges if lib == name}
                )

    def test_unknown_package(self):
        g, _ = sample_universe()
        with pytest.raises(UnknownPackage):
            activity_report(g, "ghost", window=10)

    def test_empty_graph(self):
        with pytest.raises(UnknownPackage, match="^'x': graph is empty$"):
            activity_report(UniverseGraph(), "x", 10)

    @pytest.mark.parametrize("window", [0, -5])
    def test_non_positive_window(self, window):
        g, _ = sample_universe()
        with pytest.raises(InvalidRange):
            activity_report(g, "x", window=window, at=20)

    def test_threshold_configurable(self):
        g, _ = sample_universe()
        report = activity_report(g, "x", window=2, at=20, dormant_threshold=99)
        assert not report.dormant_but_depended_upon

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_threshold_below_1_is_an_invalid_range(self, threshold):
        g = UniverseGraph()
        g.add_unit("lone", "1", 5)  # nothing depends upon it
        with pytest.raises(InvalidRange, match=f"^dormant_threshold must be at least 1, got {threshold}$"):
            activity_report(g, "lone", window=2, at=20, dormant_threshold=threshold)

    def test_later_snapshot_matches_live_graph(self, rng):
        g = UniverseGraph()
        a1 = g.add_unit("a", "1", 10)
        g.add_unit("a", "2", 50)
        g.add_use_edge(g.add_unit("b", "1", 60), a1)
        report = activity_report(g.timed_snapshot(100), "a", 20, at=30)
        assert (report.last_release_time, report.time_since_last_release, report.dependent_count) == (10, 20, 0)
        assert report == activity_report(g, "a", 20, at=30)
        for _ in range(20):
            g = random_universe(rng, rng.randint(1, 40), p_edge=rng.choice((0.02, 0.1, 0.3)))
            snap = g.timed_snapshot(max(u.time for u in g.units))
            for at in (rng.randint(0, snap.at) for _ in range(4)):
                for name in sorted(g.names()):
                    try:
                        expected = activity_report(g, name, 5, at=at)
                    except UnknownPackage:
                        with pytest.raises(UnknownPackage):
                            activity_report(snap, name, 5, at=at)
                        continue
                    assert activity_report(snap, name, 5, at=at) == expected

    def test_live_graph_matches_brute_snapshot(self, rng):
        def outcome(g, name, window, at, threshold):
            try:
                return activity_report(g, name, window, at=at, dormant_threshold=threshold)
            except (UnknownPackage, InvalidRange) as exc:  # InvalidRange: a threshold of 0
                return type(exc).__name__

        for _ in range(40):
            g = random_universe(rng, rng.randint(1, 40), p_edge=rng.choice((0.02, 0.1, 0.3)))
            latest = max(u.time for u in g.units)
            names = sorted(g.names()) + ["ghost"]
            for at in [rng.randint(-2, latest + 3) for _ in range(4)] + [None]:
                snap = brute_snapshot(g, latest if at is None else at)
                for name in names:
                    window, threshold = rng.randint(1, 12), rng.randint(0, 3)
                    expected = outcome(snap, name, window, snap.at, threshold)
                    assert outcome(g, name, window, at, threshold) == expected
