import json
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from pkgverse.contrib import (
    CongruentPair,
    Contribution,
    DcGraph,
    build_dc_graph,
    canonicalize_contributions,
    classify_bot,
    congruence_windows,
    congruent_contributions,
    filter_contributions,
    merge_identities,
    window_partition,
    Window,
)
from pkgverse.errors import ConflictingAlias, InvalidRange
from pkgverse.eventlog import EventLog, replay
from pkgverse.fixtures import bot_benchmark, client_library_fixture
from pkgverse.graph import UniverseGraph
from pkgverse.ingest import contribution_records, parse_contributions

from conftest import random_universe
from oracles import congruence_brute_force, reference_merge_identities


def sorted_edges_congruence(g: DcGraph) -> list[CongruentPair]:
    """Reference join: every dependency edge sorted and grouped by client,
    then each developer's targets walked in order against those lists."""
    by_dev_target: dict[tuple[str, str], Contribution] = {}
    for c in g.contributions:
        key = (c.developer, c.target)
        best = by_dev_target.get(key)
        if best is None or (c.time, c.id) < (best.time, best.id):
            by_dev_target[key] = c

    libraries_of: dict[str, list[str]] = {}
    for client, library in sorted(g.dependency_edges):
        libraries_of.setdefault(client, []).append(library)
    targets_of: dict[str, list[str]] = {}
    for dev, target in by_dev_target:
        targets_of.setdefault(dev, []).append(target)

    pairs = []
    for dev in sorted(targets_of):
        for client in sorted(targets_of[dev]):
            c_client = by_dev_target[(dev, client)]
            for library in libraries_of.get(client, ()):
                c_library = by_dev_target.get((dev, library))
                if c_library is not None:
                    pairs.append(CongruentPair(dev, client, library, c_client.id, c_library.id))
    return pairs


def dc_graph(edges, contribs, window=Window(0, 100)) -> DcGraph:
    return DcGraph(
        window=window,
        dependency_edges=frozenset(edges),
        contributions=tuple(contribs),
    )


class TestMergeIdentities:
    def test_same_email_merges(self):
        devs = merge_identities([("Jane", "j@x.com"), ("J. Doe", "j@x.com")])
        assert len(devs) == 1
        assert devs[0].aliases == frozenset({"Jane", "J. Doe", "j@x.com"})
        assert devs[0].canonical_id == "J. Doe"

    def test_email_casefolded(self):
        devs = merge_identities([("Jane", "J@X.com"), ("Jane D", "j@x.com")])
        assert len(devs) == 1

    def test_same_name_different_emails_stay_distinct(self):
        devs = merge_identities([("John Smith", "j1@x.com"), ("John Smith", "j2@x.com")])
        assert len(devs) == 2
        # the shared name is usable by neither; alias sets stay disjoint
        assert devs[0].aliases & devs[1].aliases == frozenset()
        assert {d.canonical_id for d in devs} == {"j1@x.com", "j2@x.com"}

    def test_explicit_alias_merges_across_emails(self):
        devs = merge_identities(
            [("Jane", "j@x.com"), ("janedoe", "jd@y.com")],
            extra_aliases=[("Jane", "janedoe")],
        )
        assert len(devs) == 1
        assert "jd@y.com" in devs[0].aliases

    def test_conflicting_alias_raises(self):
        with pytest.raises(ConflictingAlias):
            merge_identities(
                [("A", "a@x.com"), ("B", "b@x.com")],
                extra_aliases=[("A", "shared"), ("B", "shared")],
            )

    def test_every_author_lands_in_exactly_one_developer(self, rng):
        authors = [
            (f"dev{rng.randrange(12)}", f"m{rng.randrange(15)}@x.com" if rng.random() < 0.8 else "")
            for _ in range(60)
        ]
        devs = merge_identities(authors)
        placed = 0
        for name, email in set(authors):
            homes = [
                d
                for d in devs
                if (name in d.aliases or email and email in d.aliases)
                or d.canonical_id.startswith(f"{name or email or 'author'}#")
            ]
            assert len(homes) >= 1
            placed += 1
        assert placed == len(set(authors))
        for i, d1 in enumerate(devs):
            for d2 in devs[i + 1 :]:
                assert d1.aliases & d2.aliases == frozenset()

    def test_thirty_author_fixture_matches_ground_truth(self):
        # hand-built ground truth: 30 raw identities collapsing to 12 people
        authors, truth = [], {}
        for person in range(10):
            emails = [f"p{person}@work.com", f"p{person}@home.net"]
            names = [f"Person {person}", f"person-{person}", f"P. {person}"]
            authors.append((names[0], emails[0]))
            authors.append((names[1], emails[0]))  # merged by email
            authors.append((names[2], emails[1]))  # merged only via alias file
            truth[person] = {names[0], names[1], names[2], emails[0], emails[1]}
        aliases = [(f"Person {p}", f"P. {p}") for p in range(10)]
        # two loners with no alias entries
        authors.append(("Solo A", "solo-a@x.com"))
        authors.append(("Solo B", ""))
        devs = merge_identities(authors, aliases)
        assert len(devs) == 12
        by_canonical = {d.canonical_id: set(d.aliases) for d in devs}
        for person, members in truth.items():
            assert members in by_canonical.values()
        assert {"Solo A", "solo-a@x.com"} in by_canonical.values()
        assert {"Solo B"} in by_canonical.values()

    # a small pool, so that names and emails collide across authors and
    # alias pairs, in case only too ("ß" folds to "ss"), and empty strings
    # force name#n ids
    _POOL = ("", "ann", "Ann", "ANN", "bob", "Bob", "a@x.org", "A@X.ORG", "b@x.org", "ann#0", "ß", "SS")

    @staticmethod
    def _outcome(merge, authors, aliases):
        try:
            return merge(authors, aliases)
        except (ConflictingAlias, ValueError) as exc:
            return type(exc).__name__, str(exc)

    @settings(deadline=None, max_examples=500)
    @given(
        authors=st.lists(st.tuples(st.sampled_from(_POOL), st.sampled_from(_POOL)), max_size=10),
        aliases=st.lists(st.tuples(st.sampled_from(_POOL), st.sampled_from(_POOL)), max_size=5),
    )
    def test_equals_reference(self, authors, aliases):
        outcome = self._outcome(merge_identities, authors, aliases)
        assert outcome == self._outcome(reference_merge_identities, authors, aliases)
        if isinstance(outcome, list):  # alias sets stay disjoint, up to case
            folded = [a.casefold() for d in outcome for a in d.aliases]
            assert len(folded) == len(set(folded))

    def test_name_n_ids_are_no_other_developers_alias(self):
        # "ann" is shared, so its group falls back to an id; ann#0 is taken
        devs = merge_identities([("ann", ""), ("Ann", ""), ("ann#0", "")])
        assert [sorted(d.aliases) for d in devs] == [["Ann#2"], ["ann#0"], ["ann#1"]]
        assert len({d.canonical_id for d in devs}) == 3

    @pytest.mark.parametrize("pair", [("ann", ""), ("", "ann"), ("", "")])
    def test_empty_alias_string_is_rejected(self, pair):
        with pytest.raises(ValueError, match="alias pair .* holds an empty string"):
            merge_identities([("ann", "")], [pair])

    def test_4000_authors_with_2000_aliases_merge_in_under_2_s(self):
        authors = [(f"dev{i}", f"dev{i}@x.org") for i in range(4000)]
        aliases = [(f"dev{i}", f"dev{i}-alt") for i in range(2000)]
        started = time.perf_counter()
        devs = merge_identities(authors, aliases)
        assert time.perf_counter() - started < 2.0
        assert len(devs) == 4000
        assert {"dev7", "dev7@x.org", "dev7-alt"} in [d.aliases for d in devs]


class TestCanonicalize:
    def test_rewrites_known_aliases(self):
        devs = merge_identities([("Jane", "j@x.com"), ("jd", "j@x.com")])
        contribs = [Contribution("c1", "jd", "app", "pr", 1, merged=True)]
        out = canonicalize_contributions(contribs, devs)
        assert out[0].developer == devs[0].canonical_id

    def test_unknown_identity_passes_through(self):
        out = canonicalize_contributions(
            [Contribution("c1", "ghost", "app", "pr", 1)], []
        )
        assert out[0].developer == "ghost"


class TestClassifyBot:
    def test_bot_named_account_flags(self):
        flagged, score = classify_bot("dependabot", [])
        assert flagged and score >= 0.8

    def test_plain_human_does_not_flag(self):
        contribs = [
            Contribution(f"c{i}", "alice", "app", "pr", t, merged=True, title=title)
            for i, (t, title) in enumerate(
                [(10, "fix cache"), (5000, "rework login"), (51000, "add docs"), (120000, "port tests")]
            )
        ]
        flagged, score = classify_bot("alice", contribs)
        assert not flagged and score < 0.5

    def test_template_and_cadence_flag_neutral_name(self):
        contribs = [
            Contribution(
                f"c{i}", "autopatch", "app", "pr", 1000 + 3600 * i, merged=True,
                title=f"bump dep from 1.{i}.0 to 1.{i + 1}.0",
            )
            for i in range(10)
        ]
        flagged, score = classify_bot("autopatch", contribs)
        assert flagged and score >= 0.8

    def test_benchmark_precision_and_recall(self):
        accounts = bot_benchmark()
        assert len(accounts) == 30
        tp = fp = fn = 0
        for account in accounts:
            flagged, _ = classify_bot(account.name, list(account.contributions))
            if flagged and account.is_bot:
                tp += 1
            elif flagged:
                fp += 1
            elif account.is_bot:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn)
        assert precision >= 0.9
        assert recall >= 0.8


class TestWindowPartition:
    def test_270_days_in_90_day_windows(self):
        windows = window_partition(0, 270 * 86400, 90 * 86400)
        assert len(windows) == 3
        assert windows[0] == Window(0, 90 * 86400)

    def test_short_range_single_window(self):
        assert window_partition(100, 200, 90 * 86400) == [Window(100, 200)]

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            window_partition(5, 5)
        with pytest.raises(InvalidRange):
            window_partition(0, 10, 0)

    @settings(deadline=None)
    @given(
        start=st.integers(min_value=-10**6, max_value=10**6),
        length=st.integers(min_value=1, max_value=30_000),
        width=st.integers(min_value=1, max_value=10**5),
    )
    def test_windows_tile_exactly(self, start, length, width):
        end = start + length
        windows = window_partition(start, end, width)
        assert windows[0].start == start
        assert windows[-1].end == end
        for w1, w2 in zip(windows, windows[1:]):
            assert w1.end == w2.start  # contiguous, hence disjoint as (s, e]
        assert all(0 < w.end - w.start <= width for w in windows)


class TestDcGraph:
    def test_fixture_dc_graph_shape(self):
        g, contribs = client_library_fixture()
        dc = build_dc_graph(g, contribs, Window(0, 100))
        assert dc.dependency_edges == frozenset(
            {("app", "parser"), ("app", "utils"), ("parser", "utils")}
        )
        assert len({(c.developer, c.target) for c in dc.contributions}) == 4

    def test_empty_contributions(self):
        g, _ = client_library_fixture()
        dc = build_dc_graph(g, [], Window(0, 100))
        assert dc.contributions == ()
        assert len(dc.dependency_edges) == 3

    def test_out_of_window_contributions_excluded(self, rng):
        g, contribs = client_library_fixture()
        extra = [
            Contribution(f"x{i}", "alice", "app", "issue", rng.randint(-200, 300))
            for i in range(50)
        ]
        window = Window(0, 100)
        dc = build_dc_graph(g, contribs + extra, window)
        # oracle: plain timestamp filter
        expected = sum(1 for c in contribs + extra if 0 < c.time <= 100)
        assert len(dc.contributions) == expected
        assert all(window.contains(c.time) for c in dc.contributions)

    @settings(deadline=None, max_examples=100)
    @given(
        rnd=st.randoms(use_true_random=False),
        n_units=st.integers(1, 30),
        start=st.integers(-5, 20),
        length=st.integers(1, 50),
        width=st.integers(1, 20),
    )
    def test_live_graph_equals_snapshot_at_each_window_end(self, rnd, n_units, start, length, width):
        g = random_universe(rnd, n_units)
        targets = sorted(g.names()) + ["unknown"]
        contribs = [
            Contribution(f"c{i}", f"dev{rnd.randrange(3)}", rnd.choice(targets), "issue", rnd.randint(-5, 60))
            for i in range(rnd.randint(0, 40))
        ]
        for w in window_partition(start, start + length, width):
            assert build_dc_graph(g, contribs, w).dependency_edges == g.timed_snapshot(w.end).package_dependency_edges()

    def test_dependency_edges_come_from_window_end_snapshot(self):
        g = UniverseGraph()
        a = g.add_unit("a", "1", 10)
        b = g.add_unit("b", "1", 50)
        g.add_use_edge(b, a)
        early = build_dc_graph(g, [], Window(0, 20))
        late = build_dc_graph(g, [], Window(0, 60))
        assert early.dependency_edges == frozenset()
        assert late.dependency_edges == frozenset({("b", "a")})


class TestCongruenceWindows:
    @settings(deadline=None, max_examples=300)
    @given(
        rnd=st.randoms(use_true_random=False),
        n_units=st.integers(1, 20),
        start=st.integers(-60, 20),
        length=st.integers(1, 80),
        width=st.integers(1, 25),
        data=st.data(),
    )
    def test_equals_building_every_window(self, rnd, n_units, start, length, width, data):
        end = start + length
        g = random_universe(rnd, n_units)
        targets = sorted(g.names()) + ["unknown"]
        # times inside and outside the range, and on every window edge
        edges = [*range(start - width, end + 2 * width, width), end, end + 1]
        times = st.one_of(st.integers(start - 2 * width, end + 2 * width), st.sampled_from(edges))
        raw = data.draw(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(targets), times), max_size=30))
        contribs = [Contribution(f"c{i}", f"dev{d}", t, "issue", time) for i, (d, t, time) in enumerate(raw)]
        expected = [
            dc for w in window_partition(start, end, width)
            if (dc := build_dc_graph(g, contribs, w)).contributions
        ]
        assert list(congruence_windows(g, contribs, start, end, width)) == expected

    def test_replayed_contributions_give_the_pairs_of_the_parsed_file(self, tmp_path):
        g, contribs = client_library_fixture(include_bot=True)
        source, log = tmp_path / "c.ndjson", tmp_path / "log.ndjson"
        source.write_text("".join(json.dumps({
            "id": c.id, "author": c.developer, "target": c.target, "type": c.ctype, "time": c.time,
            "merged": c.merged, "title": c.title,
        }) + "\n" for c in contribs))
        with source.open() as fh:
            parsed = list(parse_contributions(fh))
        with source.open() as fh, EventLog(log) as events:
            events.append_records(contribution_records(fh))
        replayed = replay(log).contributions
        assert replayed == [replace(c, title="") for c in parsed]  # the log holds no titles

        def pairs(contributions):
            developers = merge_identities([(c.developer, "") for c in contributions])
            merged = canonicalize_contributions(contributions, developers)
            return [(dc.window, congruent_contributions(dc)) for dc in congruence_windows(g, merged, 0, 40, 20)]

        assert pairs(replayed) == pairs(parsed)
        assert [len(found) for _, found in pairs(parsed)] == [2, 0]

    @pytest.mark.parametrize("bounds", [(5, 5, 1), (5, 4, 1), (0, 10, 0), (0, 10, -3)])
    def test_invalid_range_raises_as_the_partition_does(self, bounds):
        with pytest.raises(InvalidRange) as partition:
            window_partition(*bounds)
        with pytest.raises(InvalidRange) as sweep:
            next(congruence_windows(UniverseGraph(), [], *bounds))
        assert str(sweep.value) == str(partition.value)


class TestCongruence:
    def test_fixture_has_exactly_two_pairs(self):
        g, contribs = client_library_fixture()
        dc = build_dc_graph(g, contribs, Window(0, 100))
        pairs = congruent_contributions(dc)
        assert {(p.developer, p.client, p.library) for p in pairs} == {
            ("alice", "app", "parser"),
            ("bob", "app", "utils"),
        }
        by_dev = {p.developer: p for p in pairs}
        assert by_dev["alice"].client_contribution == "c1"
        assert by_dev["alice"].library_contribution == "c2"

    def test_single_target_developer_yields_nothing(self):
        g, _ = client_library_fixture()
        contribs = [Contribution("c1", "carol", "app", "pr", 10, merged=True)]
        dc = build_dc_graph(g, contribs, Window(0, 100))
        assert congruent_contributions(dc) == []

    def test_permutation_invariance(self, rng):
        g, contribs = client_library_fixture(include_bot=True)
        dc1 = build_dc_graph(g, contribs, Window(0, 100))
        shuffled = contribs[:]
        rng.shuffle(shuffled)
        dc2 = build_dc_graph(g, shuffled, Window(0, 100))
        assert congruent_contributions(dc1) == congruent_contributions(dc2)

    def test_referential_integrity(self):
        g, contribs = client_library_fixture(include_bot=True)
        dc = build_dc_graph(g, contribs, Window(0, 100))
        for pair in congruent_contributions(dc):
            assert (pair.client, pair.library) in dc.dependency_edges

    def test_bot_exclusion_never_adds_pairs(self):
        g, contribs = client_library_fixture(include_bot=True)
        window = Window(0, 100)
        with_bots = congruent_contributions(build_dc_graph(g, contribs, window))
        human_only = congruent_contributions(
            build_dc_graph(g, filter_contributions(contribs, exclude_developers={"dependabot"}), window)
        )
        assert len(human_only) <= len(with_bots)
        assert {(p.developer, p.client, p.library) for p in human_only} <= {
            (p.developer, p.client, p.library) for p in with_bots
        }

    def test_matches_brute_force_on_random_instances(self, rng):
        for _ in range(25):
            n_packages = rng.randint(2, 12)
            packages = [f"pkg{i}" for i in range(n_packages)]
            g = UniverseGraph()
            uids = {p: g.add_unit(p, "1.0.0", i) for i, p in enumerate(packages)}
            for _ in range(rng.randint(1, 3 * n_packages)):
                a, b = rng.sample(packages, 2)
                try:
                    g.add_use_edge(uids[a], uids[b])
                except Exception:
                    pass
            contribs = [
                Contribution(
                    f"c{i}",
                    f"dev{rng.randrange(8)}",
                    rng.choice(packages),
                    rng.choice(("pr", "issue")),
                    rng.randint(1, 100),
                    merged=True,
                )
                for i in range(rng.randint(0, 60))
            ]
            window = Window(0, 100)
            dc = build_dc_graph(g, contribs, window)
            got = {
                (p.developer, p.client, p.library, p.client_contribution, p.library_contribution)
                for p in congruent_contributions(dc)
            }
            expected = congruence_brute_force(dc.dependency_edges, contribs)
            assert got == expected


    @settings(deadline=None, max_examples=300)
    @given(
        edges=st.sets(
            st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")).filter(
                lambda e: e[0] != e[1]
            ),
            min_size=1,
        ),
        raw=st.lists(
            st.tuples(
                st.sampled_from(["dev0", "dev1", "dev2"]),
                st.sampled_from("abcdef"),
                st.integers(min_value=1, max_value=20),
            ),
            min_size=2,
            max_size=40,
        ),
    )
    def test_equals_brute_force_and_stays_ordered(self, edges, raw):
        contribs = [
            Contribution(f"c{i}", dev, target, "issue", t) for i, (dev, target, t) in enumerate(raw)
        ]
        dc = DcGraph(
            window=Window(0, 20),
            dependency_edges=frozenset(edges),
            contributions=tuple(contribs),
        )
        pairs = congruent_contributions(dc)
        rows = [
            (p.developer, p.client, p.library, p.client_contribution, p.library_contribution)
            for p in pairs
        ]
        assert set(rows) == congruence_brute_force(edges, contribs)
        keys = [row[:3] for row in rows]
        assert keys == sorted(set(keys))


    @settings(deadline=None, max_examples=300)
    @given(
        edges=st.sets(st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef"))),
        raw=st.lists(
            st.tuples(
                st.sampled_from(["c0", "c1", "c2", "c3"]),
                st.sampled_from(["dev0", "dev1", "dev2"]),
                st.sampled_from("abcdefg"),
                st.integers(min_value=1, max_value=4),
            ),
            max_size=40,
        ),
    )
    def test_equals_sorted_edges_reference(self, edges, raw):
        # same-name edges, repeated ids and time ties included
        contribs = [Contribution(cid, dev, target, "issue", t) for cid, dev, target, t in raw]
        dc = dc_graph(edges, contribs)
        assert congruent_contributions(dc) == sorted_edges_congruence(dc)

    def test_developer_on_1000_packages_equals_sorted_edges_reference(self, rng):
        packages = [f"pkg{i:04d}" for i in range(1000)]
        edges = {(rng.choice(packages), rng.choice(packages)) for _ in range(5000)}
        contribs = [Contribution(f"p{i}", "prolific", p, "pr", rng.randint(1, 100), merged=True)
                    for i, p in enumerate(packages)]
        contribs += [Contribution(f"o{i}", f"dev{i % 7}", rng.choice(packages), "issue", rng.randint(1, 100))
                     for i in range(200)]
        dc = dc_graph(edges, contribs)
        pairs = congruent_contributions(dc)
        assert pairs == sorted_edges_congruence(dc)
        assert sum(p.developer == "prolific" for p in pairs) == len(edges)  # touched every package

    def test_join_probes_the_projection_without_iterating_it(self):
        class ProbeOnly(frozenset):
            def __iter__(self):
                raise AssertionError("the join iterated the whole projection")

        _, contribs = client_library_fixture()
        dc = dc_graph(ProbeOnly({("app", "parser"), ("app", "utils"), ("parser", "utils")}), contribs)
        assert [(p.developer, p.client, p.library) for p in congruent_contributions(dc)] == [
            ("alice", "app", "parser"),
            ("bob", "app", "utils"),
        ]


class TestFilterContributions:
    def test_unmerged_prs_dropped_by_default(self):
        contribs = [
            Contribution("c1", "a", "p", "pr", 1, merged=False),
            Contribution("c2", "a", "p", "pr", 2, merged=True),
            Contribution("c3", "a", "p", "issue", 3, merged=False),
        ]
        assert [c.id for c in filter_contributions(contribs)] == ["c2", "c3"]
        assert len(filter_contributions(contribs, include_unmerged=True)) == 3
