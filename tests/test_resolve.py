import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from pkgverse.errors import NoMatchingVersion, UnknownRoot
from pkgverse.fixtures import sample_universe
from pkgverse.graph import UniverseGraph
from pkgverse.ingest import Manifest
from pkgverse.resolve import (
    Conflict,
    DepTree,
    ManifestRegistry,
    build_nested_tree,
    build_tree_at,
    count_nodes,
    detect_conflicts,
    flatten_tree,
    iter_lock_entries,
    tree_to_dict,
    unused_declared,
)
from pkgverse.semver import VersionRange

from conftest import random_manifest_universe, random_universe
from oracles import (
    reference_build_nested_tree,
    reference_count_nodes,
    reference_iter_lock_entries,
    reference_tree_to_dict,
)


def manifest(name, release, deps=()):
    return Manifest(name, release, tuple((d, VersionRange.parse(r)) for d, r in deps))


def conflict_registry():
    """The classic diamond-with-conflict: A needs B 1.0.0 and C; C needs B 2.0.0."""
    registry = ManifestRegistry()
    registry.add(manifest("B", "1.0.0"))
    registry.add(manifest("B", "2.0.0"))
    registry.add(manifest("C", "1.0.0", [("B", "2.0.0")]))
    root = manifest("A", "1.0.0", [("B", "1.0.0"), ("C", "1.0.0")])
    registry.add(root)
    return root, registry


def tree_shape(tree):
    """Hashable structural digest: (name, version, backref, children...)."""
    return (
        tree.name,
        tree.version,
        tree.back_reference,
        tuple(tree_shape(c) for c in tree.children),
    )


class TestBuildNestedTree:
    def test_hand_resolved_conflict_fixture(self):
        # oracle: manual recursive resolution of the three-package fixture
        root, registry = conflict_registry()
        tree = build_nested_tree(root, registry)
        assert tree_shape(tree) == (
            "A", "1.0.0", False,
            (
                ("B", "1.0.0", False, ()),
                ("C", "1.0.0", False, (("B", "2.0.0", False, ()),)),
            ),
        )

    def test_dependency_free_root(self):
        tree = build_nested_tree(manifest("solo", "1.0.0"), ManifestRegistry())
        assert tree_shape(tree) == ("solo", "1.0.0", False, ())

    def test_cycle_becomes_back_reference(self):
        registry = ManifestRegistry()
        registry.add(manifest("A", "1.0.0", [("B", "1.0.0")]))
        registry.add(manifest("B", "1.0.0", [("A", "1.0.0")]))
        tree = build_nested_tree(registry.manifest("A", "1.0.0"), registry)
        assert tree_shape(tree) == (
            "A", "1.0.0", False,
            (("B", "1.0.0", False, (("A", "1.0.0", True, ()),)),),
        )

    def test_ranges_resolve_to_max(self):
        registry = ManifestRegistry()
        registry.add(manifest("B", "1.2.0"))
        registry.add(manifest("B", "1.9.0"))
        registry.add(manifest("B", "2.0.0"))
        tree = build_nested_tree(manifest("A", "1.0.0", [("B", "^1.0.0")]), registry)
        assert tree.children[0].version == "1.9.0"

    def test_unresolvable_range_carries_path(self):
        registry = ManifestRegistry()
        registry.add(manifest("B", "1.0.0", [("C", "^9.0.0")]))
        registry.add(manifest("C", "1.0.0"))
        with pytest.raises(NoMatchingVersion) as exc:
            build_nested_tree(manifest("A", "1.0.0", [("B", "^1.0.0")]), registry)
        assert "A@1.0.0 -> B@1.0.0" in str(exc.value)

    def test_shared_subtrees_resolve_identically(self, rng):
        for _ in range(10):
            root, registry = random_manifest_universe(rng)
            tree = build_nested_tree(root, registry)
            resolution: dict[tuple, dict[str, str]] = {}
            stack, seen = [tree], set()
            while stack:
                node = stack.pop()
                if id(node) in seen or node.back_reference:
                    continue
                seen.add(id(node))
                here = {c.name: c.version for c in node.children}
                assert resolution.setdefault(node.key, here) == here
                stack.extend(node.children)


class TestFlatten:
    def test_bfs_hoist_on_conflict_fixture(self):
        # oracle: hand-simulated breadth-first hoisting of the fixture
        root, registry = conflict_registry()
        flat = flatten_tree(build_nested_tree(root, registry))
        assert flat.key == ("A", "1.0.0")
        assert [c.key for c in flat.children] == [("B", "1.0.0"), ("C", "1.0.0")]
        c_node = flat.children[1]
        assert [c.key for c in c_node.children] == [("B", "2.0.0")]

    def test_conflict_free_tree_is_fully_flat(self):
        registry = ManifestRegistry()
        registry.add(manifest("B", "1.0.0", [("D", "1.0.0")]))
        registry.add(manifest("C", "1.0.0", [("D", "1.0.0")]))
        registry.add(manifest("D", "1.0.0"))
        root = manifest("A", "1.0.0", [("B", "1.0.0"), ("C", "1.0.0")])
        flat = flatten_tree(build_nested_tree(root, registry))
        assert {c.key for c in flat.children} == {("B", "1.0.0"), ("C", "1.0.0"), ("D", "1.0.0")}
        assert all(not c.children for c in flat.children)

    def test_sibling_duplicates_hoist_once(self):
        registry = ManifestRegistry()
        registry.add(manifest("B", "1.0.0"))
        registry.add(manifest("C", "1.0.0", [("B", "1.0.0")]))
        registry.add(manifest("D", "1.0.0", [("B", "1.0.0")]))
        root = manifest("A", "1.0.0", [("C", "1.0.0"), ("D", "1.0.0")])
        nested = build_nested_tree(root, registry)
        flat = flatten_tree(nested)
        # oracle: distinct pairs of the nested tree, counted by enumeration
        distinct = {("A", "1.0.0"), ("B", "1.0.0"), ("C", "1.0.0"), ("D", "1.0.0")}
        assert count_nodes(flat) == len(distinct)
        assert sum(1 for c in flat.children if c.name == "B") == 1

    def test_resolution_preserved_on_random_universes(self, rng):
        from oracles import assert_flatten_preserves_resolution

        for _ in range(30):
            root, registry = random_manifest_universe(rng)
            nested = build_nested_tree(root, registry)
            flat = flatten_tree(nested)
            assert_flatten_preserves_resolution(nested, flat)

    def test_flatten_is_idempotent(self, rng):
        for _ in range(30):
            root, registry = random_manifest_universe(rng)
            flat = flatten_tree(build_nested_tree(root, registry))
            assert tree_shape(flatten_tree(flat)) == tree_shape(flat)

    def test_node_count_never_increases(self, rng):
        for _ in range(30):
            root, registry = random_manifest_universe(rng)
            nested = build_nested_tree(root, registry)
            assert count_nodes(flatten_tree(nested)) <= count_nodes(nested)

    def test_conflict_free_flat_has_exactly_distinct_pairs(self, rng):
        for _ in range(40):
            root, registry = random_manifest_universe(rng)
            nested = build_nested_tree(root, registry)
            if detect_conflicts(nested):
                continue
            flat = flatten_tree(nested)
            pairs = set()
            stack, seen = [nested], set()
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                pairs.add(node.key)
                stack.extend(node.children)
            assert {c.key for c in flat.children} | {flat.key} == pairs
            assert all(not c.children for c in flat.children)


class TestDetectConflicts:
    def test_conflict_fixture(self):
        root, registry = conflict_registry()
        conflicts = detect_conflicts(build_nested_tree(root, registry))
        assert [(c.name, set(c.versions)) for c in conflicts] == [("B", {"1.0.0", "2.0.0"})]

    def test_conflict_free(self):
        root, registry = conflict_registry()
        tree = build_nested_tree(manifest("A", "1.0.0", [("B", "2.0.0")]), registry)
        assert detect_conflicts(tree) == []

    def test_three_versions_one_conflict(self):
        tree = DepTree("A", "1.0.0", [
            DepTree("B", "1.0.0"),
            DepTree("C", "1.0.0", [DepTree("B", "2.0.0", [DepTree("B", "3.0.0")])]),
        ])
        conflicts = detect_conflicts(tree)
        # oracle: enumerate every node of the hand-built tree
        assert len(conflicts) == 1
        assert conflicts[0].versions == frozenset({"1.0.0", "2.0.0", "3.0.0"})

    def test_matches_enumeration_on_random_trees(self, rng):
        for _ in range(20):
            root, registry = random_manifest_universe(rng)
            tree = build_nested_tree(root, registry)
            by_name: dict[str, set[str]] = {}
            stack, seen = [tree], set()
            while stack:
                node = stack.pop()
                if id(node) in seen:
                    continue
                seen.add(id(node))
                by_name.setdefault(node.name, set()).add(node.version)
                stack.extend(node.children)
            expected = {name: vs for name, vs in by_name.items() if len(vs) >= 2}
            got = {c.name: set(c.versions) for c in detect_conflicts(tree)}
            assert got == expected


class TestUnusedDeclared:
    def test_unused(self):
        m = manifest("a", "1.0.0", [("B", "*"), ("C", "*")])
        assert unused_declared(m, {"B"}) == ({"C"}, set())

    def test_empty(self):
        assert unused_declared(manifest("a", "1.0.0"), set()) == (set(), set())

    def test_phantom(self):
        m = manifest("a", "1.0.0", [("B", "*")])
        assert unused_declared(m, {"B", "D"}) == (set(), {"D"})


class TestSnapshotView:
    def test_registry_from_snapshot_pins_exact_releases(self):
        g, h = sample_universe()
        snap = g.timed_snapshot(5)
        registry = ManifestRegistry.from_snapshot(snap, [u.uid for u in snap.units])
        m = registry.manifest("a", "1")
        assert [(d, str(r)) for d, r in m.dependencies] == [("x", "1")]

    def test_build_tree_at_unknown_root(self):
        g, _ = sample_universe()
        with pytest.raises(UnknownRoot):
            build_tree_at(g.timed_snapshot(5), "ghost", "1.0.0")

    def test_build_tree_at_matches_full_registry(self, rng):
        # dense random graphs: cyclic, with releases outside each root's closure
        back_referencing = 0
        for _ in range(8):
            g = random_universe(rng, rng.randint(6, 22), p_edge=0.1)
            last = max(u.time for u in g.units)
            for at in (last // 2, last):
                snap = g.timed_snapshot(at)
                registry = ManifestRegistry.from_snapshot(snap, [u.uid for u in snap.units])
                for unit in sorted(snap.units, key=lambda u: u.uid):
                    expected = tree_to_dict(
                        build_nested_tree(registry.manifest(unit.name, unit.release), registry)
                    )
                    got = tree_to_dict(build_tree_at(snap, unit.name, unit.release))
                    assert got == expected
                    back_referencing += "back_reference" in repr(got)
        assert back_referencing > 0

    def test_historic_resolution(self):
        g = UniverseGraph()
        lib1 = g.add_unit("lib", "1.0.0", 10)
        app = g.add_unit("app", "1.0.0", 20)
        g.add_unit("lib", "2.0.0", 30)
        g.add_use_edge(app, lib1)
        early = build_tree_at(g.timed_snapshot(20), "app", "1.0.0")
        assert tree_shape(early) == ("app", "1.0.0", False, (("lib", "1.0.0", False, ()),))


class TestSerialization:
    def test_tree_to_dict(self):
        root, registry = conflict_registry()
        doc = tree_to_dict(build_nested_tree(root, registry))
        assert doc["name"] == "A"
        assert doc["children"][1]["children"][0] == {"name": "B", "version": "2.0.0"}

    def test_lock_entries(self):
        root, registry = conflict_registry()
        flat = flatten_tree(build_nested_tree(root, registry))
        rows = list(iter_lock_entries(flat))
        assert rows == [
            ("A@1.0.0", ""),
            ("B@1.0.0", "A"),
            ("C@1.0.0", "A"),
            ("B@2.0.0", "A/C"),
        ]


# labels padded with whitespace or not semver at all, and requirements that
# pin them verbatim, resolve through the grammar, or match nothing
LABELS = ["1.0.0", "1.2.0", "2.0.0", " 1.2.0 ", "1.0", "nightly"]
RANGES = ["^1.0.0", "*", ">=1.1.0", "<2.0.0", "^9.0.0"]


@st.composite
def cyclic_registries(draw):
    """A root and a small registry whose dependencies run in any direction.
    Half of them also draw requirements that may match nothing, and names
    ``ghost``, which has no releases."""
    names = [*"abcde", "ghost"] if draw(st.booleans()) else [*"abcde"]
    labels = {name: draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=2, unique=True)) for name in "abcde"}
    labels["ghost"] = []

    def requirements(name):
        if "ghost" in names:
            return [*map(VersionRange.pin, labels[name] + LABELS), *map(VersionRange.parse, RANGES)]
        semver = {"1.0.0", "1.2.0", "2.0.0", " 1.2.0 "} & set(labels[name])
        return [*map(VersionRange.pin, labels[name]), *[VersionRange.parse("*")] * bool(semver)]

    def dependencies():
        return tuple((name, draw(st.sampled_from(requirements(name))))
                     for name in draw(st.lists(st.sampled_from(names), max_size=3)))

    registry = ManifestRegistry()
    releases = [Manifest(name, label, dependencies()) for name in "abcde" for label in labels[name]]
    for release in releases:
        registry.add(release)
    root = Manifest("root", "1.0.0", dependencies())
    if draw(st.booleans()):
        root = draw(st.sampled_from(releases))  # a root its own dependencies may reach
    return root, registry


def distinct_nodes(tree):
    """Each distinct node object once, in pre-order of first visit, as
    (name, version, back_reference, child positions in this list):
    equal lists mean equal shapes with equal sharing. A loop, unlike
    DepTree.__eq__, which recurses."""
    position, nodes, stack = {}, [], [tree]
    while stack:
        node = stack.pop()
        if id(node) not in position:
            position[id(node)] = len(nodes)
            nodes.append(node)
            stack.extend(reversed(node.children))
    return [(n.name, n.version, n.back_reference, [position[id(c)] for c in n.children]) for n in nodes]


class TestIterativeWalks:
    @settings(deadline=None, max_examples=500)
    @given(cyclic_registries())
    def test_equal_to_the_recursive_walks(self, universe):
        root, registry = universe
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # NonSemverRelease, for the unparsable labels
            try:
                expected = reference_build_nested_tree(root, registry)
            except NoMatchingVersion as exc:
                with pytest.raises(NoMatchingVersion) as got:
                    build_nested_tree(root, registry)
                assert str(got.value) == str(exc)
                return
            tree = build_nested_tree(root, registry)
        assert distinct_nodes(tree) == distinct_nodes(expected)
        assert count_nodes(tree) == reference_count_nodes(expected)
        assert tree_to_dict(tree) == reference_tree_to_dict(expected)
        assert list(iter_lock_entries(tree)) == list(reference_iter_lock_entries(expected))
        flat = flatten_tree(tree)
        assert list(iter_lock_entries(flat)) == list(reference_iter_lock_entries(flatten_tree(expected)))

    def test_a_chain_deeper_than_the_recursion_limit(self):
        # p4999 -> p4998 -> ... -> p0 -> q@1.0.0, and p4999 -> q@2.0.0 besides
        depth = 5000
        assert sys.getrecursionlimit() < depth
        g = UniverseGraph()
        q1, q2 = g.add_unit("q", "1.0.0", 0), g.add_unit("q", "2.0.0", 1)
        chain = [g.add_unit(f"p{i}", "1.0.0", 2 + i) for i in range(depth)]
        g.add_use_edge(chain[0], q1)
        for lower, upper in zip(chain, chain[1:]):
            g.add_use_edge(upper, lower)
        g.add_use_edge(chain[-1], q2)
        tree = build_tree_at(g.timed_snapshot(depth + 1), f"p{depth - 1}", "1.0.0")
        names = [f"p{i}" for i in reversed(range(depth))]

        node, doc, walked = tree, tree_to_dict(tree), []
        while node.name != "q":
            assert doc["name"] == node.name and doc["version"] == node.version
            walked.append(node.name)
            node, doc = node.children[-1], doc["children"][-1]
        assert walked == names and doc == {"name": "q", "version": "1.0.0"}
        assert [(c.name, c.version) for c in tree.children] == [("q", "2.0.0"), ("p4998", "1.0.0")]
        assert count_nodes(tree) == depth + 2
        assert detect_conflicts(tree) == [Conflict("q", frozenset({"1.0.0", "2.0.0"}))]

        rows = iter_lock_entries(tree)
        assert next(rows) == ("p4999@1.0.0", "")
        assert next(rows) == ("q@2.0.0", "p4999")
        path = "p4999"
        for name in names[1:]:
            assert next(rows) == (f"{name}@1.0.0", path)
            path += "/" + name
        assert list(rows) == [("q@1.0.0", path)]

        flat = flatten_tree(tree)
        assert list(iter_lock_entries(flat)) == [
            ("p4999@1.0.0", ""),
            ("q@2.0.0", "p4999"),
            *((f"{name}@1.0.0", "p4999") for name in names[1:]),
            ("q@1.0.0", "p4999/p0"),
        ]
