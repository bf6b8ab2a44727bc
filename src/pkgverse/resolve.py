"""Dependency trees: nested construction, flat hoisting, conflict analysis.

A *nested* tree resolves every dependency independently per parent, the way
installers that allow duplicate versions do, so the same library may appear
with different versions in different subtrees. A *flat* tree models the
hoisting installers perform: walking the nested tree in installation order
(breadth-first, children in declaration order), the first version seen of
each name is promoted to the top level and later conflicting versions stay
nested under the package that needs them. Lookup from any node — own nested
children first, then the top level — still finds exactly the version that
node resolved in the nested tree.

Cycles are broken by marking a repeated (name, version) on the active path
as a back-reference leaf; that is bookkeeping, not an error. Identical
(name, version) subtrees are shared internally, so trees over dense
registries stay cheap to build; consumers that walk trees should treat
nodes as values, not identities. Every walk here is a loop over an explicit
stack, so a tree's depth is bounded by memory, not the recursion limit; the
active path tracks back-references by depth, as Tarjan's lowlink does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import NoMatchingVersion, UnknownRoot
from .graph import TimedSnapshot
from .ingest import Manifest
from .semver import VersionRange, resolve_version_range

__all__ = [
    "DepTree",
    "Conflict",
    "ManifestRegistry",
    "build_nested_tree",
    "flatten_tree",
    "detect_conflicts",
    "unused_declared",
    "tree_to_dict",
    "iter_lock_entries",
    "count_nodes",
]


@dataclass
class DepTree:
    """One resolved package and the dependencies that live underneath it."""

    name: str
    version: str
    children: list["DepTree"] = field(default_factory=list)
    back_reference: bool = False

    @property
    def key(self) -> tuple[str, str]:
        return (self.name, self.version)

    def __repr__(self) -> str:
        tag = " ^" if self.back_reference else ""
        return f"DepTree({self.name}@{self.version}{tag}, children={len(self.children)})"


@dataclass(frozen=True)
class Conflict:
    """A name demanded at two or more distinct versions in one tree."""

    name: str
    versions: frozenset[str]


class ManifestRegistry:
    """The resolvable universe: manifests indexed by name and release."""

    def __init__(self):
        self._manifests: dict[str, dict[str, Manifest]] = {}

    def add(self, manifest: Manifest) -> None:
        self._manifests.setdefault(manifest.name, {})[manifest.release] = manifest

    def releases(self, name: str) -> list[str]:
        return list(self._manifests.get(name, ()))

    def manifest(self, name: str, release: str) -> Manifest | None:
        return self._manifests.get(name, {}).get(release)

    @classmethod
    def from_snapshot(cls, snapshot: TimedSnapshot, uids) -> "ManifestRegistry":
        """Manifest view of the units ``uids`` of a timed snapshot, added in
        handle order: each unit's declared dependencies are its use-edges,
        pinned to the exact target release. This makes resolution
        reproducible at any historical instant."""
        registry = cls()
        for uid in sorted(uids):
            unit = snapshot.unit(uid)
            deps = tuple(
                (dep.name, VersionRange.pin(dep.release))
                for dep in map(snapshot.unit, sorted(snapshot.use_of(uid)))
            )
            registry.add(Manifest(unit.name, unit.release, deps))
        return registry


def build_nested_tree(root: Manifest, registry: ManifestRegistry) -> DepTree:
    """Fully resolve ``root`` against ``registry`` into a nested tree.

    Every dependency range picks the greatest satisfying release available
    in the registry. A (name, version) repeating on the active path becomes
    a back-reference leaf. Raises :class:`NoMatchingVersion` with the
    path at which resolution failed.
    """
    # path maps each active key to its depth, root first. A frame is [node, deps, low]; a
    # subtree whose back-references reach no higher than its root (low) is shared via memo.
    memo: dict[tuple[str, str], DepTree] = {}
    tree = DepTree(root.name, root.release)
    path = {tree.key: 0}
    stack = [[tree, iter(root.dependencies), 0]]
    while stack:
        frame = stack[-1]
        node = frame[0]
        for dep_name, rng in frame[1]:
            if rng.raw and registry.manifest(dep_name, rng.raw) is not None:
                # a requirement naming an existing release label verbatim is
                # an exact pin, whether or not the label parses as semver
                version = rng.raw
            else:
                available = registry.releases(dep_name)
                try:
                    if not available:
                        raise NoMatchingVersion(f"{dep_name!r} has no releases")
                    version = str(resolve_version_range(rng, available))
                except NoMatchingVersion as exc:
                    at = " -> ".join(f"{n}@{v}" for n, v in path)
                    raise NoMatchingVersion(f"{exc} (required at {at})") from None
            key = (dep_name, version)
            if key in path:
                node.children.append(DepTree(dep_name, version, back_reference=True))
                frame[2] = min(frame[2], path[key])
            elif key in memo:
                node.children.append(memo[key])
            elif (manifest := registry.manifest(dep_name, version)) is None:
                # release known to the registry index but with no manifest
                node.children.append(DepTree(dep_name, version))
            else:
                child = DepTree(dep_name, version)
                node.children.append(child)
                path[key] = len(stack)
                stack.append([child, iter(manifest.dependencies), len(stack)])
                break
        else:  # every dependency is placed: the subtree is finished
            stack.pop()
            depth = path.pop(node.key)
            if frame[2] >= depth:
                memo[node.key] = node
            if stack:
                stack[-1][2] = min(stack[-1][2], frame[2])
    return tree


def build_tree_at(
    snapshot: TimedSnapshot, name: str, release: str
) -> DepTree:
    """Nested tree for a unit present in ``snapshot``; raises UnknownRoot.

    Only the root's use-closure is registered: every pin names a release
    inside it, so the tree equals the one resolved against the registry of
    every unit of the snapshot.
    """
    uid = snapshot.find(name, release)
    if uid is None:
        raise UnknownRoot(f"{name}@{release} is not present at t={snapshot.at}")
    registry = ManifestRegistry.from_snapshot(snapshot, snapshot.transitive_dependencies(uid) | {uid})
    return build_nested_tree(registry.manifest(name, release), registry)


def flatten_tree(nested: DepTree) -> DepTree:
    """Hoist a nested tree into flat form by installation order.

    Installation order is breadth-first with children in declaration
    order. The first version of each name becomes a top-level entry; a
    later different version stays nested under the package that resolved
    it; an identical version is deduplicated. Fresh nodes are always
    created, so shared subtrees in the input are never mutated.
    """
    root = DepTree(nested.name, nested.version)
    hoisted: dict[str, str] = {nested.name: nested.version}
    queue: deque[tuple[DepTree, DepTree]] = deque(
        (child, root) for child in nested.children
    )
    while queue:
        node, parent = queue.popleft()
        placed = hoisted.get(node.name)
        if node.back_reference:
            if placed != node.version:
                parent.children.append(
                    DepTree(node.name, node.version, back_reference=True)
                )
            continue
        if placed is None:
            copy = DepTree(node.name, node.version)
            hoisted[node.name] = node.version
            root.children.append(copy)
        elif placed == node.version:
            continue  # already installed; children were handled with the first copy
        else:
            copy = DepTree(node.name, node.version)
            parent.children.append(copy)
        queue.extend((child, copy) for child in node.children)
    return root


def detect_conflicts(tree: DepTree) -> list[Conflict]:
    """Every name appearing at more than one version anywhere in the tree."""
    versions: dict[str, set[str]] = {}
    seen: set[int] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        versions.setdefault(node.name, set()).add(node.version)
        stack.extend(node.children)
    return [
        Conflict(name, frozenset(vs))
        for name, vs in sorted(versions.items())
        if len(vs) >= 2
    ]


def unused_declared(
    manifest: Manifest, observed_imports: set[str]
) -> tuple[set[str], set[str]]:
    """Split declared vs observed dependency names.

    Returns ``(unused, phantom)``: names declared but never observed in
    use, and names observed in use but never declared.
    """
    declared = manifest.dependency_names()
    observed = set(observed_imports)
    return declared - observed, observed - declared


# --- serialization ------------------------------------------------------------


def tree_to_dict(tree: DepTree) -> dict:
    """JSON-ready nested document."""
    doc: dict = {"name": tree.name, "version": tree.version}
    stack = [(tree, doc)]
    while stack:
        node, out = stack.pop()
        if node.back_reference:
            out["back_reference"] = True
        if node.children:
            out["children"] = [{"name": c.name, "version": c.version} for c in node.children]
            stack.extend(zip(node.children, out["children"]))
    return doc


def iter_lock_entries(tree: DepTree):
    """Lock-style rows for a flat tree: (``name@version``, nesting path)."""
    stack: list[tuple[DepTree, str | None]] = [(tree, None)]  # None: the root
    while stack:
        node, path = stack.pop()
        yield f"{node.name}@{node.version}", path or ""
        below = node.name if path is None else f"{path}/{node.name}"
        stack.extend((child, below) for child in reversed(node.children))


def count_nodes(tree: DepTree) -> int:
    """Number of package occurrences in the tree, counting shared subtrees
    once per occurrence (computed analytically, not by unfolding)."""
    counts: dict[int, int] = {}
    stack = [tree]
    while stack:
        node = stack[-1]
        pending = [c for c in node.children if id(c) not in counts]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        counts[id(node)] = 1 + sum(counts[id(c)] for c in node.children)
    return counts[id(tree)]
