"""Timing wrappers installed around pkgverse's public functions from outside.

The tracer replaces module and class attributes, so the program itself is
unchanged: every pkgverse module namespace holding a reference to a wrapped
function gets the wrapper, and calls made inside the package go through it
too. Spans live in memory as (id, parent, name, start, end, self) and are
written out when the run ends. Boundaries crossed thousands of times per
pass (appends, validation, graph writes and lookups, range parsing) are
aggregated into count, total and self time instead of one span per call.

``LAYER_METRICS`` defines the per-layer metrics computed from a trace and,
for each, the end-to-end figure it should move and on which workload.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (boundary name, module, attribute, aggregate)
BOUNDARIES = (
    ("ingest.parse_registry_dump", "ingest", "parse_registry_dump", True),
    ("ingest.parse_contribution_events", "ingest", "parse_contribution_events", True),
    ("cli.cmd_ingest", "cli", "cmd_ingest", False),
    ("eventlog.append", "eventlog", "EventLog.append", True),
    ("eventlog.validate_payload", "eventlog", "validate_payload", True),
    ("eventlog.read_raw", "eventlog", "EventLog.read_raw", True),
    ("eventlog.replay", "eventlog", "replay", False),
    ("graph.add_unit", "graph", "UniverseGraph.add_unit", True),
    ("graph.add_use_edge", "graph", "UniverseGraph.add_use_edge", True),
    ("graph.add_update_edge", "graph", "UniverseGraph.add_update_edge", True),
    ("graph.find", "graph", "UniverseGraph.find", True),
    ("graph.timed_snapshot", "graph", "UniverseGraph.timed_snapshot", False),
    ("graph.diff", "graph", "diff", False),
    ("graph.package_dependency_edges", "graph", "TimedSnapshot.package_dependency_edges", False),
    ("sampling.snapshot_series", "sampling", "snapshot_series", False),
    ("sampling.activity_report", "sampling", "activity_report", False),
    ("sampling.sample_top_k", "sampling", "sample_top_k", False),
    ("sampling.chain_breakage", "sampling", "chain_breakage", False),
    ("resolve.registry", "resolve", "ManifestRegistry.from_snapshot", False),
    ("resolve.build_nested_tree", "resolve", "build_nested_tree", False),
    ("resolve.flatten_tree", "resolve", "flatten_tree", False),
    ("resolve.detect_conflicts", "resolve", "detect_conflicts", False),
    ("resolve.tree_to_dict", "resolve", "tree_to_dict", True),  # recursive
    ("resolve.iter_lock_entries", "resolve", "iter_lock_entries", True),
    ("semver.parse", "semver", "VersionRange.parse", True),
    ("semver.resolve_version_range", "semver", "resolve_version_range", True),
    ("contrib.merge_identities", "contrib", "merge_identities", False),
    ("contrib.classify_bot", "contrib", "classify_bot", True),
    ("contrib.window_partition", "contrib", "window_partition", False),
    ("contrib.build_dc_graph", "contrib", "build_dc_graph", False),
    ("contrib.congruent_contributions", "contrib", "congruent_contributions", False),
    ("export.snapshot_to_json", "export", "snapshot_to_json", False),
    ("export.snapshot_to_dot", "export", "snapshot_to_dot", False),
    ("export.snapshot_to_graphml", "export", "snapshot_to_graphml", False),
)

GENERATORS = {"ingest.parse_registry_dump", "ingest.parse_contribution_events",
              "eventlog.read_raw", "resolve.iter_lock_entries"}


class Tracer:
    """Span stack, span list and per-boundary aggregates for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, child_time, span_id]
        self._next_id = 0
        self._patches: list[tuple] = []
        self.log_paths: set = set()

    # --- recording -----------------------------------------------------

    def add(self, key: str, value: float = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + value

    def enter(self, name: str) -> None:
        self._next_id += 1
        self._stack.append([name, perf_counter(), 0.0, self._next_id])

    def exit(self, aggregate: bool) -> None:
        end = perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self_time = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.add(name + ":calls")
        self.add(name + ":total", duration)
        self.add(name + ":self", self_time)
        if not aggregate:
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append((span_id, parent, name, start, end, self_time))

    def hidden(self, start: float) -> None:
        """Charge bookkeeping done since ``start`` to no span."""
        spent = perf_counter() - start
        if self._stack:
            self._stack[-1][2] += spent
        self.add("trace.hook_s", spent)

    # --- installing wrappers ----------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "pkgverse" or n.startswith("pkgverse.")]
        for name, module_name, attr, aggregate in BOUNDARIES:
            module = importlib.import_module("pkgverse." + module_name)
            hook = HOOKS.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__, aggregate, hook))
                else:
                    wrapped = self._wrap(name, original, aggregate, hook)
                setattr(cls, meth, wrapped)
                self._patches.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, aggregate, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, aggregate, hook):
        tracer = self
        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    tracer.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.exit(aggregate)
                        return
                    except BaseException as exc:
                        tracer.exit(aggregate)
                        tracer.add(f"{name}!{type(exc).__name__}")
                        raise
                    tracer.exit(aggregate)
                    tracer.add(name + ":items")
                    if hook is not None:
                        started = perf_counter()
                        hook(tracer, args, item)
                        tracer.hidden(started)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(aggregate)
                tracer.add(f"{name}!{type(exc).__name__}")
                raise
            tracer.exit(aggregate)
            if hook is not None:
                started = perf_counter()
                hook(tracer, args, result)
                tracer.hidden(started)
            return result

        return wrapper


def write_spans(path, phases: dict) -> None:
    """Write the spans of each phase (name -> span list) as NDJSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for phase, spans in phases.items():
            for span_id, parent, name, start, end, self_time in spans:
                fh.write(json.dumps({
                    "phase": phase, "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "self": self_time,
                }) + "\n")


# --- hooks: counts taken at the boundaries, outside the timed span ------------


def _on_parsed(tracer, args, item):
    if type(item).__name__ == "Quarantined":
        tracer.add("ingest.quarantined")


def _on_append(tracer, args, result):
    tracer.log_paths.add(args[0].path)


def _on_replay(tracer, args, result):
    for q in result.quarantine:
        tracer.add("eventlog.quarantined." + q.reason)
    tracer.add("eventlog.quarantined", len(result.quarantine))


def _on_snapshot(tracer, args, snap):
    graph = args[0]
    tracer.add("graph.snapshot_yield_sum", len(snap.units) / max(1, graph.unit_count()))


def _on_tree(tracer, args, tree):
    from pkgverse.resolve import count_nodes

    seen, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    tracer.add("resolve.tree_nodes", count_nodes(tree))
    tracer.add("resolve.distinct_nodes", len(seen))


def _on_windows(tracer, args, windows):
    tracer.add("contrib.windows", len(windows))


def _on_pairs(tracer, args, pairs):
    dc = args[0]
    devs = len({c.developer for c in dc.contributions})
    tracer.add("contrib.pairs", len(pairs))
    tracer.add("contrib.scanned", devs * len(dc.dependency_edges))


def _on_export(tracer, args, text):
    tracer.add("export.bytes", len(text.encode("utf-8")))


HOOKS = {
    "ingest.parse_registry_dump": _on_parsed,
    "ingest.parse_contribution_events": _on_parsed,
    "eventlog.append": _on_append,
    "eventlog.replay": _on_replay,
    "graph.timed_snapshot": _on_snapshot,
    "resolve.build_nested_tree": _on_tree,
    "contrib.window_partition": _on_windows,
    "contrib.congruent_contributions": _on_pairs,
    "export.snapshot_to_json": _on_export,
    "export.snapshot_to_dot": _on_export,
    "export.snapshot_to_graphml": _on_export,
}


# --- per-layer metrics ----------------------------------------------------------


def _self(*boundaries):
    return lambda s: sum(s.get(b + ":self", 0.0) for b in boundaries)


def _get(key):
    return lambda s: s.get(key, 0)


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


QUARANTINE_REASONS = ("UnknownUnit", "TimeOrderViolation")

# (name, unit, better, the end-to-end figure it should move @ workload, value)
LAYER_METRICS = [
    ("ingest.parse_registry_dump_s", "s", "lower", "ingest_events_per_s @ history",
     _self("ingest.parse_registry_dump")),
    ("ingest.parse_contribution_events_s", "s", "lower", "ingest_events_per_s @ history",
     _self("ingest.parse_contribution_events")),
    ("ingest.rows", "count", "higher", "ingest_events_per_s @ history",
     lambda s: s.get("ingest.parse_registry_dump:items", 0) + s.get("ingest.parse_contribution_events:items", 0)),
    ("ingest.quarantined", "count", "lower", "ingest_events_per_s @ history", _get("ingest.quarantined")),
    ("cli.ingest_s", "s", "lower", "ingest_events_per_s @ history", _self("cli.cmd_ingest")),
    ("eventlog.append_s", "s", "lower", "ingest_events_per_s, setup_s @ history",
     _self("eventlog.append")),
    ("eventlog.append_calls", "count", "lower", "ingest_events_per_s, setup_s @ history",
     _get("eventlog.append:calls")),
    ("eventlog.bytes_per_event", "B", "lower", "ingest_events_per_s, setup_s @ history",
     _ratio(_get("eventlog.bytes"), _get("eventlog.append:calls"))),
    ("eventlog.validate_payload_s", "s", "lower", "ingest_events_per_s, replay_events_per_s @ history",
     _self("eventlog.validate_payload")),
    ("eventlog.validate_payload_calls", "count", "lower",
     "ingest_events_per_s, replay_events_per_s @ history", _get("eventlog.validate_payload:calls")),
    ("eventlog.read_raw_s", "s", "lower", "replay_events_per_s @ history", _self("eventlog.read_raw")),
    ("eventlog.replay_s", "s", "lower", "replay_events_per_s @ history", _self("eventlog.replay")),
    ("eventlog.apply_ratio", "ratio", "higher", "replay_events_per_s @ history",
     _ratio(lambda s: s.get("eventlog.read_raw:items", 0) - s.get("eventlog.quarantined", 0),
            _get("eventlog.read_raw:items"))),
] + [
    ("eventlog.quarantined." + reason, "count", "lower", "replay_events_per_s @ history",
     _get("eventlog.quarantined." + reason))
    for reason in QUARANTINE_REASONS
] + [
    ("graph.add_unit_s", "s", "lower", "replay_events_per_s @ history", _self("graph.add_unit")),
    ("graph.add_use_edge_s", "s", "lower", "replay_events_per_s @ history", _self("graph.add_use_edge")),
    ("graph.add_update_edge_s", "s", "lower", "replay_events_per_s @ history", _self("graph.add_update_edge")),
    ("graph.find_s", "s", "lower", "replay_events_per_s @ history", _self("graph.find")),
    ("graph.find_calls", "count", "lower", "replay_events_per_s @ history", _get("graph.find:calls")),
    ("graph.timed_snapshot_s", "s", "lower",
     "series_s, activity_p50_ms @ history; congruence_s @ analysis", _self("graph.timed_snapshot")),
    ("graph.timed_snapshot_calls", "count", "lower",
     "series_s, activity_p50_ms @ history; congruence_s @ analysis", _get("graph.timed_snapshot:calls")),
    ("graph.snapshot_yield", "ratio", "higher",
     "series_s, activity_p50_ms @ history; congruence_s @ analysis",
     _ratio(_get("graph.snapshot_yield_sum"), _get("graph.timed_snapshot:calls"))),
    ("graph.diff_s", "s", "lower", "series_s @ history", _self("graph.diff")),
    ("graph.package_dependency_edges_s", "s", "lower", "breakage_s, congruence_s @ analysis",
     _self("graph.package_dependency_edges")),
    ("graph.package_dependency_edges_calls", "count", "lower", "breakage_s, congruence_s @ analysis",
     _get("graph.package_dependency_edges:calls")),
    ("sampling.snapshot_series_s", "s", "lower", "series_s @ history", _self("sampling.snapshot_series")),
    ("sampling.activity_report_s", "s", "lower", "activity_p50_ms @ history", _self("sampling.activity_report")),
    ("sampling.sample_top_k_s", "s", "lower", "breakage_s @ analysis", _self("sampling.sample_top_k")),
    ("sampling.chain_breakage_s", "s", "lower", "breakage_s @ analysis", _self("sampling.chain_breakage")),
    ("sampling.chain_breakage_calls", "count", "lower", "breakage_s @ analysis",
     _get("sampling.chain_breakage:calls")),
    ("resolve.registry_s", "s", "lower", "resolve_s @ analysis", _self("resolve.registry")),
    ("resolve.registry_calls", "count", "lower", "resolve_s @ analysis", _get("resolve.registry:calls")),
    ("resolve.build_nested_tree_s", "s", "lower", "resolve_s @ analysis", _self("resolve.build_nested_tree")),
    ("resolve.flatten_tree_s", "s", "lower", "resolve_s @ analysis", _self("resolve.flatten_tree")),
    ("resolve.detect_conflicts_s", "s", "lower", "resolve_s @ analysis", _self("resolve.detect_conflicts")),
    ("resolve.serialize_s", "s", "lower", "resolve_s @ analysis",
     _self("resolve.tree_to_dict", "resolve.iter_lock_entries")),
    ("resolve.tree_nodes", "count", "higher", "resolve_s @ analysis", _get("resolve.tree_nodes")),
    ("resolve.share_ratio", "ratio", "lower", "resolve_s @ analysis",
     _ratio(_get("resolve.distinct_nodes"), _get("resolve.tree_nodes"))),
    ("semver.parse_s", "s", "lower", "wall_s @ analysis", _self("semver.parse")),
    ("semver.resolve_version_range_s", "s", "lower", "wall_s @ analysis",
     _self("semver.resolve_version_range")),
    ("semver.resolve_calls", "count", "lower", "wall_s @ analysis", _get("semver.resolve_version_range:calls")),
    ("semver.no_match", "count", "lower", "wall_s @ analysis",
     _get("semver.resolve_version_range!NoMatchingVersion")),
    ("contrib.merge_identities_s", "s", "lower", "congruence_s @ analysis", _self("contrib.merge_identities")),
    ("contrib.classify_bot_s", "s", "lower", "congruence_s @ analysis", _self("contrib.classify_bot")),
    ("contrib.build_dc_graph_s", "s", "lower", "congruence_s @ analysis", _self("contrib.build_dc_graph")),
    ("contrib.congruent_contributions_s", "s", "lower", "congruence_s @ analysis",
     _self("contrib.congruent_contributions")),
    ("contrib.windows", "count", "higher", "congruence_s @ analysis", _get("contrib.windows")),
    ("contrib.pairs", "count", "higher", "congruence_s @ analysis", _get("contrib.pairs")),
    ("contrib.pair_yield", "ratio", "higher", "congruence_s @ analysis",
     _ratio(_get("contrib.pairs"), _get("contrib.scanned"))),
    ("export.snapshot_to_json_s", "s", "lower", "export_s @ history", _self("export.snapshot_to_json")),
    ("export.snapshot_to_dot_s", "s", "lower", "export_s @ history", _self("export.snapshot_to_dot")),
    ("export.snapshot_to_graphml_s", "s", "lower", "export_s @ history", _self("export.snapshot_to_graphml")),
    ("export.bytes", "B", "lower", "export_s @ history", _get("export.bytes")),
]


def layer_values(stats: dict) -> dict[str, float]:
    return {name: value(stats) for name, _, _, _, value in LAYER_METRICS}
