"""pkgverse: temporal dependency-graph toolkit for package ecosystems.

The library models a package ecosystem as an append-only graph of released
software units connected by use- and update-relations, persisted as an
event log, with analyses layered on top: timed snapshots and growth
deltas, dependency-tree resolution (nested and hoisted-flat), developer
contribution congruence, and sampling-bias measurement.
"""

from .errors import PkgverseError
from .graph import (
    GrowthDelta,
    SoftwareUnit,
    TimedSnapshot,
    UniverseGraph,
    UpdateEdge,
    UseEdge,
    diff,
)
from .eventlog import (
    EventLog,
    QuarantinedEvent,
    ReplayResult,
    replay,
)
from .semver import Version, VersionRange, parse_version, resolve_version_range
from .ingest import (
    ColumnMap,
    Manifest,
    Quarantined,
    RegistryInfo,
    load_registry_table,
    parse_contribution_events,
    parse_manifest,
    parse_registry_dump,
    parse_timestamp,
    registry_info,
)
from .resolve import (
    Conflict,
    DepTree,
    ManifestRegistry,
    build_nested_tree,
    build_tree_at,
    detect_conflicts,
    flatten_tree,
    unused_declared,
)
from .contrib import (
    Contribution,
    CongruentPair,
    DcGraph,
    Developer,
    Window,
    build_dc_graph,
    classify_bot,
    congruent_contributions,
    merge_identities,
    window_partition,
)
from .sampling import (
    ActivityReport,
    BreakageReport,
    SampleSpec,
    activity_report,
    chain_breakage,
    sample_top_k,
    snapshot_series,
)

__version__ = "0.1.0"

__all__ = [
    "PkgverseError",
    "SoftwareUnit",
    "UseEdge",
    "UpdateEdge",
    "UniverseGraph",
    "TimedSnapshot",
    "GrowthDelta",
    "diff",
    "EventLog",
    "QuarantinedEvent",
    "ReplayResult",
    "replay",
    "Version",
    "VersionRange",
    "parse_version",
    "resolve_version_range",
    "Manifest",
    "ColumnMap",
    "Quarantined",
    "RegistryInfo",
    "parse_manifest",
    "parse_registry_dump",
    "parse_contribution_events",
    "parse_timestamp",
    "load_registry_table",
    "registry_info",
    "DepTree",
    "Conflict",
    "ManifestRegistry",
    "build_nested_tree",
    "build_tree_at",
    "flatten_tree",
    "detect_conflicts",
    "unused_declared",
    "Developer",
    "Contribution",
    "Window",
    "DcGraph",
    "CongruentPair",
    "merge_identities",
    "classify_bot",
    "window_partition",
    "build_dc_graph",
    "congruent_contributions",
    "SampleSpec",
    "BreakageReport",
    "ActivityReport",
    "sample_top_k",
    "chain_breakage",
    "snapshot_series",
    "activity_report",
]
