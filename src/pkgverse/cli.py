"""Command-line front end composing the analysis pipeline.

Every subcommand but ``registries`` replays the event log for its graph and
developer aliases, but some read files the log does not hold: ``congruence``
and ``sample --metric contributors`` read ``--contributions``, ``sample
--metric popularity`` reads ``--popularity-csv``, and ``registries`` reads
its table. An option that does not apply is fatal: ``sample`` takes each
file only with the metric that reads it, and ``snapshot`` takes
``--out-dir`` and ``--series-step`` only with ``--series-until``. Data
documents go to stdout (or ``--out``); human-readable summaries go to
stderr. Exit codes: 0 on success, 1 on fatal errors, 2 when the run
completed but some events or records were quarantined.

Subcommands::

    ingest       parse manifests / registry dumps / contribution files into the log
    snapshot     export the graph state at a time (json, dot, graphml), or a series
    resolve      build a dependency tree for a root package (nested or flat)
    congruence   per-window congruent contribution pairs as CSV
    sample       top-k package selection plus optional breakage measurement
    activity     release activity and dormancy flag for one package
    registries   the bundled package-registry reference table
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, astuple, fields
from itertools import chain
from pathlib import Path

from . import export
from .contrib import (
    BOT_THRESHOLD,
    Contribution,
    canonicalize_contributions,
    classify_bot,
    congruence_windows,
    congruent_contributions,
    filter_contributions,
    merge_identities,
)
from .errors import CsvError, InvalidTimestamp, ParseError, PkgverseError, UnknownRoot
from .eventlog import EventLog, Quarantined, replay
from .ingest import (
    ColumnMap,
    RegistryInfo,
    contribution_records,
    load_registry_table,
    manifest_records,
    parse_contributions,
    parse_decimal,
    parse_manifest,
    parse_timestamp,
    registry_dump_records,
)
from .resolve import build_tree_at, detect_conflicts, flatten_tree, iter_lock_entries, tree_to_dict
from .sampling import METRICS, SampleSpec, activity_report, chain_breakage, sample_top_k, series_instants

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_QUARANTINED = 2


def _parse_duration(text: str) -> int:
    """Durations like ``90d``, ``12h``, ``30m``, ``3600s`` or bare seconds."""
    text = text.strip().lower()
    factor = 1
    if text and text[-1] in "dhms":
        factor = {"d": 86400, "h": 3600, "m": 60, "s": 1}[text[-1]]
        text = text[:-1]
    number = parse_decimal(text)
    if number is None:
        raise InvalidTimestamp(f"not a duration: {text!r}")
    return number * factor


def _output(args):
    """A context holding the ``--out`` file, opened for writing, or stdout."""
    return open(args.out, "w", encoding="utf-8") if getattr(args, "out", None) else nullcontext(sys.stdout)


def _emit(args, doc, rows) -> None:
    """Write ``doc`` as JSON when ``--format`` is json, else ``rows`` as CSV."""
    with _output(args) as fh:
        if args.format == "json":
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        else:
            csv.writer(fh, lineterminator="\n").writerows(rows)


@contextmanager
def _reading(path):
    """Report bytes of ``path`` that are not UTF-8 as a ParseError naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _replay_log(args):
    result = replay(args.log, strict=args.strict)
    if result.quarantine:
        reasons = Counter(q.reason for q in result.quarantine)
        by_reason = ", ".join(f"{reason}: {n}" for reason, n in sorted(reasons.items()))
        print(
            f"warning: {len(result.quarantine)} events quarantined during replay ({by_reason})",
            file=sys.stderr,
        )
    return result


def _at_or_latest(at, graph) -> int:
    """The ``--at`` time, or the newest release time when it is absent."""
    return parse_timestamp(at) if at is not None else max((u.time for u in graph.units), default=0)


def _exit_code(*quarantines) -> int:
    return EXIT_QUARANTINED if any(quarantines) else EXIT_OK


def _column_map(columns: str | None) -> ColumnMap | None:
    """The ``--columns`` list as a ColumnMap: its names replace the leading
    defaults, in ColumnMap's field order."""
    if not columns:
        return None
    names = columns.split(",")
    limit = len(fields(ColumnMap))
    if len(names) > limit:
        raise PkgverseError(f"--columns takes at most {limit} names, got {len(names)}")
    return ColumnMap(*names)


def _load_contribution_file(path, aliases) -> tuple[list[Contribution], list[Quarantined]]:
    """The file's contributions, with identities merged under the log's
    ``(canonical, alias)`` pairs, and its quarantined records, each of which
    is reported on stderr."""
    contributions: list[Contribution] = []
    quarantined: list[Quarantined] = []
    with open(path, encoding="utf-8-sig") as fh, _reading(path):
        for item in parse_contributions(fh, source=str(path)):
            if isinstance(item, Quarantined):
                quarantined.append(item)
                print(f"quarantined {item.source}:{item.line_no}: {item.reason}", file=sys.stderr)
            else:
                contributions.append(item)
    developers = merge_identities([(c.developer, "") for c in contributions], aliases)
    return canonicalize_contributions(contributions, developers), quarantined


# --- subcommands ----------------------------------------------------------------


def cmd_ingest(args) -> int:
    counts: Counter[str] = Counter()
    quarantined: list[Quarantined] = []

    def good(stream):
        for item in stream:
            if isinstance(item, Quarantined):
                quarantined.append(item)
            else:
                counts[item[0]] += 1  # the record's kind
                yield item

    with EventLog(args.log) as log:
        for path in map(Path, args.inputs):
            with _reading(path):
                if args.kind == "manifest":
                    sections = ("dependencies", "devDependencies") if args.include_dev else ("dependencies",)
                    manifest = parse_manifest(path.read_text(encoding="utf-8-sig"), sections)
                    log.append_records(good(manifest_records(manifest, args.time)))
                    continue
                with path.open(encoding="utf-8-sig", newline="") as fh:  # -sig: drop a leading BOM
                    if args.kind == "dump":
                        records = registry_dump_records(fh, _column_map(args.columns), source=str(path))
                    else:
                        records = contribution_records(fh, source=str(path))
                    log.append_records(good(records))
    summary = ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items())) or "0 events"
    print(f"appended {summary}; {len(quarantined)} quarantined", file=sys.stderr)
    if quarantined:
        report = Path(str(args.log) + ".quarantine.ndjson")
        with report.open("a", encoding="utf-8") as fh:
            for q in quarantined:
                fh.write(
                    json.dumps(
                        {"source": q.source, "line": q.line_no, "reason": q.reason, "record": q.record},
                        separators=(",", ":"),
                        default=str,
                    )
                    + "\n"
                )
        print(f"quarantine report: {report}", file=sys.stderr)
    return _exit_code(quarantined)


def cmd_snapshot(args) -> int:
    if args.series_until is not None:
        if args.out or args.format not in (None, "dot"):
            raise PkgverseError("--series-until writes DOT files to --out-dir; it takes no --out or --format but dot")
    elif args.out_dir is not None or args.series_step is not None:
        raise PkgverseError("--out-dir and --series-step take --series-until; a single snapshot goes to --out or stdout")
    result = _replay_log(args)
    at = parse_timestamp(args.at)
    if args.series_until is not None:
        step = _parse_duration("90d" if args.series_step is None else args.series_step)
        instants = series_instants(at, parse_timestamp(args.series_until), step)
        paths = export.export_snapshot_series(result.graph.timed_snapshots(instants), args.out_dir or "snapshots")
        print(f"wrote {len(paths)} snapshot files", file=sys.stderr)
        return _exit_code(result.quarantine)
    snap = result.graph.timed_snapshot(at)
    with _output(args) as fh:
        export.write_snapshot(fh, snap, args.format or "json")
    print(
        f"snapshot at t={at}: {len(snap.units)} units, "
        f"{len(snap.use_edges)} use-edges, {len(snap.update_edges)} update-edges",
        file=sys.stderr,
    )
    return _exit_code(result.quarantine)


def cmd_resolve(args) -> int:
    result = _replay_log(args)
    name, _, release = args.root.rpartition("@")  # a scoped npm name starts with "@"
    if not (name and release):
        raise UnknownRoot(f"--root must look like name@version, got {args.root!r}")
    snap = result.graph.timed_snapshot(_at_or_latest(args.at, result.graph))
    tree = build_tree_at(snap, name, release)
    conflicts = detect_conflicts(tree)
    if args.style == "flat":
        tree = flatten_tree(tree)
    doc = None
    if args.format == "json":  # unfolds the whole tree, so a lock file does not build it
        doc = {
            "style": args.style,
            "root": tree_to_dict(tree),
            "conflicts": [
                {"name": c.name, "versions": sorted(c.versions)} for c in conflicts
            ],
        }
    _emit(args, doc, chain([("package", "path")], iter_lock_entries(tree)))
    print(f"{len(conflicts)} version conflicts", file=sys.stderr)
    return _exit_code(result.quarantine)


def cmd_congruence(args) -> int:
    if not 0.0 <= args.bot_threshold <= 1.0:
        raise PkgverseError(f"--bot-threshold must be within [0, 1], got {args.bot_threshold}")
    result = _replay_log(args)
    contributions, quarantined = _load_contribution_file(args.contributions, result.aliases)

    excluded: set[str] = set()
    if not args.keep_bots:
        by_dev: dict[str, list[Contribution]] = {}
        for c in contributions:
            by_dev.setdefault(c.developer, []).append(c)
        for dev, items in by_dev.items():
            _, score = classify_bot(dev, items)
            if score >= args.bot_threshold:
                excluded.add(dev)
    contributions = filter_contributions(
        contributions,
        include_unmerged=args.include_unmerged,
        exclude_developers=excluded,
    )

    t_lo = min((c.time for c in contributions), default=0)
    t_hi = max((c.time for c in contributions), default=1)
    start = parse_timestamp(args.window_start) if args.window_start is not None else t_lo - 1
    end = parse_timestamp(args.window_end) if args.window_end is not None else t_hi
    # cross-window mode drops the co-window requirement by spanning the
    # whole range with a single window
    width = end - start if args.cross_window else _parse_duration(args.window)

    rows = [
        (window, pair)
        for window, dc in congruence_windows(result.graph, contributions, start, end, width)
        for pair in congruent_contributions(dc)
    ]
    with _output(args) as fh:
        export.write_congruence_csv(fh, rows)
    print(
        f"{len(rows)} congruent pairs across {len(range(start, end, width))} windows; "
        f"{len(excluded)} developers excluded as bots",
        file=sys.stderr,
    )
    return _exit_code(quarantined, result.quarantine)


def cmd_sample(args) -> int:
    try:
        spec = SampleSpec(metric=args.metric, k=args.k)
    except ValueError as exc:
        raise PkgverseError(str(exc)) from None
    if args.contributions is not None and args.metric != "contributors":
        raise PkgverseError("--contributions takes --metric contributors")
    if args.popularity_csv is not None and args.metric != "popularity":
        raise PkgverseError("--popularity-csv takes --metric popularity")
    result = _replay_log(args)
    snap = result.graph.timed_snapshot(_at_or_latest(args.at, result.graph))

    contributions, quarantined = None, []
    if args.contributions:
        contributions, quarantined = _load_contribution_file(args.contributions, result.aliases)
    popularity = None
    if args.popularity_csv:
        with open(args.popularity_csv, newline="", encoding="utf-8-sig") as fh, _reading(args.popularity_csv):
            rows = csv.DictReader(fh)
            popularity = {}
            try:
                for row in rows:
                    try:
                        popularity[row["package"]] = score = float(row["score"])
                        if not math.isfinite(score):  # nan would break the ranking's order
                            raise ValueError(score)
                    except (KeyError, TypeError, ValueError):  # TypeError: a row too short to hold a score
                        where = f"{args.popularity_csv}:{rows.line_num}"
                        raise CsvError(f"{where}: expected a package and a finite numeric score") from None
            except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
                # the DictReader counts a row once it is read; its csv reader counts the failing one too
                raise CsvError(f"{args.popularity_csv}:{rows.reader.line_num}: {exc}") from None
    selected = sample_top_k(snap, spec, contributions=contributions, popularity=popularity)
    breakage = chain_breakage(snap, set(selected)) if args.measure_breakage else None
    doc: dict = {"metric": args.metric, "k": args.k, "selected": selected}
    counts: dict = {}
    if breakage is not None:
        doc["breakage"] = counts = asdict(breakage)
    columns = sorted(counts)
    rows = ([rank, name] + [counts[k] for k in columns] for rank, name in enumerate(selected, 1))
    _emit(args, doc, [["rank", "package"] + columns, *rows])
    print(f"selected {len(selected)} packages", file=sys.stderr)
    return _exit_code(quarantined, result.quarantine)


def cmd_activity(args) -> int:
    if args.threshold < 1:
        raise PkgverseError(f"--threshold must be at least 1, got {args.threshold}")
    result = _replay_log(args)
    at = parse_timestamp(args.at) if args.at is not None else None
    report = activity_report(
        result.graph,
        args.package,
        _parse_duration(args.window),
        at=at,
        dormant_threshold=args.threshold,
    )
    doc = asdict(report)
    _emit(args, doc, [sorted(doc), [doc[k] for k in sorted(doc)]])
    return _exit_code(result.quarantine)


def cmd_registries(args) -> int:
    with _reading(args.table):
        table = load_registry_table(args.table)
    if args.ecosystem:
        table = [r for r in table if r.ecosystem.lower() == args.ecosystem.lower()]
        if not table:
            raise PkgverseError(f"unknown registry {args.ecosystem!r}")
    _emit(args, [asdict(r) for r in table], [[f.name for f in fields(RegistryInfo)], *map(astuple, table)])
    return EXIT_OK


# --- parser ------------------------------------------------------------------------


def _common_flags(sub: argparse.ArgumentParser, needs_log: bool = True) -> None:
    if needs_log:
        sub.add_argument("--log", required=True, help="event log path (NDJSON)")
        sub.add_argument("--strict", action="store_true", help="reject time-anomalous use-edges")
    sub.add_argument("--out", help="write the data document here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pkgverse",
        description="Temporal dependency-graph toolkit for software package ecosystems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("ingest", help="parse raw inputs and append events to the log")
    p.add_argument("inputs", nargs="+", help="input files")
    p.add_argument("--kind", required=True, choices=("manifest", "dump", "contributions"))
    p.add_argument("--columns", help="comma-separated dump column names, in the order "
                                     "platform,name,version,released_at,dep_name,dep_requirement; "
                                     "a shorter list overrides the leading ones and keeps the rest")
    p.add_argument("--include-dev", action="store_true", help="also ingest devDependencies")
    p.add_argument("--time", type=int, default=0, help="release time for manifest ingests (epoch seconds)")
    p.add_argument("--log", required=True, help="event log path (NDJSON)")
    p.set_defaults(func=cmd_ingest)

    p = commands.add_parser("snapshot", help="export the graph state at a time")
    p.add_argument("--at", required=True, help="timestamp (epoch seconds or ISO-8601)")
    p.add_argument("--format", choices=("json", "dot", "graphml"), help="default json; a series is DOT")
    p.add_argument("--series-until", help="export a snapshot series up to this time instead")
    p.add_argument("--series-step", help="series spacing (default 90d)")
    p.add_argument("--out-dir", help="directory for series DOT files")
    _common_flags(p)
    p.set_defaults(func=cmd_snapshot)

    p = commands.add_parser("resolve", help="build a dependency tree for a root package")
    p.add_argument("--root", required=True, help="root as name@version")
    p.add_argument("--at", help="resolve against the snapshot at this time (default: latest)")
    p.add_argument("--style", default="nested", choices=("nested", "flat"))
    p.add_argument("--format", default="json", choices=("json", "lock"))
    _common_flags(p)
    p.set_defaults(func=cmd_resolve)

    p = commands.add_parser("congruence", help="detect congruent contribution pairs per window")
    p.add_argument("--contributions", required=True, help="NDJSON contribution records")
    p.add_argument("--window", default="90d", help="analysis window width (default 90d)")
    p.add_argument("--window-start", help="analysis range start (default: before first record)")
    p.add_argument("--window-end", help="analysis range end (default: last record)")
    p.add_argument("--keep-bots", action="store_true", help="do not exclude bot accounts")
    p.add_argument("--bot-threshold", type=float, default=BOT_THRESHOLD)
    p.add_argument("--include-unmerged", action="store_true",
                   help="count unmerged pull requests as contributions")
    p.add_argument("--cross-window", action="store_true",
                   help="allow the two contributions of a pair to fall in different windows")
    _common_flags(p)
    p.set_defaults(func=cmd_congruence)

    p = commands.add_parser("sample", help="pick top-k packages and measure breakage")
    p.add_argument("--metric", required=True, choices=METRICS)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--at", help="sample the snapshot at this time (default: latest)")
    p.add_argument("--contributions", help="NDJSON records (metric=contributors only, and required there)")
    p.add_argument("--popularity-csv", help="CSV with package,score columns (metric=popularity only)")
    p.add_argument("--measure-breakage", action="store_true")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    _common_flags(p)
    p.set_defaults(func=cmd_sample)

    p = commands.add_parser("activity", help="release activity report for one package")
    p.add_argument("--package", required=True)
    p.add_argument("--window", default="90d")
    p.add_argument("--at", help="observation time (default: newest release)")
    p.add_argument("--threshold", type=int, default=1,
                   help="dependents needed for the dormant-but-depended-upon flag")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    _common_flags(p)
    p.set_defaults(func=cmd_activity)

    p = commands.add_parser("registries", help="bundled package-registry reference table")
    p.add_argument("--ecosystem", help="look up a single registry")
    p.add_argument("--table", help="alternative registries CSV")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    _common_flags(p, needs_log=False)
    p.set_defaults(func=cmd_registries)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PkgverseError, OSError, RecursionError) as exc:  # RecursionError: json.dumps of a tree ~1,000+ deep
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
