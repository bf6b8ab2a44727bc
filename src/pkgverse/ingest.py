"""Parsers turning raw ecosystem data into log records.

Three input families are supported, all file-based:

* package manifests (package.json-like documents),
* registry dump CSVs (libraries.io-style, column mapping configurable),
* contribution records (NDJSON of pull requests / issues / discussions),

plus the bundled table describing well-known package registries. Each
family has a record view (``*_records``) of ``(kind, leaf values)`` records,
which the CLI writes with ``EventLog.append_records``. Parsers are streaming
and pure per record: a dump is converted row by row, with memory bounded by
the row. A record that cannot be converted is yielded as a
:class:`Quarantined` item, so one bad row cannot poison a large ingest.
Dumps and contribution files each have one walker holding every row rule
of its input. Contribution files have a second view,
:func:`parse_contributions`, which yields
:class:`~pkgverse.contrib.Contribution` values with their titles for the
analyses; titles are not part of the log.

Use-edges in the event schema name a concrete ``(name, release)`` target.
Dependency declarations, however, carry *ranges*; these are emitted
verbatim as the target release label. Exact pins therefore link up at
replay time, while range-valued requirements surface in the replay
quarantine as unresolvable references (they remain fully analyzable via
the resolver, which works on manifests, not on the log). Resolving ranges
at replay time instead would require a second pass and break the property
that replaying a concatenation equals replaying the parts in order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .contrib import Contribution
from .errors import CsvError, InvalidTimestamp, MissingField, ParseError
from .semver import VersionRange

__all__ = [
    "Manifest",
    "RegistryInfo",
    "ColumnMap",
    "Quarantined",
    "parse_timestamp",
    "parse_manifest",
    "manifest_to_json",
    "manifest_records",
    "registry_dump_records",
    "parse_registry_dump",
    "contribution_records",
    "parse_contribution_events",
    "parse_contributions",
    "load_registry_table",
    "registry_info",
]

DEPENDENCY_SECTIONS = (
    "dependencies",
    "devDependencies",
    "peerDependencies",
    "optionalDependencies",
)


@dataclass(frozen=True)
class Quarantined:
    """A record that could not be converted, with its location and reason."""

    source: str
    line_no: int
    reason: str
    record: object


def parse_decimal(text: str) -> int | None:
    """The integer ``text`` spells as an optional ``-`` and ASCII digits, or
    None. ``int()`` also reads underscores, a ``+``, surrounding whitespace
    and non-ASCII digits; none of those is a number here."""
    digits = text[1:] if text[:1] == "-" else text
    try:
        return int(text) if digits.isascii() and digits.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def parse_timestamp(value) -> int:
    """Normalize epoch seconds or ISO-8601 text to UTC epoch seconds."""
    if isinstance(value, bool):
        raise InvalidTimestamp(f"not a timestamp: {value!r}")
    if isinstance(value, int) or isinstance(value, float) and math.isfinite(value):
        return int(value)
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise InvalidTimestamp("empty timestamp")
        seconds = parse_decimal(text)
        if seconds is not None:
            return seconds
        if text.endswith(" UTC"):  # registry-dump style: 2015-03-17 22:05:49 UTC
            text = text[:-4]
        if text.endswith(("Z", "z")):
            text = text[:-1] + "+00:00"
        try:
            dt = datetime.fromisoformat(text)
        except ValueError:
            raise InvalidTimestamp(f"not a timestamp: {value!r}") from None
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return int(dt.timestamp())
    raise InvalidTimestamp(f"not a timestamp: {value!r}")


# --- manifests ---------------------------------------------------------------


@dataclass(frozen=True)
class Manifest:
    """Parsed dependency declaration of one released unit."""

    name: str
    release: str
    dependencies: tuple[tuple[str, VersionRange], ...]

    def dependency_names(self) -> set[str]:
        return {name for name, _ in self.dependencies}


def _reject_duplicate_keys(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def parse_manifest(data: bytes | str, sections: tuple[str, ...] = ("dependencies",)) -> Manifest:
    """Parse a package.json-like document.

    Only the named dependency ``sections`` are read (runtime dependencies
    by default); unknown fields are ignored. Duplicate JSON keys are
    rejected — a manifest with two entries for one dependency is ambiguous.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8-sig")  # -sig: drop a leading BOM
    try:
        doc = json.loads(data, object_pairs_hook=_reject_duplicate_keys)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("manifest must be a JSON object")
    name = doc.get("name")
    release = doc.get("version")
    if not isinstance(name, str) or not name:
        raise MissingField("manifest has no name")
    if not isinstance(release, str) or not release:
        raise MissingField("manifest has no version")
    deps: list[tuple[str, VersionRange]] = []
    for section in sections:
        if section not in DEPENDENCY_SECTIONS:
            raise ValueError(f"unknown dependency section {section!r}")
        block = doc.get(section)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ParseError(f"section {section!r} must be an object")
        for dep_name, requirement in block.items():
            if not isinstance(requirement, str):
                raise ParseError(f"requirement of {dep_name!r} must be a string")
            deps.append((dep_name, VersionRange.parse(requirement)))
    names = [n for n, _ in deps]
    if len(names) != len(set(names)):
        raise ParseError("dependency declared in multiple sections")
    return Manifest(name=name, release=release, dependencies=tuple(deps))


def manifest_to_json(manifest: Manifest) -> str:
    """Serialize back to a minimal package.json-like document; feeding the
    output to :func:`parse_manifest` yields an equal manifest."""
    doc = {
        "name": manifest.name,
        "version": manifest.release,
        "dependencies": {name: rng.raw or str(rng) for name, rng in manifest.dependencies},
    }
    return json.dumps(doc, indent=2)


def manifest_records(manifest: Manifest, time: int) -> list[tuple[str, tuple]]:
    """Records for :meth:`~pkgverse.eventlog.EventLog.append_records`
    declaring the manifest's unit, ``("unit", (name, release, time))``, and
    its dependency edges, ``("use", (name, release, dep_name, requirement))``.

    Targets carry the declared requirement verbatim as the release label
    (see module docstring for the linking semantics).
    """
    name, release = manifest.name, manifest.release
    return [("unit", (name, release, time))] + [
        ("use", (name, release, dep_name, rng.raw or str(rng))) for dep_name, rng in manifest.dependencies
    ]


# --- registry dumps -----------------------------------------------------------


@dataclass(frozen=True)
class ColumnMap:
    """Names of the CSV columns a registry dump uses (libraries.io-style
    defaults). Dependency columns are optional per row."""

    platform: str = "platform"
    name: str = "name"
    version: str = "version"
    released_at: str = "released_at"
    dep_name: str = "dep_name"
    dep_requirement: str = "dep_requirement"


def registry_dump_records(reader, mapping: ColumnMap | None = None, source: str = "<dump>"):
    """Walk a registry dump CSV, the one place of its row rules: yields
    :class:`Quarantined` items and records for
    :meth:`~pkgverse.eventlog.EventLog.append_records`.

    Every row bearing a new (name, version) yields a ``("unit", (name,
    version, time))`` record; every row with a dependency column yields a
    ``("use", (name, version, dep_name, requirement))`` record, with ``*``
    for a blank requirement. Consecutive rows for the same (name, version),
    the usual layout for multi-dependency packages, yield the unit once.
    Blank lines are skipped. Rows with an unparsable timestamp or a missing name
    or version, and rows longer than the header, are yielded as
    :class:`Quarantined` items; a shorter row reads its missing cells as
    empty. Raises :class:`CsvError` when there is no header or it lacks a
    required column, or when a row cannot be read as CSV.

    Rows are numbered from 2, counting the non-blank ones, so a quoted field
    with a newline does not shift the numbers of later rows.
    """
    mapping = mapping or ColumnMap()
    rows = enumerate(filter(None, csv.reader(reader)), start=1)  # a blank line reads as []
    row_no = 0  # of the last row read
    try:
        row_no, header = next(rows, (0, None))
        if header is None:
            raise CsvError(f"{source}: empty file, expected a header row")
        index = {column: i for i, column in enumerate(header)}  # a repeated name reads its last cell
        for column in (mapping.name, mapping.version, mapping.released_at):
            if column not in index:
                raise CsvError(f"{source}: missing column {column!r}")
        at_name, at_version, at_time = index[mapping.name], index[mapping.version], index[mapping.released_at]
        at_dep, at_requirement = index.get(mapping.dep_name), index.get(mapping.dep_requirement)
        width = len(header)
        previous_name = previous_version = None
        for row_no, row in rows:
            if len(row) != width:
                if len(row) > width:
                    yield Quarantined(source, row_no, "CsvError", f"row has extra fields: {row[width:]!r}")
                    continue
                row += [None] * (width - len(row))  # missing cells read as None
            name = (row[at_name] or "").strip()
            version = (row[at_version] or "").strip()
            if not name or not version:
                yield Quarantined(source, row_no, "MissingField", dict(zip(header, row)))
                continue
            if name != previous_name or version != previous_version:
                try:
                    time = parse_timestamp(row[at_time])
                except InvalidTimestamp:
                    yield Quarantined(source, row_no, "InvalidTimestamp", dict(zip(header, row)))
                    previous_name = None
                    continue
                yield "unit", (name, version, time)
                previous_name, previous_version = name, version
            if at_dep is not None:
                dep_name = (row[at_dep] or "").strip()
                if dep_name:
                    requirement = (row[at_requirement] or "").strip() if at_requirement is not None else ""
                    yield "use", (name, version, dep_name, requirement or "*")
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise CsvError(f"{source}:{row_no + 1}: {exc}") from None


# the name bench/tracing.py times the dump walker under
parse_registry_dump = registry_dump_records


# --- contribution records --------------------------------------------------------

_CTYPE_ALIASES = {
    "pr": "pr",
    "pull_request": "pr",
    "pullrequest": "pr",
    "issue": "issue",
    "discussion": "discussion",
}


def _contribution_rows(reader, source: str, view):
    """Walk NDJSON contribution records, the one place of their rules:
    yields :class:`Quarantined` items and, per good record, ``view(record,
    title)`` of its ``("contribution", leaf values)`` record and raw title.

    Each record needs ``author``, ``target``, ``type`` and ``time``;
    ``merged`` is a JSON bool, false when absent; ``id`` defaults to a
    line-derived identifier. A line that is not JSON, or is nested too deep
    or holds too long a number to read, is quarantined as a ParseError.
    """
    for line_no, line in enumerate(reader, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except (ValueError, RecursionError):
            yield Quarantined(source, line_no, "ParseError", text)
            continue
        if not isinstance(record, dict):
            yield Quarantined(source, line_no, "ParseError", record)
            continue
        author = record.get("author") or record.get("dev")
        target = record.get("target")
        ctype = _CTYPE_ALIASES.get(str(record.get("type", record.get("ctype", ""))).lower())
        if isinstance(target, (list, tuple)) and len(target) == 1:
            target = target[0]
        if not isinstance(author, str) or not author:
            yield Quarantined(source, line_no, "SchemaError", record)
            continue
        merged = record.get("merged", False)
        if not isinstance(target, str) or not target or ctype is None or not isinstance(merged, bool):
            yield Quarantined(source, line_no, "SchemaError", record)
            continue
        try:
            time = parse_timestamp(record.get("time", record.get("timestamp")))
        except InvalidTimestamp:
            yield Quarantined(source, line_no, "InvalidTimestamp", record)
            continue
        cid = record.get("id")
        if not isinstance(cid, str) or not cid:
            cid = f"{target}#{line_no}"
        yield view(("contribution", (cid, author, target, ctype, time, merged)), record.get("title"))


def contribution_records(reader, source: str = "<contributions>"):
    """The record view of the contribution walker: :class:`Quarantined`
    items and records for :meth:`~pkgverse.eventlog.EventLog.append_records`."""
    return _contribution_rows(reader, source, lambda record, title: record)


# the name bench/tracing.py times the contribution walker under
parse_contribution_events = contribution_records


def parse_contributions(reader, source: str = "<contributions>"):
    """The contribution view of the contribution walker: :class:`Quarantined`
    items and :class:`~pkgverse.contrib.Contribution` values, each with its
    record's ``title`` when that is a string, else ``""``."""
    return _contribution_rows(
        reader, source, lambda record, title: Contribution(*record[1], title if isinstance(title, str) else "")
    )


# --- registry metadata -------------------------------------------------------------


@dataclass(frozen=True)
class RegistryInfo:
    """One package registry: where it lives and how it shapes dependency trees."""

    ecosystem: str
    language: str
    tiobe_rank: str
    environment: str
    tree_style: str  # "flat" | "nested"
    archive_url: str


_BUNDLED_TABLE = Path(__file__).parent / "data" / "registries.csv"


def load_registry_table(path=None) -> list[RegistryInfo]:
    """Load the bundled table of well-known package registries (or a
    user-supplied CSV with the same columns)."""
    table_path = Path(path) if path is not None else _BUNDLED_TABLE
    rows: list[RegistryInfo] = []
    with table_path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        row_no = 0  # of the last row read; the header is row 1
        try:
            if reader.fieldnames is not None:  # reads the header
                row_no = 1
            for row_no, row in enumerate(reader, start=2):
                try:
                    style = row["tree_style"].strip().lower()
                    rows.append(
                        RegistryInfo(
                            ecosystem=row["ecosystem"].strip(),
                            language=row["language"].strip(),
                            tiobe_rank=row["tiobe_rank"].strip(),
                            environment=row["environment"].strip(),
                            tree_style="nested" if style.startswith("nested") else "flat",
                            archive_url=row["archive_url"].strip(),
                        )
                    )
                except (KeyError, AttributeError):
                    raise CsvError(f"{table_path}:{row_no}: missing registry columns") from None
        except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
            raise CsvError(f"{table_path}:{row_no + 1}: {exc}") from None
    return rows


def registry_info(ecosystem: str, table: list[RegistryInfo] | None = None) -> RegistryInfo | None:
    """Case-insensitive lookup; returns None when the registry is unknown."""
    for info in table if table is not None else load_registry_table():
        if info.ecosystem.lower() == ecosystem.lower():
            return info
    return None
