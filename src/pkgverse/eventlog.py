"""Append-only NDJSON event log that rebuilds a universe graph on replay.

The log is the system of record: one UTF-8 JSON object per line, never
rewritten, so the file mirrors the graph's monotonic growth. Replaying the
same bytes always produces the same graph and the same quarantine report.
Events that cannot be applied — unknown references, axiom violations,
malformed payloads — are quarantined with a reason instead of aborting the
replay; a committed line that is not a JSON object means the *file* is
damaged and raises :class:`CorruptLog`.

The wire schema (``v: 1``) is declared once, in the :data:`SCHEMA` table,
and everything that reads or writes log lines derives from it; one event per line::

    {"v":1,"seq":1,"kind":"unit","name":"a","release":"1.0.0","time":100}
    {"v":1,"seq":2,"kind":"use","from":["a","1.0.0"],"to":["b","2.0.0"]}
    {"v":1,"seq":3,"kind":"update","from":["a","1.0.0"],"to":["a","1.1.0"]}
    {"v":1,"seq":4,"kind":"contribution","id":"c1","dev":"alice",
     "target":["a"],"ctype":"pr","time":120,"merged":true}
    {"v":1,"seq":5,"kind":"developer-alias","canonical":"alice","alias":"a.jones"}

``seq`` is assigned by the log on append, never by the caller, so a single
log is gap-free. Temporal queries key on release time.

The log line is the canonical form of an event: one encoder checks each
field as it writes it, and :func:`validate_payload` returns what a
payload's line decodes to, so it cannot disagree with the bytes appended.

Replay reads lines as the templates write them (ASCII text without
escapes, ints of at most 100 digits) with one regex derived from the same
table. Any other valid spelling (escapes, non-ASCII text, other key orders,
whitespace, extra fields) is decoded by ``json.loads`` and checked by the
line encoder; both give the same graph and quarantine.

A record commits with its trailing newline. ``append`` writes and flushes
one line; ``append_events`` writes its lines in chunks of whole lines and
flushes once per chunk, so a batch reaches the file before the call
returns but not line by line. One process writes a given log at a time;
readers may stream concurrently and see whole records plus, at most, a
torn final fragment of a write in progress or an interrupted one. Replay
reports that fragment as a ``TornTail`` quarantine entry, and the next
append truncates it before writing. A final line without its newline that
is still a whole JSON object is committed: replay applies it, and the next
append writes the missing newline first.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import CorruptLog, PkgverseError, SchemaError, TornTail, UnknownUnit
from .graph import UniverseGraph

__all__ = [
    "EcosystemEvent",
    "EventLog",
    "QuarantinedEvent",
    "ReplayResult",
    "unit_event",
    "use_event",
    "update_event",
    "contribution_event",
    "alias_event",
    "replay",
    "replay_until",
]

SCHEMA_VERSION = 1
CONTRIBUTION_TYPES = ("pr", "issue", "discussion")

# append_events writes and flushes its lines in chunks of about this many
# characters; lines are ASCII, so characters are bytes
_CHUNK_CHARS = 1 << 16
# _scan_last_seq reads the file backwards in blocks of this many bytes
_TAIL_BLOCK = 1 << 13


class EcosystemEvent(NamedTuple):
    """One event: its kind and its payload, checked against :data:`SCHEMA`
    when appended; the log assigns its ``seq``. A named tuple, so it is
    immutable, builds positionally or by keyword, and compares equal to a
    plain ``(kind, payload)`` tuple. The payload dict itself is mutable."""

    kind: str
    payload: dict


@dataclass(frozen=True, slots=True)
class _Shape:
    """What one field's value must be on the wire, and its text codec."""

    what: str  # completes "field 'x' must be ..." in a SchemaError
    dump: Callable[[object], str | None]  # the JSON text of a value that fits, else None
    pattern: bytes  # regex of the canonical JSON text, one group around what load reads
    load: Callable[[bytes], object]  # the value json.loads reads from that group


# Strings go through the C escaper json.dumps uses with ensure_ascii=True, so
# each line is byte for byte ``json.dumps(record, separators=(",", ":"))``.
_esc = json.encoder.encode_basestring_ascii
# The content of a JSON string that json.loads reads verbatim: ASCII without
# quotes, backslashes or control characters. Replay reads other strings as JSON.
_RAW = rb'[^"\\\x00-\x1f\x80-\xff]+'


def _dump_ref(v):
    if isinstance(v, (list, tuple)) and len(v) == 2:
        name, release = v
        if isinstance(name, str) and isinstance(release, str) and name and release:
            return "[%s,%s]" % (_esc(name), _esc(release))
    return None


def _dump_name(v):
    if isinstance(v, (list, tuple)) and len(v) == 1 and isinstance(v[0], str) and v[0]:
        return "[%s]" % _esc(v[0])
    return None


_TEXT = _Shape("a non-empty string", lambda v: _esc(v) if isinstance(v, str) and v else None,
               b'"(%s)"' % _RAW, bytes.decode)
# longer ints are read as JSON, under json.loads' own limit on int digits
_INT = _Shape("an integer", lambda v: int.__repr__(v) if type(v) is not bool and isinstance(v, int) else None,
              rb"(0|-?[1-9][0-9]{0,99})", int)
_BOOL = _Shape("true or false", lambda v: ("true" if v else "false") if type(v) is bool else None,
               rb"(true|false)", b"true".__eq__)
_REF = _Shape("a [name, release] pair", _dump_ref, rb'\["(%s","%s)"\]' % (_RAW, _RAW),
              lambda b: b.decode().split('","'))
_NAME = _Shape("a one-element [name] list", _dump_name, rb'\["(%s)"\]' % _RAW, lambda b: [b.decode()])
_CTYPE = _Shape("one of " + ", ".join(CONTRIBUTION_TYPES),
                lambda v: _esc(v) if isinstance(v, str) and v in CONTRIBUTION_TYPES else None,
                b'"(%s)"' % b"|".join(t.encode() for t in CONTRIBUTION_TYPES), bytes.decode)

# The wire schema: each kind's fields in line order, with their shapes. Every
# field is required. Validation, the line templates, the line regex and replay
# read this table; the event constructors spell its keys out, in its order (a
# test holds them to it).
SCHEMA = {
    "unit": (("name", _TEXT), ("release", _TEXT), ("time", _INT)),
    "use": (("from", _REF), ("to", _REF)),
    "update": (("from", _REF), ("to", _REF)),
    "contribution": (
        ("id", _TEXT), ("dev", _TEXT), ("target", _NAME), ("ctype", _CTYPE), ("time", _INT), ("merged", _BOOL),
    ),
    "developer-alias": (("canonical", _TEXT), ("alias", _TEXT)),
}
_FIELDS = {kind: tuple(key for key, _ in rows) for kind, rows in SCHEMA.items()}
_HEAD = '{"v":%d,"seq":%%d,"kind":' % SCHEMA_VERSION  # then one %s slot per field in the templates
_TEMPLATES = {
    kind: _HEAD + _esc(kind) + "".join(f",{_esc(k)}:%s" for k in keys) + "}\n" for kind, keys in _FIELDS.items()
}


def _canonical_line():
    """One regex for the template lines without escapes, each slot replaced
    by its shape's pattern: the seq in group 1, then one alternative per kind.
    Keyed by each kind's last group (a match's ``lastindex``): the kind, its
    first group and its loads."""
    kinds, by_last, last = [], {}, 1
    for kind, rows in SCHEMA.items():
        literals = re.escape(_TEMPLATES[kind][len(_HEAD):-1]).encode().split(b"%s")
        kinds.append(b"".join(text + shape.pattern for text, (_, shape) in zip(literals, rows)) + literals[-1])
        by_last[last + len(rows)] = (kind, last, tuple(shape.load for _, shape in rows))
        last += len(rows)
    head = re.escape(_HEAD).encode().replace(b"%d", _INT.pattern)
    return re.compile(head + b"(?:%s)\n?" % b"|".join(kinds)), by_last


_CANONICAL, _BY_LAST_GROUP = _canonical_line()


def _line(seq: int, kind: str, payload: dict) -> str:
    """The log line of a payload, newline included. This is the wire
    schema's one check: each field is checked and encoded by one call of
    its shape's ``dump``, and a field that does not fit raises SchemaError."""
    rows = SCHEMA.get(kind) if isinstance(kind, str) else None
    if rows is None:
        raise SchemaError(f"unknown event kind {kind!r}")
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
    args = [seq]
    for key, shape in rows:
        text = shape.dump(payload.get(key))  # None, absent or not, never fits
        if text is None:
            if key not in payload:
                raise SchemaError(f"missing field {key!r}")
            raise SchemaError(f"field {key!r} must be {shape.what}, got {payload[key]!r:.60}")
        args.append(text)
    return _TEMPLATES[kind] % tuple(args)


def validate_payload(kind: str, payload: dict) -> dict:
    """Check a payload against the wire schema and return its canonical
    form: the schema's fields, in schema order, of the object its log line
    decodes to. Unknown fields are dropped."""
    record = json.loads(_line(0, kind, payload))
    return {key: record[key] for key in _FIELDS[kind]}


def _decode(line: bytes) -> dict:
    """The JSON object a log line holds; ValueError when it holds none."""
    record = json.loads(line.decode("utf-8"))
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    return record


def _damaged(path, line_no: int, line: bytes, exc: ValueError) -> CorruptLog:
    """The error for a line that holds no JSON object: TornTail when it is
    the final one and lacks its newline, else CorruptLog."""
    error = CorruptLog if line.endswith(b"\n") else TornTail
    problem = exc if line.strip() else "blank line"
    return error(f"{path}:{line_no}: {problem}")


def _lines_backwards(fh, end: int):
    """The lines of a binary file last to first, without their newlines.
    The first one is what follows the final newline (``b""`` when the file
    ends with one)."""
    rest = b""
    while end > 0:
        start = max(0, end - _TAIL_BLOCK)
        fh.seek(start)
        lines = (fh.read(end - start) + rest).split(b"\n")
        rest = lines.pop(0)
        yield from reversed(lines)
        end = start
    yield rest


# --- convenience constructors ------------------------------------------------
# Each builds a fresh payload dict with SCHEMA's keys in SCHEMA's order, and
# the event through tuple.__new__, which skips the Python-level __new__ that
# NamedTuple generates (about half the cost of building an event).
_event = functools.partial(tuple.__new__, EcosystemEvent)


def unit_event(name: str, release: str, time: int) -> EcosystemEvent:
    return _event(("unit", {"name": name, "release": release, "time": int(time)}))


def use_event(src: tuple[str, str], dst: tuple[str, str]) -> EcosystemEvent:
    return _event(("use", {"from": list(src), "to": list(dst)}))


def update_event(src: tuple[str, str], dst: tuple[str, str]) -> EcosystemEvent:
    return _event(("update", {"from": list(src), "to": list(dst)}))


def contribution_event(
    cid: str, dev: str, target: str, ctype: str, time: int, merged: bool = False
) -> EcosystemEvent:
    payload = {"id": cid, "dev": dev, "target": [target], "ctype": ctype, "time": int(time), "merged": bool(merged)}
    return _event(("contribution", payload))


def alias_event(canonical: str, alias: str) -> EcosystemEvent:
    return _event(("developer-alias", {"canonical": canonical, "alias": alias}))


class EventLog:
    """A single NDJSON log file, opened lazily for appends.

    The append handle stays open across calls; earlier bytes are never
    rewritten. ``append`` flushes its line before returning,
    ``append_events`` flushes once per chunk of whole lines. Use as a
    context manager or call :meth:`close` when done writing.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fh = None
        self._next_seq: int | None = None

    def _scan_last_seq(self) -> int:
        """Last committed ``seq``, read backwards from the end of the file.

        A record commits with its trailing newline. A final line without
        one is committed too if it is a whole JSON object; it gets its
        newline here. Any other unterminated fragment, the torn tail of an
        interrupted append, is truncated here, before the first write, so
        no new record is glued onto it. The result is the ``seq`` of the
        last committed line that is a JSON object with an int ``seq``,
        walking past damaged lines. Every log this class writes has
        increasing seqs, so that is the largest one; a log concatenated by
        hand continues from its last record.
        """
        if not self.path.exists():
            return 0
        with self.path.open("rb") as fh:
            end = fh.seek(0, os.SEEK_END)
            lines = _lines_backwards(fh, end)
            tail = next(lines)
            if tail:
                try:
                    _decode(tail)
                except ValueError:
                    os.truncate(self.path, end - len(tail))
                else:
                    with self.path.open("ab") as out:
                        out.write(b"\n")
                    lines = itertools.chain([tail], lines)
            for line in lines:
                try:
                    seq = _decode(line).get("seq")
                except ValueError:
                    continue  # damaged record; replay reports it
                if type(seq) is int:
                    return seq
        return 0

    def append(self, event: EcosystemEvent) -> int:
        """Validate, assign the next ``seq`` and append one event; its line
        is flushed before this returns."""
        self.append_events((event,))
        return self._next_seq - 1

    def append_events(self, events) -> int:
        """Validate and append many events; returns how many were written.

        Lines are written in chunks of whole lines, each flushed once. An
        invalid event raises :class:`SchemaError` after the lines before it
        are written.
        """
        n = 0
        chunk: list[str] = []
        size = 0
        try:
            for event in events:
                if self._next_seq is None:  # an invalid first event leaves the file untouched
                    _line(0, event.kind, event.payload)
                    self._next_seq = self._scan_last_seq() + 1
                line = _line(self._next_seq + len(chunk), event.kind, event.payload)
                chunk.append(line)
                size += len(line)
                n += 1
                if size >= _CHUNK_CHARS:
                    full, chunk, size = chunk, [], 0  # a failed write is not retried below
                    self._write(full)
        finally:
            if chunk:
                self._write(chunk)
        return n

    def _write(self, lines: list[str]) -> None:
        if self._fh is None:
            self._fh = self.path.open("a", encoding="utf-8")
        self._fh.write("".join(lines))
        self._fh.flush()
        self._next_seq += len(lines)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def read_raw(self):
        """Yield (line_no, record dict) for each line; raises CorruptLog on
        a line that is not a JSON object, or its subclass TornTail when that
        line is the final one and lacks its newline."""
        with self.path.open("rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    record = _decode(line)
                except ValueError as exc:
                    raise _damaged(self.path, line_no, line, exc) from None
                yield line_no, record


@dataclass(frozen=True)
class QuarantinedEvent:
    """An event that could not be applied, with the reason it was held."""

    line_no: int
    seq: int | None
    reason: str  # exception class name, e.g. "NameAxiomViolation"
    detail: str
    record: dict


@dataclass
class ReplayResult:
    """Everything a log contains: the rebuilt graph plus the contribution
    and alias payloads that ride alongside it, and the quarantine report."""

    graph: UniverseGraph
    contributions: list[dict] = field(default_factory=list)
    aliases: list[tuple[str, str]] = field(default_factory=list)
    quarantine: list[QuarantinedEvent] = field(default_factory=list)


def _apply(result: ReplayResult, kind: str, values) -> None:
    """Apply one event from its canonical field values, in SCHEMA order."""
    graph = result.graph
    if kind == "unit":
        graph.add_unit(*values)
    elif kind == "use" or kind == "update":
        src_ref, dst_ref = values
        src, dst = graph.find(*src_ref), graph.find(*dst_ref)
        if src is None or dst is None:
            missing = src_ref if src is None else dst_ref
            raise UnknownUnit(f"unresolvable reference {missing[0]}@{missing[1]}")
        (graph.add_use_edge if kind == "use" else graph.add_update_edge)(src, dst)
    elif kind == "contribution":
        result.contributions.append(dict(zip(_FIELDS[kind], values)))
    else:
        result.aliases.append(tuple(values))


def replay(
    log: EventLog | str | Path, *, strict: bool = False, into: ReplayResult | None = None
) -> ReplayResult:
    """Rebuild the graph a log describes.

    Deterministic: the same bytes always yield a structurally identical
    graph and quarantine report. Pass ``into`` to apply a further log on
    top of an earlier replay (``replay(a) then apply b`` equals replaying
    the concatenation of ``a`` and ``b``). A torn final fragment is
    reported as a ``TornTail`` entry with an empty record; any other line
    that is not a JSON object raises :class:`CorruptLog`.
    """
    path = log.path if isinstance(log, EventLog) else Path(log)
    result = into if into is not None else ReplayResult(graph=UniverseGraph(strict=strict))
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            m = _CANONICAL.fullmatch(line)
            if m is not None:  # as the templates write it: the fields are read off the match
                kind, first, loads = _BY_LAST_GROUP[m.lastindex]
                seq, record = int(m[1]), None
                values = [load(g) for load, g in zip(loads, m.groups()[first:m.lastindex])]
            else:
                try:
                    record = _decode(line)
                except ValueError as exc:
                    error = _damaged(path, line_no, line, exc)
                    if type(error) is not TornTail:
                        raise error from None
                    result.quarantine.append(QuarantinedEvent(line_no, None, "TornTail", str(error), {}))
                    break
                seq, kind = record.get("seq"), record.get("kind")
                seq = seq if type(seq) is int else None
            try:
                if record is not None:  # checked by the encoder, applied as decoded
                    _line(0, kind, record)
                    values = [record[key] for key in _FIELDS[kind]]
                _apply(result, kind, values)
            except PkgverseError as exc:
                if record is None:  # the record json.loads would give
                    record = {"v": SCHEMA_VERSION, "seq": seq, "kind": kind, **dict(zip(_FIELDS[kind], values))}
                result.quarantine.append(QuarantinedEvent(line_no, seq, type(exc).__name__, str(exc), record))
    return result


def replay_until(log: EventLog | str | Path, t: int, *, strict: bool = False) -> UniverseGraph:
    """Graph state at time ``t``, keyed on unit release times.

    Equivalent to replaying everything and taking the timed snapshot at
    ``t``, returned as a plain graph (handles are renumbered in release
    order of the surviving units' original insertion).
    """
    snap = replay(log, strict=strict).graph.timed_snapshot(t)
    units, use_edges, update_edges = snap._sorted_parts
    g = UniverseGraph(strict=strict)
    new = {u.uid: g.add_unit(u.name, u.release, u.time) for u in units}
    for e in use_edges:
        g.add_use_edge(new[e.src], new[e.dst])
    for e in update_edges:
        g.add_update_edge(new[e.src], new[e.dst])
    return g
