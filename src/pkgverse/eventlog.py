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

The log writes and reads an event as a record: its kind and its leaf
values, in ``SCHEMA`` order, such as ``("use", ("a", "1", "b", "2"))``; a
``[name, release]`` field gives two leaves. The constructors
(:func:`unit_event` …) build records from their arguments as given, so
the encoder checks each leaf's type. The log line is the canonical form
of an event: each kind's line body has one slot per leaf, and one encoder
per kind checks each leaf as it writes it. :func:`validate_payload`
returns what a payload's line decodes to.

Replay turns every line into its kind and leaves and applies them in one
step per kind. A line as the encoders write it (ASCII text without escapes,
ints of at most 100 digits) gives its leaves off one regex, built from the
same line bodies. Any other valid spelling (escapes, non-ASCII text, other
key orders, whitespace, extra fields) is decoded by ``json.loads``, then
flattened into leaves and checked by the kind's encoder, as an appended
record is; both give the same result.

A record commits with its trailing newline. ``append`` writes and flushes
one line; ``append_records`` writes in chunks of whole lines, flushed once
each, so a batch reaches the file before the call returns but not line by
line. One process writes a given log at a time; readers may stream
concurrently and see whole records plus, at most, a torn final fragment of
a write in progress or an interrupted one. Replay reports that fragment as
a ``TornTail`` quarantine entry, and the next append truncates it before
writing. A final line without its newline that is still a whole JSON
object is committed: replay applies it, and the next append writes the
missing newline first.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import CorruptLog, PkgverseError, SchemaError, TornTail, UnknownUnit
from .graph import UniverseGraph

__all__ = [
    "EventLog",
    "Quarantined",
    "ReplayResult",
    "unit_event",
    "use_event",
    "update_event",
    "contribution_event",
    "alias_event",
    "replay",
]

SCHEMA_VERSION = 1
CONTRIBUTION_TYPES = ("pr", "issue", "discussion")

# append_records writes and flushes its lines in chunks of about this many
# characters; lines are ASCII, so characters are bytes
_CHUNK_CHARS = 1 << 16
# _scan_last_seq reads the file backwards in blocks of this many bytes
_TAIL_BLOCK = 1 << 13


@dataclass(frozen=True, slots=True)
class _Shape:
    """What one field's value must be on the wire, and the codec of each of
    its leaves. The encoders inline ``rule`` and ``text``, Python expressions
    of a leaf ``{0}``; the readers of canonical lines inline ``load``, one of
    a regex group's text ``{0}``."""

    what: str  # completes "field 'x' must be ..." in a SchemaError
    rule: str  # true for a leaf that fits; None fits no rule
    text: str  # the JSON text of a leaf that fits
    pattern: str  # regex of a leaf's canonical JSON text, one group around the value
    load: str = "{0}"  # the value json.loads reads from that group
    arity: int = 0  # leaves in the field's list; 0 when the field is one leaf


# Strings go through the C escaper json.dumps uses with ensure_ascii=True, so
# each line is byte for byte ``json.dumps(record, separators=(",", ":"))``.
_esc = json.encoder.encode_basestring_ascii

# The pattern takes the strings json.loads reads verbatim: ASCII without
# quotes, backslashes or control characters. Replay reads other strings as JSON.
_TEXT = _Shape("a non-empty string", "isinstance({0}, str) and {0}", "_esc({0})", r'"([^"\\\x00-\x1f\x80-\xff]+)"')
# longer ints are read as JSON, under json.loads' own limit on int digits
_INT = _Shape("an integer", "type({0}) is not bool and isinstance({0}, int)", "int.__repr__({0})",
              r"(0|-?[1-9][0-9]{0,99})", "int({0})")
_BOOL = _Shape("true or false", "type({0}) is bool", '("true" if {0} else "false")', "(true|false)", '{0} == "true"')
_REF = replace(_TEXT, what="a [name, release] pair", arity=2)
_NAME = replace(_TEXT, what="a one-element [name] list", arity=1)
_CTYPE = _Shape("one of " + ", ".join(CONTRIBUTION_TYPES), "isinstance({0}, str) and {0} in CONTRIBUTION_TYPES",
                "_esc({0})", '"(%s)"' % "|".join(CONTRIBUTION_TYPES))

# The wire schema: each kind's fields in line order, with their shapes. Every
# field is required. The encoders, the line regex, replay and the error
# messages read this table; the event constructors spell its keys out, in its
# order (a test holds them to it).
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
_LEAF_FIELDS = {  # each kind's (key, shape) per leaf value: two for a [name, release] field
    kind: tuple((key, shape) for key, shape in rows for _ in range(shape.arity or 1)) for kind, rows in SCHEMA.items()
}
_HEAD = '{"v":%d,"seq":' % SCHEMA_VERSION  # then the seq, a comma and the line body
_BODIES = {  # each kind's line body, with one %s slot per leaf
    kind: '"kind":' + _esc(kind) + "".join(
        f",{_esc(key)}:" + ("[%s]" % ",".join(["%s"] * shape.arity) if shape.arity else "%s") for key, shape in rows
    ) + "}\n" for kind, rows in SCHEMA.items()
}


def _encoder(kind: str):
    """The function from a kind's leaf values, in SCHEMA order, to its line
    body, newline included; or, when a leaf does not fit its shape's rule,
    to the index of the first leaf that does not."""
    leaves = [(f"v{i}", shape) for i, (_, shape) in enumerate(_LEAF_FIELDS[kind])]
    checks = "".join(f"{i} if not ({shape.rule.format(v)}) else " for i, (v, shape) in enumerate(leaves))
    texts = ", ".join(shape.text.format(v) for v, shape in leaves)
    return eval(f"lambda {', '.join(v for v, _ in leaves)}: {checks}{_BODIES[kind]!r} % ({texts},)", globals())


_ENCODERS = {kind: (_encoder(kind), len(leaves)) for kind, leaves in _LEAF_FIELDS.items()}  # and leaf counts


def _canonical_line():
    """One regex for the lines the encoders write without escapes, each slot
    replaced by its leaf's pattern: the seq in group 1, then one alternative
    per kind. Keyed by each kind's last group (a match's ``lastindex``): the
    kind and its reader, the function from a match to the kind's leaf values."""
    kinds, by_last, last = [], {}, 1
    for kind, leaves in _LEAF_FIELDS.items():
        literals = re.escape(_BODIES[kind][:-1]).split("%s")
        kinds.append("".join(text + shape.pattern for text, (_, shape) in zip(literals, leaves)) + literals[-1])
        values = ", ".join(shape.load.format(f"m[{last + i}]") for i, (_, shape) in enumerate(leaves, 1))
        last += len(leaves)
        by_last[last] = kind, eval(f"lambda m: ({values},)")
    return re.compile(re.escape(_HEAD) + _INT.pattern + ",(?:%s)\n?" % "|".join(kinds)), by_last


_CANONICAL, _BY_LAST_GROUP = _canonical_line()


def _schema_error(kind: str, leaf: int, payload: dict) -> SchemaError:
    """The error for the field of ``payload`` that holds a kind's ``leaf``."""
    key, shape = _LEAF_FIELDS[kind][leaf]
    if key not in payload:
        return SchemaError(f"missing field {key!r}")
    return SchemaError(f"field {key!r} must be {shape.what}, got {payload[key]!r:.60}")


def _payload(kind: str, leaves) -> dict:
    """The payload a kind's leaf values spell, unchecked."""
    payload, at = {}, 0
    for key, shape in SCHEMA[kind]:
        payload[key] = list(leaves[at:at + shape.arity]) if shape.arity else leaves[at]
        at += shape.arity or 1
    return payload


def _encoder_of(kind: str):
    """A kind's encoder and its number of leaf values."""
    if not (isinstance(kind, str) and kind in _ENCODERS):
        raise SchemaError(f"unknown event kind {kind!r}")
    return _ENCODERS[kind]


def _body(kind: str, payload: dict) -> tuple[str, tuple]:
    """The line body of a payload and its leaf values, the wire schema's one
    check (SchemaError). A field that is absent, or not a list of its arity,
    gives None leaves, so the kind's encoder finds the first field that does not fit."""
    encode, _ = _encoder_of(kind)
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
    leaves = []
    for key, shape in SCHEMA[kind]:
        value = payload.get(key)
        if not shape.arity:
            leaves.append(value)
        else:
            leaves += value if isinstance(value, (list, tuple)) and len(value) == shape.arity else [None] * shape.arity
    body = encode(*leaves)
    if type(body) is int:
        raise _schema_error(kind, body, payload)
    return body, tuple(leaves)


def _record_bodies(records):
    """The line bodies of ``(kind, leaf values)`` records, each checked (SchemaError)."""
    for record in records:
        try:
            kind, leaves = record
        except (TypeError, ValueError):
            raise SchemaError(f"a record must be a (kind, leaf values) pair, got {record!r:.60}") from None
        encode, n = _encoder_of(kind)
        if not (isinstance(leaves, (list, tuple)) and len(leaves) == n):
            raise SchemaError(f"a {kind} record holds {n} leaf values, got {leaves!r:.60}")
        body = encode(*leaves)
        if type(body) is int:
            raise _schema_error(kind, body, _payload(kind, leaves))
        yield body


def _line(seq: int, kind: str, payload: dict) -> str:
    """The log line of a payload, newline included."""
    return f"{_HEAD}{seq},{_body(kind, payload)[0]}"


def validate_payload(kind: str, payload: dict) -> dict:
    """Check a payload against the wire schema and return its canonical
    form: the schema's fields, in schema order, of the object its log line
    decodes to. Unknown fields are dropped."""
    record = json.loads(_line(0, kind, payload))
    return {key: record[key] for key in _FIELDS[kind]}


def _decode(line: bytes) -> dict:
    """The JSON object a log line holds; ValueError when it holds none."""
    try:
        record = json.loads(line.decode("utf-8"))
    except RecursionError as exc:  # nested too deep to read
        raise ValueError(exc) from None
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
# Each builds a ``(kind, leaf values)`` record, its leaves in SCHEMA's order.


def unit_event(name: str, release: str, time: int) -> tuple[str, tuple]:
    return "unit", (name, release, time)


def use_event(src: tuple[str, str], dst: tuple[str, str]) -> tuple[str, tuple]:
    return "use", (*src, *dst)


def update_event(src: tuple[str, str], dst: tuple[str, str]) -> tuple[str, tuple]:
    return "update", (*src, *dst)


def contribution_event(
    cid: str, dev: str, target: str, ctype: str, time: int, merged: bool = False
) -> tuple[str, tuple]:
    return "contribution", (cid, dev, target, ctype, time, merged)


def alias_event(canonical: str, alias: str) -> tuple[str, tuple]:
    return "developer-alias", (canonical, alias)


class EventLog:
    """A single NDJSON log file, opened lazily for appends.

    The append handle stays open across calls; earlier bytes are never
    rewritten. ``append`` flushes its line before returning,
    ``append_records`` once per chunk of whole lines. Use as a context
    manager or call :meth:`close` when done writing.
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

    def append(self, record) -> int:
        """Validate, assign the next ``seq`` and append one ``(kind, leaf
        values)`` record; its line is flushed before this returns."""
        self.append_records((record,))
        return self._next_seq - 1

    def append_records(self, records) -> int:
        """Validate and append ``(kind, leaf values)`` records, such as
        ``("use", ("a", "1", "b", "2"))``; returns how many were written.
        Lines are written in chunks of whole lines, each flushed once. An
        invalid record raises :class:`SchemaError` after the lines before it
        are written."""
        return self._append(_record_bodies(records))

    def _append(self, bodies) -> int:
        """Number and write line bodies, each checked as it is made."""
        n = 0
        chunk: list[str] = []
        size = 0
        try:
            for body in bodies:
                if self._next_seq is None:  # an invalid first record has left the file untouched
                    self._next_seq = self._scan_last_seq() + 1
                line = f"{_HEAD}{self._next_seq + len(chunk)},{body}"
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
class Quarantined:
    """An input row ingest could not convert, or a log line replay could not
    apply, with where it came from and why it was held."""

    source: str  # the input file, or the replayed log
    line_no: int
    reason: str  # exception class name, e.g. "NameAxiomViolation"
    record: object
    detail: str = ""  # replay: the error's message
    seq: int | None = None  # replay: the line's int seq, if it has one


@dataclass
class ReplayResult:
    """Everything a log contains: the rebuilt graph, the contribution and
    alias payloads that ride alongside it, and the quarantine report, one
    :class:`Quarantined` item per line not applied, its ``source`` the log."""

    graph: UniverseGraph
    contributions: list[dict] = field(default_factory=list)
    aliases: list[tuple[str, str]] = field(default_factory=list)
    quarantine: list[Quarantined] = field(default_factory=list)


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
    graph = result.graph
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            # a non-ASCII byte decodes to a character the regex does not take
            m = _CANONICAL.fullmatch(line.decode("latin-1"))
            if m is not None:  # as the encoders write it: the leaves are read off the match
                kind, read = _BY_LAST_GROUP[m.lastindex]
                leaves = read(m)
            else:
                try:
                    record = _decode(line)
                except ValueError as exc:
                    error = _damaged(path, line_no, line, exc)
                    if type(error) is not TornTail:
                        raise error from None
                    result.quarantine.append(Quarantined(str(path), line_no, "TornTail", {}, str(error)))
                    break
                seq, kind = record.get("seq"), record.get("kind")
                seq = seq if type(seq) is int else None
            try:  # a decoded line is flattened and checked as an appended record is; a canonical one fits
                if m is None:
                    leaves = _body(kind, record)[1]
                if kind == "unit":
                    graph.add_unit(*leaves)
                elif kind == "use" or kind == "update":
                    src_ref, dst_ref = leaves[:2], leaves[2:]
                    src, dst = graph._by_key.get(src_ref), graph._by_key.get(dst_ref)
                    if src is None or dst is None:
                        raise UnknownUnit("unresolvable reference %s@%s" % (src_ref if src is None else dst_ref))
                    (graph.add_use_edge if kind == "use" else graph.add_update_edge)(src, dst)
                elif kind == "contribution":
                    result.contributions.append(_payload(kind, leaves))
                else:
                    result.aliases.append(leaves)
            except PkgverseError as exc:
                if m is not None:  # the record json.loads would give
                    seq = int(m[1])
                    record = {"v": SCHEMA_VERSION, "seq": seq, "kind": kind, **_payload(kind, leaves)}
                result.quarantine.append(Quarantined(str(path), line_no, type(exc).__name__, record, str(exc), seq))
    return result

