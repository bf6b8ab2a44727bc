"""Append-only NDJSON event log that rebuilds a universe graph on replay.

The log is the system of record: one UTF-8 JSON object per line, never
rewritten, so the file mirrors the graph's monotonic growth. Replaying the
same bytes always produces the same graph and the same quarantine report.
Events that cannot be applied — unknown references, axiom violations,
malformed payloads — are quarantined with a reason instead of aborting the
replay; a line that is not valid JSON at all means the *file* is damaged
and raises :class:`CorruptLog`.

Wire schema (schema version ``v: 1``), one event per line::

    {"v":1,"seq":1,"kind":"unit","name":"a","release":"1.0.0","time":100}
    {"v":1,"seq":2,"kind":"use","from":["a","1.0.0"],"to":["b","2.0.0"]}
    {"v":1,"seq":3,"kind":"update","from":["a","1.0.0"],"to":["a","1.1.0"]}
    {"v":1,"seq":4,"kind":"contribution","id":"c1","dev":"alice",
     "target":["a"],"ctype":"pr","time":120,"merged":true}
    {"v":1,"seq":5,"kind":"developer-alias","canonical":"alice","alias":"a.jones"}

``seq`` is assigned by the log on append, never by the caller, so a single
log is gap-free. Temporal queries key on release time.
One process writes a given log at a time; readers may stream concurrently
and will observe a prefix.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorruptLog, PkgverseError, SchemaError, UnknownUnit
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
KINDS = ("unit", "use", "update", "contribution", "developer-alias")
CONTRIBUTION_TYPES = ("pr", "issue", "discussion")


@dataclass(frozen=True)
class EcosystemEvent:
    """One validated event; the log assigns its ``seq`` on append."""

    kind: str
    payload: dict


def _require(payload: dict, key: str, types) -> object:
    if key not in payload:
        raise SchemaError(f"missing field {key!r}")
    value = payload[key]
    if not isinstance(value, types) or isinstance(value, bool) and types is int:
        raise SchemaError(f"field {key!r} has wrong type {type(value).__name__}")
    return value


def _require_ref(payload: dict, key: str) -> tuple[str, str]:
    value = _require(payload, key, (list, tuple))
    if len(value) != 2 or not all(isinstance(p, str) and p for p in value):
        raise SchemaError(f"field {key!r} must be a [name, release] pair")
    return (value[0], value[1])


def validate_payload(kind: str, payload: dict) -> dict:
    """Check a payload against the wire schema and return its canonical
    form (known fields only, schema order). Unknown fields are dropped."""
    if kind not in KINDS:
        raise SchemaError(f"unknown event kind {kind!r}")
    if not isinstance(payload, dict):
        raise SchemaError("payload must be an object")
    if kind == "unit":
        name = _require(payload, "name", str)
        release = _require(payload, "release", str)
        if not name or not release:
            raise SchemaError("unit name and release must be non-empty")
        time = _require(payload, "time", int)
        return {"name": name, "release": release, "time": time}
    if kind in ("use", "update"):
        return {"from": list(_require_ref(payload, "from")), "to": list(_require_ref(payload, "to"))}
    if kind == "contribution":
        cid = _require(payload, "id", str)
        dev = _require(payload, "dev", str)
        target = _require(payload, "target", (list, tuple))
        if len(target) != 1 or not isinstance(target[0], str) or not target[0]:
            raise SchemaError("field 'target' must be a one-element [name] list")
        ctype = _require(payload, "ctype", str)
        if ctype not in CONTRIBUTION_TYPES:
            raise SchemaError(f"ctype must be one of {CONTRIBUTION_TYPES}, got {ctype!r}")
        time = _require(payload, "time", int)
        merged = _require(payload, "merged", bool)
        if not dev or not cid:
            raise SchemaError("contribution id and dev must be non-empty")
        return {
            "id": cid,
            "dev": dev,
            "target": [target[0]],
            "ctype": ctype,
            "time": time,
            "merged": merged,
        }
    # developer-alias
    canonical = _require(payload, "canonical", str)
    alias = _require(payload, "alias", str)
    if not canonical or not alias:
        raise SchemaError("canonical and alias must be non-empty")
    return {"canonical": canonical, "alias": alias}


# --- convenience constructors ------------------------------------------------

def unit_event(name: str, release: str, time: int) -> EcosystemEvent:
    return EcosystemEvent("unit", {"name": name, "release": release, "time": int(time)})


def use_event(src: tuple[str, str], dst: tuple[str, str]) -> EcosystemEvent:
    return EcosystemEvent("use", {"from": list(src), "to": list(dst)})


def update_event(src: tuple[str, str], dst: tuple[str, str]) -> EcosystemEvent:
    return EcosystemEvent("update", {"from": list(src), "to": list(dst)})


def contribution_event(
    cid: str, dev: str, target: str, ctype: str, time: int, merged: bool = False
) -> EcosystemEvent:
    return EcosystemEvent(
        "contribution",
        {"id": cid, "dev": dev, "target": [target], "ctype": ctype, "time": int(time), "merged": bool(merged)},
    )


def alias_event(canonical: str, alias: str) -> EcosystemEvent:
    return EcosystemEvent("developer-alias", {"canonical": canonical, "alias": alias})


class EventLog:
    """A single NDJSON log file, opened lazily for appends.

    The append handle stays open across calls and is flushed after each
    event; earlier bytes are never rewritten. Use as a context manager or
    call :meth:`close` when done writing.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._fh = None
        self._next_seq: int | None = None

    def _scan_last_seq(self) -> int:
        """Last committed ``seq``. A record commits with its trailing newline;
        the torn tail of an interrupted append is truncated here, before the
        first write, so no new record is glued onto it."""
        last = committed = 0
        if not self.path.exists():
            return last
        with self.path.open("rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break
                committed += len(line)
                try:
                    seq = json.loads(line).get("seq")
                except (json.JSONDecodeError, UnicodeDecodeError):
                    continue  # damaged record; replay reports it
                if isinstance(seq, int) and seq > last:
                    last = seq
            torn = fh.tell() > committed
        if torn:
            os.truncate(self.path, committed)
        return last

    def append(self, event: EcosystemEvent) -> int:
        """Validate, assign the next ``seq`` and durably append one event."""
        payload = validate_payload(event.kind, event.payload)
        if self._next_seq is None:
            self._next_seq = self._scan_last_seq() + 1
        if self._fh is None:
            self._fh = self.path.open("a", encoding="utf-8")
        seq = self._next_seq
        record: dict = {"v": SCHEMA_VERSION, "seq": seq, "kind": event.kind}
        record.update(payload)
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._fh.flush()
        self._next_seq = seq + 1
        return seq

    def append_events(self, events) -> int:
        """Append many events; returns how many were written."""
        n = 0
        for event in events:
            self.append(event)
            n += 1
        return n

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
        lines that are not JSON objects."""
        with self.path.open("r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                text = line.strip()
                if not text:
                    raise CorruptLog(f"{self.path}:{line_no}: blank line")
                try:
                    record = json.loads(text)
                except json.JSONDecodeError as exc:
                    raise CorruptLog(f"{self.path}:{line_no}: {exc}") from None
                if not isinstance(record, dict):
                    raise CorruptLog(f"{self.path}:{line_no}: not a JSON object")
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


def _apply_record(result: ReplayResult, line_no: int, record: dict) -> None:
    graph = result.graph
    seq = record.get("seq") if isinstance(record.get("seq"), int) else None
    kind = record.get("kind")
    try:
        payload = validate_payload(kind, record)
    except SchemaError as exc:
        result.quarantine.append(
            QuarantinedEvent(line_no, seq, "SchemaError", str(exc), record)
        )
        return
    try:
        if kind == "unit":
            graph.add_unit(payload["name"], payload["release"], payload["time"])
        elif kind in ("use", "update"):
            src = graph.find(*payload["from"])
            dst = graph.find(*payload["to"])
            if src is None or dst is None:
                missing = payload["from"] if src is None else payload["to"]
                raise UnknownUnit(f"unresolvable reference {missing[0]}@{missing[1]}")
            if kind == "use":
                graph.add_use_edge(src, dst)
            else:
                graph.add_update_edge(src, dst)
        elif kind == "contribution":
            result.contributions.append(payload)
        else:
            result.aliases.append((payload["canonical"], payload["alias"]))
    except PkgverseError as exc:
        result.quarantine.append(
            QuarantinedEvent(line_no, seq, type(exc).__name__, str(exc), record)
        )


def replay(
    log: EventLog | str | Path, *, strict: bool = False, into: ReplayResult | None = None
) -> ReplayResult:
    """Rebuild the graph a log describes.

    Deterministic: the same bytes always yield a structurally identical
    graph and quarantine report. Pass ``into`` to apply a further log on
    top of an earlier replay (``replay(a) then apply b`` equals replaying
    the concatenation of ``a`` and ``b``).
    """
    if not isinstance(log, EventLog):
        log = EventLog(log)
    result = into if into is not None else ReplayResult(graph=UniverseGraph(strict=strict))
    for line_no, record in log.read_raw():
        _apply_record(result, line_no, record)
    return result


def replay_until(log: EventLog | str | Path, t: int, *, strict: bool = False) -> UniverseGraph:
    """Graph state at time ``t``, keyed on unit release times.

    Equivalent to replaying everything and taking the timed snapshot at
    ``t``, returned as a plain graph (handles are renumbered in release
    order of the surviving units' original insertion).
    """
    snap = replay(log, strict=strict).graph.timed_snapshot(t)
    g = UniverseGraph(strict=strict)
    units = sorted(snap.units, key=lambda u: u.uid)
    new = {u.uid: g.add_unit(u.name, u.release, u.time) for u in units}
    for e in sorted(snap.use_edges, key=lambda e: (e.src, e.dst)):
        g.add_use_edge(new[e.src], new[e.dst])
    for e in sorted(snap.update_edges, key=lambda e: (e.src, e.dst)):
        g.add_update_edge(new[e.src], new[e.dst])
    return g
