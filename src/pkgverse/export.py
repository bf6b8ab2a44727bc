"""Serialization of snapshots and reports: DOT, GraphML, JSON, CSV.

All emitters sort their output, so a given snapshot always serializes to
the same bytes. Graph exports are data documents for external plotting
tools; nothing here renders.
Each snapshot format is one generator of text chunks of at most ``_CHUNK``
units or edges: :func:`write_snapshot` writes them as they come, and the
``snapshot_to_*`` functions join them once, so no document is held twice.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .contrib import CongruentPair, Window
from .graph import TimedSnapshot

__all__ = [
    "snapshot_to_dot",
    "snapshot_to_graphml",
    "snapshot_to_json",
    "write_snapshot",
    "write_congruence_csv",
    "export_snapshot_series",
]
_CHUNK = 2048  # a chunk of GraphML nodes is about 0.3 MB


def _chunks(render, items, first: int = 0, sep: str = ""):
    """``sep.join(render(first + i, item) for i, item in enumerate(items))``
    in strings of at most ``_CHUNK`` items, with ``sep`` yielded between."""
    for i in range(0, len(items), _CHUNK):
        if i and sep:
            yield sep
        yield sep.join(map(render, range(first + i, first + i + _CHUNK), items[i:i + _CHUNK]))


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _xml_text(text: str) -> str:
    # what xml.sax.saxutils.escape does, without the urllib.request import
    # it drags in (6 MB of RSS in every process that imports pkgverse)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _dot_chunks(snapshot: TimedSnapshot):
    units, use_edges, update_edges = snapshot._sorted_parts
    yield "digraph universe {\n"
    yield from _chunks(lambda _, u: f"  n{u.uid} [label={_dot_quote(u.name + '@' + u.release)}, "
                                    f"time={u.time}];\n", units)
    yield from _chunks(lambda _, e: f"  n{e.src} -> n{e.dst};\n", use_edges)
    yield from _chunks(lambda _, e: f"  n{e.src} -> n{e.dst} [style=dashed];\n", update_edges)
    yield "}\n"


_GRAPHML_HEAD = "".join(line + "\n" for line in (
    "<?xml version='1.0' encoding='utf-8'?>",
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    '  <key for="node" attr.name="name" attr.type="string" id="d_name" />',
    '  <key for="node" attr.name="release" attr.type="string" id="d_release" />',
    '  <key for="node" attr.name="time" attr.type="long" id="d_time" />',
    '  <key for="edge" attr.name="kind" attr.type="string" id="d_kind" />',
))
_GRAPHML_NODE = (
    '    <node id="n%d">\n      <data key="d_name">%s</data>\n      <data key="d_release">%s</data>\n'
    '      <data key="d_time">%d</data>\n    </node>\n'
)
_GRAPHML_EDGE = '    <edge id="e%d" source="n%d" target="n%d">\n      <data key="d_kind">%s</data>\n    </edge>\n'


def _graphml_chunks(snapshot: TimedSnapshot):
    units, use_edges, update_edges = snapshot._sorted_parts
    yield _GRAPHML_HEAD
    if not (units or use_edges or update_edges):
        yield '  <graph id="universe" edgedefault="directed" />\n</graphml>\n'
        return
    yield '  <graph id="universe" edgedefault="directed">\n'
    yield from _chunks(lambda _, u: _GRAPHML_NODE % (u.uid, _xml_text(u.name), _xml_text(u.release), u.time), units)
    yield from _chunks(lambda i, e: _GRAPHML_EDGE % (i, e.src, e.dst, "use"), use_edges)
    yield from _chunks(lambda i, e: _GRAPHML_EDGE % (i, e.src, e.dst, "update"), update_edges, len(use_edges))
    yield "  </graph>\n</graphml>\n"


_JSON_UNIT = '    {\n      "name": %s,\n      "release": %s,\n      "time": %d,\n      "uid": %d\n    }'
_JSON_EDGE = "    [\n      %d,\n      %d\n    ]"


def _json_chunks(snapshot: TimedSnapshot):
    units, use_edges, update_edges = snapshot._sorted_parts
    esc = json.encoder.encode_basestring_ascii
    edge = lambda _, e: _JSON_EDGE % (e.src, e.dst)  # noqa: E731
    yield '{\n  "at": %s' % json.dumps(snapshot.at)
    for key, render, items in (
        ("units", lambda _, u: _JSON_UNIT % (esc(u.name), esc(u.release), u.time, u.uid), units),
        ("update_edges", edge, update_edges),
        ("use_edges", edge, use_edges),
    ):
        yield ',\n  "%s": %s' % (key, "[\n" if items else "[]")
        yield from _chunks(render, items, sep=",\n")
        yield "\n  ]" if items else ""
    yield "\n}\n"


_FORMATS = {"json": _json_chunks, "dot": _dot_chunks, "graphml": _graphml_chunks}


def write_snapshot(fh, snapshot: TimedSnapshot, fmt: str) -> None:
    """Write the ``fmt`` document (json, dot or graphml) of ``snapshot`` to
    the text stream ``fh``, one chunk at a time."""
    fh.writelines(_FORMATS[fmt](snapshot))


def snapshot_to_dot(snapshot: TimedSnapshot) -> str:
    """Graphviz document: solid arrows for use-edges, dashed for updates."""
    return "".join(_dot_chunks(snapshot))


def snapshot_to_graphml(snapshot: TimedSnapshot) -> str:
    """GraphML document, indented two spaces per level; names and releases
    are escaped as XML text."""
    return "".join(_graphml_chunks(snapshot))


def snapshot_to_json(snapshot: TimedSnapshot) -> str:
    """What ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` writes,
    from templates: with ``indent`` set, json encodes in pure Python."""
    return "".join(_json_chunks(snapshot))


_PAIR_FIELDS = tuple(f.name for f in fields(CongruentPair))


def write_congruence_csv(fh, rows: list[tuple[Window, CongruentPair]]) -> None:
    """A header, then per (window, pair) the window's start and the pair's fields."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(("window_start", *_PAIR_FIELDS))
    pair_row = attrgetter(*_PAIR_FIELDS)
    writer.writerows((window.start, *pair_row(pair)) for window, pair in rows)


def export_snapshot_series(series: Iterable[TimedSnapshot], directory) -> list[Path]:
    """Write one DOT file per snapshot into ``directory``; returns paths.
    ``series`` may be a lazy sweep: each snapshot is written and released
    before the next is taken."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for snap in series:
        path = directory / f"snapshot_{snap.at}.dot"
        with path.open("w", encoding="utf-8") as fh:
            write_snapshot(fh, snap, "dot")
        paths.append(path)
    return paths
