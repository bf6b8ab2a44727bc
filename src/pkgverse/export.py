"""Serialization of snapshots and reports: DOT, GraphML, JSON, CSV.

All emitters sort their output, so a given snapshot always serializes to
the same bytes. Graph exports are data documents for external plotting
tools; nothing here renders.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .contrib import CongruentPair, Window
from .graph import TimedSnapshot

__all__ = [
    "snapshot_to_dot",
    "snapshot_to_graphml",
    "snapshot_to_json",
    "write_congruence_csv",
    "export_snapshot_series",
]


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _xml_text(text: str) -> str:
    # what xml.sax.saxutils.escape does, without the urllib.request import
    # it drags in (6 MB of RSS in every process that imports pkgverse)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def snapshot_to_dot(snapshot: TimedSnapshot) -> str:
    """Graphviz document: solid arrows for use-edges, dashed for updates."""
    units, use_edges, update_edges = snapshot._sorted_parts
    lines = ["digraph universe {"]
    for u in units:
        label = _dot_quote(f"{u.name}@{u.release}")
        lines.append(f"  n{u.uid} [label={label}, time={u.time}];")
    for e in use_edges:
        lines.append(f"  n{e.src} -> n{e.dst};")
    for e in update_edges:
        lines.append(f"  n{e.src} -> n{e.dst} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_GRAPHML_HEAD = (
    "<?xml version='1.0' encoding='utf-8'?>",
    '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    '  <key for="node" attr.name="name" attr.type="string" id="d_name" />',
    '  <key for="node" attr.name="release" attr.type="string" id="d_release" />',
    '  <key for="node" attr.name="time" attr.type="long" id="d_time" />',
    '  <key for="edge" attr.name="kind" attr.type="string" id="d_kind" />',
)


def snapshot_to_graphml(snapshot: TimedSnapshot) -> str:
    """GraphML document, indented two spaces per level; names and releases
    are escaped as XML text."""
    units, use_edges, update_edges = snapshot._sorted_parts
    lines = list(_GRAPHML_HEAD)
    if not (units or use_edges or update_edges):
        lines.append('  <graph id="universe" edgedefault="directed" />')
    else:
        lines.append('  <graph id="universe" edgedefault="directed">')
        for u in units:
            lines += [
                f'    <node id="n{u.uid}">',
                f'      <data key="d_name">{_xml_text(u.name)}</data>',
                f'      <data key="d_release">{_xml_text(u.release)}</data>',
                f'      <data key="d_time">{u.time}</data>',
                "    </node>",
            ]
        edges = [(e, "use") for e in use_edges] + [(e, "update") for e in update_edges]
        for i, (e, kind) in enumerate(edges):
            lines += [
                f'    <edge id="e{i}" source="n{e.src}" target="n{e.dst}">',
                f'      <data key="d_kind">{kind}</data>',
                "    </edge>",
            ]
        lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


_JSON_UNIT = '    {\n      "name": %s,\n      "release": %s,\n      "time": %d,\n      "uid": %d\n    }'
_JSON_EDGE = "    [\n      %d,\n      %d\n    ]"


def _json_list(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def snapshot_to_json(snapshot: TimedSnapshot) -> str:
    """What ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` writes,
    from templates: with ``indent`` set, json encodes in pure Python."""
    units, use_edges, update_edges = snapshot._sorted_parts
    esc = json.encoder.encode_basestring_ascii
    return '{\n  "at": %s,\n  "units": %s,\n  "update_edges": %s,\n  "use_edges": %s\n}\n' % (
        json.dumps(snapshot.at),
        _json_list([_JSON_UNIT % (esc(u.name), esc(u.release), u.time, u.uid) for u in units]),
        _json_list([_JSON_EDGE % (e.src, e.dst) for e in update_edges]),
        _json_list([_JSON_EDGE % (e.src, e.dst) for e in use_edges]),
    )


CONGRUENCE_COLUMNS = (
    "window_start",
    "developer",
    "client",
    "library",
    "client_contribution",
    "library_contribution",
)


def write_congruence_csv(fh, rows: list[tuple[Window, CongruentPair]]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CONGRUENCE_COLUMNS)
    for window, pair in rows:
        writer.writerow(
            (
                window.start,
                pair.developer,
                pair.client,
                pair.library,
                pair.client_contribution,
                pair.library_contribution,
            )
        )


def export_snapshot_series(series: list[TimedSnapshot], directory) -> list[Path]:
    """Write one DOT file per snapshot into ``directory``; returns paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for snap in series:
        path = directory / f"snapshot_{snap.at}.dot"
        path.write_text(snapshot_to_dot(snap), encoding="utf-8")
        paths.append(path)
    return paths
