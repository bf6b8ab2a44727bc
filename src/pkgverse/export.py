"""Serialization of snapshots and reports: DOT, GraphML, JSON, CSV.

All emitters sort their output, so a given snapshot always serializes to
the same bytes. Graph exports are data documents for external plotting
tools; nothing here renders.
"""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ET
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


def snapshot_to_dot(snapshot: TimedSnapshot) -> str:
    """Graphviz document: solid arrows for use-edges, dashed for updates."""
    lines = ["digraph universe {"]
    units = sorted(snapshot.units, key=lambda u: u.uid)
    for u in units:
        label = _dot_quote(f"{u.name}@{u.release}")
        lines.append(f"  n{u.uid} [label={label}, time={u.time}];")
    for e in sorted(snapshot.use_edges, key=lambda e: (e.src, e.dst)):
        lines.append(f"  n{e.src} -> n{e.dst};")
    for e in sorted(snapshot.update_edges, key=lambda e: (e.src, e.dst)):
        lines.append(f"  n{e.src} -> n{e.dst} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_GRAPHML_KEYS = (
    ("d_name", "node", "name", "string"),
    ("d_release", "node", "release", "string"),
    ("d_time", "node", "time", "long"),
    ("d_kind", "edge", "kind", "string"),
)


def snapshot_to_graphml(snapshot: TimedSnapshot) -> str:
    root = ET.Element("graphml", xmlns="http://graphml.graphdrawing.org/xmlns")
    for key_id, domain, name, dtype in _GRAPHML_KEYS:
        ET.SubElement(
            root, "key", id=key_id, attrib={"for": domain, "attr.name": name, "attr.type": dtype}
        )
    graph = ET.SubElement(root, "graph", id="universe", edgedefault="directed")
    for u in sorted(snapshot.units, key=lambda u: u.uid):
        node = ET.SubElement(graph, "node", id=f"n{u.uid}")
        for key_id, value in (("d_name", u.name), ("d_release", u.release), ("d_time", str(u.time))):
            data = ET.SubElement(node, "data", key=key_id)
            data.text = value
    edges = [(e, "use") for e in sorted(snapshot.use_edges, key=lambda e: (e.src, e.dst))]
    edges += [(e, "update") for e in sorted(snapshot.update_edges, key=lambda e: (e.src, e.dst))]
    for i, (e, kind) in enumerate(edges):
        el = ET.SubElement(graph, "edge", id=f"e{i}", source=f"n{e.src}", target=f"n{e.dst}")
        data = ET.SubElement(el, "data", key="d_kind")
        data.text = kind
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def snapshot_to_json(snapshot: TimedSnapshot) -> str:
    doc = {
        "at": snapshot.at,
        "units": [
            {"uid": u.uid, "name": u.name, "release": u.release, "time": u.time}
            for u in sorted(snapshot.units, key=lambda u: u.uid)
        ],
        "use_edges": [
            [e.src, e.dst] for e in sorted(snapshot.use_edges, key=lambda e: (e.src, e.dst))
        ],
        "update_edges": [
            [e.src, e.dst] for e in sorted(snapshot.update_edges, key=lambda e: (e.src, e.dst))
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
