import io
import json
import random
import tracemalloc
import xml.etree.ElementTree as ET
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from pkgverse import export
from pkgverse.contrib import CongruentPair, Window
from pkgverse.export import (
    export_snapshot_series,
    snapshot_to_dot,
    snapshot_to_graphml,
    snapshot_to_json,
    write_congruence_csv,
    write_snapshot,
)
from pkgverse.fixtures import sample_universe
from pkgverse.graph import UniverseGraph
from pkgverse.sampling import snapshot_series

from conftest import random_universe
from oracles import check_dot_document, reference_dot


def full_snapshot():
    g, _ = sample_universe()
    return g, g.timed_snapshot(max(u.time for u in g.units))


class TestDot:
    def test_grammar_checker_accepts_export(self):
        _, snap = full_snapshot()
        nodes, edges = check_dot_document(snapshot_to_dot(snap))
        assert len(nodes) == len(snap.units)
        assert len(edges) == len(snap.use_edges) + len(snap.update_edges)
        assert all(a in nodes and b in nodes for a, b in edges)

    def test_empty_snapshot(self):
        g, _ = sample_universe()
        nodes, edges = check_dot_document(snapshot_to_dot(g.timed_snapshot(0)))
        assert nodes == set() and edges == []

    def test_labels_are_quoted_and_escaped(self):
        from pkgverse.graph import UniverseGraph

        g = UniverseGraph()
        g.add_unit('we"ird', "1", 1)
        text = snapshot_to_dot(g.timed_snapshot(1))
        check_dot_document(text)
        assert '\\"' in text

    def test_deterministic(self):
        _, snap = full_snapshot()
        assert snapshot_to_dot(snap) == snapshot_to_dot(snap)


class TestGraphml:
    def test_well_formed_and_structured(self):
        _, snap = full_snapshot()
        root = ET.fromstring(snapshot_to_graphml(snap))
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        assert root.tag == f"{ns}graphml"
        graph = root.find(f"{ns}graph")
        node_ids = {n.get("id") for n in graph.findall(f"{ns}node")}
        assert len(node_ids) == len(snap.units)
        declared_keys = {k.get("id") for k in root.findall(f"{ns}key")}
        for edge in graph.findall(f"{ns}edge"):
            assert edge.get("source") in node_ids
            assert edge.get("target") in node_ids
        for data in graph.iter(f"{ns}data"):
            assert data.get("key") in declared_keys


NS = "{http://graphml.graphdrawing.org/xmlns}"


def graphml_via_elementtree(snapshot) -> str:
    """Reference GraphML built as an element tree and indented by ``ET.indent``."""
    root = ET.Element("graphml", xmlns=NS[1:-1])
    for key_id, domain, name, dtype in (
        ("d_name", "node", "name", "string"),
        ("d_release", "node", "release", "string"),
        ("d_time", "node", "time", "long"),
        ("d_kind", "edge", "kind", "string"),
    ):
        ET.SubElement(root, "key", {"for": domain, "attr.name": name, "attr.type": dtype, "id": key_id})
    graph = ET.SubElement(root, "graph", id="universe", edgedefault="directed")
    for u in sorted(snapshot.units, key=lambda u: u.uid):
        node = ET.SubElement(graph, "node", id=f"n{u.uid}")
        for key_id, value in (("d_name", u.name), ("d_release", u.release), ("d_time", str(u.time))):
            ET.SubElement(node, "data", key=key_id).text = value
    edges = [(e, "use") for e in sorted(snapshot.use_edges, key=lambda e: (e.src, e.dst))]
    edges += [(e, "update") for e in sorted(snapshot.update_edges, key=lambda e: (e.src, e.dst))]
    for i, (e, kind) in enumerate(edges):
        edge = ET.SubElement(graph, "edge", id=f"e{i}", source=f"n{e.src}", target=f"n{e.dst}")
        ET.SubElement(edge, "data", key="d_kind").text = kind
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def markup_universe():
    g = UniverseGraph()
    a = g.add_unit("a&b<c>", "1.0.0-\"q\"", 1)
    b = g.add_unit("<lib's>", "2 & 3 > 1", 2)
    c = g.add_unit("<lib's>", "'4'", 3)
    g.add_use_edge(a, b)
    g.add_use_edge(c, a)
    g.add_update_edge(b, c)
    return g


class TestGraphmlText:
    def test_markup_characters_parse_back(self):
        snap = markup_universe().timed_snapshot(3)
        root = ET.fromstring(snapshot_to_graphml(snap))
        nodes = {
            n.get("id"): {d.get("key"): d.text for d in n.findall(f"{NS}data")}
            for n in root.iter(f"{NS}node")
        }
        assert nodes == {
            f"n{u.uid}": {"d_name": u.name, "d_release": u.release, "d_time": str(u.time)}
            for u in snap.units
        }
        edges = [
            (e.get("source"), e.get("target"), e.find(f"{NS}data").text)
            for e in root.iter(f"{NS}edge")
        ]
        assert edges == [("n0", "n1", "use"), ("n2", "n0", "use"), ("n1", "n2", "update")]

    def test_empty_snapshot(self):
        text = snapshot_to_graphml(markup_universe().timed_snapshot(0))
        root = ET.fromstring(text)
        graph = root.find(f"{NS}graph")
        assert graph.attrib == {"id": "universe", "edgedefault": "directed"}
        assert len(graph) == 0
        assert len(root.findall(f"{NS}key")) == 4
        assert text.endswith('  <graph id="universe" edgedefault="directed" />\n</graphml>\n')

    def test_bytes_match_elementtree(self, rng):
        g = markup_universe()
        snapshots = [g.timed_snapshot(t) for t in (0, 1, 2, 3)]
        for _ in range(5):
            h = random_universe(rng, rng.randint(1, 40))
            snapshots += [h.timed_snapshot(t) for t in (-1, 5, 20, 50)]
        for snap in snapshots:
            assert snapshot_to_graphml(snap) == graphml_via_elementtree(snap)


def json_via_dumps(snapshot) -> str:
    """The JSON export built as dicts and lists and written by json.dumps."""
    ends = attrgetter("src", "dst")
    doc = {
        "at": snapshot.at,
        "units": [
            {"uid": u.uid, "name": u.name, "release": u.release, "time": u.time}
            for u in sorted(snapshot.units, key=lambda u: u.uid)
        ],
        "use_edges": [[e.src, e.dst] for e in sorted(snapshot.use_edges, key=ends)],
        "update_edges": [[e.src, e.dst] for e in sorted(snapshot.update_edges, key=ends)],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_label = st.text(
    st.one_of(st.characters(exclude_categories=()), st.sampled_from('"\\\x00\x1f\x7f\né😀')),
    min_size=1,
    max_size=8,
)


@st.composite
def _universes(draw):
    """Units with labels full of quotes, backslashes, control and non-ASCII
    characters; use-edges between any two; update chains in time order."""
    g = UniverseGraph()
    rows = st.tuples(_label, st.one_of(st.sampled_from(["1", "2"]), _label), st.integers(-5, 20))
    for name, release, time in draw(st.lists(rows, max_size=12, unique_by=lambda r: r[:2])):
        g.add_unit(name, release, time)
    n = g.unit_count()
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    for a, b in draw(st.lists(pairs, max_size=3 * n, unique=True)):
        if a != b:
            g.add_use_edge(a, b)
    for name in sorted(g.names()):
        chain = sorted(g.units_of_name(name), key=lambda u: (g.unit(u).time, u))
        for a, b in zip(chain, chain[1:]):
            if g.unit(a).time < g.unit(b).time:
                g.add_update_edge(a, b)
    return g


class TestJson:
    @settings(deadline=None, max_examples=200)
    @given(g=_universes(), at=st.integers(-6, 21))
    def test_text_equals_json_dumps(self, g, at):
        snap = g.timed_snapshot(at)
        assert snapshot_to_json(snap) == json_via_dumps(snap)

    def test_empty_snapshot(self):
        snap = markup_universe().timed_snapshot(0)
        assert snapshot_to_json(snap) == json_via_dumps(snap)
        assert snapshot_to_json(snap) == '{\n  "at": 0,\n  "units": [],\n  "update_edges": [],\n  "use_edges": []\n}\n'

    def test_document_shape(self):
        _, snap = full_snapshot()
        doc = json.loads(snapshot_to_json(snap))
        assert doc["at"] == snap.at
        assert len(doc["units"]) == len(snap.units)
        assert all(set(u) == {"uid", "name", "release", "time"} for u in doc["units"])


class TestCsvAndSeries:
    def test_congruence_csv(self):
        buf = io.StringIO()
        pair = CongruentPair("alice", "app", "parser", "c1", "c2")
        write_congruence_csv(buf, [(Window(0, 100), pair)])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "window_start,developer,client,library,client_contribution,library_contribution"
        assert lines[1] == "0,alice,app,parser,c1,c2"

    def test_series_export_writes_one_dot_per_snapshot(self, tmp_path):
        g, _ = sample_universe()
        series = snapshot_series(g, 0, 6, 2)
        paths = export_snapshot_series(series, tmp_path / "out")
        assert [p.name for p in paths] == [
            "snapshot_0.dot", "snapshot_2.dot", "snapshot_4.dot", "snapshot_6.dot",
        ]
        for p in paths:
            check_dot_document(p.read_text())


def _chain_universe(n: int) -> UniverseGraph:
    """n releases of one package, each updating and using the one before it,
    the first using the last: n units, n use-edges (from n = 2 on) and
    n - 1 update-edges, so every list of an export holds about n items."""
    g = UniverseGraph()
    for i in range(n):
        g.add_unit("p<&>\"\\", str(i), i)
    for i in range(1, n):
        g.add_update_edge(i - 1, i)
        g.add_use_edge(i, i - 1)
    if n > 1:
        g.add_use_edge(0, n - 1)
    return g


class TestChunkBoundaries:
    N = export._CHUNK

    @pytest.mark.parametrize("n", [0, 1, N - 1, N, 2 * N + 1])
    def test_exports_match_references(self, n):
        snap = _chain_universe(n).timed_snapshot(n)
        docs = {
            "json": (snapshot_to_json(snap), json_via_dumps(snap)),
            "dot": (snapshot_to_dot(snap), reference_dot(snap)),
            "graphml": (snapshot_to_graphml(snap), graphml_via_elementtree(snap)),
        }
        for fmt, (text, expected) in docs.items():
            assert text == expected, fmt
            buf = io.StringIO()
            write_snapshot(buf, snap, fmt)
            assert buf.getvalue() == text, fmt

    @settings(deadline=None, max_examples=100)
    @given(g=_universes(), at=st.integers(-6, 21))
    def test_dot_equals_reference(self, g, at):
        snap = g.timed_snapshot(at)
        assert snapshot_to_dot(snap) == reference_dot(snap)

    def test_graphml_holds_no_second_copy(self):
        """Building a document holds the document and its chunks, not a
        list of its lines or a copy with a newline appended."""
        snap = random_universe(random.Random(11), 3000, p_edge=0.001).timed_snapshot(10**6)
        tracemalloc.start()
        try:
            text = snapshot_to_graphml(snap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(snap.units) == 3000 and len(snap.use_edges) > 8000
        assert peak <= 2.5 * len(text), peak / len(text)
