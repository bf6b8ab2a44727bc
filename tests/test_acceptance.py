"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Each criterion is checked at its stated size and
tolerance; every comparison against an oracle is exact.
"""

import random
import resource
import time

from pkgverse.contrib import Contribution, Window, build_dc_graph, classify_bot, congruent_contributions
from pkgverse.errors import PkgverseError
from pkgverse.eventlog import EventLog, replay, unit_event, update_event, use_event
from pkgverse.fixtures import bot_benchmark, client_library_fixture, sample_universe, sample_universe_extended
from pkgverse.graph import UniverseGraph, UseEdge, diff
from pkgverse.resolve import build_nested_tree, detect_conflicts, flatten_tree
from pkgverse.sampling import BreakageReport, chain_breakage
from pkgverse.semver import VersionRange, parse_version, resolve_version_range
from pkgverse.errors import NoMatchingVersion

from conftest import random_manifest_universe, random_universe
from oracles import (
    assert_flatten_preserves_resolution,
    breakage_oracle,
    brute_snapshot,
    congruence_brute_force,
    satisfying_max,
)


def report(criterion: str, passed: bool) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}")
    assert passed, criterion


def scan_axioms(g: UniverseGraph) -> bool:
    """Full-scan assertion of the four structural axioms."""
    for e in g.update_edges:
        if g.unit(e.src).name != g.unit(e.dst).name:
            return False
        if not g.unit(e.src).time < g.unit(e.dst).time:
            return False
    out_deg: dict[int, int] = {}
    in_deg: dict[int, int] = {}
    for e in g.update_edges:
        out_deg[e.src] = out_deg.get(e.src, 0) + 1
        in_deg[e.dst] = in_deg.get(e.dst, 0) + 1
    if any(v > 1 for v in out_deg.values()) or any(v > 1 for v in in_deg.values()):
        return False
    pairs = [(e.src, e.dst) for e in g.use_edges]
    return len(pairs) == len(set(pairs))


def random_event_sequence(rng: random.Random, g: UniverseGraph, n: int) -> None:
    """Apply n random (mostly valid, sometimes violating) operations."""
    for i in range(n):
        roll = rng.random()
        try:
            if roll < 0.5 or g.unit_count() < 2:
                g.add_unit(f"p{rng.randrange(9)}", str(rng.randrange(200)), i)
            elif roll < 0.85:
                g.add_use_edge(rng.randrange(g.unit_count()), rng.randrange(g.unit_count()))
            else:
                g.add_update_edge(rng.randrange(g.unit_count()), rng.randrange(g.unit_count()))
        except PkgverseError:
            pass


def violating_probes(rng: random.Random, g: UniverseGraph):
    """Deliberately violating operations against the current graph; every
    one of them must raise."""
    units = g.units
    by_name: dict[str, list] = {}
    for u in units:
        by_name.setdefault(u.name, []).append(u)
    probes = []
    some = units[rng.randrange(len(units))]
    probes.append(lambda: g.add_unit(some.name, some.release, some.time))  # duplicate
    probes.append(lambda: g.add_use_edge(some.uid, some.uid))  # self-loop
    probes.append(lambda: g.add_use_edge(some.uid, len(units) + 5))  # unknown unit
    if g.use_edges:
        e = next(iter(g.use_edges))
        probes.append(lambda s=e.src, d=e.dst: g.add_use_edge(s, d))  # parallel edge
    names = [n for n, us in by_name.items() if len(us) >= 1]
    if len(names) >= 2:
        a = by_name[names[0]][0]
        b = by_name[names[1]][0]
        probes.append(lambda s=a.uid, d=b.uid: g.add_update_edge(s, d))  # name axiom
    for us in by_name.values():
        if len(us) >= 2:
            newer = max(us, key=lambda u: (u.time, u.uid))
            older = min(us, key=lambda u: (u.time, u.uid))
            probes.append(lambda s=newer.uid, d=older.uid: g.add_update_edge(s, d))  # time order
            break
    if g.update_edges:
        e = next(iter(g.update_edges))
        peer = by_name[g.unit(e.src).name][-1]
        if peer.uid != e.dst and g.unit(e.src).time < peer.time:
            probes.append(lambda s=e.src, d=peer.uid: g.add_update_edge(s, d))  # branching
    return probes


def test_criterion_1_axiom_suite():
    rng = random.Random(101)
    started = time.monotonic()
    sequences = 1000
    detected = attempted = 0
    for _ in range(sequences):
        g = UniverseGraph()
        random_event_sequence(rng, g, rng.randint(5, 500))
        if not scan_axioms(g):
            report("criterion 1: graph axiom suite (axiom scan failed)", False)
        if g.unit_count():
            for probe in violating_probes(rng, g):
                attempted += 1
                before = (g.unit_count(), len(g.use_edges), len(g.update_edges))
                try:
                    probe()
                except PkgverseError:
                    detected += 1
                after = (g.unit_count(), len(g.use_edges), len(g.update_edges))
                if before != after:
                    report("criterion 1: graph axiom suite (violating event applied)", False)
    elapsed = time.monotonic() - started
    passed = detected == attempted and attempted >= 4 * sequences and elapsed < 10.0
    report(
        f"criterion 1: graph axiom suite ({sequences} sequences, "
        f"{detected}/{attempted} violations rejected, {elapsed:.1f}s)",
        passed,
    )


def test_criterion_1_quarantine_path(tmp_path):
    # the same violating material routed through the log must be quarantined
    rng = random.Random(102)
    bad_total = quarantined_total = 0
    for round_no in range(20):
        path = tmp_path / f"log{round_no}.ndjson"
        with EventLog(path) as log:
            log.append(unit_event("a", "1", 1))
            log.append(unit_event("a", "2", 5))
            log.append(unit_event("b", "1", 3))
            log.append(update_event(("a", "1"), ("a", "2")))
            bad = [
                unit_event("a", "1", 1),
                use_event(("a", "1"), ("a", "1")),
                use_event(("a", "1"), ("ghost", "1")),
                update_event(("a", "1"), ("b", "1")),
                update_event(("a", "2"), ("a", "1")),
            ]
            rng.shuffle(bad)
            for event in bad:
                log.append(event)
            bad_total += len(bad)
        quarantined_total += len(replay(path).quarantine)
    report(
        f"criterion 1 (quarantine): {quarantined_total}/{bad_total} violating events quarantined",
        quarantined_total == bad_total,
    )


def test_criterion_2_snapshot_oracle_equivalence():
    rng = random.Random(201)
    all_equal = True
    for _ in range(200):
        g = random_universe(rng, rng.randint(1, 200))
        t = rng.randint(-2, 210)
        if g.timed_snapshot(t) != brute_snapshot(g, t):
            all_equal = False
            break
    report("criterion 2: snapshot equals brute-force filter-and-induce (200 graphs)", all_equal)


def test_criterion_3_bundled_fixtures():
    g, h = sample_universe()
    ok = g.use_of(h["a1"]) == {h["x1"]}
    ok &= g.used_by(h["x1"]) == {h["a1"], h["q1"], h["q2"]}
    ok &= g.update_chain("q") == [h["q1"], h["q2"], h["q3"]]

    g2, h2 = sample_universe_extended()
    t_new = g2.unit(h2["a3"]).time
    delta = diff(g2.timed_snapshot(t_new - 1), g2.timed_snapshot(t_new))
    ok &= {u.uid for u in delta.added_units} == {h2["a3"]}
    ok &= delta.added_use_edges == frozenset({UseEdge(h2["a3"], h2["x2"])})
    ok &= {(e.src, e.dst) for e in delta.added_update_edges} == {(h2["a2"], h2["a3"])}
    ok &= delta.strict_growth is True

    g3, contribs = client_library_fixture()
    pairs = congruent_contributions(build_dc_graph(g3, contribs, Window(0, 100)))
    ok &= {(p.developer, p.client, p.library) for p in pairs} == {
        ("alice", "app", "parser"),
        ("bob", "app", "utils"),
    }
    report("criterion 3: bundled fixtures reproduce exactly", ok)


def test_criterion_4_flattening():
    rng = random.Random(401)
    conflict_free_checked = 0
    for _ in range(500):
        root, registry = random_manifest_universe(rng)
        nested = build_nested_tree(root, registry)
        flat = flatten_tree(nested)
        assert_flatten_preserves_resolution(nested, flat)

        def shape(t):
            return (t.name, t.version, t.back_reference, tuple(shape(c) for c in t.children))

        if shape(flatten_tree(flat)) != shape(flat):
            report("criterion 4: flattening (idempotence failed)", False)
        if not detect_conflicts(nested):
            conflict_free_checked += 1
            if any(c.children for c in flat.children):
                report("criterion 4: flattening (conflict-free kept nesting)", False)
    report(
        f"criterion 4: flattening on 500 universes ({conflict_free_checked} conflict-free)",
        conflict_free_checked > 0,
    )


def test_criterion_5_congruence_brute_force():
    rng = random.Random(501)
    for _ in range(100):
        n_packages = rng.randint(2, 30)
        packages = [f"pkg{i}" for i in range(n_packages)]
        g = UniverseGraph()
        uids = {p: g.add_unit(p, "1.0.0", i) for i, p in enumerate(packages)}
        for _ in range(rng.randint(0, 2 * n_packages)):
            a, b = rng.sample(packages, 2)
            try:
                g.add_use_edge(uids[a], uids[b])
            except PkgverseError:
                pass
        devs = [f"dev{i}" for i in range(rng.randint(1, 50))]
        contribs = [
            Contribution(f"c{i}", rng.choice(devs), rng.choice(packages),
                         rng.choice(("pr", "issue", "discussion")), rng.randint(1, 1000), merged=True)
            for i in range(rng.randint(0, 100))
        ]
        dc = build_dc_graph(g, contribs, Window(0, 1000))
        got = {
            (p.developer, p.client, p.library, p.client_contribution, p.library_contribution)
            for p in congruent_contributions(dc)
        }
        if got != congruence_brute_force(dc.dependency_edges, contribs):
            report("criterion 5: congruence equals brute force", False)
    report("criterion 5: congruence equals O(D*C^2) oracle on 100 instances", True)


def test_criterion_6_chain_breakage():
    rng = random.Random(601)
    for round_no in range(100):
        g = random_universe(rng, 100)
        snap = g.timed_snapshot(200)
        names = sorted(snap.names())
        subset = {n for n in names if rng.random() < rng.choice((0.2, 0.5, 0.8))}
        got = chain_breakage(snap, subset)
        if got != BreakageReport(*breakage_oracle(snap, subset)):
            report("criterion 6: chain breakage equals recomputation oracle", False)
        if not chain_breakage(snap, set(names)).all_zero():
            report("criterion 6: chain breakage (full subset not zero)", False)
    report("criterion 6: breakage equals full-recomputation oracle on 100 subsets", True)


def _random_log_events(rng, n):
    events = []
    declared = []
    for i in range(n):
        roll = rng.random()
        if roll < 0.5 or len(declared) < 2:
            pair = (f"p{rng.randrange(8)}", str(rng.randrange(60)))
            declared.append(pair)
            events.append(unit_event(pair[0], pair[1], i))
        elif roll < 0.8:
            events.append(use_event(rng.choice(declared), rng.choice(declared)))
        else:
            events.append(update_event(rng.choice(declared), rng.choice(declared)))
    return events


def test_criterion_7_replay_determinism(tmp_path):
    rng = random.Random(701)
    for round_no in range(100):
        p1 = tmp_path / f"a{round_no}.ndjson"
        p2 = tmp_path / f"b{round_no}.ndjson"
        p12 = tmp_path / f"ab{round_no}.ndjson"
        e1 = _random_log_events(rng, rng.randint(1, 150))
        e2 = _random_log_events(rng, rng.randint(1, 150))
        p1.touch(), p2.touch()
        with EventLog(p1) as log:
            log.append_records(e1)
        with EventLog(p2) as log:
            log.append_records(e2)
        p12.write_bytes(p1.read_bytes() + p2.read_bytes())

        if replay(p1).graph != replay(p1).graph:
            report("criterion 7: replay determinism", False)
        combined = replay(p12)
        split = replay(p2, into=replay(p1))
        if combined.graph != split.graph:
            report("criterion 7: split-replay equivalence", False)
    report("criterion 7: replay determinism and split-replay on 100 logs", True)


def test_criterion_8_version_range_maximality():
    ranges = [
        "*", "1.0.0", "^1.0.0", "^1.1.0", "~1.1.0", "~0.2.0", "^0.2.1",
        ">=1.1.0", ">1.0.0 <2.0.0", "<=0.2.2", "0.1.0 - 1.1.0",
        "^0.1.0 || ^2.0.0", "1.x", "0.2.x", ">=2.0.0", "~2.1.0",
    ]
    pool = [
        "0.1.0", "0.1.5", "0.2.0", "0.2.2", "0.3.0",
        "1.0.0", "1.0.5", "1.1.0", "1.1.3", "1.2.0",
        "2.0.0", "2.1.0", "2.1.4", "3.0.0", "1.1.0-rc.1", "2.0.0-beta.2",
    ]
    versions = [parse_version(t) for t in pool]
    cases = 0
    for range_text in ranges:
        rng_parsed = VersionRange.parse(range_text)
        for size in (2, 4, 6, 9, len(versions)):
            for offset in range(len(versions) - size + 1):
                available = versions[offset : offset + size]
                expected = satisfying_max(rng_parsed, available)
                cases += 1
                try:
                    resolved = resolve_version_range(rng_parsed, available)
                except NoMatchingVersion:
                    resolved = None
                if resolved != expected:
                    report("criterion 8: version-range maximality", False)
                if resolved is not None:
                    if not rng_parsed.matches(resolved) or any(
                        v > resolved and rng_parsed.matches(v) for v in available
                    ):
                        report("criterion 8: version-range maximality", False)
    report(f"criterion 8: range resolution maximality on {cases} grid cases", cases >= 500)


def test_criterion_9_ingest_performance(tmp_path):
    n_units, n_edges = 100_000, 500_000
    rng = random.Random(901)
    path = tmp_path / "big.ndjson"
    started = time.monotonic()

    names = [f"pkg{i}" for i in range(20_000)]
    with EventLog(path) as log:
        pairs = []
        for i, name in enumerate(names):
            for v in range(5):
                release = f"{v + 1}.0.0"
                log.append(unit_event(name, release, i * 5 + v))
                pairs.append((name, release))
        seen = set()
        emitted = 0
        while emitted < n_edges:
            a = rng.randrange(len(pairs))
            b = rng.randrange(len(pairs))
            if a == b or pairs[a][0] == pairs[b][0] or (a, b) in seen:
                continue
            seen.add((a, b))
            log.append(use_event(pairs[a], pairs[b]))
            emitted += 1

    result = replay(path)
    snap = result.graph.timed_snapshot(10**9)
    elapsed = time.monotonic() - started
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 * 1024)

    ok = (
        result.graph.unit_count() == n_units
        and len(result.graph.use_edges) == n_edges
        and not result.quarantine
        and len(snap.units) == n_units
        and elapsed < 60.0
        and peak_gb < 2.0
    )
    report(
        f"criterion 9: {n_units} units + {n_edges} use-edges ingest+replay+snapshot "
        f"in {elapsed:.1f}s, peak {peak_gb:.2f} GB",
        ok,
    )


def test_criterion_10_bot_classifier_fixture():
    accounts = bot_benchmark()
    tp = fp = fn = 0
    for account in accounts:
        flagged, _ = classify_bot(account.name, list(account.contributions))
        if flagged and account.is_bot:
            tp += 1
        elif flagged and not account.is_bot:
            fp += 1
        elif account.is_bot:
            fn += 1
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    report(
        f"criterion 10: bot classifier precision={precision:.2f} recall={recall:.2f} "
        f"on the 30-account fixture",
        precision >= 0.9 and recall >= 0.8,
    )
