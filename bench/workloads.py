"""The benchmark's two workloads: set-up, measured phase and checks.

A workload's ``setup`` builds its inputs from the seed (timed as
``setup_s``), ``expect`` derives the answers the checks compare against
(untimed) and drops the generator's data, so the measured process carries
only what the program is fed and those answers, and ``measure`` runs the
measured phase once, in a child process, then checks what it produced. Layer functions are always looked
up through their module at call time, so wrappers installed by the tracer
are the ones called.

Every call into pkgverse goes through ``Ops.call``: an exception counts as
a failed operation and ends the pass, and is reported, never swallowed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

import pkgverse.cli as cli
import pkgverse.contrib as contrib
import pkgverse.eventlog as eventlog
import pkgverse.export as export
import pkgverse.graph as graph
import pkgverse.resolve as resolve
import pkgverse.sampling as sampling
import pkgverse.semver as semver

import ecosystems

DAY = 86400


class PassFailed(Exception):
    """A layer call raised; the rest of the pass cannot run."""


class Ops:
    """Counts the operations a pass attempts and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failures.append(f"{getattr(fn, '__qualname__', fn)} raised {type(exc).__name__}: {exc}")
            raise PassFailed from exc

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append("check failed: " + what)


@dataclasses.dataclass
class PassResult:
    """What one measured pass reports back to the parent process."""

    wall_s: float = 0.0
    stages: dict = dataclasses.field(default_factory=dict)
    digests: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failures: list = dataclasses.field(default_factory=list)
    trace: dict | None = None
    spans: list | None = None


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _write_log(path: Path, events) -> None:
    with eventlog.EventLog(path) as log:
        for event in events:
            log.append(event)


class Stages:
    """Times named stages of a pass; under tracing each is a root span."""

    def __init__(self, tracer):
        self.times: dict[str, float] = {}
        self._tracer = tracer

    @contextlib.contextmanager
    def __call__(self, name: str):
        if self._tracer is not None:
            self._tracer.enter("stage." + name)
        started = perf_counter()
        try:
            yield
        finally:
            self.times[name] = perf_counter() - started
            if self._tracer is not None:
                self._tracer.exit(False)


# --- ingest -----------------------------------------------------------------------


class Ingest:
    """Write path: CSV parsing, validation, JSON encoding, a flush per event and
    the quarantine report, almost no graph work."""

    name = "ingest"

    def setup(self, seed: int, scale: float, workdir: Path):
        data = ecosystems.ingest_input(seed, scale)
        dump, contributions = workdir / "registry.csv", workdir / "contributions.ndjson"
        ecosystems.write_ingest_files(data, dump, contributions)
        return {"data": data, "dump": dump, "contributions": contributions, "workdir": workdir}

    def expect(self, state) -> None:
        data = state.pop("data")
        state["counts"] = {"unit": data.units, "use": data.uses, "contribution": data.contributions}
        state["injected_dump"] = data.injected_dump
        state["injected_contributions"] = data.injected_contributions

    def measure(self, state, ops: Ops, stages: Stages, tracer) -> PassResult:
        counts = state["counts"]
        # the quarantine report names its source files: run from their
        # directory so the report's bytes do not depend on where it ran
        os.chdir(state["workdir"])
        log = Path(f"pass-{os.getpid()}.ndjson")
        report = Path(str(log) + ".quarantine.ndjson")
        result = PassResult()
        codes = []
        with contextlib.redirect_stderr(io.StringIO()):
            with stages("ingest"):
                for path, kind in ((state["dump"], "dump"), (state["contributions"], "contributions")):
                    codes.append(ops.call(cli.main, ["ingest", path.name, "--kind", kind, "--log", str(log)]))
        try:
            if tracer is not None:
                tracer.add("eventlog.bytes", log.stat().st_size)
            result.stages["ingest_events_per_s"] = sum(counts.values()) / stages.times["ingest"]
            expected_codes = [2 if state["injected_dump"] else 0, 2 if state["injected_contributions"] else 0]
            ops.check(codes == expected_codes, f"ingest exit codes {codes}, expected {expected_codes}")
            body = log.read_bytes()
            for kind, n in counts.items():
                got = body.count(b'"kind":"%s"' % kind.encode())
                ops.check(got == n, f"{n} {kind} events expected in the log, found {got}")
            reasons = Counter(json.loads(line)["reason"] for line in report.read_text().splitlines()) \
                if report.exists() else Counter()
            injected = state["injected_dump"] + state["injected_contributions"]
            ops.check(reasons == injected, f"quarantine {dict(reasons)} != injected {dict(injected)}")
            result.digests = {"log": sha(body), "quarantine": sha(report.read_bytes()) if report.exists() else ""}
        finally:
            log.unlink(missing_ok=True)
            report.unlink(missing_ok=True)
        return result


# --- timetravel -----------------------------------------------------------------------


def _event(record):
    if record[0] == "unit":
        return eventlog.unit_event(*record[1:])
    if record[0] == "use":
        return eventlog.use_event(record[1], record[2])
    return eventlog.update_event(record[1], record[2])


class Timetravel:
    """Read path over history: replay, an 11-cutoff series with diffs, point
    activity queries and exports."""

    name = "timetravel"

    def setup(self, seed: int, scale: float, workdir: Path):
        data = ecosystems.timetravel_input(seed, scale)
        log = workdir / "history.ndjson"
        _write_log(log, map(_event, data.events))
        return {"data": data, "log": log}

    def expect(self, state) -> None:
        data = state.pop("data")
        hist = data.history
        state["expected"] = {
            "events": len(data.events),
            "injected": data.injected,
            "sizes": (len(hist.releases), hist.use_edge_count, hist.update_edge_count),
            "series": data.expected_series,
            "activity": data.expected_activity,
        }
        state["cutoffs"], state["queries"], state["window"] = data.cutoffs, data.queries, data.window
        state["log_digest"] = sha(state["log"].read_bytes())

    def measure(self, state, ops: Ops, stages: Stages, tracer) -> PassResult:
        expected = state["expected"]
        cutoffs = state["cutoffs"]
        result = PassResult()
        with stages("replay"):
            replayed = ops.call(eventlog.replay, state["log"])
        g = replayed.graph
        with stages("series"):
            series = ops.call(sampling.snapshot_series, g, cutoffs[0], cutoffs[-1], cutoffs[1] - cutoffs[0])
            diffs = [ops.call(graph.diff, a, b) for a, b in zip(series, series[1:])]
        latencies = []
        reports = []
        with stages("activity"):
            for package, at in state["queries"]:
                started = perf_counter()
                reports.append(ops.call(sampling.activity_report, g, package, state["window"], at=at))
                latencies.append(perf_counter() - started)
        docs = {}
        with stages("export"):
            for fmt in ("json", "dot", "graphml"):
                docs[fmt] = ops.call(getattr(export, "snapshot_to_" + fmt), series[-1])

        result.stages["replay_events_per_s"] = expected["events"] / stages.times["replay"]
        result.stages["series_s"] = stages.times["series"]
        result.stages["activity_p50_ms"] = statistics.median(latencies) * 1000
        result.stages["export_s"] = stages.times["export"]

        reasons = Counter(q.reason for q in replayed.quarantine)
        injected = expected["injected"]
        ops.check(reasons == injected, f"replay quarantine {dict(reasons)} != injected {dict(injected)}")
        ops.check(
            (g.unit_count(), len(g.use_edges), len(g.update_edges)) == expected["sizes"],
            "replayed graph size differs from the generator's",
        )
        sizes = [(len(s.units), len(s.use_edges), len(s.update_edges)) for s in series]
        ops.check(sizes == expected["series"], f"series sizes {sizes} != {expected['series']}")
        added = [sizes[0]]
        for d in diffs:
            added.append((len(d.added_units), len(d.added_use_edges), len(d.added_update_edges)))
        ops.check(tuple(map(sum, zip(*added))) == sizes[-1], "series diffs do not add up to the latest snapshot")
        got = [(r.releases_in_window, r.last_release_time, r.dependent_count) for r in reports]
        ops.check(got == expected["activity"], "activity reports differ from the generator's answers")
        latest = sizes[-1]
        ops.check(docs["dot"].count("\n") == sum(latest) + 2, "DOT export line count")
        result.digests = {"log": state["log_digest"]}
        result.digests.update({"export." + fmt: sha(text) for fmt, text in docs.items()})
        result.digests["activity"] = sha(json.dumps([dataclasses.asdict(r) for r in reports]))
        return result


# --- history: ingest, then timetravel ------------------------------------------------


class History:
    """The write path and the read path over history, one after the other in
    each pass. They share a workload so that each run can be long enough to
    average out the host's speed changes; their stages are still timed
    apart (``ingest_events_per_s`` against ``replay_events_per_s``,
    ``series_s``, ``activity_p50_ms`` and ``export_s``)."""

    name = "history"
    why = ("Write then read path: CLI ingest of a dump and contributions, then replay, an 11-cutoff "
           "series with diffs, point activity queries and exports of another seeded log")
    parts = (Ingest(), Timetravel())

    def setup(self, seed: int, scale: float, workdir: Path):
        return {part.name: part.setup(seed, scale, workdir) for part in self.parts}

    def expect(self, state) -> None:
        for part in self.parts:
            part.expect(state[part.name])

    def measure(self, state, ops: Ops, stages: Stages, tracer) -> PassResult:
        result = PassResult()
        for part in self.parts:
            done = part.measure(state[part.name], ops, stages, tracer)
            result.stages.update(done.stages)
            result.digests.update({f"{part.name}.{key}": value for key, value in done.digests.items()})
        return result


# --- analysis -----------------------------------------------------------------------------


class Analysis:
    name = "analysis"
    why = ("Package-level layers on a cyclic ecosystem: top-k samples and chain breakage, "
           "tree resolution per root, congruence per window and range resolution")

    def setup(self, seed: int, scale: float, workdir: Path):
        data = ecosystems.analysis_input(seed, scale)
        rels, hist = data.history.releases, data.history
        events = []
        previous: dict[str, int] = {}
        for rel in rels:
            events.append(eventlog.unit_event(rel.name, rel.label, rel.time))
            events.extend(eventlog.use_event(rel.key, rels[d].key) for d in hist.uses[rel.idx])
            if rel.name in previous:
                events.append(eventlog.update_event(rels[previous[rel.name]].key, rel.key))
            previous[rel.name] = rel.idx
        log = workdir / "ecosystem.ndjson"
        _write_log(log, events)
        replayed = eventlog.replay(log)
        contributions = [
            contrib.Contribution(id=c["id"], developer=c["author"], target=c["target"], ctype=c["type"],
                                 time=c["time"], merged=c["merged"], title=c["title"])
            for c in data.contributions
        ]
        raw_authors = [(c["author"], c["email"]) for c in data.contributions]
        return {"data": data, "log": log, "graph": replayed.graph, "quarantined": len(replayed.quarantine),
                "contributions": contributions, "raw_authors": raw_authors}

    def expect(self, state) -> None:
        data = state.pop("data")
        hist = data.history
        rels = hist.releases
        state["k"] = max(1, len(hist.by_name) // 10)
        state["latest"] = rels[-1].time
        state["roots"] = [rels[root].key for root in data.roots]
        state["ranges"] = [(text, available) for ranges, avail in zip(hist.declared, data.available)
                           for text, available in zip(ranges, avail)]
        state["expected_labels"] = [rels[d].label for uses in hist.uses for d in uses]
        depth = ecosystems.longest_use_path(hist)
        if depth > 400:  # the resolver recurses once per level of the tree
            raise ValueError(f"generated use-path of {depth} releases is too deep for the resolver")
        trees = []
        for root in data.roots:
            keys = {rels[i].key for i in ecosystems.closure(hist, root)}
            names = Counter(name for name, _ in keys)
            trees.append((keys, sorted(n for n, c in names.items() if c > 1)))
        state["expected_trees"] = trees
        state["log_digest"] = sha(state["log"].read_bytes())

        # congruent pairs, counted from the generator's data per window
        first_edge: dict[tuple[str, str], int] = {}
        for rel in rels:
            for dst in hist.uses[rel.idx]:
                key = (rel.name, rels[dst].name)
                first_edge[key] = min(first_edge.get(key, rel.time), rel.time)
        bots = {a.email for a in data.authors if a.bot}
        kept = [c for c in data.contributions
                if c["email"] not in bots and (c["type"] != "pr" or c["merged"])]
        t_lo = min(c["time"] for c in kept)
        t_hi = max(c["time"] for c in kept)
        windows = contrib.window_partition(t_lo - 1, t_hi, 90 * DAY)
        out: dict[str, list[tuple[str, int]]] = {}
        for (a, b), t in first_edge.items():
            out.setdefault(a, []).append((b, t))
        pairs = 0
        for w in windows:
            targets: dict[str, set[str]] = {}
            for c in kept:
                if w.start < c["time"] <= w.end:
                    targets.setdefault(c["email"], set()).add(c["target"])
            for s in targets.values():
                pairs += sum(1 for a in s for b, t in out.get(a, ()) if t <= w.end and b in s)
        state["expected_pairs"] = pairs
        state["expected_developers"] = len({c["email"] for c in data.contributions})
        state["expected_bots"] = len({c["email"] for c in data.contributions if c["email"] in bots})

    def measure(self, state, ops: Ops, stages: Stages, tracer) -> PassResult:
        g = state["graph"]
        result = PassResult()

        with stages("breakage"):
            snap = ops.call(g.timed_snapshot, state["latest"])
            samples = {m: ops.call(sampling.sample_top_k, snap, sampling.SampleSpec(m, state["k"]))
                       for m in ("dependents", "activity")}
            breakage = {m: ops.call(sampling.chain_breakage, snap, set(s)) for m, s in samples.items()}
            full = ops.call(sampling.chain_breakage, snap, snap.names())

        trees = []
        with stages("resolve"):
            for name, label in state["roots"]:
                nested = ops.call(resolve.build_tree_at, snap, name, label)
                conflicts = ops.call(resolve.detect_conflicts, nested)
                flat = ops.call(resolve.flatten_tree, nested)
                doc = ops.call(resolve.tree_to_dict, flat)
                lock = ops.call(lambda t: list(resolve.iter_lock_entries(t)), flat)
                trees.append((nested, conflicts, doc, lock))

        with stages("congruence"):
            developers = ops.call(contrib.merge_identities, state["raw_authors"])
            contributions = ops.call(contrib.canonicalize_contributions, state["contributions"], developers)
            by_dev: dict[str, list] = {}
            for c in contributions:
                by_dev.setdefault(c.developer, []).append(c)
            bots = {dev for dev, items in by_dev.items() if ops.call(contrib.classify_bot, dev, items)[0]}
            kept = ops.call(contrib.filter_contributions, contributions, exclude_developers=bots)
            t_lo = min(c.time for c in kept)
            t_hi = max(c.time for c in kept)
            rows = []
            for window in ops.call(contrib.window_partition, t_lo - 1, t_hi, 90 * DAY):
                dc = ops.call(contrib.build_dc_graph, g, kept, window)
                rows.extend((window, pair) for pair in ops.call(contrib.congruent_contributions, dc))
            buf = io.StringIO()
            ops.call(export.write_congruence_csv, buf, rows)

        resolved = []
        with stages("ranges"):
            for text, available in state["ranges"]:
                rng = ops.call(semver.VersionRange.parse, text)
                resolved.append(ops.call(semver.resolve_version_range, rng, available))

        for name in ("breakage", "resolve", "congruence"):
            result.stages[name + "_s"] = stages.times[name]

        ops.check(full.all_zero(), f"breakage of the full package set is {full}")
        ops.check(state["quarantined"] == 0, "the analysis log replays without quarantine")
        for (nested, conflicts, doc, lock), (keys, conflict_names) in zip(trees, state["expected_trees"]):
            found, stack = set(), [nested]
            while stack:
                node = stack.pop()
                if node.key not in found:
                    found.add(node.key)
                    stack.extend(node.children)
            ops.check(found == keys, f"tree of {nested.name}@{nested.version} differs from the use-closure")
            ops.check([c.name for c in conflicts] == conflict_names, f"conflicts of {nested.name}@{nested.version}")
        ops.check(len(developers) == state["expected_developers"], "merged developer count")
        ops.check(len(bots) == state["expected_bots"], f"{len(bots)} developers flagged as bots")
        ops.check(len(rows) == state["expected_pairs"], f"{len(rows)} congruent pairs, expected {state['expected_pairs']}")
        ops.check([str(v) for v in resolved] == state["expected_labels"], "declared ranges resolve to the generated targets")

        result.digests = {
            "log": state["log_digest"],
            "breakage": sha(json.dumps({m: [samples[m], dataclasses.asdict(r)] for m, r in breakage.items()})),
            "trees": sha(json.dumps([[doc, lock] for _, _, doc, lock in trees])),
            "congruence": sha(buf.getvalue()),
        }
        return result


WORKLOADS = {w.name: w for w in (History(), Analysis())}
