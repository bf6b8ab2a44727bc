"""Run one pkgverse benchmark workload and report its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {history,analysis} --seed N \\
        --seconds S --trace {0,1}

The run sets up the workload's seeded inputs once for the measured
phase, then, within ``--seconds`` (``run_seconds`` of ``BENCHMARK.json`` by
default; at least three passes), repeats the measured phase and, after
every second pass, a timed set-up, each in a forked child process;
``setup_s`` and ``wall_s`` are medians over these. One caller, one thread, a closed loop.
Every pass checks its outputs; a layer call that raises or a check that
fails counts as a failed operation.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of ``tracing.LAYER_METRICS``, the untraced stage
figures (``stage.*``) and the tracing overhead; spans are written to
``.bench_run/``.

A human-readable report goes to stderr, with the output digests of the
passes; ``bench/digests.json`` holds those of the default seed, and is
edited by hand when an output is meant to change. The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

# (name, unit) of the end-to-end metrics every workload reports
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# (name, unit, better, workload): what a user of each workload waits for,
# reported untraced, as the median over passes
STAGE_METRICS = (
    ("ingest_events_per_s", "events/s", "higher", "history"),
    ("replay_events_per_s", "events/s", "higher", "history"),
    ("series_s", "s", "lower", "history"),
    ("activity_p50_ms", "ms", "lower", "history"),
    ("export_s", "s", "lower", "history"),
    ("breakage_s", "s", "lower", "analysis"),
    ("resolve_s", "s", "lower", "analysis"),
    ("congruence_s", "s", "lower", "analysis"),
)


def run_in_child(fn):
    """Run ``fn()`` in a forked child; return (result or error text, peak
    RSS of the child in MB). The child's rusage comes from ``os.wait4``."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(read_fd)
        signal.alarm(PASS_TIMEOUT_S)
        try:
            payload = pickle.dumps(("ok", fn()))
        except BaseException:
            payload = pickle.dumps(("error", traceback.format_exc()))
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    peak_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    if not data:
        return ("error", f"pass process ended with status {status} and no result"), peak_mb
    return pickle.loads(data), peak_mb


def current_rss_mb() -> float:
    """This process's resident set now, from /proc/self/statm."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_revision": git_revision(),
    }


def git_revision() -> str:
    if not (ROOT / ".git").exists():  # git would look in the directories above
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("history", "analysis"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor (tests use small ones)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pkgverse" / "__init__.py").is_file():
        print(f"error: no pkgverse sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    run_root = ROOT / ".bench_run"
    run_root.mkdir(exist_ok=True)
    workdir = run_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, workload, traced, workdir, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload, traced, workdir, tracing, workloads) -> int:
    setup_tracer = tracing.Tracer() if traced else None
    (workdir / "inputs").mkdir(parents=True)
    if traced:
        setup_tracer.install()
    try:
        state = workload.setup(args.seed, args.scale, workdir / "inputs")
    finally:
        if traced:
            setup_tracer.uninstall()
    if traced:
        setup_tracer.add("eventlog.bytes", sum(p.stat().st_size for p in setup_tracer.log_paths))
    workload.expect(state)

    def timed_setup(sub: Path):
        def body():
            sub.mkdir()
            gc.collect()
            started = perf_counter()
            workload.setup(args.seed, args.scale, sub)
            return perf_counter() - started
        return body

    def one_pass(with_trace: bool):
        def body():
            ops = workloads.Ops()
            tracer = tracing.Tracer() if with_trace else None
            if tracer is not None:
                tracer.install()
            stages = workloads.Stages(tracer)
            try:
                result = workload.measure(state, ops, stages, tracer)
            except workloads.PassFailed:
                result = workloads.PassResult()
            result.wall_s = sum(stages.times.values())
            result.attempted, result.failures = ops.attempted, ops.failures
            if tracer is not None:
                tracer.uninstall()
                result.trace, result.spans = tracer.stats, tracer.spans
            return result
        return body

    plain, with_trace, setup_times, errors, peaks = [], [], [], [], []
    gc.collect()
    fork_rss_mb = current_rss_mb()
    started = perf_counter()
    round_s = 0.0  # how long the last round took
    rounds = 0
    while True:
        rounds += 1
        n_plain, n_traced = len(plain), len(with_trace)
        enough = (n_plain >= 2 and n_traced >= 2) if traced else n_plain >= MIN_PASSES
        # stop before a round that would end past --seconds, so a run's length stays bounded
        if enough and perf_counter() - started + round_s > args.seconds:
            break
        round_started = perf_counter()
        use_trace = traced and n_traced < n_plain
        (status, result), peak = run_in_child(one_pass(use_trace))
        if status == "ok":
            (with_trace if use_trace else plain).append(result)
            if not use_trace:
                peaks.append(peak)
        else:
            errors.append(result)
        if not traced and rounds % 2:
            # a repeat of the set-up after every second pass, in a child so
            # the harness keeps no trace of it; spread over the run like the
            # passes, it sees the same host conditions
            sub = workdir / f"setup{rounds}"
            (status, result), _ = run_in_child(timed_setup(sub))
            shutil.rmtree(sub, ignore_errors=True)
            (setup_times if status == "ok" else errors).append(result)
        round_s = perf_counter() - round_started
        if len(errors) >= 3:
            break

    passes = plain + with_trace
    attempted = sum(r.attempted for r in passes) + len(errors)
    failures = [f for r in passes for f in r.failures] + errors

    # determinism: every pass, traced or not, yields the same documents
    if passes:
        attempted += 1
        reference = passes[0].digests
        if any(r.digests != reference for r in passes):
            failures.append("check failed: output digests differ between passes")
        if args.seed == DEFAULT_SEED and args.scale == 1.0:
            known = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
            attempted += 1
            if known.get(workload.name) != reference:
                failures.append("check failed: output digests differ from bench/digests.json")

    info = machine()
    stage_values = {name: median([r.stages[name] for r in plain if name in r.stages])
                    for name, _, _, _ in STAGE_METRICS}
    wall = median([r.wall_s for r in plain])
    if traced:
        metrics = {}
        if with_trace:
            mid = sorted(with_trace, key=lambda r: r.wall_s)[len(with_trace) // 2]
            stats = dict(setup_tracer.stats)
            for key, value in mid.trace.items():
                stats[key] = stats.get(key, 0) + value
            for (name, unit, _, _, _), value in zip(tracing.LAYER_METRICS, tracing.layer_values(stats).values()):
                metrics[name] = (value, unit)
            spans_path = ROOT / ".bench_run" / f"spans-{workload.name}-seed{args.seed}.ndjson"
            tracing.write_spans(spans_path, {"setup": setup_tracer.spans, "pass": mid.spans})
        for name, unit, _, _ in STAGE_METRICS:
            metrics["stage." + name] = (stage_values[name], unit)
        metrics["trace.overhead_s"] = (median([r.wall_s for r in with_trace]) - wall, "s")
    else:
        values = {"setup_s": median(setup_times), "wall_s": wall, "peak_rss_mb": median(peaks)}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}

    digests = passes[0].digests if passes else {}
    _report(args, workload, info, setup_times, plain, with_trace, metrics, stage_values, attempted, failures,
            fork_rss_mb, digests)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _report(args, workload, info, setup_times, plain, with_trace, metrics, stage_values, attempted, failures,
            fork_rss_mb, digests):
    out = sys.stderr
    print(f"pkgverse benchmark: workload={workload.name} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}", file=out)
    print(f"  why: {workload.why}", file=out)
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in info.items()), file=out)
    print(f"  set-ups: {len(setup_times) + 1}, untraced passes: {len(plain)}, traced passes: {len(with_trace)}, "
          f"harness RSS at fork: {fork_rss_mb:.1f} MB", file=out)
    counts = {"setup_s": len(setup_times), "wall_s": len(plain), "peak_rss_mb": len(plain)}
    for name, (value, unit) in metrics.items():
        n = counts.get(name, len(with_trace) or len(plain))
        print(f"  {name:40s} {value:14.6g} {unit:9s} n={n}", file=out)
    if not args.trace:
        for name, unit, _, owner in STAGE_METRICS:
            if owner == workload.name:
                n = len(plain) * (20 if name == "activity_p50_ms" else 1)
                print(f"  {name:40s} {stage_values[name]:14.6g} {unit:9s} n={n}", file=out)
    rate = len(failures) / attempted if attempted else 0.0
    print(f"  {'error_rate':40s} {rate:14.6g} {'failed/attempted':9s} n={attempted}", file=out)
    print("  output digests: " + json.dumps({workload.name: digests}, sort_keys=True), file=out)
    for failure in failures[:20]:
        print("  FAILED: " + failure.rstrip().replace("\n", "\n    "), file=out)


if __name__ == "__main__":
    sys.exit(main())
