"""Tests of the benchmark itself: seeded inputs, metric names, smoke runs.

Run with ``python3 -m pytest bench/test_bench.py`` from the root of a checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = 0.05
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def input_bytes(name: str, seed: int, workdir: Path) -> bytes:
    """Everything a workload's set-up hands to the program, as bytes."""
    workdir.mkdir(parents=True)
    state = workloads.WORKLOADS[name].setup(seed, SMALL, workdir)
    files = b"".join(p.read_bytes() for p in sorted(workdir.iterdir()))
    if name == "analysis":
        data = state["data"]
        files += json.dumps([data.contributions, data.history.declared, data.available, data.roots]).encode()
    if name == "history":
        files += json.dumps(state["timetravel"]["data"].queries).encode()
    return files


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    first = input_bytes(name, 7, tmp_path / "a")
    assert first == input_bytes(name, 7, tmp_path / "b")
    assert first != input_bytes(name, 8, tmp_path / "c")


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_benchmark_definitions():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert per_layer == (
        [(n, u, b) for n, u, b, _, _ in tracing.LAYER_METRICS]
        + [("stage." + n, u, b) for n, u, b, _ in run.STAGE_METRICS]
        + [("trace.overhead_s", "s", "lower")]
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_run_passes_its_checks_and_emits_the_spec_metrics(name, trace):
    result = result_of(run_bench("--workload", name, "--seed", "3", "--seconds", "0",
                                 "--trace", trace, "--scale", str(SMALL)))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "history", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
