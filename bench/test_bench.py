"""Self-test of the benchmark at tiny size (N = 16, a handful of trials).

    python3 -m pytest bench/test_bench.py

Runs every workload once untraced and once traced, and checks that each
declared metric is emitted with its declared unit, that the outputs pass
their checks, and that the traced split puts the decoder where it belongs.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]

sys.path.insert(0, str(BENCH))
from tracing import Tracer  # noqa: E402


def run_bench(workload, trace, cwd=ROOT, size="tiny"):
    args = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace)]
    if size:
        args += ["--size", size]
    return subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = MANIFEST["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    layer_self = sum(v for name, v in values.items() if name.endswith(".self_s"))
    assert layer_self == pytest.approx(values["trace.wall_s"], rel=0.05)
    if workload == "sim_sync_coded":
        assert values["fec.viterbi_decode.calls"] == 6        # 3 schemes x 2 points
        assert values["fec.trellis_steps"] > 0
    if workload == "sim_async_uncoded":
        assert values["fec.self_s"] == 0 and values["fec.trellis_steps"] == 0
    if workload == "analyze_default":
        assert values["analytics.displaced_covariances.calls"] == 14
        assert values["cli.rows_written"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, size=None)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [(1, 0, 1, "fec.child", 1.0, 3.0),
                    (2, 0, 1, "core.child", 4.0, 5.0),
                    (0, None, 1, "cli.main", 0.0, 10.0)]
    assert tracer.self_times() == {"cli.main": 7.0, "fec.child": 2.0,
                                   "core.child": 1.0}
