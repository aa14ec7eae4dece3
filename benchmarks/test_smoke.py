"""Smoke test of the benchmark on tiny inputs; a few seconds in all.

    python3 -m pytest benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_reports_the_declared_metrics():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        out = result_of(bench("--workload", "all", "--smoke", "--seconds", "1",
                              "--trace", str(trace)))
        assert set(out["results"]) == {w["name"] for w in SPEC["workloads"]}
        for workload, result in out["results"].items():
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, (workload, result)
            metrics = result["metrics"]
            assert list(metrics) == [m["name"] for m in SPEC[kind]]
            if trace:
                layers = sum(v["value"] for k, v in metrics.items()
                             if k.count(".") == 1 and k.endswith(".self_s")
                             and k != "bench.self_s")
                assert abs(layers + metrics["bench.self_s"]["value"]
                           - metrics["trace.wall_s"]["value"]) < 1e-6
            else:
                assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_a_pass_out_of_time_counts_its_operations_as_exceeded():
    proc = subprocess.run(
        [sys.executable, str(HERE / "workloads.py"), "--workload", "dorey-sweep",
         "--config", "smoke", "--deadline", "1e-9"],
        capture_output=True, text=True, timeout=60)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    ops = [r for r in records if "op" in r]
    assert len(ops) == records[0]["planned"] > 0
    assert all(r["error"] == "exceeded" for r in ops)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "3",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
