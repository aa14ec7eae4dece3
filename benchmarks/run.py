"""The rmx benchmark: one workload (or all) in fresh interpreters, timed.

    python3 benchmarks/run.py --workload dorey-sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one table

A run repeats passes of the workload until ``--seconds`` is spent.  Each
pass is a fresh interpreter (benchmarks/workloads.py) that runs one
operation at a time: a closed loop with a single client, no threads.  End-to-
end metrics are medians over the run's passes.  With ``--trace 1`` the run
alternates untraced and traced passes and reports the per-layer metrics
instead.  The last line of standard output is the result as one JSON object;
the lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS = HERE / "workloads.py"
RESULTS = HERE / "results"

WORKLOADS = ("combinatorics-large", "dorey-sweep", "selfcheck-full")
RUN_LIMIT_S = 165.0  # a run ends inside the 180 s it may take
KILL_GRACE_S = 5.0  # time a pass gets beyond its deadline before it is killed
SETUP_SPAWNS = 9  # set-up-only interpreters per run, for the setup_s median


class RunError(RuntimeError):
    """A run could not measure: a pass failed in set-up, or no traced pass
    finished."""


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(args: list[str], timeout: float) -> tuple[float, list[dict]]:
    """Start a pass, wait for it (killing it at the timeout), parse its lines."""
    env = {k: v for k, v in os.environ.items() if k != "RMX_SEED"}
    env["PYTHONHASHSEED"] = "0"
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(PASS), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    records = []
    for line in out.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            pass  # a line cut short by the kill
    if not records or "ready" not in records[0]:
        raise RunError(f"pass {' '.join(args)} exited {proc.returncode} before set-up ended")
    return records[0]["ready"] - t_spawn, records


def run_pass(workload, seed, config, traced, left, known: dict) -> dict:
    """One pass; ``known`` holds the answers earlier passes checked, and
    gains this pass's good answers."""
    RESULTS.mkdir(exist_ok=True)
    known_path = RESULTS / f"known-{workload}.json"
    known_path.write_text(json.dumps(known))
    args = ["--workload", workload, "--seed", str(seed), "--config", config,
            "--deadline", str(left - KILL_GRACE_S), "--known", str(known_path)]
    if traced:
        args += ["--trace", "--spans", str(RESULTS / f"spans-{workload}.jsonl")]
    t0 = time.monotonic()
    setup_s, records = spawn(args, left)
    ops = [r for r in records if "op" in r]
    done = records[-1] if records[-1].get("done") else None
    # reference seconds for untraced passes; a traced pass reports raw times
    scale = done["scale"] if done and not traced else 1.0
    if done:
        failures = {r["op"]: r["error"] for r in ops if r["error"]} | done["bad"]
    else:
        failures = {"pass": "ended before its answers were checked"}
    scales = done.get("scales", {}) if done else {}
    ok = {r["op"]: r["s"] * scales.get(r["op"], scale)
          for r in ops if done and r["op"] not in failures}
    known.update((name, done["answers"][name]) for name in ok)
    return {
        "seconds": time.monotonic() - t0,
        "setup_s": setup_s * scale,
        "attempted": max(records[0]["planned"], len(ops)),
        "ok": ok,  # op name -> seconds, for ops that finished and checked out
        "failures": failures,
        "wall_s": done["wall_s"] * scale if done else time.monotonic() - t0,
        "raw_wall_s": done["wall_s"] if done else time.monotonic() - t0,
        "peak_rss_mb": done["peak_rss_mb"] if done else 0.0,
        "layers": done.get("layers") if done else None,
        "traced": traced,
    }


def percentile(p: dict, q: int) -> float:
    """The q-th percentile of a pass's operation latencies, in ms."""
    ms = sorted(1e3 * s for s in p["ok"].values()) or [0.0]
    return statistics.quantiles(ms, n=100)[q - 1] if len(ms) > 1 else ms[0]


def run_workload(workload, seed, seconds, trace, config) -> tuple[dict, list[str]]:
    start = time.monotonic()
    setups = []
    for _ in range(SETUP_SPAWNS):
        setup_s, records = spawn(["--workload", workload, "--seed", str(seed),
                                  "--config", config], RUN_LIMIT_S)
        setups.append(setup_s * records[-1]["scale"])
    passes, known = [], {}
    while True:
        traced = trace and 2 * sum(p["traced"] for p in passes) < len(passes)
        left = RUN_LIMIT_S - (time.monotonic() - start)
        passes.append(run_pass(workload, seed, config, traced, left, known))
        elapsed = time.monotonic() - start
        # the first pass also checks every answer, later ones mostly compare
        per_pass = statistics.mean(p["seconds"] for p in passes[1:] or passes)
        if trace and not any(p["traced"] for p in passes) and elapsed + per_pass < RUN_LIMIT_S:
            continue
        if elapsed + per_pass / 2 > seconds:
            break
    plain = [p for p in passes if not p["traced"]]
    samples = sum(len(p["ok"]) for p in plain)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["attempted"] - len(p["ok"]) for p in passes)
    notes = [f"{workload} seed={seed}: {len(plain)} passes"
             + (f" + {len(passes) - len(plain)} traced" if trace else "")
             + f" in {time.monotonic() - start:.1f} s; {samples} op latency samples;"
             f" ops_failed_frac = {failed / attempted:.4g} ({failed}/{attempted})"]
    for p in passes:
        notes += [f"failed: {op}: {why}" for op, why in list(p["failures"].items())[:5]]
    notes.append("untraced passes, wall_s in the host's own seconds: " + ", ".join(
        f"{p['raw_wall_s']:.3f}" for p in plain) + "; in reference seconds: " + ", ".join(
        f"{p['wall_s']:.3f}" for p in plain))

    wall_s = statistics.median(p["wall_s"] for p in plain)
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
            "wall_s": wall_s,
            # percentiles within each pass, then the median over passes: the
            # passes repeat the same operations, so pooling them would pick
            # extreme values at the boundary between two kinds of operation
            "op_p50_ms": statistics.median(percentile(p, 50) for p in plain),
            "op_p90_ms": statistics.median(percentile(p, 90) for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    else:
        # the traced pass of median wall time, so that its layers' self times
        # and the benchmark's own time add up to its wall time
        traced = sorted((p for p in passes if p["traced"] and p["layers"]),
                        key=lambda p: p["wall_s"])
        if not traced:
            raise RunError("no traced pass finished")
        middle = traced[(len(traced) - 1) // 2]
        metrics = dict(middle["layers"])
        metrics["trace.wall_s"] = middle["wall_s"]
        raw_wall_s = statistics.median(p["raw_wall_s"] for p in plain)
        metrics["trace.overhead_frac"] = middle["wall_s"] / raw_wall_s - 1
        if workload == "selfcheck-full":
            for name in plain[0]["ok"]:
                metrics[f"selfcheck.{name}.s"] = statistics.median(
                    p["ok"].get(name, 0.0) for p in plain)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, notes


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def shape(result: dict, units: dict) -> dict:
    """Keep exactly the declared metrics; a layer a workload skips reads 0."""
    values = result["metrics"]
    missing = [k for k in units if k not in values and not k.startswith("selfcheck.")]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    result["metrics"] = {k: {"value": values.get(k, 0), "unit": u} for k, u in units.items()}
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs (fast selfcheck, rank <= 6), for tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "rmx" / "__init__.py").is_file():
        print(f"error: no rmx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = "smoke" if args.smoke else "full"
    units = declared_metrics(bool(args.trace))
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    results = {}
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result, notes = run_workload(workload, args.seed, args.seconds,
                                         bool(args.trace), config)
            results[workload] = shape(result, units)
            for line in notes:
                print(line)
            for name, m in results[workload]["metrics"].items():
                print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps({"env": env, "seed": args.seed, "results": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
