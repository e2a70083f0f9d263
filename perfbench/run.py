"""Benchmark of the subdiv package: three closed-loop workloads.

    python3 perfbench/run.py --workload gamma-suites --seed 1 --seconds 40 --trace 0

A run is a sequence of passes.  Each pass is a fresh interpreter
(``one_pass.py``), started after the previous one has ended, so every
per-process cache starts cold, as it does for each CLI user.  One
client issues one operation after the previous one finishes (jobs=1).

``--trace 0`` starts another pass while the longest pass so far still
fits in ``--seconds`` (the first pass always runs), and prints
the end-to-end metrics: median pass time, pooled per-operation p50 and
p90, median set-up time (interpreter start, ``import subdiv``, input
generation) and median peak memory of a pass.  ``--trace 1`` runs two
untraced and two traced passes, alternating, checks that every count
repeats exactly, and prints the per-layer metrics.  ``--workload all`` runs
every workload in turn.

Every operation's output is checked; ``failed`` counts wrong or
missing answers and ``failed / attempted`` is the failure ratio.  The
last line of standard output is the result as one JSON object; lines
before it, starting with ``#``, give each metric's sample count and
quartiles, the failure ratio and the environment.  A record of the run
goes to ``.perfbench-out/results/``.
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

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
PASS_TIMEOUT_S = 170
TRACED_PASSES = 2
# Counts that must repeat exactly between traced passes of the same code.
EXACT = ("verify.cases", "cli.bytes_io", "realroot.sturm_chain.hit_ratio")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def spawn_pass(workload: str, seed: int, trace: bool, index: int) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    workdir = OUT / "work" / f"{workload}-s{seed}-p{index}"
    argv = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed),
            "1" if trace else "0", str(workdir)]
    if trace:
        spans = OUT / "trace" / f"{workload}-p{index}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        argv.append(str(spans))
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {index} exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass {index} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    report = json.loads(proc.stdout.splitlines()[-1])
    # perf_counter reads CLOCK_MONOTONIC, which both processes share.
    report["setup_s"] = report["first_call"] - start
    return report


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"value": median, "n": len(values), "q1": q1, "q3": q3}


def percentile(values: list[float], pct: int) -> dict:
    """Pooled percentile with the number of samples beyond it."""
    cut = (statistics.quantiles(values, n=100)[pct - 1] if len(values) > 1
           else values[0])
    return {"value": cut, "n": len(values),
            "beyond": sum(1 for v in values if v > cut)}


def count_ops(passes: list[dict]) -> tuple[int, int, list]:
    attempted = sum(len(p["ops"]) for p in passes)
    wrong = [(label, verdict) for p in passes for label, _, verdict in p["ops"]
             if verdict != "ok"]
    return attempted, len(wrong), wrong


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    passes, longest = [], 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + longest <= seconds:
        began = time.perf_counter()
        passes.append(spawn_pass(workload, seed, False, len(passes)))
        longest = max(longest, time.perf_counter() - began)
    latencies_ms = [lat * 1e3 for p in passes for _, lat, _ in p["ops"]]
    stats = {
        "pass_s": summary([p["pass_s"] for p in passes]),
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_p90_ms": percentile(latencies_ms, 90),
        "setup_s": summary([p["setup_s"] for p in passes]),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in passes]),
    }
    return stats, passes, passes[0]["sizes"]


def per_layer(workload: str, seed: int, names: list[str]) -> tuple[dict, list, dict]:
    plain, traced = [], []
    for i in range(TRACED_PASSES):
        plain.append(spawn_pass(workload, seed, False, 2 * i))
        traced.append(spawn_pass(workload, seed, True, 2 * i + 1))
    layers = [t["layers"] for t in traced]
    for key in layers[0]:
        exact = key.endswith((".calls", ".misses")) or key in EXACT
        if exact and len({str(one[key]) for one in layers}) > 1:
            raise BenchError(f"{workload}: {key} differs between traced passes: "
                             + ", ".join(str(one[key]) for one in layers))
    stats = {}
    for name in names:
        if name == "trace.overhead_s":
            value = (statistics.mean(t["pass_s"] for t in traced)
                     - statistics.mean(p["pass_s"] for p in plain))
        else:
            value = statistics.mean(one[name] for one in layers)
        stats[name] = {"value": value, "n": len(traced)}
    return stats, plain + traced, plain[0]["sizes"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    e2e_units, layer_units = metric_units()
    units = layer_units if trace else e2e_units
    load_before = loadavg()
    if trace:
        stats, passes, sizes = per_layer(workload, seed, list(layer_units))
    else:
        stats, passes, sizes = end_to_end(workload, seed, seconds)
    attempted, failed, wrong = count_ops(passes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "metrics": {name: {**stats[name], "unit": units[name]} for name in units},
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "wrong": wrong[:20],
        "env": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before,
            "loadavg_after": loadavg(),
        },
        "inputs": sizes,
        "passes": len(passes),
        "ops_per_pass": [len(p["ops"]) for p in passes],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{workload}-s{seed}-t{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, m in record["metrics"].items():
        extra = (f"q1 {m['q1']:.6g} q3 {m['q3']:.6g}" if "q1" in m
                 else f"{m['beyond']} beyond" if "beyond" in m else "")
        print(f"# {workload} {name} = {m['value']:.6g} {m['unit']}"
              f" (n={m['n']}{', ' + extra if extra else ''})")
    print(f"# {workload} fail_ratio = {failed}/{attempted} = {record['fail_ratio']:.6g}")
    for label, verdict in wrong[:5]:
        print(f"# {workload} FAILED {label}: {verdict}")
    print(f"# {workload} env {json.dumps(record['env'])}")
    return record


def result_line(records: list[dict]) -> dict:
    multi = len(records) > 1
    metrics = {}
    for r in records:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}.{name}" if multi else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0, "attempted": sum(r["attempted"] for r in records),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "subdiv" / "__init__.py").is_file():
        print(f"error: no subdiv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in chosen]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
