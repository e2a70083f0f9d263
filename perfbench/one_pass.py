"""One pass of one workload, in a fresh interpreter.

Usage: python3 perfbench/one_pass.py WORKLOAD SEED TRACE WORKDIR [SPANS_FILE]

Imports ``subdiv`` from ``src/``, builds the pass's inputs from SEED
(set-up), then runs every operation in order, timing each call and
checking its output.  Prints one JSON line: the wall time at which the
first operation started (``perf_counter``, comparable with the parent's
clock on Linux), the pass time to the last verified answer, per-operation
latency and verdict, peak memory, input sizes and, with TRACE=1, the
per-layer numbers from ``tracing``.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import subdiv.cli  # noqa: E402  (imports every module of the package)
from subdiv import realroot  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run(workload: str, seed: int, trace: bool, workdir: Path,
        expected: dict[str, str], spans_file: str | None = None,
        make_ops=None) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    ops, sizes = (make_ops or workloads.OPS_FOR[workload])(seed, workdir, expected)
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    latencies, verdicts = [], []
    cases = bytes_io = 0
    first = perf_counter()
    for index, op in enumerate(ops):
        if tracer:
            tracer.op = index
        start = perf_counter()
        try:
            out = op.call()
        except Exception as err:  # a raising operation is a failed one
            latencies.append(perf_counter() - start)
            verdicts.append(f"raised {type(err).__name__}: {err}")
            continue
        latencies.append(perf_counter() - start)
        try:
            ok = bool(op.check(out))
        except Exception as err:  # an unreadable output is a wrong one
            ok = False
            print(f"check of {op.label!r} raised {err!r}", file=sys.stderr)
        verdicts.append("ok" if ok else "wrong output")
        cases += getattr(out, "cases_run", 0)
        bytes_io += getattr(out, "bytes_io", 0)
    pass_s = perf_counter() - first
    if tracer:
        tracer.uninstall()
    result = {
        "first_call": first,
        "pass_s": pass_s,
        "ops": [[op.label, lat, v] for op, lat, v in zip(ops, latencies, verdicts)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sizes": {**sizes, "files": workloads.file_sizes(workdir)},
    }
    if tracer:
        info = realroot.sturm_chain.cache_info()
        lookups = info.hits + info.misses
        layers = tracer.layers()
        layers.update({
            "realroot.sturm_chain.misses": info.misses,
            "realroot.sturm_chain.hit_ratio": info.hits / lookups if lookups else 0.0,
            "verify.cases": cases,
            "cli.bytes_io": bytes_io,
        })
        result["layers"] = layers
        if spans_file:
            tracer.write(spans_file)
    return result


def main(argv: list[str]) -> int:
    workload, seed, trace, workdir = argv[:4]
    spans_file = argv[4] if len(argv) > 4 else None
    workdir = Path(workdir)
    try:
        result = run(workload, int(seed), trace == "1", workdir,
                     workloads.load_expected().get(workload, {}), spans_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
