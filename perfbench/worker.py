"""Run one workload in this process and print its raw measurements as JSON.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --passes K)
                                [--trace] [--setup-only]

``perfbench/run.py`` starts this script in a fresh interpreter per workload.
The script imports ``quadralab`` from ``src/`` of the checkout it lives in,
builds the seeded inputs, prints ``ready``, then repeats passes over the
workload's operations (after one untimed warm-up pass where the workload asks
for it) until ``--seconds`` have passed and the workload's minimum operation
count is reached, or for exactly ``--passes`` timed passes.  A calibration
loop (``speed.py``) runs between every two ops, so that each op's latency is
also known at reference speed.  With ``--setup-only`` it stops after
``ready``.  Its last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIBRARY = os.path.join(ROOT, "src", "quadralab")
TRACE_DIR = os.path.join(ROOT, ".perfbench")


def import_library():
    if not os.path.isfile(os.path.join(LIBRARY, "__init__.py")):
        sys.exit(f"error: no quadralab package at {LIBRARY}")
    sys.path.insert(0, os.path.dirname(LIBRARY))
    import quadralab

    if os.path.realpath(os.path.dirname(quadralab.__file__)) != os.path.realpath(LIBRARY):
        sys.exit(f"error: quadralab was imported from {quadralab.__file__}, not {LIBRARY}")
    return quadralab


def run_passes(plan, seconds, passes=0):
    """Warm-up pass (if any), then timed passes until `seconds` and `min_ops`,
    or exactly `passes` timed passes when it is positive.

    Every op is bracketed by calibrations (``speed.py``); its latency is
    kept raw and, unless the op is marked otherwise, at reference speed.
    Verdicts of every pass count; latencies and pass times only of timed
    ones.
    """
    raw, latencies, raw_walls, walls, calibrations = [], [], [], [], []
    failures, probes = [], {}
    attempted = 0
    state = {}
    timed = not plan.warmup
    before = speed.calibrate()
    start = time.perf_counter()
    while True:
        pass_raw = pass_ref = 0.0
        for op in plan.ops:
            error = None
            t0 = time.perf_counter()
            try:
                ok = op.run(state) is True
            except (Exception, SystemExit) as exc:
                ok, error = False, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            after = speed.calibrate()
            if timed:
                ref = (speed.at_reference(elapsed, before, after) if op.at_reference
                       else elapsed)
                raw.append(elapsed * 1000.0)
                latencies.append(ref * 1000.0)
                calibrations.append(after)
                pass_raw += elapsed
                pass_ref += ref
            before = after
            if op.probe:
                probes[op.kind] = "pass" if ok else (error or "wrong answer")
                continue
            attempted += 1
            if not ok:
                failures.append({"op": op.kind, "error": error or "wrong answer"})
        if not timed:
            timed = True
            start = time.perf_counter()
            continue
        raw_walls.append(pass_raw)
        walls.append(pass_ref)
        if passes:
            done = len(walls) >= passes
        else:
            done = time.perf_counter() - start >= seconds and len(latencies) >= plan.min_ops
        if done:
            return {
                "latencies_ms": latencies,
                "raw_latencies_ms": raw,
                "pass_walls_s": walls,
                "raw_pass_walls_s": raw_walls,
                "calibration_s": calibrations,
                "attempted": attempted,
                "failures": failures,
                "probes": probes,
            }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import_library()
    t_import = time.perf_counter() - t0
    import tracing
    import workloads

    plan = workloads.build(args.workload, args.seed)
    t_setup = time.perf_counter() - t0
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        tracing.assert_untouched(LIBRARY)
    measured = run_passes(plan, args.seconds, args.passes)
    failures = measured.pop("failures")

    kinds = {}
    for op in plan.ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    numpy = sys.modules.get("numpy")
    result = {
        "import_s": t_import,
        "setup_s": t_setup,
        **measured,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "input_sha256": hashlib.sha256(repr(plan.digest).encode()).hexdigest(),
        "ops_per_pass": len(plan.ops),
        "op_kinds_per_pass": kinds,
        "numpy": getattr(numpy, "__version__", None),
    }
    if tracer is not None:
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}.spans")
        tracer.write(path)
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.span_name)
        result["trace_file"] = os.path.relpath(path, ROOT)
        result["missing_targets"] = tracer.missing
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
