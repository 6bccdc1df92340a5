"""quadralab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {hilbert,membership,symbolic,reports} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in its own fresh
interpreter (``perfbench/worker.py``), a closed loop with one caller.  With
``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, taken
from a second, traced process and compared with an untraced one for the
tracing overhead.  Times are at reference speed (``speed.py``); the record
keeps the raw ones.  The line before it is the
provenance record.  The exit code is 0 when a result was printed, 2 when the
checkout holds no library.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("hilbert", "membership", "symbolic", "reports")
SETUP_SAMPLES = 7          # set-up-only processes, started before the measured one
TRACE_PASSES = 1           # timed passes of both processes of a --trace 1 run
CHILD_TIMEOUT_S = 170.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def run_worker(workload, seed, extra):
    """(last stdout line as JSON, seconds from start to the `ready` line).

    The worker is always waited for; on any error or signal it is killed first.
    """
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready: {line.strip()!r}")
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("worker timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), ready


def measure(workload, seed, limit, trace=False):
    """Run one worker; `limit` is ["--seconds", S] or ["--passes", K]."""
    result, ready = run_worker(workload, seed, limit + (["--trace"] if trace else []))
    result["ready_s"] = ready
    return result


def setup_samples(workload, seed):
    """[(raw, reference-speed)] seconds to `ready` of set-up-only processes.

    Set-up is mostly process start and imports, whose speed the calibration
    loop does not follow, so each sample is bracketed by start probes.
    """
    out = []
    before = speed.start_probe()
    for _ in range(SETUP_SAMPLES):
        ready = run_worker(workload, seed, ["--setup-only"])[1]
        after = speed.start_probe()
        out.append((ready, speed.at_reference(ready, before, after, speed.REFERENCE_START_S)))
        before = after
    return out


def git_commit():
    """The checked-out commit, read from .git without running git; None elsewhere."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "quadralab", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()


def p90(values):
    """90th percentile and the number of samples above it."""
    if len(values) < 2:
        return values[0], 0
    cut = statistics.quantiles(values, n=10)[8]
    return cut, sum(1 for v in values if v > cut)


def provenance(args, result):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": result.get("numpy"),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "input_sha256": result["input_sha256"],
        "ops_per_pass": result["ops_per_pass"],
        "op_kinds_per_pass": result["op_kinds_per_pass"],
    }


def end_to_end(args):
    setups = setup_samples(args.workload, args.seed)
    result = measure(args.workload, args.seed, ["--seconds", str(args.seconds)])
    latencies, raw = result["latencies_ms"], result["raw_latencies_ms"]
    op_p90, above = p90(latencies)
    attempted, failed = result["attempted"], result["failed"]
    probes_failed = sum(1 for v in result["probes"].values() if v != "pass")
    record = provenance(args, result)
    record.update({
        "ops_timed": len(latencies),
        "passes": len(result["pass_walls_s"]),
        "pass_walls_s": result["pass_walls_s"],
        "setup_samples_s": [ref for _, ref in setups],
        "import_s": result["import_s"],
        "op_p90_samples_above": above,
        "raw": {
            "setup_s": statistics.median(raw for raw, _ in setups),
            "setup_samples_s": [raw for raw, _ in setups],
            "measured_process_ready_s": result["ready_s"],
            "wall_s": statistics.median(result["raw_pass_walls_s"]),
            "pass_walls_s": result["raw_pass_walls_s"],
            "op_p50_ms": statistics.median(raw),
            "op_p90_ms": p90(raw)[0],
        },
        "calibration_s": {
            "reference": speed.REFERENCE_S,
            "median": statistics.median(result["calibration_s"]),
            "min": min(result["calibration_s"]),
            "max": max(result["calibration_s"]),
        },
        "known_defect_probes": result["probes"],
        "fail_ratio": {
            "verdicts": [failed, attempted],
            "with_known_defect_probes": [failed + probes_failed,
                                         attempted + len(result["probes"])],
        },
        "failures": result["failures"],
    })
    metrics = {
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "wall_s": (statistics.median(result["pass_walls_s"]), "s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_p90_ms": (op_p90, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return record, failed == 0, attempted, failed, metrics


def per_layer(args):
    # a fixed pass count makes every count repeat exactly for a given seed
    limit = ["--passes", str(TRACE_PASSES)]
    plain = measure(args.workload, args.seed, limit)
    traced = measure(args.workload, args.seed, limit, trace=True)
    record = provenance(args, traced)
    record.update({
        "spans": traced["spans"],
        "trace_file": traced["trace_file"],
        "missing_targets": traced["missing_targets"],
        "untraced_pass_walls_s": plain["pass_walls_s"],
        "traced_pass_walls_s": traced["pass_walls_s"],
        "failures": plain["failures"] + traced["failures"],
    })
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced["pass_walls_s"]) / statistics.median(plain["pass_walls_s"]),
        "ratio")
    failed = plain["failed"] + traced["failed"]
    attempted = plain["attempted"] + traced["attempted"]
    return record, failed == 0, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so that running workers are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "quadralab", "__init__.py")):
        print(f"error: {ROOT} holds no src/quadralab; run from a quadralab checkout",
              file=sys.stderr)
        return 2
    try:
        record, correct, attempted, failed, metrics = (
            per_layer(args) if args.trace else end_to_end(args))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
