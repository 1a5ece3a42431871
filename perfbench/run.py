#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result.

    python3 perfbench/run.py --workload resnet18_b1 --seed 1 --seconds 20 \
        --trace 0

Builds perfbench/ (and the Bolt libraries under src/) into
.bench_build/perfbench, runs the workload, checks its outputs, and prints
the metrics.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric under --trace 0 and every per-layer metric
under --trace 1 (see README.md).  The full result, with the run
fingerprint, is also saved under .bench_build/results/ for compare.py.
Exit code: 0 when every output checked (and, on a traced run, the bolt.cpu
spans agreed with the registry), 1 otherwise.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import collect

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("resnet18_b1", "bert_m256", "mlp_serve")
# Self-test workload: one pointwise conv (selftest.py).
HIDDEN_WORKLOADS = ("pointwise_conv",)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"the Bolt sources (src/) are missing next to {HERE.name}/")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "perfbench"], check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def source_digest():
    """SHA-256 over the benchmarked sources (src/ and perfbench/)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + HIDDEN_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Corrupts the output of one timed operation (self-test of the gate).
    ap.add_argument("--perturb-op", type=int, default=-1,
                    help=argparse.SUPPRESS)
    args = ap.parse_args()

    binary = build()
    run_dir = (ROOT / ".bench_build" / "runs" /
               f"{args.workload}-seed{args.seed}-trace{args.trace}")
    run_dir.mkdir(parents=True, exist_ok=True)
    for stale in run_dir.glob("*.json"):
        stale.unlink()
    report_path = run_dir / "report.json"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(report_path),
           "--trace-dir", str(run_dir),
           "--perturb-op", str(args.perturb_op)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    report = load_json(report_path)
    if proc.returncode not in (0, 1) or report is None:
        log(f"{args.workload} failed (exit {proc.returncode})")
        return 1

    fingerprint = dict(report["env"])
    fingerprint.update(workload=args.workload, seed=args.seed,
                       trace=args.trace, seconds=args.seconds,
                       commit=git_commit(), source=source_digest())
    print("fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    for line in collect.notes(report):
        print(line)

    inconsistent = []
    if args.trace:
        names = collect.PER_LAYER
        metrics, checks = collect.per_layer(
            report, load_json(run_dir / "trace_setup.json"),
            load_json(run_dir / "trace_run.json"))
        print(f"check: launches per op {checks['registry_launches']:.3f} "
              f"(registry) vs {checks['span_launches']:.3f} (bolt.cpu)")
        print(f"check: busy per op {metrics['cpukernels.busy_us']:.1f} us "
              f"(registry) vs {metrics['cpukernels.span_busy_us']:.1f} us "
              f"(bolt.cpu); host {metrics['engine.host_us']:.1f} + busy "
              f"{metrics['cpukernels.busy_us']:.1f} = run "
              f"{metrics['engine.run_us']:.1f} us")
        inconsistent = collect.consistency_errors(metrics, checks)
        for e in inconsistent:
            log(f"inconsistent layers: {e}")
    else:
        names = collect.END_TO_END
        metrics = collect.end_to_end(report)

    out_metrics = {k: {"value": metrics[k], "unit": names[k]}
                   for k in names if k in metrics}
    for k, v in out_metrics.items():
        print(f"{k}: {v['value']:.6g} {v['unit']}")
    correct = bool(report["correct"]) and proc.returncode == 0 and \
        not inconsistent
    result = {"correct": correct, "attempted": int(report["attempted"]),
              "failed": int(report["failed"]), "metrics": out_metrics}

    results_dir = ROOT / ".bench_build" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    saved = dict(result, fingerprint=fingerprint)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(saved, sort_keys=True) + "\n")

    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
