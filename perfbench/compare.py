#!/usr/bin/env python3
"""Compares two sets of perfbench results (files or directories of the
JSON files run.py saves under .bench_build/results/).

    python3 perfbench/compare.py BASE HEAD

Results pair up by (workload, trace, seed).  Both sides must hold the
same pairs, and each pair must share its run fingerprint: ISA, kernel
threads, nproc, build type, backend and run length.  A difference there
is an error, not a number: the two sides measured different things.  The
commit and source digest are what the comparison is about, so they may
differ.  Prints, per workload and metric, both medians and the change.
"""

import json
import statistics
import sys
from pathlib import Path

ENV_KEYS = ("isa", "threads", "nproc", "build_type", "backend", "seconds")


def load(path):
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out = {}
    for f in files:
        r = json.loads(f.read_text())
        fp = r["fingerprint"]
        out[(fp["workload"], fp["trace"], fp["seed"])] = r
    return out


def check_pairs(base, head):
    """Error strings for unpaired results and fingerprint mismatches."""
    errors = []
    for key in sorted(set(base) ^ set(head)):
        side = "BASE" if key in base else "HEAD"
        errors.append(f"{key} only in {side}")
    for key in sorted(set(base) & set(head)):
        a, b = base[key]["fingerprint"], head[key]["fingerprint"]
        diff = [k for k in ENV_KEYS if a.get(k) != b.get(k)]
        if diff:
            errors.append(f"{key}: fingerprints differ in " +
                          ", ".join(f"{k} ({a.get(k)} vs {b.get(k)})"
                                    for k in diff))
    return errors


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[1]), load(argv[2])
    errors = check_pairs(base, head)
    if errors:
        for e in errors:
            print(f"compare: {e}", file=sys.stderr)
        return 2
    groups = {}
    for key in base:
        groups.setdefault(key[:2], []).append(key)
    for (workload, trace), keys in sorted(groups.items()):
        print(f"{workload} (trace {trace}, {len(keys)} seeds)")
        names = base[keys[0]]["metrics"]
        for name, spec in names.items():
            a = [base[k]["metrics"][name]["value"] for k in keys
                 if name in base[k]["metrics"]]
            b = [head[k]["metrics"][name]["value"] for k in keys
                 if name in head[k]["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = f"{(mb / ma - 1) * 100:+.1f}%" if ma else "n/a"
            print(f"  {name:36s} {ma:12.5g} -> {mb:12.5g} {spec['unit']:8s}"
                  f" {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
