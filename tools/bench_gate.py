#!/usr/bin/env python3
"""Exact gate for the deterministic BENCH files.

The virtual-time benches (bench_chaos, bench_stragglers,
bench_fault_recovery) run on a fully modeled clock (cpu_scale = 0), so a
fresh run must reproduce the committed JSON value for value. This script
compares a fresh BENCH JSON with the committed one and fails on any
difference, except in the fields that describe the host rather than the
run: bench_wall_seconds, host_cores, simd_dispatch, cpu_avx2 and
cpu_avx512bw.

    python3 tools/bench_gate.py FRESH.json COMMITTED.json

Exit status: 0 when the files agree, 1 when they differ (every differing
path is printed), 2 when a file cannot be read or parsed.
"""

import json
import sys

IGNORED = {
    "bench_wall_seconds",
    "host_cores",
    "simd_dispatch",
    "cpu_avx2",
    "cpu_avx512bw",
}


def diff(fresh, committed, path, out):
    """Append a line to `out` for every place the two values differ."""
    if isinstance(fresh, dict) and isinstance(committed, dict):
        for key in sorted((fresh.keys() | committed.keys()) - IGNORED):
            where = f"{path}.{key}" if path else key
            if key not in committed:
                out.append(f"{where}: only in the fresh file")
            elif key not in fresh:
                out.append(f"{where}: only in the committed file")
            else:
                diff(fresh[key], committed[key], where, out)
    elif isinstance(fresh, list) and isinstance(committed, list):
        if len(fresh) != len(committed):
            out.append(f"{path}: {len(fresh)} entries, committed "
                       f"{len(committed)}")
        for i, (a, b) in enumerate(zip(fresh, committed)):
            diff(a, b, f"{path}[{i}]", out)
    elif type(fresh) is not type(committed) or fresh != committed:
        out.append(f"{path}: {json.dumps(fresh)}, committed "
                   f"{json.dumps(committed)}")


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh_path, committed_path = argv[1], argv[2]
    differences = []
    diff(load(fresh_path), load(committed_path), "", differences)
    if differences:
        print(f"bench_gate: {fresh_path} differs from {committed_path} in "
              f"{len(differences)} place(s):")
        for line in differences:
            print(f"  {line}")
        return 1
    print(f"bench_gate: {fresh_path} matches {committed_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
