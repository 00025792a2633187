#!/usr/bin/env python3
"""Build bench_e2e from source and run it.

Run from the root of a checkout of the repository:

  python3 bench_e2e/run.py --workload paper-t10i6 --seed 1 --seconds 20 --trace 0
  python3 bench_e2e/run.py --smoke
  python3 bench_e2e/run.py --set bench_e2e/results/set-a --seeds 1-10

The first form runs one workload and prints, as the last line of stdout,
one JSON object with the keys correct, attempted, failed and metrics (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
--smoke runs the benchmark's CTest smoke tests: every workload at 1/20
scale with all correctness checks, then a parse of the Chrome traces.
--set runs a full result set: every workload once per seed untraced, and
once traced at the first seed, with the result JSON of every run kept in
the given directory.

The build goes to .bench_build/bench_e2e and every file a run writes stays
under .bench_build/ unless --set names another directory. The script needs
only the Python standard library, and it exits non-zero without printing a
result when the library sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "bench_e2e")
WORK_DIR = os.path.join(ROOT, ".bench_build", "bench_e2e-work")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr only when it fails."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace"))
        fail("failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(BENCH_DIR, "..", "src",
                                       "CMakeLists.txt")):
        fail("library sources not found next to " + BENCH_DIR +
             "; run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        quiet(configure, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], BUILD_TIMEOUT_S)


def bench(args):
    """Runs the binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_e2e did not finish within %d s" % RUN_TIMEOUT_S)
    return done.returncode, done.stdout.decode(errors="replace").splitlines()


def load_spec():
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as handle:
        return json.load(handle)


SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_one(options):
    code, lines = bench(["--workload", options.workload,
                         "--seed", str(options.seed),
                         "--seconds", str(options.seconds),
                         "--trace", str(options.trace),
                         "--workdir", WORK_DIR])
    if not lines:
        fail("bench_e2e printed nothing (exit %d)" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("bench_e2e's last line is not JSON (exit %d)" % code)
    declared = [m["name"] for m in
                SPEC["per_layer" if options.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(declared):
        fail("metrics %s differ from BENCHMARK.json's %s" %
             (sorted(result["metrics"]), sorted(declared)))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return code


def smoke():
    """The CTest smoke tests of the benchmark's own build."""
    try:
        done = subprocess.run(["ctest", "-L", "bench", "--output-on-failure"],
                              cwd=BUILD_DIR, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the smoke tests did not finish within %d s" % RUN_TIMEOUT_S)
    return done.returncode


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def full_set(directory, seeds, seconds):
    os.makedirs(directory, exist_ok=True)
    runs = [(seed, w, 0) for seed in seeds for w in WORKLOADS]
    runs += [(seeds[0], w, 1) for w in WORKLOADS]
    status = 0
    for seed, workload, trace in runs:
        code, lines = bench(["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace),
                             "--workdir", WORK_DIR, "--results", directory])
        print("%-13s seed %-3d trace %d: %s" %
              (workload, seed, trace, lines[-1] if lines else "no output"),
              flush=True)
        status = status or code
    return status


def stop(signum, _frame):
    # subprocess.run kills and reaps its child when an exception unwinds it.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--set", metavar="DIR")
    parser.add_argument("--seeds", type=seed_range, default=[1],
                        metavar="FIRST-LAST")
    options = parser.parse_args()
    if not (options.smoke or options.set or options.workload):
        parser.error("give --workload, --smoke or --set")
    build()
    if options.smoke:
        return smoke()
    if options.set:
        return full_set(os.path.abspath(options.set), options.seeds,
                        options.seconds)
    return run_one(options)


if __name__ == "__main__":
    sys.exit(main())
