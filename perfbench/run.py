#!/usr/bin/env python3
"""Builds and runs the layered claimsdb benchmark; see README.md.

    python3 perfbench/run.py --workload session-short --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The engine is built from that checkout's
sources into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
The last line of standard output is the JSON result. Extra modes:
--selftest runs the benchmark's own unit tests; --write-golden stores the
run's reference digests as the golden ones for its seed.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    if args.selftest:
        build(out, ["perfbench_selftest"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")])
                 .returncode)
    if not args.workload:
        parser.error("--workload is required")
    build(out, ["perfbench"])

    trace_path = os.path.join(
        out, "traces", "%s-seed%d.trace.json" % (args.workload, args.seed))
    command = [os.path.join(out, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        command += ["--trace-out", trace_path]
    try:
        # On timeout the child is killed and reaped before this raises.
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    result = json.loads(lines[-1])
    names = sorted(result["metrics"])
    if names != sorted(expected_metrics(args.trace)):
        fail("metrics %s do not match BENCHMARK.json" % names)

    digests = None
    for line in lines:
        if line.startswith("reference_digests "):
            digests = json.loads(line[len("reference_digests "):])
    if digests is None:
        fail("no reference digests printed")
    golden = {}
    if os.path.isfile(GOLDEN):
        with open(GOLDEN) as f:
            golden = json.load(f)
    if args.write_golden:
        golden["seed"] = args.seed
        golden.setdefault("digests", {})[args.workload] = digests
        with open(GOLDEN, "w") as f:
            json.dump(golden, f, indent=2, sort_keys=True)
            f.write("\n")
    elif golden.get("seed") == args.seed:
        want = golden.get("digests", {}).get(args.workload)
        if want != digests:
            print("golden digest mismatch: want %s, got %s" % (want, digests),
                  file=sys.stderr)
            result["correct"] = False

    if args.trace:
        try:
            with open(trace_path) as f:
                json.load(f)
        except (OSError, ValueError) as e:
            print("trace %s unreadable: %s" % (trace_path, e), file=sys.stderr)
            result["correct"] = False

    print(json.dumps(result))


if __name__ == "__main__":
    main()
