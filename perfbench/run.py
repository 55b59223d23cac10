#!/usr/bin/env python3
"""End-to-end benchmark of smr enumeration jobs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tri-er-bucket8 --seed 1 \
        --seconds 10 --trace 0

It builds perfbench/ (and through it the smr library in src/) with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then:

  1. `perfbench gen` writes the workload's graph, generated from
     --seed, as a binary edge list (input generation, never timed);
  2. `perfbench run` measures the workload in a fresh process, so
     peak RSS and child CPU belong to this workload alone;
  3. for the three ER workloads, `perfbench crosscheck` reruns the
     same query under the two sibling ER policies and requires identical
     instances and JobMetrics (the engine's determinism contract).

Every setting is a command-line argument. Spill files land in a temp
directory inside the build directory. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics and writes a Chrome
trace-event file. The exit code is nonzero on any failed check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = (
    "tri-er-bucket8",
    "tri-er-bucket8-process",
    "tri-er-bucket8-spill",
    "tri-pa-tworound",
)
ER_WORKLOADS = WORKLOADS[:3]
STEP_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(source_dir, build_dir):
    """Configures once, then builds incrementally. Returns the program path."""
    if not os.path.isdir(os.path.join(source_dir, os.pardir, "src")):
        raise RuntimeError("the library sources (src/) are not in this checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_step(argv, env):
    """Runs one step of the program to completion; returns (code, stdout)."""
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=STEP_TIMEOUT_S)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "perfbench-work")
    tmp_dir = os.path.join(work_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)

    program = build(source_dir, build_dir)
    env = dict(os.environ, TMPDIR=tmp_dir)
    tag = f"{args.workload}-{args.seed}"
    graph = os.path.join(work_dir, f"{tag}.smrb")
    metrics_out = os.path.join(work_dir, f"{tag}.jobmetrics")
    try:
        code, _ = run_step([program, "gen", "--workload", args.workload,
                            "--seed", str(args.seed), "--out", graph], env)
        if code != 0:
            raise RuntimeError(f"graph generation failed ({code})")

        argv = [program, "run", "--workload", args.workload, "--graph", graph,
                "--seconds", str(args.seconds), "--metrics-out", metrics_out]
        if args.trace:
            argv += ["--trace-out", os.path.join(work_dir, f"{tag}.trace.json")]
        code, out = run_step(argv, env)
        lines = out.splitlines()
        if code != 0 or not lines:
            sys.stderr.write(out)
            raise RuntimeError(f"the measured run failed ({code})")
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]), flush=True)

        if args.workload in ER_WORKLOADS:
            code, out = run_step(
                [program, "crosscheck", "--workload", args.workload,
                 "--graph", graph, "--expect", metrics_out], env)
            lines = out.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            check = json.loads(lines[-1]) if lines else {"attempted": 0,
                                                         "failed": 1}
            result["attempted"] += check["attempted"]
            result["failed"] += check["failed"]
            if code != 0 or check["failed"]:
                result["correct"] = False
    finally:
        for path in (graph, metrics_out):
            if os.path.exists(path):
                os.remove(path)
        shutil.rmtree(tmp_dir, ignore_errors=True)

    print(f"failed_frac {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} jobs)")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"perfbench: {err}")
        sys.exit(1)
