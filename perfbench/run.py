#!/usr/bin/env python3
"""Build lrb from source and run one workload of its end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which builds the lrb library
from ../src) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs only re-check the build.  Build output goes to stderr.  stdout is
the benchmark's own: metric lines, then one JSON object as the last line.
Other options (--ops, --dump-requests, --trace-out) pass through to the
lrb_perfbench binary; see NOTES.md.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("aco_tsp", "tenants", "replay_1m", "tenants_durable")
# A run measures for --seconds plus set-up and checks; anything near this
# limit is a hang, not a measurement.
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the lrb sources (src/) are not beside perfbench/")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "lrb_perfbench", "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return build_dir / "lrb_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = parser.parse_known_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    exe = build(build_dir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", str(build_dir / "work"), *extra]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
