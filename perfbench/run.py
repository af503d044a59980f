#!/usr/bin/env python3
"""Builds and runs the ISOP+ end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload oracle-pipeline|cnn-pipeline|serve-mixed \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the library sources under
src/ plus the isop_perfbench program) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only run an incremental build. Build output
goes to stderr, so the last line on stdout is the JSON result of isop_perfbench.
Exits non-zero without a result if the sources are missing or the build
fails. See perfbench/README.md for the workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no ISOP+ sources under src/; nothing to build", file=sys.stderr)
        return 1
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build, "--target", "isop_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    program = os.path.join(build, "isop_perfbench")
    try:
        return subprocess.run([program, *sys.argv[1:]], cwd=root, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
