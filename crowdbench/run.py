#!/usr/bin/env python3
"""Builds and runs the crowdex benchmark from the root of a source checkout.

    python3 crowdbench/run.py --workload <query_mix|niche_sharded|ingest_live>
                              --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the benchmark (and the crowdex libraries
it links) under .bench_build/ in the checkout; later runs only check that the
build is up to date. Build output goes to stderr. The benchmark binary's
output is passed through unchanged: its last line is the JSON result. Spans
of traced runs are written under .bench_build/crowdbench-work/.

Exits non-zero without a result when the checkout holds no crowdex sources,
the build fails, or the run does not finish in time.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "crowdbench")
WORK_DIR = os.path.join(".bench_build", "crowdbench-work")
RUN_TIMEOUT_S = 170


def source_digest():
    """sha256 over the benchmark's and the library's sources."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "crowdbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    # Only this checkout's own repository: never a parent directory's.
    if not os.path.exists(".git"):
        return "unavailable"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "crowdbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "crowdbench",
                "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["query_mix", "niche_sharded", "ingest_live"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        print("crowdbench: run from the root of a crowdex checkout "
              "(no src/CMakeLists.txt here)", file=sys.stderr)
        return 2
    if not build():
        print("crowdbench: build failed", file=sys.stderr)
        return 3

    command = [os.path.join(BUILD_DIR, "crowdbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(WORK_DIR, args.workload),
               "--source-digest", source_digest(), "--git-sha", git_sha()]
    sys.stdout.flush()
    try:
        # The child writes straight to this process's stdout and stderr.
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"crowdbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
