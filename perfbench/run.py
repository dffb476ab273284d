#!/usr/bin/env python3
"""Builds the hprs end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <paper_tables|serve_diurnal|detect_flood>
                             [--seed N] [--trace-seed N] [--seconds S]
                             [--trace 0|1]

Run it from the root of a checkout.  The first run configures and builds the
hprs libraries plus the benchmark binary hprs_perfbench (Release) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
rebuild what changed.  Build output goes to stderr, so the last line of
standard output is the binary's JSON result.  The binary's exit status is
returned; a refused environment or a missing source tree exits with 2.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_tables", "serve_diurnal", "detect_flood")
DEFAULT_SEED = 20010916
# Switches that select a non-default code path of the program: both sides of
# a comparison must measure the same program, so the benchmark refuses them.
REFUSED_ENV = ("HPRS_REFERENCE_KERNELS", "HPRS_THREAD_PER_RANK",
               "HPRS_TILE_STREAM", "HPRS_TILE_ROWS", "HPRS_MIXED_PRECISION")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    cmake = shutil.which("cmake")
    if cmake is None:
        return None
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = [cmake, "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = [cmake, "--build", str(build_dir), "--target", "hprs_perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return build_dir / "hprs_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="scene seed of every workload")
    parser.add_argument("--trace-seed", type=int, default=DEFAULT_SEED,
                        help="arrival-trace seed of the serving workloads")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for name in REFUSED_ENV:
        if name in os.environ:
            return fail(f"{name} is set; the benchmark measures the "
                        "program's default paths only -- unset it")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        return fail(f"no hprs source tree at {ROOT}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    binary = build(build_dir)
    if binary is None or not binary.is_file():
        return fail("build failed")
    sys.stdout.flush()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--trace-seed", str(args.trace_seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(build_dir)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
