#!/usr/bin/env python3
"""Sweep benchmark entry point.

Builds the driver (perfbench/CMakeLists.txt, Release) from the checkout's
sources, runs one workload and passes its output through; the last line of
standard output is the result object. Run from the repository root:

    python3 perfbench/run.py --workload yield_cold --seed 42 --seconds 20 --trace 0

Other driver modes pass straight through, e.g. `--workload all` for the
same-run ratios, `--smoke` for shrunken inputs, `--plan` for the generated
specs and job hashes. Build output goes to standard error.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The first run of a checkout compiles the simulator; later runs only check
# that the build is current. The benchmark itself must end within 180 s.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kwargs):
    """Run to completion; the child is killed and reaped on timeout."""
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs).returncode
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}", 1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code = run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                   BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            fail("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    code = run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
               BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    os.chdir(ROOT)
    # Relative paths keep the service socket path short.
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    exe = build(os.path.join(build_root, "perfbench"))
    workdir = os.path.join(build_root, "perfbench-work")
    shutil.rmtree(workdir, ignore_errors=True)
    args = sys.argv[1:] + ["--workdir", workdir,
                           "--trace-dir", os.path.join(build_root, "perfbench-traces")]
    sys.stdout.flush()
    code = run([exe] + args, RUN_TIMEOUT_S)
    shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
