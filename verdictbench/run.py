#!/usr/bin/env python3
"""Builds the verdict-path benchmark from source and runs one workload.

Run from the root of the repository:

    python3 verdictbench/run.py --workload warm_repeat --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/verdictbench (default
.bench_build/verdictbench) and is reused by later runs. The benchmark's
output is passed through: the last line of standard output is the result
object, the line before it the host-noise record. Build logs go to
standard error.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("warm_repeat", "cold_diverse", "ua_context", "feed_churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"verdictbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """SHA-256 over the library and benchmark sources (a checkout need not be
    a git repository, so this identifies the code that was built)."""
    digest = hashlib.sha256()
    for top in ("src", "verdictbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", os.path.join(root, "verdictbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", build_dir, "--target", "verdictbench", "-j", jobs]
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "verdictbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {root}/src; run from a full checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.join(root, build_root), "verdictbench")
    binary = build(root, build_dir)

    workdir = os.path.join(build_dir, "runs", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir,
               "--commit", f"{git_commit(root)}+src:{source_digest(root)}"]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
        code = result.returncode
    except subprocess.TimeoutExpired:
        print(f"verdictbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 124
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code if code >= 0 else 1)


if __name__ == "__main__":
    main()
