#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the measuring program (perfbench/CMakeLists.txt, against this
checkout's src/) and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: wire-requests, wire-scripts, push-fanout, tenant-overload.
The last line of standard output is the result object; the line before
it is the full record (host fingerprint, seed, workload parameters,
schedule digest, every figure measured), also written under
<build dir>/records/. The build directory is $CARGO_TARGET_DIR when set,
else .bench_build, relative to the current directory.

    python3 perfbench/run.py --self-test

builds and runs the tests of the benchmark's own helpers.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wire-requests", "wire-scripts", "push-fanout", "tenant-overload")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else Path.cwd() / base) / "perfbench"


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return False
    return done.returncode == 0


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no MobiVine source tree next to {HERE}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        out.mkdir(parents=True, exist_ok=True)
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", str(out), "--target", target,
                      "-j", jobs], BUILD_TIMEOUT_S):
        fail(f"building {target} failed")
    return out / target


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the files the measured program is built from."""
    digest = hashlib.sha256()
    for top in ("src", "descriptors", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([str(tests)], check=False).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    driver = build("perfbench_driver")
    records = build_dir() / "records"
    records.mkdir(parents=True, exist_ok=True)
    record = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--descriptors", str(ROOT / "descriptors"),
           "--record", str(record), "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
