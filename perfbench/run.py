#!/usr/bin/env python3
"""Builds and runs the streamq benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

Workloads: aq-burst, keyed-median, spec-amend, service (see BENCHMARK.json and
perfbench/README.md). The first run configures and builds the library sources
in src/ and the benchmark into .bench_build/perfbench (Release); later runs
rebuild only what changed. The benchmark's last stdout line is its JSON
result, and its exit code is non-zero when a check or operation failed.
--selftest runs the tests of the benchmark's own bookkeeping (span self time,
percentile support, open-loop accounting, CPU rotation).
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
TMP = ROOT / ".bench_build" / "tmp"
RUN_TIMEOUT_S = 170
WORKLOADS = ("aq-burst", "keyed-median", "spec-amend", "service")


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_env():
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(TMP)
    return env


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"streamq sources not found under {ROOT / 'src'}")
    env = build_env()
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed", 3)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets]
    if subprocess.run(command, stdout=sys.stderr, env=env).returncode:
        fail("build failed", 3)


def source_id():
    """The commit when the tree is a git checkout, plus a hash of the sources
    the benchmark builds (which identifies the code either way)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    ident = "src-sha256:" + digest.hexdigest()[:16]
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            ident = "commit:" + head.stdout.strip() + "," + ident
    return ident


def run(command):
    child = subprocess.Popen(command, env=build_env())
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 4
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_test"])
        sys.exit(run([str(BUILD / "perfbench_test")]))
    if args.workload is None:
        fail("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build(["perfbench"])
    OUT.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    sys.exit(run([str(BUILD / "perfbench"),
                  "--workload", args.workload,
                  "--seed", str(args.seed),
                  "--seconds", repr(args.seconds),
                  "--trace", str(args.trace),
                  "--out-dir", str(OUT),
                  "--source-id", source_id()]))


if __name__ == "__main__":
    main()
