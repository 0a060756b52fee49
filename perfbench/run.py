#!/usr/bin/env python3
"""Builds the dbpc benchmark from the checkout's sources and runs it.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test        # the benchmark's own tests

Run from the root of a checkout. The build (library, dbpcd and the
benchmark, Release) goes to $CARGO_TARGET_DIR/perfbench-build, default
.bench_build/perfbench-build; daemon logs and span files go next to it in
perfbench-run. The last line of standard output is the result object.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def out_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir, targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dbpc sources next to perfbench/ (run from a dbpc checkout)")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                 + targets)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as text:
                    sys.stderr.write("".join(text.readlines()[-30:]))
                fail("build failed; see " + log_path)


def stamps():
    """git sha when the checkout is a git repository, and a digest of the
    sources the benchmark builds, which identifies the code either way."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "samples", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return ["git=" + sha, "sources=" + digest.hexdigest()[:12]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["serve-hot", "serve-cold", "migrate"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for quick end-to-end checks")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    build_dir = os.path.join(out_dir(), "perfbench-build")
    run_dir = os.path.join(out_dir(), "perfbench-run")
    if args.self_test:
        build(build_dir, ["perfbench", "dbpcd", "perfbench_test"])
        os.makedirs(run_dir, exist_ok=True)
        env = dict(os.environ, PERFBENCH_ROOT=ROOT, PERFBENCH_RUN_DIR=run_dir,
                   PERFBENCH_BIN=build_dir)
        sys.exit(subprocess.call([os.path.join(build_dir, "perfbench_test")],
                                 env=env))
    if args.workload is None:
        parser.error("--workload is required")
    build(build_dir, ["perfbench", "dbpcd"])
    os.makedirs(run_dir, exist_ok=True)
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--root", ROOT, "--dbpcd", os.path.join(build_dir, "dbpcd"),
               "--workdir", run_dir]
    if args.smoke:
        command.append("--smoke")
    for stamp in stamps():
        command += ["--stamp", stamp]
    sys.stdout.flush()
    sys.exit(subprocess.call(command))


if __name__ == "__main__":
    main()
