#!/usr/bin/env python3
r"""Build the aligner's benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload short_paper --seed 1 \
        --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build, and is
incremental. The benchmark binary prints progress to stderr and, as the
last line of stdout, one JSON object with "correct", "attempted", "failed"
and "metrics". The exit code is non-zero when the build fails, when an
output check fails, or when the benchmark itself fails.

    python3 perfbench/run.py --selftest    # unit tests of the helpers
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir, target):
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", build_dir, "-j", jobs, "--target", target]]
    # Configure once; later builds re-run it themselves when a CMakeLists
    # file changes.
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_id():
    """The git commit if this is a checkout, else a digest of src/."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = "perfbench_tests" if args.selftest else "perfbench"
    if not build(build_dir, target):
        return 2
    if args.selftest:
        return subprocess.run([os.path.join(build_dir, target)]).returncode

    cmd = [
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(build_dir, "work"),
        "--commit", source_id(),
    ]
    done = subprocess.run(cmd)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
