#!/usr/bin/env python3
"""Builds and runs the fixref benchmark.

    python3 fixbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `fixbench` package (this
directory) and the `fixref-serve` server binary in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then runs one workload. The
last line of stdout is the result object; spans and a full result record
go to fixbench/out/. Exits non-zero, without a result, when the build or
the run fails.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ["lms_paper", "timing_loop", "lms_sweep", "serve_mixed"]
RUN_TIMEOUT_S = 175


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "fixref-serve", "--bin", "fixref-serve"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            return False
    return True


def source_digest():
    """SHA-256 over the sources the benchmark builds (the checkout may not
    be a git repository, so this identifies the code under test)."""
    h = hashlib.sha256()
    for top in ["crates", "fixbench"]:
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x not in ("out", "target"))
            for f in sorted(files):
                if f.endswith((".rs", ".toml", ".lock", ".py")):
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    for f in ["Cargo.toml", "Cargo.lock"]:
        with open(os.path.join(ROOT, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "fixbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--server-bin", os.path.join(release, "fixref-serve"),
        "--out", os.path.join(HERE, "out"),
        "--commit", commit(),
        "--source-digest", source_digest(),
        "--nproc", str(len(os.sched_getaffinity(0))),
    ]
    # Own process group, so a run that overstays takes its server with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
