#!/usr/bin/env python3
"""Runs one workload of the serve benchmark.

    python3 perfbench/run.py --workload <read-hot|read-cold|write-churn> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the release `nalist` binary from the repository root and the
benchmark harness in this directory (both into $CARGO_TARGET_DIR,
default `.bench_build` at the repository root), then runs the harness.
Its report goes to stdout; the last line is the result JSON. Working
files (wal-dirs, spans.jsonl, the result record) land in
`.bench_work/<workload>/`, cleared at the start of each run.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def revision():
    """The git revision, or a digest of the sources outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def build(env):
    """Builds the server binary and the harness; exits on failure."""
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "nalist-cli", "--bin", "nalist"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["read-hot", "read-cold", "write-churn"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(env)

    work = os.path.join(ROOT, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--nalist", os.path.join(target, "release", "nalist"),
        "--work", work,
        "--rev", revision(),
    ]
    sys.stdout.flush()
    # The harness and the servers it starts share a process group, so
    # nothing outlives this script, even when it is interrupted.
    child = subprocess.Popen(cmd, env=env, start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    try:
        code = child.wait()
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
