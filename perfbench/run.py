#!/usr/bin/env python3
"""Build the CLASP benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <paper|serve_mixed|diag_crosscloud> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark crate is built in release mode into $CARGO_TARGET_DIR
(default: .bench_build under the current directory), then run with the
same arguments. Its last stdout line is the result record. The exit code
is the benchmark's, or 1 when the build fails or the run times out.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def revision():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    for top in roots:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: benchmark build failed", file=sys.stderr)
        return 1
    env["CLASP_BENCH_REVISION"] = revision()
    binary = os.path.join(target, "release", "clasp-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
