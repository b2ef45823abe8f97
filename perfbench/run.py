#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark.

    python3 perfbench/run.py --workload cg_a16_par4 --seed 1 --seconds 20 --trace 0

Run from the repository root (or any copy of its files). The first call
configures and builds perfbench/ against ../src into .bench_build/perfbench;
later calls only rebuild what changed. Every argument is passed on to the
perfbench binary (see bench.cpp); the last line of standard output is the
result as one JSON object. Build output goes to standard error.
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"simulator sources missing under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def git_describe():
    """`git describe` of the checkout, or a note when it is not a git tree."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "none(not-a-git-checkout)"
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--tags",
                              "--always", "--dirty"], capture_output=True,
                             text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    args = [str(binary), *sys.argv[1:],
            "--digests", str(HERE / "digests.txt"),
            "--out-dir", str(OUT),
            "--git-describe", git_describe()]
    child = subprocess.Popen(args)

    def forward(signum, _frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
