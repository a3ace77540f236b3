#!/usr/bin/env python3
"""Builds fleet_bench from source and runs one workload of it.

    python3 bench/e2e/run.py --workload fleet_1ms --seed 1 --seconds 20 --trace 0

Run from the repository root. The build directory is $CARGO_TARGET_DIR,
else .bench_build. The first run configures and compiles the libraries
fleet_bench links (a minute or two); later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is fleet_bench's
JSON result. With --trace 1 the per-layer metrics are printed instead of
the end-to-end ones, and a Chrome trace is written to the build directory.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(directory: Path) -> Path:
    if not (directory / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(directory), "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", str(directory), "--target", "fleet_bench", "-j", "4"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return directory / "fleet_bench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print(f"run.py: no repository sources next to {HERE}", file=sys.stderr)
        return 2
    directory = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    try:
        binary = build(directory)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    command = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}"]
    if args.trace:
        command.append(f"--trace={directory / ('trace_' + args.workload + '.json')}")
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: fleet_bench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
