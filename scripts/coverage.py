#!/usr/bin/env python3
"""Line and function coverage of src/ under the full test suite.

Builds the repository with `--coverage -O0` into BUILD_DIR, runs ctest
there, then runs `gcov --json-format` over every .gcda file the run left
and aggregates the lines and functions of the files under src/ (the
live-counter backend, hpc/perf_backend.*, is left out: what it runs
depends on the kernel's perf_event permissions, not on the tests). A line
or function counts as run when any translation unit ran it, so a header
included by many tests is counted once.

Prints per-file line and function percentages, the total, and every
function that never ran. With --floor FILE (JSON: {"line_percent": X})
it exits 1 when the total line coverage falls below X.

Usage:
  python3 scripts/coverage.py --build-dir build-cov
  python3 scripts/coverage.py --build-dir build-cov --floor scripts/coverage_floor.json
  python3 scripts/coverage.py --build-dir build-cov --skip-build --floor ...
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
EXCLUDED = ("hpc/perf_backend.",)


def sh(cmd: list[str], **kwargs) -> None:
    print("+ " + " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, **kwargs)


def build_and_test(build_dir: pathlib.Path, jobs: int) -> None:
    sh(["cmake", "-S", str(REPO), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Debug",
        "-DCMAKE_CXX_FLAGS=--coverage -O0", "-DCMAKE_EXE_LINKER_FLAGS=--coverage"])
    sh(["cmake", "--build", str(build_dir), "-j", str(jobs)])
    # Counters accumulate across runs: start from zero.
    for gcda in build_dir.rglob("*.gcda"):
        gcda.unlink()
    sh(["ctest", "--test-dir", str(build_dir), "--output-on-failure", "-j", str(jobs)])


def gcov_reports(build_dir: pathlib.Path):
    """Yields one gcov JSON document per .gcda file under build_dir."""
    for gcda in sorted(build_dir.rglob("*.gcda")):
        proc = subprocess.run(["gcov", "--json-format", "--stdout", gcda.name],
                              cwd=gcda.parent, capture_output=True, text=True,
                              check=True)
        for line in proc.stdout.splitlines():
            if line.strip():
                yield json.loads(line)


def source_key(report: dict, path: str) -> str | None:
    """The file's path relative to src/, or None when it is not counted."""
    full = pathlib.Path(report.get("current_working_directory", "."), path).resolve()
    try:
        rel = full.relative_to(SRC).as_posix()
    except ValueError:
        return None
    return None if rel.startswith(EXCLUDED) else rel


def aggregate(build_dir: pathlib.Path):
    lines: dict[str, dict[int, bool]] = {}
    functions: dict[str, dict[tuple[int, str], bool]] = {}
    for report in gcov_reports(build_dir):
        for entry in report.get("files", []):
            key = source_key(report, entry["file"])
            if key is None:
                continue
            file_lines = lines.setdefault(key, {})
            for line in entry.get("lines", []):
                number = line["line_number"]
                file_lines[number] = file_lines.get(number, False) or line["count"] > 0
            file_functions = functions.setdefault(key, {})
            for fn in entry.get("functions", []):
                ident = (fn["start_line"], fn.get("demangled_name", fn["name"]))
                ran = fn["execution_count"] > 0
                file_functions[ident] = file_functions.get(ident, False) or ran
    return lines, functions


def percent(hit: int, total: int) -> float:
    return 100.0 * hit / total if total else 100.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir", required=True, type=pathlib.Path)
    parser.add_argument("--skip-build", action="store_true",
                        help="aggregate the .gcda files already in --build-dir")
    parser.add_argument("--floor", type=pathlib.Path,
                        help='JSON file {"line_percent": X}: fail below X')
    parser.add_argument("-j", "--jobs", type=int, default=os.cpu_count() or 2)
    args = parser.parse_args()

    build_dir = args.build_dir.resolve()
    if not args.skip_build:
        build_and_test(build_dir, args.jobs)

    lines, functions = aggregate(build_dir)
    if not lines:
        print(f"error: no coverage data for src/ under {build_dir}", file=sys.stderr)
        return 1

    total_lines = hit_lines = total_fns = hit_fns = 0
    never_run = []
    print(f"{'file':<44} {'lines':>16} {'functions':>14}")
    for key in sorted(lines):
        file_lines = lines[key]
        file_fns = functions.get(key, {})
        lh = sum(file_lines.values())
        fh = sum(file_fns.values())
        total_lines += len(file_lines)
        hit_lines += lh
        total_fns += len(file_fns)
        hit_fns += fh
        never_run += [(key, line, name) for (line, name), ran in file_fns.items() if not ran]
        print(f"{key:<44} {percent(lh, len(file_lines)):6.1f}% {lh:4}/{len(file_lines):<4} "
              f"{percent(fh, len(file_fns)):6.1f}% {fh:3}/{len(file_fns):<3}")

    line_pct = percent(hit_lines, total_lines)
    print(f"\nTOTAL lines {line_pct:.2f}% ({hit_lines} of {total_lines}), "
          f"functions {percent(hit_fns, total_fns):.2f}% ({hit_fns} of {total_fns})")
    print(f"\nnever-run functions ({len(never_run)}):")
    for key, line, name in sorted(never_run):
        print(f"  {key}:{line}  {name}")

    if args.floor is not None:
        floor = float(json.loads(args.floor.read_text())["line_percent"])
        if line_pct < floor:
            print(f"\nFAIL: line coverage {line_pct:.2f}% is below the floor {floor:.1f}%")
            return 1
        print(f"\nPASS: line coverage {line_pct:.2f}% >= floor {floor:.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
