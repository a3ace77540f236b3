#!/usr/bin/env python3
"""Validate every committed .scenario file against the built scenario_runner.

Two levels:

  parse (default)  — `scenario_runner --check` on every file: the scenario
                     parses and its serialize/parse round trip reproduces
                     the spec exactly.
  --smoke          — additionally run each scenario twice under kManual
                     dispatch with a bounded duration and byte-compare the
                     CSV outputs: bit-identical files mean bit-identical
                     runs (watts are serialized as C99 hexfloats). For
                     scenarios with a `govern` directive the smoke run must
                     also report at least one governor actuation — the
                     closed loop demonstrably closes within the smoke
                     window.
  --smoke --save DIR — also keep each scenario's kManual smoke CSV as
                     DIR/<name>.csv, so two commits' outputs can be
                     compared with `diff -r`.

Usage:
  python3 scripts/check_scenarios.py --runner build/examples/scenario_runner
  python3 scripts/check_scenarios.py --runner build/examples/scenario_runner --smoke
  python3 scripts/check_scenarios.py --runner build/examples/scenario_runner \
      --smoke --save /tmp/scenarios_a
"""

import argparse
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile


def find_scenarios(scenario_dir: pathlib.Path) -> list[pathlib.Path]:
    files = sorted(scenario_dir.glob("*.scenario"))
    if not files:
        sys.exit(f"error: no .scenario files under {scenario_dir}")
    return files


def run(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, capture_output=True, text=True)


def check_parse(runner: str, files: list[pathlib.Path]) -> bool:
    proc = run([runner, "--check"] + [str(f) for f in files])
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    return proc.returncode == 0


def declares_govern(path: pathlib.Path) -> bool:
    """Does the scenario file carry a top-level `govern` directive?"""
    for line in path.read_text().splitlines():
        if line.strip().startswith("govern "):
            return True
    return False


def governor_actuations(stdout: str) -> int:
    """Actuation count from the runner's governor summary line, or -1."""
    match = re.search(r"governor: .* -> (\d+) actuation", stdout)
    return int(match.group(1)) if match else -1


def check_smoke(runner: str, files: list[pathlib.Path],
                save_dir: pathlib.Path | None = None) -> bool:
    ok = True
    if save_dir is not None:
        save_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="scenario_smoke_") as tmp:
        for f in files:
            csvs = []
            stdout = ""
            for attempt in (1, 2):
                out = pathlib.Path(tmp) / f"{f.stem}.{attempt}.csv"
                proc = run([runner, "--smoke", "--csv", str(out), str(f)])
                if proc.returncode != 0:
                    print(f"FAIL {f}: smoke run {attempt} exited "
                          f"{proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    ok = False
                    break
                stdout = proc.stdout
                csvs.append(out.read_bytes())
            else:
                if not csvs[0]:
                    print(f"FAIL {f}: smoke run produced an empty CSV",
                          file=sys.stderr)
                    ok = False
                elif csvs[0] != csvs[1]:
                    print(f"FAIL {f}: two kManual smoke runs are not "
                          "byte-identical", file=sys.stderr)
                    ok = False
                elif declares_govern(f) and governor_actuations(stdout) <= 0:
                    print(f"FAIL {f}: scenario declares `govern` but the "
                          f"smoke run reported "
                          f"{governor_actuations(stdout)} actuations — the "
                          "loop never closed", file=sys.stderr)
                    ok = False
                else:
                    extra = ""
                    if declares_govern(f):
                        extra = (f", {governor_actuations(stdout)} governor "
                                 "actuations")
                    print(f"OK {f} smoke: {len(csvs[0])} CSV bytes, "
                          f"run-twice byte-identical{extra}")
                    if save_dir is not None:
                        shutil.copyfile(pathlib.Path(tmp) / f"{f.stem}.1.csv",
                                        save_dir / f"{f.stem}.csv")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runner", default="build/examples/scenario_runner",
                        help="path to the built scenario_runner binary")
    parser.add_argument("--scenario-dir", default="examples/scenarios",
                        help="directory holding the committed .scenario files")
    parser.add_argument("--smoke", action="store_true",
                        help="also run each scenario twice (bounded, kManual) "
                             "and byte-compare the CSVs")
    parser.add_argument("--save", metavar="DIR", type=pathlib.Path,
                        help="with --smoke: keep each scenario's smoke CSV as "
                             "DIR/<name>.csv (diff -r two commits' DIRs)")
    args = parser.parse_args()
    if args.save is not None and not args.smoke:
        parser.error("--save requires --smoke")

    runner = pathlib.Path(args.runner)
    if not runner.is_file():
        sys.exit(f"error: scenario_runner not found at {runner} (build first)")

    files = find_scenarios(pathlib.Path(args.scenario_dir))
    ok = check_parse(str(runner), files)
    if ok and args.smoke:
        ok = check_smoke(str(runner), files, args.save)
    print("check_scenarios:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
