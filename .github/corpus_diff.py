"""Compare two corpus report directories written by `stabaudit corpus --out`.

    python .github/corpus_diff.py BASE_DIR HEAD_DIR [--exit-codes BASE HEAD]

The two must hold the same files.  JSON files must be equal once every
"timings" key, at any depth, is dropped; every other file must be equal
byte for byte.  Every JSON file of HEAD must also keep the report layout:
its text must be json.dumps(json.loads(text), indent=2, sort_keys=True,
allow_nan=False) plus a newline, byte for byte.  --exit-codes also
requires the two corpus runs to have exited alike.  Prints each
difference and exits 1 if there is any, else prints the number of files
compared and exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def without_timings(value):
    if isinstance(value, dict):
        return {k: without_timings(v) for k, v in value.items() if k != "timings"}
    if isinstance(value, list):
        return [without_timings(v) for v in value]
    return value


def files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def layout_differs(text: bytes) -> bool:
    """Whether text is not the indented, key-sorted strict JSON of its value."""
    try:
        value = json.loads(text)
        return text.decode() != json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # not JSON, not UTF-8, or nan/inf
        return True


def differences(base: Path, head: Path) -> list[str]:
    base_files, head_files = files(base), files(head)
    problems = [f"only in base: {name}" for name in sorted(base_files - head_files)]
    problems += [f"only in head: {name}" for name in sorted(head_files - base_files)]
    for name in sorted(base_files & head_files):
        a, b = (base / name).read_bytes(), (head / name).read_bytes()
        if name.endswith(".json"):
            if without_timings(json.loads(a)) != without_timings(json.loads(b)):
                problems.append(f"differs without timings: {name}")
        elif a != b:
            problems.append(f"differs: {name}")
    for name in sorted(head_files):
        if name.endswith(".json") and layout_differs((head / name).read_bytes()):
            problems.append(f"layout differs from json.dumps(indent=2, sort_keys=True): {name}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--exit-codes", nargs=2, type=int, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)
    problems = differences(args.base, args.head)
    if args.exit_codes and args.exit_codes[0] != args.exit_codes[1]:
        problems.append(f"exit codes differ: base {args.exit_codes[0]}, head {args.exit_codes[1]}")
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"{len(files(args.head))} files equal without timings")
    return 0


if __name__ == "__main__":
    sys.exit(main())
