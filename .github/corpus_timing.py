"""Time named corpus scenarios, each run in a fresh process.

    python .github/corpus_timing.py SCENARIO [SCENARIO ...] --runs N \\
        [--override KEY=JSON ...] --tree DIR OUT.json [--tree DIR2 OUT2.json ...]

Each run is one new Python process that imports stabaudit from DIR/src and
calls harness.corpus_run(only=[the scenarios], overrides=...), without
writing reports.  Each --override sets one config key of every named
scenario to a JSON value, for example --override mode='"mc"' --override
audits='["T1"]' to time the Monte Carlo path of an exact scenario; the
overrides are kept in the record.
With several --tree options the processes alternate between the trees
(run 1 of each tree, then run 2 of each, ...), so that a drift of the
machine's speed falls on every tree alike.  For each tree the script
writes one JSON record to its OUT.json: per scenario, the median and the
per-run values of every key of its bundle's "timings" (seconds); the
median and the per-run values of each process's peak resident set size
in MB ("peak_rss_mb", from getrusage after the scenarios ran); and the
tree's commit (with whether src/ differs from it and a SHA-256 of its
src/*.py files), the Python and numpy versions the runs imported and the
CPU count.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

CHILD = """
import json, platform, resource, sys
import numpy
from stabaudit.harness import corpus_run
code, out = corpus_run(only=sys.argv[2:], overrides=json.loads(sys.argv[1]))
if "error" in out:
    sys.exit(out["error"])
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "timings": {b["config"]["name"]: b["timings"] for b in out["scenarios"]},
    # ru_maxrss is in KiB on Linux
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def _git(tree: Path, *args: str) -> str:
    cmd = ["git", "-C", str(tree), *args]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return result.stdout.strip() if result.returncode == 0 else ""


def _src_digest(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _run(tree: Path, scenarios: list[str], overrides: dict) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, "-c", CHILD, json.dumps(overrides), *scenarios]
    result = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


def _override(text: str) -> tuple[str, object]:
    """KEY=JSON as (KEY, the JSON value)."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=JSON, got {text!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError as e:
        raise argparse.ArgumentTypeError(f"{key}: {e}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("scenarios", nargs="+", help="corpus scenario names")
    parser.add_argument("--runs", type=int, default=5, help="fresh processes per tree")
    parser.add_argument("--tree", nargs=2, action="append", metavar=("DIR", "OUT"), required=True)
    parser.add_argument("--override", action="append", default=[], type=_override, metavar="KEY=JSON")
    args = parser.parse_args(argv)
    overrides = dict(args.override)
    trees = [(Path(d).resolve(), Path(out)) for d, out in args.tree]
    runs: dict = {tree: [] for tree, _ in trees}
    for i in range(args.runs):
        for tree, _ in trees:
            runs[tree].append(_run(tree, args.scenarios, overrides))
            walls = {name: t.get("total") for name, t in runs[tree][-1]["timings"].items()}
            rss = runs[tree][-1]["peak_rss_mb"]
            print(f"run {i + 1}/{args.runs} {tree}: total {walls}, peak RSS {rss:.1f} MB", file=sys.stderr, flush=True)
    for tree, out in trees:
        done = runs[tree]
        rss = [run["peak_rss_mb"] for run in done]
        per_scenario = {}
        for name in args.scenarios:
            keys = sorted({key for run in done for key in run["timings"][name]})
            values = {key: [run["timings"][name].get(key) for run in done] for key in keys}
            per_scenario[name] = {
                "median": {key: statistics.median(v for v in vals if v is not None) for key, vals in values.items()},
                "runs": values,
            }
        record = {
            "script": ".github/corpus_timing.py",
            "commit": _git(tree, "rev-parse", "HEAD"),
            "src_differs_from_commit": bool(_git(tree, "status", "--porcelain", "--", "src")),
            "src_sha256": _src_digest(tree),
            "python": done[0]["python"],
            "numpy": done[0]["numpy"],
            "cpu_count": os.cpu_count(),
            "runs": args.runs,
            "overrides": overrides,
            "unit": "s",
            "scenarios": per_scenario,
            "peak_rss_mb": {"median": statistics.median(rss), "runs": rss},
        }
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
