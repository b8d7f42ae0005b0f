"""stabaudit benchmark: one workload per call, each in its own fresh process.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a separate
traced run.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import END_TO_END, PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# set-up runs before and after the timed run, after one that warms the
# bytecode cache; spreading them over the run evens out CPU-speed drift
SETUP_REPS = 5
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
# Environment variables that change the program's path or where it writes.
DROPPED_VARS = ("STABAUDIT_BUDGET", "PYTHONPATH", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE",
                "PYTHONSTARTUP", "PYTHONOPTIMIZE", "PYTHONDEVMODE", "PYTHONTRACEMALLOC", "PYTHONPROFILEIMPORTTIME")


def pinned_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_VARS}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def machine_info(load_before, load_after, payload) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "python": platform.python_version(),
        "numpy": payload["numpy"],
        "git_commit": commit,
    }


def measure_setup(base_cmd, env, deadline, reps: int) -> list[float]:
    """Wall times of fresh processes that start, import stabaudit and build
    the workload's inputs, then exit."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(base_cmd + ["--setup-only"], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=max(1.0, deadline - time.monotonic()))
        samples.append(time.perf_counter() - t0)
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "stabaudit" / "__init__.py").is_file():
        print(f"error: no stabaudit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    load_before = os.getloadavg()
    env = pinned_env()
    out_dir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    base_cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out_dir)]
    try:
        setup = []
        if args.trace == 0:
            setup = measure_setup(base_cmd, env, deadline, SETUP_REPS + 1)[1:]
        proc = subprocess.run(base_cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if args.trace == 0:
            setup += measure_setup(base_cmd, env, deadline, SETUP_REPS)
    except subprocess.CalledProcessError as e:
        print(f"error: set-up process exited with {e.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("error: workload did not finish in time", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    payload = json.loads(lines[-1])

    metrics = payload["metrics"]
    if setup:
        metrics = {"setup_s": statistics.median(setup) * payload["scale"], **metrics}
    units = {**END_TO_END, **PER_LAYER}
    info = machine_info(load_before, os.getloadavg(), payload)
    correct = payload["failed"] == 0 and not payload["problems"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + json.dumps(info))
    if setup:
        print(f"setup_s is the median of {len(setup)} fresh processes, half before and half after the timed run, "
              f"at the reference speed; measured: {statistics.median(setup):.6g} s")
    for note in payload["notes"]:
        print(note)
    for problem in payload["problems"]:
        print(f"FAILED: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": correct,
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "notes": payload["notes"], "problems": payload["problems"]}
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
