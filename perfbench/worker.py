"""One workload in one fresh process: set up, run timed passes, check every op.

Started by run.py with a pinned environment; not meant to be run by hand.
The last line of stdout is a JSON object with the counts and metrics that
run.py turns into the benchmark result; earlier lines are for people.

Untraced (``--trace 0``): one warm-up pass, then passes back to back (a
closed loop with one client) for ``--seconds``.  Traced (``--trace 1``): a
warm-up pass, untraced passes for half the window, then traced passes for
the other half; the untraced half gives the base of trace.overhead_frac.

Every time the worker reports is scaled to the reference speed: a fixed
piece of reference work runs before each op, and each time measured in a
pass is multiplied by REF_NOMINAL_S over the median reference time of that
pass and its two neighbours.  The shared host this benchmark was built on changes CPU speed by
+-20% in phases of minutes; the scale cancels that, and the measured times
are printed beside the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402  (the script's own directory is on sys.path)
import workloads  # noqa: E402
from tracer import OP_SPAN, Tracer  # noqa: E402

MIN_PASSES = 2
# median seconds of reference_work() at the reference speed
REF_NOMINAL_S = 0.005
# reference runs per pass, spread over its ops
REF_PER_PASS = 8
# op_tail_s is the latency with this many samples beyond it
TAIL_BEYOND = 10

AUDIT_IDS = ("T1", "T2", "T3", "T4", "P3", "C1", "P4", "T5", "C2-forward", "ERM")

# name -> unit; counts must repeat exactly from pass to pass, except
# bytes_written, which includes the reports' wall-clock timings field
COUNTERS = {
    "learners.walks": "count",
    "learners.multisets": "count",
    "learners.kernel_calls": "count",
    "learners.cache_hits": "count",
    "learners.cache_misses": "count",
    "learners.eff_eps_pairs": "count",
    "dist.product_weights_calls": "count",
    "info.vi_calls": "count",
    "losses.gen_risk_calls": "count",
    "losses.cells": "count",
    "losses.deviation_law_builds": "count",
    "losses.true_risk_calls": "count",
    "mc.draws": "count",
    "harness.files_written": "count",
    "harness.bytes_written": "B",
}
VARYING = ("harness.bytes_written",)
# self times per pass, by layer
SELF_TIMES = {
    "learners": ("enum_s", "kernel_s", "trn_joint_s", "threeway_s", "mi_s", "eff_eps_s"),
    "dist": ("product_weights_s",),
    "info": ("vi_s", "chain_s"),
    "losses": ("gen_risk_s", "worst_case_s", "deviation_law_s", "true_risk_s"),
    "mc": ("draw_s", "deviations_s", "bootstrap_s", "tail_s"),
    "harness": ("config_s", "build_s", "write_s", "op_self_s"),
    "audits": ("self_s",),
}
PER_LAYER = {
    **COUNTERS,
    **{f"{layer}.{t}": "s" for layer, names in SELF_TIMES.items() for t in names},
    **{f"audits.{a}_s": "s" for a in AUDIT_IDS},
    "trace.overhead_frac": "ratio",
}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
# counters that must not read 0 on the workload each layer dominates;
# a 0 means a wrapper was not reached
MUST_COUNT = {
    "exact-float-walks": ("learners.walks", "learners.multisets", "learners.kernel_calls",
                          "learners.trn_joint_calls", "learners.threeway_calls", "learners.mi_calls"),
    "exact-rational-cells": ("dist.product_weights_calls", "info.vi_calls", "losses.gen_risk_calls",
                             "losses.cells", "losses.worst_case_calls", "losses.deviation_law_builds"),
    "mc-draws": ("mc.draws", "mc.draw_calls", "mc.deviations_calls", "mc.bootstrap_calls",
                 "mc.tail_calls", "losses.true_risk_calls"),
    "corpus-small": ("harness.config_calls", "harness.build_calls", "harness.write_calls",
                     "harness.files_written", "learners.cache_hits", "learners.eff_eps_pairs",
                     "info.chain_calls"),
}


def reference_work():
    """Fixed work in the mix of stabaudit's ops: integer and dict steps,
    Fraction sums, a sort, a JSON dump and small numpy tables."""
    import numpy as np

    acc, table = 0, {}
    for i in range(8000):
        acc += i * i % 7
        table[i & 255] = acc
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 1)
    table.update(sorted((i * 7919 % 10007, str(i)) for i in range(1500)))
    text = json.dumps({"rows": [{"i": i, "x": i / 7, "v": [i, "s"]} for i in range(400)]})
    grid = np.zeros((6, 7))
    for i in range(400):
        grid[i % 6, i % 7] += 1.0
        acc += int(grid.sum())
    return acc, total, len(text)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def set_scales(passes: list[dict]) -> list[dict]:
    """Give each pass the factor that turns its measured seconds into seconds
    at the reference speed, from the reference runs before, in and after it."""
    for i, p in enumerate(passes):
        near = [r for q in passes[max(0, i - 1) : i + 2] for r in q["ref"]]
        p["scale"] = REF_NOMINAL_S / statistics.median(near)
    return passes


def scaled(passes: list[dict], get) -> list[float]:
    """``get(pass)`` of each pass in seconds at the reference speed."""
    return [get(p) * p["scale"] for p in passes]


def _import_stabaudit():
    import stabaudit

    src = (ROOT / "src").resolve()
    if src not in Path(stabaudit.__file__).resolve().parents:
        raise SystemExit(f"stabaudit imported from {stabaudit.__file__}, not from {src}")
    from stabaudit import harness

    return harness


class Runner:
    def __init__(self, harness, workload: str, seed: int, out_dir: Path):
        self.harness = harness
        self.configs = workloads.configs(workload, seed)
        self.out_dir = out_dir
        self.golden = None
        if seed == workloads.DEFAULT_SEED:
            self.golden = json.loads((HERE / "golden.json").read_text())[workload]
        self.digests: dict[str, str] = {}
        self.golden_problems: dict[str, list[str]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None

    def setup(self) -> None:
        """Validate and build every scenario once: the input-generation step."""
        for cfg in self.configs:
            self.harness.build_scenario(self.harness.ScenarioConfig.from_dict(cfg))

    def run_pass(self, pass_no: int) -> dict:
        ops, timings, ref = [], {}, []
        refs_per_op = -(-REF_PER_PASS // len(self.configs))
        for i, cfg in enumerate(self.configs):
            report_path = self.out_dir / f"{cfg['name']}.json"
            report_path.unlink(missing_ok=True)
            ref += [time_reference() for _ in range(refs_per_op)]
            t0, c0 = time.perf_counter(), time.process_time()
            if self.tracer is None:
                code, bundle = self.harness.run_config(cfg, out_dir=self.out_dir)
            else:
                code, bundle = self.tracer.op(
                    (pass_no, i), self.harness.run_config, cfg, out_dir=self.out_dir
                )
            ops.append((time.perf_counter() - t0, time.process_time() - c0))
            for k, v in bundle.get("timings", {}).items():
                if k.startswith("audit_"):
                    timings[k] = timings.get(k, 0.0) + v
            self._check(cfg["name"], code, bundle, report_path)
        return {
            "wall": sum(w for w, _ in ops),
            "cpu": sum(c for _, c in ops),
            "ops": [w for w, _ in ops],
            "audit_timings": timings,
            "ref": ref,
        }

    def _check(self, name: str, code: int, bundle: dict, path: Path) -> None:
        self.attempted += 1
        text = path.read_text() if path.exists() else None
        problems, report = checks.check_op(code, bundle, text)
        if report is not None:
            body = checks.body(report)
            d = checks.digest(body)
            if self.digests.setdefault(name, d) != d:
                problems.append("report body differs from an earlier pass")
            if self.golden is not None:
                if name not in self.golden_problems:
                    self.golden_problems[name] = checks.compare_golden(body, self.golden[name])
                problems += self.golden_problems[name]
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))

    def run_window(self, seconds: float) -> list[dict]:
        passes = []
        t_start = time.perf_counter()
        while (
            len(passes) < MIN_PASSES
            or sum(len(p["ops"]) for p in passes) <= TAIL_BEYOND
            or time.perf_counter() - t_start < seconds
        ):
            passes.append(self.run_pass(len(passes)))
        return set_scales(passes)


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Latency with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(passes: list[dict], runner: Runner) -> tuple[dict, list[str], float]:
    lat = [w * p["scale"] for p in passes for w in p["ops"]]
    tail, pct = _tail(lat)
    failed = len(runner.failures)
    metrics = {
        "wall_s": statistics.median(scaled(passes, lambda p: p["wall"])),
        "cpu_s": statistics.median(scaled(passes, lambda p: p["cpu"])),
        # the median over scenarios of each scenario's median latency: the
        # median of the pooled latencies falls between two scenarios'
        # clusters when half of them are cheaper, and jumps between them
        "op_p50_s": statistics.median(
            statistics.median(scaled(passes, lambda p: p["ops"][i])) for i in range(len(runner.configs))
        ),
        "op_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / runner.attempted,
    }
    factors = [p["scale"] for p in passes]
    k = statistics.median(factors)
    measured = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "op_tail_s": _tail([w for p in passes for w in p["ops"]])[0],
    }
    notes = [
        f"timed passes: {len(passes)} of {len(runner.configs)} ops each; wall_s and cpu_s are medians per pass",
        f"op_tail_s is p{pct:.1f}: the {TAIL_BEYOND + 1}th largest of {len(lat)} op latencies",
        f"times are at the reference speed: each pass's times x {REF_NOMINAL_S} s / the median reference "
        f"time of it and its neighbours; factors {min(factors):.4f}-{max(factors):.4f}, median {k:.4f}; measured: "
        + ", ".join(f"{name} = {v:.6g} s" for name, v in measured.items()),
        f"fail_ratio = {failed / runner.attempted!r} ({failed} of {runner.attempted} ops failed); "
        "ok_ratio = 1 - fail_ratio",
    ]
    return metrics, notes, k


def _shares(times: dict, wall: float) -> str:
    by_layer: dict[str, float] = {}
    for key, v in times.items():
        if key.endswith("_s"):
            layer = key.split(".")[0]
            by_layer[layer] = by_layer.get(layer, 0.0) + v
    return ", ".join(f"{k} {v / wall:.1%}" for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1]))


def per_layer(untraced: list[dict], traced: list[dict], snapshots: list[tuple], tracer: Tracer, workload: str):
    problems = []
    counts0 = snapshots[0][0]
    for i, (counts, _) in enumerate(snapshots[1:], 1):
        diff = sorted(k for k in set(counts) | set(counts0) if k not in VARYING and counts.get(k) != counts0.get(k))
        if diff:
            problems.append(f"counters differ between traced passes 0 and {i}: {diff}")
    for name in MUST_COUNT[workload]:
        if not counts0.get(name):
            problems.append(f"{name} is 0 on {workload}: a wrapper was not reached")

    def med(key):
        return statistics.median(times.get(key, 0.0) * p["scale"] for (_, times), p in zip(snapshots, traced))

    metrics = {name: counts0.get(name, 0) for name in COUNTERS}
    for name in VARYING:
        metrics[name] = statistics.median(counts.get(name, 0) for counts, _ in snapshots)
    audit_self = statistics.median(
        sum(v for k, v in times.items() if k.startswith("audits.")) * p["scale"]
        for (_, times), p in zip(snapshots, traced)
    )
    for layer, names in SELF_TIMES.items():
        for t in names:
            key = f"{layer}.{t}"
            if key == "audits.self_s":
                metrics[key] = audit_self
            elif key == "harness.op_self_s":
                metrics[key] = med(OP_SPAN + "_s")
            else:
                metrics[key] = med(key)
    for a in AUDIT_IDS:
        metrics[f"audits.{a}_s"] = statistics.median(
            scaled(untraced, lambda p: p["audit_timings"].get(f"audit_{a}", 0.0))
        )
    base = statistics.median(scaled(untraced, lambda p: p["wall"]))
    traced_wall = statistics.median(scaled(traced, lambda p: p["wall"]))
    k_traced = statistics.median(p["scale"] for p in traced)
    metrics["trace.overhead_frac"] = traced_wall / base - 1.0

    layer_times = {f"{layer}.{t}": metrics[f"{layer}.{t}"] for layer, names in SELF_TIMES.items() for t in names}
    accounted = statistics.median(sum(times.values()) / p["wall"] for (_, times), p in zip(snapshots, traced))
    op_walls = sorted(wall for _, wall, _ in tracer.op_times)
    p50 = statistics.median(op_walls)
    small = [delta for _, wall, delta in tracer.op_times if wall <= p50]
    small_times: dict[str, float] = {}
    for delta in small:
        for k, v in delta.items():
            small_times[k] = small_times.get(k, 0.0) + v
    notes = [
        f"traced passes: {len(traced)}, untraced passes: {len(untraced)}; times are medians per pass, "
        "at the reference speed (each pass's times x its own factor, as in an untraced run)",
        f"layer self-time shares of the traced pass wall ({traced_wall:.4f} s): {_shares(layer_times, traced_wall)}",
        f"layer self-time shares over the {len(small)} traced ops at or below the median op "
        f"({p50 * k_traced:.4f} s): {_shares(small_times, sum(small_times.values()))}",
        f"self times sum to {accounted:.4f} of each traced pass's wall (median over passes); "
        f"untraced pass wall {base:.4f} s, so tracing adds {metrics['trace.overhead_frac']:+.4f}",
    ]
    if counts0.get("learners.walks"):
        notes.append(
            f"learners.multisets / learners.walks = {counts0['learners.multisets'] / counts0['learners.walks']:.2f}"
        )
    return metrics, notes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    harness = _import_stabaudit()
    runner = Runner(harness, args.workload, args.seed, args.out)
    runner.setup()
    if args.setup_only:
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    runner.run_pass(-1)  # warm-up: lazy imports, lru caches, page faults

    problems: list[str] = []
    k = None
    if args.trace == 0:
        passes = runner.run_window(args.seconds)
        metrics, notes, k = end_to_end(passes, runner)
    else:
        untraced = runner.run_window(args.seconds / 2)
        tracer = Tracer()
        runner.tracer = tracer
        tracer.install()
        traced, snapshots = [], []
        t_start = time.perf_counter()
        try:
            while len(traced) < MIN_PASSES or time.perf_counter() - t_start < args.seconds / 2:
                tracer.reset()
                traced.append(runner.run_pass(len(untraced) + len(traced)))
                snapshots.append((dict(tracer.counts), dict(tracer.times)))
        finally:
            tracer.uninstall()
            runner.tracer = None
        tracer.write_spans(args.out / "trace.jsonl")
        metrics, notes, problems = per_layer(untraced, set_scales(traced), snapshots, tracer, args.workload)
        problems += tracer.problems[:5]
        failed = len(runner.failures)
        notes.append(f"fail_ratio = {failed / runner.attempted!r} ({failed} of {runner.attempted} ops failed)")

    import numpy

    payload = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
        "notes": notes,
        "problems": runner.failures[:10] + problems,
        "numpy": numpy.__version__,
        "scale": k,
    }
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
