"""The benchmark's own tests: the output checker must catch doctored reports,
the tracer must count and then restore what it wraps, and BENCHMARK.json
must list the metrics the benchmark prints.  Tiny sizes; runs in a second.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(HERE), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
import worker  # noqa: E402
from worker import AUDIT_IDS, END_TO_END, PER_LAYER  # noqa: E402

from stabaudit import harness  # noqa: E402
from stabaudit import learners as learners_mod  # noqa: E402


def _tiny(numeric: str) -> dict:
    return {
        "name": f"tiny-{numeric}",
        "domain": {"size": 3},
        "learner": {"name": "subsample_release", "params": {"k": 1, "delta": "0.5"}},
        "loss": {"name": "membership"},
        "m": 2,
        "numeric": numeric,
        "mode": "exact",
        "seed": 3,
        "audits": ["T1", {"id": "T2", "side": "duplicate"}, "T4", "T5"],
    }


def _run(cfg: dict, tmp_path: Path):
    code, bundle = harness.run_config(cfg, out_dir=tmp_path)
    return code, bundle, (tmp_path / f"{cfg['name']}.json").read_text()


def _audit(bundle: dict, theorem: str) -> dict:
    return next(a for a in bundle["audits"] if a["theorem"] == theorem)


def _flip_verdict(bundle):
    _audit(bundle, "T4")["verdict"] = "fail"


def _nudge_info(bundle):
    _audit(bundle, "T1")["computed"]["info"] += 1e-9


def _infinity(bundle):
    _audit(bundle, "T4")["computed"]["min_slack"] = math.inf


def test_checker_passes_a_real_report(tmp_path):
    code, bundle, text = _run(_tiny("exact"), tmp_path)
    problems, report = checks.check_op(code, bundle, text)
    assert problems == []
    assert checks.body(report) == checks.body(json.loads(text))


@pytest.mark.parametrize("mutate", [_flip_verdict, _nudge_info, _infinity])
def test_checker_fails_a_doctored_report(tmp_path, mutate):
    code, bundle, _ = _run(_tiny("exact"), tmp_path)
    bad = copy.deepcopy(bundle)
    mutate(bad)
    text = json.dumps(bad, indent=2, sort_keys=True)
    problems, _ = checks.check_op(code, bad, text)
    assert problems


def test_checker_fails_a_missing_report_and_a_bad_exit_code():
    assert checks.check_op(0, {}, None)[0]
    assert checks.check_op(1, {"exit_code": 1}, json.dumps({"exit_code": 1}))[0]


@pytest.mark.parametrize("numeric", ["exact", "float"])
@pytest.mark.parametrize("mutate", [_flip_verdict, _nudge_info])
def test_golden_comparison_catches_drift(tmp_path, numeric, mutate):
    _, bundle, text = _run(_tiny(numeric), tmp_path)
    body = checks.body(json.loads(text))
    entry = checks.golden_entry(body)
    assert checks.compare_golden(copy.deepcopy(body), entry) == []
    bad = copy.deepcopy(body)
    mutate(bad)
    assert checks.compare_golden(bad, entry)


def test_tracer_counts_walks_and_restores_every_binding(tmp_path):
    import stabaudit.audits as audits_mod
    import stabaudit.losses as losses_mod

    originals = {
        (audits_mod, "exact_trn_hyp_joint"): learners_mod.exact_trn_hyp_joint,
        (losses_mod, "iter_weighted_samples"): learners_mod.iter_weighted_samples,
        (harness, "audit_t1"): audits_mod.audit_t1,
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is not fn
        code, _ = tracer.op(0, harness.run_config, _tiny("exact"), out_dir=tmp_path)
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(mod, attr) is fn
    assert code == 0
    counts = tracer.counts
    assert counts["learners.walks"] > 0
    assert counts["learners.multisets"] == counts["learners.walks"] * math.comb(3 + 2 - 1, 2)
    assert counts["learners.kernel_calls"] >= counts["learners.multisets"]
    assert counts["harness.files_written"] == 4  # report, summary, T1 and T4 series
    assert tracer.problems == []
    # self times partition the op's wall time
    (_, wall, times), = tracer.op_times
    assert sum(times.values()) == pytest.approx(wall, rel=1e-6)


def test_end_to_end_times_do_not_move_with_cpu_speed():
    runner = types.SimpleNamespace(configs=[{}, {}, {}], failures=[], attempted=36)

    def passes(slowdown):
        out = []
        for i in range(12):
            ops = [slowdown * (0.01 + 0.001 * (i % 5)), slowdown * 0.2, slowdown * 0.03]
            ref = [slowdown * (0.004 + 0.0001 * (i % 3))] * 8
            out.append({"wall": sum(ops), "cpu": 0.9 * sum(ops), "ops": ops, "ref": ref})
        return worker.set_scales(out)

    fast, _, _ = worker.end_to_end(passes(1.0), runner)
    slow, _, k = worker.end_to_end(passes(1.3), runner)
    for name in ("wall_s", "cpu_s", "op_p50_s", "op_tail_s"):
        assert slow[name] == pytest.approx(fast[name])
    assert k == pytest.approx(worker.REF_NOMINAL_S / (1.3 * 0.0041))


def test_workload_inputs_depend_on_the_seed_only_in_values():
    for workload in workloads.WORKLOADS:
        a, b = workloads.configs(workload, 1), workloads.configs(workload, 2)
        assert a == workloads.configs(workload, 1)
        assert [c["domain"] for c in a] == [c["domain"] for c in b]
        assert [c["audits"] for c in a] == [c["audits"] for c in b]


def test_benchmark_json_matches_the_printed_metrics():
    from stabaudit.audits import AUDIT_IDS as program_audit_ids

    assert AUDIT_IDS == program_audit_ids
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
