"""Acceptance checklist: ten end-to-end checks over the public API.

Each test prints one [PASS]/[FAIL] line (visible under `pytest -s`) and
then asserts, so the module doubles as a release gate and a checklist.
Scenario objects are shared per module; repeated audits reuse their
cached enumerations.
"""

from __future__ import annotations

import math
import statistics
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from stabaudit import bounds, mc
from stabaudit.audits import (
    DEFAULT_T_GRID,
    audit_dp,
    audit_dp_mechanism,
    audit_erm,
    audit_p3,
    audit_p4,
    audit_t3,
    audit_t4,
    audit_t5,
)
from stabaudit.corpus import corpus_configs
from stabaudit.dist import Alphabet, Dist, Joint, TransitionKernel
from stabaudit.harness import ScenarioConfig, build_scenario, corpus_run
from stabaudit.info import (
    chain_decompose,
    conditional_variational_info,
    dpi_check,
    prop2_gap_check,
    variational_info,
)
from stabaudit.learners import Scenario, exact_trn_hyp_joint, prop1_counterexample
from stabaudit.losses import (
    deviation_law,
    exhaustive_binary_loss_max,
    gen_risk_from_joint,
    prop1_flipped_loss,
    prop1_paired_loss,
    worst_case_loss,
)
from stabaudit.numeric import EXACT, int_quotients


def _check(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def corpus_scenarios():
    """Every enumerable corpus scenario, built once and shared."""
    out = {}
    for raw in corpus_configs():
        cfg = ScenarioConfig.from_dict(raw)
        if cfg.mode == "mc":
            continue
        out[cfg.name] = build_scenario(cfg)
    return out


def test_01_released_subset_ratio_is_tight():
    t0 = time.perf_counter()
    rep = audit_t5(Fraction(1, 2), 2, Fraction(3, 10), 256, mode=EXACT)
    elapsed = time.perf_counter() - t0
    window = 4 / 256 + 1e-9
    ok = (
        rep.verdict == "pass"
        and rep.computed["delta_gap"] <= window
        and rep.computed["info_vs_tdelta_gap"] <= window
        and elapsed < 10
    )
    _check(
        1,
        ok,
        f"n=256 release: mass gap {rep.computed['delta_gap']:.3e}, "
        f"info gap {rep.computed['info_vs_tdelta_gap']:.3e} within m^2/n, "
        f"{elapsed:.1f}s",
    )


def test_02_memorizer_defeats_mean_risk():
    t0 = time.perf_counter()
    n = 10**6
    domain = Alphabet.of_size("z", n)
    scn = Scenario(
        name="memorizer-million",
        learner=prop1_counterexample(n),
        data_dist=Dist.uniform(domain),
        m=50,
        loss=prop1_paired_loss(),
        seed=0,
    )
    batch = mc.draw_runs(scn, 10_000, seed=0)
    paired = mc.estimate_gen_risk(batch, prop1_paired_loss())
    tail = mc.estimate_tail(batch, prop1_paired_loss(), [0.49]).points[0].estimate
    flipped = mc.estimate_gen_risk(batch, prop1_flipped_loss())
    elapsed = time.perf_counter() - t0
    ok = (
        abs(paired.point) <= 0.02
        and tail >= 0.98
        and flipped.point >= 0.45
        and elapsed < 60
    )
    _check(
        2,
        ok,
        f"paired gen risk {paired.point:+.4f}, P{{|G|>=0.49}} = {tail:.3f}, "
        f"flipped gen risk {flipped.point:.3f}, {elapsed:.1f}s",
    )


def test_03_worst_case_loss_attains_info():
    t0 = time.perf_counter()
    checked, bad = [], []
    for raw in corpus_configs():
        if raw.get("mode", "exact") == "mc":
            continue
        cfg = ScenarioConfig.from_dict({**raw, "numeric": "exact"})
        scn = build_scenario(cfg)
        cells = len(scn.data_dist.alphabet) * len(scn.learner.hypotheses(scn.m))
        if cells > 12:
            continue
        tj = exact_trn_hyp_joint(scn)
        brute_max, _ = exhaustive_binary_loss_max(tj)
        attained = gen_risk_from_joint(tj, worst_case_loss(tj))
        info = variational_info(tj.joint)
        checked.append(cfg.name)
        if not (brute_max == attained == info):
            bad.append(cfg.name)
    elapsed = time.perf_counter() - t0
    ok = not bad and len(checked) >= 8 and elapsed < 120
    _check(
        3,
        ok,
        f"exhaustive sup == worst-case gen risk == vi on {len(checked)} "
        f"small scenarios ({len(bad)} mismatches), {elapsed:.1f}s",
    )


def test_04_chain_rule_fuzz():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(20260814))
    tol = 1e-12
    violations = 0
    for _ in range(1000):
        da, db, dc = (int(rng.integers(2, 5)) for _ in range(3))
        w = rng.dirichlet(np.ones(da * db * dc)).reshape(da, db, dc)
        j = Joint(
            (
                Alphabet.of_size("a", da),
                Alphabet.of_size("b", db),
                Alphabet.of_size("c", dc),
            ),
            w,
        )
        if chain_decompose(j, "a").slack < -tol:
            violations += 1
        if not prop2_gap_check(j).holds(tol):
            violations += 1
        info_ab = variational_info(j.marginal("a", "b"))
        if info_ab > variational_info(j.merge(["b", "c"], "bc")) + tol:
            violations += 1
        info_ac = variational_info(j.marginal("a", "c"))
        cond = conditional_variational_info(j, given="c")
        if info_ab > info_ac + cond + tol:
            violations += 1
    chains = 0
    for _ in range(1000):
        da, db, dc = (int(rng.integers(2, 5)) for _ in range(3))
        a = Alphabet.of_size("a", da)
        b = Alphabet.of_size("b", db)
        c = Alphabet.of_size("c", dc)
        p_a = Dist(a, rng.dirichlet(np.ones(da)))
        k1 = TransitionKernel(a, b, np.stack([rng.dirichlet(np.ones(db)) for _ in range(da)]))
        k2 = TransitionKernel(b, c, np.stack([rng.dirichlet(np.ones(dc)) for _ in range(db)]))
        if not dpi_check(p_a, k1, k2).holds(tol):
            violations += 1
        chains += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30
    _check(
        4,
        ok,
        f"1000 random joints x 4 inequalities + {chains} Markov chains: "
        f"{violations} violations at 1e-12, {elapsed:.1f}s",
    )


def test_05_private_response_audits(corpus_scenarios):
    t0 = time.perf_counter()
    rr = {k: v for k, v in corpus_scenarios.items() if k.startswith("rr-")}
    nominal = sorted({float(s.learner.params["epsilon"]) for s in rr.values()})
    ok = len(rr) == 6 and nominal == pytest.approx([0.1, math.log(2), 1.0])
    worst_eps_err = 0.0
    for name, scn in sorted(rr.items()):
        eps = float(scn.learner.params["epsilon"])
        if scn.m == 1:
            mech = audit_dp_mechanism(scn)
            err = abs(mech.effective_epsilon - eps)
            worst_eps_err = max(worst_eps_err, err)
            ok = ok and err <= 1e-9
        p4 = audit_p4(scn)
        dp = audit_dp(scn)
        ok = ok and p4.verdict == "pass" and dp.verdict == "pass"
        ok = ok and all(row.get("ok", True) for row in dp.series)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10
    _check(
        5,
        ok,
        f"6 response mechanisms: effective-epsilon error <= {worst_eps_err:.2e}, "
        f"info and tail bounds pass on the full grid, {elapsed:.1f}s",
    )


def test_06_tail_bound_statement_forms(corpus_scenarios):
    ok = True
    for name, scn in sorted(corpus_scenarios.items()):
        t4 = audit_t4(scn)
        p3 = audit_p3(scn)
        ok = ok and t4.verdict == "pass" and all(r["ok"] for r in t4.series)
        ok = ok and p3.verdict == "pass" and all(r["ok"] for r in p3.series)
    getcontext().prec = 50
    want = Decimal(25) * (Decimal("0.01") + (Decimal(9).ln() / Decimal(2500)).sqrt())
    got = bounds.t4_statement_bound(0.1, 0.01, 100)
    spot = f"{got:.6g}"
    ok = ok and spot == f"{float(want):.6g}" == "0.991152"
    _check(
        6,
        ok,
        f"vi and Shannon tail bounds pass on {len(corpus_scenarios)} scenarios "
        f"at 9 grid points; spot check bound(0.1, 0.01, 100) = {spot}",
    )


def test_07_sign_side_channel(corpus_scenarios):
    targets = []
    for raw in corpus_configs():
        for entry in raw["audits"]:
            aid = entry if isinstance(entry, str) else entry["id"]
            if aid == "T3":
                targets.append(raw["name"])
    ok = len(targets) >= 3
    for name in targets:
        rep = audit_t3(corpus_scenarios[name], side="sign")
        ok = ok and rep.verdict == "pass" and rep.computed["card_k"] == 3
    _check(
        7,
        ok,
        f"three-valued sign release stays within the pair bound on "
        f"{len(targets)} scenarios: {', '.join(targets)}",
    )


def test_08_selection_consistency(corpus_scenarios):
    rep = audit_erm(corpus_scenarios["erm-threshold"])
    grid = [row["t"] for row in rep.series]
    ok = (
        rep.verdict == "pass"
        and grid == pytest.approx([0.05 * i for i in range(1, 11)])
        and all(row["ok"] for row in rep.series)
    )
    _check(
        8,
        ok,
        f"excess-risk tail <= vi/t at all {len(grid)} grid points "
        f"(worst slack {rep.slack:.4f})",
    )


def _planned_runs(tj, floor: int = 6000, cap: int = 50_000):
    """Run count from a power analysis of the exact joint.

    The plug-in vi is locally linear only once every nonzero cell
    difference clears its own sampling noise (2.5 sd here), and the
    bootstrap only sees support it visits.  Returns (n_runs, covered);
    scenarios needing more than the cap stay uncovered and get the
    tails-only treatment.
    """
    if tj.joint.is_exact:  # each cell and marginal rounded once, as float(Fraction) rounds it
        nums, den = tj.joint.numerators
        p, pz, ph = (int_quotients(x, den) for x in (nums, nums.sum(axis=1), nums.sum(axis=0)))
    else:
        p = tj.joint.weights
        pz, ph = p.sum(axis=1), p.sum(axis=0)
    min_p = float(p[p > 0].min(initial=1.0))
    d = p - pz[:, None] * ph
    p, d = p[d != 0.0], d[d != 0.0]
    needed = float((6.25 * p * (1 - p) / (d * d)).max(initial=0.0))
    n_runs = max(floor, 1000 * math.ceil(needed / 1000))
    if n_runs > cap or min_p * n_runs < 3:
        return floor, False
    return n_runs, True


def test_09_mc_matches_exact(corpus_scenarios):
    reps = 20
    grid = DEFAULT_T_GRID
    all_ok = True
    parts = []
    for name, scn in sorted(corpus_scenarios.items()):
        tj = exact_trn_hyp_joint(scn)
        info_exact = float(variational_info(tj.joint))
        n_runs, covered = _planned_runs(tj)
        law = deviation_law(scn, scn.loss)
        tails_exact = [float(law.tail_abs_ge(t, tol=1e-12)) for t in grid]
        good = 0
        info_points = []
        for r in range(reps):
            batch = mc.draw_runs(scn, n_runs, seed=1000 + r)
            est = mc.estimate_variational_info(batch, seed=1000 + r)
            info_points.append(est.point)
            rep_ok = True
            if covered:
                rep_ok = abs(est.debiased - info_exact) <= 3 * est.se + 1e-12
            report = mc.estimate_tail(batch, scn.loss, grid)
            for pt, p in zip(report.points, tails_exact):
                se = max(
                    math.sqrt(pt.estimate * (1 - pt.estimate) / n_runs),
                    math.sqrt(p * (1 - p) / n_runs),
                    1.0 / n_runs,
                )
                rep_ok = rep_ok and abs(pt.estimate - p) <= 3 * se
            good += rep_ok
        scn_ok = good >= 19
        if not covered:
            scn_ok = scn_ok and statistics.median(info_points) > info_exact
        all_ok = all_ok and scn_ok
        parts.append(f"{name} {good}/{reps}{'' if covered else '*'}")
    _check(
        9,
        all_ok,
        "J and tail estimates within 3 se in >= 19/20 replicates per "
        "scenario (* = support too sparse for the plug-in: tails plus "
        "bias direction only): " + "; ".join(parts),
    )


def test_10_corpus_run_and_mutations(tmp_path):
    t0 = time.perf_counter()
    rc, summary = corpus_run(tmp_path / "full")
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and elapsed < 300
    # constants whose bounds some scenario saturates to within 10%; the
    # rest carry structural slack no honest audit can see through
    detectors = {
        "t1_info_coeff": "identity-m1",
        "t5_ratio_coeff": "t5-tight",
        "c2_rate_coeff": "identity-m1",
    }
    caught = {}
    for key, scenario_name in detectors.items():
        orig = bounds.BOUND_CONSTANTS[key]
        bounds.BOUND_CONSTANTS[key] = orig * Fraction(9, 10)
        try:
            mut_rc, _ = corpus_run(tmp_path / f"mut-{key}", only=[scenario_name])
        finally:
            bounds.BOUND_CONSTANTS[key] = orig
        caught[key] = mut_rc
    ok = ok and all(rc == 1 for rc in caught.values())
    _check(
        10,
        ok,
        f"full corpus exit {rc} in {elapsed:.0f}s; -10% on "
        f"{', '.join(detectors)} each flips a detector scenario to exit 1",
    )
