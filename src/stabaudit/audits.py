"""Bound audits: exact quantities checked against closed-form guarantees.

Each audit enumerates whatever it needs (training joint, deviation law,
side-information joint, mutual information) exactly, evaluates the
corresponding closed-form bound, and returns an AuditReport with the
computed quantities, the binding bound, the worst slack, and a verdict.
Slack is bound minus computed, so negative slack means a violation.
Audits are referenced by short ids (T1, T2, T3, T4, P3, C1, P4, T5,
C2-forward, ERM) in configs and reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Sequence

from . import bounds
from .dist import Alphabet, Dist
from .info import chain_decompose, variational_info
from .learners import (
    Scenario,
    SideInfoKernel,
    deviation_sign_side_info,
    duplicate_side_info,
    effective_epsilon,
    exact_threeway_joint,
    exact_trn_hyp_joint,
    rerun_side_info,
    sample_hypothesis_mutual_info,
    subsample_release,
    trn_hyp_request,
    walk,
)
from .losses import (
    ERM_T_GRID,
    ParametricLoss,
    constant_loss,
    deviation_law,
    deviation_request,
    erm_consistency_bound,
    gen_risk_from_joint,
    membership_loss,
    random_table_loss,
    worst_case_loss,
    zero_one_loss,
)
from .numeric import EXACT, NumericMode

DEFAULT_T_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

AUDIT_IDS = ("T1", "T2", "T3", "T4", "P3", "C1", "P4", "T5", "C2-forward", "ERM")


@dataclass(frozen=True)
class AuditReport:
    scenario: str
    theorem: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    computed: Mapping[str, float]
    bound: float
    slack: float
    notes: tuple[str, ...] = ()
    series: tuple = ()

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "theorem": self.theorem,
            "verdict": self.verdict,
            "computed": {k: v for k, v in self.computed.items()},
            "bound": self.bound,
            "slack": self.slack,
            "notes": list(self.notes),
            "series": [dict(row) for row in self.series],
        }


def _tol(scenario: Scenario, tol):
    return scenario.data_dist.mode.tolerance if tol is None else tol


def declared_epsilon(scenario: Scenario, epsilon):
    """The audit's epsilon; None stands for the learner's declared one."""
    if epsilon is None:
        epsilon = scenario.learner.params.get("epsilon")
    if epsilon is None:
        raise ValueError("audit needs the declared epsilon")
    return epsilon


def default_battery(tj, seed: int, loss: ParametricLoss | None = None) -> tuple[ParametricLoss, ...]:
    """Losses probed by the gen-risk audit: fixed shapes, seeded tables, the
    scenario's loss when given, and the exact maximizer."""
    hyp = tj.joint.axes[1]
    domain = tj.joint.axes[0]
    battery = [constant_loss(1)]
    if all(isinstance(h, tuple) for h in hyp.symbols):
        battery.append(membership_loss())
    if all(h in domain.index for h in hyp.symbols):
        battery.append(zero_one_loss())
    battery.append(random_table_loss(domain, hyp, seed=seed * 1000 + 11))
    battery.append(random_table_loss(domain, hyp, seed=seed * 1000 + 12))
    if loss is not None:
        battery.append(loss)
    battery.append(worst_case_loss(tj))
    return tuple(battery)


def audit_t1(
    scenario: Scenario,
    losses: Sequence[ParametricLoss] | None = None,
    budget: int | None = None,
    tol=None,
) -> AuditReport:
    """|expected generalization risk| <= vi(Z_trn; H), over a battery of losses."""
    tol = _tol(scenario, tol)
    tj = exact_trn_hyp_joint(scenario, budget=budget)
    info = variational_info(tj.joint)
    bound = bounds.t1_bound(info)
    battery = losses if losses is not None else default_battery(tj, scenario.seed, scenario.loss)
    series = []
    worst = None
    ok = True
    for loss in battery:
        g = gen_risk_from_joint(tj, loss)
        a = abs(g)
        good = a <= bound + tol
        ok = ok and good
        series.append(
            {"loss": loss.name, "gen_risk": float(g), "abs_gen_risk": float(a), "ok": good}
        )
        if worst is None or a > worst[1]:
            worst = (loss.name, a)
    notes = [f"battery of {len(battery)} losses; maximum attained by {worst[0]}"]
    return AuditReport(
        scenario=scenario.name,
        theorem="T1",
        verdict="pass" if ok else "fail",
        computed={
            "info": float(info),
            "max_abs_gen_risk": float(worst[1]),
            "argmax_loss_is_worst_case": float(worst[0] == "worst_case"),
        },
        bound=float(bound),
        slack=float(bound) - float(worst[1]),
        notes=tuple(notes),
        series=tuple(series),
    )


def _resolve_side(scenario: Scenario, side, threshold) -> SideInfoKernel:
    if isinstance(side, SideInfoKernel):
        return side
    if side in (None, "duplicate"):
        return duplicate_side_info(scenario.learner)
    if side == "rerun":
        return rerun_side_info(scenario.learner)
    if side == "sign":
        if scenario.loss is None:
            raise ValueError("deviation-sign side information needs a scenario loss")
        return deviation_sign_side_info(scenario, scenario.loss, threshold)
    raise ValueError(f"unknown side information {side!r}")


def audit_t2(
    scenario: Scenario,
    side: Any = None,
    threshold=0.25,
    budget: int | None = None,
    tol=None,
) -> AuditReport:
    """Chain rule: vi(Z; (H, K)) <= vi(Z; H) + vi(Z; K | H)."""
    tol = _tol(scenario, tol)
    kern = _resolve_side(scenario, side, threshold)
    j3 = exact_threeway_joint(scenario, kern, budget=budget)
    cd = chain_decompose(j3, designated=j3.axes[0].name)
    ok = cd.holds(tol)
    term_sum = sum(cd.terms)
    return AuditReport(
        scenario=scenario.name,
        theorem="T2",
        verdict="pass" if ok else "fail",
        computed={
            "info_merged": float(cd.total),
            "term_sum": float(term_sum),
            **{f"term_{n}": float(v) for n, v in zip(cd.stage_names, cd.terms)},
        },
        bound=float(term_sum),
        slack=float(cd.slack),
        notes=(f"side information: {kern.name}",),
    )


def audit_t3(
    scenario: Scenario,
    side: Any = "sign",
    threshold=0.25,
    budget: int | None = None,
    tol=None,
) -> AuditReport:
    """Pair release: vi(Z; (H, K)) <= (1 + |K|/2) vi(Z; H) + sqrt(log|K| / 2m)."""
    tol = _tol(scenario, tol)
    kern = _resolve_side(scenario, side, threshold)
    j3 = exact_threeway_joint(scenario, kern, budget=budget)
    znm, hnm, knm = j3.axis_names
    info_pair = variational_info(j3.merge([hnm, knm], "hk"))
    info_base = variational_info(j3.marginal(znm, hnm))
    card = len(j3.axes[2])
    stmt = bounds.t3_statement_bound(info_base, card, scenario.m)
    proof = bounds.t3_proof_bound(info_base, card, scenario.m)
    ok = float(info_pair) <= stmt + tol
    return AuditReport(
        scenario=scenario.name,
        theorem="T3",
        verdict="pass" if ok else "fail",
        computed={
            "info_pair": float(info_pair),
            "info_base": float(info_base),
            "card_k": float(card),
            "proof_variant_bound": proof,
            "proof_variant_ok": float(float(info_pair) <= proof + tol),
        },
        bound=stmt,
        slack=stmt - float(info_pair),
        notes=(f"side information: {kern.name}; statement bound is authoritative",),
    )


def _tail_series(law, t_grid, tol, stmt_fn, proof_fn=None):
    series = []
    ok = True
    worst = None
    for t in t_grid:
        tail = float(law.tail_abs_ge(t, tol=tol))
        stmt = stmt_fn(t)
        row = {"t": float(t), "tail": tail, "bound": stmt}
        if proof_fn is not None:
            pv = proof_fn(t)
            row["proof_variant_bound"] = pv
            row["proof_variant_ok"] = tail <= pv + tol
        good = tail <= stmt + tol
        row["ok"] = good
        ok = ok and good
        slack = stmt - tail
        if worst is None or slack < worst[0]:
            worst = (slack, stmt)
        series.append(row)
    return series, ok, worst


def audit_t4(
    scenario: Scenario,
    loss: ParametricLoss | None = None,
    t_grid: Sequence = DEFAULT_T_GRID,
    budget: int | None = None,
    tol=None,
) -> AuditReport:
    """Concentration of |R_emp - R_true| from vi alone:
    P{|G| >= t} <= (5 / 2t) (vi + sqrt(log 9 / 25 m))."""
    tol = _tol(scenario, tol)
    loss = loss or scenario.loss
    if loss is None:
        raise ValueError("tail audit needs a loss")
    tj = exact_trn_hyp_joint(scenario, budget=budget)
    info = variational_info(tj.joint)
    law = deviation_law(scenario, loss, budget=budget)
    m = scenario.m
    series, ok, worst = _tail_series(
        law,
        t_grid,
        tol,
        stmt_fn=lambda t: bounds.t4_statement_bound(t, info, m),
        proof_fn=lambda t: bounds.t4_proof_bound(t, info, m),
    )
    return AuditReport(
        scenario=scenario.name,
        theorem="T4",
        verdict="pass" if ok else "fail",
        computed={"info": float(info), "min_slack": worst[0]},
        bound=worst[1],
        slack=worst[0],
        notes=(f"loss {loss.name}; proof variant reported per grid point",),
        series=tuple(series),
    )


def audit_p3(
    scenario: Scenario,
    loss: ParametricLoss | None = None,
    t_grid: Sequence = DEFAULT_T_GRID,
    budget: int | None = None,
    tol=None,
) -> AuditReport:
    """Concentration from Shannon information:
    P{|G| >= t} <= (1/t) sqrt((I(S; H) + 3) / (2 m))."""
    tol = _tol(scenario, tol)
    loss = loss or scenario.loss
    if loss is None:
        raise ValueError("tail audit needs a loss")
    mi = sample_hypothesis_mutual_info(scenario, budget=budget)
    law = deviation_law(scenario, loss, budget=budget)
    m = scenario.m
    series, ok, worst = _tail_series(
        law,
        t_grid,
        tol,
        stmt_fn=lambda t: bounds.p3_bound(t, mi, m),
        proof_fn=lambda t: bounds.p3_proof_bound(t, mi, m),
    )
    return AuditReport(
        scenario=scenario.name,
        theorem="P3",
        verdict="pass" if ok else "fail",
        computed={"sample_hyp_mutual_info": mi, "min_slack": worst[0]},
        bound=worst[1],
        slack=worst[0],
        notes=(f"loss {loss.name}; I(S;H) in nats",),
        series=tuple(series),
    )


def audit_p4(
    scenario: Scenario,
    epsilon: float | None = None,
    delta=0,
    budget: int | None = None,
    tol=None,
) -> AuditReport:
    """Privacy implies stability: vi <= (e^eps - 1 + delta) / 2."""
    tol = _tol(scenario, tol)
    epsilon = declared_epsilon(scenario, epsilon)
    tj = exact_trn_hyp_joint(scenario, budget=budget)
    info = variational_info(tj.joint)
    bound = bounds.dp_info_bound(epsilon, delta)
    ok = float(info) <= bound + tol
    return AuditReport(
        scenario=scenario.name,
        theorem="P4",
        verdict="pass" if ok else "fail",
        computed={"info": float(info), "epsilon": float(epsilon), "delta": float(delta)},
        bound=bound,
        slack=bound - float(info),
        notes=(),
    )


@dataclass(frozen=True)
class DpMechanismReport:
    """Measured privacy loss of a kernel over adjacent samples."""

    learner_name: str
    m: int
    effective_epsilon: float
    pairs_checked: int
    witness: tuple | None


def audit_dp_mechanism(scenario_or_learner, m: int | None = None, budget: int | None = None) -> DpMechanismReport:
    learner = (
        scenario_or_learner.learner
        if isinstance(scenario_or_learner, Scenario)
        else scenario_or_learner
    )
    if m is None:
        if not isinstance(scenario_or_learner, Scenario):
            raise ValueError("need the sample size m")
        m = scenario_or_learner.m
    eff, checked, witness = effective_epsilon(learner, m, budget=budget)
    return DpMechanismReport(
        learner_name=learner.name,
        m=m,
        effective_epsilon=eff,
        pairs_checked=checked,
        witness=witness,
    )


def audit_dp(
    scenario: Scenario,
    epsilon: float | None = None,
    delta=0,
    t_grid: Sequence = DEFAULT_T_GRID,
    budget: int | None = None,
    tol=None,
) -> AuditReport:
    """Privacy-to-generalization tails, with the mechanism measured first.

    Checks the information bound vi <= (e^eps - 1 + delta)/2 and the tails
    P{|G| >= t} <= (5 / 4t)(e^eps - 1 + delta + sqrt(2 log 9 / 25 m)).
    If the measured privacy loss exceeds the declared epsilon, the premise
    fails and the verdict is inconclusive rather than a bound violation.
    """
    tol = _tol(scenario, tol)
    epsilon = declared_epsilon(scenario, epsilon)
    mech = audit_dp_mechanism(scenario, budget=budget)
    eff = mech.effective_epsilon
    notes = [f"measured effective epsilon {eff!r} over {mech.pairs_checked} adjacent pairs"]
    premise_ok = eff <= float(epsilon) + 1e-9
    tj = exact_trn_hyp_joint(scenario, budget=budget)
    info = variational_info(tj.joint)
    info_bound = bounds.dp_info_bound(epsilon, delta)
    info_ok = float(info) <= info_bound + tol

    loss = scenario.loss
    series: tuple = ()
    tails_ok = True
    worst = (info_bound - float(info), info_bound)
    if loss is not None:
        law = deviation_law(scenario, loss, budget=budget)
        rows, tails_ok, worst_t = _tail_series(
            law,
            t_grid,
            tol,
            stmt_fn=lambda t: bounds.dp_tail_bound(t, epsilon, delta, scenario.m),
        )
        series = tuple(rows)
        if worst_t[0] < worst[0]:
            worst = worst_t

    if not premise_ok:
        verdict = "inconclusive"
        notes.append("declared epsilon understates the mechanism; implication is vacuous here")
    else:
        verdict = "pass" if (info_ok and tails_ok) else "fail"
    return AuditReport(
        scenario=scenario.name,
        theorem="C1",
        verdict=verdict,
        computed={
            "info": float(info),
            "info_bound": info_bound,
            "effective_epsilon": eff,
            "declared_epsilon": float(epsilon),
            "delta": float(delta),
        },
        bound=worst[1],
        slack=worst[0],
        notes=tuple(notes),
        series=series,
    )


def audit_t5(
    t,
    m: int,
    delta,
    domain_size: int,
    mode: NumericMode = EXACT,
    budget: int | None = None,
    tol=1e-9,
) -> AuditReport:
    """Tightness of the ratio law for the released-subset construction.

    Builds the k-of-m release over a uniform domain with k = t m, whose
    deviation mass near t equals vi / t up to the collision correction
    m^2 / n; checks |mass - vi/t| <= m^2/n + tol.
    """
    k = t * m
    if int(k) != k:
        raise ValueError(f"t * m = {k} must be an integer subset size")
    k = int(k)
    domain = Alphabet.of_size("z", domain_size)
    learner = subsample_release(domain, k=k, delta=delta, mode=mode)
    scenario = Scenario(
        name=f"t5[n={domain_size},m={m},k={k},delta={delta}]",
        learner=learner,
        data_dist=Dist.uniform(domain, mode),
        m=m,
        loss=membership_loss(),
    )
    return _t5_core(scenario, budget=budget, tol=tol)


def _t5_core(scenario: Scenario, budget: int | None = None, tol=1e-9) -> AuditReport:
    learner = scenario.learner
    if learner.name != "subsample_release":
        raise ValueError("ratio-law audit applies to the released-subset construction")
    k = learner.params["k"]
    delta = learner.params["delta"]
    m = scenario.m
    n = len(learner.domain)
    t = Fraction(k, m)
    loss = scenario.loss or membership_loss()
    tj, law = walk(scenario, [trn_hyp_request(scenario), deviation_request(scenario, loss)], budget)
    info = variational_info(tj.joint)
    window = Fraction(m * m, n)
    mass = law.mass_abs_near(t, window)
    predicted = bounds.t5_predicted_mass(info, t)
    gap = abs(mass - predicted)
    ok = gap <= window + tol
    return AuditReport(
        scenario=scenario.name,
        theorem="T5",
        verdict="pass" if ok else "fail",
        computed={
            "info": float(info),
            "t": float(t),
            "mass_near_t": float(mass),
            "predicted_mass": float(predicted),
            "gap": float(gap),
            "window": float(window),
            "delta_gap": float(abs(mass - delta)),
            "info_vs_tdelta_gap": float(abs(info - t * delta)),
        },
        bound=float(window + tol),
        slack=float(window + tol - gap),
        notes=(
            f"mass taken within ||G| - t| <= m^2/n = {window}; "
            f"info = {float(info):.12g} vs t*delta = {float(t * delta):.12g}",
        ),
    )


def audit_c2_forward(
    scenario: Scenario,
    epsilon,
    delta,
    budget: int | None = None,
    tol=None,
) -> AuditReport:
    """Robustness implies a uniform rate: if P{|G_worst| > eps} <= delta
    then vi <= eps + delta.  A failed premise yields inconclusive."""
    tol = _tol(scenario, tol)
    tj = exact_trn_hyp_joint(scenario, budget=budget)
    info = variational_info(tj.joint)
    worst = worst_case_loss(tj)
    law = deviation_law(scenario, worst, budget=budget)
    premise_tail = law.tail_abs_gt(epsilon, tol=tol)
    premise_ok = premise_tail <= delta + tol
    rate = bounds.c2_rate(epsilon, delta)
    conclusion_ok = float(info) <= float(rate) + tol
    if not premise_ok:
        verdict = "inconclusive"
        notes = (
            f"premise fails: P{{|G| > eps}} = {float(premise_tail):.6g} > delta = {float(delta):.6g}; "
            "implication is vacuous",
        )
    else:
        verdict = "pass" if conclusion_ok else "fail"
        notes = (f"premise holds: P{{|G| > eps}} = {float(premise_tail):.6g} <= delta",)
    return AuditReport(
        scenario=scenario.name,
        theorem="C2-forward",
        verdict=verdict,
        computed={
            "info": float(info),
            "premise_tail": float(premise_tail),
            "epsilon": float(epsilon),
            "delta": float(delta),
        },
        bound=float(rate),
        slack=float(rate) - float(info),
        notes=notes,
    )


def audit_erm(
    scenario: Scenario,
    t_grid: Sequence = ERM_T_GRID,
    budget: int | None = None,
    tol=None,
) -> AuditReport:
    """Markov control of the excess true risk of the selected hypothesis."""
    tol = _tol(scenario, tol)
    if scenario.loss is None:
        raise ValueError("the consistency audit needs the scenario loss")
    rec = erm_consistency_bound(scenario, scenario.loss, t_grid=t_grid, budget=budget, tol=tol)
    series = tuple(
        {"t": float(t), "tail": float(tail), "bound": float(b), "ok": ok}
        for t, tail, b, ok in rec.curve
    )
    slacks = [float(b) - float(tail) for t, tail, b, ok in rec.curve]
    worst_i = min(range(len(slacks)), key=lambda i: slacks[i])
    return AuditReport(
        scenario=scenario.name,
        theorem="ERM",
        verdict="pass" if rec.holds else "fail",
        computed={
            "info": float(rec.info),
            "mean_excess": float(sum(v * p for v, p in rec.excess_points)),
        },
        bound=float(rec.curve[worst_i][2]),
        slack=slacks[worst_i],
        notes=(f"risk floor at hypothesis {rec.best_hypothesis!r}",),
        series=series,
    )
