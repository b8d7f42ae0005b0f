"""Config-driven runs and machine-readable reports.

A scenario config is a JSON object; unknown keys anywhere in it are errors
(exit 2) rather than silent no-ops.  Reports are deterministic for a fixed
config and seed: wall-clock timings live in their own bundle field so the
rest diffs cleanly, and files are written atomically (temp file, then
rename).  Exit codes: 0 all audits pass, 1 some audit fails, 2 config or
I/O error, 3 exact enumeration over budget with no MC fallback allowed.

AUDITS is the one registry of audits: config validation, the MC fallback,
`stabaudit list` and the sample-space walk requests all read it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from . import __version__
from .audits import (
    AuditReport,
    DEFAULT_T_GRID,
    _resolve_side,
    _t5_core,
    audit_c2_forward,
    audit_dp,
    audit_erm,
    audit_p3,
    audit_p4,
    audit_t1,
    audit_t2,
    audit_t3,
    audit_t4,
)
from .bounds import dp_info_bound, dp_tail_bound
from .corpus import LEARNER_BUILDERS, LOSS_BUILDERS, corpus_configs
from .dist import Alphabet, Dist
from .info import variational_info
from .learners import (
    EnumerationBudgetError,
    Scenario,
    collision_budget,
    default_budget,
    enumeration_size,
    exact_trn_hyp_joint,
    mi_request,
    threeway_request,
    trn_hyp_request,
    walk,
)
from .losses import ERM_T_GRID, deviation_request
from .mc import draw_runs, estimate_gen_risk, estimate_tail, estimate_variational_info
from .numeric import EXACT, FLOAT64

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

_TOP_KEYS = frozenset(
    {
        "name",
        "domain",
        "data_dist",
        "learner",
        "loss",
        "m",
        "numeric",
        "mode",
        "seed",
        "t_grid",
        "n_runs",
        "budget",
        "tolerance",
        "audits",
    }
)


class ConfigError(ValueError):
    """The config is malformed; maps to exit code 2."""


def _reject_unknown(raw: Mapping, allowed: frozenset, where: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _require(raw: Mapping, key: str, where: str):
    if key not in raw:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return raw[key]


def _t_grid(raw, where: str) -> tuple:
    grid = tuple(raw)
    if not grid or not all(isinstance(t, (int, float)) and 0 < t < 1 for t in grid):
        raise ConfigError(f"{where}t_grid values must lie strictly inside (0, 1)")
    return grid


@dataclass(frozen=True)
class AuditSpec:
    id: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def to_config(self):
        return self.id if not self.params else {"id": self.id, **self.params}


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    domain: Mapping[str, Any]
    data_dist: Any
    learner: Mapping[str, Any]
    loss: Mapping[str, Any] | None
    m: int
    numeric: str
    mode: str
    seed: int
    t_grid: tuple | None
    n_runs: int
    budget: int | None
    tolerance: float | None
    audits: tuple[AuditSpec, ...]

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ScenarioConfig":
        if not isinstance(raw, Mapping):
            raise ConfigError("config must be a JSON object")
        _reject_unknown(raw, _TOP_KEYS, "config")
        name = _require(raw, "name", "config")
        if not isinstance(name, str) or not name:
            raise ConfigError("name must be a nonempty string")

        domain = _require(raw, "domain", "config")
        if not isinstance(domain, Mapping):
            raise ConfigError("domain must be an object")
        _reject_unknown(domain, frozenset({"size", "symbols"}), "domain")
        if ("size" in domain) == ("symbols" in domain):
            raise ConfigError("domain needs exactly one of size or symbols")

        data_dist = raw.get("data_dist", "uniform")
        if isinstance(data_dist, Mapping):
            _reject_unknown(data_dist, frozenset({"weights", "family", "alpha"}), "data_dist")
            if not ({"weights", "family"} & set(data_dist)):
                raise ConfigError("data_dist object needs weights or family")
            if data_dist.get("family", "power") != "power":
                raise ConfigError(f"unknown data_dist family {data_dist['family']!r}")
        elif data_dist != "uniform":
            raise ConfigError(f"data_dist must be 'uniform' or an object, got {data_dist!r}")

        learner = _require(raw, "learner", "config")
        if not isinstance(learner, Mapping):
            raise ConfigError("learner must be an object")
        _reject_unknown(learner, frozenset({"name", "params"}), "learner")
        lname = _require(learner, "name", "learner")
        if lname not in LEARNER_BUILDERS:
            raise ConfigError(f"unknown learner {lname!r}; known: {sorted(LEARNER_BUILDERS)}")
        _reject_unknown(dict(learner.get("params", {})), LEARNER_BUILDERS[lname][1], f"learner {lname}")

        loss = raw.get("loss")
        if loss is not None:
            if not isinstance(loss, Mapping):
                raise ConfigError("loss must be an object")
            _reject_unknown(loss, frozenset({"name", "params"}), "loss")
            fname = _require(loss, "name", "loss")
            if fname not in LOSS_BUILDERS:
                raise ConfigError(f"unknown loss {fname!r}; known: {sorted(LOSS_BUILDERS)}")
            _reject_unknown(dict(loss.get("params", {})), LOSS_BUILDERS[fname][1], f"loss {fname}")

        m = _require(raw, "m", "config")
        if not isinstance(m, int) or m < 1:
            raise ConfigError(f"m must be a positive integer, got {m!r}")

        numeric = raw.get("numeric", "float")
        if numeric not in ("exact", "float"):
            raise ConfigError(f"numeric must be 'exact' or 'float', got {numeric!r}")
        mode = raw.get("mode", "exact")
        if mode not in ("exact", "mc", "auto"):
            raise ConfigError(f"mode must be 'exact', 'mc', or 'auto', got {mode!r}")

        seed = raw.get("seed", 0)
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

        t_grid = raw.get("t_grid")
        if t_grid is not None:
            t_grid = _t_grid(t_grid, "")

        n_runs = raw.get("n_runs", 10000)
        if not isinstance(n_runs, int) or n_runs < 1:
            raise ConfigError("n_runs must be a positive integer")

        budget = raw.get("budget")
        if budget is not None and (not isinstance(budget, int) or budget < 1):
            raise ConfigError("budget must be a positive integer")

        tolerance = raw.get("tolerance")
        if tolerance is not None and (not isinstance(tolerance, (int, float)) or tolerance < 0):
            raise ConfigError("tolerance must be a nonnegative number")

        audits_raw = _require(raw, "audits", "config")
        if not isinstance(audits_raw, Sequence) or isinstance(audits_raw, str) or not audits_raw:
            raise ConfigError("audits must be a nonempty list")
        audits = []
        for entry in audits_raw:
            if isinstance(entry, str):
                aid, params = entry, {}
            elif isinstance(entry, Mapping):
                aid = _require(entry, "id", "audit entry")
                params = {k: v for k, v in entry.items() if k != "id"}
            else:
                raise ConfigError(f"audit entry must be a string or object, got {entry!r}")
            if aid not in AUDITS:
                raise ConfigError(f"unknown audit id {aid!r}; known: {list(AUDITS)}")
            _reject_unknown(params, frozenset(AUDITS[aid].params), f"audit {aid}")
            if "t_grid" in params:
                params = {**params, "t_grid": _t_grid(params["t_grid"], f"audit {aid}: ")}
            for k, default in AUDITS[aid].params.items():
                if default is _REQUIRED and k not in params:
                    raise ConfigError(f"audit {aid} needs {k!r}")
            audits.append(AuditSpec(id=aid, params=params))

        cfg = cls(
            name=name,
            domain=dict(domain),
            data_dist=data_dist if isinstance(data_dist, str) else dict(data_dist),
            learner={"name": lname, "params": dict(learner.get("params", {}))},
            loss=None if loss is None else {"name": loss["name"], "params": dict(loss.get("params", {}))},
            m=m,
            numeric=numeric,
            mode=mode,
            seed=seed,
            t_grid=t_grid,
            n_runs=n_runs,
            budget=budget,
            tolerance=tolerance,
            audits=tuple(audits),
        )
        if cfg.mode == "mc":
            bad = _not_mc(cfg.audits)
            if bad:
                raise ConfigError(
                    f"audits {bad} need exact enumeration; usable under mode 'mc': "
                    f"{sorted(aid for aid, d in AUDITS.items() if d.mc)}"
                )
        return cfg

    def override(self, **kw) -> "ScenarioConfig":
        """Return a copy with non-None overrides applied and revalidated."""
        raw = self.to_dict()
        for k, v in kw.items():
            if v is not None:
                raw[k] = v
        return ScenarioConfig.from_dict(raw)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "domain": dict(self.domain),
            "data_dist": self.data_dist,
            "learner": {"name": self.learner["name"], "params": dict(self.learner["params"])},
            "m": self.m,
            "numeric": self.numeric,
            "mode": self.mode,
            "seed": self.seed,
            "n_runs": self.n_runs,
            "audits": [a.to_config() for a in self.audits],
        }
        if self.loss is not None:
            out["loss"] = {"name": self.loss["name"], "params": dict(self.loss["params"])}
        if self.t_grid is not None:
            out["t_grid"] = list(self.t_grid)
        if self.budget is not None:
            out["budget"] = self.budget
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        return out


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Materialize the alphabet, distribution, learner, and loss."""
    mode = EXACT if cfg.numeric == "exact" else FLOAT64
    if "size" in cfg.domain:
        size = cfg.domain["size"]
        if not isinstance(size, int) or size < 1:
            raise ConfigError("domain size must be a positive integer")
        domain = Alphabet.of_size("z", size)
    else:
        symbols = cfg.domain["symbols"]
        try:
            domain = Alphabet("z", tuple(symbols))
        except ValueError as e:
            raise ConfigError(str(e)) from None

    if cfg.data_dist == "uniform":
        dist = Dist.uniform(domain, mode)
    elif "weights" in cfg.data_dist:
        weights = cfg.data_dist["weights"]
        if len(weights) != len(domain):
            raise ConfigError(f"{len(weights)} weights for {len(domain)} symbols")
        try:
            dist = Dist.from_mapping(
                domain, dict(zip(domain.symbols, weights)), mode
            )
        except (ValueError, TypeError) as e:
            raise ConfigError(f"bad data_dist weights: {e}") from None
    elif "family" in cfg.data_dist:
        family = cfg.data_dist["family"]
        if family != "power":
            raise ConfigError(f"unknown data_dist family {family!r}")
        if mode.exact:
            raise ConfigError("the power family is float-only; give explicit weights for exact mode")
        alpha = cfg.data_dist.get("alpha", 1.0)
        raw = [(i + 1) ** (-float(alpha)) for i in range(len(domain))]
        total = sum(raw)
        dist = Dist(domain, [w / total for w in raw])
    else:
        raise ConfigError("data_dist object needs weights or family")

    builder, _ = LEARNER_BUILDERS[cfg.learner["name"]]
    try:
        learner = builder(domain, cfg.learner["params"], mode)
    except (ValueError, TypeError, KeyError) as e:
        raise ConfigError(f"learner {cfg.learner['name']}: {e}") from None

    loss = None
    if cfg.loss is not None:
        loss_builder, _ = LOSS_BUILDERS[cfg.loss["name"]]
        ctx = {
            "domain": domain,
            "learner": learner,
            "m": cfg.m,
            "seed": cfg.seed,
            "mode": mode,
            "params": cfg.loss["params"],
        }
        try:
            loss = loss_builder(ctx)
        except (ValueError, TypeError, KeyError) as e:
            raise ConfigError(f"loss {cfg.loss['name']}: {e}") from None

    try:
        return Scenario(
            name=cfg.name, learner=learner, data_dist=dist, m=cfg.m, loss=loss, seed=cfg.seed
        )
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _mc_t1(scenario: Scenario, p: Mapping, est: Mapping) -> AuditReport:
    info_est, gen_est = est["info"], est["gen_risk"]
    if gen_est is None:
        raise ConfigError("MC T1 audit needs a loss")
    margin = 3 * (gen_est.se + info_est.se)
    ok = abs(gen_est.point) <= info_est.point + margin
    return AuditReport(
        scenario=scenario.name,
        theorem="T1",
        verdict="pass" if ok else "fail",
        computed={
            "abs_gen_risk_estimate": abs(gen_est.point),
            "info_estimate": info_est.point,
            "margin_3se": margin,
        },
        bound=info_est.point + margin,
        slack=info_est.point + margin - abs(gen_est.point),
        notes=("statistical check at 3 standard errors",) + tuple(info_est.notes),
    )


def _mc_p4(scenario: Scenario, p: Mapping, est: Mapping) -> AuditReport:
    info_est = est["info"]
    bound = dp_info_bound(p["epsilon"] or scenario.learner.params.get("epsilon"), p["delta"])
    ok = info_est.point - 3 * info_est.se <= bound
    return AuditReport(
        scenario=scenario.name,
        theorem="P4",
        verdict="pass" if ok else "fail",
        computed={"info_estimate": info_est.point, "se": info_est.se},
        bound=bound,
        slack=bound - info_est.point,
        notes=("statistical check: lower 3-SE edge against the bound",),
    )


def _mc_c1(scenario: Scenario, p: Mapping, est: Mapping) -> AuditReport:
    tail_rep = est["tails"]
    if tail_rep is None:
        raise ConfigError("MC C1 audit needs a loss")
    epsilon = p["epsilon"] or scenario.learner.params.get("epsilon")
    rows = []
    ok = True
    worst = None
    for pt in tail_rep.points:
        bound = dp_tail_bound(pt.t, epsilon, p["delta"], scenario.m)
        good = pt.ci_low <= bound
        ok = ok and good
        rows.append({"t": pt.t, "tail": pt.estimate, "ci_low": pt.ci_low, "bound": bound, "ok": good})
        slack = bound - pt.estimate
        if worst is None or slack < worst[0]:
            worst = (slack, bound)
    return AuditReport(
        scenario=scenario.name,
        theorem="C1",
        verdict="pass" if ok else "fail",
        computed={"worst_slack": worst[0]},
        bound=worst[1],
        slack=worst[0],
        notes=("statistical check: Wilson lower edges against the bound",),
        series=tuple(rows),
    )


#: marks an audit parameter the config must give
_REQUIRED = object()


@dataclass(frozen=True)
class AuditDef:
    """One audit.

    params maps each parameter to its default; a t_grid default of None
    stands for the config's t_grid.  needs names the walk results the audit
    reads (keys of _WALK_RESULTS).  exact(scenario, kwargs) runs the audit
    with the resolved params plus budget and tol as keyword arguments;
    mc(scenario, params, estimates), when given, runs it from Monte Carlo
    estimates.
    """

    params: Mapping[str, Any]
    needs: tuple[str, ...]
    exact: Callable[..., AuditReport]
    mc: Callable[..., AuditReport] | None = None


# The exact forms look the audit functions up by module-level name at call
# time, so rebinding a name (as tracing does) takes effect.  C2-forward
# also reads the deviation law of the worst-case loss, which needs the
# finished joint and so walks on its own.
AUDITS: dict[str, AuditDef] = {
    "T1": AuditDef({}, ("joint",), lambda s, kw: audit_t1(s, **kw), _mc_t1),
    "T2": AuditDef({"side": "duplicate", "threshold": 0.25}, ("threeway",), lambda s, kw: audit_t2(s, **kw)),
    "T3": AuditDef({"side": "sign", "threshold": 0.25}, ("threeway",), lambda s, kw: audit_t3(s, **kw)),
    "T4": AuditDef({"t_grid": None}, ("joint", "deviation_law"), lambda s, kw: audit_t4(s, **kw)),
    "P3": AuditDef({"t_grid": None}, ("mi", "deviation_law"), lambda s, kw: audit_p3(s, **kw)),
    "C1": AuditDef(
        {"epsilon": None, "delta": 0, "t_grid": None},
        ("joint", "deviation_law"),
        lambda s, kw: audit_dp(s, **kw),
        _mc_c1,
    ),
    "P4": AuditDef({"epsilon": None, "delta": 0}, ("joint",), lambda s, kw: audit_p4(s, **kw), _mc_p4),
    "T5": AuditDef({"tol": 1e-9}, ("joint", "deviation_law"), lambda s, kw: _t5_core(s, **kw)),
    "C2-forward": AuditDef(
        {"epsilon": _REQUIRED, "delta": _REQUIRED}, ("joint",), lambda s, kw: audit_c2_forward(s, **kw)
    ),
    "ERM": AuditDef({"t_grid": ERM_T_GRID}, ("joint",), lambda s, kw: audit_erm(s, **kw)),
}


def _params(spec: AuditSpec, cfg: ScenarioConfig) -> dict:
    p = {**AUDITS[spec.id].params, **spec.params}
    if "t_grid" in p and p["t_grid"] is None:
        p["t_grid"] = cfg.t_grid or DEFAULT_T_GRID
    return p


def _not_mc(specs: Sequence[AuditSpec]) -> list[str]:
    return [a.id for a in specs if AUDITS[a.id].mc is None]


def _side_request(scenario: Scenario, p: Mapping):
    try:
        side = _resolve_side(scenario, p["side"], p["threshold"])
    except ValueError:
        return None  # the audit itself reports the bad side
    return threeway_request(scenario, side)


#: walk result name -> its request, or None where the audit itself fails
_WALK_RESULTS: dict[str, Callable] = {
    "joint": lambda s, p: trn_hyp_request(s),
    "threeway": _side_request,
    "deviation_law": lambda s, p: None if s.loss is None else deviation_request(s, s.loss),
    "mi": lambda s, p: mi_request(s),
}


def _walk_requests(scenario: Scenario, cfg: ScenarioConfig, room: int) -> list:
    """What the audits read from the walk, plus the joint the quantities read.

    A request costing more than room walks is left to its audit, so budget
    errors still come in audit order.
    """
    requests = {"trn_hyp_joint": trn_hyp_request(scenario)}
    for spec in cfg.audits:
        p = _params(spec, cfg)
        for need in AUDITS[spec.id].needs:
            req = _WALK_RESULTS[need](scenario, p)
            if req is not None and req.factor <= room:
                requests.setdefault(req.key, req)
    return list(requests.values())


def _mc_audits(cfg: ScenarioConfig, scenario: Scenario, specs) -> tuple[list, dict]:
    batch = draw_runs(scenario, cfg.n_runs, seed=cfg.seed)
    info_est = estimate_variational_info(batch)
    estimates = {
        "info": {
            "point": info_est.point,
            "se": info_est.se,
            "ci_low": info_est.ci_low,
            "ci_high": info_est.ci_high,
            "n_runs": info_est.n_runs,
            "notes": list(info_est.notes),
        }
    }
    grid = cfg.t_grid or DEFAULT_T_GRID
    gen_est = tail_rep = None
    if scenario.loss is not None:
        gen_est = estimate_gen_risk(batch, scenario.loss)
        tail_rep = estimate_tail(batch, scenario.loss, grid)
        estimates["gen_risk"] = {
            "point": gen_est.point,
            "se": gen_est.se,
            "ci_low": gen_est.ci_low,
            "ci_high": gen_est.ci_high,
        }
        estimates["mean_abs_deviation"] = {
            "point": tail_rep.mean_abs_deviation.point,
            "se": tail_rep.mean_abs_deviation.se,
        }
        estimates["tails"] = [
            {"t": pt.t, "estimate": pt.estimate, "ci_low": pt.ci_low, "ci_high": pt.ci_high}
            for pt in tail_rep.points
        ]
    est = {"info": info_est, "gen_risk": gen_est, "tails": tail_rep}
    reports = [AUDITS[spec.id].mc(scenario, _params(spec, cfg), est) for spec in specs]
    return reports, estimates


def run_config(
    raw_config: Mapping | ScenarioConfig,
    overrides: Mapping[str, Any] | None = None,
    out_dir: str | os.PathLike | None = None,
) -> tuple[int, dict]:
    """Run one scenario config; returns (exit_code, report_bundle)."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    try:
        cfg = raw_config if isinstance(raw_config, ScenarioConfig) else ScenarioConfig.from_dict(raw_config)
        if overrides:
            cfg = cfg.override(**overrides)
        scenario = build_scenario(cfg)
    except ConfigError as e:
        return EXIT_CONFIG, {"error": str(e), "exit_code": EXIT_CONFIG}

    notes: list[str] = []
    method = cfg.mode
    budget = cfg.budget if cfg.budget is not None else default_budget()
    if method in ("exact", "auto"):
        needed = enumeration_size(len(scenario.learner.domain), cfg.m, scenario.learner.symmetric)
        if needed > budget:
            if method == "auto":
                bad = _not_mc(cfg.audits)
                if not bad:
                    method = "mc"
                    notes.append(
                        f"enumeration needs {needed} kernel evaluations (budget {budget}); fell back to MC"
                    )
                else:
                    bundle = {
                        "error": f"budget exceeded ({needed} > {budget}) and audits {bad} cannot run under MC",
                        "exit_code": EXIT_BUDGET,
                    }
                    return EXIT_BUDGET, bundle
            else:
                bundle = {
                    "error": f"exact enumeration needs {needed} kernel evaluations, budget is {budget}",
                    "exit_code": EXIT_BUDGET,
                }
                return EXIT_BUDGET, bundle
        else:
            method = "exact"

    reports: list[AuditReport] = []
    estimates: dict = {}
    quantities: dict = {}
    try:
        if method == "exact":
            tw = time.perf_counter()
            walk(scenario, _walk_requests(scenario, cfg, budget // needed), budget=cfg.budget)
            timings["walk"] = time.perf_counter() - tw
            for spec in cfg.audits:
                ta = time.perf_counter()
                kwargs = {"budget": cfg.budget, "tol": cfg.tolerance, **_params(spec, cfg)}
                reports.append(AUDITS[spec.id].exact(scenario, kwargs))
                timings[f"audit_{spec.id}"] = time.perf_counter() - ta
            tj = exact_trn_hyp_joint(scenario, budget=cfg.budget)
            quantities = {
                "info": float(variational_info(tj.joint)),
                "kernel_evals": tj.kernel_evals,
                "enumeration": tj.method,
                "collision_budget": float(collision_budget(scenario)),
                "hypothesis_count": len(tj.joint.axes[1]),
            }
        else:
            ta = time.perf_counter()
            reports, estimates = _mc_audits(cfg, scenario, cfg.audits)
            timings["mc"] = time.perf_counter() - ta
    except EnumerationBudgetError as e:
        return EXIT_BUDGET, {"error": str(e), "exit_code": EXIT_BUDGET}
    except ValueError as e:  # a ConfigError, or a config the audits or the kernel reject
        return EXIT_CONFIG, {"error": str(e), "exit_code": EXIT_CONFIG}
    finally:
        scenario.clear_cache()  # the joints and tables of this run are not read again

    any_fail = any(r.verdict == "fail" for r in reports)
    exit_code = EXIT_FAIL if any_fail else EXIT_PASS
    timings["total"] = time.perf_counter() - t0
    bundle = {
        "schema_version": 1,
        "package": {"name": "stabaudit", "version": __version__},
        "config": cfg.to_dict(),
        "method": method,
        "quantities": quantities,
        "estimates": estimates,
        "audits": [r.to_dict() for r in reports],
        "notes": notes,
        "exit_code": exit_code,
        "timings": timings,
    }
    nulled: list[str] = []
    bundle = _null_non_finite(bundle, "", nulled)
    if nulled:
        bundle["notes"].append(f"non-finite values written as null: {', '.join(nulled)}")
    if out_dir is not None:
        try:
            write_bundle(bundle, out_dir)
        except OSError as e:
            return EXIT_CONFIG, {"error": f"cannot write report: {e}", "exit_code": EXIT_CONFIG}
    return exit_code, bundle


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(_finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    return True


def _null_non_finite(value, path: str, nulled: list):
    """value with inf and nan replaced by None, copying only the containers
    that hold them; their paths go to nulled."""
    if _finite(value):
        return value
    if isinstance(value, float):
        nulled.append(path)
        return None
    if isinstance(value, dict):
        return {k: _null_non_finite(v, f"{path}.{k}" if path else k, nulled) for k, v in value.items()}
    return [_null_non_finite(v, f"{path}[{i}]", nulled) for i, v in enumerate(value)]


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o644)  # mkstemp creates 0600; reports stay world-readable
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _summary_rows(bundles: Sequence[Mapping]) -> list[dict]:
    rows = []
    for b in bundles:
        for r in b.get("audits", ()):
            rows.append(
                {
                    "scenario": r["scenario"],
                    "theorem": r["theorem"],
                    "verdict": r["verdict"],
                    "computed": repr(r["bound"] - r["slack"]),
                    "bound": repr(r["bound"]),
                    "slack": repr(r["slack"]),
                }
            )
    return rows


def _csv_text(rows: Sequence[Mapping], columns: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in columns})
    return buf.getvalue()


def write_bundle(bundle: Mapping, out_dir: str | os.PathLike) -> None:
    """Write report.json, summary.csv, and one series CSV per gridded audit."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = _safe_name(bundle["config"]["name"]) if "config" in bundle else "report"
    _atomic_write(out / f"{name}.json", _json_text(bundle))
    rows = _summary_rows([bundle])
    _atomic_write(
        out / f"{name}_summary.csv",
        _csv_text(rows, ["scenario", "theorem", "verdict", "computed", "bound", "slack"]),
    )
    for r in bundle.get("audits", ()):
        if r.get("series"):
            cols = list(r["series"][0].keys())
            series_rows = [{k: repr(v) if isinstance(v, float) else v for k, v in row.items()} for row in r["series"]]
            _atomic_write(
                out / f"{name}__{_safe_name(r['theorem'])}.csv",
                _csv_text(series_rows, cols),
            )


def corpus_run(
    out_dir: str | os.PathLike | None = None,
    only: Sequence[str] | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> tuple[int, dict]:
    """Run the built-in corpus; exit 0 only if every audit passes."""
    t0 = time.perf_counter()
    configs = corpus_configs()
    if only:
        wanted = set(only)
        known = {c["name"] for c in configs}
        missing = wanted - known
        if missing:
            return EXIT_CONFIG, {"error": f"unknown corpus scenarios {sorted(missing)}", "exit_code": EXIT_CONFIG}
        configs = tuple(c for c in configs if c["name"] in wanted)
    bundles = []
    codes = []
    for raw in configs:
        code, bundle = run_config(raw, overrides=overrides)
        codes.append(code)
        bundles.append(bundle)
    if EXIT_CONFIG in codes:
        overall = EXIT_CONFIG
    elif EXIT_BUDGET in codes:
        overall = EXIT_BUDGET
    elif EXIT_FAIL in codes:
        overall = EXIT_FAIL
    else:
        overall = EXIT_PASS
    consolidated = {
        "schema_version": 1,
        "package": {"name": "stabaudit", "version": __version__},
        "scenarios": bundles,
        "exit_code": overall,
        "timings": {"total": time.perf_counter() - t0},
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _atomic_write(out / "corpus.json", _json_text(consolidated))
        rows = _summary_rows([b for b in bundles if "audits" in b])
        _atomic_write(
            out / "corpus_summary.csv",
            _csv_text(rows, ["scenario", "theorem", "verdict", "computed", "bound", "slack"]),
        )
        for b in bundles:
            if "config" in b:
                write_bundle(b, out / "scenarios")
    return overall, consolidated
