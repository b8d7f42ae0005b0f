"""Config-driven runs and machine-readable reports.

A scenario config is a JSON object whose keys are the fields of
ScenarioConfig; a malformed or unknown key anywhere in it, including a
number that is not finite, is an error (exit 2), never a silent no-op or
a traceback.  Reports are deterministic for a fixed config and seed:
wall-clock timings live in their own bundle field so the rest diffs
cleanly.  A report file is json.dumps(indent=2, sort_keys=True) text of
strict JSON, with non-finite values written as null, and files are
written atomically (temp file, then rename).  Exit codes: 0 all audits
pass, 1 some audit fails, 2 config or I/O error, 3 exact enumeration over
budget with no MC fallback allowed.

AUDITS is the one registry of audits: config validation, the MC fallback,
`stabaudit list` and the sample-space walk requests all read it.
"""

from __future__ import annotations

import csv
import io
import json
import locale
import math
import os
import re
import stat
import tempfile
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Sequence

from . import __version__
from .audits import (
    AuditReport,
    DEFAULT_T_GRID,
    _mc_c1, _mc_p4, _mc_t1,
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
    declared_epsilon,
)
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
from .mc import VIBootstrap, draw_runs, estimate_gen_risk, estimate_tail, estimate_variational_info
from .numeric import EXACT, FLOAT64, coerce_number

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
#: the exit codes from lowest priority to highest; a corpus run exits with
#: the highest of its scenarios'
_EXIT_PRIORITY = (EXIT_PASS, EXIT_FAIL, EXIT_BUDGET, EXIT_CONFIG)


class ConfigError(ValueError):
    """The config is malformed; maps to exit code 2."""


def _failed(code: int, message: str) -> tuple[int, dict]:
    """The exit code and bundle of a run that stopped with an error."""
    return code, {"error": message, "exit_code": code}


#: marks a config key or audit parameter the config must give
_REQUIRED = object()

# A check takes a value and the path it is reported under, and returns the
# value to keep or raises ConfigError.


def _object(value, where: str, checks: Mapping[str, Callable], required=()) -> dict:
    """The keys value gives, each through its check.  An unknown key, or a
    required one that is missing or null, is an error."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    unknown = set(value) - set(checks)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    for key in required:
        if value.get(key) is None:
            raise ConfigError(f"{where} needs {key!r}")
    return {k: checks[k](v, f"{where}.{k}") for k, v in value.items()}


def _any(value, where: str):
    return value


def _optional(check: Callable) -> Callable:
    return lambda value, where: None if value is None else check(value, where)


def _list(value, where: str):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


def _number(low=None, kinds=(int, float)) -> Callable:
    """Check of a finite number of the given kinds, at least low; a bool is none."""
    what = ("an integer" if kinds is int else "a finite number") + ("" if low is None else f" >= {low}")

    def check(value, where: str):
        number = not isinstance(value, bool) and isinstance(value, kinds) and -math.inf < value < math.inf
        if not number or (low is not None and value < low):
            raise ConfigError(f"{where} must be {what}, got {value!r}")
        return value

    return check


_real = _number()


def _one_of(*options: str) -> Callable:
    def check(value, where: str) -> str:
        if not isinstance(value, str) or value not in options:
            raise ConfigError(f"{where} must be one of {list(options)}, got {value!r}")
        return value

    return check


def _name(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a nonempty string")
    return value


def _t_grid(value, where: str) -> tuple:
    grid = tuple(_list(value, where))
    if not grid or not all(0 < _real(t, where) < 1 for t in grid):
        raise ConfigError(f"{where} values must lie strictly inside (0, 1)")
    return grid


def _domain(value, where: str) -> dict:
    domain = _object(value, where, {"size": _number(1, int), "symbols": _list})
    if len(domain) != 1:
        raise ConfigError(f"{where} needs exactly one of size or symbols")
    return domain


def _data_dist(value, where: str):
    if value == "uniform":
        return value
    if isinstance(value, str):
        raise ConfigError(f"{where} must be 'uniform' or an object, got {value!r}")
    spec = _object(value, where, {"weights": _list, "family": _one_of("power"), "alpha": _real})
    if not {"weights", "family"} & spec.keys():
        raise ConfigError(f"{where} needs weights or family")
    if "weights" in spec and {"family", "alpha"} & spec.keys():
        raise ConfigError(f"{where} takes weights or family and alpha, not both")
    return spec


def _registered(builders: Mapping[str, tuple]) -> Callable:
    """Check of a {"name", "params"} object that names an entry of builders
    and gives only params in that entry's allowed set, each free of nan and
    inf at any depth (no builder takes them)."""
    names = _one_of(*sorted(builders))

    def check(value, where: str) -> dict:
        spec = _object(value, where, {"name": names, "params": _any}, required=("name",))
        allowed = dict.fromkeys(builders[spec["name"]][1], _finite_param)
        return {"name": spec["name"], "params": _object(spec.get("params", {}), f"{where}.params", allowed)}

    return check


def _finite_param(value, where: str):
    if not _finite(value):
        raise ConfigError(f"{where} must hold only finite numbers, got {value!r}")
    return value


@dataclass(frozen=True)
class AuditSpec:
    id: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def to_config(self):
        return self.id if not self.params else {"id": self.id, **self.params}


def _audit(entry, where: str) -> AuditSpec:
    raw = {"id": entry} if isinstance(entry, str) else entry
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where} must be an audit id or object, got {entry!r}")
    aid = _one_of(*AUDITS)(raw.get("id"), f"{where}.id")
    defaults = AUDITS[aid].params
    checks = {"id": _any, **{k: _AUDIT_PARAM_CHECKS[k] for k in defaults}}
    params = _object(raw, where, checks, required=[k for k, d in defaults.items() if d is _REQUIRED])
    del params["id"]
    return AuditSpec(id=aid, params=params)


def _audits(value, where: str) -> tuple[AuditSpec, ...]:
    if not _list(value, where):
        raise ConfigError(f"{where} must be a nonempty list")
    return tuple(_audit(entry, f"{where}[{i}]") for i, entry in enumerate(value))


def _key(check: Callable, default=_REQUIRED):
    """A config key: its default (_REQUIRED when the config must give it) and
    its check.  null stands for a default of None."""
    return field(metadata={"default": default, "check": _optional(check) if default is None else check})


def _plain(value):
    """value as JSON data: tuples become lists, audit specs config entries."""
    if isinstance(value, AuditSpec):
        value = value.to_config()
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked scenario config; each field declares one config key."""

    name: str = _key(_name)
    domain: Mapping[str, Any] = _key(_domain)
    data_dist: Any = _key(_data_dist, "uniform")
    learner: Mapping[str, Any] = _key(_registered(LEARNER_BUILDERS))
    loss: Mapping[str, Any] | None = _key(_registered(LOSS_BUILDERS), None)
    m: int = _key(_number(1, int))
    numeric: str = _key(_one_of("exact", "float"), "float")
    mode: str = _key(_one_of("exact", "mc", "auto"), "exact")
    seed: int = _key(_number(0, int), 0)
    t_grid: tuple | None = _key(_t_grid, None)
    n_runs: int = _key(_number(1, int), 10000)
    budget: int | None = _key(_number(1, int), None)
    tolerance: float | None = _key(_number(0), None)
    audits: tuple[AuditSpec, ...] = _key(_audits)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ScenarioConfig":
        given = _object(raw, "config", _CONFIG_CHECKS, _CONFIG_REQUIRED)
        cfg = cls(**{f.name: given.get(f.name, f.metadata["default"]) for f in fields(cls)})
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
        return ScenarioConfig.from_dict({**self.to_dict(), **{k: v for k, v in kw.items() if v is not None}})

    def to_dict(self) -> dict:
        """The config as JSON data, leaving out keys that are None."""
        return {f.name: _plain(v) for f in fields(self) if (v := getattr(self, f.name)) is not None}


_CONFIG_CHECKS = {f.name: f.metadata["check"] for f in fields(ScenarioConfig)}
_CONFIG_REQUIRED = [f.name for f in fields(ScenarioConfig) if f.metadata["default"] is _REQUIRED]


def _construct(where: str, build: Callable, *args, **kwargs):
    """build(*args, **kwargs), with a value it rejects reported as a ConfigError."""
    try:
        return build(*args, **kwargs)
    except (ValueError, TypeError, KeyError, ArithmeticError) as e:
        raise ConfigError(f"{where}: {e}") from None


def _alphabet(domain: Mapping) -> Alphabet:
    if "size" in domain:
        return Alphabet.of_size("z", domain["size"])
    return Alphabet("z", tuple(domain["symbols"]))


def _distribution(domain: Alphabet, spec, mode) -> Dist:
    if spec == "uniform":
        return Dist.uniform(domain, mode)
    if "weights" in spec:
        weights = spec["weights"]
        if len(weights) != len(domain):
            raise ValueError(f"{len(weights)} weights for {len(domain)} symbols")
        # the i-th weight is the weight of symbol i
        return Dist(domain, [coerce_number(v, mode) for v in weights])
    if mode.exact:
        raise ValueError("the power family is float-only; give explicit weights for exact mode")
    raw = [(i + 1) ** (-float(spec.get("alpha", 1.0))) for i in range(len(domain))]
    total = sum(raw)
    return Dist(domain, [w / total for w in raw])


def build_scenario(cfg: ScenarioConfig) -> Scenario:
    """Materialize the alphabet, distribution, learner, and loss.

    from_dict has checked every key, so what fails here is a value the
    constructors reject, such as weights that do not sum to one.
    """
    mode = EXACT if cfg.numeric == "exact" else FLOAT64
    domain = _construct("domain", _alphabet, cfg.domain)
    dist = _construct("data_dist", _distribution, domain, cfg.data_dist, mode)
    lname = cfg.learner["name"]
    learner = _construct(f"learner {lname}", LEARNER_BUILDERS[lname][0], domain, cfg.learner["params"], mode)
    loss = None
    if cfg.loss is not None:
        ctx = {
            "domain": domain,
            "learner": learner,
            "m": cfg.m,
            "seed": cfg.seed,
            "mode": mode,
            "params": cfg.loss["params"],
        }
        loss = _construct(f"loss {cfg.loss['name']}", LOSS_BUILDERS[cfg.loss["name"]][0], ctx)
    return _construct(
        "scenario", Scenario, name=cfg.name, learner=learner, data_dist=dist, m=cfg.m, loss=loss, seed=cfg.seed
    )


@dataclass(frozen=True)
class AuditDef:
    """One audit.

    params maps each parameter to its default (_REQUIRED when the config
    must give it), checked by _AUDIT_PARAM_CHECKS; a t_grid default of None
    stands for the config's t_grid, and a tol default of None for the
    config's tolerance, else 1e-9.  needs names the walk results the audit
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
    "T5": AuditDef({"tol": None}, ("joint", "deviation_law"), lambda s, kw: _t5_core(s, **kw)),
    "C2-forward": AuditDef(
        {"epsilon": _REQUIRED, "delta": _REQUIRED}, ("joint",), lambda s, kw: audit_c2_forward(s, **kw)
    ),
    "ERM": AuditDef({"t_grid": ERM_T_GRID}, ("joint",), lambda s, kw: audit_erm(s, **kw)),
}

#: audit parameter -> its check, shared by every audit that takes it
_AUDIT_PARAM_CHECKS: dict[str, Callable] = {
    "epsilon": _optional(_real),  # null: the learner's declared epsilon
    "delta": _real,
    "threshold": _real,
    "tol": _real,
    "side": _one_of("duplicate", "rerun", "sign"),
    "t_grid": _t_grid,
}


def _params(spec: AuditSpec, cfg: ScenarioConfig) -> dict:
    p = {**AUDITS[spec.id].params, **spec.params}
    if "t_grid" in p and p["t_grid"] is None:
        p["t_grid"] = cfg.t_grid or DEFAULT_T_GRID
    if "tol" in p and p["tol"] is None:
        p["tol"] = 1e-9 if cfg.tolerance is None else cfg.tolerance
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


def _picked(obj, *names: str) -> dict:
    """The named attributes of obj, as a dict."""
    return {name: getattr(obj, name) for name in names}


def _mc_audits(cfg: ScenarioConfig, scenario: Scenario, specs) -> tuple[list, dict]:
    batch = draw_runs(scenario, cfg.n_runs, seed=cfg.seed)
    grid = cfg.t_grid or DEFAULT_T_GRID
    gen_est = tail_rep = None
    # the vi bootstrap draws on its own thread while the other estimates run
    with VIBootstrap(batch) as draws:
        if scenario.loss is not None:
            gen_est = estimate_gen_risk(batch, scenario.loss)
            tail_rep = estimate_tail(batch, scenario.loss, grid)
        info_est = estimate_variational_info(batch, draws=draws)
    interval = ("point", "se", "ci_low", "ci_high")
    estimates = {"info": {**_picked(info_est, *interval, "n_runs"), "notes": list(info_est.notes)}}
    if gen_est is not None:
        estimates["gen_risk"] = _picked(gen_est, *interval)
        estimates["mean_abs_deviation"] = _picked(tail_rep.mean_abs_deviation, "point", "se")
        estimates["tails"] = [_picked(pt, "t", "estimate", "ci_low", "ci_high") for pt in tail_rep.points]
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
        return _failed(EXIT_CONFIG, str(e))

    notes: list[str] = []
    method = cfg.mode
    budget = cfg.budget if cfg.budget is not None else default_budget()
    if method in ("exact", "auto"):
        needed = enumeration_size(len(scenario.learner.domain), cfg.m, scenario.learner.symmetric)
        if needed <= budget:
            method = "exact"
        elif method == "auto" and not (bad := _not_mc(cfg.audits)):
            method = "mc"
            notes.append(f"enumeration needs {needed} kernel evaluations (budget {budget}); fell back to MC")
        elif method == "auto":
            return _failed(EXIT_BUDGET, f"budget exceeded ({needed} > {budget}) and audits {bad} cannot run under MC")
        else:
            return _failed(EXIT_BUDGET, f"exact enumeration needs {needed} kernel evaluations, budget is {budget}")

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
        return _failed(EXIT_BUDGET, str(e))
    except ValueError as e:  # a ConfigError, or a config the audits or the kernel reject
        return _failed(EXIT_CONFIG, str(e))
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
            return _failed(EXIT_CONFIG, f"cannot write report: {e}")
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
    """obj as a report file holds it: indented, key-sorted strict JSON plus a
    newline.  Reports are trees, so json need not check for cycles."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, check_circular=False) + "\n"


def _holds(path: Path, data: bytes) -> bool:
    """Whether path is a file that a write of data would leave as it is: a
    regular file, not a symlink, of mode 0644, owned by this process's user,
    of one link, that holds exactly data.  The path is lstat-ed before it is
    opened, so no FIFO or device is opened; an OSError on the way reads as no."""
    try:
        if not stat.S_ISREG(os.lstat(path).st_mode):
            return False
        # O_NONBLOCK: a FIFO put there since the lstat does not block the open
        fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    except OSError:
        return False
    try:
        st = os.fstat(fd)
        if not stat.S_ISREG(st.st_mode) or stat.S_IMODE(st.st_mode) != 0o644 or st.st_size != len(data):
            return False
        if st.st_uid != os.geteuid() or st.st_nlink != 1:
            return False
        return os.read(fd, len(data) + 1) == data  # a short read compares unequal and writes
    except OSError:
        return False
    finally:
        os.close(fd)


def _atomic_write(path: Path, text: str) -> None:
    """Write text to path through a temp file in its directory and a
    replace, so a reader sees the old file or the new one.  The bytes are
    those a text-mode file writes on POSIX: the locale's preferred encoding,
    no newline translation.  A file that already holds those bytes, as a
    regular 0644 file of this process's user with one link, is left as it is:
    a rerun into the same directory writes byte-identical reports, wall times
    aside, and replacing a file costs several times a read of it.  Such a file
    keeps its inode, times, group and extended attributes, which a write
    would have made anew."""
    data = text.encode(locale.getpreferredencoding(False))
    if _holds(path, data):
        return
    data = memoryview(data)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        try:
            while data:
                data = data[os.write(fd, data) :]
            os.fchmod(fd, 0o644)  # mkstemp creates 0600; reports stay world-readable
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


#: the columns of a summary CSV, one row per audit
SUMMARY_COLUMNS = ("scenario", "theorem", "verdict", "computed", "bound", "slack")


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
    """The rows under a header of columns; a missing key is written as ""
    and a key outside columns is left out."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row.get(k, "") for k in columns] for row in rows)
    return buf.getvalue()


def write_bundle(bundle: Mapping, out_dir: str | os.PathLike) -> None:
    """Write report.json, summary.csv, and one series CSV per gridded audit:
    <name>__<theorem>.csv, and <name>__<theorem>-2.csv, -3, ... for later
    audits of the same theorem."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = _safe_name(bundle["config"]["name"]) if "config" in bundle else "report"
    _atomic_write(out / f"{name}.json", _json_text(bundle))
    rows = _summary_rows([bundle])
    _atomic_write(
        out / f"{name}_summary.csv",
        _csv_text(rows, SUMMARY_COLUMNS),
    )
    seen: dict[str, int] = {}
    for r in bundle.get("audits", ()):
        if r.get("series"):
            cols = list(r["series"][0].keys())
            series_rows = [{k: repr(v) if isinstance(v, float) else v for k, v in row.items()} for row in r["series"]]
            theorem = _safe_name(r["theorem"])
            seen[theorem] = count = seen.get(theorem, 0) + 1
            _atomic_write(
                out / f"{name}__{theorem if count == 1 else f'{theorem}-{count}'}.csv",
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
            return _failed(EXIT_CONFIG, f"unknown corpus scenarios {sorted(missing)}")
        configs = tuple(c for c in configs if c["name"] in wanted)
    bundles = [run_config(raw, overrides=overrides)[1] for raw in configs]
    overall = max((b["exit_code"] for b in bundles), key=_EXIT_PRIORITY.index, default=EXIT_PASS)
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
            _csv_text(rows, SUMMARY_COLUMNS),
        )
        for b in bundles:
            if "config" in b:
                write_bundle(b, out / "scenarios")
    return overall, consolidated
