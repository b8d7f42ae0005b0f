import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabaudit.audits import AUDIT_IDS
from stabaudit.cli import main
from stabaudit.corpus import CORPUS
from stabaudit.harness import (
    AUDITS,
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    ConfigError,
    ScenarioConfig,
    build_scenario,
    corpus_run,
    run_config,
    write_bundle,
)

BASE = {
    "name": "cli-identity",
    "domain": {"size": 3},
    "learner": {"name": "subsample_release", "params": {"k": 1}},
    "loss": {"name": "membership"},
    "m": 1,
    "numeric": "exact",
    "audits": ["T1", "T2"],
}


def cfg_with(**kw):
    raw = copy.deepcopy(BASE)
    raw.update(kw)
    return raw


# ---------------------------------------------------------------------------
# config validation


def test_minimal_config_parses():
    cfg = ScenarioConfig.from_dict(BASE)
    assert cfg.mode == "exact"  # default
    assert cfg.n_runs == 10000
    assert [a.id for a in cfg.audits] == ["T1", "T2"]


#: malformed configs whose type errors once escaped from_dict as tracebacks
CRASHED_BEFORE = [
    {"t_grid": 5},
    {"audits": [{"id": "T4", "t_grid": 5}]},
    {"domain": {"symbols": 5}},
    {"data_dist": {"weights": 5}},
    {"data_dist": {"family": "power", "alpha": "x"}, "numeric": "float"},
    {"learner": {"name": "subsample_release", "params": 5}},
    {"learner": {"name": ["a"]}},
    {"loss": {"name": "membership", "params": [1]}},
    {"audits": [{"id": ["T1"]}]},
    {"audits": [{"id": "C2-forward", "epsilon": "a", "delta": 0.1}]},
    {"audits": [{"id": "P4", "epsilon": "a"}]},
    {"audits": [{"id": "T3", "threshold": "a"}]},
]


@pytest.mark.parametrize(
    "mutation",
    [
        {"surprise": 1},
        {"name": ""},
        {"domain": {"size": 3, "symbols": [0, 1, 2]}},
        {"domain": {}},
        {"domain": {"cardinality": 3}},
        {"data_dist": "gaussian"},
        {"data_dist": {"family": "zipf"}},
        {"learner": {"name": "mystery"}},
        {"learner": {"name": "subsample_release", "params": {"k": 1, "oops": 2}}},
        {"loss": {"name": "mystery"}},
        {"m": 0},
        {"m": "two"},
        {"numeric": "decimal"},
        {"mode": "magic"},
        {"seed": -1},
        {"t_grid": [0.5, 1.5]},
        {"t_grid": []},
        {"n_runs": 0},
        {"budget": 0},
        {"tolerance": -1},
        {"audits": []},
        {"audits": ["T9"]},
        {"audits": [{"id": "T1", "threshold": 0.5}]},
        {"audits": [{"id": "T4", "t_grid": [0.0, 0.5]}]},
        {"audits": [{"id": "C2-forward", "epsilon": 0.5}]},
        {"audits": [3]},
        *CRASHED_BEFORE,
        # booleans are not integers or numbers
        {"m": True},
        {"seed": True},
        {"domain": {"size": True}},
        {"n_runs": True},
        {"budget": True},
        {"tolerance": True},
        {"audits": [{"id": "T2", "threshold": True}]},
    ],
)
def test_malformed_configs_are_rejected(mutation):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(cfg_with(**mutation))


@pytest.mark.parametrize("mutation", CRASHED_BEFORE[:4])
def test_cli_run_rejects_a_malformed_config_without_a_traceback(tmp_path, capsys, mutation):
    assert main(["run", write_config(tmp_path, cfg_with(**mutation))]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_mc_mode_rejects_exact_only_audits():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(cfg_with(mode="mc", audits=["T1", "T5"]))


def test_power_family_is_float_only():
    raw = cfg_with(data_dist={"family": "power", "alpha": 1.0})
    with pytest.raises(ConfigError):
        build_scenario(ScenarioConfig.from_dict(raw))
    raw["numeric"] = "float"
    scenario = build_scenario(ScenarioConfig.from_dict(raw))
    weights = scenario.data_dist.weights
    assert weights[0] > weights[1] > weights[2]


def test_weights_must_cover_the_domain():
    raw = cfg_with(data_dist={"weights": [0.5, 0.5]})
    with pytest.raises(ConfigError):
        build_scenario(ScenarioConfig.from_dict(raw))


def test_override_revalidates():
    cfg = ScenarioConfig.from_dict(BASE)
    assert cfg.override(seed=7).seed == 7
    assert cfg.override(seed=None).seed == 0  # None means keep
    with pytest.raises(ConfigError):
        cfg.override(mode="magic")


def test_config_round_trips_through_to_dict():
    cfg = ScenarioConfig.from_dict(cfg_with(t_grid=[0.2, 0.4], budget=500, tolerance=1e-9))
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again == cfg


#: one value of each JSON type
JSON_VALUES = (None, True, 3, 0.5, "x", [1], {"a": 1})


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _paths(value, path=()):
    """The path of every value nested in value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _paths(item, path + (key,))


@st.composite
def corrupted_corpus_configs(draw):
    """A corpus config with one key or list entry dropped, or one value,
    at any depth, replaced by a value of another JSON type."""
    raw = copy.deepcopy(draw(st.sampled_from(CORPUS)))
    *head, last = draw(st.sampled_from(list(_paths(raw))))
    parent = raw
    for key in head:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[last]
    else:
        others = [v for v in JSON_VALUES if _json_type(v) != _json_type(parent[last])]
        parent[last] = copy.deepcopy(draw(st.sampled_from(others)))
    return raw


@settings(max_examples=150, deadline=None)
@given(corrupted_corpus_configs())
def test_a_corrupted_config_fails_only_with_a_config_error(raw):
    try:
        cfg = ScenarioConfig.from_dict(raw)
    except ConfigError:
        return
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    try:
        build_scenario(cfg)
    except ConfigError:
        pass


def test_readme_config_schema_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config schema", 1)[1].split("\n#", 1)[0]
    keys = [f.name for f in dataclasses.fields(ScenarioConfig)]
    keys += [p for d in AUDITS.values() for p in d.params]
    assert [k for k in keys if f"`{k}`" not in section] == []


# ---------------------------------------------------------------------------
# run_config


def test_run_config_pass():
    code, bundle = run_config(BASE)
    assert code == EXIT_PASS
    assert bundle["exit_code"] == EXIT_PASS
    assert bundle["method"] == "exact"
    assert bundle["schema_version"] == 1
    assert bundle["quantities"]["info"] == pytest.approx(2 / 3)
    assert bundle["quantities"]["enumeration"] == "exact-multiset"
    assert bundle["quantities"]["hypothesis_count"] == 4
    verdicts = {r["theorem"]: r["verdict"] for r in bundle["audits"]}
    assert verdicts == {"T1": "pass", "T2": "pass"}
    json.dumps(bundle)  # the whole bundle is JSON-safe


def test_run_config_fail_exit_code():
    raw = cfg_with(
        name="cli-rr",
        domain={"size": 2},
        learner={"name": "randomized_response_dp", "params": {"epsilon": 1.0}},
        loss={"name": "zero_one"},
        audits=[{"id": "P4", "epsilon": 0.01}],
    )
    code, bundle = run_config(raw)
    assert code == EXIT_FAIL
    assert bundle["audits"][0]["verdict"] == "fail"


def test_run_config_rejects_bad_raw_dict():
    code, bundle = run_config(cfg_with(mode="magic"))
    assert code == EXIT_CONFIG
    assert "error" in bundle


def test_run_config_budget_exceeded():
    raw = cfg_with(domain={"size": 256}, m=2, budget=10, mode="exact")
    code, bundle = run_config(raw)
    assert code == EXIT_BUDGET
    assert "budget" in bundle["error"]


def test_auto_mode_falls_back_to_mc():
    raw = cfg_with(
        domain={"size": 256},
        m=2,
        budget=10,
        mode="auto",
        audits=["T1"],
        n_runs=400,
    )
    code, bundle = run_config(raw)
    assert code == EXIT_PASS
    assert bundle["method"] == "mc"
    assert any("fell back to MC" in note for note in bundle["notes"])
    assert "info" in bundle["estimates"]
    assert bundle["audits"][0]["theorem"] == "T1"


def test_auto_mode_without_mc_fallback_is_budget_error():
    raw = cfg_with(domain={"size": 256}, m=2, budget=10, mode="auto", audits=["T1", "T4"])
    code, bundle = run_config(raw)
    assert code == EXIT_BUDGET
    assert "T4" in bundle["error"]


def test_run_config_overrides():
    code, bundle = run_config(BASE, overrides={"seed": 9, "mode": None})
    assert code == EXIT_PASS
    assert bundle["config"]["seed"] == 9


# ---------------------------------------------------------------------------
# report files


def test_write_bundle_files(tmp_path):
    raw = cfg_with(audits=["T1", "T4"], t_grid=[0.2, 0.5])
    code, bundle = run_config(raw, out_dir=tmp_path)
    assert code == EXIT_PASS
    report = json.loads((tmp_path / "cli-identity.json").read_text())
    assert report["config"]["name"] == "cli-identity"
    summary = (tmp_path / "cli-identity_summary.csv").read_text().splitlines()
    assert summary[0] == "scenario,theorem,verdict,computed,bound,slack"
    assert len(summary) == 3  # header + one row per audit
    series = (tmp_path / "cli-identity__T4.csv").read_text().splitlines()
    assert len(series) == 3  # header + one row per grid point


def test_reports_are_deterministic_apart_from_timings(tmp_path):
    _, a = run_config(BASE)
    _, b = run_config(BASE)
    a.pop("timings")
    b.pop("timings")
    assert a == b


def test_reports_are_strict_json(tmp_path):
    # a sample release has an unbounded privacy loss
    raw = cfg_with(audits=[{"id": "C1", "epsilon": 1.0}])
    code, bundle = run_config(raw, out_dir=tmp_path)
    assert code == EXIT_PASS

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads((tmp_path / "cli-identity.json").read_text(), parse_constant=refuse)
    assert report["audits"][0]["computed"]["effective_epsilon"] is None
    assert report["notes"] == ["non-finite values written as null: audits[0].computed.effective_epsilon"]
    assert report == json.loads(json.dumps(bundle))


def test_stray_temp_file_survives_a_write(tmp_path):
    stray = tmp_path / "cli-identity.json.tmp"
    stray.write_text("another run's half-written report")
    code, _ = run_config(BASE, out_dir=tmp_path)
    assert code == EXIT_PASS
    assert stray.read_text() == "another run's half-written report"
    assert json.loads((tmp_path / "cli-identity.json").read_text())["config"]["name"] == "cli-identity"
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")) == [stray.name]


def test_bundle_name_is_sanitized(tmp_path):
    raw = cfg_with(name="weird name/42")
    code, _ = run_config(raw, out_dir=tmp_path)
    assert code == EXIT_PASS
    assert (tmp_path / "weird_name_42.json").exists()


# ---------------------------------------------------------------------------
# corpus


def test_corpus_run_unknown_scenario():
    code, bundle = corpus_run(only=["nope"])
    assert code == EXIT_CONFIG
    assert "nope" in bundle["error"]


def test_corpus_run_single_scenario(tmp_path):
    code, bundle = corpus_run(out_dir=tmp_path, only=["identity-m1"])
    assert code == EXIT_PASS
    assert len(bundle["scenarios"]) == 1
    assert (tmp_path / "corpus.json").exists()
    assert (tmp_path / "corpus_summary.csv").exists()
    assert (tmp_path / "scenarios" / "identity-m1.json").exists()


#: configs that validate and build but that an audit or the kernel rejects
REJECTED_AFTER_BUILD = [
    (cfg_with(loss=None, audits=["T4"]), "tail audit needs a loss"),
    (cfg_with(learner={"name": "subsample_release", "params": {"k": 3}}, m=2), "cannot release 3 of 2 entries"),
]
# an epsilon whose e^epsilon overflows a float reaches the DP bounds
for audit in ("P4", "C1"):
    REJECTED_AFTER_BUILD.append(
        (
            cfg_with(
                domain={"size": 2},
                learner={"name": "randomized_response_dp", "params": {"epsilon": 1.0}},
                loss={"name": "zero_one"},
                m=3,
                audits=[{"id": audit, "epsilon": 1000}],
            ),
            "epsilon = 1000 is too large: e^epsilon overflows a float",
        )
    )
REJECTED_IDS = ["t4-no-loss", "k-above-m", "p4-epsilon-overflow", "c1-epsilon-overflow"]


@pytest.mark.parametrize("raw,message", REJECTED_AFTER_BUILD, ids=REJECTED_IDS)
def test_run_config_maps_late_value_errors_to_config_exit(raw, message):
    code, bundle = run_config(raw)
    assert code == EXIT_CONFIG
    assert bundle == {"error": message, "exit_code": EXIT_CONFIG}


def test_run_config_frees_its_scenario_without_a_collection(monkeypatch):
    import gc
    import weakref

    import stabaudit.harness as harness

    built = []

    def build(cfg):
        scenario = build_scenario(cfg)
        built.append(weakref.ref(scenario))
        return scenario

    monkeypatch.setattr(harness, "build_scenario", build)
    gc.disable()
    try:
        code, _ = run_config(cfg_with(audits=["T1", "T2", "T4", "P3"]))
        assert code == EXIT_PASS
        assert built[0]() is None  # no reference cycle keeps the joints alive
    finally:
        gc.enable()


def test_corpus_run_continues_after_a_rejected_scenario(monkeypatch):
    import stabaudit.harness as harness

    bad = cfg_with(name="bad", loss=None, audits=["T4"])
    monkeypatch.setattr(harness, "corpus_configs", lambda: (bad, cfg_with(name="good")))
    code, bundle = corpus_run()
    assert code == EXIT_CONFIG
    first, second = bundle["scenarios"]
    assert first == {"error": "tail audit needs a loss", "exit_code": EXIT_CONFIG}
    assert second["exit_code"] == EXIT_PASS


# ---------------------------------------------------------------------------
# command line


def write_config(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "identity-m1" in out
    assert "T5" in out
    assert "subsample_release" in out


LIST_OUTPUT = """\
corpus scenarios:
  identity-m1: audits T1, T2, T4, P3, C2-forward
  subsample-tiny: audits T1, T2, T3, T4, P3
  subsample-small: audits T1, T3, T4, P3
  subsample-delta: audits T1, T4, P3, T5
  t5-tight: audits T5, T1, T4, P3
  subsample-c2: audits T1, C2-forward, T4
  rr-eps0.1-m1: audits C1, P4, T1, T4
  rr-eps0.1-m3: audits C1, P4, T1, T4
  rr-epsln2-m1: audits C1, P4, T1, T4
  rr-epsln2-m3: audits C1, P4, T1, T4
  rr-eps1.0-m1: audits C1, P4, T1, T4
  rr-eps1.0-m3: audits C1, P4, T1, T4
  erm-threshold: audits T1, T3, T4, P3, ERM
  prop1-small: audits T1, T4, P3
  prop1-flipped-small: audits T1, T4
  prop1-mc: audits T1
  subsample-t1: audits T1, T3, T4, P3
  const-baseline: audits T1, T2, T4
audits: T1, T2, T3, T4, P3, C1, P4, T5, C2-forward, ERM
learners: constant, erm_finite, prop1_counterexample, randomized_response_dp, subsample_release
losses: constant, erm_table, membership, prop1_flipped, prop1_paired, random_table, zero_one
"""


def test_cli_list_output_is_unchanged(capsys):
    assert main(["list"]) == 0
    assert capsys.readouterr().out == LIST_OUTPUT


def test_audit_table_lists_every_audit_in_order():
    assert tuple(AUDITS) == AUDIT_IDS


def test_cli_run(tmp_path, capsys):
    path = write_config(tmp_path, BASE)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "[        pass]" in out
    assert (tmp_path / "out" / "cli-identity.json").exists()


def test_cli_run_missing_file(capsys):
    assert main(["run", "/does/not/exist.json"]) == 2


def test_cli_run_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


def test_cli_run_overrides(tmp_path):
    path = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", path, "--seed", "9", "--out", str(out)]) == 0
    report = json.loads((out / "cli-identity.json").read_text())
    assert report["config"]["seed"] == 9


def test_cli_run_reports_failures(tmp_path, capsys):
    raw = cfg_with(
        name="cli-rr",
        domain={"size": 2},
        learner={"name": "randomized_response_dp", "params": {"epsilon": 1.0}},
        loss={"name": "zero_one"},
        audits=[{"id": "P4", "epsilon": 0.01}],
    )
    assert main(["run", write_config(tmp_path, raw)]) == 1
    assert "fail" in capsys.readouterr().out


def test_cli_corpus(tmp_path, capsys):
    assert main(["corpus", "--only", "identity-m1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "corpus:" in out
    assert "exit 0" in out


def test_cli_corpus_unknown_name(capsys):
    assert main(["corpus", "--only", "nope"]) == 2


@pytest.mark.parametrize("raw,message", REJECTED_AFTER_BUILD, ids=REJECTED_IDS)
def test_cli_run_late_value_error_exits_2(tmp_path, capsys, raw, message):
    assert main(["run", write_config(tmp_path, raw)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_corpus_reports_a_rejected_scenario_and_goes_on(monkeypatch, capsys):
    import stabaudit.harness as harness

    bad = cfg_with(name="bad", loss=None, audits=["T4"])
    monkeypatch.setattr(harness, "corpus_configs", lambda: (bad, cfg_with(name="good")))
    assert main(["corpus"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "error [2]: tail audit needs a loss" in captured.err
    assert "good: T1" in captured.out


# ---------------------------------------------------------------------------
# the declared epsilon of P4 and C1, in both modes

@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("audit", ["P4", "C1"])
def test_an_audit_without_an_epsilon_exits_2_in_both_modes(tmp_path, capsys, audit, mode):
    """The release declares no epsilon, so P4 and C1 without one cannot run."""
    raw = cfg_with(mode=mode, audits=[audit], n_runs=200)
    code, bundle = run_config(raw)
    assert (code, bundle) == (EXIT_CONFIG, {"error": "audit needs the declared epsilon", "exit_code": EXIT_CONFIG})
    assert main(["run", write_config(tmp_path, raw)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: audit needs the declared epsilon\n"


def _rr_p4(mode, epsilon):
    return cfg_with(
        name="cli-rr",
        domain={"size": 2},
        learner={"name": "randomized_response_dp", "params": {"epsilon": 1.0}},
        loss={"name": "zero_one"},
        m=3,
        mode=mode,
        n_runs=200,
        audits=[{"id": "P4", "epsilon": epsilon}],
    )


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_a_declared_epsilon_of_zero_is_the_audit_epsilon(tmp_path, mode):
    """epsilon 0 bounds vi by 0, in both modes; only a missing epsilon
    stands for the learner's (epsilon 1, bound (e - 1) / 2)."""
    code, bundle = run_config(_rr_p4(mode, 0))
    assert bundle["method"] == mode
    assert bundle["audits"][0]["bound"] == 0.0
    if mode == "exact":
        assert (code, bundle["audits"][0]["verdict"]) == (EXIT_FAIL, "fail")
    assert run_config(_rr_p4(mode, None))[1]["audits"][0]["bound"] == pytest.approx((math.e - 1) / 2)
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, _rr_p4(mode, 0)), "--out", str(out)]) == code
    assert json.loads((out / "cli-rr.json").read_text())["audits"][0]["bound"] == 0.0


def _corpus_config(name, **kw):
    raw = copy.deepcopy(next(c for c in CORPUS if c["name"] == name))
    raw.update(kw)
    return raw


def test_a_float_erm_run_writes_its_report(tmp_path, capsys):
    """erm-threshold in float mode, whose ERM curve compares numpy floats:
    through run_config and `stabaudit run --out` it exits 0 with no
    traceback, the written report equals the bundle, and every series `ok`
    is a bool."""
    raw = _corpus_config("erm-threshold", numeric="float")
    code, bundle = run_config(raw, out_dir=tmp_path / "lib")
    assert code == EXIT_PASS
    assert {type(row["ok"]) for a in bundle["audits"] for row in a["series"] or ()} == {bool}
    report = json.loads((tmp_path / "lib" / "erm-threshold.json").read_text())
    assert report == json.loads(json.dumps(bundle))
    assert main(["run", write_config(tmp_path, raw), "--out", str(tmp_path / "cli")]) == EXIT_PASS
    assert "Traceback" not in capsys.readouterr().err
    written = json.loads((tmp_path / "cli" / "erm-threshold.json").read_text())
    written.pop("timings")
    report.pop("timings")
    assert written == report


def _t5(bundle):
    return next(a for a in bundle["audits"] if a["theorem"] == "T5")


def test_t5_tol_defaults_to_the_config_tolerance(tmp_path):
    """T5's tol is the config's tolerance (or --tolerance), else 1e-9; an
    audit's own tol wins.  subsample-delta's window m^2 / n is 1/4."""
    base = _corpus_config("subsample-delta")
    assert _t5(run_config(base)[1])["bound"] == 0.25 + 1e-9
    assert _t5(run_config(_corpus_config("subsample-delta", tolerance=0.5))[1])["bound"] == 0.75
    assert _t5(run_config(base, overrides={"tolerance": 0.5})[1])["bound"] == 0.75
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, base), "--tolerance", "0.5", "--out", str(out)]) == EXIT_PASS
    assert _t5(json.loads((out / "subsample-delta.json").read_text()))["bound"] == 0.75
    own = [a if a != "T5" else {"id": "T5", "tol": 0.125} for a in base["audits"]]
    assert _t5(run_config(_corpus_config("subsample-delta", tolerance=0.5, audits=own))[1])["bound"] == 0.375


_FIRST_MAXIMUM = (
    "T1 keeps the first loss of its battery to reach the maximum (a > worst): in exact mode a built-in "
    "loss ties worst_case; in float mode worst_case comes out larger in its last bits"
)
_ON_THE_GRID = (
    "a point sits exactly on a grid value, and exact mode reads the float threshold as its binary double, "
    "a little above the decimal written: the law's point at -1/5 leaves P{|G| >= 0.2}, and the excess "
    "3/10 - 2/10 of thr1 leaves the ERM tail at 0.1; float mode keeps both through its tolerance"
)
#: (scenario, path) -> why exact and float reports differ there; an audit's
#: path names its theorem
MODE_DISAGREEMENTS = {
    **{
        (name, "audits", "T1", *field): _FIRST_MAXIMUM
        for name in ("subsample-delta", "t5-tight", "rr-epsln2-m3", "rr-eps1.0-m3")
        for field in (("computed", "argmax_loss_is_worst_case"), ("notes", 0))
    },
    **{("erm-threshold", "audits", theorem, "series", 1, "tail"): _ON_THE_GRID for theorem in ("T4", "P3", "ERM")},
}


def _differences(a, b, path=()):
    """The paths at which two report bundles differ, "timings" aside:
    numbers beyond rel 1e-9 and abs 1e-12, anything else (verdicts, flags,
    notes, keys) at all."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [d for k in a if k != "timings" for d in _differences(a[k], b[k], (*path, k))]
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)) and len(a) == len(b):
        labels = [x["theorem"] for x in a] if path == ("audits",) else range(len(a))
        return [d for i, x, y in zip(labels, a, b) for d in _differences(x, y, (*path, i))]
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    if numbers and math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12) or type(a) is type(b) and a == b:
        return []
    return [path]


#: the int fields of a float-mode bundle outside its config: counts and labels
INT_FIELDS = {"schema_version", "exit_code", "kernel_evals", "hypothesis_count", "n_runs"}


def _not_plain(x, float_mode, path=()):
    """The paths of a returned bundle at which a value is not a plain JSON
    type (dict, list, str, bool, None, int, float: no Fraction, tuple or
    numpy scalar), or, in float mode, is an int outside the config and
    INT_FIELDS."""
    if type(x) is dict:
        return [p for k, v in x.items() for p in _not_plain(v, float_mode and k != "config", (*path, k))]
    if type(x) is list:
        return [p for i, v in enumerate(x) for p in _not_plain(v, float_mode, (*path, i))]
    if type(x) is int:
        field = [p for p in path if type(p) is str][-1]
        return [path] if float_mode and field not in INT_FIELDS else []
    return [] if x is None or type(x) in (str, bool, float) else [path]


@pytest.mark.parametrize("name", [c["name"] for c in CORPUS if c["name"] not in ("subsample-t1", "prop1-mc")])
def test_exact_and_float_reports_agree(name):
    """A corpus scenario run in exact and in float mode gives the same exit
    code and report, apart from the config's numeric and the disagreements
    that MODE_DISAGREEMENTS names with their reasons, and both bundles hold
    plain JSON types only, with floats for every value in float mode but
    the config and INT_FIELDS.  subsample-t1 and prop1-mc are left out for
    their run time."""
    raw = _corpus_config(name)
    (code, exact), (float_code, floats) = (run_config(raw, {"numeric": n}) for n in ("exact", "float"))
    assert _not_plain(exact, False) == [] and _not_plain(floats, True) == []
    assert code == float_code
    got = {(name, *p) for p in _differences(exact, floats) if p != ("config", "numeric")}
    assert got == {key for key in MODE_DISAGREEMENTS if key[0] == name}


def test_a_float_monte_carlo_bundle_holds_floats():
    """prop1-mc, cut to 500 runs: a float-mode Monte Carlo bundle holds plain
    JSON types only, and ints only in the config and INT_FIELDS."""
    code, bundle = run_config(_corpus_config("prop1-mc"), {"n_runs": 500})
    assert code == EXIT_PASS and bundle["estimates"]["info"]["n_runs"] == 500
    assert _not_plain(bundle, True) == []
    assert _not_plain({"a": [1.0, (1.0,)], "b": np.float64(1.0), "c": {"n_runs": 3, "m": 3}}, True) == [
        ("a", 1),
        ("b",),
        ("c", "m"),
    ]
