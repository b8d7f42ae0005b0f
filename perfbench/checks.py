"""Output checks for one op: its exit code and the report it wrote.

Every function here returns a list of problems; an op whose list is not
empty counts as failed.  The checks need nothing but the report, so the
self-test can feed them doctored reports.
"""

from __future__ import annotations

import hashlib
import json
import math

FLOAT_TOL = 1e-12


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def body(report: dict) -> dict:
    """The report without its wall-clock ``timings``."""
    return {k: v for k, v in report.items() if k != "timings"}


def digest(report_body: dict) -> str:
    text = json.dumps(report_body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_op(code: int, bundle: dict, text: str | None) -> tuple[list[str], dict | None]:
    """Check one op's exit code and written report.

    Returns (problems, parsed report); the report is None when the file is
    missing or not strict JSON.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {bundle.get('error', '')}".rstrip(": "))
    if text is None:
        return problems + ["no report written"], None
    try:
        report = strict_loads(text)
    except ValueError as e:
        return problems + [f"report is not strict JSON: {e}"], None
    if report != json.loads(json.dumps(bundle)):
        problems.append("written report differs from the returned bundle")
    if report.get("exit_code") != 0:
        problems.append(f"report exit_code is {report.get('exit_code')!r}")
    exact = report.get("config", {}).get("numeric") == "exact" and report.get("method") == "exact"
    for audit in report.get("audits", ()):
        problems += _check_audit(audit, exact)
    return problems, report


def _check_audit(audit: dict, exact: bool) -> list[str]:
    theorem = audit.get("theorem")
    where = f"{audit.get('scenario')}/{theorem}"
    out = []
    if audit.get("verdict") not in ("pass", "inconclusive"):
        out.append(f"{where}: verdict {audit.get('verdict')!r}")
    computed = audit.get("computed", {})
    if theorem == "T1" and exact:
        rows = [r for r in audit.get("series", ()) if r.get("loss") == "worst_case"]
        if len(rows) != 1:
            out.append(f"{where}: {len(rows)} worst_case rows")
        elif rows[0].get("abs_gen_risk") != computed.get("info"):
            out.append(
                f"{where}: worst-case |gen risk| {rows[0].get('abs_gen_risk')!r} "
                f"!= info {computed.get('info')!r}"
            )
    if theorem == "T2" and not audit.get("slack", -1) >= 0:
        out.append(f"{where}: chain-rule slack {audit.get('slack')!r} < 0")
    if theorem == "T5" and not computed.get("gap", math.inf) <= computed.get("window", -math.inf):
        out.append(f"{where}: gap {computed.get('gap')!r} > window {computed.get('window')!r}")
    return out


def golden_entry(report_body: dict) -> dict:
    """What the golden file keeps for one report: a digest in exact mode,
    the whole body in float mode (compared to FLOAT_TOL)."""
    if report_body.get("config", {}).get("numeric") == "exact":
        return {"digest": digest(report_body)}
    return {"body": report_body}


def compare_golden(report_body: dict, entry: dict) -> list[str]:
    if "digest" in entry:
        got = digest(report_body)
        return [] if got == entry["digest"] else [f"digest {got[:12]} != recorded {entry['digest'][:12]}"]
    out: list[str] = []
    _compare(report_body, entry["body"], "", out)
    return out


def _compare(got, want, path: str, out: list[str]) -> None:
    if len(out) >= 5:
        return
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)):
            out.append(f"{path}: {got!r} vs recorded {want!r}")
    elif isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            out.append(f"{path}: keys {sorted(set(got) ^ set(want))} differ")
            return
        for k in want:
            _compare(got[k], want[k], f"{path}.{k}", out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{path}: length {len(got)} vs recorded {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]", out)
    elif got != want or type(got) is not type(want):
        out.append(f"{path}: {got!r} vs recorded {want!r}")
