"""Command line entry point.

    stabaudit run CONFIG.json [--out DIR] [--mode exact|mc|auto] [--seed N]
                              [--n-runs N] [--budget N] [--numeric exact|float]
                              [--tolerance X]
    stabaudit corpus [--out DIR] [--only NAME [NAME ...]]
    stabaudit list

Exit codes: 0 all audits pass, 1 an audit fails, 2 config or I/O error,
3 enumeration over budget with no MC fallback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .corpus import LEARNER_BUILDERS, LOSS_BUILDERS, corpus_configs
from .harness import AUDITS, EXIT_CONFIG, ConfigError, ScenarioConfig, corpus_run, run_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stabaudit", description="audit stability bounds on finite scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario config file")
    run.add_argument("config", help="path to a JSON scenario config")
    run.add_argument("--out", help="directory for report.json and CSVs")
    run.add_argument("--mode", choices=["exact", "mc", "auto"])
    run.add_argument("--seed", type=int)
    run.add_argument("--n-runs", type=int, dest="n_runs")
    run.add_argument("--budget", type=int)
    run.add_argument("--numeric", choices=["exact", "float"])
    run.add_argument("--tolerance", type=float)

    corpus = sub.add_parser("corpus", help="run the built-in scenario corpus")
    corpus.add_argument("--out", help="directory for consolidated reports")
    corpus.add_argument("--only", nargs="+", help="run only these scenario names")

    sub.add_parser("list", help="list corpus scenarios, audits, and registries")
    return parser


def _print_audit_lines(bundle: dict) -> None:
    for r in bundle.get("audits", ()):
        print(f"[{r['verdict']:>12}] {r['scenario']}: {r['theorem']} slack={r['slack']:.6g}")
    for note in bundle.get("notes", ()):
        print(f"  note: {note}")


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    # each override flag is named after the config key it sets
    overrides = {f.name: v for f in fields(ScenarioConfig) if (v := getattr(args, f.name, None)) is not None}
    code, bundle = run_config(raw, overrides=overrides, out_dir=args.out)
    if "error" in bundle:
        print(f"error: {bundle['error']}", file=sys.stderr)
        return code
    _print_audit_lines(bundle)
    if args.out:
        print(f"report written to {args.out}")
    return code


def _cmd_corpus(args) -> int:
    code, consolidated = corpus_run(out_dir=args.out, only=args.only)
    if "error" in consolidated:
        print(f"error: {consolidated['error']}", file=sys.stderr)
        return code
    n_pass = n_fail = n_inc = 0
    for bundle in consolidated["scenarios"]:
        if "error" in bundle:
            print(f"error [{bundle.get('exit_code')}]: {bundle['error']}", file=sys.stderr)
            continue
        _print_audit_lines(bundle)
        for r in bundle["audits"]:
            if r["verdict"] == "pass":
                n_pass += 1
            elif r["verdict"] == "fail":
                n_fail += 1
            else:
                n_inc += 1
    print(f"corpus: {n_pass} pass, {n_fail} fail, {n_inc} inconclusive; exit {code}")
    if args.out:
        print(f"reports written to {args.out}")
    return code


def _cmd_list() -> int:
    print("corpus scenarios:")
    for cfg in corpus_configs():
        ids = [a if isinstance(a, str) else a["id"] for a in cfg["audits"]]
        print(f"  {cfg['name']}: audits {', '.join(ids)}")
    print("audits:", ", ".join(AUDITS))
    print("learners:", ", ".join(sorted(LEARNER_BUILDERS)))
    print("losses:", ", ".join(sorted(LOSS_BUILDERS)))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        return _cmd_list()
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
