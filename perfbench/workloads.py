"""The benchmark's four workloads: a seed in, a list of scenario configs out.

One op is one ``harness.run_config(cfg, out_dir=...)`` call on one of these
configs; one pass runs every config of the workload once, in order.  The
seed changes values only (data weights, release probabilities, scenario
seeds), never sizes, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 1

WORKLOADS = ("exact-float-walks", "exact-rational-cells", "mc-draws", "corpus-small")

# exact-float-walks: subsample-t1 (n=64, one config) shrunk to n=12.
WALK_N, WALK_M, WALK_OPS = 12, 4, 4
# exact-rational-cells: t5-tight (n=256) plus C2-forward, shrunk to n=32.
CELL_N, CELL_M, CELL_OPS = 32, 2, 4
# Release probabilities p/97: a prime denominator keeps every seed's
# Fractions the same size, so the seed does not change the arithmetic cost.
CELL_DELTA_DEN = 97
# mc-draws: prop1-mc with its 10^6-symbol alphabet, 10^4 runs cut to 300.
MC_N, MC_M, MC_RUNS = 1_000_000, 50, 300

# Corpus scenarios that each finish in under a second.
SMALL_NAMES = (
    "identity-m1",
    "subsample-tiny",
    "subsample-small",
    "subsample-delta",
    "rr-eps0.1-m1",
    "rr-eps0.1-m3",
    "rr-epsln2-m1",
    "rr-epsln2-m3",
    "rr-eps1.0-m1",
    "rr-eps1.0-m3",
    "erm-threshold",
    "prop1-small",
    "prop1-flipped-small",
    "const-baseline",
)


def _rng(workload: str, seed: int, i: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{i}")


def _walks(seed: int) -> list[dict]:
    out = []
    for i in range(WALK_OPS):
        rng = _rng("exact-float-walks", seed, i)
        raw = [rng.randint(1, 9) for _ in range(WALK_N)]
        total = sum(raw)
        out.append(
            {
                "name": f"walks-{i}",
                "domain": {"size": WALK_N},
                "data_dist": {"weights": [r / total for r in raw]},
                "learner": {"name": "subsample_release", "params": {"k": 2, "delta": 0.5}},
                "loss": {"name": "membership"},
                "m": WALK_M,
                "numeric": "float",
                "mode": "exact",
                "seed": seed,
                "audits": ["T1", {"id": "T3", "side": "sign", "threshold": 0.25}, "T4", "P3"],
            }
        )
    return out


def _cells(seed: int) -> list[dict]:
    rng = _rng("exact-rational-cells", seed, 0)
    numerators = rng.sample(range(10, CELL_DELTA_DEN - 9), CELL_OPS)
    return [
        {
            "name": f"cells-{i}",
            "domain": {"size": CELL_N},
            "data_dist": "uniform",
            "learner": {
                "name": "subsample_release",
                "params": {"k": 1, "delta": f"{p}/{CELL_DELTA_DEN}"},
            },
            "loss": {"name": "membership"},
            "m": CELL_M,
            "numeric": "exact",
            "mode": "exact",
            "seed": seed,
            "audits": ["T5", "T1", "T4", "P3", {"id": "C2-forward", "epsilon": 0.6, "delta": 0.25}],
        }
        for i, p in enumerate(numerators)
    ]


def _mc(seed: int) -> list[dict]:
    return [
        {
            "name": "mc-draws",
            "domain": {"size": MC_N},
            "data_dist": "uniform",
            "learner": {"name": "prop1_counterexample"},
            "loss": {"name": "prop1_paired"},
            "m": MC_M,
            "numeric": "float",
            "mode": "mc",
            "n_runs": MC_RUNS,
            "seed": seed,
            "audits": ["T1"],
        }
    ]


def _small(seed: int) -> list[dict]:
    from stabaudit.corpus import corpus_configs

    by_name = {c["name"]: c for c in corpus_configs()}
    out = []
    for name in SMALL_NAMES:
        cfg = by_name[name]
        cfg["seed"] = seed
        out.append(cfg)
    return out


_BUILDERS = {
    "exact-float-walks": _walks,
    "exact-rational-cells": _cells,
    "mc-draws": _mc,
    "corpus-small": _small,
}


def configs(workload: str, seed: int) -> list[dict]:
    """The ops of one pass over ``workload`` at ``seed``, in run order."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return _BUILDERS[workload](seed)
