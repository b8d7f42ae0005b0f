"""Built-in scenario corpus and the name registries configs resolve against.

Corpus entries are ordinary config dictionaries (the same schema the CLI
accepts), so the corpus doubles as executable documentation of the config
format.  Each entry exercises a different corner: tight ratio laws, privacy
audits at several epsilons, the memorizer whose own risk cancels, ERM
consistency, and one scenario big enough to make enumeration sweat.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .dist import Alphabet
from .learners import (
    LearnerKernel,
    constant_learner,
    erm_finite,
    prop1_counterexample,
    randomized_response_dp,
    subsample_release,
)
from .losses import (
    ParametricLoss,
    constant_loss,
    membership_loss,
    prop1_flipped_loss,
    prop1_paired_loss,
    random_table_loss,
    zero_one_loss,
)
from .numeric import NumericMode

LN2 = 0.6931471805599453


def _build_subsample(domain: Alphabet, params: Mapping, mode: NumericMode) -> LearnerKernel:
    return subsample_release(domain, k=params["k"], delta=params.get("delta", 1), mode=mode)


def _build_rr(domain: Alphabet, params: Mapping, mode: NumericMode) -> LearnerKernel:
    return randomized_response_dp(params["epsilon"], mode=mode, domain=domain)


def _build_erm(domain: Alphabet, params: Mapping, mode: NumericMode) -> LearnerKernel:
    hyps = list(params["hypotheses"])
    rows = params["table"]
    if len(rows) != len(domain):
        raise ValueError(f"table has {len(rows)} rows for {len(domain)} symbols")
    loss_table = {}
    for z, row in zip(domain.symbols, rows):
        if len(row) != len(hyps):
            raise ValueError("table row width does not match the hypothesis list")
        for h, v in zip(hyps, row):
            loss_table[(z, h)] = v
    return erm_finite(domain, hyps, loss_table, mode=mode)


def _build_prop1(domain: Alphabet, params: Mapping, mode: NumericMode) -> LearnerKernel:
    return prop1_counterexample(domain)


def _build_constant(domain: Alphabet, params: Mapping, mode: NumericMode) -> LearnerKernel:
    return constant_learner(domain, symbol=params.get("symbol", "fixed"))


#: learner name -> (builder, allowed params)
LEARNER_BUILDERS: dict[str, tuple[Callable, frozenset]] = {
    "subsample_release": (_build_subsample, frozenset({"k", "delta"})),
    "randomized_response_dp": (_build_rr, frozenset({"epsilon"})),
    "erm_finite": (_build_erm, frozenset({"hypotheses", "table"})),
    "prop1_counterexample": (_build_prop1, frozenset()),
    "constant": (_build_constant, frozenset({"symbol"})),
}


def _loss_membership(ctx) -> ParametricLoss:
    return membership_loss()


def _loss_zero_one(ctx) -> ParametricLoss:
    return zero_one_loss()


def _loss_constant(ctx) -> ParametricLoss:
    return constant_loss(ctx["params"].get("value", 1))


def _loss_random_table(ctx) -> ParametricLoss:
    hyp = ctx["learner"].hypotheses(ctx["m"])
    seed = ctx["params"].get("seed", ctx["seed"])
    return random_table_loss(ctx["domain"], hyp, seed=seed, levels=ctx["params"].get("levels", 16))


def _loss_prop1_paired(ctx) -> ParametricLoss:
    return prop1_paired_loss()


def _loss_prop1_flipped(ctx) -> ParametricLoss:
    return prop1_flipped_loss()


def _loss_erm_table(ctx) -> ParametricLoss:
    learner = ctx["learner"]
    table = learner.params.get("loss_table")
    if table is None:
        raise ValueError("erm_table loss needs an erm_finite learner")
    return ParametricLoss(name="erm_table", fn=lambda z, h: table[(z, h)])


#: loss name -> (builder, allowed params)
LOSS_BUILDERS: dict[str, tuple[Callable, frozenset]] = {
    "membership": (_loss_membership, frozenset()),
    "zero_one": (_loss_zero_one, frozenset()),
    "constant": (_loss_constant, frozenset({"value"})),
    "random_table": (_loss_random_table, frozenset({"seed", "levels"})),
    "prop1_paired": (_loss_prop1_paired, frozenset()),
    "prop1_flipped": (_loss_prop1_flipped, frozenset()),
    "erm_table": (_loss_erm_table, frozenset()),
}


def _rr_entry(tag: str, epsilon: float, m: int) -> dict:
    return {
        "name": f"rr-{tag}-m{m}",
        "domain": {"size": 2},
        "data_dist": "uniform",
        "learner": {"name": "randomized_response_dp", "params": {"epsilon": epsilon}},
        "loss": {"name": "zero_one"},
        "m": m,
        "numeric": "exact",
        "mode": "exact",
        "seed": 11,
        "audits": ["C1", "P4", "T1", "T4"],
    }


CORPUS: tuple[dict, ...] = (
    {
        "name": "identity-m1",
        "domain": {"size": 3},
        "data_dist": "uniform",
        "learner": {"name": "subsample_release", "params": {"k": 1, "delta": 1}},
        "loss": {"name": "membership"},
        "m": 1,
        "numeric": "exact",
        "mode": "exact",
        "seed": 3,
        "audits": [
            "T1",
            {"id": "T2", "side": "duplicate"},
            "T4",
            "P3",
            {"id": "C2-forward", "epsilon": 0.67, "delta": 0.03},
        ],
    },
    {
        "name": "subsample-tiny",
        "domain": {"size": 3},
        "data_dist": "uniform",
        "learner": {"name": "subsample_release", "params": {"k": 1, "delta": 1}},
        "loss": {"name": "membership"},
        "m": 2,
        "numeric": "exact",
        "mode": "exact",
        "seed": 5,
        "audits": [
            "T1",
            {"id": "T2", "side": "rerun"},
            {"id": "T3", "side": "sign", "threshold": 0.25},
            "T4",
            "P3",
        ],
    },
    {
        "name": "subsample-small",
        "domain": {"size": 8},
        "data_dist": "uniform",
        "learner": {"name": "subsample_release", "params": {"k": 2, "delta": 1}},
        "loss": {"name": "membership"},
        "m": 2,
        "numeric": "exact",
        "mode": "exact",
        "seed": 7,
        "audits": ["T1", {"id": "T3", "side": "sign", "threshold": 0.25}, "T4", "P3"],
    },
    {
        "name": "subsample-delta",
        "domain": {"size": 16},
        "data_dist": "uniform",
        "learner": {"name": "subsample_release", "params": {"k": 1, "delta": "0.3"}},
        "loss": {"name": "membership"},
        "m": 2,
        "numeric": "exact",
        "mode": "exact",
        "seed": 9,
        "audits": ["T1", "T4", "P3", "T5"],
    },
    {
        "name": "t5-tight",
        "domain": {"size": 256},
        "data_dist": "uniform",
        "learner": {"name": "subsample_release", "params": {"k": 1, "delta": "0.3"}},
        "loss": {"name": "membership"},
        "m": 2,
        "numeric": "exact",
        "mode": "exact",
        "seed": 13,
        "audits": ["T5", "T1", "T4", "P3"],
    },
    {
        "name": "subsample-c2",
        "domain": {"size": 256},
        "data_dist": "uniform",
        "learner": {"name": "subsample_release", "params": {"k": 1, "delta": "0.2"}},
        "loss": {"name": "membership"},
        "m": 2,
        "numeric": "exact",
        "mode": "exact",
        "seed": 15,
        "audits": ["T1", {"id": "C2-forward", "epsilon": 0.6, "delta": 0.25}, "T4"],
    },
    _rr_entry("eps0.1", 0.1, 1),
    _rr_entry("eps0.1", 0.1, 3),
    _rr_entry("epsln2", LN2, 1),
    _rr_entry("epsln2", LN2, 3),
    _rr_entry("eps1.0", 1.0, 1),
    _rr_entry("eps1.0", 1.0, 3),
    {
        "name": "erm-threshold",
        "domain": {"size": 4},
        "data_dist": {"weights": ["0.4", "0.3", "0.2", "0.1"]},
        "learner": {
            "name": "erm_finite",
            "params": {
                "hypotheses": ["thr1", "thr3"],
                "table": [[0, 0], [1, 0], [0, 1], [0, 0]],
            },
        },
        "loss": {"name": "erm_table"},
        "m": 3,
        "numeric": "exact",
        "mode": "exact",
        "seed": 17,
        "audits": [
            "T1",
            {"id": "T3", "side": "sign", "threshold": 0.25},
            "T4",
            "P3",
            "ERM",
        ],
    },
    {
        "name": "prop1-small",
        "domain": {"size": 16},
        "data_dist": "uniform",
        "learner": {"name": "prop1_counterexample"},
        "loss": {"name": "prop1_paired"},
        "m": 2,
        "numeric": "exact",
        "mode": "exact",
        "seed": 19,
        "audits": ["T1", "T4", "P3"],
    },
    {
        "name": "prop1-flipped-small",
        "domain": {"size": 16},
        "data_dist": "uniform",
        "learner": {"name": "prop1_counterexample"},
        "loss": {"name": "prop1_flipped"},
        "m": 2,
        "numeric": "exact",
        "mode": "exact",
        "seed": 21,
        "audits": ["T1", "T4"],
    },
    {
        "name": "prop1-mc",
        "domain": {"size": 1000000},
        "data_dist": "uniform",
        "learner": {"name": "prop1_counterexample"},
        "loss": {"name": "prop1_paired"},
        "m": 50,
        "numeric": "float",
        "mode": "mc",
        "n_runs": 10000,
        "seed": 23,
        "audits": ["T1"],
    },
    {
        "name": "subsample-t1",
        "domain": {"size": 64},
        "data_dist": "uniform",
        "learner": {"name": "subsample_release", "params": {"k": 2, "delta": 0.5}},
        "loss": {"name": "membership"},
        "m": 4,
        "numeric": "float",
        "mode": "exact",
        "seed": 25,
        "audits": ["T1", {"id": "T3", "side": "sign", "threshold": 0.25}, "T4", "P3"],
    },
    {
        "name": "const-baseline",
        "domain": {"size": 4},
        "data_dist": "uniform",
        "learner": {"name": "constant"},
        "loss": {"name": "random_table", "params": {"seed": 5}},
        "m": 2,
        "numeric": "float",
        "mode": "exact",
        "seed": 27,
        "audits": ["T1", {"id": "T2", "side": "duplicate"}, "T4"],
    },
)


def corpus_configs() -> tuple[dict, ...]:
    """Fresh copies of the built-in configs (safe to mutate)."""
    import copy

    return tuple(copy.deepcopy(c) for c in CORPUS)
