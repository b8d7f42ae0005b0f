"""Closed-form bound expressions shared by the audits.

Every numeric constant appearing in a bound lives in BOUND_CONSTANTS and is
read at call time, so tests can perturb a constant and watch the audits
notice.  Where a bound has both a published statement form and a tighter
or looser variant arising from its derivation, both are exposed; audits
treat the statement form as authoritative and report the variant alongside.
"""

from __future__ import annotations

import math
from fractions import Fraction

BOUND_CONSTANTS = {
    # |expected generalization risk| <= t1_info_coeff * vi
    "t1_info_coeff": 1,
    # vi(Z; (H, K)) <= (t3_base + t3_card_coeff * |K|) * vi(Z; H) + sqrt(log|K| / (t3_den * m))
    "t3_base": 1,
    "t3_card_coeff": Fraction(1, 2),
    "t3_den": 2,
    # P{|G| >= t} <= (t4_coeff / t) * (vi + sqrt(log(t4_log_arg) / (t4_den * m)))
    "t4_coeff": Fraction(5, 2),
    "t4_log_arg": 9,
    "t4_den": 25,
    "t4_proof_log_arg": 3,
    "t4_proof_den": 2,
    # P{|G| >= t} <= (1 / t) * sqrt((I(S; H) + p3_shift) / (p3_den * m))
    "p3_shift": 3,
    "p3_proof_shift": math.log(3),
    "p3_den": 2,
    # P{|G| >= t} <= (dp_coeff / t) * (e^eps - 1 + delta + sqrt(dp_sqrt_num * log(9) / (25 m)))
    "dp_coeff": Fraction(5, 4),
    "dp_sqrt_num": 2,
    # vi <= dp_info_coeff * (e^eps - 1 + delta)
    "dp_info_coeff": Fraction(1, 2),
    # released-subset construction: P{|G| ~ t} = t5_ratio_coeff * vi / t
    "t5_ratio_coeff": 1,
    # P{excess risk >= t} <= erm_coeff * vi / t
    "erm_coeff": 1,
    # robustness (eps, delta) gives sup_L |risk gap| <= c2_rate_coeff * (eps + delta)
    "c2_rate_coeff": 1,
}


def t1_bound(info):
    return BOUND_CONSTANTS["t1_info_coeff"] * info


def t3_statement_bound(info, card_k: int, m: int) -> float:
    c = BOUND_CONSTANTS
    lead = (c["t3_base"] + c["t3_card_coeff"] * card_k) * info
    return float(lead) + math.sqrt(math.log(card_k) / (c["t3_den"] * m))


def t3_proof_bound(info, card_k: int, m: int) -> float:
    c = BOUND_CONSTANTS
    lead = (c["t3_base"] + c["t3_card_coeff"] * card_k) * info
    return float(lead) + math.sqrt(card_k / (c["t3_den"] * m))


def t4_statement_bound(t, info, m: int) -> float:
    c = BOUND_CONSTANTS
    slack = math.sqrt(math.log(c["t4_log_arg"]) / (c["t4_den"] * m))
    return float(c["t4_coeff"]) / float(t) * (float(info) + slack)


def t4_proof_bound(t, info, m: int) -> float:
    c = BOUND_CONSTANTS
    slack = math.sqrt(math.log(c["t4_proof_log_arg"]) / (c["t4_proof_den"] * m))
    return float(c["t4_coeff"]) / float(t) * (float(info) + slack)


def p3_bound(t, mutual_info: float, m: int) -> float:
    c = BOUND_CONSTANTS
    return math.sqrt((mutual_info + c["p3_shift"]) / (c["p3_den"] * m)) / float(t)


def p3_proof_bound(t, mutual_info: float, m: int) -> float:
    c = BOUND_CONSTANTS
    return math.sqrt((mutual_info + c["p3_proof_shift"]) / (c["p3_den"] * m)) / float(t)


def _expm1(epsilon: float) -> float:
    """e^epsilon - 1; ValueError, not OverflowError, when it is past float range."""
    try:
        return math.expm1(epsilon)
    except OverflowError:
        raise ValueError(f"epsilon = {epsilon} is too large: e^epsilon overflows a float") from None


def dp_info_bound(epsilon: float, delta) -> float:
    return float(BOUND_CONSTANTS["dp_info_coeff"]) * (_expm1(epsilon) + float(delta))


def dp_tail_bound(t, epsilon: float, delta, m: int) -> float:
    c = BOUND_CONSTANTS
    slack = math.sqrt(c["dp_sqrt_num"] * math.log(9) / (25 * m))
    return float(c["dp_coeff"]) / float(t) * (_expm1(epsilon) + float(delta) + slack)


def t5_predicted_mass(info, t):
    return BOUND_CONSTANTS["t5_ratio_coeff"] * info / t


def erm_markov_bound(info, t):
    return BOUND_CONSTANTS["erm_coeff"] * info / t


def c2_rate(epsilon, delta):
    return BOUND_CONSTANTS["c2_rate_coeff"] * (epsilon + delta)
