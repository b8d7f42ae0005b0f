import dataclasses
import math
from fractions import Fraction

import pytest

import brute
from stabaudit.dist import Alphabet, Dist, DomainMismatchError
from stabaudit.info import variational_info
from stabaudit.learners import (
    BUDGET_ENV_VAR,
    EnumerationBudgetError,
    LearnerKernel,
    Scenario,
    collision_budget,
    constant_learner,
    default_budget,
    deviation_sign_side_info,
    duplicate_side_info,
    effective_epsilon,
    enumeration_size,
    erm_finite,
    exact_threeway_joint,
    exact_trn_hyp_joint,
    iter_weighted_samples,
    prop1_counterexample,
    randomized_response_dp,
    rerun_side_info,
    sample_hypothesis_mutual_info,
    subsample_release,
)
from stabaudit.corpus import _build_prop1
from stabaudit.harness import ConfigError, ScenarioConfig, build_scenario
from stabaudit.losses import constant_loss, membership_loss
from stabaudit.numeric import EXACT, FLOAT64

F = Fraction


def uniform_scenario(learner, m, name="s"):
    dist = Dist.uniform(learner.domain, EXACT)
    return Scenario(name=name, learner=learner, data_dist=dist, m=m)


def dist_map(dist):
    return {z: w for z, w in zip(dist.alphabet.symbols, dist.weights)}


def assert_joint_matches_brute(scenario):
    tj = exact_trn_hyp_joint(scenario)
    expected = brute.joint_pairs(
        dist_map(scenario.data_dist), scenario.learner.kernel, scenario.m
    )
    j = tj.joint
    for zi, z in enumerate(j.axes[0].symbols):
        for hi, h in enumerate(j.axes[1].symbols):
            assert j.weights[zi, hi] == expected.get((z, h), 0), (z, h)
    assert variational_info(j) == brute.variational_info_pairs(expected)


# ---------------------------------------------------------------------------
# enumeration engine vs ordered brute force


def test_multiset_engine_matches_brute_subsample():
    d = Alphabet.of_size("z", 3)
    assert_joint_matches_brute(uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=2))


def test_multiset_engine_matches_brute_subsample_delta_and_skewed():
    d = Alphabet.of_size("z", 3)
    learner = subsample_release(d, k=2, delta="0.3", mode=EXACT)
    dist = Dist.from_mapping(d, {0: F(1, 2), 1: F(1, 3), 2: F(1, 6)}, EXACT)
    assert_joint_matches_brute(Scenario(name="s", learner=learner, data_dist=dist, m=3))


def test_multiset_engine_matches_brute_rr():
    learner = randomized_response_dp(0.4, mode=EXACT)
    assert_joint_matches_brute(uniform_scenario(learner, m=2))
    assert_joint_matches_brute(uniform_scenario(learner, m=3))


def test_multiset_engine_matches_brute_erm():
    d = Alphabet.of_size("z", 3)
    table = {(z, h): F(abs(z - h), 2) for z in range(3) for h in (0, 2)}
    learner = erm_finite(d, (0, 2), table, mode=EXACT)
    dist = Dist.from_mapping(d, {0: F(2, 5), 1: F(2, 5), 2: F(1, 5)}, EXACT)
    assert_joint_matches_brute(Scenario(name="s", learner=learner, data_dist=dist, m=2))


def test_multiset_engine_matches_brute_prop1():
    assert_joint_matches_brute(uniform_scenario(prop1_counterexample(3), m=2))


def test_zero_weight_symbols_are_skipped():
    d = Alphabet.of_size("z", 3)
    dist = Dist.from_mapping(d, {0: F(1, 2), 1: F(1, 2)}, EXACT)
    samples = list(iter_weighted_samples(dist, 2))
    assert all(2 not in s for s, _, _ in samples)
    assert sum(w for _, w, _ in samples) == 1


def test_ordered_fallback_agrees_with_symmetric():
    d = Alphabet.of_size("z", 3)
    dist = Dist.uniform(d, EXACT)
    sym = {}
    for s, w, _ in iter_weighted_samples(dist, 2, symmetric=True):
        sym[tuple(sorted(s))] = sym.get(tuple(sorted(s)), 0) + w
    ordered = {}
    for s, w, _ in iter_weighted_samples(dist, 2, symmetric=False):
        ordered[tuple(sorted(s))] = ordered.get(tuple(sorted(s)), 0) + w
    assert sym == ordered


def test_asymmetric_kernel_uses_ordered_enumeration():
    d = Alphabet.of_size("z", 2)
    first = LearnerKernel(
        name="first_entry",
        domain=d,
        kernel=lambda s: {s[0]: 1},
        hypotheses=lambda m: Alphabet("h", (0, 1)),
        symmetric=False,
    )
    tj = exact_trn_hyp_joint(uniform_scenario(first, m=2))
    assert tj.method == "exact-ordered"
    assert tj.kernel_evals == 4
    # first coordinate matches trn half the time on average
    assert tj.joint.weight((0, 0)) == F(3, 8)


# ---------------------------------------------------------------------------
# frozen oracles


def test_identity_info_is_one_minus_inverse_n():
    for n in (2, 3, 5):
        d = Alphabet.of_size("z", n)
        tj = exact_trn_hyp_joint(uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=1))
        assert variational_info(tj.joint) == 1 - F(1, n)


def test_subsample_info_formula_m2():
    # k = 1, m = 2, uniform n: vi = delta (n - 1) / (2 n)
    for n, delta in ((3, F(1)), (4, F(3, 10)), (8, F(1, 2))):
        d = Alphabet.of_size("z", n)
        learner = subsample_release(d, k=1, delta=delta, mode=EXACT)
        tj = exact_trn_hyp_joint(uniform_scenario(learner, m=2))
        assert variational_info(tj.joint) == delta * (n - 1) / (2 * n)


def test_prop1_info_oracle_n16():
    tj = exact_trn_hyp_joint(uniform_scenario(prop1_counterexample(16), m=2))
    assert variational_info(tj.joint) == F(225, 256)


def test_rr_info_oracles():
    learner = randomized_response_dp(math.log(2), mode=EXACT)
    keep = learner.params["keep_prob"]
    tj1 = exact_trn_hyp_joint(uniform_scenario(learner, m=1, name="m1"))
    assert variational_info(tj1.joint) == keep - F(1, 2)
    tj3 = exact_trn_hyp_joint(uniform_scenario(learner, m=3, name="m3"))
    assert variational_info(tj3.joint) == (2 * keep - 1) / 4


def test_constant_learner_has_zero_info():
    d = Alphabet.of_size("z", 4)
    tj = exact_trn_hyp_joint(uniform_scenario(constant_learner(d), m=3))
    assert variational_info(tj.joint) == 0


# ---------------------------------------------------------------------------
# budgets


def test_enumeration_size():
    assert enumeration_size(3, 2, True) == 6
    assert enumeration_size(3, 2, False) == 9
    assert enumeration_size(257, 2, True) == math.comb(258, 2)


def test_collision_budget():
    d = Alphabet.of_size("z", 16)
    s = uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=2)
    assert collision_budget(s) == F(4, 16)


def test_budget_error_carries_numbers():
    d = Alphabet.of_size("z", 3)
    s = uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=2)
    with pytest.raises(EnumerationBudgetError) as e:
        exact_trn_hyp_joint(s, budget=5)
    assert e.value.needed == 6
    assert e.value.budget == 5
    # a failed build must not poison the cache
    assert variational_info(exact_trn_hyp_joint(s, budget=6).joint) == F(1, 3)


def test_budget_is_checked_on_cache_hits():
    d = Alphabet.of_size("z", 3)
    s = uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=2)
    exact_trn_hyp_joint(s)
    with pytest.raises(EnumerationBudgetError):
        exact_trn_hyp_joint(s, budget=1)
    sample_hypothesis_mutual_info(s)
    with pytest.raises(EnumerationBudgetError, match="mutual information") as e:
        sample_hypothesis_mutual_info(s, budget=6)
    assert e.value.needed == 12  # two walks of 6 multisets


def test_default_budget_env(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "123")
    assert default_budget() == 123
    monkeypatch.delenv(BUDGET_ENV_VAR)
    assert default_budget() == 10_000_000


# ---------------------------------------------------------------------------
# side information


def test_duplicate_side_adds_nothing():
    d = Alphabet.of_size("z", 3)
    s = uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=2)
    j3 = exact_threeway_joint(s, duplicate_side_info(s.learner))
    base = variational_info(exact_trn_hyp_joint(s).joint)
    pair = variational_info(j3.merge(["h", "k"], "hk"))
    assert pair == base
    assert j3.marginal("z", "h").weights.tolist() == exact_trn_hyp_joint(s).joint.weights.tolist()


def test_rerun_side_is_conditionally_independent():
    d = Alphabet.of_size("z", 3)
    s = uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=2)
    j3 = exact_threeway_joint(s, rerun_side_info(s.learner))
    # same marginal law for H and K
    assert j3.marginal("h").weights.tolist() == j3.marginal("k").weights.tolist()


def test_deviation_sign_side_alphabet():
    d = Alphabet.of_size("z", 3)
    learner = subsample_release(d, k=1, mode=EXACT)
    s = Scenario(
        name="s", learner=learner, data_dist=Dist.uniform(d, EXACT), m=2, loss=membership_loss()
    )
    side = deviation_sign_side_info(s, s.loss, F(1, 4))
    j3 = exact_threeway_joint(s, side)
    assert j3.axes[2].symbols == (-1, 0, 1)
    assert j3.weights.sum() == 1


def test_deviation_sign_side_is_keyed_by_loss():
    def scenario():
        d = Alphabet.of_size("z", 3)
        return uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=2)

    s = scenario()
    first = exact_threeway_joint(s, deviation_sign_side_info(s, membership_loss(), F(1, 4)))
    second = exact_threeway_joint(s, deviation_sign_side_info(s, constant_loss(0), F(1, 4)))
    fresh = scenario()
    expected = exact_threeway_joint(fresh, deviation_sign_side_info(fresh, constant_loss(0), F(1, 4)))
    assert second is not first
    assert second.weights.tolist() == expected.weights.tolist()
    assert second.weights.tolist() != first.weights.tolist()
    # the same loss and threshold again is a cache hit
    again = exact_threeway_joint(s, deviation_sign_side_info(s, membership_loss(), F(1, 4)))
    assert again is first


# ---------------------------------------------------------------------------
# privacy measurement


def test_effective_epsilon_of_rr_matches_nominal():
    for eps in (0.1, math.log(2), 1.0):
        learner = randomized_response_dp(eps, mode=EXACT)
        got, checked, witness = effective_epsilon(learner, m=1)
        assert got == pytest.approx(eps, abs=1e-12)
        assert checked == 1
        assert witness is not None


def test_effective_epsilon_unbounded_for_release():
    d = Alphabet.of_size("z", 3)
    got, _, witness = effective_epsilon(subsample_release(d, k=1, mode=EXACT), m=1)
    assert got == float("inf")
    assert witness is not None


def test_effective_epsilon_budget():
    learner = randomized_response_dp(1.0, mode=EXACT)
    with pytest.raises(EnumerationBudgetError):
        effective_epsilon(learner, m=3, budget=1)


def first_entry_rr(keep_after_zero, keep_after_one):
    """Releases the first entry through randomized response whose keep
    probability depends on the second entry: order-dependent."""

    def kern(s):
        keep = keep_after_zero if s[1] == 0 else keep_after_one
        return {s[0]: keep, 1 - s[0]: 1 - keep}

    return LearnerKernel(
        name="first_entry_rr",
        domain=Alphabet("z", (0, 1)),
        kernel=kern,
        hypotheses=lambda m: Alphabet("h", (0, 1)),
        symmetric=False,
    )


@pytest.mark.parametrize("m", [2, 3])
def test_effective_epsilon_scans_ordered_pairs_for_order_dependent_kernels(m):
    learner = first_entry_rr(F(3, 4), F(1, 2))
    want = brute.adjacent_epsilon(learner.domain.symbols, learner.kernel, m)
    assert want == pytest.approx(math.log(3))
    got, checked, witness = effective_epsilon(learner, m)
    assert got == want
    assert checked == 2 ** (m - 1) * m  # one pair of symbols per position
    s1, s2, h = witness
    assert abs(math.log(learner.kernel(s1)[h] / learner.kernel(s2)[h])) == got
    # sorted samples alone miss the pairs that differ in the first entry
    # while the second entry is 0
    sorted_scan, _, _ = effective_epsilon(dataclasses.replace(learner, symmetric=True), m)
    assert sorted_scan < want


def test_effective_epsilon_matches_brute_for_symmetric_kernels():
    for eps in (0.1, 1.0):
        learner = randomized_response_dp(eps, mode=EXACT)
        for m in (1, 2, 3):
            got, _, _ = effective_epsilon(learner, m)
            assert got == brute.adjacent_epsilon((0, 1), learner.kernel, m)


def test_ordered_adjacent_scan_budget():
    learner = first_entry_rr(F(3, 4), F(1, 2))
    kernel_evals = 2 * (2**2 * 3)  # two kernels per pair, 4 rests x 3 positions
    with pytest.raises(EnumerationBudgetError):
        effective_epsilon(learner, m=3, budget=kernel_evals - 1)
    assert effective_epsilon(learner, m=3, budget=kernel_evals)[1] == kernel_evals // 2


# ---------------------------------------------------------------------------
# kernels and validation


def test_subsample_rejects_bad_params():
    d = Alphabet.of_size("z", 3)
    with pytest.raises(ValueError):
        subsample_release(d, k=0, mode=EXACT)
    with pytest.raises(ValueError):
        subsample_release(d, k=1, delta=0, mode=EXACT)
    learner = subsample_release(d, k=3, mode=EXACT)
    with pytest.raises(ValueError):
        learner.kernel((0, 1))  # k > m


def test_subsample_alphabet_contains_empty_release():
    d = Alphabet.of_size("z", 3)
    learner = subsample_release(d, k=1, delta="0.5", mode=EXACT)
    hyp = learner.hypotheses(2)
    assert () in hyp.index
    out = learner.kernel((0, 0))
    assert out[()] == F(1, 2)
    assert out[(0,)] == F(1, 2)


def test_rr_validation():
    with pytest.raises(ValueError):
        randomized_response_dp(0.0)
    with pytest.raises(ValueError):
        randomized_response_dp(1.0, domain=Alphabet("z", (0, 1, 2)))


def test_rr_tie_releases_fair_coin():
    learner = randomized_response_dp(1.0, mode=EXACT)
    assert learner.kernel((0, 1)) == {0: F(1, 2), 1: F(1, 2)}


def test_erm_tie_break_is_first_listed():
    d = Alphabet.of_size("z", 2)
    table = {(z, h): 0 for z in range(2) for h in ("p", "q")}
    learner = erm_finite(d, ("p", "q"), table, mode=EXACT)
    assert learner.kernel((0, 1)) == {"p": 1}


def test_erm_validation():
    d = Alphabet.of_size("z", 2)
    with pytest.raises(ValueError):
        erm_finite(d, ("p",), {(0, "p"): 2}, mode=EXACT)
    with pytest.raises(ValueError):
        erm_finite(d, ("p",), {(0, "p"): 0}, mode=EXACT)  # missing (1, "p")


def test_prop1_requires_two_symbols():
    with pytest.raises(ValueError):
        prop1_counterexample(1)
    with pytest.raises(ValueError):
        prop1_counterexample(Alphabet.of_size("z", 1))


def test_prop1_uses_the_given_domain():
    d = Alphabet.of_size("z", 4)
    assert prop1_counterexample(d).domain is d
    explicit = Alphabet("z", (0, 1, 2, 3))
    assert prop1_counterexample(explicit).domain is explicit
    assert prop1_counterexample(4).domain == d
    for bad in (("a", "b"), (1, 0), (0, 2)):
        with pytest.raises(ValueError, match="memorizer needs the domain"):
            prop1_counterexample(Alphabet("z", bad))


def test_build_prop1_rejects_a_symbols_domain():
    with pytest.raises(ValueError, match="memorizer needs the domain"):
        _build_prop1(Alphabet("z", ("a", "b", "c")), {}, FLOAT64)
    cfg = ScenarioConfig.from_dict(
        {
            "name": "prop1-symbols",
            "domain": {"symbols": ["a", "b", "c"]},
            "data_dist": "uniform",
            "learner": {"name": "prop1_counterexample"},
            "m": 2,
            "audits": ["T1"],
        }
    )
    with pytest.raises(ConfigError, match="memorizer needs the domain"):
        build_scenario(cfg)


def test_large_prop1_scenario_shares_one_domain():
    cfg = ScenarioConfig.from_dict(
        {
            "name": "prop1-large",
            "domain": {"size": 1_000_000},
            "data_dist": "uniform",
            "learner": {"name": "prop1_counterexample"},
            "loss": {"name": "prop1_paired"},
            "m": 50,
            "numeric": "float",
            "mode": "mc",
            "n_runs": 10,
            "audits": ["T1"],
        }
    )
    scenario = build_scenario(cfg)
    assert scenario.learner.domain is scenario.data_dist.alphabet
    assert scenario.data_dist.alphabet.positional


def test_scenario_validation():
    d = Alphabet.of_size("z", 3)
    learner = subsample_release(d, k=1, mode=EXACT)
    with pytest.raises(ValueError):
        Scenario(name="s", learner=learner, data_dist=Dist.uniform(d, EXACT), m=0)
    other = Dist.uniform(Alphabet.of_size("w", 3), EXACT)
    with pytest.raises(DomainMismatchError):
        Scenario(name="s", learner=learner, data_dist=other, m=1)


# ---------------------------------------------------------------------------
# mutual information and stability search


def test_mutual_info_constant_is_zero():
    d = Alphabet.of_size("z", 4)
    assert sample_hypothesis_mutual_info(uniform_scenario(constant_learner(d), m=2)) == 0


def test_mutual_info_identity_is_log_n():
    d = Alphabet.of_size("z", 3)
    s = uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=1)
    assert sample_hypothesis_mutual_info(s) == pytest.approx(math.log(3))
