from fractions import Fraction

import numpy as np
import pytest

import brute
from stabaudit.dist import Alphabet, Dist
from stabaudit.info import variational_info
from stabaudit.learners import (
    Scenario,
    erm_finite,
    exact_trn_hyp_joint,
    prop1_counterexample,
    randomized_response_dp,
    subsample_release,
)
from stabaudit.losses import (
    DeviationLaw,
    ParametricLoss,
    constant_loss,
    deviation_law,
    empirical_risk,
    erm_consistency_bound,
    exhaustive_binary_loss_max,
    expected_gen_risk,
    gen_risk_from_joint,
    loss_table,
    membership_loss,
    prop1_flipped_loss,
    prop1_paired_loss,
    random_table_loss,
    table_loss,
    true_risk,
    worst_case_loss,
    zero_one_loss,
)
from stabaudit.numeric import EXACT

F = Fraction


def uniform_scenario(learner, m, loss=None, name="s"):
    dist = Dist.uniform(learner.domain, EXACT)
    return Scenario(name=name, learner=learner, data_dist=dist, m=m, loss=loss)


def dist_map(dist):
    return {z: w for z, w in zip(dist.alphabet.symbols, dist.weights)}


@pytest.fixture
def tiny_scenario():
    d = Alphabet.of_size("z", 3)
    return uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=2)


# ---------------------------------------------------------------------------
# risks


def test_empirical_risk_is_sample_mean():
    assert empirical_risk(zero_one_loss(), (0, 1, 0), 0) == F(1, 3)


def test_true_risk_direct_expectation():
    d = Alphabet.of_size("z", 3)
    dist = Dist.from_mapping(d, {0: F(1, 2), 1: F(1, 3), 2: F(1, 6)}, EXACT)
    assert true_risk(membership_loss(), (0, 2), dist) == F(1, 2) + F(1, 6)


def test_true_risk_fast_path_matches_direct():
    d = Alphabet.of_size("z", 4)
    dist = Dist.from_mapping(d, {0: F(1, 2), 1: F(1, 4), 2: F(1, 8), 3: F(1, 8)}, EXACT)
    loss = prop1_paired_loss()
    for h in (((0, 1), 0), ((0, 0), 1), ((2, 3), 1)):
        fast = loss.true_risk_fn(h, dist)
        direct = sum(w * loss.fn(z, h) for z, w in zip(d.symbols, dist.weights))
        assert fast == direct


def _prop1_risk_per_symbol(loss_name, h, dist):
    """The memorizer's true risk summed per symbol in mixed Fraction/float
    arithmetic, the way the closed form read before it had a float path."""
    key, b = h
    half = F(1, 2)
    inside = 1 - b if loss_name == "prop1_paired" else 1
    total = half
    for z in set(key):
        total = total + dist.weight(z) * (inside - half)
    return total


@pytest.mark.parametrize("make_loss", [prop1_paired_loss, prop1_flipped_loss])
def test_float_prop1_true_risk_matches_the_per_symbol_sum(make_loss):
    rng = np.random.default_rng(7)
    loss = make_loss()
    for n in (2, 5, 40):
        d = Alphabet.of_size("z", n)
        raw = rng.random(n)
        dist = Dist(d, raw / raw.sum())
        for m in (1, 3, 8):
            for b in (0, 1):
                key = tuple(sorted(int(z) for z in rng.integers(0, n, size=m)))
                got = loss.true_risk_fn((key, b), dist)
                assert type(got) is float
                assert got == _prop1_risk_per_symbol(loss.name, (key, b), dist)


def _float_valued_loss():
    return ParametricLoss(name="float_valued", fn=lambda z, h: 0.375 if z in h else 0.1)


@pytest.mark.parametrize("make_loss", [membership_loss, zero_one_loss, _float_valued_loss])
def test_exact_true_risk_from_the_table_column(make_loss):
    d = Alphabet.of_size("z", 4)
    dist = Dist.from_mapping(d, {0: F(1, 2), 1: F(1, 6), 2: F(1, 3)}, EXACT)
    hyp = subsample_release(d, k=2, mode=EXACT).hypotheses(2)
    loss = make_loss()
    table, scale = loss_table(loss, d, hyp, True)
    for column, h in zip(table.T.tolist(), hyp.symbols):
        got = true_risk(loss, h, dist, column, scale)
        assert type(got) is F
        assert got == true_risk(loss, h, dist)
        # float mode ignores the column and keeps its per-symbol sum
        fdist = dist.as_float()
        assert true_risk(loss, h, fdist, column, scale) == true_risk(loss, h, fdist)


def test_true_risk_reads_columns_and_sums_exactly_as_the_per_symbol_loop():
    rng = np.random.default_rng(11)
    n = 12  # past 8 terms, numpy's pairwise sum would round differently
    d = Alphabet.of_size("z", n)
    hyp = subsample_release(d, k=2, mode=EXACT).hypotheses(3)
    table_valued = random_table_loss(d, hyp, seed=4, levels=7)
    losses = [membership_loss(), zero_one_loss(), _float_valued_loss(), table_valued]
    for trial in range(4):
        raw = rng.random(n) * (rng.random(n) < 0.8)
        raw[trial] += 0.5
        fdist = Dist(d, raw / raw.sum())
        milli = [F(int(x * 1000)) for x in raw]
        edist = Dist(d, np.array([x / sum(milli) for x in milli], dtype=object))
        for loss in losses:
            table, scale = loss_table(loss, d, hyp, True)
            for column, h in zip(table.T.tolist(), hyp.symbols):
                want = brute.float_true_risk(loss.fn, h, fdist)
                assert true_risk(loss, h, fdist, column, scale) == want
                assert true_risk(loss, h, fdist) == want
                exact = sum(w * F(loss.fn(z, h)) for z, w in zip(d.symbols, edist.weights) if w)
                got = true_risk(loss, h, edist)
                assert type(got) is F and got == exact == true_risk(loss, h, edist, column, scale)


def test_constant_loss_generalization_is_zero(tiny_scenario):
    assert expected_gen_risk(tiny_scenario, constant_loss(F(1, 3))) == 0


# ---------------------------------------------------------------------------
# expected generalization risk vs ordered brute force


def gen_via_brute(scenario, loss):
    acc = brute.joint_pairs(dist_map(scenario.data_dist), scenario.learner.kernel, scenario.m)
    return brute.gen_risk_pairs(acc, loss.fn)


def test_gen_risk_matches_brute_subsample(tiny_scenario):
    for loss in (membership_loss(), constant_loss(1)):
        got = expected_gen_risk(tiny_scenario, loss)
        assert got == gen_via_brute(tiny_scenario, loss)


def test_gen_risk_matches_brute_rr():
    s = uniform_scenario(randomized_response_dp(0.7, mode=EXACT), m=3)
    got = expected_gen_risk(s, zero_one_loss())
    assert got == gen_via_brute(s, zero_one_loss())


def test_gen_risk_matches_brute_prop1():
    s = uniform_scenario(prop1_counterexample(3), m=2)
    for loss in (prop1_paired_loss(), prop1_flipped_loss()):
        assert expected_gen_risk(s, loss) == gen_via_brute(s, loss)


def test_gen_risk_matches_brute_random_table(tiny_scenario):
    learner = tiny_scenario.learner
    loss = random_table_loss(learner.domain, learner.hypotheses(2), seed=42)
    assert expected_gen_risk(tiny_scenario, loss) == gen_via_brute(tiny_scenario, loss)


def test_paired_memorizer_gen_risk_is_exactly_zero():
    s = uniform_scenario(prop1_counterexample(16), m=2)
    assert expected_gen_risk(s, prop1_paired_loss()) == 0


def test_flipped_memorizer_gen_risk_oracle():
    s = uniform_scenario(prop1_counterexample(16), m=2)
    assert expected_gen_risk(s, prop1_flipped_loss()) == F(225, 512)


# ---------------------------------------------------------------------------
# the maximizing loss


def test_worst_case_loss_attains_info(tiny_scenario):
    tj = exact_trn_hyp_joint(tiny_scenario)
    loss = worst_case_loss(tj)
    assert gen_risk_from_joint(tj, loss) == variational_info(tj.joint)
    assert "boundary_cells" in loss.params


def test_worst_case_loss_attains_info_rr_and_erm():
    rr = uniform_scenario(randomized_response_dp(1.0, mode=EXACT), m=3)
    d = Alphabet.of_size("z", 3)
    table = {(z, h): F(abs(z - h), 2) for z in range(3) for h in (0, 2)}
    erm = uniform_scenario(erm_finite(d, (0, 2), table, mode=EXACT), m=2)
    for s in (rr, erm):
        tj = exact_trn_hyp_joint(s)
        assert gen_risk_from_joint(tj, worst_case_loss(tj)) == variational_info(tj.joint)


def test_worst_case_true_risk_fast_path(tiny_scenario):
    tj = exact_trn_hyp_joint(tiny_scenario)
    loss = worst_case_loss(tj)
    dist = tiny_scenario.data_dist
    for h in tiny_scenario.learner.hypotheses(2).symbols:
        direct = sum(w * loss.fn(z, h) for z, w in zip(dist.alphabet.symbols, dist.weights))
        assert loss.true_risk_fn(h, dist) == direct


def test_exhaustive_binary_max_equals_info(tiny_scenario):
    tj = exact_trn_hyp_joint(tiny_scenario)
    best, table = exhaustive_binary_loss_max(tj)
    assert best == variational_info(tj.joint)
    assert table.shape == (3, 4)


def test_exhaustive_binary_max_refuses_large_joints():
    d = Alphabet.of_size("z", 5)
    s = uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=1)
    with pytest.raises(ValueError):
        exhaustive_binary_loss_max(exact_trn_hyp_joint(s))


# ---------------------------------------------------------------------------
# deviation laws


def test_deviation_law_methods_on_hand_points():
    law = DeviationLaw(
        points=((F(-1, 2), F(1, 4)), (F(0), F(1, 4)), (F(1, 2), F(1, 2))),
        scenario_name="hand",
        loss_name="hand",
    )
    assert law.expectation() == F(1, 8)
    assert law.tail_abs_ge(F(1, 2)) == F(3, 4)
    assert law.tail_abs_ge(F(2, 5)) == F(3, 4)
    assert law.tail_abs_gt(F(1, 2)) == 0
    assert law.mass_abs_near(F(1, 2), 0) == F(3, 4)
    assert law.mass_abs_near(0, 0) == F(1, 4)
    assert law.mass_abs_near(F(1, 4), F(1, 4)) == 1


def test_deviation_law_identity_membership():
    d = Alphabet.of_size("z", 3)
    s = uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=1)
    law = deviation_law(s, membership_loss())
    assert law.points == ((F(2, 3), 1),)


def test_deviation_law_matches_brute():
    d = Alphabet.of_size("z", 3)
    learner = subsample_release(d, k=2, delta="0.3", mode=EXACT)
    dist = Dist.from_mapping(d, {0: F(1, 2), 1: F(1, 3), 2: F(1, 6)}, EXACT)
    s = Scenario(name="s", learner=learner, data_dist=dist, m=3)
    law = deviation_law(s, membership_loss())
    expected = brute.deviation_points(dist_map(dist), learner.kernel, 3, membership_loss().fn)
    assert law.points == tuple(expected)


def test_deviation_law_matches_brute_prop1():
    s = uniform_scenario(prop1_counterexample(3), m=2)
    for loss in (prop1_paired_loss(), prop1_flipped_loss()):
        law = deviation_law(s, loss)
        expected = brute.deviation_points(dist_map(s.data_dist), s.learner.kernel, 2, loss.fn)
        assert law.points == tuple(expected)


def test_paired_law_is_symmetric_with_abs_mean_half_info():
    s = uniform_scenario(prop1_counterexample(16), m=2)
    law = deviation_law(s, prop1_paired_loss())
    assert law.expectation() == 0
    assert sum(abs(v) * p for v, p in law.points) == F(225, 512)
    as_set = {(v, p) for v, p in law.points}
    assert {(-v, p) for v, p in as_set} == as_set


def test_flipped_law_is_one_sided():
    s = uniform_scenario(prop1_counterexample(16), m=2)
    law = deviation_law(s, prop1_flipped_loss())
    assert all(v > 0 for v, _ in law.points)
    assert law.expectation() == F(225, 512)


def test_deviation_law_is_cached_per_loss_name():
    d = Alphabet.of_size("z", 3)
    s = uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=1)
    assert deviation_law(s, membership_loss()) is deviation_law(s, membership_loss())


def test_deviation_law_is_keyed_by_loss_values():
    d = Alphabet.of_size("z", 3)
    learner = subsample_release(d, k=1, mode=EXACT)
    s = uniform_scenario(learner, m=2)
    hyp = learner.hypotheses(2)
    tables = (
        [[1 if z in h else 0 for h in hyp.symbols] for z in d.symbols],
        [[F(1, 4) if z in h else F(z, 2) for h in hyp.symbols] for z in d.symbols],
    )
    laws = []
    for values in tables:
        loss = table_loss("t", d, hyp, values)
        law = deviation_law(s, loss)
        assert list(law.points) == brute.deviation_points(dist_map(s.data_dist), learner.kernel, 2, loss.fn)
        laws.append(law)
    assert laws[0].points != laws[1].points


def test_exact_deviation_law_is_exact_for_a_float_valued_loss():
    d = Alphabet.of_size("z", 3)
    learner = subsample_release(d, k=1, mode=EXACT)
    s = uniform_scenario(learner, m=2)
    halves = ParametricLoss(name="halves", fn=lambda z, h: 0.5 if z in h else 0.25)
    law = deviation_law(s, halves)
    assert all(isinstance(v, Fraction) and isinstance(p, Fraction) for v, p in law.points)
    assert sum(p for _, p in law.points) == 1
    exact = ParametricLoss(name="halves", fn=lambda z, h: F(1, 2) if z in h else F(1, 4))
    assert list(law.points) == brute.deviation_points(dist_map(s.data_dist), learner.kernel, 2, exact.fn)


# ---------------------------------------------------------------------------
# table losses


def test_table_loss_indexing():
    d = Alphabet.of_size("z", 2)
    h = Alphabet("h", ("p", "q"))
    loss = table_loss("t", d, h, [[0, F(1, 2)], [1, F(1, 4)]])
    assert loss(0, "p") == 0
    assert loss(1, "q") == F(1, 4)


def test_random_table_is_seed_deterministic():
    d = Alphabet.of_size("z", 3)
    h = Alphabet("h", ("p", "q"))
    a = random_table_loss(d, h, seed=7)
    b = random_table_loss(d, h, seed=7)
    c = random_table_loss(d, h, seed=8)
    grid_a = [a(z, hy) for z in d.symbols for hy in h.symbols]
    assert grid_a == [b(z, hy) for z in d.symbols for hy in h.symbols]
    assert grid_a != [c(z, hy) for z in d.symbols for hy in h.symbols]
    assert all(isinstance(v, Fraction) and 0 <= v <= 1 and v.denominator <= 16 for v in grid_a)


# ---------------------------------------------------------------------------
# ERM consistency


def test_erm_consistency_hand_case():
    d = Alphabet.of_size("z", 2)
    values = [[F(1, 2), 0], [F(1, 2), 1]]
    table = {(z, h): values[z][hi] for z in range(2) for hi, h in enumerate(("a", "b"))}
    learner = erm_finite(d, ("a", "b"), table, mode=EXACT)
    dist = Dist.from_mapping(d, {0: F(1, 4), 1: F(3, 4)}, EXACT)
    scenario = Scenario(name="erm-hand", learner=learner, data_dist=dist, m=1)
    loss = table_loss("erm", d, Alphabet("h", ("a", "b")), values)

    report = erm_consistency_bound(scenario, loss, t_grid=(F(1, 5), F(1, 4), F(1, 2)))
    assert report.best_hypothesis == "a"
    assert report.info == F(3, 8)
    assert report.excess_points == ((0, F(3, 4)), (F(1, 4), F(1, 4)))
    assert report.holds
    by_t = {t: (tail, bound, ok) for t, tail, bound, ok in report.curve}
    assert by_t[F(1, 4)] == (F(1, 4), F(3, 2), True)
    assert by_t[F(1, 2)] == (0, F(3, 4), True)
