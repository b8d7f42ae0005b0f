import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute
from strategies import cases
import stabaudit.losses as losses_module
from stabaudit.dist import Alphabet, Dist
from stabaudit.info import variational_info
from stabaudit.learners import (
    Scenario,
    batch_form,
    deviation_sign_side_info,
    erm_finite,
    exact_trn_hyp_joint,
    prop1_counterexample,
    randomized_response_dp,
    subsample_release,
    threeway_request,
    walk,
    with_batch,
)
from stabaudit.losses import (
    DeviationLaw,
    ParametricLoss,
    constant_loss,
    deviation_law,
    deviation_request,
    deviation_table,
    empirical_risk,
    erm_consistency_bound,
    exhaustive_binary_loss_max,
    expected_gen_risk,
    gen_risk_from_joint,
    loss_table,
    loss_values,
    membership_loss,
    prop1_flipped_loss,
    prop1_paired_loss,
    random_table_loss,
    table_loss,
    true_risk,
    worst_case_loss,
    zero_one_loss,
)
from stabaudit.numeric import EXACT, FLOAT64

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
    fdist = dist.as_float()
    columns, float_columns = true_risk(loss, hyp, dist, many=True), true_risk(loss, hyp, fdist, many=True)
    for got, got_float, h in zip(columns.tolist(), float_columns.tolist(), hyp.symbols):
        assert type(got) is F
        assert got == true_risk(loss, h, dist)
        # float mode reads the float table and keeps the per-symbol sum
        assert got_float == true_risk(loss, h, fdist)


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
            columns, float_columns = true_risk(loss, hyp, edist, many=True), true_risk(loss, hyp, fdist, many=True)
            for column, float_column, h in zip(columns.tolist(), float_columns.tolist(), hyp.symbols):
                want = brute.float_true_risk(loss.fn, h, fdist)
                assert float_column == want
                assert true_risk(loss, h, fdist) == want
                exact = sum(w * F(loss.fn(z, h)) for z, w in zip(d.symbols, edist.weights) if w)
                got = true_risk(loss, h, edist)
                assert type(got) is F and got == exact == column


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
        assert true_risk(loss, h, dist) == direct


@pytest.mark.parametrize("mode", [EXACT, FLOAT64], ids=["exact", "float"])
def test_worst_case_true_risk_under_another_distribution_is_the_per_symbol_sum(mode):
    """The worst-case loss of a uniform scenario read under P' = (1/2, 1/2,
    0): each risk is sum_z P'(z) L(z, h), one hypothesis at a time and over
    the hypothesis alphabet, not the scenario's risk."""
    d = Alphabet.of_size("z", 3)
    tj = exact_trn_hyp_joint(uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=2))
    worst, hyp = worst_case_loss(tj), tj.joint.axes[1]
    other = Dist(d, np.array([F(1, 2), F(1, 2), 0], dtype=object))
    other = other if mode.exact else other.as_float()
    for h, r in zip(hyp.symbols, true_risk(worst, hyp, other, many=True).tolist()):
        if mode.exact:
            want = sum(w * worst.fn(z, h) for z, w in zip(d.symbols, other.weights))
        else:
            want = brute.float_true_risk(worst.fn, h, other)
        assert r == true_risk(worst, h, other) == want and type(r) is type(want)
    assert true_risk(worst, (0,), other) == F(1, 2)


def _counted_risks(loss, calls):
    """loss with a true_risk_fn that records each hypothesis it is called on."""
    def true_risk_fn(h, dist):
        calls.append(h)
        return loss.true_risk_fn(h, dist)

    return ParametricLoss(loss.name, loss.fn, loss.params, true_risk_fn)


@pytest.mark.parametrize("make_loss", [prop1_paired_loss, prop1_flipped_loss])
def test_an_exact_memorizer_walk_reads_its_risks_from_the_table(make_loss):
    """An exact walk over the memorizer (n = 16, m = 2) makes no true_risk_fn
    call; its deviation law and joint equal the brute oracles, and its risks
    over the hypothesis alphabet are Fractions equal to the closed form."""
    s = uniform_scenario(prop1_counterexample(16), m=2)
    loss, calls = make_loss(), []
    counted = _counted_risks(loss, calls)
    law = deviation_law(s, counted)
    assert law.points == tuple(brute.deviation_points(dist_map(s.data_dist), s.learner.kernel, 2, loss.fn))
    pairs, j = brute.joint_pairs(dist_map(s.data_dist), s.learner.kernel, 2), exact_trn_hyp_joint(s).joint
    for (z, h), w in zip(itertools.product(*(ax.symbols for ax in j.axes)), j.weights.ravel().tolist()):
        assert w == pairs.get((z, h), 0)
    hyp = s.learner.hypotheses(2)
    risks = true_risk(counted, hyp, s.data_dist, many=True).tolist()
    assert calls == []
    assert all(type(r) is F for r in risks) and risks == [loss.true_risk_fn(h, s.data_dist) for h in hyp.symbols]


def test_a_wrapped_true_risk_fn_gives_its_own_risks():
    """A functools.wraps wrapper of the memorizer's true_risk_fn copies its
    batch attribute, which true_risk does not take for the wrapper: the
    wrapper's risks come back, one hypothesis at a time and with many=True."""
    loss = prop1_paired_loss()

    @functools.wraps(loss.true_risk_fn)
    def halved(h, dist):
        return loss.true_risk_fn(h, dist) / 2

    wrapped = ParametricLoss(loss.name, loss.fn, loss.params, halved)
    assert halved.batch is loss.true_risk_fn.batch  # copied by functools.wraps, and not used
    hyps = [((0, 1), 0), ((2,), 1)]
    for mode in (EXACT, FLOAT64):
        dist = Dist.uniform(Alphabet.of_size("z", 4), mode)
        want = [F(3, 8), F(3, 16)] if mode.exact else [0.375, 0.1875]
        assert [true_risk(wrapped, h, dist) for h in hyps] == want
        assert true_risk(wrapped, hyps, dist, many=True).tolist() == want


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



@pytest.mark.parametrize("big", [False, True], ids=["int64", "python-ints"])
def test_equal_loss_tables_share_laws_and_sides_and_one_entry_misses(big):
    d = Alphabet.of_size("z", 3)
    learner = subsample_release(d, k=1, delta=F(1, 2), mode=EXACT)
    s = uniform_scenario(learner, m=2)
    hyp = learner.hypotheses(2)
    low = F(1, 2**70) if big else 0  # scale 2^70: entries 2^70 and 1, Python ints

    def loss(changed=False):
        values = [[1 if z in h else low for h in hyp.symbols] for z in d.symbols]
        if changed:
            values[0][0] = 1
        return table_loss("t", d, hyp, values)

    a, b, c = loss(), loss(), loss(changed=True)
    table, _ = loss_table(a, d, hyp, True)
    assert (table.dtype == object) == big
    assert deviation_table(s, a) is not deviation_table(s, b)
    assert deviation_table(s, a).key == deviation_table(s, b).key
    assert deviation_law(s, a) is deviation_law(s, b)
    side_a, side_b = deviation_sign_side_info(s, a, F(1, 4)), deviation_sign_side_info(s, b, F(1, 4))
    assert side_a.key == side_b.key
    assert walk(s, [threeway_request(s, side_a)])[0] is walk(s, [threeway_request(s, side_b)])[0]
    assert deviation_table(s, c).key != deviation_table(s, a).key
    assert deviation_law(s, c) is not deviation_law(s, a)
    side_c = deviation_sign_side_info(s, c, F(1, 4))
    assert side_c.key != side_a.key
    assert walk(s, [threeway_request(s, side_c)])[0] is not walk(s, [threeway_request(s, side_a)])[0]

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


def test_a_float_law_holds_floats_when_the_true_risk_is_a_fraction():
    """A true_risk_fn that returns a Fraction in a float scenario: every
    deviation of the law is a Python float, and its probabilities floats."""
    d = Alphabet.of_size("z", 3)
    learner = subsample_release(d, k=1, mode=FLOAT64)
    s = Scenario(name="s", learner=learner, data_dist=Dist.uniform(d, FLOAT64), m=2)
    exact = uniform_scenario(subsample_release(d, k=1, mode=EXACT), m=2)
    member = membership_loss()
    fraction_risk = ParametricLoss(
        name="membership", fn=member.fn, true_risk_fn=lambda h, dist: true_risk(member, h, exact.data_dist)
    )
    for loss in (constant_loss(F(1, 3)), fraction_risk):
        law = deviation_law(s, loss)
        want = deviation_law(exact, loss).points
        assert all(type(v) is float and isinstance(p, float) for v, p in law.points)
        assert len(law.points) == len(want)
        for (v, p), (w, q) in zip(law.points, want):
            assert abs(v - float(w)) <= 1e-12 and abs(p - float(q)) <= 1e-12
    assert deviation_law(s, constant_loss(F(1, 3))).points[0][0] == 0.0


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


def _assert_same_table(got, want):
    """Equal (table, scale): values, dtype, value types, float bits."""
    (a, scale), (b, want_scale) = got, want
    assert scale == want_scale and a.dtype == b.dtype and a.shape == b.shape
    assert [type(x) for x in a.ravel()] == [type(x) for x in b.ravel()]
    assert a.tolist() == b.tolist()
    if a.dtype != object:
        assert a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**16), st.sampled_from([1, 2, 4, 7, 12, 16]))
@example(n=2, k=2, seed=0, levels=16)  # draws 0, 0, 10, 4: gcd 2
@example(n=2, k=2, seed=9, levels=12)  # draws 10, 2, 4, 10: gcd 2
@example(n=2, k=2, seed=22, levels=4)  # draws all 2: gcd 2
def test_seeded_tables_equal_the_per_cell_build(n, k, seed, levels):
    """random_table_loss seeds both tables; a plain loss with the same fn
    builds them cell by cell.  They agree in both modes, also when the
    draws share a factor with levels and the exact scale drops below it."""
    d = Alphabet.of_size("z", n)
    hyp = Alphabet("h", tuple(f"h{i}" for i in range(k)))
    loss = random_table_loss(d, hyp, seed=seed, levels=levels)
    plain = ParametricLoss(name=loss.name, fn=loss.fn)
    assert set(loss._tables) == {(d, hyp, True), (d, hyp, False)}
    for exact in (True, False):
        _assert_same_table(loss_table(loss, d, hyp, exact), loss_table(plain, d, hyp, exact))


@pytest.mark.parametrize("mode", [EXACT, FLOAT64], ids=["exact", "float"])
def test_worst_case_tables_equal_the_per_cell_build(mode):
    d = Alphabet.of_size("z", 3)
    s = Scenario(
        name="s", learner=subsample_release(d, k=1, mode=mode), data_dist=Dist.uniform(d, mode), m=2
    )
    tj = exact_trn_hyp_joint(s)
    loss = worst_case_loss(tj)
    plain = ParametricLoss(name=loss.name, fn=loss.fn)
    z, h = tj.joint.axes
    for exact in (True, False):
        _assert_same_table(loss_table(loss, z, h, exact), loss_table(plain, z, h, exact))


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


# ---------------------------------------------------------------------------
# built-in losses: tables from their array forms


def _per_cell(loss):
    """The same loss with a functools.wraps copy of fn, which keeps the
    copied batch attribute but has no array form, so loss_values calls it
    once per distinct cell."""

    @functools.wraps(loss.fn)
    def fn(z, h):
        return loss.fn(z, h)

    return ParametricLoss(loss.name, fn, loss.params, loss.true_risk_fn)


def _built_in_cases(domain, keyed, singles):
    """(loss, hypotheses) for every built-in loss."""
    hyp = Alphabet("h", tuple(f"h{i}" for i in range(len(keyed))))
    return [
        (membership_loss(), keyed + [()]),
        (zero_one_loss(), singles),
        (prop1_paired_loss(), [(key, b) for key in keyed for b in (0, 1)]),
        (prop1_flipped_loss(), [(key, 0) for key in keyed]),
        (random_table_loss(domain, hyp, seed=len(singles), levels=12), list(hyp.symbols)),
    ] + [(constant_loss(v), singles) for v in (1, F(1, 3), 0.1, 0, F(2**54 + 1, 3), F(2**60 + 3, 3**38))]


@st.composite
def _domains(draw):
    """A positional domain, or one of mixed symbols in any order."""
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return Alphabet.of_size("z", n)
    pool = [0, 1, 2, 3, -2, "a", "b", (0, 1), 2.5, 5.0]
    return Alphabet("z", tuple(draw(st.permutations(pool))[:n]))


# hypothesis symbols outside every domain above, and True, which equals 1
FOREIGN = ["zz", 7.5, -9, (3,), True]


@settings(max_examples=120, deadline=None)
@given(_domains(), st.integers(1, 3), st.data())
def test_built_in_tables_equal_the_per_cell_build(domain, k, data):
    """Every built-in loss's table, read from its array form, equals the
    per-cell build of the same fn: values, dtype, value types, float bits
    and scale, in both modes.  The last two constants have numerators past
    2^53, the last a scale past 2^53 too, where a float64 quotient would
    round twice."""
    symbols = list(domain.symbols) + FOREIGN
    tuples = st.lists(st.sampled_from(symbols), min_size=1, max_size=k).map(tuple)
    keyed = data.draw(st.lists(tuples, min_size=1, max_size=6, unique=True))
    singles = data.draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=6, unique_by=repr))
    for loss, hyps in _built_in_cases(domain, keyed, singles):
        hyp = Alphabet("h", tuple(dict.fromkeys(hyps)))
        for exact in (True, False):
            _assert_same_table(loss_table(loss, domain, hyp, exact), loss_table(_per_cell(loss), domain, hyp, exact))


def test_hypotheses_on_which_membership_is_not_equality_keep_their_values():
    d = Alphabet("z", ("a", "ab", "c"))
    hyp = Alphabet("h", ("abc", ("ab",), "x"))
    loss = membership_loss()
    for exact in (True, False):
        _assert_same_table(loss_table(loss, d, hyp, exact), loss_table(_per_cell(loss), d, hyp, exact))
    assert loss_table(loss, d, hyp, True)[0].tolist() == [[1, 0, 0], [1, 1, 0], [1, 0, 0]]


def test_a_wrapped_loss_fn_gets_the_per_cell_table():
    d = Alphabet.of_size("z", 3)
    hyp = subsample_release(d, k=2).hypotheses(2)
    loss = membership_loss()
    calls = []

    @functools.wraps(loss.fn)
    def fn(z, h):
        calls.append((z, h))
        return loss.fn(z, h)

    wrapped = ParametricLoss(loss.name, fn)
    assert fn.batch is loss.fn.batch  # copied by functools.wraps, and not used
    _assert_same_table(loss_table(wrapped, d, hyp, True), loss_table(loss, d, hyp, True))
    assert len(calls) == len(d) * len(hyp)


def test_the_array_forms_give_monte_carlo_floats():
    """The float values that loss_values reads from each array form equal
    float(fn), on symbols of any type and on integer arrays with negative values and
    key members past every z (whose pair codes must not meet a wanted one)."""
    objects = np.array([["b", 4], ["a", "a"]], dtype=object)
    ints = np.array([[3, -2], [-2, 0]])
    h = np.array([[1, 0], [1, 2]])
    for loss, hyps, z in [
        (membership_loss(), [("a", 4), (4,), ()], objects),
        (zero_one_loss(), ["a", 4, "q"], objects),
        (membership_loss(), [(9,), (-1,), (0, True)], ints),
        (zero_one_loss(), [9, -1, 0], ints),
        (prop1_paired_loss(), [((9,), 0), ((-1, 3), 1), ((-2,), 0)], ints),
        (constant_loss(F(1, 3)), [0, 1, 2], ints),
        (constant_loss(0.1), [0, 1, 2], objects),
    ]:
        got = loss_values(loss, z, hyps, h, False)[0]
        assert got.dtype == np.float64
        assert got.tolist() == [[float(loss.fn(a, hyps[i])) for a, i in zip(zr, hr)] for zr, hr in zip(z.tolist(), h)]


def test_the_law_and_the_sign_side_share_one_deviation_table(monkeypatch):
    """One DeviationTable per scenario and loss: the deviation law and the
    sign side channel of one walk compute every true risk in one true_risk
    call that covers each hypothesis once."""
    d = Alphabet.of_size("z", 4)
    s = uniform_scenario(subsample_release(d, k=2, delta=F(1, 2), mode=EXACT), m=3, loss=membership_loss())
    calls = []

    def counted(loss, h, dist, **kwargs):
        calls.append((h, kwargs))
        return true_risk(loss, h, dist, **kwargs)

    monkeypatch.setattr(losses_module, "true_risk", counted)
    side = deviation_sign_side_info(s, s.loss, F(1, 4))
    assert deviation_table(s, s.loss) is deviation_table(s, s.loss)
    assert deviation_table(s, membership_loss()) is not deviation_table(s, s.loss)
    law, j3 = walk(s, [deviation_request(s, s.loss), threeway_request(s, side)])
    assert calls == [(s.learner.hypotheses(3), {"many": True})]
    fresh = uniform_scenario(s.learner, m=3, loss=membership_loss())
    assert law.points == deviation_law(fresh, fresh.loss).points


# ---------------------------------------------------------------------------
# one reader of loss values, one formula for true risks


@settings(max_examples=80, deadline=None)
@given(_domains(), st.data())
def test_loss_values_equal_fn_cell_by_cell(domain, data):
    """loss_values against fn on every (z, h) cell, with and without the
    array form, in both modes: z drawn with repeats, and z and h in shapes
    that broadcast.  Without an array form fn runs once per distinct cell."""
    symbols = list(domain.symbols)
    tuples = st.lists(st.sampled_from(symbols + FOREIGN), min_size=1, max_size=3).map(tuple)
    keyed = data.draw(st.lists(tuples, min_size=1, max_size=4, unique=True))
    singles = data.draw(st.lists(st.sampled_from(symbols + FOREIGN), min_size=1, max_size=4, unique_by=repr))
    rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    grid = st.lists(st.integers(0, len(domain) - 1), min_size=rows * cols, max_size=rows * cols)
    idx = np.array(data.draw(grid)).reshape(rows, cols)
    shape = data.draw(st.sampled_from(["full", "outer", "row"]))
    z = domain.symbols_at(idx[:, :1] if shape == "outer" else idx)
    for loss, hyps in _built_in_cases(domain, keyed, singles):
        hyps = list(dict.fromkeys(hyps))
        picks = st.lists(st.integers(0, len(hyps) - 1), min_size=rows * cols, max_size=rows * cols)
        hi = np.array(data.draw(picks)).reshape(rows, cols)
        h = {"full": hi, "outer": hi[0], "row": hi[:1]}[shape]
        calls = []
        plain = _per_cell(loss)
        counted = ParametricLoss(loss.name, lambda a, b: calls.append((a, b)) or plain.fn(a, b))
        zs, hs = (x.tolist() for x in np.broadcast_arrays(z, h))
        want = [[loss.fn(a, hyps[b]) for a, b in zip(zr, hr)] for zr, hr in zip(zs, hs)]
        for exact in (True, False):
            got = loss_values(loss, z, hyps, h, exact)
            _assert_same_table(loss_values(plain, z, hyps, h, exact), got)
            values, scale = got
            assert values.shape == np.broadcast(z, h).shape
            if exact:
                assert all(type(x) is int for x in values.ravel().tolist())
                assert [[F(x, scale) for x in row] for row in values.tolist()] == [[F(x) for x in r] for r in want]
            else:
                assert scale == 1 and values.dtype == np.float64
                assert values.tolist() == [[float(x) for x in r] for r in want]
            calls.clear()
            _assert_same_table(loss_values(counted, z, hyps, h, exact), got)
            distinct = {(domain.index[a], b) for zr, hr in zip(zs, hs) for a, b in zip(zr, hr)}
            assert len(calls) == len(distinct)


@st.composite
def _risk_cases(draw):
    """A domain, positional or not, with weights that may be zero, as an
    exact and a float distribution of the same law."""
    n = draw(st.integers(1, 12))  # past 8 terms, numpy's pairwise sum would round differently
    domain = Alphabet.of_size("z", n) if draw(st.booleans()) else Alphabet("z", tuple(f"s{i}" for i in range(n)))
    raw = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n).filter(any))
    edist = Dist(domain, np.array([F(r, sum(raw)) for r in raw], dtype=object))
    return domain, edist, edist.as_float()


@settings(max_examples=80, deadline=None)
@given(_risk_cases(), st.data())
def test_true_risks_equal_the_per_symbol_sums(case, data):
    """true_risk(..., many=True) on a hypothesis Alphabet and on a sequence:
    the exact risks equal the per-symbol Fraction sums, and the float risks
    equal brute.float_true_risk bit for bit, or float(true_risk_fn) where the
    loss has one."""
    domain, edist, fdist = case
    symbols = list(domain.symbols)
    keys = st.lists(st.sampled_from(symbols), min_size=1, max_size=3).map(lambda k: tuple(sorted(set(k), key=str)))
    keyed = data.draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    singles = data.draw(st.lists(st.sampled_from(symbols + ["zz"]), min_size=1, max_size=4, unique=True))
    cases = _built_in_cases(domain, keyed, singles)
    cases += [(_per_cell(loss), hyps) for loss, hyps in cases] + [(_float_valued_loss(), keyed)]
    for loss, hyps in cases:
        hyp = Alphabet("h", tuple(dict.fromkeys(hyps)))
        for hs in (hyp, list(hyp.symbols)):
            exact, floats = true_risk(loss, hs, edist, many=True), true_risk(loss, hs, fdist, many=True)
            assert exact.dtype == object and floats.dtype == np.float64
            for h, r, x in zip(hyp.symbols, exact.tolist(), floats.tolist()):
                assert r == sum(w * F(loss.fn(z, h)) for z, w in zip(symbols, edist.weights) if w)
                assert r == true_risk(loss, h, edist) and x == true_risk(loss, h, fdist)
                if loss.true_risk_fn is None:
                    assert type(r) is F and x == brute.float_true_risk(loss.fn, h, fdist)
                else:
                    assert x == float(loss.true_risk_fn(h, fdist))


def test_true_risks_of_a_long_sequence_cross_the_chunk_edge(monkeypatch):
    """4,096 symbols of positive weight (and 904 of weight zero) give 256
    hypotheses per chunk of 2^20 cells: 259 hypotheses take two chunks."""
    n = 5000
    d = Alphabet.of_size("z", n)
    raw = np.arange(n) % 11
    raw[np.flatnonzero(raw)[4096:]] = 0
    assert np.count_nonzero(raw) == 4096
    edist = Dist(d, np.array([F(int(r), int(raw.sum())) for r in raw], dtype=object))
    fdist = edist.as_float()
    rng = np.random.default_rng(5)
    hyps = [tuple(sorted(set(rng.integers(0, n, size=3).tolist()))) for _ in range(259)]
    chunks = []
    reader = losses_module.loss_values
    monkeypatch.setattr(losses_module, "loss_values", lambda *args: chunks.append(args[3]) or reader(*args))
    loss = membership_loss()
    floats = true_risk(loss, hyps, fdist, many=True)
    assert [len(c) for c in chunks] == [256, 3]
    exact = true_risk(loss, hyps, edist, many=True)
    for i in (0, 255, 256, 258):
        assert floats[i] == brute.float_true_risk(loss.fn, hyps[i], fdist)
        assert exact[i] == sum(edist.weights[z] for z in set(hyps[i]))
    monkeypatch.undo()
    assert floats.tolist() == [true_risk(loss, h, fdist) for h in hyps]


@pytest.mark.parametrize("mode", [EXACT, FLOAT64], ids=["exact", "float"])
def test_the_risks_of_a_cached_table_make_no_second_array_form_call(mode):
    d = Alphabet.of_size("z", 5)
    hyp = subsample_release(d, k=2).hypotheses(3)
    dist = Dist(d, np.array([F(1, 8), 0, F(3, 8), F(1, 4), F(1, 4)], dtype=object))
    dist = dist if mode.exact else dist.as_float()
    integers = batch_form(membership_loss().fn)
    calls = []

    def counted(z, hypotheses, h):
        calls.append(h.shape)
        return integers(z, hypotheses, h)

    loss = ParametricLoss("membership", with_batch(lambda z, h: 1 if z in h else 0, counted))
    loss_table(loss, d, hyp, mode.exact)
    assert len(calls) == 1
    risks = true_risk(loss, hyp, dist, many=True)
    assert len(calls) == 1
    assert risks.tolist() == [true_risk(membership_loss(), h, dist) for h in hyp.symbols]


def test_float_mode_gives_a_float():
    d = Alphabet.of_size("z", 3)
    fdist, edist = Dist.uniform(d, FLOAT64), Dist.uniform(d, EXACT)
    for value in (F(1, 3), 1, 0.25):
        loss = constant_loss(value)
        got = true_risk(loss, (0,), fdist)
        assert type(got) is float and got == float(value)
        many = true_risk(loss, [(0,), (1, 2)], fdist, many=True)
        assert many.dtype == np.float64 and many.tolist() == [float(value)] * 2
        assert all(type(x) is float for x in many.tolist())
        assert true_risk(loss, (0,), edist) == value


# ---------------------------------------------------------------------------
# tail reads against the per-point expressions


def _same(a, b):
    assert type(a) is type(b) and a == b


@st.composite
def _hand_laws(draw):
    """A law of up to 6 points, exact (Fraction values and masses) or
    float, and thresholds at its |values|, between them, and special."""
    exact = draw(st.booleans())
    values = sorted(set(draw(st.lists(st.fractions(-1, 1, max_denominator=12), max_size=6))))
    masses = draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
    total = sum(masses)
    if exact:
        points = tuple((v, F(p, total)) for v, p in zip(values, masses))
    else:
        points = tuple((float(v), p / total) for v, p in zip(values, masses))
    near = [abs(v) for v in values] + [F(1, 3), F(1, 2)]
    t = draw(
        st.sampled_from(near).flatmap(lambda x: st.sampled_from([x, float(x), float(x) + 1e-12, float(x) - 1e-12]))
        | st.sampled_from([float("nan"), float("inf"), -float("inf"), 0, 1, 0.0, -0.25])
        | st.integers(-1, 2)
        | st.fractions(-2, 2, max_denominator=30)
        | st.floats(-2, 2)
    )
    return DeviationLaw(points, "hand", "hand"), t


@settings(max_examples=400, deadline=None)
@given(_hand_laws(), st.sampled_from([0, 1e-12]))
def test_tail_reads_equal_the_per_point_sums(case, tol):
    law, t = case
    _same(law.tail_abs_ge(t, tol=tol), sum(p for v, p in law.points if abs(v) >= t - tol))
    _same(law.tail_abs_gt(t, tol=tol), sum(p for v, p in law.points if abs(v) > t + tol))


def test_a_float_threshold_is_converted_once_per_exact_read(monkeypatch):
    law = DeviationLaw(tuple((F(i, 7), F(1, 10)) for i in range(-4, 6)), "hand", "hand")
    calls = []
    from_float = F.from_float.__func__
    monkeypatch.setattr(F, "from_float", classmethod(lambda cls, x: calls.append(x) or from_float(cls, x)))
    assert law.tail_abs_ge(0.3) == F(5, 10)
    assert law.tail_abs_gt(0.25, tol=0.01) == F(7, 10)
    assert calls == []  # Fraction's float comparisons call from_float


@settings(max_examples=60, deadline=None)
@given(
    cases(),
    st.lists(
        st.sampled_from([0.05, 0.25, 0.5, 1, F(1, 3), F(1, 4), float("nan"), float("inf")]) | st.floats(0.01, 1),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([0, 1e-12]),
)
def test_erm_curve_tails_equal_the_per_point_sums(case, t_grid, tol):
    *scenarios, loss = case
    for s in scenarios:
        report = erm_consistency_bound(s, loss, t_grid=t_grid, tol=tol)
        shift = 0 if s.data_dist.is_exact else losses_module.VALUE_ATOL
        for t, tail, _, _ in report.curve:
            _same(tail, sum(p for v, p in report.excess_points if v >= t - shift))
