"""The walk's accumulators (joint, three-way joint with the deviation-sign
side channel, deviation law, I(S;H)) against the ordered brute-force
oracles on random small scenarios, float mode against exact mode, and the
chain rule and data processing on what they build.  Block sizes 1, 2 and 7
put block edges inside the sample space: the batch kernels and the
per-sample adapter must match the oracles there, and in float mode give
bit-identical results."""

import dataclasses
import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
import stabaudit.learners as learners
from stabaudit.dist import Alphabet, Dist, TransitionKernel
from stabaudit.info import chain_decompose, dpi_check
from stabaudit.learners import (
    Scenario,
    batch_form,
    deviation_sign_side_info,
    mi_request,
    rerun_side_info,
    subsample_release,
    threeway_request,
    trn_hyp_request,
    walk,
)
from stabaudit.losses import (
    DeviationTable,
    deviation_request,
    deviation_table,
    loss_table,
    membership_loss,
    table_loss,
)
from stabaudit.numeric import EXACT, FLOAT64
from strategies import BLOCK_SIZES, block_size, losses, per_sample_twin, releases, scenarios

F = Fraction

#: (3 - sqrt 5) / 2 is badly approximable, so no deviation of these small
#: scenarios lies within float error of it and both modes agree on every flag
FAR_THRESHOLD = (3 - 5**0.5) / 2


@st.composite
def walk_cases(draw):
    s_exact, s_float = draw(scenarios())
    loss = draw(losses(s_exact.learner.domain, s_exact.learner.hypotheses(s_exact.m)))
    return s_exact, s_float, loss


def _walk_all(s, loss, side):
    requests = [trn_hyp_request(s), threeway_request(s, side), deviation_request(s, loss), mi_request(s)]
    return walk(s, requests)


def _cells(joint):
    return zip(itertools.product(*(ax.symbols for ax in joint.axes)), joint.weights.ravel())


def _dist_map(s):
    return dict(zip(s.data_dist.alphabet.symbols, s.data_dist.weights))


@st.composite
def release_cases(draw):
    s_exact, s_float = draw(releases())
    loss = draw(losses(s_exact.learner.domain, s_exact.learner.hypotheses(s_exact.m)))
    return s_exact, s_float, loss


def _fresh(s):
    """s with an empty cache."""
    return Scenario(name=s.name, learner=s.learner, data_dist=s.data_dist, m=s.m, loss=s.loss)


def _assert_matches_oracles(s, loss, threshold, results):
    tj, j3, law, mi = results
    dist_map, kernel, m = _dist_map(s), s.learner.kernel, s.m
    pairs = brute.joint_pairs(dist_map, kernel, m)
    assert all(got == pairs.get(idx, 0) for idx, got in _cells(tj.joint))
    triples = brute.threeway_triples(dist_map, kernel, brute.deviation_sign(dist_map, loss.fn, threshold), m)
    assert all(got == triples.get(idx, 0) for idx, got in _cells(j3))
    assert list(law.points) == brute.deviation_points(dist_map, kernel, m, loss.fn)
    assert mi == pytest.approx(brute.sample_hyp_mi(dist_map, kernel, m), rel=1e-9, abs=1e-12)


def _assert_same(a, b):
    """Equal walk results; float arrays equal bit for bit."""
    (tj, j3, law, mi), (tj2, j32, law2, mi2) = a, b
    for x, y in ((tj.joint.weights, tj2.joint.weights), (j3.weights, j32.weights)):
        assert x.dtype == y.dtype and x.tolist() == y.tolist()
        if x.dtype != object:
            assert x.tobytes() == y.tobytes()
    assert tj.kernel_evals == tj2.kernel_evals
    assert law.points == law2.points
    assert mi == mi2


@settings(max_examples=60, deadline=None)
@given(release_cases(), st.sampled_from(BLOCK_SIZES), st.sampled_from([F(1, 4), F(1, 2)]))
def test_batch_kernels_match_the_oracles_across_block_edges(case, size, threshold):
    s, _, loss = case
    twin = per_sample_twin(s)
    assert batch_form(s.learner.kernel) is not None and batch_form(twin.learner.kernel) is None
    with block_size(size):
        batch = _walk_all(s, loss, deviation_sign_side_info(s, loss, threshold))
        adapter = _walk_all(twin, loss, deviation_sign_side_info(twin, loss, threshold))
    _assert_matches_oracles(s, loss, threshold, batch)
    _assert_same(batch, adapter)


@settings(max_examples=60, deadline=None)
@given(release_cases(), st.sampled_from(BLOCK_SIZES))
def test_float_batch_kernels_are_bit_identical_to_the_adapter(case, size):
    _, s, loss = case
    twin = per_sample_twin(s)
    with block_size(size):
        batch = _walk_all(s, loss, deviation_sign_side_info(s, loss, 0.25))
    adapter = _walk_all(twin, loss, deviation_sign_side_info(twin, loss, 0.25))
    _assert_same(batch, adapter)
    assert batch[3] == brute.walk_float_mi(s.data_dist, s.learner.kernel, s.m)


@settings(max_examples=40, deadline=None)
@given(release_cases(), st.sampled_from(BLOCK_SIZES))
def test_an_ordered_walk_of_a_release_matches_the_oracles(case, size):
    """A release copied with symmetric=False walks every ordered sample, in
    itertools.product order, so its rows are not in index order and its
    kernel must run per sample, not through the batch form."""
    s, _, loss = case
    ordered = Scenario(
        name=s.name, learner=dataclasses.replace(s.learner, symmetric=False), data_dist=s.data_dist, m=s.m
    )
    with block_size(size):
        results = _walk_all(ordered, loss, deviation_sign_side_info(ordered, loss, F(1, 4)))
    _assert_matches_oracles(ordered, loss, F(1, 4), results)
    assert results[0].method == "exact-ordered"


def _per_sample_side(side):
    """side with its fn wrapped, so it loses its batch form and runs once per
    kernel entry through the adapter."""
    fn = side.fn
    return dataclasses.replace(side, fn=functools.wraps(fn)(lambda sample, h: fn(sample, h)))


@settings(max_examples=40, deadline=None)
@given(release_cases(), st.sampled_from(BLOCK_SIZES), st.booleans())
def test_the_sign_side_per_sample_matches_its_batch_form(case, size, symmetric):
    """The sign side channel's per-sample fn, in symmetric and ordered walks:
    equal to its batch form in exact mode, bit-identical in float mode."""
    for s, threshold in ((case[0], F(1, 4)), (case[1], 0.25)):
        learner = dataclasses.replace(s.learner, symmetric=symmetric)
        walked = []
        for per_sample in (False, True):
            fresh = Scenario(name=s.name, learner=learner, data_dist=s.data_dist, m=s.m)
            side = deviation_sign_side_info(fresh, case[2], threshold)
            if per_sample:
                side = _per_sample_side(side)
                assert batch_form(side.fn) is None
            with block_size(size):
                walked.append(_walk_all(fresh, case[2], side))
        _assert_same(*walked)


@settings(max_examples=60, deadline=None)
@given(walk_cases(), st.sampled_from(BLOCK_SIZES))
def test_adapter_blocks_match_the_oracles_and_one_block(case, size):
    s, s_float, loss = case
    with block_size(size):
        exact = _walk_all(s, loss, deviation_sign_side_info(s, loss, F(1, 4)))
        floats = _walk_all(s_float, loss, deviation_sign_side_info(s_float, loss, 0.25))
    _assert_matches_oracles(s, loss, F(1, 4), exact)
    one = _fresh(s_float)
    _assert_same(floats, _walk_all(one, loss, deviation_sign_side_info(one, loss, 0.25)))


@pytest.mark.parametrize("mode", [EXACT, FLOAT64], ids=["exact", "float"])
def test_one_large_block_equals_small_blocks(mode):
    """330 multisets in one block of about 1,500 kernel entries, or in
    blocks of 7 samples: the results must agree, in float mode bit for
    bit."""
    domain = Alphabet.of_size("z", 8)
    raw = [F(i % 3 + 1) for i in range(8)]
    conv = (lambda x: x) if mode.exact else float
    dist = Dist(domain, np.array([conv(w / sum(raw)) for w in raw], dtype=mode.dtype))
    learner = subsample_release(domain, 2, F(1, 2), mode=mode)
    loss = membership_loss()
    threshold = F(1, 4) if mode.exact else 0.25
    results = []
    for size in (learners.BLOCK_SIZE, 7):
        s = Scenario(name="large", learner=learner, data_dist=dist, m=4, loss=loss)
        with block_size(size):
            results.append(_walk_all(s, loss, deviation_sign_side_info(s, loss, threshold)))
    _assert_same(*results)


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_a_loss_table_past_int64_sums_matches_the_oracles(size):
    """A loss over a denominator past 2^40: its sums e are int64, as
    3 * max |entry| < 2^63, while the exact codes e * D - m * scale * R_num
    pass 2^63 and are Python ints; the (h, e) pairs, the sign side channel
    and the deviation law still match the oracles."""
    domain = Alphabet("z", tuple("bac"))
    dist = Dist(domain, np.array([F(1, 2), F(1, 3), F(1, 6)], dtype=object))
    s = Scenario(name="big", learner=subsample_release(domain, 2, F(1, 2), mode=EXACT), data_dist=dist, m=3)
    hyp = s.learner.hypotheses(3)
    tiny = F(1, 2**40 + 1)
    values = [[F((3 * i + j) % 5, 5) + tiny * ((i + j) % 2) for j in range(len(hyp))] for i in range(len(domain))]
    loss = table_loss("big", domain, hyp, values)
    assert deviation_table(s, loss).sums_table.dtype == np.int64
    with block_size(size):
        results = _walk_all(s, loss, deviation_sign_side_info(s, loss, F(1, 4)))
    _assert_matches_oracles(s, loss, F(1, 4), results)


#: thresholds of the array deviation tests: 1/3, which no float equals,
#: and 1/4 and 0.25, which quarter-grid deviations hit exactly
THRESHOLDS = (F(1, 3), F(1, 4), 0.25)


def _assert_deviations_match(s, s_float, loss, threshold, per_sample):
    """The deviation law and the sign side's three-way joint in both modes
    against the oracles: exact mode equal; float mode with the float
    oracles' deviations, the same values and masses within 1e-12."""
    dist_map, kernel, m = _dist_map(s), s.learner.kernel, s.m
    for scenario in (s, s_float):
        side = deviation_sign_side_info(scenario, loss, threshold)
        if per_sample:
            side = _per_sample_side(side)
        law, j3 = walk(scenario, [deviation_request(scenario, loss), threeway_request(scenario, side)])
        if scenario is s:
            assert list(law.points) == brute.deviation_points(dist_map, kernel, m, loss.fn)
            sign = brute.deviation_sign(dist_map, loss.fn, threshold)
            triples = brute.threeway_triples(dist_map, kernel, sign, m)
            assert all(got == triples.get(idx, 0) for idx, got in _cells(j3))
            continue
        fdist = s_float.data_dist
        want = brute.float_deviation_points(dist_map, kernel, m, loss.fn, fdist)
        assert all(type(v) is float for v, _ in law.points)
        assert [v for v, _ in law.points] == [v for v, _ in want]
        assert all(abs(p - float(q)) <= 1e-12 for (_, p), (_, q) in zip(law.points, want))
        sign = brute.float_deviation_sign(loss.fn, fdist, threshold)
        triples = brute.threeway_triples(dist_map, kernel, sign, m)
        assert all(abs(got - float(triples.get(idx, 0))) <= 1e-12 for idx, got in _cells(j3))


@settings(max_examples=60, deadline=None)
@given(walk_cases(), st.sampled_from(BLOCK_SIZES), st.sampled_from(THRESHOLDS))
def test_array_deviations_match_the_oracles_in_both_modes(case, size, threshold):
    s, s_float, loss = case
    with block_size(size):
        _assert_deviations_match(s, s_float, loss, threshold, False)


@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize("threshold", THRESHOLDS, ids=str)
@pytest.mark.parametrize("per_sample", [False, True], ids=["batch", "per-sample"])
def test_array_deviations_past_int64_match_the_oracles(size, threshold, per_sample):
    """A loss over a denominator past 2^60: the sums e and the exact codes
    are Python ints (object arrays), and m * scale is past 2^53, so float
    mode divides in Python ints; the sign side runs batched and per sample."""
    domain = Alphabet("z", tuple("bac"))
    weights = [F(1, 2), F(1, 3), F(1, 6)]
    s, s_float = (
        Scenario(
            name="big",
            learner=subsample_release(domain, 2, F(1, 2), mode=mode),
            data_dist=Dist(domain, np.array([conv(w) for w in weights], dtype=mode.dtype)),
            m=3,
        )
        for mode, conv in ((EXACT, F), (FLOAT64, float))
    )
    hyp = s.learner.hypotheses(3)
    tiny = F(1, 2**60 + 1)
    values = [[F((3 * i + j) % 5, 5) + tiny * ((i + j) % 2) for j in range(len(hyp))] for i in range(len(domain))]
    loss = table_loss("big", domain, hyp, values)
    assert deviation_table(s, loss).sums_table.dtype == object  # 3 * max |entry| >= 2^63
    assert 3 * loss_table(loss, domain, hyp, True)[1] >= 2**53
    with block_size(size):
        _assert_deviations_match(s, s_float, loss, threshold, per_sample)


@pytest.mark.parametrize("size", BLOCK_SIZES)
@pytest.mark.parametrize("mode", [EXACT, FLOAT64], ids=["exact", "float"])
def test_a_walk_computes_the_deviations_once_per_block(size, mode, monkeypatch):
    """The deviation law and the sign side channel of one walk share one
    pass of deviations per block: DeviationTable.deviations runs once per
    block, on one element per kernel entry."""
    domain = Alphabet.of_size("z", 4)
    s = Scenario(
        name="once",
        learner=subsample_release(domain, 2, F(1, 2), mode=mode),
        data_dist=Dist.uniform(domain, mode),
        m=3,
    )
    calls, blocks = [], []
    deviations, own_blocks = DeviationTable.deviations, learners._blocks

    def counted(self, h, e):
        calls.append(len(h))
        return deviations(self, h, e)

    def counted_blocks(*args):
        for block in own_blocks(*args):
            blocks.append(block)
            yield block

    monkeypatch.setattr(DeviationTable, "deviations", counted)
    monkeypatch.setattr(learners, "_blocks", counted_blocks)
    loss = membership_loss()
    with block_size(size):
        walk(s, [deviation_request(s, loss), threeway_request(s, deviation_sign_side_info(s, loss, F(1, 4)))])
    samples = itertools.combinations_with_replacement(domain.symbols, 3)
    entries = sum(1 for sample in samples for p in s.learner.kernel(sample).values() if p)
    assert len(blocks) > 1 and len(calls) == len(blocks) and sum(calls) == entries


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_exact_risks_past_int64_match_the_oracles(size):
    """Data weights whose common denominator passes 2^63: the true risks'
    numerators are Python ints (an object array) while the sums e of the
    0/1 membership table stay int64.  The deviation law and the sign side's
    three-way joint match the oracles, and the per-sample sign fn equals
    its batch form."""
    domain = Alphabet("z", tuple("bac"))
    tiny = F(1, 2**64 + 13)
    dist = Dist(domain, np.array([F(1, 3) + tiny, F(1, 3), F(1, 3) - tiny], dtype=object))
    assert dist.integer_weights[1] >= 2**63
    loss = membership_loss()
    walked = []
    for per_sample in (False, True):
        s = Scenario(name="big", learner=subsample_release(domain, 2, F(1, 2), mode=EXACT), data_dist=dist, m=3)
        assert deviation_table(s, loss).sums_table.dtype == np.int64  # 3 * max |entry| = 3
        side = deviation_sign_side_info(s, loss, F(1, 4))
        if per_sample:
            side = _per_sample_side(side)
        with block_size(size):
            walked.append(_walk_all(s, loss, side))
        assert deviation_table(s, loss)._risks[0].dtype == object
    _assert_matches_oracles(s, loss, F(1, 4), walked[0])
    _assert_same(*walked)


#: data denominators d that put each int64 bound of a walk with m = 2 and a
#: release with k = 1 (kernel den 2 or 4) just below 2^63 and then just
#: above: the cell sums (d^2 * den * 2), the entry masses (d^2 * den), the
#: block weights (d^2 * 2!) and the weights' den d^2 itself
EDGE_DATA_DENS = (2**30 - 1, 2**30 + 1, 1518500249, 1518500251, 2**31 - 1, 2**31 + 1, 3037000499, 3037000501, 2**32 + 1)


@pytest.mark.parametrize("delta", [F(1), F(1, 2)], ids=["delta=1", "delta=1/2"])
@pytest.mark.parametrize("d", EDGE_DATA_DENS)
def test_walks_at_the_int64_edge_match_the_oracles(d, delta):
    """Data weights (d - 2, 1, 1) / d, with the walk's int64 bounds just
    below and just above 2^63 and the sure sample's weight and masses near
    its den: the joint, the sign side's three-way joint, the law and
    I(S;H) match the oracles, batched and per sample."""
    domain = Alphabet("z", tuple("bac"))
    dist = Dist(domain, np.array([F(d - 2, d), F(1, d), F(1, d)], dtype=object))
    loss = membership_loss()
    walked = []
    for per_sample in (False, True):
        s = Scenario(name="edge", learner=subsample_release(domain, 1, delta, mode=EXACT), data_dist=dist, m=2)
        if per_sample:
            s = per_sample_twin(s)
        walked.append(_walk_all(s, loss, deviation_sign_side_info(s, loss, F(1, 4))))
    _assert_matches_oracles(s, loss, F(1, 4), walked[0])
    _assert_same(*walked)


@settings(max_examples=80, deadline=None)
@given(walk_cases(), st.sampled_from([F(0), F(1, 4), F(1, 3), F(1, 2), F(FAR_THRESHOLD)]))
def test_walk_accumulators_match_the_oracles(case, threshold):
    s, _, loss = case
    side = deviation_sign_side_info(s, loss, threshold)
    tj, j3, law, mi = _walk_all(s, loss, side)
    dist_map, kernel, m = _dist_map(s), s.learner.kernel, s.m

    pairs = brute.joint_pairs(dist_map, kernel, m)
    assert all(got == pairs.get(idx, 0) for idx, got in _cells(tj.joint))
    triples = brute.threeway_triples(dist_map, kernel, brute.deviation_sign(dist_map, loss.fn, threshold), m)
    assert all(got == triples.get(idx, 0) for idx, got in _cells(j3))
    assert list(law.points) == brute.deviation_points(dist_map, kernel, m, loss.fn)
    assert mi == pytest.approx(brute.sample_hyp_mi(dist_map, kernel, m), rel=1e-9, abs=1e-12)

    rerun = walk(s, [threeway_request(s, rerun_side_info(s.learner))])[0]
    triples = brute.threeway_triples(dist_map, kernel, lambda sample, h: kernel(sample), m)
    assert all(got == triples.get(idx, 0) for idx, got in _cells(rerun))


@settings(max_examples=80, deadline=None)
@given(walk_cases())
def test_float_accumulators_agree_with_exact(case):
    s_exact, s_float, loss = case
    exact = _walk_all(s_exact, loss, deviation_sign_side_info(s_exact, loss, FAR_THRESHOLD))
    floats = _walk_all(s_float, loss, deviation_sign_side_info(s_float, loss, FAR_THRESHOLD))
    (tj, j3, law, mi), (tf, j3f, lawf, mif) = exact, floats
    assert tf.joint.weights.dtype == np.float64 and j3f.weights.dtype == np.float64
    assert np.abs(tf.joint.weights - tj.joint.weights.astype(float)).max() <= 1e-12
    assert np.abs(j3f.weights - j3.weights.astype(float)).max() <= 1e-12
    assert len(lawf.points) == len(law.points)
    for (v, p), (ve, pe) in zip(lawf.points, law.points):
        assert abs(v - float(ve)) <= 1e-12 and abs(p - float(pe)) <= 1e-12
    assert mif == pytest.approx(mi, rel=1e-9, abs=1e-12)
    rerun, rerunf = (walk(s, [threeway_request(s, rerun_side_info(s.learner))])[0] for s in (s_exact, s_float))
    assert np.abs(rerunf.weights - rerun.weights.astype(float)).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(walk_cases(), st.sampled_from(["sign", "rerun"]))
def test_chain_rule_holds_on_walked_threeway_joints(case, kind):
    s, _, loss = case
    side = deviation_sign_side_info(s, loss, F(1, 4)) if kind == "sign" else rerun_side_info(s.learner)
    j3 = walk(s, [threeway_request(s, side)])[0]
    cd = chain_decompose(j3, designated=j3.axes[0].name)
    assert cd.slack >= 0
    assert cd.holds(0)


def _stochastic(draw, rows, cols):
    out = []
    for _ in range(rows):
        w = draw(st.lists(st.integers(0, 4), min_size=cols, max_size=cols).filter(any))
        out.append([F(x, sum(w)) for x in w])
    return np.array(out, dtype=object)


@st.composite
def markov_chains(draw):
    """p(a), K1(b | a), K2(c | b) with rational entries over alphabets of size <= 4."""
    sizes = [draw(st.integers(1, 4)) for _ in range(3)]
    a, b, c = (Alphabet.of_size(name, size) for name, size in zip("abc", sizes))
    p_a = Dist(a, _stochastic(draw, 1, sizes[0])[0])
    return p_a, TransitionKernel(a, b, _stochastic(draw, *sizes[:2])), TransitionKernel(b, c, _stochastic(draw, *sizes[1:]))


@settings(max_examples=80, deadline=None)
@given(markov_chains())
def test_data_processing_holds_exactly_on_markov_chains(chain):
    check = dpi_check(*chain)
    assert check.holds(0)
    assert check.info_c_given_b == 0
    assert check.info_a_bc == check.info_ab
