"""The walk's accumulators (joint, three-way joint with the deviation-sign
side channel, deviation law, I(S;H)) against the ordered brute-force
oracles on random small scenarios, float mode against exact mode, and the
chain rule and data processing on what they build."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from stabaudit.dist import Alphabet, Dist, TransitionKernel
from stabaudit.info import chain_decompose, dpi_check
from stabaudit.learners import (
    deviation_sign_side_info,
    mi_request,
    rerun_side_info,
    threeway_request,
    trn_hyp_request,
    walk,
)
from stabaudit.losses import deviation_request
from strategies import losses, scenarios

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
