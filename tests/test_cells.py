"""The cell table D = joint - product of marginals, and its three readers
(variational information, gen risk, the worst-case loss), against the
ordered brute-force oracles on random small scenarios."""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
import stabaudit.dist as dist_mod
from stabaudit.dist import Alphabet, Joint, common_denominator
from stabaudit.harness import EXIT_PASS, run_config
from stabaudit.info import shannon_mutual_info, variational_info
from stabaudit.learners import exact_trn_hyp_joint
from stabaudit.losses import ParametricLoss, gen_risk_from_joint, loss_table, true_risk, worst_case_loss
from strategies import BLOCK_SIZES, block_size, cases, per_sample_twin, quarter_table_loss, releases

F = Fraction


def _pairs(s):
    return brute.joint_pairs(dict(zip(s.data_dist.alphabet.symbols, s.data_dist.weights)), s.learner.kernel, s.m)


@settings(max_examples=80, deadline=None)
@given(cases())
def test_cell_table_readers_match_the_oracles(case):
    s, _, loss = case
    tj = exact_trn_hyp_joint(s)
    pairs = _pairs(s)
    info = variational_info(tj.joint)
    assert info == brute.variational_info_pairs(pairs)
    assert gen_risk_from_joint(tj, loss) == brute.gen_risk_pairs(pairs, loss.fn)

    worst = worst_case_loss(tj)
    assert abs(gen_risk_from_joint(tj, worst)) == info
    pz, ph = brute.pair_marginals(pairs)
    zero = sum(
        pairs.get((z, h), 0) == pz.get(z, 0) * ph.get(h, 0)
        for z in tj.joint.axes[0].symbols
        for h in tj.joint.axes[1].symbols
    )
    assert worst.params["boundary_cells"] == zero
    for h in tj.joint.axes[1].symbols:
        expected = sum(w * worst.fn(z, h) for z, w in zip(s.data_dist.alphabet.symbols, s.data_dist.weights))
        assert true_risk(worst, h, s.data_dist) == expected

    assert float(info) <= math.sqrt(shannon_mutual_info(tj.joint) / 2) + 1e-12  # Pinsker


@settings(max_examples=80, deadline=None)
@given(cases())
def test_float_mode_agrees_with_exact_mode(case):
    s_exact, s_float, loss = case
    tj, tf = exact_trn_hyp_joint(s_exact), exact_trn_hyp_joint(s_float)
    assert abs(variational_info(tf.joint) - float(variational_info(tj.joint))) <= 1e-12
    assert abs(gen_risk_from_joint(tf, loss) - float(gen_risk_from_joint(tj, loss))) <= 1e-12
    worst_exact, worst_float = worst_case_loss(tj), worst_case_loss(tf)
    assert abs(gen_risk_from_joint(tf, worst_float) - float(gen_risk_from_joint(tj, worst_exact))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(releases(), st.sampled_from(BLOCK_SIZES), st.data())
def test_cell_readers_on_block_walked_joints(case, size, data):
    """Joints walked in blocks by the release's batch kernel: exact readers
    match the oracles, float joints equal the per-sample adapter's bit for bit."""
    s, s_float = case
    loss = quarter_table_loss(data.draw, s.learner.domain, s.learner.hypotheses(s.m))
    with block_size(size):
        tj, tf = exact_trn_hyp_joint(s), exact_trn_hyp_joint(s_float)
    pairs = _pairs(s)
    info = variational_info(tj.joint)
    assert info == brute.variational_info_pairs(pairs)
    assert gen_risk_from_joint(tj, loss) == brute.gen_risk_pairs(pairs, loss.fn)
    assert abs(gen_risk_from_joint(tj, worst_case_loss(tj))) == info

    ta = exact_trn_hyp_joint(per_sample_twin(s_float))
    assert tf.joint.weights.tobytes() == ta.joint.weights.tobytes()
    scalar = brute.walk_float_joint(s_float.data_dist, s_float.learner.kernel, s.m)
    for idx, got in zip(itertools.product(*(ax.symbols for ax in tf.joint.axes)), tf.joint.weights.ravel().tolist()):
        assert got == scalar.get(idx, 0.0)
    assert variational_info(tf.joint) == variational_info(ta.joint)
    assert gen_risk_from_joint(tf, loss) == gen_risk_from_joint(ta, loss)


def test_cell_table_hand_case():
    z, h = Alphabet.of_size("z", 2), Alphabet("h", ("a", "b"))
    j = Joint((z, h), np.array([[F(1, 2), F(1, 6)], [0, F(1, 3)]], dtype=object))
    cells = j.cells
    assert cells.scale == 36
    # P(z) = (2/3, 1/3), P(h) = (1/2, 1/2): D = (1/6, -1/6; -1/6, 1/6)
    assert cells.d.tolist() == [[6, -6], [-6, 6]]
    assert j.cells is cells
    assert variational_info(j) == F(1, 3)


def test_common_denominator():
    assert common_denominator([F(1, 2), 1, F(2, 3), 0.25]) == ([6, 12, 8, 3], 12)


def test_loss_table_is_built_once_per_alphabets():
    z, h = Alphabet.of_size("z", 2), Alphabet("h", ("a", "b"))
    calls = []

    def fn(zi, hi):
        calls.append((zi, hi))
        return F(zi + 1, 3) if hi == "a" else 1

    loss = ParametricLoss(name="t", fn=fn)
    exact = loss_table(loss, z, h, True)
    assert exact[0].tolist() == [[1, 3], [2, 3]] and exact[1] == 3
    assert loss_table(loss, Alphabet.of_size("z", 2), Alphabet("h", ("a", "b")), True) is exact
    assert loss_table(loss, z, h, False)[0].tolist() == [[1 / 3, 1.0], [2 / 3, 1.0]]
    assert len(calls) == 8


def test_t1_run_builds_one_product_per_joint(monkeypatch):
    calls = []
    original = dist_mod.product_weights

    def counted(w):
        calls.append(w.shape)
        return original(w)

    monkeypatch.setattr(dist_mod, "product_weights", counted)
    raw = {
        "name": "cells-t1",
        "domain": {"size": 5},
        "learner": {"name": "subsample_release", "params": {"k": 1, "delta": "1/3"}},
        "loss": {"name": "membership"},
        "m": 2,
        "numeric": "exact",
        "audits": ["T1"],
    }
    code, bundle = run_config(raw)
    assert code == EXIT_PASS
    assert len(bundle["audits"][0]["series"]) == 6  # constant, membership, two tables, scenario loss, worst case
    assert calls == [(5, 6)]
