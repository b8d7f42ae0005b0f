"""Exact mode at the int64 edge: joints, cell sums and law tails.

Exact numerators are held in int64 while a bound from their denominator,
the cell scale or a loss table's largest entry fits below 2^63, and in
Python ints past that.  These tests draw joints and laws whose bounds sit
just below and just above those limits, with numerators past 2^63, and
check every result against the Fraction formulas the package used before
it held int64 (written out here) and against tests/brute.py, in value and
in type: a Fraction holds Python ints, never numpy ones.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from stabaudit.dist import Alphabet, ConditioningError, Dist, Joint
from stabaudit.harness import ScenarioConfig, build_scenario
from stabaudit.info import chain_decompose, conditional_variational_info, prop2_gap_check, variational_info
from stabaudit.learners import Scenario, TrnHypJoint, exact_trn_hyp_joint, subsample_release
from stabaudit.losses import (
    DeviationLaw,
    deviation_law,
    gen_risk_from_joint,
    loss_table,
    membership_loss,
    table_loss,
    true_risk,
    worst_case_loss,
)
from stabaudit.corpus import corpus_configs
from stabaudit.numeric import EXACT

#: denominators at the bounds: the cell table is int64 while 2 * den**2 <
#: 2^63 (den < 2^31), the numerators while den < 2^63
EDGE_DENS = (2**31 - 1, 2**31 + 1, 2**63 - 25, 2**63 + 1, 2**64 + 13, 2**20 + 1)


def _is_fraction(x) -> bool:
    return type(x) is F and type(x.numerator) is int and type(x.denominator) is int


def _same(got, want):
    """Equal in value and type; a Fraction holds Python ints."""
    assert type(got) is type(want) and got == want
    if type(got) is F:
        assert _is_fraction(got)


@st.composite
def edge_joints(draw, min_arity=2, max_arity=4):
    """An exact joint of 2-4 axes whose den sits at a bound of EDGE_DENS."""
    arity = draw(st.integers(min_arity, max_arity))
    shape = tuple(draw(st.integers(1, 3)) for _ in range(arity))
    den = draw(st.sampled_from(EDGE_DENS))
    size = math.prod(shape)
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=size - 1, max_size=size - 1)))
    nums = np.array([b - a for a, b in zip([0, *cuts], [*cuts, den])], dtype=object)
    empty = draw(st.sampled_from(["none", "some", "off-diagonal"]))
    if empty != "none":  # the diagonal keeps its mass, so vi can near 1
        keep = np.indices(shape).reshape(arity, -1)
        keep = (keep == keep[0]).all(axis=0) if empty == "off-diagonal" else np.arange(size) % 3 != 2
        nums = np.where(keep, nums, 0)
        nums[0] += den - nums.sum()
    axes = tuple(Alphabet(f"a{i}", tuple(f"a{i}s{k}" for k in range(n))) for i, n in enumerate(shape))
    return Joint.of_integers(axes, nums.reshape(shape), den)


def _fractions(j: Joint) -> np.ndarray:
    """The joint's weights as Fractions, from its Python-int numerators."""
    nums, den = j.integer_weights
    return np.array([F(x, den) for x in nums.ravel().tolist()], dtype=object).reshape(nums.shape)


def _ref_vi(w: np.ndarray):
    """tv between a two-axis Fraction table and the product of its marginals."""
    return abs(w - np.multiply.outer(w.sum(axis=1), w.sum(axis=0))).sum() / 2


def _ref_cond_vi(w: np.ndarray, ax: int):
    """The average inner tv over the slabs of axis ax, one Fraction per cell."""
    total = 0
    for slab in np.moveaxis(w, ax, 0):
        mass = slab.sum()
        if mass != 0:
            total = total + abs(slab - np.multiply.outer(slab.sum(axis=1), slab.sum(axis=0)) / mass).sum() / 2
    return total


def _ref_pair(w: np.ndarray, first: int, rest: list) -> np.ndarray:
    """The Fraction table of axis first against the listed axes merged."""
    drop = tuple(i for i in range(w.ndim) if i != first and i not in rest)
    kept = [i for i in range(w.ndim) if i not in drop]
    v = np.transpose(w.sum(axis=drop) if drop else w, [kept.index(i) for i in [first, *rest]])
    return v.reshape(v.shape[0], -1)


def _pairs(w: np.ndarray) -> dict:
    """A two-axis Fraction table as brute's sparse pair dict."""
    return {(z, h): p for (z, h), p in np.ndenumerate(w) if p}


def _numerator_dtype_is_right(j: Joint):
    nums, den = j.numerators
    assert nums.dtype == (np.int64 if den < 2**63 else object)
    if nums.dtype == object:
        assert {type(x) for x in nums.ravel()} <= {int}
    ints, den2 = j.integer_weights
    assert den2 == den and {type(x) for x in ints.ravel()} <= {int}


@settings(max_examples=80, deadline=None)
@given(edge_joints(), st.data())
def test_axis_operations_at_the_edge(j, data):
    """marginal, merge, reorder and condition equal the Fraction formulas."""
    w = _fractions(j)
    _numerator_dtype_is_right(j)
    names = list(j.axis_names)
    perm = data.draw(st.permutations(range(j.arity)))
    keep = perm[: data.draw(st.integers(1, j.arity))]
    got = j.marginal(*(names[i] for i in keep))
    drop = tuple(i for i in range(j.arity) if i not in keep)
    kept = [i for i in range(j.arity) if i not in drop]
    want = np.transpose(w.sum(axis=drop) if drop else w, [kept.index(i) for i in keep])
    assert got.weights.tolist() == want.tolist()
    if isinstance(got, Joint):
        _numerator_dtype_is_right(got)
    else:
        assert isinstance(got, Dist) and all(x == 0 or _is_fraction(x) for x in got.weights.tolist())

    reordered = j.reorder(*(names[i] for i in perm))
    assert reordered.weights.tolist() == np.transpose(w, perm).tolist()
    _numerator_dtype_is_right(reordered)

    if j.arity >= 3:
        picked = sorted(perm[:2])
        merged = j.merge([names[i] for i in picked], "merged")
        rest = [i for i in range(j.arity) if i not in picked]
        want = np.transpose(w, picked + rest).reshape((-1,) + tuple(w.shape[i] for i in rest))
        want = np.moveaxis(want, 0, sum(1 for i in rest if i < picked[0]))
        assert merged.weights.tolist() == want.tolist()
        _numerator_dtype_is_right(merged)

    ax = data.draw(st.integers(0, j.arity - 1))
    at = data.draw(st.integers(0, w.shape[ax] - 1))
    slab = np.take(w, at, axis=ax)
    symbol = j.axes[ax].symbols[at]
    if slab.sum() == 0:
        with pytest.raises(ConditioningError):
            j.condition(names[ax], symbol)
    else:
        got = j.condition(names[ax], symbol)
        assert got.weights.tolist() == (slab / slab.sum()).tolist()
        if isinstance(got, Joint):
            _numerator_dtype_is_right(got)


@settings(max_examples=80, deadline=None)
@given(edge_joints())
def test_variational_information_at_the_edge(j):
    """vi, conditional vi, chain_decompose and prop2_gap_check equal the
    Fraction formulas, and vi on two axes equals brute's."""
    w = _fractions(j)
    names = j.axis_names
    pair = _ref_pair(w, 0, list(range(1, j.arity)))
    if j.arity == 2:
        _same(variational_info(j), _ref_vi(w))
        _same(variational_info(j), brute.variational_info_pairs(_pairs(w)))
        assert j.cells.d.dtype == (np.int64 if 2 * j.cells.scale < 2**63 else object)
    cd = chain_decompose(j)
    _same(cd.total, _ref_vi(pair))
    want_terms = [_ref_vi(_ref_pair(w, 0, [1]))]
    for t in range(2, j.arity):
        v = _ref_pair(w, 0, list(range(1, t + 1)))  # Z against H_1..H_t, H_t last
        three = v.reshape(w.shape[0], -1, w.shape[t])
        want_terms.append(_ref_cond_vi(np.moveaxis(three, 2, 1), 2))
    assert len(cd.terms) == len(want_terms)
    for got, want in zip(cd.terms, want_terms):
        _same(got, want)
    if j.arity == 3:
        _same(conditional_variational_info(j, names[2]), _ref_cond_vi(w, 2))
        _same(conditional_variational_info(j, names[0]), _ref_cond_vi(w, 0))
        gap = prop2_gap_check(j)
        _same(gap.total, _ref_vi(w.reshape(w.shape[0], -1)))
        _same(gap.first, _ref_vi(w.sum(axis=2)))
        _same(gap.rest_given_first, _ref_cond_vi(np.transpose(w, (0, 2, 1)), 2))


@st.composite
def edge_losses(draw, j: Joint):
    """A loss table over j's two axes whose largest entry, about top, sits
    at the gen risk's int64 bound 2 * scale * top < 2^63, past it, or past
    2^63: random entries, or (top - 1) / top on the cells of D >= 0, where
    the sum of D * L nears vi * scale * top."""
    scale = j.cells.scale
    limit = (2**63 - 1) // (2 * scale)
    top = draw(st.sampled_from([x for x in (limit, limit + 1, 4 * limit + 3, 2**64 + 13) if x > 2]))
    shape = j.numerators[0].shape
    if draw(st.booleans()):
        values = [[F(top - 1, top) if d >= 0 else 0 for d in row] for row in j.cells.d.tolist()]
    else:
        values = [[F(draw(st.integers(0, top)), top) for _ in range(shape[1])] for _ in range(shape[0])]
        values[0][0] = F(1)  # top itself is an entry
    return table_loss("edge", j.axes[0], j.axes[1], values), values


@settings(max_examples=80, deadline=None)
@given(edge_joints(max_arity=2), st.data())
def test_gen_risk_and_worst_case_at_the_edge(j, data):
    """gen_risk_from_joint equals brute's and the Fraction formula, with
    loss entries at and past the int64 bound; worst_case_loss's table and
    true risks equal the indicator of D >= 0 and its column masses, and it
    attains vi."""
    w = _fractions(j)
    tj = TrnHypJoint(joint=j, method="edge", kernel_evals=0)
    loss, values = data.draw(edge_losses(j))
    table = np.array(values, dtype=object)
    d = w - np.multiply.outer(w.sum(axis=1), w.sum(axis=0))
    want = (d * table).sum()
    _same(gen_risk_from_joint(tj, loss), want)
    _same(gen_risk_from_joint(tj, loss), brute.gen_risk_pairs(_pairs(w), lambda z, h: values[z][h]))

    worst = worst_case_loss(tj)
    indicator = np.array([[1 if x >= 0 else 0 for x in row] for row in d.tolist()], dtype=object)
    got_table, scale = loss_table(worst, j.axes[0], j.axes[1], True)
    assert scale == 1 and got_table.tolist() == indicator.tolist()
    marginal = Dist(j.axes[0], w.sum(axis=1))
    risks = true_risk(worst, j.axes[1], marginal, many=True).tolist()
    assert all(_is_fraction(r) for r in risks)
    assert risks == (w.sum(axis=1)[:, None] * indicator).sum(axis=0).tolist()
    _same(gen_risk_from_joint(tj, worst), variational_info(j))


@pytest.mark.parametrize("past", [0, 1, 3 * 2**22])
def test_gen_risk_of_a_diagonal_joint_near_its_bound(past):
    """A 3 x 3 diagonal joint (vi = 2/3) and a loss of (top - 1) / top on the
    cells of D >= 0: the sum of D * L is 2/3 * scale * (top - 1), near the
    int64 limit when top is at the bound 2 * scale * top < 2^63, and past
    it when top is 4 times that."""
    den = 2**20 + 1
    third = den // 3
    j = Joint.of_integers(
        (Alphabet("z", tuple("xyz")), Alphabet("h", tuple("pqr"))),
        np.array([[third, 0, 0], [0, third, 0], [0, 0, den - 2 * third]], dtype=object),
        den,
    )
    top = (2**63 - 1) // (2 * j.cells.scale) + past
    values = [[F(top - 1, top) if d >= 0 else 0 for d in row] for row in j.cells.d.tolist()]
    w = _fractions(j)
    want = ((w - np.multiply.outer(w.sum(axis=1), w.sum(axis=0))) * np.array(values, dtype=object)).sum()
    tj = TrnHypJoint(joint=j, method="edge", kernel_evals=0)
    _same(gen_risk_from_joint(tj, table_loss("edge", *j.axes, values)), want)


#: the law denominators: a power of two, whose values floats can hold,
#: and odd ones at and past the int64 bound
LAW_DENS = (2**10, 2**62, 2**31 - 1, 2**63 + 1, 2**70 + 3)


@st.composite
def edge_laws(draw):
    """(law from codes, the same law from its Fraction points): up to 6
    distinct codes over a den of LAW_DENS, masses over a den at or past
    2^63."""
    den = draw(st.sampled_from(LAW_DENS))
    codes = sorted(set(draw(st.lists(st.integers(-den, den), min_size=1, max_size=6))))
    mass_den = draw(st.sampled_from([16, 2**63 - 25, 2**64 + 13]))
    size = len(codes) - 1
    cuts = sorted(draw(st.lists(st.integers(1, mass_den - 1), min_size=size, max_size=size, unique=True)))
    masses = [b - a for a, b in zip([0, *cuts], [*cuts, mass_den])]
    arrays = []
    for values, top in ((codes, max(abs(c) for c in codes)), (masses, mass_den)):
        int64 = top < 2**63 and draw(st.booleans())  # int64 where it fits, or Python ints
        arrays.append(np.array(values, dtype=np.int64 if int64 else object))
    order = draw(st.permutations(range(len(codes))))
    law = DeviationLaw.of_codes(arrays[0].take(order), arrays[1].take(order), den, mass_den, "edge", "edge")
    points = tuple((F(c, den), F(p, mass_den)) for c, p in zip(codes, masses))
    return law, DeviationLaw(points, "edge", "edge")


def _thresholds(draw, law):
    """Thresholds on a point, next to one (as Fractions and floats), and
    special floats."""
    v = abs(draw(st.sampled_from([v for v, _ in law.points])))
    near = F(1, 2 * law._codes[2])  # closer than the next code
    return draw(
        st.sampled_from(
            [
                v, v + near, v - near, float(v),
                float(np.nextafter(float(v), math.inf)), float(np.nextafter(float(v), -math.inf)),
                0, 0.0, -1, 2, math.nan, math.inf, -math.inf,
            ]
        )
    )


@settings(max_examples=300, deadline=None)
@given(edge_laws(), st.data())
def test_tail_reads_at_the_edge(laws, data):
    """tail_abs_ge, tail_abs_gt and mass_abs_near of a law from codes equal
    the per-point sums of its points, and those of the same law given as
    Fraction points, for thresholds on, next to and far from a point."""
    law, hand = laws
    assert law == hand
    t = _thresholds(data.draw, law)
    tol = data.draw(st.sampled_from([0, 1e-12, F(1, 2**70)]))
    window = data.draw(st.sampled_from([0, F(1, 4), tol, 0.25]))
    points = hand.points
    want = {
        "ge": sum(p for v, p in points if abs(v) >= t - tol),
        "gt": sum(p for v, p in points if abs(v) > t + tol),
        "near": sum(p for v, p in points if abs(abs(v) - t) <= window),
    }
    for read in (law, hand):
        _same(read.tail_abs_ge(t, tol=tol), want["ge"])
        _same(read.tail_abs_gt(t, tol=tol), want["gt"])
        _same(read.mass_abs_near(t, window), want["near"])


def _tail_sums(points, t):
    return (
        sum(p for v, p in points if abs(v) >= t),
        sum(p for v, p in points if abs(v) > t),
    )


@pytest.mark.parametrize("tiny", [F(1, 2**10 + 7), F(1, 2**64 + 13)], ids=["int64", "past-int64"])
def test_walked_law_tails_equal_brute(tiny):
    """A walked law, its codes in int64 or past it, has brute's points, and
    its tails equal the per-point sums of brute's points."""
    domain = Alphabet("z", tuple("bac"))
    dist = Dist(domain, np.array([F(1, 3) + tiny, F(1, 3), F(1, 3) - tiny], dtype=object))
    s = Scenario(name="edge", learner=subsample_release(domain, 2, F(1, 2), mode=EXACT), data_dist=dist, m=3)
    loss = membership_loss()
    law = deviation_law(s, loss)
    want = brute.deviation_points({z: w for z, w in zip(domain.symbols, dist.weights)}, s.learner.kernel, 3, loss.fn)
    fresh = deviation_law(Scenario(name="edge", learner=s.learner, data_dist=dist, m=3), loss)
    for t in [abs(v) for v, _ in want] + [F(1, 3), 0.25, float(abs(want[0][0])), 0.5]:
        ge, gt = _tail_sums(want, t)
        _same(fresh.tail_abs_ge(t), ge)
        _same(fresh.tail_abs_gt(t), gt)
    assert list(law.points) == want and all(_is_fraction(v) and _is_fraction(p) for v, p in law.points)


def _cells_like() -> Scenario:
    """The exact-rational-cells shape: n = 32, m = 2, k = 1, delta = p / 97."""
    domain = Alphabet.of_size("z", 32)
    learner = subsample_release(domain, 1, F(41, 97), mode=EXACT)
    return Scenario(name="cells", learner=learner, data_dist=Dist.uniform(domain, EXACT), m=2, loss=membership_loss())


def _corpus_scenario(name: str) -> Scenario:
    raw = next(c for c in corpus_configs() if c["name"] == name)
    return build_scenario(ScenarioConfig.from_dict(raw))


@pytest.mark.parametrize(
    "build,cells_dtype",
    [(_cells_like, np.int64), (lambda: _corpus_scenario("rr-eps0.1-m3"), object)],
    ids=["cells-like", "rr-eps0.1-m3"],
)
def test_which_integer_path_a_scenario_takes(build, cells_dtype):
    """A cells-like scenario holds its joint, cell table and law in int64.
    Randomized response holds its joint (den near 2^53) and law in int64,
    but its cell table, whose scale den**2 passes 2^63 because of the
    rationalized keep probability, as Python ints; vi and gen risk agree
    with the Fraction formulas either way."""
    s = build()
    tj = exact_trn_hyp_joint(s)
    assert tj.joint.numerators[0].dtype == np.int64 and tj.joint.cells.d.dtype == cells_dtype
    law = deviation_law(s, s.loss)
    codes, masses, _, _ = law._codes
    assert codes.dtype == np.int64 and masses.dtype == np.int64
    w = _fractions(tj.joint)
    _same(variational_info(tj.joint), _ref_vi(w))
    zs, hs = (a.symbols for a in tj.joint.axes)
    _same(gen_risk_from_joint(tj, s.loss), brute.gen_risk_pairs(_pairs(w), lambda z, h: s.loss.fn(zs[z], hs[h])))
