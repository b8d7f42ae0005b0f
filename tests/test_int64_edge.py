"""Exact mode at the int64 edge: joints, cell sums and law tails.

Exact numerators are held in int64 while a bound from their denominator,
the cell scale or a loss table's largest entry fits below 2^63, and in
Python ints past that.  These tests draw joints and laws whose bounds sit
just below and just above those limits, with numerators past 2^63, and
check every result against the Fraction formulas the package used before
it held int64 (written out here) and against tests/brute.py, in value and
in type: a Fraction holds Python ints, never numpy ones.
"""

import itertools
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
from stabaudit.learners import (
    Scenario,
    TrnHypJoint,
    exact_trn_hyp_joint,
    rerun_side_info,
    sample_hypothesis_mutual_info,
    subsample_release,
    threeway_request,
    walk,
)
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
from stabaudit.numeric import EXACT, FLOAT64, int_quotients

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


def test_gen_risk_of_a_signed_table_needs_twice_the_scale():
    """A 4 x 4 diagonal joint with den^2 < 2^63 <= 2 * den^2 and a loss of
    +1 on the diagonal, -1 off it: every term d * L is positive, and their
    sum is about 3/2 * scale, past 2^63, though scale * max |L| is not.  Only
    a signed table can pass scale * max |L|: the bound needs its 2."""
    den = 3037000499
    assert den**2 < 2**63 <= 2 * den**2
    quarter = den // 4
    nums = np.diag([quarter, quarter, quarter, den - 3 * quarter]).astype(object)
    axes = (Alphabet("z", tuple("wxyz")), Alphabet("h", tuple("pqrs")))
    j = Joint.of_integers(axes, nums, den)
    assert j.cells.scale == den**2
    values = [[1 if z == h else -1 for h in range(4)] for z in range(4)]
    w = _fractions(j)
    want = brute.gen_risk_pairs(_pairs(w), lambda z, h: values[z][h])
    assert want == 2 * (1 - sum(x * x for x in w.sum(axis=1)))
    _same(gen_risk_from_joint(TrnHypJoint(j, "hand", 0), table_loss("edge", *axes, values)), want)


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
    law = DeviationLaw.of_arrays(arrays[0].take(order), arrays[1].take(order), den, mass_den, "edge", "edge")
    points = tuple((F(c, den), F(p, mass_den)) for c, p in zip(codes, masses))
    return law, DeviationLaw(points, "edge", "edge")


def _thresholds(draw, law):
    """Thresholds on a point, next to one (as Fractions and floats), and
    special floats."""
    v = abs(draw(st.sampled_from([v for v, _ in law.points])))
    near = F(1, 2 * law.den)  # closer than the next code
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
    codes, masses = law.values, law.masses
    assert codes.dtype == np.int64 and masses.dtype == np.int64
    w = _fractions(tj.joint)
    _same(variational_info(tj.joint), _ref_vi(w))
    zs, hs = (a.symbols for a in tj.joint.axes)
    _same(gen_risk_from_joint(tj, s.loss), brute.gen_risk_pairs(_pairs(w), lambda z, h: s.loss.fn(zs[z], hs[h])))


# ---------------------------------------------------------------------------
# the bounds that pick int64 or Python ints, each just past its limit


@pytest.mark.parametrize("den", [3, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 2**60 + 3])
def test_int_quotients_round_once_on_each_side_of_2_53(den):
    """nums / den against float(Fraction) for a den below, at and past 2^53
    (|nums| <= den), and for nums past 2^53 over a small den, given as the
    bound: int64 nums past 2^53 would round twice in float64."""
    near = [0, 1, 2, den // 3, den - 2, den - 1, den]
    nums = np.array(near + [-x for x in near], dtype=np.int64)
    assert int_quotients(nums, den).tolist() == [float(F(n, den)) for n in nums.tolist()]
    big = np.array([2**53 + 1, 2**53 + 5, -(2**60 + 3), 2**62 + 7, 7, 0], dtype=np.int64)
    bound = int(abs(big).max())
    got = int_quotients(big, 3, bound).tolist()
    assert got == [float(F(n, 3)) for n in big.tolist()]
    assert got != (big / 3).tolist()  # one rounding in float64 would not do
    assert int_quotients(big[-2:], 3, 7).tolist() == [7 / 3, 0.0]
    assert int_quotients(big[0, ...], 3, bound).tolist() == float(F(2**53 + 1, 3))  # 0-d


def test_int64_numerators_whose_sum_passes_2_63_make_a_joint():
    """Joint.of_integers on int64 numerators below 2^63 whose sum, den, is
    past it: the mass is checked in Python ints, and the weights are the
    Fractions."""
    nums = np.array([[2**62, 2**62], [2**62 - 2, 2**62 + 4]], dtype=np.int64)
    axes = (Alphabet("z", ("x", "y")), Alphabet("h", ("p", "q")))
    j = Joint.of_integers(axes, nums, 2**64 + 2)
    assert j.weights.tolist() == [[F(x, 2**64 + 2) for x in row] for row in nums.tolist()]
    _numerator_dtype_is_right(j)


def _rare_symbol_case():
    """P(b) = 1 / d with d = 2^62 + 1 and a loss that is 1 on b alone: each
    true risk is 1 / d, so D = d and m * scale * max |R_num| = 3, while the
    codes e * D of samples with two or three b's pass 2^63."""
    d = 2**62 + 1
    assert 3 * d >= 2**63 > d + 3
    domain = Alphabet("z", tuple("bac"))
    dist = Dist(domain, np.array([F(1, d), F((d - 1) // 2, d), F((d - 1) // 2, d)], dtype=object))
    return domain, dist, lambda i, j: F(int(i == 0))


def _large_scale_case():
    """A loss over scale S = 2^62 + 1 with entries near S: each fits int64,
    but a sum e of three of them passes 2^63."""
    s = 2**62 + 1
    domain = Alphabet("z", tuple("bac"))
    dist = Dist(domain, np.array([F(1, 2), F(1, 3), F(1, 6)], dtype=object))
    return domain, dist, lambda i, j: F(s - 1 - (2 * i + j) % 5, s)


def _past_2_53_case():
    """Loss values of about 2^54 / 3 (outside [0, 1], which table_loss
    allows): m * scale = 9, but the sums e pass 2^53, as do the table's
    numerators over scale 3."""
    domain = Alphabet("z", tuple("bac"))
    dist = Dist(domain, np.array([F(1, 2), F(1, 3), F(1, 6)], dtype=object))
    return domain, dist, lambda i, j: F(2**54 + 3 * i + 5 * j + 1, 3)


@pytest.mark.parametrize("case", [_rare_symbol_case, _large_scale_case, _past_2_53_case], ids=lambda c: c.__name__[1:-5])
def test_deviation_laws_past_each_bound_equal_brute(case):
    """Exact and float deviation laws whose sums e, codes e * D or float
    quotients e / (m * scale) sit past a bound that their parts stay below:
    exact points equal brute's, float values too, and float masses within
    1e-12."""
    domain, dist, value = case()
    for mode, conv in ((EXACT, F), (FLOAT64, float)):
        d = Dist(domain, np.array([conv(w) for w in dist.weights], dtype=mode.dtype))
        s = Scenario(name="edge", learner=subsample_release(domain, 2, F(1, 2), mode=mode), data_dist=d, m=3)
        hyp = s.learner.hypotheses(3)
        loss = table_loss("edge", domain, hyp, [[value(i, j) for j in range(len(hyp))] for i in range(len(domain))])
        law = deviation_law(s, loss)
        dist_map = dict(zip(domain.symbols, dist.weights))
        if mode.exact:
            assert list(law.points) == brute.deviation_points(dist_map, s.learner.kernel, 3, loss.fn)
            continue
        want = brute.float_deviation_points(dist_map, s.learner.kernel, 3, loss.fn, d)
        assert [v for v, _ in law.points] == [v for v, _ in want]
        assert all(abs(p - float(q)) <= 1e-12 for (_, p), (_, q) in zip(law.points, want))


@pytest.mark.parametrize("d", [2**30 + 3, 1518500249])
def test_a_rerun_side_at_the_int64_edge_equals_brute(d):
    """Data weights (d - 2, 1, 1) / d, m = 2 and a release of one entry
    (kernel den 2): the rerun side's probabilities have den 2, and the
    masses times them reach 8 (d - 2)^2 >= 2^63, while the masses alone
    (at most d^2 * 2 * m) stay below it."""
    domain = Alphabet("z", tuple("bac"))
    dist = Dist(domain, np.array([F(d - 2, d), F(1, d), F(1, d)], dtype=object))
    assert 4 * d**2 < 2**63 <= 8 * (d - 2) ** 2
    s = Scenario(name="edge", learner=subsample_release(domain, 1, F(1), mode=EXACT), data_dist=dist, m=2)
    j3 = walk(s, [threeway_request(s, rerun_side_info(s.learner))])[0]
    kernel = s.learner.kernel
    triples = brute.threeway_triples(dict(zip(domain.symbols, dist.weights)), kernel, lambda sample, h: kernel(sample), 2)
    cells = zip(itertools.product(*(ax.symbols for ax in j3.axes)), j3.weights.ravel())
    assert all(got == triples.get(idx, 0) for idx, got in cells)


@pytest.mark.parametrize("mode", [EXACT, FLOAT64], ids=["exact", "float"])
def test_a_walk_whose_multinomials_pass_2_63_while_den_fits(mode):
    """Weights (1/2, 1/2, 0) and m = 45: den = 2^45 fits int64, but the
    multinomial 45! / 15!^3 of a sample that holds the weight-0 symbol does
    not, so the walk's weights need the m! in their bound.  The one-entry
    release's joint has the closed form
    P(z, h) = P(z) [h = (z,)] / m + (1 - 1/m) P(z) P(h)."""
    m, p = 45, [F(1, 2), F(1, 2), F(0)]
    assert 2**m < 2**63 <= math.factorial(m) // math.factorial(15) ** 3
    domain = Alphabet("z", tuple("abc"))
    dist = Dist(domain, np.array([x if mode.exact else float(x) for x in p], dtype=mode.dtype))
    s = Scenario(name="edge", learner=subsample_release(domain, 1, F(1), mode=mode), data_dist=dist, m=m)
    j = exact_trn_hyp_joint(s).joint
    hyp = j.axes[1].symbols
    p_h = [p[domain.index[h[0]]] if h else 0 for h in hyp]  # () is the empty release, of mass 0
    want = [[p[z] * (h == (a,)) / m + (1 - F(1, m)) * p[z] * q for h, q in zip(hyp, p_h)] for z, a in enumerate("abc")]
    if mode.exact:
        assert j.weights.tolist() == want
    else:
        assert np.abs(j.weights - np.array(want, dtype=float)).max() <= 1e-12


def test_entry_masses_past_2_63_while_the_block_den_fits():
    """Data weights (d - 2, 1, 1) / d with d^2 < 2^63, m = 2 and a release of
    one entry with delta = 1/2 (kernel probabilities 1/4, 1/2, 1/2): the
    masses P(S) K(h|S) of the sample (b, b) are 2 (d - 2)^2 over 4 d^2, past
    2^63 while the block's den d^2 fits, so the entry masses need the
    kernel's den in their bound.  The deviation law and I(S;H), which add
    them, equal the oracles."""
    d = 3037000499
    assert d**2 < 2**63 <= 2 * (d - 2) ** 2
    domain = Alphabet("z", tuple("bac"))
    dist = Dist(domain, np.array([F(d - 2, d), F(1, d), F(1, d)], dtype=object))
    s = Scenario(name="edge", learner=subsample_release(domain, 1, F(1, 2), mode=EXACT), data_dist=dist, m=2)
    loss, dist_map, kernel = membership_loss(), dict(zip(domain.symbols, dist.weights)), s.learner.kernel
    assert list(deviation_law(s, loss).points) == brute.deviation_points(dist_map, kernel, 2, loss.fn)
    assert sample_hypothesis_mutual_info(s) == pytest.approx(brute.sample_hyp_mi(dist_map, kernel, 2), rel=1e-9)
