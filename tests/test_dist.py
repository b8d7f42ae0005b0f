from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabaudit.dist import (
    Alphabet,
    ArityError,
    ConditioningError,
    Dist,
    DomainMismatchError,
    Joint,
    TransitionKernel,
    overlap,
    product,
    product_weights,
    tv_distance,
    validate,
)
from stabaudit.numeric import EXACT, FLOAT64

AB = Alphabet("x", ("a", "b"))
ABC = Alphabet("x", ("a", "b", "c"))


def exact_dist(alpha, *vals):
    return Dist(alpha, np.array([Fraction(v) for v in vals], dtype=object))


# ---------------------------------------------------------------------------
# alphabets and construction


def test_alphabet_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        Alphabet("x", ())
    with pytest.raises(ValueError):
        Alphabet("x", ("a", "a"))


def test_alphabet_lookup():
    assert ABC.index == {"a": 0, "b": 1, "c": 2}
    assert "b" in ABC and "z" not in ABC
    assert len(Alphabet.of_size("z", 5)) == 5


BAD_KEYS = (-1, 5, "3", 1.5, None, (1,), float("nan"))
GOOD_KEYS = (0, 4, True, 2.0, np.int64(3), Fraction(4))


def test_of_size_is_positional_and_matches_explicit_symbols():
    pos, explicit = Alphabet.of_size("z", 5), Alphabet("z", tuple(range(5)))
    assert pos.positional and not explicit.positional
    assert type(pos.symbols) is tuple and pos.symbols == explicit.symbols
    assert pos == explicit and hash(pos) == hash(explicit)
    assert pos != Alphabet("w", tuple(range(5)))
    assert pos.index == explicit.index and len(pos.index) == 5
    assert list(pos.index) == list(explicit.index)
    for key in GOOD_KEYS:
        assert key in pos and key in explicit
        assert pos.index[key] == explicit.index[key]
        assert pos.index.get(key) == explicit.index.get(key)
    for key in BAD_KEYS:
        assert key not in pos and key not in explicit
        assert pos.index.get(key) is None
        for alpha in (pos, explicit):
            with pytest.raises(KeyError):
                alpha.index[key]


def test_indices_look_up_as_the_index_does():
    pos, explicit = Alphabet.of_size("z", 5), Alphabet("z", tuple(range(5)))
    for alpha in (pos, explicit, ABC):
        keys = list(alpha.index)
        assert alpha.indices(reversed(keys)).tolist() == [alpha.index[k] for k in reversed(keys)]
        assert alpha.indices([]).dtype == np.intp and alpha.indices(iter(())).tolist() == []
    for alpha in (pos, explicit):
        got = alpha.indices(iter(GOOD_KEYS))
        assert got.dtype == np.intp and got.tolist() == [alpha.index[k] for k in GOOD_KEYS]
        for key in BAD_KEYS:
            with pytest.raises(KeyError):
                alpha.indices([0, key, 1])
    with pytest.raises(KeyError):
        ABC.indices(["a", "z"])


def test_of_size_dists_match_explicit_symbols():
    pos, explicit = Alphabet.of_size("z", 5), Alphabet("z", tuple(range(5)))
    mapping = {0: Fraction(1, 2), np.int64(3): Fraction(1, 3), 4.0: Fraction(1, 6)}
    for mode in (EXACT, FLOAT64):
        a = Dist.from_mapping(pos, mapping, mode)
        b = Dist.from_mapping(explicit, mapping, mode)
        assert a.weights.tolist() == b.weights.tolist()
        for key in GOOD_KEYS:
            assert a.weight(key) == b.weight(key)
        for key in BAD_KEYS:
            with pytest.raises(KeyError):
                a.weight(key)
    with pytest.raises(KeyError):
        Dist.from_mapping(pos, {5: 1}, EXACT)


@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_positional_and_tuple_alphabets_are_interchangeable(n):
    pos, explicit = Alphabet.of_size("z", n), Alphabet("z", tuple(range(n)))
    assert pos == explicit and explicit == pos and not pos != explicit
    assert hash(pos) == hash(explicit) == hash(("z", tuple(range(n))))
    assert pos == Alphabet.of_size("z", n) and pos == Alphabet("z", range(n))
    for a, b in ((pos, explicit), (explicit, pos)):
        table = {a: "value"}
        assert table[b] == "value" and b in table and b in {a}
        assert {a: 1, b: 2} == {a: 2}
    assert (pos, "x") == (explicit, "x") and hash((pos, 1)) == hash((explicit, 1))
    assert pos.symbols == explicit.symbols and type(pos.symbols) is tuple
    assert pos.symbols is pos.symbols  # built once


def test_positional_alphabets_differ_where_their_tuples_do():
    pos = Alphabet.of_size("z", 3)
    for other in (
        Alphabet.of_size("w", 3),
        Alphabet.of_size("z", 4),
        Alphabet("z", (0, 1, 3)),
        Alphabet("z", (2, 1, 0)),
        Alphabet("z", ("a", "b", "c")),
        Alphabet("z", range(1, 4)),
    ):
        assert pos != other and other != pos
    assert Alphabet("z", (0, 1.0, 2)) == pos == Alphabet("z", (0, True, 2))
    assert pos != ("z", (0, 1, 2)) and pos.__eq__(None) is NotImplemented


def test_alphabets_are_immutable_and_of_size_builds_no_tuple():
    a = Alphabet.of_size("z", 10**9)
    assert len(a) == 10**9 and 10**9 - 1 in a and 10**9 not in a
    assert a == Alphabet.of_size("z", 10**9) and a != Alphabet.of_size("z", 10**9 - 1)
    assert repr(Alphabet.of_size("z", 3)) == "Alphabet(name='z', symbols=range(0, 3))"
    assert repr(AB) == "Alphabet(name='x', symbols=('a', 'b'))"
    for target in (a, AB):
        with pytest.raises(AttributeError):
            target.name = "q"
        with pytest.raises(AttributeError):
            del target.name
    with pytest.raises(ValueError):
        Alphabet.of_size("z", 0)


def test_integer_weights_over_common_denominator():
    d = exact_dist(ABC, Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
    assert d.integer_weights == ([3, 2, 1], 6)


def test_exact_dist_requires_exact_unit_mass():
    with pytest.raises(ValueError):
        exact_dist(AB, Fraction(1, 2), Fraction(1, 3))
    with pytest.raises(ValueError):
        exact_dist(AB, Fraction(3, 2), Fraction(-1, 2))
    with pytest.raises(TypeError):
        Dist(AB, np.array([0.5, Fraction(1, 2)], dtype=object))


def test_exact_weight_errors_name_the_fault():
    """Messages of the exact checks: the first bad type, the first negative
    weight, and the mass as a reduced Fraction."""
    with pytest.raises(TypeError, match=r"^dist\[x\]: exact weights must be int or Fraction, got float$"):
        Dist(AB, np.array([Fraction(1, 2), 0.5], dtype=object))
    with pytest.raises(ValueError, match=r"^dist\[x\]: negative weight -1/2$"):
        exact_dist(AB, Fraction(3, 2), Fraction(-1, 2))
    with pytest.raises(ValueError, match=r"^dist\[x\]: mass is 99/100, expected exactly 1$"):
        exact_dist(AB, Fraction(1, 4), Fraction(37, 50))
    with pytest.raises(ValueError, match=r"^joint\[x,y\]: mass is 2, expected exactly 1$"):
        Joint((AB, Alphabet("y", ("c", "d"))), np.array([[1, 0], [Fraction(1, 2), Fraction(1, 2)]], dtype=object))


@pytest.mark.parametrize(
    "weights, message",
    [
        ([0.5, float("nan")], "non-finite weight"),
        ([float("inf"), 0.0], "non-finite weight"),
        ([-float("inf"), 1.0], "non-finite weight"),
        ([float("inf"), -float("inf")], "non-finite weight"),  # a NaN sum
        ([float("nan"), -1.0], "non-finite weight"),  # checked before the sign
        ([1.5, -0.5], "negative weight"),
        ([1e308, 1e308, -1.0], "negative weight"),  # an overflowing sum, a negative term
        ([1e308, 1e308, 0.0], "mass is .*inf.*, off by more than 1e-12"),  # finite terms, an infinite sum
        ([0.25, 0.5], "mass is .*0.75.*, off by more than 1e-12"),
    ],
)
def test_float_weight_errors_name_the_fault(weights, message):
    """Each float check keeps its message: the sum stands in for the
    finiteness check only where it is finite."""
    with pytest.raises(ValueError, match=rf"^dist\[x\]: {message}$"):
        Dist(Alphabet("x", tuple(range(len(weights)))), weights)


def test_float_dist_mass_tolerance():
    Dist(AB, [0.5, 0.5 + 5e-13])
    with pytest.raises(ValueError):
        Dist(AB, [0.5, 0.51])
    with pytest.raises(ValueError):
        Dist(AB, [1.5, -0.5])
    with pytest.raises(ValueError):
        Dist(AB, [np.nan, 1.0])


def test_uniform_exact_and_float():
    u = Dist.uniform(ABC, EXACT)
    assert u.is_exact and u.weight("a") == Fraction(1, 3)
    uf = Dist.uniform(ABC, FLOAT64)
    assert not uf.is_exact
    assert uf.weights.sum() == 1.0  # float gap closed on the last symbol
    for u in (u, uf):
        assert not u.weights.flags.writeable
        assert u.weights.tolist() == Dist(ABC, u.weights.tolist()).weights.tolist()


def test_an_owned_weights_array_is_kept_and_checked():
    w = np.array([0.25, 0.75])
    assert Dist._of_owned(AB, w).weights is w and not w.flags.writeable
    for bad in ([0.5, 0.51], [1.5, -0.5], [np.nan, 1.0], [1.0]):
        with pytest.raises((ValueError, DomainMismatchError)):
            Dist._of_owned(AB, np.array(bad))
    with pytest.raises(ValueError):
        Dist._of_owned(AB, np.array([Fraction(1, 2), Fraction(1, 3)], dtype=object))


def test_point_mass_and_from_mapping():
    p = Dist.point_mass(ABC, "b", EXACT)
    assert p.weight("b") == 1 and p.weight("a") == 0
    d = Dist.from_mapping(ABC, {"a": "0.25", "b": "0.75"}, EXACT)
    assert d.weight("a") == Fraction(1, 4)
    assert d.support() == ("a", "b")


def test_expect():
    d = exact_dist(AB, Fraction(1, 4), Fraction(3, 4))
    assert d.expect(lambda s: 1 if s == "b" else 0) == Fraction(3, 4)


# ---------------------------------------------------------------------------
# total variation


def test_tv_hand_values():
    half = exact_dist(AB, Fraction(1, 2), Fraction(1, 2))
    point = exact_dist(AB, Fraction(1), Fraction(0))
    assert tv_distance(half, half) == 0
    assert tv_distance(half, point) == Fraction(1, 2)
    assert overlap(half, point) == Fraction(1, 2)
    other = exact_dist(AB, Fraction(0), Fraction(1))
    assert tv_distance(point, other) == 1


def test_tv_rejects_mismatched_alphabets():
    with pytest.raises(DomainMismatchError):
        tv_distance(Dist.uniform(AB, EXACT), Dist.uniform(ABC, EXACT))


def test_tv_mixed_mode_coerces_to_float():
    p = Dist.uniform(AB, EXACT)
    q = Dist(AB, [0.25, 0.75])
    assert tv_distance(p, q) == pytest.approx(0.25)


def test_tv_metric_properties_fuzz():
    rng = np.random.default_rng(7)
    alpha = Alphabet.of_size("x", 5)
    for _ in range(1000):
        w = rng.dirichlet(np.ones(5), size=3)
        p, q, r = (Dist(alpha, row / row.sum()) for row in w)
        dpq = tv_distance(p, q)
        assert dpq == tv_distance(q, p)
        assert 0 <= dpq <= 1
        assert tv_distance(p, p) == 0
        assert dpq <= tv_distance(p, r) + tv_distance(r, q) + 1e-12


# ---------------------------------------------------------------------------
# joints


def two_axis_joint():
    h = Alphabet("h", ("u", "v", "w"))
    w = np.array(
        [[Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
         [Fraction(1, 8), Fraction(1, 4), Fraction(1, 8)]],
        dtype=object,
    )
    return Joint((AB, h), w)


def test_joint_requires_unique_axis_names():
    w = np.full((2, 2), 0.25)
    with pytest.raises(ValueError):
        Joint((AB, Alphabet("x", (0, 1))), w)


def test_marginal_orders_and_types():
    j = two_axis_joint()
    mz = j.marginal("x")
    assert isinstance(mz, Dist)
    assert mz.weight("a") == Fraction(1, 2)
    mh = j.marginal("h")
    assert mh.weight("u") == Fraction(3, 8)
    flipped = j.marginal("h", "x")
    assert isinstance(flipped, Joint)
    assert flipped.axis_names == ("h", "x")
    assert flipped.weight(("v", "b")) == Fraction(1, 4)


def test_condition_renormalizes():
    j = two_axis_joint()
    c = j.condition("x", "a")
    assert isinstance(c, Dist)
    assert c.weight("u") == Fraction(1, 2)
    assert c.weight("v") == Fraction(1, 4)


def test_condition_zero_mass_raises():
    w = np.array([[Fraction(1, 2), Fraction(1, 2)], [Fraction(0), Fraction(0)]], dtype=object)
    j = Joint((AB, Alphabet("h", (0, 1))), w)
    with pytest.raises(ConditioningError):
        j.condition("x", "b")


def test_merge_and_reorder():
    j = two_axis_joint()
    k = Alphabet("k", (0, 1))
    w3 = np.multiply.outer(j.weights, np.array([Fraction(1, 2), Fraction(1, 2)], dtype=object))
    j3 = Joint((AB, j.axes[1], k), w3)
    merged = j3.merge(["h", "k"], "hk")
    assert merged.axis_names == ("x", "hk")
    assert merged.weight(("a", ("u", 0))) == Fraction(1, 8)
    back = j3.reorder("k", "x", "h")
    assert back.axis_names == ("k", "x", "h")
    assert back.weight((1, "a", "u")) == Fraction(1, 8)
    # merged axis takes the slot of its first constituent
    mid = j3.merge(["x", "h"], "xh")
    assert mid.axis_names == ("xh", "k")


def test_merge_arity_guard():
    with pytest.raises(ArityError):
        two_axis_joint().merge(["x"], "y")


def test_to_dist_and_product():
    p = exact_dist(AB, Fraction(1, 4), Fraction(3, 4))
    q = Dist.uniform(Alphabet("y", (0, 1)), EXACT)
    j = product(p, q)
    assert j.weight(("a", 0)) == Fraction(1, 8)
    pw = product_weights(j)
    assert (pw == j.weights).all()  # already independent
    single = j.marginal("y", "x").marginal("y")
    assert single.weight(0) == Fraction(1, 2)


def test_product_weights_on_correlated_joint():
    w = np.array([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]], dtype=object)
    j = Joint((AB, Alphabet("h", (0, 1))), w)
    pw = product_weights(j)
    assert pw[0][0] == Fraction(1, 4)


def test_validate_reports():
    d = validate(Dist.uniform(ABC, EXACT))
    assert d.ok and d.is_exact and d.mass_error == 0
    j = validate(two_axis_joint())
    assert j.ok


# ---------------------------------------------------------------------------
# transition kernels


def test_kernel_row_stochastic_enforced():
    with pytest.raises(ValueError):
        TransitionKernel(AB, AB, [[0.5, 0.4], [0.0, 1.0]])


def test_kernel_push_and_joint():
    k = TransitionKernel(
        AB,
        Alphabet("y", (0, 1)),
        np.array([[Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1, 2)]], dtype=object),
    )
    p = exact_dist(AB, Fraction(1, 2), Fraction(1, 2))
    out = k.push(p)
    assert out.weight(0) == Fraction(3, 4)
    j = k.joint_with(p)
    assert j.weight(("b", 1)) == Fraction(1, 4)
    assert j.marginal("y").weight(0) == Fraction(3, 4)
    with pytest.raises(DomainMismatchError):
        k.push(Dist.uniform(ABC, EXACT))


# ---------------------------------------------------------------------------
# exact joints given as integers


def _fraction_born(axes, nums, den):
    """The joint the walker built before it kept integers: one Fraction per
    nonzero cell over den, int 0 elsewhere."""
    w = np.array([Fraction(x, den) if x else 0 for x in nums.ravel().tolist()], dtype=object)
    return Joint(axes, w.reshape(nums.shape))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.integers(1, 6), st.data())
def test_integer_born_joints_equal_fraction_born_ones(rows, cols, depth, factor, data):
    """Joint.of_integers equals the Fraction-born joint in weights (values,
    types, read-only), integer_weights, cells, is_exact and marginals, also
    when the numerators share a factor with den; it builds no weights to
    answer is_exact, integer_weights or cells."""
    axes = (Alphabet.of_size("z", rows), Alphabet("h", tuple(f"h{i}" for i in range(cols))), Alphabet.of_size("k", depth))
    for shape in ((rows, cols), (rows, cols, depth)):
        size = int(np.prod(shape))
        raw = data.draw(st.lists(st.integers(0, 5), min_size=size, max_size=size).map(lambda r: [r[0] or 1] + r[1:]))
        nums = np.array([x * factor for x in raw], dtype=object).reshape(shape)
        den = sum(raw) * factor
        got, want = Joint.of_integers(axes[: len(shape)], nums, den), _fraction_born(axes[: len(shape)], nums, den)
        assert got.is_exact and want.is_exact and got.mode == want.mode
        (a, a_den), (b, b_den) = got.integer_weights, want.integer_weights
        assert a_den == b_den and a.tolist() == b.tolist() and {type(x) for x in a.ravel()} <= {int}
        if len(shape) == 2:
            c, d = got.cells, want.cells
            assert (c.d.tolist(), c.scale) == (d.d.tolist(), d.scale)
        assert "weights" not in got.__dict__
        assert got.weights.tolist() == want.weights.tolist() and not got.weights.flags.writeable
        assert [type(x) for x in got.weights.ravel()] == [type(x) for x in want.weights.ravel()]
        for name in got.axis_names:
            g, w = got.marginal(name).weights, want.marginal(name).weights
            assert g.tolist() == w.tolist() and [type(x) for x in g] == [type(x) for x in w]


def test_integer_born_joint_errors_match_the_weights_checks():
    axes = (AB, Alphabet("y", ("c", "d")))
    cases = [
        ([[3, -1], [0, 0]], 2, ValueError),  # negative weight -1/2
        ([[1, 0], [1, 1]], 4, ValueError),  # mass 3/4
        ([[2, 0], [0, 0]], 1, ValueError),  # mass 2
        ([[1, 0.5], [0, 0]], 2, TypeError),  # a float numerator
    ]
    for nums, den, error in cases:
        weights = np.array([[x / Fraction(den) if isinstance(x, int) else x for x in row] for row in nums], dtype=object)
        with pytest.raises(error) as want:
            Joint(axes, weights)
        with pytest.raises(error) as got:
            Joint.of_integers(axes, np.array(nums, dtype=object), den)
        assert str(got.value) == str(want.value)
    with pytest.raises(DomainMismatchError, match=r"weights shape \(2, 1\) != \(2, 2\)"):
        Joint.of_integers(axes, np.array([[1], [1]], dtype=object), 2)
    with pytest.raises(ValueError, match="axis names must be unique"):
        Joint.of_integers((AB, AB), np.array([[1, 0], [0, 0]], dtype=object), 1)
