"""Parametric losses, risks, and exact deviation laws.

A loss maps (observation, hypothesis) to [0, 1].  For a scenario with
training joint P(Z_trn, H), the expected generalization risk of a loss L is

    gen(L) = E_{P(Z_trn, H)} L - E_{P(Z) x P(H)} L = sum_{z,h} D(z,h) L(z,h)

with D = joint - product of marginals.  Its supremum over all [0,1]-valued
losses is attained by the indicator of {D >= 0} and equals vi(Z_trn; H).
The deviation law is the exact distribution of G = R_emp(H) - R_true(H)
over the randomness of the sample and the kernel; tail audits read it.

Every evaluation of a loss goes through one reader, loss_values(loss, z,
hypotheses, h, exact): the values L(z, hypotheses[h]) for an array z of
observation symbols and an array h of hypothesis indices, broadcast
together, as (values, scale) with L = values / scale.  Exact mode gives
integers over the lcm of the values' denominators, int64 while they fit
(Python ints past that); float mode gives float64 with scale 1.  Both come from integers nums over a scale: exact,
nums and scale over their gcd; float, nums / scale, rounded once.  A
loss's fn may carry an array form, attached with learners.with_batch,
that gives (nums, scale) for whole arrays in array steps, as every
built-in loss does; any other fn is called once per distinct (z, h) cell.
loss_table is loss_values over a whole domain x hypotheses grid, built
once per loss and alphabets and kept; a loss given by an integer table
(random_table_loss, worst_case_loss) comes with both tables seeded.
gen(L) is then the integer (or float) sum of d * table over the joint's
cell table d / scale (dist.Joint.cells), divided once, in int64 while
2 * scale * max |L| fits (numeric.int_dtype), and the deviation-law cache
is keyed by the loss's table.

true_risk is the one formula for R_true(h) = sum_z P(z) L(z, h): the
loss's true_risk_fn when it has one, else columns of loss values over the
symbols of positive weight, from loss_table for a hypothesis Alphabet and
from loss_values in chunks of about 2^20 cells for a sequence.  Exact mode
takes one integer dot product of the weights' numerators and each column
over den * scale; float mode adds w * L(z, h) in symbol order, so a risk
has the same bits however its values were read.

The deviation law and the deviation-sign side channel read G through one
DeviationTable per scenario and loss (deviation_table).  The deviation of
h on a sample is identified by e, the sum of the exact integer table
entries of h over the sample, and is g = e / (m * scale) - R_true(h).  A
block's kernel entries get their g in one pass, kept on the block for both
readers: in float mode e / (m * scale) correctly rounded, less the float
risk, in float64; in exact mode as an integer code over one denominator
m * scale * D.  The deviation law adds the masses into one Sums slot per
distinct g, in both modes; an exact law keeps the codes and their masses
and reads its tails with one integer threshold (DeviationLaw), and the
sign side channel compares codes with the threshold's code.  The true
risks of all the hypotheses come from one true_risk(..., many=True) call,
made when the table is first read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .bounds import erm_markov_bound
from .dist import Alphabet, Dist, common_denominator
from .info import variational_info
from .learners import (
    Block,
    Scenario,
    Sparse,
    Sums,
    TrnHypJoint,
    WalkRequest,
    batch_form,
    entry_masses,
    exact_trn_hyp_joint,
    walk,
    with_batch,
)
from .learners import iter_weighted_samples  # noqa: F401  (perfbench looks the walker up here)
from .numeric import INT64_LIMIT, as_ints, int_dtype

#: grouping width for float-mode deviation values
VALUE_ATOL = 1e-12
#: default excess-risk grid of the ERM consistency check
ERM_T_GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)


@dataclass(frozen=True, eq=False)
class ParametricLoss:
    """Loss function with optional closed-form true risk.

    fn(z, h) must return a value in [0, 1]; returning ints or Fractions
    keeps exact-mode arithmetic exact.  true_risk_fn(h, dist), when given,
    replaces the full-domain expectation (needed when the domain is huge).
    """

    name: str
    fn: Callable[[Any, Any], Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    true_risk_fn: Callable[[Any, Dist], Any] | None = None
    _tables: dict = field(default_factory=dict, repr=False)

    def __call__(self, z, h):
        return self.fn(z, h)


def _integer_table(nums: np.ndarray, scale: int, exact: bool) -> tuple[np.ndarray, int]:
    """(values, scale) of loss_values for the values nums / scale of an
    integer array.  Exact: nums and scale over their gcd (what common_denominator
    gives), in the dtype of nums.  Float: nums / scale, which rounds once, as
    float(Fraction) does, while both stay below 2^53; past that, each
    distinct numerator is divided in Python ints."""
    if exact:
        g = math.gcd(scale, int(np.gcd.reduce(nums, axis=None)))
        return (nums // g if g > 1 else nums), scale // g
    if nums.dtype != object and scale < 2**53 and int(abs(nums).max(initial=0)) < 2**53:
        return nums / scale, 1
    values, at = np.unique(nums.ravel(), return_inverse=True)
    return np.array([x / scale for x in values.tolist()]).take(at).reshape(nums.shape), 1


def loss_values(
    loss: ParametricLoss, z: np.ndarray, hypotheses: Sequence, h: np.ndarray, exact: bool
) -> tuple[np.ndarray, int]:
    """L(z, hypotheses[h]) for an array z of symbols of one alphabet and an
    array h of hypothesis indices, broadcast together, as (values, scale)
    with L = values / scale.

    Exact mode: integers over the lcm of the values' denominators, int64
    while they fit (Python ints past that).  Float mode: float64 and
    scale 1.  From the array form of loss.fn when
    it has one: integers(z, hypotheses, h) gives (nums, scale) with
    nums / scale = fn(z, hypotheses[h]); else from one fn call per distinct
    (z, h) cell.
    """
    integers = batch_form(loss.fn)
    if integers is not None:
        return _integer_table(*integers(z, hypotheses, h), exact)
    shape, n = np.broadcast(z, h).shape, len(hypotheses)
    cells, at = np.unique(_codes(z)[0] * n + h, return_inverse=True)
    first = np.empty(len(cells), dtype=np.intp)
    first[at.ravel()] = np.arange(at.size)  # a position of each cell
    fn, zs = loss.fn, np.broadcast_to(z, shape).flat[first].tolist()
    values = [fn(a, hypotheses[c % n]) for a, c in zip(zs, cells.tolist())]
    if exact:
        nums, scale = common_denominator(values)
        return as_ints(nums, max(map(abs, nums), default=0)).take(at).reshape(shape), scale
    return np.array([float(v) for v in values]).take(at).reshape(shape), 1


def loss_table(loss: ParametricLoss, domain: Alphabet, hypotheses: Alphabet, exact: bool) -> tuple[np.ndarray, int]:
    """The loss over domain x hypotheses as (table, scale), L = table / scale:
    loss_values over the whole grid, built once per loss and alphabets."""
    key = (domain, hypotheses, exact)
    if key not in loss._tables:
        z = domain.symbols_at(np.arange(len(domain)))[:, None]
        loss._tables[key] = loss_values(loss, z, hypotheses.symbols, np.arange(len(hypotheses)), exact)
    return loss._tables[key]


def _top(table: np.ndarray) -> int:
    """The largest |entry| of an exact loss table, in one array step; 2^63
    for a table of Python ints."""
    return INT64_LIMIT if table.dtype == object else int(abs(table).max(initial=0))


def int_loss_table(loss: ParametricLoss, domain: Alphabet, hypotheses: Alphabet, m: int) -> np.ndarray:
    """The exact table of loss_table as int64 when sums of m entries stay
    below 2^31, else as Python ints."""
    table, _ = loss_table(loss, domain, hypotheses, True)
    return table if _top(table) * m < 2**31 else table.astype(object, copy=False)


def empirical_risk(loss: ParametricLoss, sample: Sequence, h):
    """Mean loss of h over the sample entries."""
    total = 0
    for z in sample:
        total = total + loss.fn(z, h)
    # Fraction divisor: int and Fraction totals stay exact, floats stay float
    return total / Fraction(len(sample))


def true_risk(loss: ParametricLoss, h, dist: Dist, *, many: bool = False):
    """Expected loss of h under the data distribution: exact (a Fraction,
    or what true_risk_fn gives) for an exact distribution, a float for a
    float one.  From true_risk_fn when the loss has one (its batch form for
    many hypotheses of a float distribution), else from the loss values
    over the symbols of positive weight, summed as the module docstring says.

    many: h holds hypotheses, and their risks come back as one array,
    float64 for a float distribution, else of objects.  A hypothesis
    Alphabet reads its columns from loss_table, any other sequence from
    loss_values in chunks of about 2^20 cells."""
    exact = dist.is_exact
    hs = h if many else (h,)
    symbols = hs.symbols if isinstance(hs, Alphabet) else hs
    if loss.true_risk_fn is not None:
        batch = getattr(loss.true_risk_fn, "batch", None)
        if batch is not None and not exact:
            return batch(symbols, dist) if many else float(batch(symbols, dist)[0])
        risks = [loss.true_risk_fn(x, dist) for x in symbols]
    else:
        at = np.flatnonzero(dist.weights)
        if isinstance(hs, Alphabet):
            table, scale = loss_table(loss, dist.alphabet, hs, exact)
            columns = [(table.take(at, axis=0), scale)]
        else:
            z, step = dist.alphabet.symbols_at(at)[:, None], max(1, 2**20 // len(at))
            chunks = (np.arange(lo, min(lo + step, len(hs))) for lo in range(0, len(hs), step))
            columns = (loss_values(loss, z, hs, chunk, exact) for chunk in chunks)
        nums, den = dist.integer_weights if exact else (dist.weights, 1)
        w = np.asarray(nums, dtype=object if exact else None).take(at)
        risks = []
        for values, scale in columns:
            if exact:
                risks += [Fraction(x, den * scale) for x in (w @ values).tolist()]
            else:  # row by row, as a loop over the symbols adds; + 0.0 turns -0.0 into 0.0
                risks += (np.add.accumulate(w[:, None] * values, axis=0)[-1] + 0.0).tolist()
    if not many:
        return risks[0] if exact else float(risks[0])
    return np.array(risks, dtype=object) if exact else np.array(risks, dtype=np.float64)


def gen_risk_from_joint(tj: TrnHypJoint, loss: ParametricLoss):
    """Expected generalization risk of a loss: the sum of D * L over the
    cells.  Exact: an integer sum, in int64 while its bound
    sum |d| * max |L| <= 2 * scale * max |L| fits."""
    j = tj.joint
    cells = j.cells
    table, scale = loss_table(loss, j.axes[0], j.axes[1], j.is_exact)
    if j.is_exact:
        dtype = int_dtype(2 * cells.scale * max(_top(table), 1))
        terms = cells.d.astype(dtype, copy=False) * table.astype(dtype, copy=False)
        return Fraction(int(terms.sum()), cells.scale * scale)
    terms = cells.d * table
    # cell by cell in row-major order, not pairwise; + 0.0 turns -0.0 into 0.0
    return float(np.add.accumulate(terms.ravel())[-1]) + 0.0


def expected_gen_risk(scenario: Scenario, loss: ParametricLoss, budget: int | None = None):
    """gen(L) for the scenario's exactly enumerated training joint."""
    return gen_risk_from_joint(exact_trn_hyp_joint(scenario, budget=budget), loss)


def _code_at(x, den: int, strict: bool = False):
    """The least integer k such that c / den >= x (> x when strict) exactly
    when c >= k, for every integer c: ceil(x * den), or floor(x * den) + 1
    when strict, with x taken exactly (a float as its binary fraction).  A
    float nan or infinity is returned as it is: an int compares with it as
    c / den would."""
    if isinstance(x, float) and not math.isfinite(x):
        return x
    q = Fraction(x)
    a, b = int(q.numerator), int(q.denominator)
    return a * den // b + 1 if strict else -(-a * den // b)


class DeviationLaw:
    """Law of G = R_emp(H) - R_true(H); points are (value, prob) sorted by value.

    An exact law, whose values are ints or Fractions and whose probs are
    Fractions, reads its tails from integer codes: each value c / den over
    one den, with its mass over one mass den.  The walk builds it from
    those codes (of_codes), and its points are built on first read.  A
    tail read turns its threshold into one integer code (_code_at, a
    ceiling for >= and a floor for >) and takes the mass at or past it
    from a running sum over the sorted |codes|, with one np.searchsorted;
    the result is a Fraction, or the int 0 when no point qualifies, as
    summing the points' probs gives.  Any other law, a float one among
    them, sums its points one by one, as does mass_abs_near with a float t
    or window, which compares in floats.
    """

    def __init__(self, points: tuple, scenario_name: str, loss_name: str):
        self.points, self.scenario_name, self.loss_name = tuple(points), scenario_name, loss_name

    @classmethod
    def of_codes(
        cls, codes: np.ndarray, masses: np.ndarray, den: int, mass_den: int, scenario_name: str, loss_name: str
    ) -> "DeviationLaw":
        """The exact law with values codes / den and probs masses / mass_den,
        for integer arrays of distinct codes and of positive masses."""
        law = cls.__new__(cls)
        law.scenario_name, law.loss_name = scenario_name, loss_name
        order = np.argsort(codes)
        law._codes = codes.take(order), masses.take(order), den, mass_den
        return law

    def _fields(self) -> tuple:
        return self.points, self.scenario_name, self.loss_name

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return "DeviationLaw(points={!r}, scenario_name={!r}, loss_name={!r})".format(*self._fields())

    @cached_property
    def points(self) -> tuple:
        codes, masses, den, mass_den = self._codes
        return tuple((Fraction(c, den), Fraction(p, mass_den)) for c, p in zip(codes.tolist(), masses.tolist()))

    @cached_property
    def _codes(self) -> tuple | None:
        """(codes, masses, den, mass_den) of an exact law built from points,
        else None."""
        values, probs = [v for v, _ in self.points], [p for _, p in self.points]
        if not all(isinstance(v, (int, Fraction)) for v in values) or not all(isinstance(p, Fraction) for p in probs):
            return None
        (codes, den), (masses, mass_den) = common_denominator(values), common_denominator(probs)
        return np.array(codes, dtype=object), np.array(masses, dtype=object), den, mass_den

    @cached_property
    def _tails(self) -> tuple:
        """(|codes| ascending, the mass at or past each position with a 0
        after the last, den, mass den)."""
        codes, masses, den, mass_den = self._codes
        order = np.argsort(abs(codes), kind="stable")
        above = np.cumsum(masses.take(order)[::-1])[::-1]
        return abs(codes).take(order), np.concatenate((above, np.zeros(1, above.dtype))), den, mass_den

    def _at(self, x, strict: bool = False) -> int:
        """The position of the first |value| >= x (> x when strict) among
        the sorted |values|."""
        sizes, _, den, _ = self._tails
        k = _code_at(x, den, strict)
        if not len(sizes) or not k <= sizes[-1]:
            return len(sizes)
        return 0 if k <= sizes[0] else int(np.searchsorted(sizes, k))

    def _mass(self, lo: int, hi: int | None = None):
        """The mass of the sorted |values| at positions lo up to hi (the
        end when None): 0 when there are none, else a Fraction."""
        sizes, above, _, mass_den = self._tails
        hi = len(sizes) if hi is None else hi
        return Fraction(int(above[lo] - above[hi]), mass_den) if lo < hi else 0

    def expectation(self):
        return sum(v * p for v, p in self.points)

    def tail_abs_ge(self, t, tol=0):
        """P{|G| >= t}, with a symmetric tolerance for float-mode values."""
        if self._codes is None:
            return sum(p for v, p in self.points if abs(v) >= t - tol)
        return self._mass(self._at(t - tol))

    def tail_abs_gt(self, t, tol=0):
        """P{|G| > t} (strict)."""
        if self._codes is None:
            return sum(p for v, p in self.points if abs(v) > t + tol)
        return self._mass(self._at(t + tol, strict=True))

    def mass_abs_near(self, t, window):
        """P{ | |G| - t | <= window }."""
        if self._codes is None or isinstance(t, float) or isinstance(window, float):
            return sum(p for v, p in self.points if abs(abs(v) - t) <= window)
        return self._mass(self._at(t - window), self._at(t + window, strict=True))


def _merged_points(acc: dict, is_exact: bool) -> tuple:
    items = sorted(acc.items())
    if is_exact:
        return tuple(items)
    merged = []
    for v, p in items:
        if merged and abs(v - merged[-1][0]) <= VALUE_ATOL:
            merged[-1][1] += p
        else:
            merged.append([v, p])
    return tuple((v, p) for v, p in merged)


class DeviationTable:
    """The deviation G = R_emp(h) - R_true(h) of a loss on a scenario, read
    from e, the sum of the loss's exact integer table entries of h over the
    sample.

    key is (loss name, scale, the exact table): it identifies every law
    read from the table.  The true risks are computed once, when the table
    is first read.
    """

    def __init__(self, scenario: Scenario, loss: ParametricLoss):
        dist, m = scenario.data_dist, scenario.m
        self.loss, self.dist, self.exact = loss, dist, dist.is_exact
        self.hypotheses = hyp = scenario.learner.hypotheses(m)
        table, self.scale = loss_table(loss, dist.alphabet, hyp, True)
        self.key = (loss.name, self.scale, tuple(table.ravel().tolist()))
        self.sums_table = int_loss_table(loss, dist.alphabet, hyp, m)
        self._ms = m * self.scale

    @cached_property
    def _risks(self) -> tuple[np.ndarray, int, int]:
        """The true risks by h index: float64 in float mode; exact, their
        numerators over one denominator den (int64 while they fit), with a
        bound on the codes of deviations()."""
        risks = true_risk(self.loss, self.hypotheses, self.dist, many=True)
        if not self.exact:
            return risks, 1, 0
        nums, den = common_denominator(risks.tolist())
        top = max(map(abs, nums), default=0)
        # |e| < 2^31 while the sums table is int64 (int_loss_table)
        e_top = 2**31 if self.sums_table.dtype != object else INT64_LIMIT
        return as_ints(nums, top), den, max(e_top * den + self._ms * top, self._ms, den)

    @property
    def code_den(self) -> int:
        """The denominator m * scale * D of the exact codes of deviations()."""
        return self._ms * self._risks[1]

    @property
    def code_bound(self) -> int:
        """A bound on |code| of the exact codes of deviations()."""
        return self._risks[2]

    def code(self, x):
        """A threshold x as deviations() gives a deviation g: x itself in
        float mode; in exact mode the integer k such that g >= x exactly
        when g's code is >= k (_code_at)."""
        return _code_at(x, self.code_den) if self.exact else x

    def deviations(self, h: np.ndarray, e: np.ndarray) -> tuple[list, np.ndarray]:
        """The distinct deviations g of the entries (h[i], e[i]), sorted, and
        each entry's position among them.

        Float mode: g = e / (m * scale) - r[h] in float64; below 2^53 the
        quotient rounds once, as float(Fraction) does, and past that it is
        taken in Python ints.  Exact mode: with the risks R_num / D over one
        denominator, g is given by its integer code e * D - m * scale * R_num[h]
        over code_den, computed in int64 while its bound fits and returned
        as Python ints."""
        ms, (nums, den, bound) = self._ms, self._risks
        r = nums.take(h)
        if not self.exact:
            q = e / ms if e.dtype != object and ms < 2**53 else np.array([x / ms for x in e.tolist()])
            g, at = np.unique(q - r, return_inverse=True)
            return g.tolist(), at
        dtype = int_dtype(bound)
        codes, at = np.unique(e.astype(dtype, copy=False) * den - ms * r.astype(dtype, copy=False), return_inverse=True)
        return codes.tolist(), at

    def entry_deviations(self, block: Block, out: Sparse) -> tuple[list, np.ndarray]:
        """The deviations of the kernel entries, each with its e summed
        over its sample.  Kept on the block for its kernel output, so every
        reader of the table shares one pass."""

        def build():
            table = self.sums_table
            at = block.idx.take(out.row, axis=0) * table.shape[1]
            at += out.col[:, None]
            return self.deviations(out.col, table.ravel().take(at).sum(axis=1))

        return block.memo(self, out, build)


def deviation_table(scenario: Scenario, loss: ParametricLoss) -> DeviationTable:
    """The scenario's one DeviationTable of loss, kept in its cache under the
    loss object (held by the key, so its id is not reused)."""
    return scenario.cached(("deviation_table", loss), lambda: DeviationTable(scenario, loss))


def deviation_request(scenario: Scenario, loss: ParametricLoss) -> WalkRequest:
    """The deviation law as a walk request, cached under its table's key.

    Each distinct deviation gets a slot when a block first has it, and the
    masses P(S) K(h|S) of its kernel entries add into it in visit order."""
    dev = deviation_table(scenario, loss)
    exact = scenario.data_dist.is_exact

    def start():
        slots: dict = {}  # deviation (its integer code in exact mode) -> slot
        sums = Sums(0, exact)

        def add(block: Block, out: Sparse):
            gs, at = dev.entry_deviations(block, out)
            slot = np.array([slots.setdefault(g, len(slots)) for g in gs], dtype=np.intp)
            sums.grow(len(slots))
            sums.add(slot.take(at), entry_masses(block, out), block.den * out.den)

        def finish() -> DeviationLaw:
            total, den = sums.total()
            if exact:
                codes = as_ints(list(slots), dev.code_bound)
                return DeviationLaw.of_codes(codes, total, dev.code_den, den, scenario.name, loss.name)
            return DeviationLaw(_merged_points(dict(zip(slots, total)), False), scenario.name, loss.name)

        return add, finish

    return WalkRequest(("deviation_law",) + dev.key, "deviation law", start)


def deviation_law(scenario: Scenario, loss: ParametricLoss, budget: int | None = None) -> DeviationLaw:
    """Enumerate the deviation law exactly.

    True risks are computed once per hypothesis; empirical risks are read
    from the loss's integer table through the multiset counts, so the cost
    matches the joint enumeration.
    """
    return walk(scenario, [deviation_request(scenario, loss)], budget)[0]


# ---------------------------------------------------------------------------
# loss builders


def _codes(z: np.ndarray, *parts: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """z as integer codes >= 0, and the symbols of parts, one part after
    another, as the codes of the z values they equal, or negative codes:
    by value when z and the symbols are ints, else through a dict of z's
    values, which matches them as == does."""
    from array import array  # array("q") takes ints alone, so equality is by value

    if z.dtype.kind == "i":
        lo = int(z.min(initial=0))
        try:
            # one array per part: array("q") reads a list or tuple in one pass
            codes = np.frombuffer(b"".join(map(array, itertools.repeat("q"), parts)), np.int64)
        except (TypeError, OverflowError):
            pass
        else:
            return (z - lo, codes - lo) if lo else (z, codes)
    seen: dict = {}
    codes = np.array([seen.setdefault(s, len(seen)) for s in z.ravel().tolist()], dtype=np.intp)
    symbols = itertools.chain.from_iterable(parts)
    return codes.reshape(z.shape), np.array([seen.get(s, -1) for s in symbols], dtype=np.int64)


def _in_keys(z: np.ndarray, keys: Sequence, h: np.ndarray) -> np.ndarray:
    """Whether z is in keys[h], for z and h broadcast together, in one array
    step: each (key, member) and (h, z) pair as one integer code, the wanted
    ones looked up among the sorted member pairs."""
    zc, members = _codes(z, *keys)
    owner = np.repeat(np.arange(len(keys)), [len(key) for key in keys])
    span = int(zc.max(initial=0)) + 1
    keep = (members >= 0) & (members < span)  # the others equal no z
    pairs = np.concatenate(([-1], np.sort(owner[keep] * span + members[keep])))
    wanted = h * span + zc
    return pairs.take(np.searchsorted(pairs, wanted), mode="clip") == wanted


def constant_loss(value=1) -> ParametricLoss:
    """value everywhere; an int, a Fraction or a finite float has an array form."""

    def fn(z, h):
        return value

    if isinstance(value, (int, Fraction)) or isinstance(value, float) and math.isfinite(value):
        num, scale = Fraction(value).as_integer_ratio()
        fn = with_batch(fn, lambda z, hypotheses, h: (np.full(np.broadcast(z, h).shape, num), scale))
    return ParametricLoss(f"constant[{value}]", fn, {"value": value}, lambda h, dist: value)


def zero_one_loss() -> ParametricLoss:
    """Disagreement between the observation and the hypothesis symbol."""

    def integers(z: np.ndarray, hypotheses: Sequence, h: np.ndarray) -> tuple[np.ndarray, int]:
        zc, codes = _codes(z, hypotheses)
        return (zc != codes.take(h)).astype(np.int64), 1

    return ParametricLoss(name="zero_one", fn=with_batch(lambda z, h: 0 if z == h else 1, integers))


def membership_loss() -> ParametricLoss:
    """1 when the observation appears in a tuple-valued hypothesis."""

    def integers(z: np.ndarray, hypotheses: Sequence, h: np.ndarray) -> tuple[np.ndarray, int]:
        if all(isinstance(key, tuple) for key in hypotheses):
            return _in_keys(z, hypotheses, h).astype(np.int64), 1
        z, h = np.broadcast_arrays(z, h)  # `in` may not be equality (str): cell by cell
        inside = [a in hypotheses[i] for a, i in zip(z.ravel().tolist(), h.ravel().tolist())]
        return np.array(inside, dtype=np.int64).reshape(h.shape), 1

    return ParametricLoss(name="membership", fn=with_batch(lambda z, h: 1 if z in h else 0, integers))


def table_loss(name: str, domain: Alphabet, hypotheses: Alphabet, values: np.ndarray) -> ParametricLoss:
    rows, hi = dict(zip(domain.symbols, values)), hypotheses.index

    def fn(z, h):
        return rows[z][hi[h]]

    return ParametricLoss(name=name, fn=fn, params={"shape": (len(domain), len(hypotheses))})


def _integer_table_loss(name, domain, hypotheses, nums: np.ndarray, scale: int, params, true_risk_fn) -> ParametricLoss:
    """The loss nums / scale over domain x hypotheses, for an integer array
    nums: fn looks a cell up as a Fraction, and both tables come seeded
    (_integer_table) as loss_table would build them from fn."""
    rows, hi = dict(zip(domain.symbols, nums.tolist())), hypotheses.index
    loss = ParametricLoss(name, lambda z, h: Fraction(rows[z][hi[h]], scale), params, true_risk_fn)
    for exact in (True, False):
        loss._tables[domain, hypotheses, exact] = _integer_table(nums, scale, exact)
    return loss


def random_table_loss(domain: Alphabet, hypotheses: Alphabet, seed: int, levels: int = 16) -> ParametricLoss:
    """Seeded random loss table with values on the grid {0, 1/levels, ..., 1}.

    Grid values stay exact in exact mode.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    raw = rng.integers(0, levels + 1, size=(len(domain), len(hypotheses)))
    params = {"seed": seed, "levels": levels}
    return _integer_table_loss(f"random_table[{seed}]", domain, hypotheses, raw, levels, params, None)


def _prop1_loss(name: str, in_sample_value) -> ParametricLoss:
    """Shared shape of the memorizer losses: off-sample points cost 1/2.

    fn's array form tests each z for membership in its hypothesis's key
    (_in_keys), with the in-sample values over a common denominator with 1/2.
    In float mode the true risk of (key, b) is 0.5 plus one float term
    w(z) * step(b) per z in set(key), added in set order, with step(b) the
    float of in_sample_value(b) - 1/2; true_risk_fn.batch gives it for
    many hypotheses at once.
    """
    half = Fraction(1, 2)

    def fn(z, h):
        key, b = h
        if z in key:
            return in_sample_value(b)
        return half

    def integers(z: np.ndarray, hypotheses: Sequence, h: np.ndarray) -> tuple[np.ndarray, int]:
        values = {b: in_sample_value(b) for b in {b for _, b in hypotheses}}
        nums, scale = common_denominator([half, *values.values()])
        num_of = dict(zip(values, nums[1:]))
        inside = _in_keys(z, [key for key, _ in hypotheses], h)
        return np.where(inside, np.array([num_of[b] for _, b in hypotheses], dtype=np.int64).take(h), nums[0]), scale

    def float_risks(hypotheses: Sequence, dist: Dist) -> np.ndarray:
        """The float true risks of hypotheses: each key's members, in set
        order, in a zero-padded row after a 0.5 column, times its step,
        added along the row.  A padding term is 0.0 or -0.0, which leaves
        a sum as it is."""
        steps = {b: float(in_sample_value(b) - half) for b in {b for _, b in hypotheses}}
        members = [set(key) for key, _ in hypotheses]
        sizes = np.array([len(key) for key in members], dtype=np.intp)
        terms = np.zeros((len(members), 1 + int(sizes.max(initial=0))))
        at = dist.alphabet.indices(itertools.chain.from_iterable(members))
        terms[:, 1:][np.arange(terms.shape[1] - 1) < sizes[:, None]] = dist.weights.take(at)
        terms[:, 1:] *= np.array([steps[b] for _, b in hypotheses])[:, None]
        terms[:, 0] = 0.5
        return np.add.accumulate(terms, axis=1)[:, -1]

    def true_risk_fn(h, dist: Dist):
        if not dist.is_exact:
            return float(float_risks([h], dist)[0])
        key, b = h
        step = in_sample_value(b) - half
        total = half
        for z in set(key):
            total = total + dist.weight(z) * step
        return total

    true_risk_fn.batch = float_risks
    return ParametricLoss(name=name, fn=with_batch(fn, integers), true_risk_fn=true_risk_fn)


def prop1_paired_loss() -> ParametricLoss:
    """In-sample cost 1 - b: the fair bit makes gen(L) cancel to exactly zero."""
    return _prop1_loss("prop1_paired", lambda b: 1 - b)


def prop1_flipped_loss() -> ParametricLoss:
    """In-sample cost 1 regardless of b: the deviation stays near 1/2 always."""
    return _prop1_loss("prop1_flipped", lambda b: 1)


def worst_case_loss(tj: TrnHypJoint, tol: float = 0.0) -> ParametricLoss:
    """Binary loss attaining the supremum of gen(L): the indicator of D >= 0.

    Cells with D exactly zero (within tol in float mode) are counted and
    reported in params; they sit on the boundary of the maximizing set.
    """
    j = tj.joint
    cells = j.cells
    d = cells.d
    boundary = np.count_nonzero(d == 0) if j.is_exact else np.count_nonzero(abs(d) <= tol)
    indicator = np.where(d >= 0, 1, 0)
    zsyms, hsyms = j.axes
    if j.is_exact:  # sums of row masses, at most den
        masses = (cells.row_mass[:, None] * indicator).sum(axis=0)
        risks = [Fraction(mass, cells.den) for mass in masses.tolist()]
    else:
        # summed over z in order, not pairwise
        risks = np.add.accumulate(cells.row_mass[:, None] * indicator, axis=0)[-1]
    hrisk = dict(zip(hsyms.symbols, risks))
    params = {"boundary_cells": int(boundary)}
    return _integer_table_loss("worst_case", zsyms, hsyms, indicator, 1, params, lambda h, dist: hrisk[h])


def kept_worst_case_loss(scenario: Scenario, tj: TrnHypJoint, tol: float = 0.0) -> ParametricLoss:
    """worst_case_loss(tj, tol), built once and kept in the scenario's cache
    under the joint and tol, so the audits that read it share its tables."""
    return scenario.cached(("worst_case_loss", tj.joint, tol), lambda: worst_case_loss(tj, tol))


def exhaustive_binary_loss_max(tj: TrnHypJoint):
    """Brute-force sup of |gen(L)| over every 0/1 loss table.

    Exponential in the number of cells; intended for joints with at most
    a dozen cells, where it independently certifies the supremum.
    """
    j = tj.joint
    d = j.cells.d.ravel()
    cells = len(d)
    if cells > 24:
        raise ValueError(f"{cells} cells is too many for exhaustive search")
    best, best_table = None, None
    for bits in itertools.product((0, 1), repeat=cells):
        total = abs(sum(v for b, v in zip(bits, d) if b))
        if best is None or total > best:
            best, best_table = total, bits
    if j.is_exact:
        best = Fraction(int(best), j.cells.scale)
    shape = (len(j.axes[0]), len(j.axes[1]))
    table = np.array(best_table, dtype=object).reshape(shape)
    return best, table


# ---------------------------------------------------------------------------
# ERM consistency


@dataclass(frozen=True)
class ErmConsistency:
    """Markov-style control of the excess true risk of an ERM-like kernel.

    curve rows are (t, P{excess >= t}, info/t, holds); the tail is exact.
    """

    scenario_name: str
    best_hypothesis: Any
    info: object
    excess_points: tuple
    curve: tuple
    holds: bool


def erm_consistency_bound(
    scenario: Scenario,
    loss: ParametricLoss,
    t_grid: Sequence = ERM_T_GRID,
    budget: int | None = None,
    tol=0,
) -> ErmConsistency:
    """Check P{R_true(H) - min_h R_true(h) >= t} <= vi / t on a grid."""
    tj = exact_trn_hyp_joint(scenario, budget=budget)
    j = tj.joint
    hyp = j.axes[1]
    dist = scenario.data_dist
    risks = dict(zip(hyp.symbols, true_risk(loss, hyp, dist, many=True).tolist()))
    best_h = min(hyp.symbols, key=lambda h: risks[h])
    floor = risks[best_h]
    ph = j.marginal(hyp.name).weights
    acc: dict = {}
    for hi, h in enumerate(hyp.symbols):
        if ph[hi] != 0:
            excess = risks[h] - floor
            acc[excess] = acc.get(excess, 0) + ph[hi]
    points = _merged_points(acc, j.is_exact)
    excess_law = DeviationLaw(points, scenario.name, loss.name)  # excess >= 0: its tails are |.| tails
    info = variational_info(j)
    curve = []
    ok = True
    for t in t_grid:
        tail = excess_law.tail_abs_ge(t, tol=0 if j.is_exact else VALUE_ATOL)
        bound = erm_markov_bound(info, t)
        good = tail <= bound + tol
        ok = ok and good
        curve.append((t, tail, bound, good))
    return ErmConsistency(scenario.name, best_h, info, points, tuple(curve), ok)
