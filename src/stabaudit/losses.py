"""Parametric losses, risks, and exact deviation laws.

A loss maps (observation, hypothesis) to [0, 1].  For a scenario with
training joint P(Z_trn, H), the expected generalization risk of a loss L is

    gen(L) = E_{P(Z_trn, H)} L - E_{P(Z) x P(H)} L = sum_{z,h} D(z,h) L(z,h)

with D = joint - product of marginals.  Its supremum over all [0,1]-valued
losses is attained by the indicator of {D >= 0} and equals vi(Z_trn; H).
The deviation law is the exact distribution of G = R_emp(H) - R_true(H)
over the randomness of the sample and the kernel; tail audits read it.

Cell-wise readers see a loss as a table L[z, h] = table / scale over an
observation alphabet and a hypothesis alphabet (loss_table).  In exact
mode the table holds Python ints over the lcm of the values'
denominators; in float mode it holds float64 with scale 1.  Both come
from integers nums over a scale: exact, nums and scale over their gcd;
float, nums / scale, rounded once.  Every built-in loss gives those
integers for a whole (z, h) grid in array steps: its fn carries an array
form (with_integers), from which its float batch form for Monte Carlo is
derived too.  A loss given by an integer table (random_table_loss,
worst_case_loss) comes with both tables seeded on its own alphabets, and
any other loss calls fn once per cell.  A loss builds each table once
and keeps it.  gen(L) is then the integer (or float) sum of d * table
over the joint's cell table d / scale (dist.Joint.cells), divided once,
and the deviation-law cache is keyed by the loss's table.

The deviation law and the deviation-sign side channel read G through one
DeviationTable per scenario and loss (deviation_table).  The deviation of
h on a sample is identified by e, the sum of the exact integer table
entries of h over the sample, and is g = e / (m * scale) - R_true(h).  A
block's kernel entries get their g in one pass, kept on the block for both
readers: in float mode e / (m * scale) correctly rounded, less the float
risk, in float64; in exact mode as an integer code over one denominator,
with one Fraction per distinct code.  The deviation law adds the masses
into one Sums slot per distinct g, in both modes.  Every true risk is
computed once, when the table is first read, from its table column: in
exact mode one integer dot product with the distribution's weights over
their common denominator, in float mode the sum of w * (column / scale)
in symbol order.
"""

from __future__ import annotations

import itertools
import math
import operator
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
    exact_trn_hyp_joint,
    walk,
    with_batch,
)
from .learners import iter_weighted_samples  # noqa: F401  (perfbench looks the walker up here)

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


def with_integers(fn: Callable, integers: Callable) -> Callable:
    """Attach integers, the array form of the loss function fn, to fn:
    integers(z, hypotheses, h) is (nums, scale) with nums / scale equal to
    fn(z, hypotheses[h]), for arrays z of symbols and h of hypothesis indices
    broadcast together.  fn's batch form is the float64 nums / scale.  A
    wrapped or replaced fn loses both (batch_form)."""

    def batch(z: np.ndarray, hypotheses: Sequence, h: np.ndarray) -> np.ndarray:
        return _integer_table(*integers(z, hypotheses, h), False)[0]

    batch.integers = integers
    return with_batch(fn, batch)


def _integer_table(nums: np.ndarray, scale: int, exact: bool) -> tuple[np.ndarray, int]:
    """(table, scale) of loss_table for the values nums / scale of an integer
    array.  Exact: nums and scale over their gcd (what common_denominator
    gives), as Python ints.  Float: nums / scale, which rounds once, as
    float(Fraction) does, while both stay below 2^53; past that, each
    distinct numerator is divided in Python ints."""
    if exact:
        g = math.gcd(scale, int(np.gcd.reduce(nums, axis=None)))
        return (nums // g if g > 1 else nums).astype(object), scale // g
    if nums.dtype != object and scale < 2**53 and int(abs(nums).max(initial=0)) < 2**53:
        return nums / scale, 1
    values, at = np.unique(nums.ravel(), return_inverse=True)
    return np.array([x / scale for x in values.tolist()]).take(at).reshape(nums.shape), 1


def loss_table(loss: ParametricLoss, domain: Alphabet, hypotheses: Alphabet, exact: bool) -> tuple[np.ndarray, int]:
    """The loss over domain x hypotheses as (table, scale), L = table / scale.

    Exact mode: Python ints over the lcm of the values' denominators.
    Float mode: float64 and scale 1.  Built once per loss and alphabets,
    from the array form of loss.fn when it has one (with_integers), else
    with one fn call per cell.
    """
    key = (domain, hypotheses, exact)
    if key not in loss._tables:
        integers = getattr(batch_form(loss.fn), "integers", None)
        shape = (len(domain), len(hypotheses))
        if integers is not None:
            z = np.arange(shape[0]) if domain.positional else np.fromiter(domain.symbols, object, shape[0])
            loss._tables[key] = _integer_table(*integers(z[:, None], hypotheses.symbols, np.arange(shape[1])), exact)
        else:
            fn = loss.fn
            values = [fn(z, h) for z in domain.symbols for h in hypotheses.symbols]
            if exact:
                nums, scale = common_denominator(values)
                loss._tables[key] = (np.array(nums, dtype=object).reshape(shape), scale)
            else:
                loss._tables[key] = (np.array([float(v) for v in values]).reshape(shape), 1)
    return loss._tables[key]


def int_loss_table(loss: ParametricLoss, domain: Alphabet, hypotheses: Alphabet, m: int) -> np.ndarray:
    """The exact table of loss_table as int64 when sums of m entries stay
    small, else as it is (Python ints)."""
    table, _ = loss_table(loss, domain, hypotheses, True)
    top = max((abs(x) for x in table.ravel().tolist()), default=0)
    return table.astype(np.int64) if top * m < 2**31 else table


def empirical_risk(loss: ParametricLoss, sample: Sequence, h):
    """Mean loss of h over the sample entries."""
    total = 0
    for z in sample:
        total = total + loss.fn(z, h)
    # Fraction divisor: int and Fraction totals stay exact, floats stay float
    return total / Fraction(len(sample))


def true_risk(loss: ParametricLoss, h, dist: Dist, column: Sequence[int] | None = None, scale: int = 1):
    """Expected loss of h under the data distribution.

    Exact for an exact distribution, also when the loss returns floats
    (Fraction(float) is lossless): one integer dot product of the weights
    and the loss values over their common denominators.  Float mode sums
    w * L(z, h) in symbol order over the positive weights.  column, the
    exact table column of h over the distribution's alphabet with its
    scale (loss_table), gives the loss values without calling loss.fn;
    in float mode each is column[i] / scale, the float of the same
    rational that float(loss.fn(z, h)) rounds."""
    if loss.true_risk_fn is not None:
        return loss.true_risk_fn(h, dist)
    if dist.is_exact:
        nums, den = dist.integer_weights
        if column is None:
            at = [i for i, x in enumerate(nums) if x]
            symbols, fn = dist.alphabet.symbols, loss.fn
            column, scale = common_denominator([fn(symbols[i], h) for i in at])
            nums = [nums[i] for i in at]
        return Fraction(sum(map(operator.mul, nums, column)), den * scale)
    total, weights = 0.0, dist.weights.tolist()
    if column is None:  # x / 1 is x
        column, scale = [float(loss.fn(z, h)) if w else 0 for z, w in zip(dist.alphabet.symbols, weights)], 1
    for c, w in zip(column, weights):
        if w:
            total += w * (c / scale)
    return total


def gen_risk_from_joint(tj: TrnHypJoint, loss: ParametricLoss):
    """Expected generalization risk of a loss: the sum of D * L over the cells."""
    j = tj.joint
    cells = j.cells
    table, scale = loss_table(loss, j.axes[0], j.axes[1], j.is_exact)
    terms = cells.d * table
    if j.is_exact:
        return Fraction(terms.sum(), cells.scale * scale)
    # cell by cell in row-major order, not pairwise; + 0.0 turns -0.0 into 0.0
    return float(np.add.accumulate(terms.ravel())[-1]) + 0.0


def expected_gen_risk(scenario: Scenario, loss: ParametricLoss, budget: int | None = None):
    """gen(L) for the scenario's exactly enumerated training joint."""
    return gen_risk_from_joint(exact_trn_hyp_joint(scenario, budget=budget), loss)


@dataclass(frozen=True)
class DeviationLaw:
    """Exact law of G = R_emp(H) - R_true(H); points are (value, prob) sorted."""

    points: tuple
    scenario_name: str
    loss_name: str

    def expectation(self):
        return sum(v * p for v, p in self.points)

    def tail_abs_ge(self, t, tol=0):
        """P{|G| >= t}, with a symmetric tolerance for float-mode values."""
        at = _threshold(self.points, t - tol)
        return sum(p for v, p in self.points if abs(v) >= at)

    def tail_abs_gt(self, t, tol=0):
        """P{|G| > t} (strict)."""
        at = _threshold(self.points, t + tol)
        return sum(p for v, p in self.points if abs(v) > at)

    def mass_abs_near(self, t, window):
        """P{ | |G| - t | <= window }."""
        return sum(p for v, p in self.points if abs(abs(v) - t) <= window)


def _threshold(points: tuple, x):
    """x to compare the values of points with: a finite float becomes its
    exact Fraction when every value is a Fraction.  Fraction converts a
    float exactly at every comparison, so each comparison gives the same
    result with the float converted once."""
    if isinstance(x, float) and math.isfinite(x) and all(type(v) is Fraction for v, _ in points):
        return Fraction(x)
    return x


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
    read from the table.  Every true risk is computed once, from its table
    column, when the table is first read.
    """

    def __init__(self, scenario: Scenario, loss: ParametricLoss):
        dist, m = scenario.data_dist, scenario.m
        self.loss, self.dist, self.exact = loss, dist, dist.is_exact
        self.hypotheses = hyp = scenario.learner.hypotheses(m)
        self._table, self.scale = loss_table(loss, dist.alphabet, hyp, True)
        self.key = (loss.name, self.scale, tuple(self._table.ravel().tolist()))
        self.sums_table = int_loss_table(loss, dist.alphabet, hyp, m)
        self._ms = m * self.scale

    @cached_property
    def _risks(self) -> tuple[np.ndarray, int, int]:
        """The true risks by h index: float64 in float mode; exact, their
        numerators over one denominator den (int64 while they fit), with
        top, the largest numerator."""
        symbols, scale = self.hypotheses.symbols, self.scale
        risks = [true_risk(self.loss, h, self.dist, c, scale) for h, c in zip(symbols, self._table.T.tolist())]
        if not self.exact:
            return np.array([float(r) for r in risks]), 1, 0
        nums, den = common_denominator(risks)
        top = max(map(abs, nums), default=0)
        return np.array(nums, dtype=np.int64 if top < 2**63 else object), den, top

    def deviations(self, h: np.ndarray, e: np.ndarray) -> tuple[list, np.ndarray]:
        """The distinct deviations g of the entries (h[i], e[i]), sorted, and
        each entry's position among them.

        Float mode: g = e / (m * scale) - r[h] in float64; below 2^53 the
        quotient rounds once, as float(Fraction) does, and past that it is
        taken in Python ints.  Exact mode: with the risks R_num / D over one
        denominator, e * D - m * scale * R_num[h] is the integer code of
        g * (m * scale * D), in int64 while it fits."""
        ms, (nums, den, top) = self._ms, self._risks
        r = nums.take(h)
        if not self.exact:
            q = e / ms if e.dtype != object and ms < 2**53 else np.array([x / ms for x in e.tolist()])
            g, at = np.unique(q - r, return_inverse=True)
            return g.tolist(), at
        small = e.dtype != object and max(int(abs(e).max()) * den + ms * top, ms, den) < 2**63
        codes = e * den - ms * r if small else e.astype(object) * den - ms * r.astype(object)
        codes, at = np.unique(codes, return_inverse=True)
        return [Fraction(c, ms * den) for c in codes.tolist()], at

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
        slots: dict = {}  # deviation -> slot
        sums = Sums(0, exact)

        def add(block: Block, out: Sparse):
            gs, at = dev.entry_deviations(block, out)
            slot = np.array([slots.setdefault(g, len(slots)) for g in gs], dtype=np.intp)
            sums.grow(len(slots))
            mass = block.weights.take(out.row) * out.prob
            sums.add(slot.take(at), mass, block.den * out.den)

        def finish() -> DeviationLaw:
            total, den = sums.total()
            probs = [Fraction(x, den) for x in total.tolist()] if exact else total
            points = _merged_points(dict(zip(slots, probs)), exact)
            return DeviationLaw(points=points, scenario_name=scenario.name, loss_name=loss.name)

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


def _codes(z: np.ndarray, symbols) -> tuple[np.ndarray, np.ndarray]:
    """z as integer codes >= 0, and symbols as the codes of the z values they
    equal, or negative codes: by value when z and symbols are ints, else
    through a dict of z's values, which matches them as == does."""
    from array import array  # array("q") takes ints alone, so equality is by value

    symbols = list(symbols)
    if z.dtype.kind == "i":
        lo = int(z.min(initial=0))
        try:
            codes = np.frombuffer(array("q", symbols), np.int64)
        except (TypeError, OverflowError):
            pass
        else:
            return (z - lo, codes - lo) if lo else (z, codes)
    seen: dict = {}
    codes = np.array([seen.setdefault(s, len(seen)) for s in z.ravel().tolist()], dtype=np.intp)
    return codes.reshape(z.shape), np.array([seen.get(s, -1) for s in symbols], dtype=np.int64)


def _in_keys(z: np.ndarray, keys: Sequence, h: np.ndarray) -> np.ndarray:
    """Whether z is in keys[h], for z and h broadcast together, in one array
    step: each (key, member) and (h, z) pair as one integer code, the wanted
    ones looked up among the sorted member pairs."""
    zc, members = _codes(z, itertools.chain.from_iterable(keys))
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
        fn = with_integers(fn, lambda z, hypotheses, h: (np.full(np.broadcast(z, h).shape, num), scale))
    return ParametricLoss(f"constant[{value}]", fn, {"value": value}, lambda h, dist: value)


def zero_one_loss() -> ParametricLoss:
    """Disagreement between the observation and the hypothesis symbol."""

    def integers(z: np.ndarray, hypotheses: Sequence, h: np.ndarray) -> tuple[np.ndarray, int]:
        zc, codes = _codes(z, hypotheses)
        return (zc != codes.take(h)).astype(np.int64), 1

    return ParametricLoss(name="zero_one", fn=with_integers(lambda z, h: 0 if z == h else 1, integers))


def membership_loss() -> ParametricLoss:
    """1 when the observation appears in a tuple-valued hypothesis."""

    def integers(z: np.ndarray, hypotheses: Sequence, h: np.ndarray) -> tuple[np.ndarray, int]:
        if all(isinstance(key, tuple) for key in hypotheses):
            return _in_keys(z, hypotheses, h).astype(np.int64), 1
        z, h = np.broadcast_arrays(z, h)  # `in` may not be equality (str): cell by cell
        inside = [a in hypotheses[i] for a, i in zip(z.ravel().tolist(), h.ravel().tolist())]
        return np.array(inside, dtype=np.int64).reshape(h.shape), 1

    return ParametricLoss(name="membership", fn=with_integers(lambda z, h: 1 if z in h else 0, integers))


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
    """
    half = Fraction(1, 2)

    def fn(z, h):
        key, b = h
        if z in key:
            return in_sample_value(b)
        return half

    def integers(z: np.ndarray, hypotheses: Sequence, h: np.ndarray) -> tuple[np.ndarray, int]:
        nums, scale = common_denominator([half] + [in_sample_value(b) for _, b in hypotheses])
        inside = _in_keys(z, [key for key, _ in hypotheses], h)
        return np.where(inside, np.array(nums[1:], dtype=np.int64).take(h), nums[0]), scale

    def true_risk_fn(h, dist: Dist):
        key, b = h
        step = in_sample_value(b) - half
        if dist.is_exact:
            total = half
            for z in set(key):
                total = total + dist.weight(z) * step
            return total
        # float mode: 0.5 plus one float term per symbol, in set order
        index = dist.alphabet.index
        terms = dist.weights.take([index[z] for z in set(key)]) * float(step)
        return float(np.add.accumulate(np.concatenate(([0.5], terms)))[-1])

    return ParametricLoss(name=name, fn=with_integers(fn, integers), true_risk_fn=true_risk_fn)


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
    if j.is_exact:
        masses = (cells.row_mass[:, None] * indicator.astype(object)).sum(axis=0)
        risks = [Fraction(mass, cells.den) for mass in masses]
    else:
        # summed over z in order, not pairwise
        risks = np.add.accumulate(cells.row_mass[:, None] * indicator, axis=0)[-1]
    hrisk = dict(zip(hsyms.symbols, risks))
    params = {"boundary_cells": int(boundary)}
    return _integer_table_loss("worst_case", zsyms, hsyms, indicator, 1, params, lambda h, dist: hrisk[h])


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
        best = Fraction(best, j.cells.scale)
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
    risks = {h: true_risk(loss, h, dist) for h in hyp.symbols}
    best_h = min(hyp.symbols, key=lambda h: risks[h])
    floor = risks[best_h]
    ph = j.weights.sum(axis=0)
    acc: dict = {}
    for hi, h in enumerate(hyp.symbols):
        if ph[hi] != 0:
            excess = risks[h] - floor
            acc[excess] = acc.get(excess, 0) + ph[hi]
    points = _merged_points(acc, j.is_exact)
    info = variational_info(j)
    curve = []
    ok = True
    for t in t_grid:
        at = _threshold(points, t - (0 if j.is_exact else VALUE_ATOL))
        tail = sum(p for v, p in points if v >= at)
        bound = erm_markov_bound(info, t)
        good = tail <= bound + tol
        ok = ok and good
        curve.append((t, tail, bound, good))
    return ErmConsistency(scenario.name, best_h, info, points, tuple(curve), ok)
