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
denominators; in float mode it holds float64 with scale 1.  A loss builds
each table once and keeps it.  gen(L) is then the integer (or float) sum
of d * table over the joint's cell table d / scale (dist.Joint.cells),
divided once, and the deviation-law cache is keyed by the loss's table.

The deviation law and the deviation-sign side channel read G through one
DeviationTable.  The deviation of h on a sample is identified by e, the
sum of the exact integer table entries of h over the sample, and is
g = e / (m * scale) - R_true(h), taken once per (h index, e) as a
Fraction less the true risk; in float mode that is e / (m * scale)
correctly rounded, less the float risk.  The deviation law adds the
masses into one Sums slot per distinct g, in both modes.  The true risk
of h reads its table column: in exact mode it is one integer dot product
with the distribution's weights over their common denominator, in float
mode the sum of w * (column / scale) in symbol order.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
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


def loss_table(loss: ParametricLoss, domain: Alphabet, hypotheses: Alphabet, exact: bool) -> tuple[np.ndarray, int]:
    """The loss over domain x hypotheses as (table, scale), L = table / scale.

    Exact mode: Python ints over the lcm of the values' denominators.
    Float mode: float64 and scale 1.  Built once per loss and alphabets.
    """
    key = (domain, hypotheses, exact)
    if key not in loss._tables:
        fn = loss.fn
        values = [fn(z, h) for z in domain.symbols for h in hypotheses.symbols]
        shape = (len(domain), len(hypotheses))
        if exact:
            nums, scale = common_denominator(values)
            loss._tables[key] = (np.array(nums, dtype=object).reshape(shape), scale)
        else:
            loss._tables[key] = (np.array([float(v) for v in values]).reshape(shape), 1)
    return loss._tables[key]


def int_loss_table(loss: ParametricLoss, domain: Alphabet, hypotheses: Alphabet, m: int) -> np.ndarray:
    """The exact table of loss_table as int64 when sums of m entries stay
    small, else as it is (Python ints); built once per loss, alphabets and m."""
    key = (domain, hypotheses, "sums of", m)
    if key not in loss._tables:
        table, _ = loss_table(loss, domain, hypotheses, True)
        top = max((abs(x) for x in table.ravel().tolist()), default=0)
        loss._tables[key] = table.astype(np.int64) if top * m < 2**31 else table
    return loss._tables[key]


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
    total = 0.0
    if column is None:
        fn = loss.fn
        for z, w in zip(dist.alphabet.symbols, dist.weights.tolist()):
            if w:
                total += w * float(fn(z, h))
    else:
        for c, w in zip(column, dist.weights.tolist()):
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
        return sum(p for v, p in self.points if abs(v) >= t - tol)

    def tail_abs_gt(self, t, tol=0):
        """P{|G| > t} (strict)."""
        return sum(p for v, p in self.points if abs(v) > t + tol)

    def mass_abs_near(self, t, window):
        """P{ | |G| - t | <= window }."""
        return sum(p for v, p in self.points if abs(abs(v) - t) <= window)


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
    """The deviation G = R_emp(h) - R_true(h) of a loss on a scenario, keyed
    by (h index, e) with e the sum of the loss's exact integer table entries
    of h over the sample.

    key is (loss name, scale, the exact table): it identifies every law
    read from the table.  Each true risk is computed once from its table
    column and each g once per (h index, e).
    """

    def __init__(self, scenario: Scenario, loss: ParametricLoss):
        dist, m = scenario.data_dist, scenario.m
        self.loss, self.dist = loss, dist
        self.hypotheses = hyp = scenario.learner.hypotheses(m)
        table, self.scale = loss_table(loss, dist.alphabet, hyp, True)
        self.key = (loss.name, self.scale, tuple(table.ravel().tolist()))
        self.sums_table = int_loss_table(loss, dist.alphabet, hyp, m)
        self._columns = table.T.tolist()
        self._ms = m * self.scale
        self._risks: dict = {}
        self._g: dict = {}

    def __call__(self, hi: int, e: int):
        """g = e / (m * scale) - R_true(h): a Fraction less the true risk,
        which in float mode is the correctly rounded e / (m * scale) less it."""
        g = self._g.get((hi, e))
        if g is None:
            if hi not in self._risks:
                h = self.hypotheses.symbols[hi]
                self._risks[hi] = true_risk(self.loss, h, self.dist, self._columns[hi], self.scale)
            g = self._g[hi, e] = Fraction(e, self._ms) - self._risks[hi]
        return g

    def entry_sum(self, sample: tuple, hi: int) -> int:
        """e of hypothesis index hi on one sample."""
        index, column = self.dist.alphabet.index, self._columns[hi]
        return sum(column[index[z]] for z in sample)

    def entry_pairs(self, block: Block, out: Sparse) -> tuple[list, np.ndarray]:
        """The distinct pairs (h index, e) of the kernel entries, sorted, and
        each entry's position among them.  Kept on the block for its kernel
        output, so every reader of one table shares them."""
        table = self.sums_table

        def build():
            at = block.idx.take(out.row, axis=0) * table.shape[1]
            at += out.col[:, None]
            e = table.ravel().take(at).sum(axis=1)
            lo = int(e.min())
            span = int(e.max()) - lo + 1
            # the code h * span + e - lo orders entries as the pairs (h, e) do
            codes, slot = np.unique(out.col * span + (e - lo), return_inverse=True)
            return list(zip((codes // span).tolist(), (codes % span + lo).tolist())), slot

        return block.memo(("pairs", id(table)), out, build)


def deviation_request(scenario: Scenario, loss: ParametricLoss) -> WalkRequest:
    """The deviation law as a walk request, cached under its table's key.

    Each distinct deviation gets a slot in first-visit order, and the
    masses P(S) K(h|S) of its (h, e) pairs add into it in visit order."""
    dev = DeviationTable(scenario, loss)
    exact = scenario.data_dist.is_exact

    def start():
        slot_of: dict = {}  # (h index, e) -> slot of its deviation
        slots: dict = {}  # deviation -> slot
        sums = Sums(0, exact)

        def add(block: Block, out: Sparse):
            pairs, inv = dev.entry_pairs(block, out)
            at = []
            for p in pairs:
                if p not in slot_of:
                    slot_of[p] = slots.setdefault(dev(*p), len(slots))
                at.append(slot_of[p])
            sums.grow(len(slots))
            mass = block.weights.take(out.row) * out.prob
            sums.add(np.array(at, dtype=np.intp)[inv], mass, block.den * out.den)

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


def constant_loss(value=1) -> ParametricLoss:
    def fn(z, h):
        return value

    return ParametricLoss(
        name=f"constant[{value}]",
        fn=fn,
        params={"value": value},
        true_risk_fn=lambda h, dist: value,
    )


def zero_one_loss() -> ParametricLoss:
    """Disagreement between the observation and the hypothesis symbol."""
    return ParametricLoss(name="zero_one", fn=lambda z, h: 0 if z == h else 1)


def membership_loss() -> ParametricLoss:
    """1 when the observation appears in a tuple-valued hypothesis."""
    return ParametricLoss(name="membership", fn=lambda z, h: 1 if z in h else 0)


def table_loss(name: str, domain: Alphabet, hypotheses: Alphabet, values: np.ndarray) -> ParametricLoss:
    rows, hi = dict(zip(domain.symbols, values)), hypotheses.index

    def fn(z, h):
        return rows[z][hi[h]]

    return ParametricLoss(name=name, fn=fn, params={"shape": (len(domain), len(hypotheses))})


def random_table_loss(domain: Alphabet, hypotheses: Alphabet, seed: int, levels: int = 16) -> ParametricLoss:
    """Seeded random loss table with values on the grid {0, 1/levels, ..., 1}.

    Grid values stay exact in exact mode.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    raw = rng.integers(0, levels + 1, size=(len(domain), len(hypotheses)))
    values = [[Fraction(int(v), levels) for v in row] for row in raw]
    loss = table_loss(f"random_table[{seed}]", domain, hypotheses, values)
    return ParametricLoss(name=loss.name, fn=loss.fn, params={"seed": seed, "levels": levels})


@lru_cache(maxsize=65536)
def _as_set(key: tuple) -> frozenset:
    return frozenset(key)


def _prop1_loss(name: str, in_sample_value) -> ParametricLoss:
    """Shared shape of the memorizer losses: off-sample points cost 1/2.

    fn has a batch form over integer observations (a positional domain):
    membership of each z in its hypothesis's key, tested for all entries
    at once.
    """
    half = Fraction(1, 2)

    def fn(z, h):
        key, b = h
        if z in _as_set(key):
            return in_sample_value(b)
        return half

    def batch(z: np.ndarray, hypotheses: Sequence, h: np.ndarray) -> np.ndarray:
        if z.dtype.kind not in "iu":
            pairs = zip(z.ravel().tolist(), h.ravel().tolist())
            return np.array([float(fn(a, hypotheses[i])) for a, i in pairs]).reshape(z.shape)
        keys = [key for key, _ in hypotheses]
        owner = np.repeat(np.arange(len(keys)), [len(key) for key in keys])
        members = np.fromiter(itertools.chain.from_iterable(keys), np.int64, len(owner))
        # (hypothesis, member) and (hypothesis, z) pairs as one integer each,
        # looked up among the sorted member pairs
        span = max(int(members.max(initial=0)), int(z.max(initial=0))) + 1
        pairs, wanted = np.sort(owner * span + members), h * span + z
        inside = pairs.take(np.searchsorted(pairs, wanted), mode="clip") == wanted
        in_values = np.array([float(in_sample_value(b)) for _, b in hypotheses])
        return np.where(inside, in_values[h], 0.5)

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

    return ParametricLoss(name=name, fn=with_batch(fn, batch), true_risk_fn=true_risk_fn)


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
    base = table_loss("worst_case", zsyms, hsyms, indicator.tolist())
    if j.is_exact:
        table = indicator.astype(object)
        masses = (cells.row_mass[:, None] * table).sum(axis=0)
        risks = [Fraction(mass, cells.den) for mass in masses]
    else:
        table = indicator.astype(np.float64)
        # summed over z in order, not pairwise
        risks = np.add.accumulate(cells.row_mass[:, None] * indicator, axis=0)[-1]
    hrisk = dict(zip(hsyms.symbols, risks))
    loss = ParametricLoss(
        name="worst_case",
        fn=base.fn,
        params={"boundary_cells": int(boundary)},
        true_risk_fn=lambda h, dist: hrisk[h],
    )
    loss._tables[(zsyms, hsyms, j.is_exact)] = (table, 1)
    return loss


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
        total = 0
        for b, v in zip(bits, d):
            if b:
                total = total + v
        total = abs(total)
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
        tail = sum(p for v, p in points if v >= t - (0 if j.is_exact else VALUE_ATOL))
        bound = erm_markov_bound(info, t)
        good = tail <= bound + tol
        ok = ok and good
        curve.append((t, tail, bound, good))
    return ErmConsistency(
        scenario_name=scenario.name,
        best_hypothesis=best_h,
        info=info,
        excess_points=points,
        curve=tuple(curve),
        holds=ok,
    )
