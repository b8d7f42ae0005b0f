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

true_risk is the one formula for R_true(h) = sum_z P(z) L(z, h): columns
of loss values over the symbols of positive weight, from loss_table for a
hypothesis Alphabet and from loss_values in chunks of about 2^20 cells for
a sequence.  Exact mode takes one integer dot product of the weights'
numerators and each column over den * scale; float mode adds w * L(z, h)
in symbol order, so a risk has the same bits however its values were
read.  A loss's true_risk_fn stands in for the columns in float mode and
for a sequence of hypotheses (a Monte Carlo batch over a huge domain);
exact risks over a hypothesis Alphabet always come from the table.

The deviation law and the deviation-sign side channel read G through one
DeviationTable per scenario and loss (deviation_table).  The deviation of
h on a sample is identified by e, the sum of the exact integer table
entries of h over the sample, and is g = e / (m * scale) - R_true(h); the
table is kept for these sums in int64 while m * max |entry| fits.  A
block's kernel entries get their g in one pass, kept on the block for both
readers: in float mode e / (m * scale) correctly rounded, less the float
risk, in float64; in exact mode as an integer code over one denominator
m * scale * D.  The deviation law adds the masses into one Sums slot per
distinct g, in both modes, and keeps the sorted values (codes in exact
mode) with their masses; every tail read is one array comparison and one
sum (DeviationLaw), and the sign side channel compares codes with the
threshold's code.  The true risks of all the hypotheses come from one
true_risk(..., many=True) call, made when the table is first read; the
ERM check reads its excess law's risks from the table too.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
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
from .numeric import as_ints, int_dtype, int_quotients

#: grouping width for float-mode deviation values
VALUE_ATOL = 1e-12
#: default excess-risk grid of the ERM consistency check
ERM_T_GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5)


@dataclass(frozen=True, eq=False)
class ParametricLoss:
    """Loss function with optional closed-form true risk.

    fn(z, h) must return a value in [0, 1]; returning ints or Fractions
    keeps exact-mode arithmetic exact.  true_risk_fn(h, dist), when given,
    replaces the sum over the domain in float mode and for a sequence of
    hypotheses (needed when the domain is huge); exact risks over a
    hypothesis Alphabet are read from the loss table (true_risk).
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
    gives), in the dtype of nums.  Float: nums / scale, each rounded once, as
    float(Fraction) does (int_quotients)."""
    if exact:
        g = math.gcd(scale, int(np.gcd.reduce(nums, axis=None)))
        return (nums // g if g > 1 else nums), scale // g
    return int_quotients(nums, scale, _top(nums)), 1


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
    """The largest |entry| of an integer array, in one array step."""
    return int(abs(table).max(initial=0))


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
    float one.  From the loss values over the symbols of positive weight,
    summed as the module docstring says, or from true_risk_fn (its batch
    form for many hypotheses of a float distribution) when the loss has
    one, except for exact risks over a hypothesis Alphabet.

    many: h holds hypotheses, and their risks come back as one array,
    float64 for a float distribution, else of objects.  A hypothesis
    Alphabet reads its columns from loss_table, any other sequence from
    loss_values in chunks of about 2^20 cells."""
    exact = dist.is_exact
    hs = h if many else (h,)
    symbols = hs.symbols if isinstance(hs, Alphabet) else hs
    if loss.true_risk_fn is not None and not (exact and isinstance(hs, Alphabet)):
        batch = batch_form(loss.true_risk_fn)
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
    float infinity is returned as it is and a nan as +inf, so that c >= k
    holds as c / den >= x (> x) would: a nan counts no c."""
    if isinstance(x, float) and not math.isfinite(x):
        return math.inf if math.isnan(x) else x
    q = Fraction(x)
    a, b = int(q.numerator), int(q.denominator)
    return a * den // b + 1 if strict else -(-a * den // b)


class DeviationLaw:
    """Law of G = R_emp(H) - R_true(H): values sorted ascending, each with
    its mass, in one array form.

    Exact: values are distinct integer codes over den and masses positive
    integers over mass_den, int64 or Python ints.  Float: both are float64
    arrays, and den and mass_den are None.  points, the (value, prob) pairs
    (Fractions in exact mode), are built on first read.  A tail read makes
    one comparison of the cached |values| with its threshold, in exact mode
    one integer code (_code_at, a ceiling for >= and a floor for >; a nan
    counts no point), and one sum of the masses selected: in exact mode an
    integer sum, returned as a Fraction, or the int 0 when none is
    selected; in float mode added one by one in point order from the int 0,
    as sum() over the points adds up to Python 3.11.  mass_abs_near with a
    float t or window compares each |value| as Python does, since exact and
    float compares differ there.
    """

    def __init__(self, points: tuple, scenario_name: str, loss_name: str):
        """The law of (value, prob) pairs sorted by value, converted once and
        not merged: exact when every value and prob is an int or Fraction."""
        self.points = points = tuple(points)
        values, probs = [v for v, _ in points], [p for _, p in points]
        if all(isinstance(x, (int, Fraction)) for x in values + probs):
            (values, den), (probs, mass_den) = common_denominator(values), common_denominator(probs)
        else:
            den = mass_den = None
        dtype = float if den is None else object
        self._set(np.array(values, dtype=dtype), np.array(probs, dtype=dtype), den, mass_den, scenario_name, loss_name)

    def _set(self, values, masses, den, mass_den, scenario_name: str, loss_name: str) -> None:
        self.values, self.masses, self.den, self.mass_den, self._sizes = values, masses, den, mass_den, abs(values)
        self.scenario_name, self.loss_name = scenario_name, loss_name

    @classmethod
    def of_arrays(cls, values, masses, den, mass_den, scenario_name: str, loss_name: str) -> "DeviationLaw":
        """The law with values values / den and probs masses / mass_den, the
        masses of equal values added in entry order.  Exact: integer arrays
        over the ints den and mass_den.  Float: float64 arrays with den and
        mass_den None; each run of values within VALUE_ATOL of its first
        merges into it, its masses added in value order."""
        values, at = np.unique(values, return_inverse=True)
        summed = np.zeros(len(values), masses.dtype)
        np.add.at(summed, at, masses)
        if den is None and (np.diff(values) <= VALUE_ATOL).any():
            starts = itertools.accumulate(values.tolist(), lambda a, v: a if v - a <= VALUE_ATOL else v)
            first = np.fromiter(starts, np.float64, len(values)) == values  # each run's first value
            merged = np.zeros(np.count_nonzero(first))
            np.add.at(merged, np.cumsum(first) - 1, summed)
            values, summed = values[first], merged
        law = cls.__new__(cls)
        law._set(values, summed, den, mass_den, scenario_name, loss_name)
        return law

    def _fields(self) -> tuple:
        return self.points, self.scenario_name, self.loss_name

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return "DeviationLaw(points={!r}, scenario_name={!r}, loss_name={!r})".format(*self._fields())

    @cached_property
    def points(self) -> tuple:
        pairs = zip(self.values.tolist(), self.masses.tolist())
        if self.den is None:
            return tuple(pairs)
        return tuple((Fraction(c, self.den), Fraction(p, self.mass_den)) for c, p in pairs)

    def _beyond(self, x, strict: bool = False) -> np.ndarray:
        """Which |values| are >= x (> x when strict)."""
        if self.den is not None:
            x, strict = _code_at(x, self.den, strict), False
        return self._sizes > x if strict else self._sizes >= x

    def _mass(self, chosen: np.ndarray):
        """The mass of the chosen points, as the class docstring says."""
        masses = self.masses[chosen].tolist()
        if self.den is None:  # not sum(), which compensates float rounding from Python 3.12
            return reduce(operator.add, masses, 0)
        return Fraction(sum(masses), self.mass_den) if masses else 0

    def expectation(self):
        return sum(v * p for v, p in self.points)

    def tail_abs_ge(self, t, tol=0):
        """P{|G| >= t}, with a symmetric tolerance for float-mode values."""
        return self._mass(self._beyond(t - tol))

    def tail_abs_gt(self, t, tol=0):
        """P{|G| > t} (strict)."""
        return self._mass(self._beyond(t + tol, strict=True))

    def mass_abs_near(self, t, window):
        """P{ | |G| - t | <= window }."""
        if self.den is None:
            return self._mass(abs(self._sizes - t) <= window)
        if isinstance(t, float) or isinstance(window, float):
            return self._mass(np.array([abs(abs(v) - t) <= window for v, _ in self.points], dtype=bool))
        return self._mass(self._beyond(t - window) & ~self._beyond(t + window, strict=True))


class DeviationTable:
    """The deviation G = R_emp(h) - R_true(h) of a loss on a scenario, read
    from e, the sum of the loss's exact integer table entries of h over the
    sample.

    key is (loss name, scale, the exact table): it identifies every law
    read from the table.  An int64 table enters it as its dtype, shape and
    bytes, a table of Python ints as a tuple.  The true risks are computed
    once, when the table is first read.
    """

    def __init__(self, scenario: Scenario, loss: ParametricLoss):
        dist, m = scenario.data_dist, scenario.m
        self.loss, self.dist, self.exact = loss, dist, dist.is_exact
        self.hypotheses = hyp = scenario.learner.hypotheses(m)
        table, self.scale = loss_table(loss, dist.alphabet, hyp, True)
        data = tuple(table.ravel().tolist()) if table.dtype == object else (table.dtype.str, table.shape, table.tobytes())
        self.key = (loss.name, self.scale, data)
        # |e| <= m * max |entry| for a sum e of m table entries
        self._e_top = _top(table) * m
        self.sums_table = table.astype(int_dtype(self._e_top), copy=False)
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
        return as_ints(nums, top), den, max(self._e_top * den + self._ms * top, self._ms, den)

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

        Float mode: g = e / (m * scale) - r[h] in float64, the quotient
        rounded once, as float(Fraction) does (int_quotients).  Exact mode:
        with the risks R_num / D over one denominator, g is given by its
        integer code e * D - m * scale * R_num[h] over code_den, computed in
        int64 while its bound fits and returned as Python ints.

        When the (h, e) slots h * span + e - lo, with e in [lo, lo + span),
        are no more than the entries, g is computed once per pair present
        (one np.bincount marks them) and only the distinct values are
        sorted; else np.unique sorts the entries' g."""
        ms, (nums, den, bound) = self._ms, self._risks
        lo, span = -self._e_top, 2 * self._e_top + 1
        dense = len(nums) * span <= len(e)
        if dense:
            slot = h * span + (e - lo)
            present = np.bincount(slot)
            pairs = np.flatnonzero(present)
            h, e = pairs // span, pairs % span + lo
        r = nums.take(h)
        if self.exact:
            dtype = int_dtype(bound)
            g = e.astype(dtype, copy=False) * den - ms * r.astype(dtype, copy=False)
        else:
            g = int_quotients(e, ms, self._e_top) - r
        g, at = np.unique(g, return_inverse=True)
        if dense:  # each present slot's position, read back by every entry
            present[pairs] = at
            at = present.take(slot)
        return g.tolist(), at

    def entry_deviations(self, block: Block, out: Sparse) -> tuple[list, np.ndarray]:
        """The deviations of the kernel entries, each with its e summed
        over its sample.  Kept on the block for its kernel output, so every
        reader of the table shares one pass."""

        def build():
            flat, width = self.sums_table.ravel(), self.sums_table.shape[1]
            # one gather per sample position: numpy sums (E, m) rows slowly
            e = sum(flat.take(col.take(out.row) * width + out.col) for col in block.idx.T)
            return self.deviations(out.col, e)

        return block.memo(self, out, build)


def deviation_table(scenario: Scenario, loss: ParametricLoss) -> DeviationTable:
    """The scenario's one DeviationTable of loss, kept in its cache under the
    loss object (held by the key, so its id is not reused)."""
    return scenario.cached(("deviation_table", loss), lambda: DeviationTable(scenario, loss))


def deviation_request(scenario: Scenario, loss: ParametricLoss) -> WalkRequest:
    """The deviation law as a walk request, cached under its table's key.

    Each distinct deviation gets a slot when a block first has it, and the
    masses P(S) K(h|S) of its kernel entries add into it in visit order.
    The law is built from the slots' values and sums (DeviationLaw.of_arrays,
    which merges float values within VALUE_ATOL)."""
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
            values = as_ints(list(slots), dev.code_bound) if exact else np.array(list(slots), dtype=np.float64)
            dens = (dev.code_den, den) if exact else (None, None)
            return DeviationLaw.of_arrays(values, total, *dens, scenario.name, loss.name)

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


def _integer_table_loss(name, domain, hypotheses, nums: np.ndarray, scale: int, params) -> ParametricLoss:
    """The loss nums / scale over domain x hypotheses, for an integer array
    nums: fn looks a cell up as a Fraction, and both tables come seeded
    (_integer_table) as loss_table would build them from fn."""
    rows, hi = dict(zip(domain.symbols, nums.tolist())), hypotheses.index
    loss = ParametricLoss(name, lambda z, h: Fraction(rows[z][hi[h]], scale), params)
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
    return _integer_table_loss(f"random_table[{seed}]", domain, hypotheses, raw, levels, params)


def _prop1_loss(name: str, in_sample_value) -> ParametricLoss:
    """Shared shape of the memorizer losses: off-sample points cost 1/2.

    fn's array form tests each z for membership in its hypothesis's key
    (_in_keys), with the in-sample values over a common denominator with 1/2.
    true_risk_fn, the closed form true_risk takes for a sequence of
    hypotheses, is 1/2 plus P(z) * (in_sample_value(b) - 1/2) per z in
    set(key); in float mode, 0.5 plus one float term w(z) * step(b) per z,
    added in set order, with step(b) the float of in_sample_value(b) - 1/2.
    Its batch form (learners.with_batch) gives that for many hypotheses.
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

    return ParametricLoss(name=name, fn=with_batch(fn, integers), true_risk_fn=with_batch(true_risk_fn, float_risks))


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
    Its true risks come from its seeded table, as for any table loss.
    """
    j = tj.joint
    d = j.cells.d
    boundary = np.count_nonzero(d == 0) if j.is_exact else np.count_nonzero(abs(d) <= tol)
    params = {"boundary_cells": int(boundary)}
    return _integer_table_loss("worst_case", *j.axes, np.where(d >= 0, 1, 0), 1, params)


def kept_worst_case_loss(scenario: Scenario, tj: TrnHypJoint) -> ParametricLoss:
    """worst_case_loss(tj), built once and kept in the scenario's cache under
    the joint, so the audits that read it share its tables."""
    return scenario.cached(("worst_case_loss", tj.joint), lambda: worst_case_loss(tj))


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
    """Check P{R_true(H) - min_h R_true(h) >= t} <= vi / t on a grid.

    The true risks are the scenario's deviation table's (deviation_table),
    the best hypothesis is the first of least risk, and the excess law is
    built from arrays: each hypothesis's excess risk, as a code over the
    risks' den in exact mode, with its hypothesis-marginal numerator (its
    float weight in float mode) as its mass."""
    j = exact_trn_hyp_joint(scenario, budget=budget).joint
    risks, den, top = deviation_table(scenario, loss)._risks
    best = int(np.argmin(risks))
    if j.is_exact:  # an excess is at most 2 * max |risk numerator| <= top
        (w, mass_den), excess = j.numerators, risks.astype(int_dtype(top), copy=False) - risks[best]
    else:
        w, den, mass_den, excess = j.weights, None, None, risks - risks[best]
    ph = w.sum(axis=0)
    keep = ph != 0  # excess >= 0: its tails are |.| tails
    excess_law = DeviationLaw.of_arrays(excess[keep], ph[keep], den, mass_den, scenario.name, loss.name)
    info = variational_info(j)
    curve = []
    for t in t_grid:
        tail = excess_law.tail_abs_ge(t, tol=0 if j.is_exact else VALUE_ATOL)
        bound = erm_markov_bound(info, t)
        curve.append((t, tail, bound, bool(tail <= bound + tol)))
    holds = all(good for *_, good in curve)
    return ErmConsistency(scenario.name, j.axes[1].symbols[best], info, excess_law.points, tuple(curve), holds)
