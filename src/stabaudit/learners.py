"""Learning algorithms as stochastic kernels, and exact enumeration.

A learner is a kernel K(h | S) from m-tuples over a finite observation
alphabet to a finite hypothesis alphabet.  With S ~ P^m and Z_trn a
uniformly chosen coordinate of S, the training joint is

    P(z, h) = sum_S P(S) K(h | S) #{i : S_i = z} / m.

Every built-in kernel is permutation symmetric, so enumeration runs over
sorted multisets weighted by multinomial coefficients instead of all n^m
ordered tuples; the two give identical joints, and the enumeration budget
counts kernel evaluations (one per multiset).  Kernels return sparse
mappings {hypothesis: weight}; hypothesis alphabets are m-dependent
callables so huge spaces are never materialized unless enumeration needs
them.

All enumeration goes through one walker, walk(): it takes WalkRequests
(the joint, the three-way joint, the deviation law, I(S;H)), checks each
against the budget, visits every sample once with one kernel call, and
feeds every accumulator that is not cached yet.  The public functions
below are walks with a single request.  I(S;H) needs the finished
hypothesis marginal before its log-sum, so it visits the samples a second
time.  A walk that makes one block keeps that block and the kernel's
output on it in the scenario's cache (clear_cache() drops them), and every
later visit of the scenario replays them: no walk, no kernel call, and the
block's memos shared.  Longer walks keep nothing and walk again.

The walk runs in blocks of up to BLOCK_SIZE samples, in
combinations_with_replacement order (itertools.product order for
kernels that are not symmetric).  A Block holds the samples' symbol
indices, their (symbol, count) groups and their weights: float64, or in
exact mode integer numerators over a common denominator.  Float weights
are computed in the scalar order: the multinomial as a float, then
times w[i] ** c per group, from a table of w[i] ** c taken with Python's
**.  A kernel's output on a block is a Sparse array of (row, hypothesis
index, probability) entries, in walk order and, within a sample, in the
kernel's dict order, zeros dropped.

A kernel may carry a batch form, attached with with_batch, that computes
that array for a whole block; subsample_release has one, and so does the
deviation-sign side channel.  A kernel's batch form may assume rows in
index order and is used only in a symmetric walk; a side channel's runs
in every walk and must not.  Either is used only while its function is
the very one it was attached to: a learner whose kernel was replaced (a
wrapper, dataclasses.replace) loses it.  Every other
kernel and side function runs through one adapter that calls it once per
sample, in walk order.  The blocks come from a vectorised enumerator;
when the module-level iter_weighted_samples has been replaced (to count
or trace a walk), the walk reads its rows from that function instead.

Each accumulator takes one call per block.  Float sums add entries with
np.add.at, in entry order, so every cell sums its terms in visit order
exactly as a per-sample loop would.  Exact mode keeps integer numerators
per denominator, and finish() hands their sum over the lcm to
Joint.of_integers, which builds no Fraction until the weights are read.
Exact weights, kernel probabilities, entry masses and sums are int64
while a bound from their denominators (numeric.int_dtype) shows that no
value or partial sum passes 2^63, else Python ints; the multinomials come
from one factorial table, int64 while m! fits.
What two accumulators read alike on a block (the cell masses, the
deviation table's per-entry deviations) is computed once and kept on the
block.
"""

from __future__ import annotations

import itertools
import math
import os
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .dist import Alphabet, Dist, DomainMismatchError, Joint, common_denominator
from .numeric import FLOAT64, NumericMode, as_ints, coerce_number, int_dtype, int_quotients

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "STABAUDIT_BUDGET"
#: samples per block of a walk
BLOCK_SIZE = 10_000


class EnumerationBudgetError(RuntimeError):
    """Exact enumeration would exceed the kernel-evaluation budget."""

    def __init__(self, needed: int, budget: int, what: str):
        super().__init__(f"{what} needs {needed} kernel evaluations, budget is {budget}")
        self.needed = needed
        self.budget = budget


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    return int(raw) if raw else DEFAULT_BUDGET


@dataclass(frozen=True, eq=False)
class LearnerKernel:
    """Stochastic map from samples to hypotheses.

    kernel(sample) returns a sparse mapping {hypothesis: weight} summing
    to 1; hypotheses(m) names the full alphabet for sample size m.  Set
    symmetric=False for kernels that depend on sample order.
    """

    name: str
    domain: Alphabet
    kernel: Callable[[tuple], Mapping[Any, Any]]
    hypotheses: Callable[[int], Alphabet]
    params: Mapping[str, Any] = field(default_factory=dict)
    symmetric: bool = True


@dataclass(frozen=True, eq=False)
class Scenario:
    """A learner bound to a data distribution and sample size."""

    name: str
    learner: LearnerKernel
    data_dist: Dist
    m: int
    loss: Any = None  # ParametricLoss, kept loose to avoid an import cycle
    seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"sample size m must be >= 1, got {self.m}")
        domain = self.learner.domain
        if self.data_dist.alphabet is not domain and self.data_dist.alphabet != domain:
            raise DomainMismatchError(
                f"data distribution is over {self.data_dist.alphabet.name!r}, "
                f"learner expects {domain.name!r}"
            )

    def cached(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def clear_cache(self) -> None:
        """Drop every cached result, for a caller that keeps the scenario
        but reads its joints and laws no more."""
        self._cache.clear()


@dataclass(frozen=True, eq=False)
class TrnHypJoint:
    """Exactly enumerated joint over (training example, hypothesis)."""

    joint: Joint
    method: str
    kernel_evals: int


def collision_budget(scenario: Scenario) -> Fraction:
    """m^2 / n, the exactness correction for sample self-collisions."""
    return Fraction(scenario.m * scenario.m, len(scenario.learner.domain))


def enumeration_size(n: int, m: int, symmetric: bool) -> int:
    return math.comb(n + m - 1, m) if symmetric else n**m


# ---------------------------------------------------------------------------
# blocks of the walk


@dataclass(eq=False)
class Block:
    """Consecutive samples of a walk, in walk order.

    idx (B, m) holds each sample's symbol indices; sym and cnt (B, m) its
    (symbol index, count) groups in index order, with groups of count 0
    between them (see _groups).
    weights are float64, or exact integer numerators over den (int64 or
    Python ints, see numeric.int_dtype).
    """

    idx: np.ndarray
    sym: np.ndarray
    cnt: np.ndarray
    weights: np.ndarray
    den: int
    symbols: tuple
    _samples: list | None = None
    _memo: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.weights)

    def memo(self, key, out: "Sparse", build: Callable):
        """build(), kept under key for this block and kernel output, so the
        accumulators of one walk share it."""
        hit = self._memo.get(key)
        if hit is None or hit[0] is not out:
            hit = self._memo[key] = (out, build())
        return hit[1]

    @property
    def exact(self) -> bool:
        return self.weights.dtype != np.float64

    @property
    def samples(self) -> list:
        """The samples as tuples of symbols, built on first use."""
        if self._samples is None:
            s = self.symbols
            self._samples = [tuple(s[i] for i in row) for row in self.idx.tolist()]
        return self._samples


@dataclass(frozen=True, eq=False)
class Sparse:
    """Sparse kernel output over a block: entry j puts prob[j] on output
    col[j] of owner row[j] (a sample of the block, or for a side channel an
    entry of the kernel's output).  prob is float64, or exact integer
    numerators over den (int64 or Python ints)."""

    row: np.ndarray
    col: np.ndarray
    prob: np.ndarray
    den: int = 1


def _sparse(rows: list, cols: list, probs: list, exact: bool) -> Sparse:
    row, col = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    if not exact:
        return Sparse(row, col, np.fromiter(map(float, probs), np.float64, len(probs)))
    nums, den = common_denominator(probs)
    return Sparse(row, col, as_ints(nums, den), den)


def per_row(fn: Callable, args: Sequence[tuple], index: Mapping, exact: bool) -> Sparse:
    """The generic adapter: fn(*a) for each a in args, in order, with its
    nonzero outputs as entries owned by a's position."""
    rows, cols, probs = [], [], []
    for r, a in enumerate(args):
        for key, p in fn(*a).items():
            if p:
                rows.append(r)
                cols.append(index[key])
                probs.append(p)
    return _sparse(rows, cols, probs, exact)


def with_batch(fn: Callable, batch: Callable) -> Callable:
    """Attach batch, the batch form of fn (a kernel's or side channel's
    block form, a loss's array form), to fn.  batch refers back to fn
    weakly, so the pair is freed without a garbage collection."""
    batch.form_of = weakref.ref(fn)
    fn.batch = batch
    return fn


def batch_form(fn: Callable) -> Callable | None:
    """fn's batch form, or None when fn is not the function it was attached
    to (a wrapper that copied the attribute included)."""
    batch = getattr(fn, "batch", None)
    form_of = getattr(batch, "form_of", None)
    return batch if form_of is not None and form_of() is fn else None


def _groups(idx: np.ndarray, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """(symbol, count) groups of each row in index order, as (sym, cnt) of
    the rows' shape: sym is the sorted row, and cnt holds each run's length
    at its first entry and 0 elsewhere."""
    srt = idx if symmetric else np.sort(idx, axis=1)
    start = np.empty(srt.shape, dtype=bool)
    start[:, 0] = True
    np.not_equal(srt[:, 1:], srt[:, :-1], out=start[:, 1:])
    first = np.flatnonzero(start)
    cnt = np.zeros(srt.size, dtype=np.intp)
    cnt[first] = np.concatenate((first[1:], [srt.size])) - first
    return srt, cnt.reshape(srt.shape)


def _index_rows(n: int, m: int, symmetric: bool) -> Iterator[np.ndarray]:
    """Symbol index rows of every sample, BLOCK_SIZE rows at a time."""
    combos = (
        itertools.combinations_with_replacement(range(n), m)
        if symmetric
        else itertools.product(range(n), repeat=m)
    )
    flat, step = itertools.chain.from_iterable(combos), BLOCK_SIZE * m
    while True:
        idx = np.fromiter(itertools.islice(flat, step), dtype=np.intp)
        if not idx.size:
            return
        yield idx.reshape(-1, m)


def _index_blocks(n: int, m: int, symmetric: bool) -> Iterator[tuple]:
    """(idx, sym, cnt, multinomial) per block of index rows; the
    multinomial is None for ordered samples."""
    # m! / prod c! is the multinomial; every product of the c! is at most m!
    fact = as_ints([math.factorial(c) for c in range(m + 1)], math.factorial(m))
    for idx in _index_rows(n, m, symmetric):
        sym, cnt = _groups(idx, symmetric)
        yield idx, sym, cnt, fact[m] // fact.take(cnt).prod(axis=1) if symmetric else None


def _weighted_blocks(data_dist: Dist, m: int, symmetric: bool) -> Iterator[Block]:
    """Blocks of every sample of positive probability, in walk order.

    Float weights: the multinomial as a float, then times w[i] ** c per
    group (symmetric), or the product of the entries' weights in sample
    order; the powers come from a table taken with Python's **.  Exact
    weights: the same products of the weights' integer numerators, over
    their common denominator to the m-th power, in int64 while every
    partial product fits: each is at most den (times m! for a multinomial).
    """
    exact = data_dist.is_exact
    if exact:
        base, d = data_dist.integer_weights
        den = d**m
        dtype = int_dtype(den * math.factorial(m) if symmetric else den)
    else:
        base, den, dtype = list(data_dist.weights), 1, np.float64
    n = len(base)
    if symmetric:  # powers[i * (m + 1) + c] = w[i] ** c
        powers = np.array([x**c for x in base for c in range(m + 1)], dtype=dtype)
    else:
        base = np.array(base, dtype=dtype)
    for idx, sym, cnt, mult in _index_blocks(n, m, symmetric):
        # multiply.reduce multiplies along a row from left to right
        if symmetric:
            factors = np.concatenate((mult.astype(dtype)[:, None], powers.take(sym * (m + 1) + cnt)), axis=1)
        else:
            factors = base.take(idx)
        w = np.multiply.reduce(factors, axis=1)
        keep = w != 0
        if not keep.all():
            idx, sym, cnt, w = idx[keep], sym[keep], cnt[keep], w[keep]
        if len(w):
            yield Block(idx, sym, cnt, w, den, data_dist.alphabet.symbols)


def iter_weighted_samples(
    data_dist: Dist, m: int, symmetric: bool = True
) -> Iterator[tuple[tuple, Any, tuple[tuple[int, int], ...]]]:
    """Yield (sample, weight, counts) over samples of positive probability.

    counts lists (symbol index, multiplicity) pairs.  In symmetric mode each
    sorted multiset appears once with its multinomial coefficient folded
    into the weight.
    """
    for block in _weighted_blocks(data_dist, m, symmetric):
        weights = [Fraction(w, block.den) for w in block.weights.tolist()] if block.exact else block.weights
        for sample, w, sym, cnt in zip(block.samples, weights, block.sym.tolist(), block.cnt.tolist()):
            yield sample, w, tuple((i, c) for i, c in zip(sym, cnt) if c)


def _blocks(data_dist: Dist, m: int, symmetric: bool, *, _own=iter_weighted_samples) -> Iterator[Block]:
    """The walk's blocks: vectorised, or read from a replaced iter_weighted_samples.

    _own is the function defined above, held as a default so that rebinding
    the module's names (as a tracer does) leaves it alone.
    """
    if iter_weighted_samples is _own:
        yield from _weighted_blocks(data_dist, m, symmetric)
        return
    index, symbols = data_dist.alphabet.index, data_dist.alphabet.symbols
    rows = iter_weighted_samples(data_dist, m, symmetric)
    while chunk := list(itertools.islice(rows, BLOCK_SIZE)):
        samples = [sample for sample, _, _ in chunk]
        idx = np.array([[index[z] for z in sample] for sample in samples], dtype=np.intp).reshape(len(chunk), m)
        if data_dist.is_exact:
            nums, den = common_denominator([w for _, w, _ in chunk])
            weights = as_ints(nums, den)
        else:
            weights, den = np.array([w for _, w, _ in chunk], dtype=np.float64), 1
        yield Block(idx, *_groups(idx, symmetric), weights, den, symbols, samples)


class Sums:
    """Sums into size slots in entry order, one array per denominator.

    np.add.at adds in entry order, so in float mode (one denominator, 1)
    each slot sums its terms in visit order.  In exact mode the arrays hold
    integer numerators, and total() brings them to their lcm.  The terms
    over each den add up to at most den * bound (m for the cells of a
    joint, whose terms are over den * m; 1 for masses), so a denominator's
    array is int64 while den * bound < 2^63.
    """

    def __init__(self, size: int, exact: bool, bound: int = 1):
        self.size, self.exact, self.bound, self.parts = size, exact, bound, {}

    def grow(self, size: int) -> None:
        """Widen every array to size slots; the new slots are zero."""
        if size > self.size:
            for den, part in self.parts.items():
                self.parts[den] = np.concatenate((part, np.zeros(size - self.size, part.dtype)))
            self.size = size

    def add(self, at: np.ndarray, terms: np.ndarray, den: int = 1) -> None:
        part = self.parts.get(den)
        if part is None:
            dtype = int_dtype(den * self.bound) if self.exact else np.float64
            part = self.parts[den] = np.zeros(self.size, dtype)
        np.add.at(part, at, terms.astype(part.dtype, copy=False))

    def total(self) -> tuple[np.ndarray, int]:
        """(sums, den): the summed numerators over den."""
        if not self.parts:
            return np.zeros(self.size, dtype=np.int64 if self.exact else np.float64), 1
        top = lcm(*self.parts)
        dtype = int_dtype(top * self.bound) if self.exact else np.float64
        return sum(part.astype(dtype, copy=False) * (top // den) for den, part in self.parts.items()), top


@dataclass(frozen=True)
class WalkRequest:
    """One result the walker builds and caches under key.

    start() returns a fresh accumulator (add, finish): add(block, out) runs
    once per block with the kernel's output on it, finish() returns the
    result.  what names the result in budget errors; factor is the number
    of walks the result costs.
    """

    key: Any
    what: str
    start: Callable[[], tuple[Callable, Callable]]
    factor: int = 1


def _visit(scenario: Scenario, adds: Sequence[Callable]) -> None:
    """Feed each block's kernel output to every add: from the kernel's batch
    form, which needs the rows of a symmetric walk (index order), else one
    call per sample.  A walk of one block is kept in the scenario's cache,
    and a later visit replays it without a walk or a kernel call."""
    kept = scenario._cache.get("one_block_walk")
    if kept is not None:
        for add in adds:
            add(*kept)
        return
    learner, m = scenario.learner, scenario.m
    batch = batch_form(learner.kernel) if learner.symmetric else None
    index = None if batch else learner.hypotheses(m).index
    count = 0
    for count, block in enumerate(_blocks(scenario.data_dist, m, learner.symmetric), 1):
        if batch:
            out = batch(block)
        else:
            out = per_row(learner.kernel, [(s,) for s in block.samples], index, block.exact)
        for add in adds:
            add(block, out)
    if count == 1:
        scenario._cache["one_block_walk"] = block, out


def walk(scenario: Scenario, requests: Sequence[WalkRequest], budget: int | None = None) -> list:
    """Build every uncached request in one walk; return all results in order.

    Each request is checked against the budget first, cached or not.
    """
    budget = default_budget() if budget is None else budget
    size = enumeration_size(len(scenario.learner.domain), scenario.m, scenario.learner.symmetric)
    for req in requests:
        if req.factor * size > budget:
            raise EnumerationBudgetError(req.factor * size, budget, f"{req.what} for {scenario.name!r}")
    pending = {req.key: req.start() for req in requests if req.key not in scenario._cache}
    if pending:
        _visit(scenario, [add for add, _ in pending.values()])
    finish = {key: fin for key, (_, fin) in pending.items()}
    return [scenario.cached(req.key, finish.get(req.key)) for req in requests]


def _cell_joint(axes: tuple, cells: Sums, extra: int) -> Joint:
    """The summed cells as a joint over axes: float sums, or the integer
    numerators over den * extra."""
    total, den = cells.total()
    total = total.reshape(tuple(len(a) for a in axes))
    return Joint.of_integers(axes, total, den * extra) if cells.exact else Joint(axes, total)


def _cell_terms(block: Block, out: Sparse, m: int, hyps: int):
    """Per kernel entry and group of its sample (E, m): (cell, mass), with
    cell = z * hyps + h the (Z_trn, H) cell and mass the entry's mass on
    it: (w * c / m) * p in float mode, the integer w * c * p (over den * m,
    so at most den * m) in exact mode.  A group of count 0 has mass 0, which
    leaves a cell's sum as it is.  Kept on the block for its kernel output,
    so the joint and the three-way joint share it."""

    def build():
        if block.exact:
            dtype = int_dtype(block.den * out.den * m)
            per_z = block.weights.astype(dtype, copy=False)[:, None] * block.cnt
            prob = out.prob.astype(dtype, copy=False)
        else:
            per_z, prob = block.weights[:, None] * block.cnt / m, out.prob
        cell = block.sym.take(out.row, axis=0) * hyps
        cell += out.col[:, None]
        mass = per_z.take(out.row, axis=0)
        mass *= prob[:, None]
        return cell, mass

    return block.memo("cell_terms", out, build)


def trn_hyp_request(scenario: Scenario) -> WalkRequest:
    learner, dist, m = scenario.learner, scenario.data_dist, scenario.m

    def start():
        hyp = learner.hypotheses(m)
        shape = (len(dist.alphabet), len(hyp))
        cells = Sums(shape[0] * shape[1], dist.is_exact, m)
        evals = 0

        def add(block: Block, out: Sparse):
            nonlocal evals
            evals += len(block)
            cell, mass = _cell_terms(block, out, m, shape[1])
            cells.add(cell.ravel(), mass.ravel(), block.den * out.den)

        def finish() -> TrnHypJoint:
            joint = _cell_joint((dist.alphabet, hyp), cells, m)
            method = "exact-multiset" if learner.symmetric else "exact-ordered"
            return TrnHypJoint(joint=joint, method=method, kernel_evals=evals)

        return add, finish

    return WalkRequest("trn_hyp_joint", "joint", start)


def exact_trn_hyp_joint(scenario: Scenario, budget: int | None = None) -> TrnHypJoint:
    """Enumerate P(Z_trn, H) exactly; cached per scenario."""
    return walk(scenario, [trn_hyp_request(scenario)], budget)[0]


@dataclass(frozen=True, eq=False)
class SideInfoKernel:
    """Auxiliary output K drawn from the sample (and possibly the hypothesis).

    key identifies the law of K on a scenario, and so its three-way joint
    in the scenario's cache; None means the name does.  fn may carry a
    batch form (with_batch) taking (block, kernel output) and returning
    (kernel entry, k index, prob) entries.
    """

    name: str
    alphabet_for: Callable[[int], Alphabet]
    fn: Callable[[tuple, Any], Mapping[Any, Any]]
    key: Any = None


def threeway_request(scenario: Scenario, side: SideInfoKernel) -> WalkRequest:
    learner, dist, m = scenario.learner, scenario.data_dist, scenario.m

    def start():
        hyp = learner.hypotheses(m)
        side_alpha = side.alphabet_for(m)
        shape = (len(dist.alphabet), len(hyp), len(side_alpha))
        cells = Sums(math.prod(shape), dist.is_exact, m)

        def add(block: Block, out: Sparse):
            batch = batch_form(side.fn)
            if batch is not None:
                ks = batch(block, out)
            else:
                samples, hs = block.samples, hyp.symbols
                args = [(samples[r], hs[h]) for r, h in zip(out.row.tolist(), out.col.tolist())]
                ks = per_row(side.fn, args, side_alpha.index, block.exact)
            cell, mass = _cell_terms(block, out, m, shape[1])
            if len(ks.row) != len(out.row) or (ks.row != np.arange(len(ks.row))).any():
                cell, mass = cell.take(ks.row, axis=0), mass.take(ks.row, axis=0)
            if (ks.prob != 1).any():  # x * 1 is x, so a sure side output needs no product
                if block.exact:  # at most den * m times ks.den
                    mass = mass.astype(int_dtype(block.den * out.den * m * ks.den))
                mass = mass * ks.prob[:, None]
            at = cell * shape[2]
            at += ks.col[:, None]
            cells.add(at.ravel(), mass.ravel(), block.den * out.den * ks.den)

        return add, lambda: _cell_joint((dist.alphabet, hyp, side_alpha), cells, m)

    key = side.name if side.key is None else side.key
    return WalkRequest(("threeway", key), "threeway joint", start)


def exact_threeway_joint(
    scenario: Scenario, side: SideInfoKernel, budget: int | None = None
) -> Joint:
    """Enumerate P(Z_trn, H, K) with K ~ side.fn(sample, H)."""
    return walk(scenario, [threeway_request(scenario, side)], budget)[0]


def entry_masses(block: Block, out: Sparse) -> np.ndarray:
    """P(S) K(h|S) per kernel entry: float64, or exact integers over
    block.den * out.den (so at most that)."""
    if block.exact:
        dtype = int_dtype(block.den * out.den)
        return block.weights.astype(dtype, copy=False).take(out.row) * out.prob.astype(dtype, copy=False)
    return block.weights.take(out.row) * out.prob


def mi_request(scenario: Scenario) -> WalkRequest:
    """I(S;H) in two visits of the samples: the first sums the hypothesis
    marginal, the second the log terms against it.  The second replays a
    one-block walk (_visit); factor stays 2, as a longer walk walks twice."""
    learner, m = scenario.learner, scenario.m

    def start():
        marginal = Sums(len(learner.hypotheses(m)), scenario.data_dist.is_exact)

        def add(block: Block, out: Sparse):
            marginal.add(out.col, entry_masses(block, out), block.den * out.den)

        def finish() -> float:
            total, den = marginal.total()
            # each quotient rounds once, as float(Fraction) does
            marg = int_quotients(total, den) if marginal.exact else total
            acc = np.zeros(1)

            def log_sum(block: Block, out: Sparse):
                mass = entry_masses(block, out)
                if block.exact:
                    mass = int_quotients(mass, block.den * out.den)
                    ph = int_quotients(out.prob, out.den)
                else:
                    ph = out.prob
                ratios, at = np.unique(ph / marg.take(out.col), return_inverse=True)
                logs = np.array([math.log(x) for x in ratios.tolist()]).take(at)
                acc[0] = np.add.accumulate(np.concatenate((acc, mass * logs)))[-1]

            _visit(scenario, [log_sum])
            return float(acc[0])

        return add, finish

    return WalkRequest("sample_hyp_mi", "mutual information", start, factor=2)


def sample_hypothesis_mutual_info(scenario: Scenario, budget: int | None = None) -> float:
    """Shannon I(S_m; H) in nats, streamed without materializing P(S, H).

    Two passes over the samples: the first accumulates the hypothesis
    marginal, the second sums P(S) K(h|S) log(K(h|S) / P(h)), replaying the
    first when its walk made one block.  For symmetric kernels, grouping
    ordered samples into multisets leaves the value unchanged.
    """
    return walk(scenario, [mi_request(scenario)], budget)[0]


def _adjacent_pairs(symbols: tuple, m: int, symmetric: bool):
    """Each pair of samples that differ in one entry, once.

    Symmetric kernels see multisets, so sorted samples suffice; other
    kernels need every ordered sample and every position in it.
    """
    if symmetric:
        for prefix in itertools.combinations_with_replacement(symbols, m - 1):
            for a, b in itertools.combinations(symbols, 2):
                yield tuple(sorted(prefix + (a,))), tuple(sorted(prefix + (b,)))
    else:
        for rest in itertools.product(symbols, repeat=m - 1):
            for i in range(m):
                for a, b in itertools.combinations(symbols, 2):
                    yield rest[:i] + (a,) + rest[i:], rest[:i] + (b,) + rest[i:]


def effective_epsilon(learner: LearnerKernel, m: int, budget: int | None = None):
    """Largest |log K(h|S) / K(h|S')| over samples differing in one entry.

    This is the privacy loss measured on singleton hypothesis events, which
    is the full supremum for multiplicative (delta = 0) guarantees.  Returns
    (epsilon, pairs_checked, witness) where witness = (S, S', h) attains the
    maximum; epsilon is inf if some hypothesis flips between zero and
    positive probability.
    """
    budget = default_budget() if budget is None else budget
    symbols = learner.domain.symbols
    n = len(symbols)
    rests = math.comb(n + m - 2, m - 1) if learner.symmetric else n ** (m - 1) * m
    pairs = rests * math.comb(n, 2) * 2
    if pairs > budget:
        raise EnumerationBudgetError(pairs, budget, "adjacent-sample scan")
    best, checked, witness = 0.0, 0, None
    for s1, s2 in _adjacent_pairs(symbols, m, learner.symmetric):
        d1, d2 = learner.kernel(s1), learner.kernel(s2)
        checked += 1
        for h in set(d1) | set(d2):
            p, q = d1.get(h, 0), d2.get(h, 0)
            if p == 0 and q == 0:
                continue
            if p == 0 or q == 0:
                return float("inf"), checked, (s1, s2, h)
            loss = abs(math.log(float(Fraction(p) / Fraction(q))))
            if loss > best:
                best, witness = loss, (s1, s2, h)
    return best, checked, witness


# ---------------------------------------------------------------------------
# built-in learners


def subsample_release(
    domain: Alphabet, k: int, delta=1, *, mode: NumericMode = FLOAT64
) -> LearnerKernel:
    """Release k sample entries with probability delta, else nothing.

    Hypotheses are k-tuples of domain symbols in domain order plus the
    empty tuple; a release lists its entries in domain order.  The kernel
    has a batch form: with the rows of a block in domain order, the
    hypotheses a row releases appear, in the kernel's dict order, in
    hypothesis-index order, and each pick's index is its rank in the
    combinatorial number system (Knuth, TAOCP 7.2.1.3).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    delta = coerce_number(delta, mode)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    one = Fraction(1) if mode.exact else 1.0
    by_index = None if domain.positional else domain.index.__getitem__

    def kern(sample: tuple) -> dict:
        m = len(sample)
        if k > m:
            raise ValueError(f"cannot release {k} of {m} entries")
        out: dict = {}
        if delta != 1:
            out[()] = one - delta
        share = delta / math.comb(m, k)
        for pick in itertools.combinations(range(m), k):
            h = tuple(sorted((sample[i] for i in pick), key=by_index))
            out[h] = out.get(h, 0) + share
        return out

    top = len(domain) + k - 1
    # C(x, j) for x < top and j <= k, and per sample size m the picks and
    # the probabilities of a hypothesis picked 1, ..., C(m, k) times (then
    # of the empty release): built on first use
    binom: list = []
    by_m: dict = {}

    def tables(m: int) -> tuple:
        if not binom:
            binom.append(np.array([[math.comb(x, j) for j in range(k + 1)] for x in range(top)], dtype=np.int64))
        if m not in by_m:
            picks = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
            # c picks of one hypothesis give share + share + ... (c terms)
            probs = list(itertools.accumulate([delta / math.comb(m, k)] * len(picks))) + [one - delta]
            if mode.exact:
                nums, den = common_denominator(probs)
                by_m[m] = picks, as_ints(nums, den), den
            else:
                by_m[m] = picks, np.array(probs, dtype=np.float64), 1
        return by_m[m]

    def batch(block: Block) -> Sparse:
        rows, m = block.idx.shape
        if k > m:
            raise ValueError(f"cannot release {k} of {m} entries")
        picks, probs, den = tables(m)
        # a pick a_1 <= ... <= a_k is the set {a_j + j} of range(top), whose
        # lexicographic rank is C(top, k) - 1 - sum_j C(top - 1 - a_j - j, k - j);
        # its hypothesis index is that rank + 1, after the empty release
        rank = np.full((rows, len(picks)), math.comb(top, k), dtype=np.int64)
        for j in range(k):
            rank -= binom[0][:, k - j].take(top - 1 - j - block.idx.take(picks[:, j], axis=1))
        if delta != 1:  # the empty release, hypothesis 0, comes first
            rank = np.concatenate((np.zeros((rows, 1), dtype=np.int64), rank), axis=1)
        h = np.sort(rank, axis=1)
        new = np.ones(h.shape, dtype=bool)
        np.not_equal(h[:, 1:], h[:, :-1], out=new[:, 1:])
        first = np.flatnonzero(new)
        row, col = first // h.shape[1], h.ravel()[first]
        which = np.concatenate((first[1:], [h.size])) - first - 1
        if delta != 1:
            which[col == 0] = len(picks)
        return Sparse(row, col, probs.take(which), den)

    def hyp(m: int) -> Alphabet:
        tuples = tuple(itertools.combinations_with_replacement(domain.symbols, k))
        return Alphabet("h", ((),) + tuples)

    return LearnerKernel(
        name="subsample_release",
        domain=domain,
        kernel=with_batch(kern, batch),
        hypotheses=hyp,
        params={"k": k, "delta": delta},
    )


def randomized_response_dp(
    epsilon: float, *, mode: NumericMode = FLOAT64, domain: Alphabet | None = None
) -> LearnerKernel:
    """Majority vote over a binary sample, released through randomized response.

    The true majority bit is kept with probability e^eps / (1 + e^eps) and
    flipped otherwise, which makes the release eps-differentially private;
    ties (even m) release a fair coin.  In exact mode the keep probability
    is the rationalized float64 value, so the realized epsilon matches the
    nominal one to within float rounding.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    domain = domain or Alphabet("z", (0, 1))
    if set(domain.symbols) != {0, 1}:
        raise ValueError("randomized response expects the binary alphabet {0, 1}")
    keep = math.exp(epsilon) / (1.0 + math.exp(epsilon))
    if mode.exact:
        keep = Fraction(keep)
    flip = 1 - keep
    half = Fraction(1, 2) if mode.exact else 0.5

    def kern(sample: tuple) -> dict:
        ones = sum(sample)
        if 2 * ones == len(sample):
            return {0: half, 1: half}
        maj = 1 if 2 * ones > len(sample) else 0
        return {maj: keep, 1 - maj: flip}

    return LearnerKernel(
        name="randomized_response_dp",
        domain=domain,
        kernel=kern,
        hypotheses=lambda m: Alphabet("h", (0, 1)),
        params={"epsilon": epsilon, "keep_prob": keep},
    )


def erm_finite(
    domain: Alphabet,
    hypotheses: Sequence,
    loss_table: Mapping,
    *,
    mode: NumericMode = FLOAT64,
) -> LearnerKernel:
    """Empirical risk minimization over an explicit finite class.

    loss_table maps (symbol, hypothesis) to a loss in [0, 1].  Ties go to
    the hypothesis listed first, so the kernel is deterministic.
    """
    hyp_alpha = Alphabet("h", tuple(hypotheses))
    table = {}
    for (z, h), v in loss_table.items():
        val = coerce_number(v, mode)
        if not 0 <= val <= 1:
            raise ValueError(f"loss_table[{(z, h)}] = {val} outside [0, 1]")
        table[(z, h)] = val
    for z in domain.symbols:
        for h in hyp_alpha.symbols:
            if (z, h) not in table:
                raise ValueError(f"loss_table is missing entry for {(z, h)}")

    def kern(sample: tuple) -> dict:
        best_h, best_risk = None, None
        for h in hyp_alpha.symbols:
            risk = sum(table[(z, h)] for z in sample)
            if best_risk is None or risk < best_risk:
                best_h, best_risk = h, risk
        return {best_h: 1}

    return LearnerKernel(
        name="erm_finite",
        domain=domain,
        kernel=kern,
        hypotheses=lambda m: hyp_alpha,
        params={"hypotheses": tuple(hypotheses), "loss_table": dict(table)},
    )


def constant_learner(domain: Alphabet, symbol="fixed") -> LearnerKernel:
    """Ignores the sample entirely; the do-nothing baseline."""
    alpha = Alphabet("h", (symbol,))
    return LearnerKernel(
        name="constant",
        domain=domain,
        kernel=lambda sample: {symbol: 1},
        hypotheses=lambda m: alpha,
        params={"symbol": symbol},
    )


def prop1_counterexample(domain: int | Alphabet) -> LearnerKernel:
    """Memorizer whose own expected generalization risk is exactly zero.

    The hypothesis is the sorted sample paired with a fair bit b.  Under
    the paired loss (see losses), b flips the sign of the deviation, so
    the two signs cancel in expectation while |deviation| stays near 1/2;
    under the flipped loss the deviation is near 1/2 with probability one.

    domain is the domain {0, ..., n-1}, or its size n; an alphabet is used
    as given, so a scenario and its learner share one domain object.
    """
    domain_size = len(domain) if isinstance(domain, Alphabet) else domain
    if domain_size < 2:
        raise ValueError("domain_size must be >= 2")
    if not isinstance(domain, Alphabet):
        domain = Alphabet.of_size("z", domain_size)
    elif not domain.positional and domain.symbols != tuple(range(domain_size)):
        raise ValueError("the memorizer needs the domain {0, ..., n-1}")
    half = Fraction(1, 2)

    def kern(sample: tuple) -> dict:
        key = tuple(sorted(sample))
        return {(key, 0): half, (key, 1): half}

    def hyp(m: int) -> Alphabet:
        keys = itertools.combinations_with_replacement(domain.symbols, m)
        return Alphabet("h", tuple((key, b) for key in keys for b in (0, 1)))

    return LearnerKernel(
        name="prop1_counterexample",
        domain=domain,
        kernel=kern,
        hypotheses=hyp,
        params={"domain_size": domain_size},
    )


# ---------------------------------------------------------------------------
# side information builders


def duplicate_side_info(learner: LearnerKernel) -> SideInfoKernel:
    """K is a verbatim copy of H."""

    def alphabet_for(m: int) -> Alphabet:
        h = learner.hypotheses(m)
        return Alphabet("k", h.symbols)

    return SideInfoKernel(
        name="duplicate", alphabet_for=alphabet_for, fn=lambda sample, h: {h: 1}
    )


def rerun_side_info(learner: LearnerKernel) -> SideInfoKernel:
    """K is an independent rerun of the learner on the same sample."""

    def alphabet_for(m: int) -> Alphabet:
        h = learner.hypotheses(m)
        return Alphabet("k", h.symbols)

    return SideInfoKernel(
        name="rerun", alphabet_for=alphabet_for, fn=lambda sample, h: learner.kernel(sample)
    )


def deviation_sign_side_info(scenario: Scenario, loss, threshold) -> SideInfoKernel:
    """Three-valued flag of the deviation G at a threshold.

    K = +1 when G = R_emp(h) - R_true(h) >= threshold, -1 when <= -threshold,
    else 0, with G read from the scenario's losses.DeviationTable of the
    loss (the one its deviation law reads), one flag per distinct g; in
    exact mode g and the threshold are integer codes (DeviationTable.code).
    The side is keyed by the threshold and the table.  fn has a batch form
    that reads the block's per-entry deviations.
    """
    from .losses import deviation_table  # local to avoid a cycle

    dev = deviation_table(scenario, loss)
    index, z_index = dev.hypotheses.index, dev.dist.alphabet.index

    def flags(gs: list) -> list:
        k = dev.code(threshold)  # g <= -threshold is -g >= threshold
        return [1 if g >= k else -1 if -g >= k else 0 for g in gs]

    def fn(sample: tuple, h) -> dict:
        hi = index[h]
        e = dev.sums_table[[z_index[z] for z in sample], hi].sum(keepdims=True)
        gs, _ = dev.deviations(np.array([hi]), e)
        return {flags(gs)[0]: 1}

    def batch(block: Block, out: Sparse) -> Sparse:
        gs, at = dev.entry_deviations(block, out)
        # flags -1, 0, 1 sit at k indices 0, 1, 2
        ks = np.array(flags(gs), dtype=np.intp) + 1
        ones = np.ones(len(at), dtype=np.int64 if block.exact else np.float64)
        return Sparse(np.arange(len(at)), ks.take(at), ones)

    name = f"deviation_sign@{threshold}"
    return SideInfoKernel(
        name=name,
        alphabet_for=lambda m: Alphabet("k", (-1, 0, 1)),
        fn=with_batch(fn, batch),
        key=(name,) + dev.key,
    )
