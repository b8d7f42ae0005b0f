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
hypothesis marginal before its log-sum, so it walks a second time.

The accumulators do no Fraction arithmetic per sample.  In exact mode a
mass w * p is kept as the integer numerator w.numerator * p.numerator
under the key of its denominator w.denominator * p.denominator, and
finish() builds one Fraction per cell over the lcm of those denominators.
In float mode the joints sum floats cell by cell in visit order, in
nested lists turned into one array at the end.  Losses are read from
their integer tables (losses.loss_table), so a deviation is identified by
the integer sum of table entries over the sample.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from .dist import Alphabet, Dist, DomainMismatchError, Joint, fractions_by_key
from .numeric import EXACT, FLOAT64, NumericMode, coerce_number, zeros

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "STABAUDIT_BUDGET"


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


def _multinomial(m: int, counts) -> int:
    coeff, rem = 1, m
    for c in counts:
        coeff *= math.comb(rem, c)
        rem -= c
    return coeff


def iter_weighted_samples(
    data_dist: Dist, m: int, symmetric: bool = True
) -> Iterator[tuple[tuple, Any, tuple[tuple[int, int], ...]]]:
    """Yield (sample, weight, counts) over samples of positive probability.

    counts lists (symbol index, multiplicity) pairs.  In symmetric mode each
    sorted multiset appears once with its multinomial coefficient folded
    into the weight.
    """
    symbols = data_dist.alphabet.symbols
    w = data_dist.weights
    n = len(symbols)
    if symmetric:
        for combo in itertools.combinations_with_replacement(range(n), m):
            counts = [(i, len(list(g))) for i, g in itertools.groupby(combo)]
            weight = _multinomial(m, (c for _, c in counts))
            for i, c in counts:
                weight = weight * w[i] ** c
            if weight == 0:
                continue
            yield tuple(symbols[i] for i in combo), weight, tuple(counts)
    else:
        for combo in itertools.product(range(n), repeat=m):
            weight = 1
            for i in combo:
                weight = weight * w[i]
            if weight == 0:
                continue
            counts = tuple(
                (i, len(list(g))) for i, g in itertools.groupby(sorted(combo))
            )
            yield tuple(symbols[i] for i in combo), weight, counts


@dataclass(frozen=True)
class WalkRequest:
    """One result the walker builds and caches under key.

    start() returns a fresh accumulator (add, finish): add(sample, weight,
    counts, kernel_out) runs once per sample, finish() returns the result.
    what names the result in budget errors; factor is the number of walks
    the result costs.
    """

    key: Any
    what: str
    start: Callable[[], tuple[Callable, Callable]]
    factor: int = 1


def _visit(scenario: Scenario, adds: Sequence[Callable]) -> None:
    learner = scenario.learner
    for sample, w, counts in iter_weighted_samples(scenario.data_dist, scenario.m, learner.symmetric):
        out = learner.kernel(sample)
        for add in adds:
            add(sample, w, counts, out)


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


def _zero_grid(shape: tuple, zero=0) -> list:
    """Nested lists of zero of the given shape."""
    if len(shape) == 1:
        return [zero] * shape[0]
    return [_zero_grid(shape[1:], zero) for _ in range(shape[0])]


def _exact_weights(grids: dict, shape: tuple, extra: int) -> np.ndarray:
    """Sum {den: grid of integer numerators} into exact weights over den * extra.

    Every grid is brought to the lcm of the denominators first, so each
    nonzero cell costs one Fraction; untouched cells stay int 0.
    """
    total = zeros(shape, EXACT)
    if grids:
        top = lcm(*grids)
        for den, grid in grids.items():
            total = total + np.array(grid, dtype=object) * (top // den)
        den = top * extra
        total = np.array([Fraction(x, den) if x else 0 for x in total.ravel().tolist()], dtype=object)
    return total.reshape(shape)


def trn_hyp_request(scenario: Scenario) -> WalkRequest:
    learner, dist, m = scenario.learner, scenario.data_dist, scenario.m

    def start():
        hyp = learner.hypotheses(m)
        hidx = hyp.index
        shape = (len(dist.alphabet), len(hyp))
        evals = 0
        if dist.is_exact:
            grids: dict = {}

            def add(sample, w, counts, out):
                nonlocal evals
                evals += 1
                wn, wd = w.numerator, w.denominator
                for h, ph in out.items():
                    if not ph:
                        continue
                    den = wd * ph.denominator
                    grid = grids.get(den)
                    if grid is None:
                        grid = grids[den] = _zero_grid(shape)
                    num, col = wn * ph.numerator, hidx[h]
                    for row, c in counts:
                        grid[row][col] += num * c

            def weights():
                return _exact_weights(grids, shape, m)

        else:
            grid = _zero_grid(shape, 0.0)

            def add(sample, w, counts, out):
                nonlocal evals
                evals += 1
                w = float(w)
                per_z = [(i, w * c / m) for i, c in counts]
                for h, ph in out.items():
                    if not ph:
                        continue
                    col = hidx[h]
                    for row, wz in per_z:
                        grid[row][col] += wz * ph

            def weights():
                return np.array(grid)

        def finish() -> TrnHypJoint:
            joint = Joint((dist.alphabet, hyp), weights())
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
    in the scenario's cache; None means the name does.
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
        hidx, kidx = hyp.index, side_alpha.index
        shape = (len(dist.alphabet), len(hyp), len(side_alpha))
        if dist.is_exact:
            grids: dict = {}

            def add(sample, w, counts, out):
                wn, wd = w.numerator, w.denominator
                for h, ph in out.items():
                    if not ph:
                        continue
                    col = hidx[h]
                    hn, hd = wn * ph.numerator, wd * ph.denominator
                    for k, pk in side.fn(sample, h).items():
                        if not pk:
                            continue
                        den = hd * pk.denominator
                        grid = grids.get(den)
                        if grid is None:
                            grid = grids[den] = _zero_grid(shape)
                        num, lay = hn * pk.numerator, kidx[k]
                        for row, c in counts:
                            grid[row][col][lay] += num * c

            def weights():
                return _exact_weights(grids, shape, m)

        else:
            grid = _zero_grid(shape, 0.0)

            def add(sample, w, counts, out):
                w = float(w)
                per_z = [(i, w * c / m) for i, c in counts]
                for h, ph in out.items():
                    if not ph:
                        continue
                    col = hidx[h]
                    for k, pk in side.fn(sample, h).items():
                        if not pk:
                            continue
                        lay = kidx[k]
                        for row, wz in per_z:
                            grid[row][col][lay] += wz * ph * pk

            def weights():
                return np.array(grid)

        return add, lambda: Joint((dist.alphabet, hyp, side_alpha), weights())

    key = side.name if side.key is None else side.key
    return WalkRequest(("threeway", key), "threeway joint", start)


def exact_threeway_joint(
    scenario: Scenario, side: SideInfoKernel, budget: int | None = None
) -> Joint:
    """Enumerate P(Z_trn, H, K) with K ~ side.fn(sample, H)."""
    return walk(scenario, [threeway_request(scenario, side)], budget)[0]


def mi_request(scenario: Scenario) -> WalkRequest:
    """I(S;H) in two walks: the first sums the hypothesis marginal, the
    second the log terms against it."""
    exact = scenario.data_dist.is_exact

    def start():
        # exact: (h, denominator) -> integer numerator; float: h -> mass
        sums: dict = {}

        def add(sample, w, counts, out):
            if exact:
                wn, wd = w.numerator, w.denominator
                for h, ph in out.items():
                    if ph:
                        key = (h, wd * ph.denominator)
                        sums[key] = sums.get(key, 0) + wn * ph.numerator
            else:
                for h, ph in out.items():
                    if ph:
                        sums[h] = sums.get(h, 0) + w * ph

        def finish() -> float:
            masses = {h: mass for (h,), mass in fractions_by_key(sums).items()} if exact else sums
            marg = {h: float(mass) for h, mass in masses.items()}
            total = 0.0

            def log_sum(sample, w, counts, out):
                nonlocal total
                for h, ph in out.items():
                    if ph:
                        # int / int rounds once, as float(w * ph) does
                        mass = (w.numerator * ph.numerator) / (w.denominator * ph.denominator) if exact else float(w * ph)
                        total += mass * math.log(float(ph) / marg[h])

            _visit(scenario, [log_sum])
            return total

        return add, finish

    return WalkRequest("sample_hyp_mi", "mutual information", start, factor=2)


def sample_hypothesis_mutual_info(scenario: Scenario, budget: int | None = None) -> float:
    """Shannon I(S_m; H) in nats, streamed without materializing P(S, H).

    Two passes: the first accumulates the hypothesis marginal, the second
    sums P(S) K(h|S) log(K(h|S) / P(h)).  For symmetric kernels, grouping
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
    """Release k sample entries (sorted) with probability delta, else nothing.

    Hypotheses are sorted k-tuples of domain symbols plus the empty tuple.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    delta = coerce_number(delta, mode)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    one = Fraction(1) if mode.exact else 1.0

    def kern(sample: tuple) -> dict:
        m = len(sample)
        if k > m:
            raise ValueError(f"cannot release {k} of {m} entries")
        out: dict = {}
        if delta != 1:
            out[()] = one - delta
        share = delta / math.comb(m, k)
        for pick in itertools.combinations(range(m), k):
            h = tuple(sorted(sample[i] for i in pick))
            out[h] = out.get(h, 0) + share
        return out

    def hyp(m: int) -> Alphabet:
        tuples = tuple(itertools.combinations_with_replacement(domain.symbols, k))
        return Alphabet("h", ((),) + tuples)

    return LearnerKernel(
        name="subsample_release",
        domain=domain,
        kernel=kern,
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
    """Three-valued flag comparing empirical to true risk at a threshold.

    K = +1 when R_emp(h) - R_true(h) >= threshold, -1 when <= -threshold,
    else 0.  The empirical risk is e / (m * scale) with e the sum of the
    loss's integer table entries over the sample, so the flag is computed
    once per (h, e): in Fractions in exact mode, in floats in float mode.
    The side is keyed by the threshold and by the loss's name and table.
    """
    from .losses import loss_table, true_risk  # local to avoid a cycle

    dist, m = scenario.data_dist, scenario.m
    hyp = scenario.learner.hypotheses(m)
    table, scale = loss_table(loss, dist.alphabet, hyp, True)
    symbols = dist.alphabet.symbols
    columns = dict(zip(hyp.symbols, table.T.tolist()))
    # h -> ({symbol: its table entry}, memo e -> flag)
    cols = {h: (dict(zip(symbols, col)), {}) for h, col in columns.items()}
    risks: dict = {}

    def flag(h, e) -> dict:
        if h not in risks:
            risks[h] = true_risk(loss, h, dist, columns[h], scale)
        emp = Fraction(e, m * scale) if dist.is_exact else e / (m * scale)
        g = emp - risks[h]
        return {1 if g >= threshold else -1 if g <= -threshold else 0: 1}

    def fn(sample: tuple, h) -> dict:
        col, memo = cols[h]
        e = 0
        for z in sample:
            e += col[z]
        if e not in memo:
            memo[e] = flag(h, e)
        return memo[e]

    name = f"deviation_sign@{threshold}"
    return SideInfoKernel(
        name=name,
        alphabet_for=lambda m: Alphabet("k", (-1, 0, 1)),
        fn=fn,
        key=(name, loss.name, scale, tuple(table.ravel().tolist())),
    )
