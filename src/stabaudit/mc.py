"""Monte Carlo estimators for scenarios beyond exact enumeration.

Runs are drawn with counter-based streams (Philox keyed by (seed, run
index); Salmon et al., SC 2011), so any subset of runs is reproducible
independently of draw order.  Each run takes, in order, m uniforms for its
sample, one integer for the position of Z_trn, and one uniform that picks
its hypothesis from the kernel's output.

A RunBatch holds the runs as columns: the samples' domain indices
(runs, m), the domain index of each run's Z_trn, and each run's hypothesis
as an index into the batch's distinct hypotheses, in first-seen order.
draw_runs maps every sample uniform through the cdf in one call and calls
the kernel once per distinct ordered sample.  On a positional domain
symbol i is i, so neither drawing nor estimating reads the domain's
symbols.  The estimators are array ops over the columns.  They read loss
values through one helper, which calls the loss's batch form (attached
with learners.with_batch; a wrapped fn loses it, as a wrapped kernel
does) or else loss.fn once per distinct (z, h) pair.  Every float sum
keeps the order of a loop over the runs, so estimates do not depend on
how the columns are computed.

The plug-in estimate of vi from a contingency table of (Z_trn, H) pairs
writes the unobserved-pair mass in closed form:

    vi_hat = 1/2 [ sum_observed |c_zh/N - r_z c_h / N^2|
                   + (1 - sum_observed r_z c_h / N^2) ],

and gets a bootstrap confidence interval by multinomial resampling of the
pair counts.  Tail probabilities get Wilson intervals.  The plug-in vi is
biased upward when the number of distinct hypotheses is comparable to the
number of runs; estimates carry a warning note when that happens.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .dist import Alphabet
from .learners import Scenario, batch_form
from .losses import ParametricLoss, true_risk

Z95 = 1.959963984540054


@dataclass(frozen=True)
class RunSample:
    sample: tuple
    trn_example: Any
    hypothesis: Any
    seed_path: tuple[int, int]


@dataclass(frozen=True, eq=False)
class RunBatch:
    """Drawn runs as columns, plus the scenario they came from.

    idx (runs, m) holds each sample's domain indices, trn the domain index
    of each run's Z_trn, and hyp each run's index into hypotheses, the
    distinct hypotheses in first-seen order.  runs, the per-run view, is
    built on first use.
    """

    scenario: Scenario
    idx: np.ndarray
    trn: np.ndarray
    hyp: np.ndarray
    hypotheses: tuple
    seed: int

    @cached_property
    def runs(self) -> tuple[RunSample, ...]:
        alphabet, hs = self.scenario.data_dist.alphabet, self.hypotheses
        samples, trn = (_symbols_at(alphabet, a).tolist() for a in (self.idx, self.trn))
        return tuple(
            RunSample(sample=tuple(sample), trn_example=z, hypothesis=hs[h], seed_path=(self.seed, i))
            for i, (sample, z, h) in enumerate(zip(samples, trn, self.hyp.tolist()))
        )

    def __iter__(self) -> Iterator[RunSample]:
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.idx)


@dataclass(frozen=True)
class Estimate:
    point: float
    se: float
    ci_low: float
    ci_high: float
    n_runs: int
    method: str
    bias: float = 0.0
    notes: tuple[str, ...] = ()

    @property
    def debiased(self) -> float:
        """Point minus the bootstrap bias estimate (first-order correction)."""
        return self.point - self.bias


@dataclass(frozen=True)
class TailPoint:
    t: float
    estimate: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class TailReport:
    mean_abs_deviation: Estimate
    points: tuple[TailPoint, ...]
    n_runs: int


def _run_rng(seed: int, run_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed << 64) | run_index))


def run_streams(seed: int) -> Callable[[int], np.random.Generator]:
    """stream(i) draws as _run_rng(seed, i) does.

    Building a Philox per run costs several times what the draws of a
    small run do, so one bit generator is reset per run instead: key words
    [i, seed], zero counter, empty buffer, no saved 32-bit half.  The
    generator returned is the same object each time, good until the next
    call.  Keys that do not fit two 64-bit words get a new generator.
    """
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    # plain lists: the state setter reads them word by word, which costs
    # less than indexing numpy arrays
    zeros = [0, 0, 0, 0]

    def stream(i: int) -> np.random.Generator:
        if not (0 <= seed < 2**64 and 0 <= i < 2**64):
            return _run_rng(seed, i)
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": [i, seed]},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return rng

    return stream


def _symbols_at(alphabet: Alphabet, idx: np.ndarray) -> np.ndarray:
    """The symbols at the domain indices idx, in idx's shape: idx itself on
    a positional domain, where symbol i is i, else an object array."""
    if alphabet.positional:
        return idx
    return np.fromiter(alphabet.symbols, object, len(alphabet))[idx]


def _first_seen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, rank) over the entries of a 1-D array or the rows of a 2-D
    one: where each distinct value first appears, in order of appearance,
    and each entry's rank in that order."""
    _, first, inv = np.unique(a, axis=0 if a.ndim > 1 else None, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inv.reshape(-1)]


def symbol_indices(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The domain index that each uniform in u draws under weights.

    Uniform x draws the first i with x < cdf[i], where cdf is the float
    cumulative sum of the weights, set to 1.0 from the last positive
    weight on, so no uniform below 1 draws a trailing symbol of weight
    zero.  u is searched in sorted order, which sweeps the cdf once, and
    the indices come back in u's shape.
    """
    w = np.asarray(weights, dtype=np.float64)
    cdf = np.cumsum(w)
    cdf[-1 if w[-1] > 0 else np.flatnonzero(w)[-1] :] = 1.0
    flat = u.ravel()
    order = np.argsort(flat)
    out = np.empty(flat.shape, dtype=np.intp)
    out[order] = np.searchsorted(cdf, flat[order], side="right")
    return out.reshape(u.shape)


def draw_runs(scenario: Scenario, n_runs: int, seed: int | None = None) -> RunBatch:
    """Draw (sample, Z_trn, H) triples; stream i is keyed by (seed, i)."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    seed = scenario.seed if seed is None else seed
    m = scenario.m
    u = np.empty((n_runs, m))
    at = np.empty(n_runs, dtype=np.intp)
    pick = np.empty(n_runs)
    stream = run_streams(seed)
    for i in range(n_runs):
        rng = stream(i)
        rng.random(out=u[i])
        at[i] = rng.integers(m)
        pick[i] = rng.random()
    dist = scenario.data_dist
    idx = symbol_indices(dist.weights, u)
    trn = idx[np.arange(n_runs), at]
    # one kernel call per distinct ordered sample; its entries' running
    # sums, so that bisect_right finds the first entry with u < acc
    first, sample_of = _first_seen(idx)
    kernel, outputs = scenario.learner.kernel, []
    for sample in _symbols_at(dist.alphabet, idx[first]).tolist():
        acc, hs, total = [], [], 0.0
        for h, ph in kernel(tuple(sample)).items():
            total += float(ph)
            acc.append(total)
            hs.append(h)
        outputs.append((acc, hs))
    ids: dict = {}
    hyp = np.empty(n_runs, dtype=np.intp)
    for i, (g, x) in enumerate(zip(sample_of.tolist(), pick.tolist())):
        acc, hs = outputs[g]
        # past the last running sum, the last entry; no entries, None
        h = hs[min(bisect_right(acc, x), len(hs) - 1)] if hs else None
        hyp[i] = ids.setdefault(h, len(ids))
    return RunBatch(scenario, idx, trn, hyp, tuple(ids), seed)


def _loss_values(batch: RunBatch, loss: ParametricLoss, z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """float(loss.fn(z, h)) for each entry of the domain index array z and
    the hypothesis index array h, of one shape: from the loss's batch
    form, or from one fn call per distinct (z, h) pair."""
    alphabet, hs = batch.scenario.data_dist.alphabet, batch.hypotheses
    batch_fn = batch_form(loss.fn)
    if batch_fn is not None:
        return batch_fn(_symbols_at(alphabet, z), hs, h)
    pairs, at = np.unique((z * len(hs) + h).ravel(), return_inverse=True)
    zs = _symbols_at(alphabet, pairs // len(hs)).tolist()
    fn = loss.fn
    values = np.array([float(fn(a, hs[b])) for a, b in zip(zs, (pairs % len(hs)).tolist())])
    return values[at].reshape(z.shape)


def _boot_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=((seed + 1) << 64) | 0xB007))


def estimate_variational_info(
    batch: RunBatch, n_boot: int = 500, level: float = 0.95, seed: int | None = None
) -> Estimate:
    """Plug-in vi(Z_trn; H) from pair counts, with a bootstrap interval."""
    seed = batch.scenario.seed if seed is None else seed
    n = len(batch)
    # the (Z_trn, H) keys in first-seen order, which fixes the order of
    # every float sum and of the multinomial's pvals; each key's z and h ids
    first, key = _first_seen(batch.trn * len(batch.hypotheses) + batch.hyp)
    c = np.bincount(key).astype(np.float64)
    zi = np.unique(batch.trn[first], return_inverse=True)[1]
    hi = batch.hyp[first]
    nz, nh = int(zi.max()) + 1, len(batch.hypotheses)

    def stats(counts: np.ndarray) -> np.ndarray:
        """The plug-in vi of each row of pair counts."""
        rows = np.arange(len(counts))[:, None]
        # one bincount over all rows adds each row's counts in key order
        rz = np.bincount((rows * nz + zi).ravel(), counts.ravel(), len(counts) * nz).reshape(-1, nz)
        ch = np.bincount((rows * nh + hi).ravel(), counts.ravel(), len(counts) * nh).reshape(-1, nh)
        prod = rz[:, zi] * ch[:, hi] / (n * n)
        dev = np.abs(counts / n - prod)
        # per-row 1-D sums: a 2-D sum along rows may round differently
        return np.array([0.5 * (d.sum() + (1.0 - p.sum())) for d, p in zip(dev, prod)])

    point = stats(c[None])[0]
    rng = _boot_rng(seed)
    draws = rng.multinomial(n, c / c.sum(), size=n_boot).astype(np.float64)
    boots = stats(draws)
    lo, hi_q = np.percentile(boots, [(1 - level) / 2 * 100, (1 + level) / 2 * 100])
    notes = []
    if nh > n / 10:
        notes.append(
            f"{nh} distinct hypotheses in {n} runs: plug-in vi is biased upward"
        )
    return Estimate(
        point=float(point),
        se=float(boots.std()),
        ci_low=float(lo),
        ci_high=float(hi_q),
        n_runs=n,
        method="plugin+bootstrap",
        bias=float(boots.mean() - point),
        notes=tuple(notes),
    )


def estimate_gen_risk(
    batch: RunBatch, loss: ParametricLoss, n_boot: int = 500, seed: int | None = None
) -> Estimate:
    """Expected generalization risk: paired term minus a rotated product term.

    The product expectation pairs each hypothesis with the training example
    of the next run, which is independent of it.
    """
    seed = batch.scenario.seed if seed is None else seed
    n = len(batch)
    # each run's loss on its own Z_trn, and on the next run's
    z = np.stack((batch.trn, np.roll(batch.trn, -1)))
    a, b = _loss_values(batch, loss, z, np.stack((batch.hyp, batch.hyp)))
    point = a.mean() - b.mean()
    rng = _boot_rng(seed)
    idx = rng.integers(0, n, size=(n_boot, n))
    boots = (a[idx] - b[idx]).mean(axis=1)
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return Estimate(
        point=float(point),
        se=float(boots.std()),
        ci_low=float(lo),
        ci_high=float(hi),
        n_runs=n,
        method="paired-vs-rotated+bootstrap",
        bias=float(boots.mean() - point),
    )


def _wilson(successes: int, n: int, z: float = Z95) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def deviations(batch: RunBatch, loss: ParametricLoss) -> np.ndarray:
    """G_i = R_emp(H_i) - R_true(H_i) for every run, as float64."""
    risks = _true_risks(batch, loss)
    values = _loss_values(batch, loss, batch.idx, np.broadcast_to(batch.hyp[:, None], batch.idx.shape))
    # each row summed from left to right
    emp = np.add.accumulate(values, axis=1)[:, -1]
    return emp / batch.idx.shape[1] - risks[batch.hyp]


def _true_risks(batch: RunBatch, loss: ParametricLoss) -> np.ndarray:
    """The float true risk of each of the batch's hypotheses.  A loss with
    an array form and no true_risk_fn gives true_risk its table columns,
    built for chunks of hypotheses of at most about 2^20 cells, as Python
    ints (an int64 column times the weights' numerators can overflow)."""
    dist, hs = batch.scenario.data_dist, batch.hypotheses
    integers = getattr(batch_form(loss.fn), "integers", None)
    if loss.true_risk_fn is not None or integers is None:
        return np.array([float(true_risk(loss, h, dist)) for h in hs])
    n = len(dist.alphabet)
    z = _symbols_at(dist.alphabet, np.arange(n))[:, None]
    step = max(1, 2**20 // n)
    risks = []
    for lo in range(0, len(hs), step):
        nums, scale = integers(z, hs, np.arange(lo, min(lo + step, len(hs))))
        risks += [float(true_risk(loss, h, dist, c, scale)) for h, c in zip(hs[lo : lo + step], nums.T.tolist())]
    return np.array(risks)


def estimate_tail(
    batch: RunBatch, loss: ParametricLoss, t_grid: Sequence[float]
) -> TailReport:
    """P{|G| >= t} with Wilson intervals, plus the mean of |G|."""
    g = np.abs(deviations(batch, loss))
    n = len(g)
    mean_abs = Estimate(
        point=float(g.mean()),
        se=float(g.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf"),
        ci_low=float(g.mean() - Z95 * g.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        ci_high=float(g.mean() + Z95 * g.std(ddof=1) / math.sqrt(n)) if n > 1 else 1.0,
        n_runs=n,
        method="normal",
    )
    points = []
    for t in t_grid:
        hits = int((g >= t - 1e-12).sum())
        lo, hi = _wilson(hits, n)
        points.append(TailPoint(t=float(t), estimate=hits / n, ci_low=lo, ci_high=hi))
    return TailReport(mean_abs_deviation=mean_abs, points=tuple(points), n_runs=n)
