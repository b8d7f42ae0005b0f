"""Monte Carlo estimators for scenarios beyond exact enumeration.

Runs are drawn with counter-based streams (Philox keyed by (seed, run
index)), so any subset of runs is reproducible independently of draw
order.  The plug-in estimate of vi from a contingency table of (Z_trn, H)
pairs writes the unobserved-pair mass in closed form:

    vi_hat = 1/2 [ sum_observed |c_zh/N - r_z c_h / N^2|
                   + (1 - sum_observed r_z c_h / N^2) ],

and gets a bootstrap confidence interval by multinomial resampling of the
pair counts.  Tail probabilities get Wilson intervals.  The plug-in vi is
biased upward when the number of distinct hypotheses is comparable to the
number of runs; estimates carry a warning note when that happens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .learners import Scenario
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
    """Drawn runs plus the scenario they came from."""

    scenario: Scenario
    runs: tuple[RunSample, ...]

    def __iter__(self) -> Iterator[RunSample]:
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)


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
    zeros = np.zeros(4, dtype=np.uint64)

    def stream(i: int) -> np.random.Generator:
        if not (0 <= seed < 2**64 and 0 <= i < 2**64):
            return _run_rng(seed, i)
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": np.array([i, seed], dtype=np.uint64)},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return rng

    return stream


def draw_runs(scenario: Scenario, n_runs: int, seed: int | None = None) -> RunBatch:
    """Draw (sample, Z_trn, H) triples; stream i is keyed by (seed, i)."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    seed = scenario.seed if seed is None else seed
    dist = scenario.data_dist
    symbols = dist.alphabet.symbols
    cdf = np.cumsum(dist.weights.astype(np.float64))
    cdf[-1] = 1.0
    m = scenario.m
    kernel = scenario.learner.kernel
    runs = []
    stream = run_streams(seed)
    for i in range(n_runs):
        rng = stream(i)
        picks = np.searchsorted(cdf, rng.random(m), side="right")
        sample = tuple(symbols[j] for j in picks)
        trn = sample[rng.integers(m)]
        u = rng.random()
        acc = 0.0
        hypothesis = None
        for h, ph in kernel(sample).items():
            acc += float(ph)
            hypothesis = h
            if u < acc:
                break
        runs.append(RunSample(sample=sample, trn_example=trn, hypothesis=hypothesis, seed_path=(seed, i)))
    return RunBatch(scenario=scenario, runs=tuple(runs))


def _boot_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=((seed + 1) << 64) | 0xB007))


def estimate_variational_info(
    batch: RunBatch, n_boot: int = 500, level: float = 0.95, seed: int | None = None
) -> Estimate:
    """Plug-in vi(Z_trn; H) from pair counts, with a bootstrap interval."""
    seed = batch.scenario.seed if seed is None else seed
    n = len(batch)
    pair_counts: dict = {}
    for run in batch:
        key = (run.trn_example, run.hypothesis)
        pair_counts[key] = pair_counts.get(key, 0) + 1
    keys = list(pair_counts)
    c = np.array([pair_counts[k] for k in keys], dtype=np.float64)
    z_ids: dict = {}
    h_ids: dict = {}
    for z, h in keys:
        z_ids.setdefault(z, len(z_ids))
        h_ids.setdefault(h, len(h_ids))
    zi = np.array([z_ids[z] for z, _ in keys])
    hi = np.array([h_ids[h] for _, h in keys])

    def stat(counts: np.ndarray) -> float:
        rz = np.bincount(zi, weights=counts, minlength=len(z_ids))
        ch = np.bincount(hi, weights=counts, minlength=len(h_ids))
        prod = rz[zi] * ch[hi] / (n * n)
        return 0.5 * (np.abs(counts / n - prod).sum() + (1.0 - prod.sum()))

    point = stat(c)
    rng = _boot_rng(seed)
    draws = rng.multinomial(n, c / c.sum(), size=n_boot).astype(np.float64)
    boots = np.array([stat(row) for row in draws])
    lo, hi_q = np.percentile(boots, [(1 - level) / 2 * 100, (1 + level) / 2 * 100])
    notes = []
    if len(h_ids) > n / 10:
        notes.append(
            f"{len(h_ids)} distinct hypotheses in {n} runs: plug-in vi is biased upward"
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
    a = np.empty(n)
    b = np.empty(n)
    runs = batch.runs
    for i, run in enumerate(runs):
        a[i] = float(loss.fn(run.trn_example, run.hypothesis))
        b[i] = float(loss.fn(runs[(i + 1) % n].trn_example, run.hypothesis))
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
    dist = batch.scenario.data_dist
    cache: dict = {}
    out = np.empty(len(batch))
    for i, run in enumerate(batch):
        h = run.hypothesis
        if h not in cache:
            cache[h] = float(true_risk(loss, h, dist))
        emp = 0.0
        for z in run.sample:
            emp += float(loss.fn(z, h))
        out[i] = emp / len(run.sample) - cache[h]
    return out


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
