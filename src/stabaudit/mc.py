"""Monte Carlo estimators for scenarios beyond exact enumeration.

Runs are drawn with counter-based streams (Philox keyed by (seed, run
index); Salmon et al., SC 2011), so any subset of runs is reproducible
independently of draw order.  Each run takes, in order, m uniforms for its
sample, one integer for the position of Z_trn, and one uniform that picks
its hypothesis from the kernel's output.

The streams are numpy's np.random.Philox(key=(seed << 64) | i) with a
Generator on top, and the draws are reproduced bit for bit in array steps
(philox_words): run i's words are the Philox4x64-10 blocks under key words
[i, seed] for counters 1, 2, ..., four words a block, computed for chunks
of runs of about _CHUNK blocks at a time.  A uniform is (word >> 11) *
2^-53.  integers(m) reads nothing when m = 1; else it takes Lemire's
bounded integer (ACM TOMACS 2019) of the low 32-bit half of word m, so the
pick is word m + 1 (word m when m = 1).  Where Lemire's method rejects
that half, numpy draws again, and the run is drawn from its own fresh
generator instead (_run_rng), as is every run of a seed outside
[0, 2^64), whose key numpy rejects; that one loop is the fallback.

A RunBatch holds the runs as columns: the samples' domain indices
(runs, m), the domain index of each run's Z_trn, and each run's hypothesis
as an index into the batch's distinct hypotheses, in first-seen order.
draw_runs maps every sample uniform through the cdf in one call.  Each
run's pick counts the running float sums of its sample's kernel output
that are <= its uniform, which is what bisect_right finds.  A kernel with
a draw form (learners.with_batch under "draw": the release's and the
memorizer's) makes the picks from the index rows in array steps; any
other kernel, and a wrapped or replaced one, which loses its forms, runs
once per distinct ordered sample (pick_hypotheses).  On a positional domain
symbol i is i, so neither drawing nor estimating reads the domain's
symbols.  The estimators are array ops over the columns.  They read float
loss values through losses.loss_values, the one reader of a loss: from the
loss's array form (a wrapped fn loses it, as a wrapped kernel does), else
from one loss.fn call per distinct (z, h) cell.  The true risks of all the
batch's hypotheses come from one true_risk(..., many=True) call; the
memorizer losses give theirs in one array step in float mode.  Every float
sum keeps the order of a loop over the runs, so estimates do not depend on
how the columns are computed.

The plug-in estimate of vi from a contingency table of (Z_trn, H) pairs
writes the unobserved-pair mass in closed form:

    vi_hat = 1/2 [ sum_observed |c_zh/N - r_z c_h / N^2|
                   + (1 - sum_observed r_z c_h / N^2) ],

and gets a bootstrap confidence interval by multinomial resampling of the
pair counts.  Those replicates are drawn ahead on a daemon thread
(VIBootstrap), in calls of about _DRAW_CELLS cells from one stream, at most
_IN_FLIGHT calls drawn and not yet reduced, so they equal one draw of all
replicates bit for bit.  multinomial releases the GIL while it draws, so a
caller that starts them before its other estimates (harness._mc_audits)
has them drawn on a second core meanwhile: the wall time falls, the CPU
time does not.  Tail probabilities get Wilson intervals.  The plug-in vi is
biased upward when the number of distinct hypotheses is comparable to the
number of runs; estimates carry a warning note when that happens.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from queue import SimpleQueue
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .learners import Scenario, batch_form, first_seen
from .losses import ParametricLoss, loss_values, true_risk

Z95 = 1.959963984540054
#: Philox4x64 round multipliers and key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_MASK64 = 2**64 - 1
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
#: Philox blocks per array step of _run_draws; bootstrap cells per step
_CHUNK = 2**14
#: vi bootstrap cells per multinomial call of the drawing thread, and the
#: calls drawn or being drawn that the reader has not finished
_DRAW_CELLS = 2**16
_IN_FLIGHT = 2
#: weights per cumulative-sum step of symbol_indices
_CDF_CHUNK = 2**16


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
    distinct hypotheses in first-seen order, from the kernel's draw form
    or its per-sample loop alike.  runs, the per-run view, is built on
    first use.
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
        samples, trn = (alphabet.symbols_at(a).tolist() for a in (self.idx, self.trn))
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
    """Run run_index's stream: a fresh Philox keyed by (seed, run index)."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | run_index))


def symbol_indices(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The domain index that each uniform in u draws under weights.

    Uniform x draws the first i with x < cdf[i], where cdf is the float
    cumulative sum of the weights, set to 1.0 from the last positive
    weight on, so no uniform below 1 draws a trailing symbol of weight
    zero.  u is searched in sorted order, which sweeps the cdf once, and
    the indices come back in u's shape.  The cdf is taken _CDF_CHUNK
    weights at a time, each chunk's sum continuing from the last (the same
    additions in the same order), so no cdf of the weights' size is made.
    """
    w = np.asarray(weights, dtype=np.float64)
    end = len(w) - 1 if w[-1] > 0 else int(np.flatnonzero(w)[-1])
    flat = u.ravel()
    order = np.argsort(flat)
    srt, out = flat[order], np.empty(flat.shape, dtype=np.intp)
    carry, done = np.zeros(1), 0  # done: the sorted uniforms placed so far
    for lo in range(0, end, _CDF_CHUNK):
        cdf = np.cumsum(np.concatenate((carry, w[lo : min(lo + _CDF_CHUNK, end)])))[1:]
        carry = cdf[-1:]
        below = int(np.searchsorted(srt, carry[0]))  # those below the chunk's last value
        out[order[done:below]] = lo + np.searchsorted(cdf, srt[done:below], side="right")
        done = below
    # the cdf is 1.0 from index end on
    out[order[done:]] = np.where(srt[done:] < 1.0, end, len(w))
    return out.reshape(u.shape)


def philox_words(seed: int, runs: np.ndarray, n_words: int) -> np.ndarray:
    """The first n_words 64-bit words of stream i for each i in runs, as a
    (len(runs), n_words) uint64 array: what
    np.random.Philox(key=(seed << 64) | i).random_raw(n_words) gives, for
    0 <= seed, i < 2^64.

    Philox4x64-10 (Salmon et al., SC 2011) as numpy lays it out: key
    words [i, seed], and block b (b = 1, 2, ...; numpy bumps the counter
    before each block) is the 10-round cipher of the counter (b, 0, 0, 0),
    whose four words come out in order.  The 64-bit products are built
    from 32-bit halves.
    """
    blocks = -(-n_words // 4)
    k0 = np.repeat(np.asarray(runs, dtype=np.uint64), blocks)
    c0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), len(runs))
    c1, c2, c3 = (np.zeros_like(c0) for _ in range(3))
    hi0, hi1 = np.empty_like(c0), np.empty_like(c0)
    for r in range(10):
        lo0 = _mulhilo(_PHILOX_M[0], c0, hi0)
        lo1 = _mulhilo(_PHILOX_M[1], c2, hi1)
        hi1 ^= c1
        hi1 ^= k0 + np.uint64(r * _PHILOX_W[0] & _MASK64) if r else k0
        hi0 ^= c3
        hi0 ^= np.uint64((seed + r * _PHILOX_W[1]) & _MASK64)
        c0, c1, c2, c3, hi0, hi1 = hi1, lo1, hi0, lo0, c0, c2
    return np.stack((c0, c1, c2, c3), axis=1).reshape(len(runs), -1)[:, :n_words]


def _mulhilo(a: int, x: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """a * x for a 64-bit constant a: the high words go to hi, the low
    words are returned."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    x_lo, x_hi = x & _LOW32, x >> _32
    t = x_lo * a_lo
    t >>= _32
    t += x_hi * a_lo  # below 2^64
    mid = x_lo * a_hi
    mid += t & _LOW32
    t >>= _32
    mid >>= _32
    np.multiply(x_hi, a_hi, out=hi)
    hi += t
    hi += mid
    return x * np.uint64(a)


def uniforms(words: np.ndarray) -> np.ndarray:
    """Generator.random() of each word: its top 53 bits times 2^-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def bounded(words: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Generator.integers(bound) for 1 < bound < 2^32, by Lemire's method
    on the low 32-bit half of each word, and whether the word was kept.
    Where it was not, numpy draws again (from the high half), so the value
    given there is not the draw."""
    prod = (words & _LOW32) * np.uint64(bound)
    return (prod >> _32).astype(np.intp), (prod & _LOW32) >= np.uint64(2**32 % bound)


def _run_draws(seed: int, n_runs: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each run's m uniforms, position of Z_trn and picking uniform, from
    its Philox words for chunks of about _CHUNK blocks at a time; the
    fallback runs (see the module docstring) draw from _run_rng."""
    u = np.empty((n_runs, m))
    at = np.zeros(n_runs, dtype=np.intp)
    pick = np.empty(n_runs)
    redo: Sequence[int] = range(n_runs)
    if 0 <= seed < 2**64 and m < 2**32:
        n_words = m + 2 if m > 1 else 2
        step = max(1, _CHUNK // -(-n_words // 4))
        redo = []
        for lo in range(0, n_runs, step):
            hi = min(lo + step, n_runs)
            words = philox_words(seed, np.arange(lo, hi), n_words)
            u[lo:hi] = uniforms(words[:, :m])
            pick[lo:hi] = uniforms(words[:, -1])
            if m > 1:
                at[lo:hi], kept = bounded(words[:, m], m)
                redo += (lo + np.flatnonzero(~kept)).tolist()
    for i in redo:
        rng = _run_rng(seed, i)
        rng.random(out=u[i])
        at[i] = rng.integers(m)
        pick[i] = rng.random()
    return u, at, pick


def pick_hypotheses(
    kernel: Callable, samples: Sequence, sample_of: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Each run's hypothesis as an index into the distinct hypotheses, in
    first-seen order, and those hypotheses.

    kernel runs once per sample, in order.  Run i picks from the output
    of samples[sample_of[i]] the first entry whose running sum of float
    probabilities exceeds u[i]: the count of running sums <= u[i], past
    the last entry the last one, and None from an empty output.  The
    running sums are one cumsum over the outputs in zero-padded rows,
    which adds in sequence, as total += float(p) does; runs are counted
    in chunks of about 2^20 running sums."""
    hs: list = []
    probs: list = []
    sizes = []
    for sample in samples:
        out = kernel(tuple(sample))
        hs += out or [None]
        probs += map(float, out.values())
        sizes.append(len(out))
    sizes = np.array(sizes, dtype=np.intp)
    width = np.maximum(sizes, 1)  # each output's entries in hs
    acc = np.zeros((len(sizes), int(width.max())))
    acc[np.arange(acc.shape[1]) < sizes[:, None]] = probs
    np.cumsum(acc, axis=1, out=acc)
    entry = np.empty(len(u), dtype=np.intp)
    step = max(1, 2**20 // acc.shape[1])
    for lo in range(0, len(u), step):
        entry[lo : lo + step] = (acc[sample_of[lo : lo + step]] <= u[lo : lo + step, None]).sum(axis=1)
    np.minimum(entry, (width - 1)[sample_of], out=entry)
    # each run's entry as a position in hs; ids in first-seen order of those
    codes = (np.cumsum(width) - width)[sample_of] + entry
    first, rank = first_seen(codes)
    ids: dict = {}
    of_code = np.array([ids.setdefault(hs[c], len(ids)) for c in codes[first].tolist()], dtype=np.intp)
    return of_code[rank], tuple(ids)


def draw_runs(scenario: Scenario, n_runs: int, seed: int | None = None) -> RunBatch:
    """Draw (sample, Z_trn, H) triples; stream i is keyed by (seed, i).

    The hypotheses come from the kernel's draw form when it has one (the
    release and the memorizer), else from one kernel call per distinct
    ordered sample; both give the same picks and ids."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    seed = scenario.seed if seed is None else seed
    u, at, pick = _run_draws(seed, n_runs, scenario.m)
    dist = scenario.data_dist
    idx = symbol_indices(dist.weights, u)
    trn = idx[np.arange(n_runs), at]
    draw = batch_form(scenario.learner.kernel, "draw")
    if draw is not None:
        hyp, hypotheses = draw(idx, pick)
    else:  # one kernel call per distinct ordered sample
        first, sample_of = first_seen(idx)
        samples = dist.alphabet.symbols_at(idx[first]).tolist()
        hyp, hypotheses = pick_hypotheses(scenario.learner.kernel, samples, sample_of, pick)
    return RunBatch(scenario, idx, trn, hyp, hypotheses, seed)


def _boot_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=((seed + 1) << 64) | 0xB007))


def _boot_sizes(n_boot: int, width: int, cells: int) -> list[int]:
    """Bootstrap replicates per step: max(1, cells // width) replicates of
    width cells, so a step holds about cells cells (width when wider)."""
    if n_boot < 1:
        raise ValueError("n_boot must be >= 1")
    step = max(1, cells // width)
    return [min(step, n_boot - lo) for lo in range(0, n_boot, step)]


class VIBootstrap:
    """The vi bootstrap's replicate pair counts, drawn ahead on a daemon thread.

    The batch's (Z_trn, H) keys in first-seen order (first) and their
    counts fix the multinomial's pvals.  The thread draws the n_boot
    replicates from _boot_rng(seed) in order, in calls of
    max(1, _DRAW_CELLS // width) replicates of width keys, so the rows
    equal one draw of all of them bit for bit.  It starts a call only
    while fewer than _IN_FLIGHT calls are drawn and not yet finished by
    the reader, so at most _IN_FLIGHT x max(_DRAW_CELLS, width) cells are
    in flight.  multinomial releases the GIL while it draws, so the draws
    run on a second core while the caller computes; they take as much CPU
    time as before.  rows() yields each call's counts and re-raises a
    drawing error; close() stops the thread and waits for it (a with block
    closes it), and a closed handle yields nothing more.
    """

    def __init__(self, batch: RunBatch, n_boot: int = 500, seed: int | None = None):
        self.batch, self.n_boot = batch, n_boot
        self.seed = batch.scenario.seed if seed is None else seed
        # the keys in first-seen order fix the order of the pvals and of every float sum
        self.first, key = first_seen(batch.trn * len(batch.hypotheses) + batch.hyp)
        self.counts = np.bincount(key).astype(np.float64)
        self._sizes = _boot_sizes(n_boot, len(self.counts), _DRAW_CELLS)
        self._ready: SimpleQueue = SimpleQueue()
        self._slots = threading.Semaphore(_IN_FLIGHT)
        self._closed = False
        rng, pvals = _boot_rng(self.seed), self.counts / self.counts.sum()
        self._thread = threading.Thread(target=self._draw, args=(rng, len(batch), pvals), daemon=True)
        self._thread.start()

    def _draw(self, rng: np.random.Generator, n: int, pvals: np.ndarray) -> None:
        try:
            for size in self._sizes:
                self._slots.acquire()
                if self._closed:
                    return
                self._ready.put(rng.multinomial(n, pvals, size))
        except BaseException as e:  # rows() raises it in the reader
            self._ready.put(e)

    def rows(self) -> Iterator[np.ndarray]:
        """Each call's (replicates, width) int64 pair counts, in order.  A
        call's slot frees when the reader asks for the next one, so the
        reader drops its reference to a call before it asks."""
        for _ in self._sizes:
            if self._closed:
                raise ValueError("the bootstrap draws are closed")
            got = self._ready.get()
            if isinstance(got, BaseException):
                raise got
            yield got
            del got
            self._slots.release()

    def close(self) -> None:
        self._closed = True
        self._slots.release()  # wakes a thread that waits for a slot
        self._thread.join()

    def __enter__(self) -> "VIBootstrap":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def estimate_variational_info(
    batch: RunBatch, n_boot: int = 500, level: float = 0.95, seed: int | None = None, draws: VIBootstrap | None = None
) -> Estimate:
    """Plug-in vi(Z_trn; H) from pair counts, with a bootstrap interval.

    The replicates come from draws, a VIBootstrap of this batch, n_boot
    and seed that the caller started earlier so that they are drawn while
    it computed, else from one started here; draws is closed on return or
    raise, so no thread outlives the call.  They are reduced about _CHUNK
    cells at a time, so peak memory follows max(_CHUNK, n_runs) cells plus
    the draws in flight, not n_boot x n_runs.  stats reduces each row on
    its own: the result equals one draw and reduction of all rows.
    """
    seed = batch.scenario.seed if seed is None else seed
    with VIBootstrap(batch, n_boot, seed) if draws is None else draws as draws:
        if (draws.batch, draws.n_boot, draws.seed) != (batch, n_boot, seed):
            raise ValueError("the bootstrap draws are of another batch, n_boot or seed")
        n, first, c = len(batch), draws.first, draws.counts
        zi = np.unique(batch.trn[first], return_inverse=True)[1]
        hi = batch.hyp[first]
        nz, nh = int(zi.max()) + 1, len(batch.hypotheses)

        def stats(counts: np.ndarray) -> np.ndarray:
            """The plug-in vi of each row of pair counts."""
            rows = np.arange(len(counts))[:, None]
            # one bincount over all rows adds each row's counts in key order
            rz = np.bincount((rows * nz + zi).ravel(), counts.ravel(), len(counts) * nz).reshape(-1, nz)
            ch = np.bincount((rows * nh + hi).ravel(), counts.ravel(), len(counts) * nh).reshape(-1, nh)
            # C order, so each row sum runs along the fast axis with the
            # pairwise summation of a 1-D sum; on the F-ordered product that
            # fancy indexing gives, sum(axis=1) adds in sequence and rounds
            # differently
            prod = np.multiply(rz[:, zi], ch[:, hi], order="C") / (n * n)
            dev = np.abs(counts / n - prod)
            return 0.5 * (dev.sum(axis=1) + (1.0 - prod.sum(axis=1)))

        point = stats(c[None])[0]
        step = max(1, _CHUNK // len(c))
        parts = []
        for counts in draws.rows():
            parts += [stats(counts[lo : lo + step].astype(np.float64)) for lo in range(0, len(counts), step)]
            del counts  # before its slot frees
        boots = np.concatenate(parts)
    lo, hi_q = np.percentile(boots, [(1 - level) / 2 * 100, (1 + level) / 2 * 100])
    notes = []
    if nh > n / 10:
        notes.append(f"{nh} distinct hypotheses in {n} runs: plug-in vi is biased upward")
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
    of the next run, which is independent of it.  Replicates are drawn and
    averaged about _CHUNK cells at a time (_boot_sizes), so peak memory
    follows max(_CHUNK, n_runs) cells, not n_boot x n_runs.  Philox keeps
    its spare 32-bit half-word in the generator's state, so chunked integers
    calls continue one stream, and each replicate is its own row's mean:
    the result equals one draw of all rows.
    """
    seed = batch.scenario.seed if seed is None else seed
    n = len(batch)
    sizes = _boot_sizes(n_boot, n, _CHUNK)
    # each run's loss on its own Z_trn, and on the next run's
    z = batch.scenario.data_dist.alphabet.symbols_at(np.stack((batch.trn, np.roll(batch.trn, -1))))
    a, b = loss_values(loss, z, batch.hypotheses, batch.hyp, False)[0]
    point = a.mean() - b.mean()
    rng = _boot_rng(seed)
    draws = (rng.integers(0, n, (size, n)) for size in sizes)
    boots = np.concatenate([(a[i] - b[i]).mean(axis=1) for i in draws])
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
    risks = true_risk(loss, batch.hypotheses, dist, many=True).astype(np.float64)
    values, _ = loss_values(loss, dist.alphabet.symbols_at(batch.idx), batch.hypotheses, batch.hyp[:, None], False)
    # each row summed from left to right
    emp = np.add.accumulate(values, axis=1)[:, -1]
    return emp / batch.idx.shape[1] - risks[batch.hyp]


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
