"""Ordered brute-force oracles, independent of the package's enumeration.

Everything here walks all n^m ordered samples with plain dicts and exact
Fractions: slow but obviously correct.  Tests cross-check the multiset
engine against these on small scenarios.  The float walk references at
the end instead pin the order of float operations: they sum sorted
multisets one at a time, as a scalar loop would, and the block walk must
agree with them bit for bit.  The Monte Carlo references draw and
estimate one run at a time, in the loops that mc's column code must
match exactly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product

import numpy as np

from stabaudit.losses import true_risk
from stabaudit.mc import Estimate, RunSample


def joint_pairs(dist_map, kernel, m):
    """Sparse P(z_trn, h) over all ordered samples of length m."""
    acc = {}
    symbols = list(dist_map)
    inv_m = Fraction(1, m)
    for sample in product(symbols, repeat=m):
        w = Fraction(1)
        for z in sample:
            w = w * dist_map[z]
        if w == 0:
            continue
        out = kernel(sample)
        for z in sample:
            for h, ph in out.items():
                if ph != 0:
                    key = (z, h)
                    acc[key] = acc.get(key, 0) + w * inv_m * Fraction(ph)
    return acc


def pair_marginals(acc):
    pz, ph = {}, {}
    for (z, h), p in acc.items():
        pz[z] = pz.get(z, 0) + p
        ph[h] = ph.get(h, 0) + p
    return pz, ph


def variational_info_pairs(acc):
    """tv(joint, product of marginals) from a sparse pair dict."""
    pz, ph = pair_marginals(acc)
    total = Fraction(0)
    for z, wz in pz.items():
        for h, wh in ph.items():
            total += abs(acc.get((z, h), 0) - wz * wh)
    return total / 2


def gen_risk_pairs(acc, loss_fn):
    """sum (joint - product) * loss over the pair support."""
    pz, ph = pair_marginals(acc)
    total = Fraction(0)
    for z, wz in pz.items():
        for h, wh in ph.items():
            d = acc.get((z, h), 0) - wz * wh
            if d != 0:
                total += d * Fraction(loss_fn(z, h))
    return total


def deviation_points(dist_map, kernel, m, loss_fn):
    """Exact law of R_emp(h) - R_true(h) as sorted (value, prob) pairs."""
    symbols = list(dist_map)
    true = {}
    acc = {}
    inv_m = Fraction(1, m)
    for sample in product(symbols, repeat=m):
        w = Fraction(1)
        for z in sample:
            w = w * dist_map[z]
        if w == 0:
            continue
        for h, ph in kernel(sample).items():
            if ph == 0:
                continue
            if h not in true:
                true[h] = sum(dist_map[z] * Fraction(loss_fn(z, h)) for z in symbols)
            emp = sum(Fraction(loss_fn(z, h)) for z in sample) * inv_m
            g = emp - true[h]
            acc[g] = acc.get(g, 0) + w * Fraction(ph)
    return sorted(acc.items())


def threeway_triples(dist_map, kernel, side_fn, m):
    """Sparse P(z_trn, h, k) over all ordered samples, K ~ side_fn(sample, h)."""
    acc = {}
    inv_m = Fraction(1, m)
    for sample in product(list(dist_map), repeat=m):
        w = Fraction(1)
        for z in sample:
            w = w * dist_map[z]
        if w == 0:
            continue
        for h, ph in kernel(sample).items():
            if ph == 0:
                continue
            for k, pk in side_fn(sample, h).items():
                if pk == 0:
                    continue
                for z in sample:
                    key = (z, h, k)
                    acc[key] = acc.get(key, 0) + w * inv_m * Fraction(ph) * Fraction(pk)
    return acc


def deviation_sign(dist_map, loss_fn, threshold):
    """Side function: +1 when R_emp(h) - R_true(h) >= threshold, -1 when
    <= -threshold, else 0, from plain Fraction sums."""

    def side(sample, h):
        true = sum(dist_map[z] * Fraction(loss_fn(z, h)) for z in dist_map)
        g = sum(Fraction(loss_fn(z, h)) for z in sample) / len(sample) - true
        return {1 if g >= threshold else -1 if g <= -threshold else 0: 1}

    return side


def float_deviation(loss_fn, fdist, sample, h):
    """Float-mode G of h on a sample: the mean loss over the sample as an
    exact Fraction, rounded once, less float_true_risk under fdist."""
    return float(sum(Fraction(loss_fn(z, h)) for z in sample) / len(sample)) - float_true_risk(loss_fn, h, fdist)


def float_deviation_points(dist_map, kernel, m, loss_fn, fdist, atol=1e-12):
    """Float-mode law of G with exact masses: the float deviations in
    increasing order, each within atol of the first of its group merged
    into it."""
    acc = {}
    for sample in product(list(dist_map), repeat=m):
        w = Fraction(1)
        for z in sample:
            w = w * dist_map[z]
        if w == 0:
            continue
        for h, ph in kernel(sample).items():
            if ph != 0:
                g = float_deviation(loss_fn, fdist, sample, h)
                acc[g] = acc.get(g, 0) + w * Fraction(ph)
    merged = []
    for v, p in sorted(acc.items()):
        if merged and abs(v - merged[-1][0]) <= atol:
            merged[-1][1] += p
        else:
            merged.append([v, p])
    return [(v, p) for v, p in merged]


def float_deviation_sign(loss_fn, fdist, threshold):
    """Side function: the flag of deviation_sign, of the float-mode G."""

    def side(sample, h):
        g = float_deviation(loss_fn, fdist, sample, h)
        return {1 if g >= threshold else -1 if g <= -threshold else 0: 1}

    return side


def sample_hyp_mi(dist_map, kernel, m):
    """Shannon I(S; H) in nats over all ordered samples S."""
    joint = {}
    for sample in product(list(dist_map), repeat=m):
        w = Fraction(1)
        for z in sample:
            w = w * dist_map[z]
        if w == 0:
            continue
        for h, ph in kernel(sample).items():
            if ph != 0:
                joint[sample, h] = w * Fraction(ph)
    ph_marg = {}
    for (_, h), p in joint.items():
        ph_marg[h] = ph_marg.get(h, 0) + p
    ps = {}
    for (s, _), p in joint.items():
        ps[s] = ps.get(s, 0) + p
    return sum(float(p) * math.log(float(p / (ps[s] * ph_marg[h]))) for (s, h), p in joint.items())


def adjacent_epsilon(symbols, kernel, m):
    """Largest |log K(h|S) / K(h|S')| over all ordered S, S' differing in one entry."""
    samples = list(product(symbols, repeat=m))
    best = 0.0
    for s1 in samples:
        for s2 in samples:
            if sum(a != b for a, b in zip(s1, s2)) != 1:
                continue
            d1, d2 = kernel(s1), kernel(s2)
            for h in set(d1) | set(d2):
                p, q = Fraction(d1.get(h, 0)), Fraction(d2.get(h, 0))
                if p == 0 and q == 0:
                    continue
                if p == 0 or q == 0:
                    return float("inf")
                best = max(best, abs(math.log(float(p / q))))
    return best


def _float_multisets(dist, kernel, m):
    """(weight, counts, kernel output) per sorted multiset of positive
    float weight: the multinomial, then times w[i] ** c per group."""
    symbols, w = dist.alphabet.symbols, dist.weights
    for combo in combinations_with_replacement(range(len(symbols)), m):
        counts = [(i, len(list(g))) for i, g in groupby(combo)]
        weight, rem = 1, m
        for _, c in counts:
            weight *= math.comb(rem, c)
            rem -= c
        for i, c in counts:
            weight = weight * w[i] ** c
        if weight != 0:
            yield float(weight), counts, kernel(tuple(symbols[i] for i in combo))


def walk_float_joint(dist, kernel, m):
    """Float P(z_trn, h): each cell adds (w * c / m) * p in visit order."""
    symbols, acc = dist.alphabet.symbols, {}
    for w, counts, out in _float_multisets(dist, kernel, m):
        for h, ph in out.items():
            if ph:
                for i, c in counts:
                    key = (symbols[i], h)
                    acc[key] = acc.get(key, 0.0) + w * c / m * ph
    return acc


def walk_float_mi(dist, kernel, m):
    """Float I(S; H): the marginal summed per h in visit order, then the
    log terms w * p * log(p / P(h)) summed in visit order."""
    rows = list(_float_multisets(dist, kernel, m))
    marg = {}
    for w, _, out in rows:
        for h, ph in out.items():
            if ph:
                marg[h] = marg.get(h, 0) + w * ph
    total = 0.0
    for w, _, out in rows:
        for h, ph in out.items():
            if ph:
                total += w * ph * math.log(float(ph) / marg[h])
    return total


# ---------------------------------------------------------------------------
# Monte Carlo, one run at a time


@dataclass(frozen=True, eq=False)
class RunList:
    """Drawn runs plus the scenario they came from."""

    scenario: object
    runs: tuple

    def __iter__(self):
        return iter(self.runs)

    def __len__(self):
        return len(self.runs)


def _boot_rng(seed):
    """The bootstrap's stream: numpy's Philox under the key (seed + 1, 0xB007)."""
    return np.random.Generator(np.random.Philox(key=((seed + 1) << 64) | 0xB007))


def mc_draw_runs(scenario, n_runs, seed=None):
    """Draw (sample, Z_trn, H) triples; stream i is keyed by (seed, i).
    The cdf is 1.0 from the last positive weight on."""
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    seed = scenario.seed if seed is None else seed
    dist = scenario.data_dist
    symbols = dist.alphabet.symbols
    w = dist.weights.astype(np.float64)
    cdf = np.cumsum(w)
    cdf[np.flatnonzero(w)[-1] :] = 1.0
    m = scenario.m
    kernel = scenario.learner.kernel
    runs = []
    for i in range(n_runs):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) | i))
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
    return RunList(scenario=scenario, runs=tuple(runs))


def mc_variational_info(batch, n_boot=500, level=0.95, seed=None):
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

    def stat(counts):
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
        notes.append(f"{len(h_ids)} distinct hypotheses in {n} runs: plug-in vi is biased upward")
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


def mc_gen_risk(batch, loss, n_boot=500, seed=None):
    """Paired term minus the term rotated by one run, with a bootstrap."""
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


def mc_deviations(batch, loss):
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


def float_true_risk(loss_fn, h, dist):
    """Float E L(Z, h): w * L(z, h) added in symbol order over the positive weights."""
    total = 0
    for z, w in zip(dist.alphabet.symbols, dist.weights):
        if w != 0:
            total = total + w * loss_fn(z, h)
    return total


def prop1_float_true_risk(in_sample_value, h, dist):
    """The memorizer's float true risk of h = (key, b): 0.5 plus
    w(z) * float(in_sample_value(b) - 1/2) for each z in set(key), added one
    at a time in set order."""
    key, b = h
    step = float(Fraction(in_sample_value(b)) - Fraction(1, 2))
    symbols = list(dist.alphabet.symbols)
    total = 0.5
    for z in set(key):
        total += float(dist.weights[symbols.index(z)]) * step
    return total


def bisect_picks(kernel, samples, sample_of, u):
    """Each run's hypothesis from the running float sums of its sample's
    kernel output, found with bisect_right; ids in first-seen order."""
    from bisect import bisect_right

    outputs = []
    for sample in samples:
        acc, hs, total = [], [], 0.0
        for h, ph in kernel(tuple(sample)).items():
            total += float(ph)
            acc.append(total)
            hs.append(h)
        outputs.append((acc, hs))
    ids: dict = {}
    hyp = []
    for g, x in zip(sample_of, u):
        acc, hs = outputs[g]
        h = hs[min(bisect_right(acc, x), len(hs) - 1)] if hs else None
        hyp.append(ids.setdefault(h, len(ids)))
    return hyp, tuple(ids)
