import csv
import dataclasses
import functools
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
from stabaudit.dist import Alphabet, Dist
from stabaudit.learners import (
    Scenario,
    prop1_counterexample,
    randomized_response_dp,
    subsample_release,
)
from stabaudit.losses import (
    deviation_law,
    expected_gen_risk,
    loss_values,
    membership_loss,
    prop1_flipped_loss,
    prop1_paired_loss,
    random_table_loss,
    true_risk,
    zero_one_loss,
)
from stabaudit import mc
from stabaudit.mc import (
    _run_draws,
    _wilson,
    bounded,
    deviations,
    draw_runs,
    estimate_gen_risk,
    estimate_tail,
    estimate_variational_info,
    philox_words,
    pick_hypotheses,
    symbol_indices,
    uniforms,
)
from stabaudit.numeric import EXACT, FLOAT64

F = Fraction


def make_scenario(learner, m, loss=None, seed=0, name="s"):
    dist = Dist.uniform(learner.domain, EXACT)
    return Scenario(name=name, learner=learner, data_dist=dist, m=m, loss=loss, seed=seed)


@pytest.fixture
def identity():
    d = Alphabet.of_size("z", 3)
    return make_scenario(subsample_release(d, k=1, mode=EXACT), m=1, loss=membership_loss())


@pytest.fixture
def rr3():
    return make_scenario(randomized_response_dp(math.log(2), mode=EXACT), m=3, loss=zero_one_loss())


# ---------------------------------------------------------------------------
# drawing runs


def test_draw_runs_is_seed_deterministic(identity):
    a = draw_runs(identity, 20, seed=5)
    b = draw_runs(identity, 20, seed=5)
    c = draw_runs(identity, 20, seed=6)
    assert a.runs == b.runs
    assert a.runs != c.runs


def test_runs_are_independent_of_batch_size(identity):
    short = draw_runs(identity, 5, seed=3)
    long = draw_runs(identity, 40, seed=3)
    assert short.runs == long.runs[:5]


def test_runs_are_internally_consistent(rr3):
    batch = draw_runs(rr3, 50, seed=1)
    hyp = rr3.learner.hypotheses(3)
    for run in batch:
        assert len(run.sample) == 3
        assert run.trn_example in run.sample
        assert run.hypothesis in hyp.index
        assert run.seed_path[0] == 1
    assert len(batch) == 50


def test_draw_runs_rejects_empty_batches(identity):
    with pytest.raises(ValueError):
        draw_runs(identity, 0)


def test_skewed_sampling_tracks_the_distribution():
    d = Alphabet.of_size("z", 2)
    learner = subsample_release(d, k=1, mode=EXACT)
    dist = Dist.from_mapping(d, {0: F(9, 10), 1: F(1, 10)}, EXACT)
    scenario = Scenario(name="skew", learner=learner, data_dist=dist, m=1)
    batch = draw_runs(scenario, 2000, seed=0)
    share = sum(run.sample[0] == 0 for run in batch) / 2000
    assert abs(share - 0.9) < 0.03


# ---------------------------------------------------------------------------
# variational information estimates


def test_info_estimate_recovers_identity(identity):
    batch = draw_runs(identity, 4000, seed=2)
    est = estimate_variational_info(batch, seed=2)
    assert est.method == "plugin+bootstrap"
    assert est.ci_low < est.ci_high
    assert abs(est.point - 2 / 3) <= 4 * est.se
    assert est.n_runs == 4000


def test_info_estimate_recovers_randomized_response(rr3):
    batch = draw_runs(rr3, 4000, seed=4)
    est = estimate_variational_info(batch, seed=4)
    assert abs(est.point - 1 / 12) <= 4 * est.se + 0.01


def test_info_estimate_warns_when_hypotheses_outnumber_runs():
    scenario = make_scenario(prop1_counterexample(50), m=2, seed=0)
    batch = draw_runs(scenario, 50, seed=0)
    est = estimate_variational_info(batch, n_boot=50, seed=0)
    assert any("biased upward" in note for note in est.notes)


# ---------------------------------------------------------------------------
# generalization risk estimates


def test_gen_risk_estimate_matches_exact(identity):
    batch = draw_runs(identity, 3000, seed=7)
    est = estimate_gen_risk(batch, membership_loss(), seed=7)
    exact = float(expected_gen_risk(identity, membership_loss()))
    assert est.method == "paired-vs-rotated+bootstrap"
    assert abs(est.point - exact) <= 4 * est.se


def test_gen_risk_estimate_is_near_zero_for_the_paired_memorizer():
    scenario = make_scenario(prop1_counterexample(100), m=3, seed=0)
    batch = draw_runs(scenario, 2000, seed=0)
    est = estimate_gen_risk(batch, prop1_paired_loss(), seed=0)
    assert abs(est.point) <= 4 * est.se


# ---------------------------------------------------------------------------
# deviations and tails


def test_deviations_identity_are_constant(identity):
    batch = draw_runs(identity, 100, seed=9)
    g = deviations(batch, membership_loss())
    assert np.allclose(g, 2 / 3)


def test_deviations_live_on_the_exact_law_support(rr3):
    batch = draw_runs(rr3, 200, seed=11)
    g = deviations(batch, zero_one_loss())
    support = [float(v) for v, _ in deviation_law(rr3, zero_one_loss()).points]
    for value in g:
        assert any(abs(value - s) <= 1e-12 for s in support)


def test_tail_report_identity(identity):
    batch = draw_runs(identity, 100, seed=13)
    report = estimate_tail(batch, membership_loss(), t_grid=(0.5, 0.7))
    assert report.n_runs == 100
    assert report.mean_abs_deviation.point == pytest.approx(2 / 3)
    assert report.mean_abs_deviation.se == pytest.approx(0, abs=1e-12)
    by_t = {p.t: p for p in report.points}
    assert by_t[0.5].estimate == 1.0
    assert by_t[0.5].ci_high == 1.0
    assert by_t[0.7].estimate == 0.0
    assert by_t[0.7].ci_low == pytest.approx(0, abs=1e-12)


def test_wilson_hand_values():
    lo, hi = _wilson(5, 10)
    assert lo == pytest.approx(0.2366, abs=5e-4)
    assert hi == pytest.approx(0.7634, abs=5e-4)
    assert _wilson(0, 10)[0] == 0.0
    assert _wilson(10, 10)[1] == pytest.approx(1.0, abs=1e-12)
    assert _wilson(0, 0) == (0.0, 1.0)
    # interval narrows with more runs
    assert _wilson(50, 100)[1] - _wilson(50, 100)[0] < hi - lo


# ---------------------------------------------------------------------------
# Philox words in arrays against numpy's generators

SEEDS = [0, 1, 7, 23, 2**31 + 5, 2**63 + 5, 2**64 - 1]
RUNS = [0, 1, 2, 3, 17, 255, 4096, 2**32 + 1, 2**63 + 5, 2**64 - 1]


def _philox(seed, i):
    return np.random.Philox(key=(seed << 64) | i)


@pytest.mark.parametrize("seed", SEEDS)
def test_philox_words_are_numpys_raw_words(seed):
    for n_words in (1, 2, 3, 4, 5, 9, 52):
        words = philox_words(seed, np.array(RUNS, dtype=np.uint64), n_words)
        assert words.dtype == np.uint64 and words.shape == (len(RUNS), n_words)
        assert words.tolist() == [_philox(seed, i).random_raw(n_words).tolist() for i in RUNS], n_words


@pytest.mark.parametrize("name", ["philox-testset-1.csv", "philox-testset-2.csv"])
def test_philox_words_match_numpys_known_answers(name):
    path = os.path.join(os.path.dirname(np.random.__file__), "tests", "data", name)
    with open(path) as f:
        rows = list(csv.reader(f))
    seed = int(rows[0][1], 0)
    want = [int(x, 0) for _, x in rows[1:]]
    k0, k1 = np.random.Philox(seed).state["state"]["key"].tolist()
    assert philox_words(k1, np.array([k0], dtype=np.uint64), len(want))[0].tolist() == want


def _per_run(seed, n_runs, m):
    u, at, pick = [], [], []
    for i in range(n_runs):
        rng = np.random.Generator(_philox(seed, i))
        u.append(rng.random(m).tolist())
        at.append(int(rng.integers(m)))
        pick.append(rng.random())
    return u, at, pick


@pytest.mark.parametrize("m", [1, 2, 3, 50])
@pytest.mark.parametrize("seed", [0, 23, 2**63 + 5, 2**64 - 1])
def test_run_draws_equal_fresh_generators(seed, m):
    u, at, pick = _run_draws(seed, 70, m)
    assert (u.tolist(), at.tolist(), pick.tolist()) == _per_run(seed, 70, m)


@pytest.mark.parametrize("seed", [-1, 2**64, 3 << 70])
def test_keys_past_64_bits_go_through_the_per_run_streams(seed, monkeypatch):
    monkeypatch.setattr(mc, "philox_words", None)  # not reached
    with pytest.raises(ValueError) as got:
        _run_draws(seed, 3, 2)
    with pytest.raises(ValueError) as want:
        _per_run(seed, 3, 2)
    assert str(got.value) == str(want.value)


def test_runs_that_lemire_rejects_are_drawn_again(monkeypatch):
    def reject_odd(words, bound):
        value, kept = bounded(words, bound)
        return value, kept & (np.arange(len(words)) % 2 == 0)

    monkeypatch.setattr(mc, "bounded", reject_odd)
    u, at, pick = _run_draws(5, 40, 7)
    assert (u.tolist(), at.tolist(), pick.tolist()) == _per_run(5, 40, 7)


def test_run_draws_chunk_their_runs(monkeypatch):
    monkeypatch.setattr(mc, "_CHUNK", 8)  # 2 blocks per run of m = 5: 4 runs per chunk
    u, at, pick = _run_draws(9, 11, 5)
    assert (u.tolist(), at.tolist(), pick.tolist()) == _per_run(9, 11, 5)


@pytest.mark.parametrize("bound", [2, 3, 50, 2**31 + 1, 3 * 10**9 + 1, 2**32 - 1])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_the_integer_step_is_numpys_lemire_draw(seed, bound):
    runs = list(range(150)) + [2**63 + 5, 2**64 - 1]
    words = philox_words(seed, np.array(runs, dtype=np.uint64), 2)
    value, kept = bounded(words[:, 0], bound)
    # numpy draws again from the high half of the word where Lemire rejects
    again, kept_again = bounded(words[:, 0] >> np.uint64(32), bound)
    if bound in (2**31 + 1, 3 * 10**9 + 1):
        assert 0 < kept.sum() < len(runs)  # rejections occur at these bounds
    for i, v, k, v2, k2, w in zip(runs, value.tolist(), kept.tolist(), again.tolist(), kept_again.tolist(), words):
        rng = np.random.Generator(_philox(seed, i))
        got = int(rng.integers(bound))
        if k:
            assert got == v < bound
        elif k2:
            assert got == v2 < bound
        if k or k2:  # one word read, as far as the next uniform goes
            assert rng.random() == uniforms(w[1])


# ---------------------------------------------------------------------------
# picks from padded running sums against the bisect loop


def test_picks_from_running_sums_equal_the_bisect_loop():
    outputs = [
        {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)},
        {},
        {"b": 0.1, "d": 0.0, "a": 0.2, "e": 0.7},
        {"f": 1},
        {"c": 0.5, "a": 0.25},  # sums to less than one
    ]
    samples = [(i,) for i in range(len(outputs))]

    def kernel(sample):
        return outputs[sample[0]]

    sample_of, u = [], []
    for g, out in enumerate(outputs):
        total, sums = 0.0, [0.0]
        for p in out.values():
            total += float(p)
            sums.append(total)
        for x in sums + [1.0 - 2.0**-53]:
            for y in (x, np.nextafter(x, 2.0), np.nextafter(x, -1.0)):
                if 0.0 <= y < 1.0:
                    sample_of.append(g)
                    u.append(float(y))
    order = np.random.default_rng(1).permutation(len(u))
    sample_of, u = np.array(sample_of)[order], np.array(u)[order]
    hyp, hs = pick_hypotheses(kernel, samples, sample_of, u)
    want_hyp, want_hs = brute.bisect_picks(kernel, samples, sample_of.tolist(), u.tolist())
    assert hyp.tolist() == want_hyp and hs == want_hs
    assert set(hs) == {None, "a", "b", "c", "e", "f"}  # "d" has probability 0


def test_picks_over_a_wide_output_are_counted_in_chunks():
    # 2^17 + 3 entries: the runs are counted 7 at a time
    wide = {i: 1.0 / (2**17 + 3) for i in range(2**17 + 3)}
    kernel = {(0,): wide, (1,): {"x": 1.0}}.__getitem__
    u = np.random.default_rng(4).random(40)
    sample_of = np.arange(40) % 3 // 2
    hyp, hs = pick_hypotheses(kernel, [(0,), (1,)], sample_of, u)
    assert (hyp.tolist(), hs) == brute.bisect_picks(kernel, [(0,), (1,)], sample_of.tolist(), u.tolist())


# ---------------------------------------------------------------------------
# the memorizer's float true risks in one batch


@st.composite
def _memorizer_cases(draw):
    n = draw(st.integers(2, 24))  # sets of ints past 8 iterate out of sorted order
    raw = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n).filter(any))
    weights = np.array(raw, dtype=np.float64) / sum(raw)
    positional = draw(st.booleans())
    domain = Alphabet.of_size("z", n) if positional else Alphabet("z", tuple(range(n)))
    keys = st.lists(st.integers(0, n - 1), min_size=1, max_size=12).map(lambda k: tuple(sorted(k)))
    hyps = draw(st.lists(st.tuples(keys, st.integers(0, 1)), min_size=1, max_size=12))
    return Dist(domain, weights), hyps


@settings(max_examples=80, deadline=None)
@given(_memorizer_cases(), st.sampled_from([(prop1_paired_loss, lambda b: 1 - b), (prop1_flipped_loss, lambda b: 1)]))
def test_batch_memorizer_risks_equal_the_per_hypothesis_risks(case, losses):
    dist, hyps = case
    make_loss, in_sample_value = losses
    loss = make_loss()
    got = true_risk(loss, hyps, dist, many=True)
    assert got.dtype == np.float64 and got.shape == (len(hyps),)
    assert got.tolist() == [loss.true_risk_fn(h, dist) for h in hyps]
    assert got.tolist() == [brute.prop1_float_true_risk(in_sample_value, h, dist) for h in hyps]


def test_exact_monte_carlo_deviations_take_the_memorizer_closed_form():
    """An exact Monte Carlo batch holds its hypotheses as a sequence, whose
    risks come from the memorizer's closed form, once per hypothesis."""
    loss, calls = prop1_paired_loss(), []
    counted = dataclasses.replace(loss, true_risk_fn=lambda h, dist: calls.append(h) or loss.true_risk_fn(h, dist))
    batch = draw_runs(_prop1(counted), 50, seed=3)
    g = deviations(batch, counted)
    assert calls == list(batch.hypotheses)
    assert g.tolist() == deviations(batch, loss).tolist()


def test_true_risks_of_a_batch_make_one_true_risk_call(monkeypatch):
    scenario = _prop1(prop1_paired_loss(), FLOAT64)
    batch = draw_runs(scenario, 200, seed=3)
    calls = []

    def counted(*args, **kwargs):
        calls.append(true_risk(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(mc, "true_risk", counted)
    deviations(batch, scenario.loss)
    assert len(calls) == 1 and len(batch.hypotheses) > 100
    assert calls[0].tolist() == [true_risk(scenario.loss, h, scenario.data_dist) for h in batch.hypotheses]


# ---------------------------------------------------------------------------
# columns against the per-run oracles of brute.py


def _wrapped_kernel(learner):
    @functools.wraps(learner.kernel)
    def kernel(sample):
        return learner.kernel(sample)

    return dataclasses.replace(learner, kernel=kernel)


def _wrapped_loss(loss):
    @functools.wraps(loss.fn)
    def fn(z, h):
        return loss.fn(z, h)

    return dataclasses.replace(loss, fn=fn, _tables={})


def _prop1(loss, mode=EXACT, wrap=False):
    learner = prop1_counterexample(16)
    if wrap:
        learner, loss = _wrapped_kernel(learner), _wrapped_loss(loss)
    return Scenario(name="p", learner=learner, data_dist=Dist.uniform(learner.domain, mode), m=3, loss=loss)


def _skewed_float():
    d = Alphabet.of_size("z", 6)
    dist = Dist(d, [0.4, 0.25, 0.0, 0.2, 0.15, 0.0])
    learner = subsample_release(d, k=2, delta=0.3)
    return Scenario(name="f", learner=learner, data_dist=dist, m=3, loss=membership_loss())


def _float_table_m9():
    s = _skewed_float()
    loss = random_table_loss(s.learner.domain, s.learner.hypotheses(9), seed=3, levels=7)
    return dataclasses.replace(s, m=9, loss=loss, _cache={})


def _ordered_release():
    s = _skewed_float()
    return dataclasses.replace(s, learner=dataclasses.replace(s.learner, symmetric=False), _cache={})


def _strings():
    d = Alphabet("z", ("b", "a", "c"))
    dist = Dist.from_mapping(d, {"b": F(1, 2), "a": F(1, 3), "c": F(1, 6)}, EXACT)
    learner = subsample_release(d, k=2, mode=EXACT)
    return Scenario(name="s", learner=learner, data_dist=dist, m=3, loss=membership_loss())


def _identity():
    learner = subsample_release(Alphabet.of_size("z", 3), k=1, mode=EXACT)
    return make_scenario(learner, m=1, loss=membership_loss())


ORACLE_CASES = {
    "identity": _identity,
    "rr3": lambda: make_scenario(randomized_response_dp(math.log(2), mode=EXACT), m=3, loss=zero_one_loss()),
    "prop1-paired": lambda: _prop1(prop1_paired_loss()),
    "prop1-flipped": lambda: _prop1(prop1_flipped_loss()),
    "prop1-paired-float": lambda: _prop1(prop1_paired_loss(), FLOAT64),
    "prop1-flipped-float": lambda: _prop1(prop1_flipped_loss(), FLOAT64),
    "skewed-float": _skewed_float,
    "float-table-m9": _float_table_m9,
    "ordered-release": _ordered_release,
    "strings-out-of-order": _strings,
    "wrapped-kernel-and-loss": lambda: _prop1(prop1_paired_loss(), FLOAT64, wrap=True),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
@pytest.mark.parametrize("seed", [0, 5])
def test_columns_equal_the_per_run_oracles(case, seed):
    scenario = ORACLE_CASES[case]()
    loss = scenario.loss
    batch = draw_runs(scenario, 400, seed=seed)
    ref = brute.mc_draw_runs(scenario, 400, seed=seed)
    assert batch.runs == ref.runs
    assert len(batch) == 400 and list(batch) == list(ref.runs)
    assert estimate_variational_info(batch, seed=seed) == brute.mc_variational_info(ref, seed=seed)
    assert estimate_gen_risk(batch, loss, seed=seed) == brute.mc_gen_risk(ref, loss, seed=seed)
    g = deviations(batch, loss)
    assert g.dtype == np.float64 and g.tolist() == brute.mc_deviations(ref, loss).tolist()


def test_the_kernel_runs_once_per_distinct_ordered_sample():
    scenario = _skewed_float()
    calls = []

    def kernel(sample):
        calls.append(sample)
        return scenario.learner.kernel(sample)

    learner = dataclasses.replace(scenario.learner, kernel=kernel)
    counted = dataclasses.replace(scenario, learner=learner, _cache={})
    batch = draw_runs(counted, 300, seed=2)
    samples = [run.sample for run in batch]
    assert calls == list(dict.fromkeys(samples))
    assert batch.runs == brute.mc_draw_runs(scenario, 300, seed=2).runs


def test_a_wrapped_loss_loses_its_batch_form():
    loss = prop1_paired_loss()
    assert getattr(loss.fn, "batch", None) is not None
    wrapped = _wrapped_loss(loss)
    # functools.wraps copies the attribute; the batch form is not used for it
    assert wrapped.fn.batch is loss.fn.batch
    scenario = _prop1(prop1_paired_loss(), FLOAT64)
    batch = draw_runs(scenario, 200, seed=4)
    assert deviations(batch, wrapped).tolist() == deviations(batch, loss).tolist()


@pytest.mark.parametrize("make_loss", [prop1_paired_loss, prop1_flipped_loss])
def test_prop1_batch_form_matches_fn(make_loss):
    rng = np.random.default_rng(3)
    loss = make_loss()
    sizes, bits = rng.integers(1, 6, 40).tolist(), rng.integers(0, 2, 40).tolist()
    hyps = [(tuple(sorted(rng.integers(0, 20, size=k).tolist())), b) for k, b in zip(sizes, bits)]
    z = rng.integers(0, 20, size=(7, 40))
    h = rng.integers(0, 40, size=(7, 40))
    got = loss_values(loss, z, hyps, h, False)[0]
    want = [[float(loss.fn(int(a), hyps[b])) for a, b in zip(zr, hr)] for zr, hr in zip(z, h)]
    assert got.shape == z.shape and got.tolist() == want
    objects = np.array(z.ravel().tolist(), dtype=object).reshape(z.shape)
    assert loss_values(loss, objects, hyps, h, False)[0].tolist() == want


def test_a_uniform_below_one_never_draws_a_zero_weight_symbol():
    weights = [0.7, 0.2, 0.1, 0.0]
    assert np.cumsum(weights)[-2] < 1.0  # the float gap the last uniforms fall in
    top = 1.0 - 2.0**-53  # the largest value random() returns
    assert symbol_indices(weights, np.array([top])).tolist() == [2]
    u = np.random.default_rng(0).random((50, 7))
    plain = np.cumsum(weights)
    plain[-1] = 1.0
    assert symbol_indices(weights, u).tolist() == np.searchsorted(plain, u, side="right").tolist()
    inner = [0.5, 0.0, 0.5, 0.0]
    assert set(symbol_indices(inner, np.append(u.ravel(), top)).tolist()) == {0, 2}
    exact = np.array([F(1, 2), F(1, 2), F(0)], dtype=object)
    assert symbol_indices(exact, np.array([[top, 0.5, 0.25]])).tolist() == [[1, 1, 0]]


class _SymbolReads:
    """Stands in for Alphabet.symbols and counts its reads on positional
    alphabets; other alphabets keep their symbols in the instance dict."""

    def __init__(self):
        self.reads = 0

    def __get__(self, alphabet, owner=None):
        if alphabet is None:
            return self
        self.reads += 1
        return tuple(range(len(alphabet)))


def test_a_prop1_mc_run_never_reads_the_positional_symbols(monkeypatch):
    from stabaudit.corpus import corpus_configs
    from stabaudit.harness import run_config

    (cfg,) = [c for c in corpus_configs() if c["name"] == "prop1-mc"]
    assert cfg["domain"]["size"] >= 10**6
    guard = _SymbolReads()
    monkeypatch.setattr(Alphabet, "symbols", guard)
    rc, bundle = run_config(cfg, overrides={"n_runs": 500})
    assert rc == 0, bundle
    assert bundle["estimates"]["info"]["n_runs"] == 500
    assert guard.reads == 0
    # the guard does count reads
    assert Alphabet.of_size("z", 3).symbols == (0, 1, 2) and guard.reads == 1


# ---------------------------------------------------------------------------
# true risks from the loss's array form


@pytest.mark.parametrize("mode", [EXACT, FLOAT64])
@pytest.mark.parametrize("make_loss", [membership_loss, zero_one_loss])
def test_true_risks_from_table_columns_equal_the_per_hypothesis_risks(mode, make_loss):
    d = Alphabet.of_size("z", 6)
    raw = [3, 0, 1, 5, 2, 0]
    weights = [F(r, sum(raw)) for r in raw]
    dist = Dist(d, np.array(weights if mode.exact else [float(w) for w in weights], dtype=mode.dtype))
    scenario = Scenario(name="s", learner=subsample_release(d, k=2, delta=F(1, 2), mode=mode), data_dist=dist, m=3)
    batch = draw_runs(scenario, 300, seed=4)
    loss = make_loss()
    want = np.array([float(true_risk(loss, h, dist)) for h in batch.hypotheses])
    got = true_risk(loss, batch.hypotheses, dist, many=True)
    assert got.dtype == (object if mode.exact else np.float64)
    assert np.array_equal(got.astype(np.float64), want)
    assert len(batch.hypotheses) > 1


def test_true_risks_of_a_large_domain_go_in_chunks():
    # 2^17 symbols: 8 hypotheses per chunk of at most 2^20 cells
    n = 2**17
    d = Alphabet.of_size("z", n)
    scenario = Scenario(name="s", learner=subsample_release(d, k=1, mode=EXACT), data_dist=Dist.uniform(d, EXACT), m=2)
    batch = draw_runs(scenario, 40, seed=2)
    assert len(batch.hypotheses) > 8
    risks = true_risk(membership_loss(), batch.hypotheses, scenario.data_dist, many=True)
    assert [float(r) for r in risks] == [len(set(h)) / n for h in batch.hypotheses]


def _full_cdf_indices(weights, u):
    """symbol_indices by one cumulative sum over every weight."""
    w = np.asarray(weights, dtype=np.float64)
    cdf = np.cumsum(w)
    cdf[-1 if w[-1] > 0 else np.flatnonzero(w)[-1] :] = 1.0
    return np.searchsorted(cdf, u, side="right")


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("zero_tail", [False, True])
def test_chunked_cdf_draws_what_the_full_cdf_draws(offset, zero_tail):
    chunk = mc._CDF_CHUNK
    n = chunk + offset
    rng = np.random.default_rng(n)
    w = rng.random(n)
    w[chunk // 2 : chunk // 2 + 9] = 0.0  # a zero run inside the first chunk
    if zero_tail:  # from 5 before the chunk edge to the end, across it when n > chunk
        w[chunk - 5 :] = 0.0
    w /= w.sum()
    cdf = np.cumsum(w)
    edges = cdf[chunk - 1 :: chunk] if n >= chunk else cdf[-1:]
    top = 1.0 - 2.0**-53
    u = np.concatenate((rng.random(5_000), edges, cdf[chunk // 2 - 1 : chunk // 2 + 10], cdf[-8:], [0.0, top]))
    u = rng.permutation(u).reshape(-1, 1)
    assert symbol_indices(w, u).tolist() == _full_cdf_indices(w, u).tolist()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=30).filter(any), st.integers(1, 5), st.data())
def test_chunked_cdf_on_small_chunks(raw, chunk, data):
    w = np.array(raw, dtype=np.float64) / sum(raw)
    cdf = np.cumsum(w)
    extra = data.draw(st.lists(st.floats(0, 1, exclude_max=True), max_size=10))
    u = np.array(cdf.tolist() + extra + [1.0 - 2.0**-53])
    u = u[u < 1.0]
    saved = mc._CDF_CHUNK
    mc._CDF_CHUNK = chunk
    try:
        got = symbol_indices(w, u)
    finally:
        mc._CDF_CHUNK = saved
    assert got.tolist() == _full_cdf_indices(w, u).tolist()
