import math
from fractions import Fraction

import numpy as np
import pytest

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
    membership_loss,
    prop1_paired_loss,
    zero_one_loss,
)
from stabaudit.mc import (
    _wilson,
    deviations,
    draw_runs,
    estimate_gen_risk,
    estimate_tail,
    estimate_variational_info,
    run_streams,
)
from stabaudit.numeric import EXACT

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


def _draws(rng, m):
    """A mix of the draws draw_runs makes, plus 32-bit integers, which
    leave half a word buffered in the bit generator."""
    return (
        rng.random(m).tolist(),
        int(rng.integers(m)),
        rng.random(),
        rng.integers(0, 7, size=3, dtype=np.uint32).tolist(),
        int(rng.integers(2**40)),
    )


def _outcome(make, m):
    try:
        return _draws(make(), m)
    except ValueError as e:  # a key past 2**128
        return str(e)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5, 2**63 + 11, 2**64 - 1, 2**64, 3 << 70])
def test_reset_streams_draw_as_fresh_generators(seed):
    stream = run_streams(seed)
    for i in [0, 1, 2, 3, 17, 255, 4096, 2**32 + 1, 2**63, 2**64 - 1, 2**64, 2**70 + 3, 5, 1]:
        m = 1 + i % 5
        fresh = _outcome(lambda: np.random.Generator(np.random.Philox(key=(seed << 64) | i)), m)
        assert _outcome(lambda: stream(i), m) == fresh, (seed, i)
