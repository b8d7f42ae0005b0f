"""The one sample-space walker: a shared walk gives exactly what the
single-result calls give, both match the ordered brute-force oracles, and
an exact run walks the sample space no more often than it must."""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import pytest

import brute
import stabaudit.corpus as corpus
import stabaudit.learners as learners
from stabaudit.dist import Alphabet, Dist
from stabaudit.harness import EXIT_PASS, ScenarioConfig, build_scenario, run_config
from stabaudit.learners import (
    LearnerKernel,
    Scenario,
    batch_form,
    deviation_sign_side_info,
    exact_threeway_joint,
    exact_trn_hyp_joint,
    mi_request,
    randomized_response_dp,
    sample_hypothesis_mutual_info,
    subsample_release,
    threeway_request,
    trn_hyp_request,
    walk,
)
from stabaudit.losses import deviation_law, deviation_request, membership_loss, zero_one_loss
from stabaudit.numeric import EXACT, FLOAT64
from strategies import BLOCK_SIZES, block_size

F = Fraction


def first_entry_release(domain, mode):
    """Order-dependent kernel: the first entry through randomized response."""
    keep = F(3, 4) if mode.exact else 0.75
    flip = (1 - keep) / (len(domain) - 1)

    def kern(sample):
        return {z: keep if z == sample[0] else flip for z in domain.symbols}

    return LearnerKernel(
        name="first_entry",
        domain=domain,
        kernel=kern,
        hypotheses=lambda m: Alphabet("h", domain.symbols),
        symmetric=False,
    )


def _case(kind, n, m, mode):
    domain = Alphabet.of_size("z", n)
    raw = [F(i + 1) for i in range(n)]
    weights = [w / sum(raw) for w in raw]
    if kind == "subsample":
        learner, loss = subsample_release(domain, k=1, delta=F(1, 2), mode=mode), membership_loss()
    elif kind == "rr":
        learner, loss = randomized_response_dp(1.0, mode=mode, domain=domain), zero_one_loss()
    else:
        learner, loss = first_entry_release(domain, mode), zero_one_loss()
    dist = Dist.from_mapping(domain, dict(zip(domain.symbols, weights)), mode)
    return learner, dist, loss


CASES = [
    ("subsample", 3, 2),
    ("subsample", 4, 3),
    ("rr", 2, 3),
    ("first", 3, 2),
    ("first", 2, 3),
]


def _scenario(learner, dist, loss, m):
    return Scenario(name="w", learner=learner, data_dist=dist, m=m, loss=loss)


def _close(a, b):
    return abs(float(a) - float(b)) <= 1e-12


def _float_law(points):
    merged = []
    for v, p in sorted((float(v), float(p)) for v, p in points):
        if merged and abs(v - merged[-1][0]) <= 1e-9:
            merged[-1][1] += p
        else:
            merged.append([v, p])
    return merged


@pytest.mark.parametrize("mode", [EXACT, FLOAT64], ids=["exact", "float"])
@pytest.mark.parametrize("kind,n,m", CASES)
def test_shared_walk_equals_single_calls_and_brute(kind, n, m, mode):
    learner, dist, loss = _case(kind, n, m, mode)
    threshold = F(1, 4) if mode.exact else 0.25
    shared, single = _scenario(learner, dist, loss, m), _scenario(learner, dist, loss, m)

    side = deviation_sign_side_info(shared, loss, threshold)
    requests = [
        trn_hyp_request(shared),
        threeway_request(shared, side),
        deviation_request(shared, loss),
        mi_request(shared),
    ]
    tj, j3, law, mi = walk(shared, requests)
    tj1 = exact_trn_hyp_joint(single)
    j31 = exact_threeway_joint(single, deviation_sign_side_info(single, loss, threshold))
    law1 = deviation_law(single, loss)
    mi1 = sample_hypothesis_mutual_info(single)

    assert tj.joint.weights.tolist() == tj1.joint.weights.tolist()
    assert (tj.kernel_evals, tj.method) == (tj1.kernel_evals, tj1.method)
    assert j3.weights.tolist() == j31.weights.tolist()
    assert law == law1
    assert mi == mi1

    # the oracles run on the exact-mode twin of the scenario
    exact_learner, exact_dist, _ = _case(kind, n, m, EXACT)
    kernel = exact_learner.kernel
    exact_map = dict(zip(exact_dist.alphabet.symbols, exact_dist.weights))
    exact_side = deviation_sign_side_info(_scenario(exact_learner, exact_dist, loss, m), loss, F(1, 4))
    cells = [
        (brute.joint_pairs(exact_map, kernel, m), tj.joint),
        (brute.threeway_triples(exact_map, kernel, exact_side.fn, m), j3),
    ]
    for oracle, joint in cells:
        for idx, got in zip(itertools.product(*(ax.symbols for ax in joint.axes)), joint.weights.ravel()):
            want = oracle.get(idx, 0)
            assert got == want if mode.exact else _close(got, want)
    points = brute.deviation_points(exact_map, kernel, m, loss.fn)
    if mode.exact:
        assert list(law.points) == points
    else:
        got, want = _float_law(law.points), _float_law(points)
        assert len(got) == len(want)
        assert all(_close(a, c) and _close(b, d) for (a, b), (c, d) in zip(got, want))
    assert mi == pytest.approx(brute.sample_hyp_mi(exact_map, kernel, m), rel=1e-9, abs=1e-12)


def test_exact_run_walks_twice_for_t1_t3_t4_p3(monkeypatch):
    walks, calls = [], []
    walker = learners.iter_weighted_samples

    def counted_walker(*args, **kwargs):
        walks.append(1)
        return walker(*args, **kwargs)

    build, allowed = corpus.LEARNER_BUILDERS["subsample_release"]

    def counted_build(domain, params, mode):
        learner = build(domain, params, mode)

        def kernel(sample):
            calls.append(1)
            return learner.kernel(sample)

        return dataclasses.replace(learner, kernel=kernel)

    monkeypatch.setattr(learners, "iter_weighted_samples", counted_walker)
    monkeypatch.setitem(corpus.LEARNER_BUILDERS, "subsample_release", (counted_build, allowed))
    n, m = 5, 3
    code, bundle = run_config(
        {
            "name": "two-walks",
            "domain": {"size": n},
            "learner": {"name": "subsample_release", "params": {"k": 2, "delta": "1/2"}},
            "loss": {"name": "membership"},
            "m": m,
            "numeric": "exact",
            "audits": ["T1", {"id": "T3", "side": "sign", "threshold": 0.25}, "T4", "P3"],
        }
    )
    assert code == EXIT_PASS
    assert len(walks) == 2
    assert len(calls) == 2 * math.comb(n + m - 1, m)
    assert bundle["quantities"]["kernel_evals"] == math.comb(n + m - 1, m)
    assert "walk" in bundle["timings"]


def test_audit_t5_walks_the_sample_space_once(monkeypatch):
    import stabaudit.audits as audits

    calls = []

    def counted_release(domain, k, delta=1, *, mode):
        learner = subsample_release(domain, k, delta, mode=mode)

        def kernel(sample):
            calls.append(1)
            return learner.kernel(sample)

        return dataclasses.replace(learner, kernel=kernel)

    monkeypatch.setattr(audits, "subsample_release", counted_release)
    n, m = 6, 2
    report = audits.audit_t5(F(1, 2), m, F(3, 10), n)
    assert report.theorem == "T5"
    assert len(calls) == math.comb(n + m - 1, m)


def test_dropped_scenario_is_freed_without_a_collection():
    import gc
    import weakref

    learner, dist, loss = _case("subsample", 4, 2, EXACT)
    scn = _scenario(learner, dist, loss, 2)
    ref = weakref.ref(scn)
    gc.disable()
    try:
        tj = exact_trn_hyp_joint(scn)
        law = deviation_law(scn, loss)
        del scn
        assert ref() is None  # nothing cached on the scenario refers back to it
        assert tj.kernel_evals == math.comb(4 + 2 - 1, 2) and law.points
    finally:
        gc.enable()


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_a_replaced_kernel_is_called_once_per_multiset(size):
    learner, dist, loss = _case("subsample", 4, 3, FLOAT64)
    calls = []

    def kernel(sample):
        calls.append(sample)
        return learner.kernel(sample)

    s = _scenario(dataclasses.replace(learner, kernel=kernel), dist, loss, 3)
    requests = [
        trn_hyp_request(s),
        threeway_request(s, deviation_sign_side_info(s, loss, 0.25)),
        deviation_request(s, loss),
    ]
    with block_size(size):
        walk(s, requests)
    assert calls == list(itertools.combinations_with_replacement(dist.alphabet.symbols, 3))


def test_a_wrapped_kernel_loses_its_batch_form():
    learner = subsample_release(Alphabet.of_size("z", 3), k=2)

    @functools.wraps(learner.kernel)
    def wrapped(sample):
        return learner.kernel(sample)

    assert batch_form(learner.kernel) is not None
    assert wrapped.batch is learner.kernel.batch  # functools.wraps copies it
    assert batch_form(wrapped) is None


def test_release_on_a_domain_listed_out_of_sorted_order():
    raw = {
        "name": "unsorted",
        "domain": {"symbols": ["b", "a", "c"]},
        "learner": {"name": "subsample_release", "params": {"k": 2, "delta": "1/2"}},
        "loss": {"name": "membership"},
        "m": 3,
        "numeric": "exact",
        "audits": ["T1", {"id": "T3", "side": "sign", "threshold": 0.25}, "T4", "P3"],
    }
    code, _ = run_config(raw)
    assert code == EXIT_PASS
    s = build_scenario(ScenarioConfig.from_dict(raw))
    tj = exact_trn_hyp_joint(s)
    assert ("b", "a") in tj.joint.axes[1].symbols
    pairs = brute.joint_pairs(dict(zip(s.data_dist.alphabet.symbols, s.data_dist.weights)), s.learner.kernel, s.m)
    for idx, got in zip(itertools.product(*(ax.symbols for ax in tj.joint.axes)), tj.joint.weights.ravel()):
        assert got == pairs.get(idx, 0)
