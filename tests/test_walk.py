"""The one sample-space walker: a shared walk gives exactly what the
single-result calls give, both match the ordered brute-force oracles, and
an exact run walks the sample space no more often than it must."""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import brute
import stabaudit.corpus as corpus
import stabaudit.learners as learners
from stabaudit.dist import Alphabet, Dist
from stabaudit.harness import EXIT_PASS, ScenarioConfig, build_scenario, run_config
from stabaudit.learners import (
    EnumerationBudgetError,
    LearnerKernel,
    Scenario,
    batch_form,
    enumeration_size,
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
    with_batch,
)
from stabaudit.losses import (
    deviation_law,
    deviation_request,
    kept_worst_case_loss,
    membership_loss,
    worst_case_loss,
    zero_one_loss,
)
from stabaudit.numeric import EXACT, FLOAT64
from strategies import BLOCK_SIZES, block_size, losses, releases, scenarios

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


def _scalar_multinomial(m, combo):
    """m! / prod c! for a sorted multiset, as a product of binomials, one
    group at a time."""
    coeff, rem = 1, m
    for _, group in itertools.groupby(combo):
        c = len(list(group))
        coeff *= math.comb(rem, c)
        rem -= c
    return coeff


@pytest.mark.parametrize("mode", [EXACT, FLOAT64], ids=["exact", "float"])
@pytest.mark.parametrize("n,m", [(2, 20), (3, 20), (2, 21), (3, 21), (2, 24), (3, 24)])
def test_symmetric_walks_past_20_factorial_take_the_scalar_multinomials(n, m, mode):
    """Symmetric walks with m = 20 (m! fits int64), 21 and 24 (m! does not):
    each multiset's weight is the scalar multinomial times w[i] ** c per
    group, in float mode in that order and bit for bit, and the joint is the
    sum of w * c / m * p over them (the scalar walk's, in float mode)."""
    learner, dist, _ = _case("subsample", n, m, mode)
    symbols, w = dist.alphabet.symbols, dist.weights
    combos = list(itertools.combinations_with_replacement(range(n), m))
    walked = list(learners.iter_weighted_samples(dist, m))
    assert [sample for sample, _, _ in walked] == [tuple(symbols[i] for i in c) for c in combos]
    want_joint = {}
    for (sample, weight, counts), combo in zip(walked, combos):
        want = _scalar_multinomial(m, combo)
        want = want if mode.exact else float(want)
        for i, group in itertools.groupby(combo):
            want = want * w[i] ** len(list(group))
        assert type(weight) is type(want) and weight == want
        for h, p in learner.kernel(sample).items() if mode.exact else ():
            for i, c in counts:
                want_joint[symbols[i], h] = want_joint.get((symbols[i], h), 0) + want * F(c, m) * p
    joint = exact_trn_hyp_joint(_scenario(learner, dist, None, m)).joint
    if not mode.exact:
        want_joint = brute.walk_float_joint(dist, learner.kernel, m)
    for idx, got in zip(itertools.product(*(ax.symbols for ax in joint.axes)), joint.weights.ravel().tolist()):
        assert got == want_joint.get(idx, 0)


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


def test_exact_run_walks_once_for_t1_t3_t4_p3(monkeypatch):
    # the walk fits in one block, so I(S;H)'s log-sum pass replays it
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
            "name": "one-walk",
            "domain": {"size": n},
            "learner": {"name": "subsample_release", "params": {"k": 2, "delta": "1/2"}},
            "loss": {"name": "membership"},
            "m": m,
            "numeric": "exact",
            "audits": ["T1", {"id": "T3", "side": "sign", "threshold": 0.25}, "T4", "P3"],
        }
    )
    assert code == EXIT_PASS
    assert len(walks) == 1
    assert len(calls) == math.comb(n + m - 1, m)
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
        mi = sample_hypothesis_mutual_info(scn)  # replays the kept one-block walk
        assert "one_block_walk" in scn._cache and mi > 0
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


# ---------------------------------------------------------------------------
# replaying a one-block walk


@st.composite
def replay_cases(draw):
    """(exact scenario, float scenario, loss): a random kernel, symmetric
    or not, without a batch form, or a subsample release with one."""
    s_exact, s_float = draw(st.one_of(scenarios(), releases()))
    loss = draw(losses(s_exact.learner.domain, s_exact.learner.hypotheses(s_exact.m)))
    return s_exact, s_float, loss


def _counted(s):
    """s with an empty cache and a kernel that counts its evaluations in
    calls: one per sample, or a block's rows per call of its batch form."""
    calls, kernel, batch = [], s.learner.kernel, batch_form(s.learner.kernel)

    def kern(sample):
        calls.append(1)
        return kernel(sample)

    if batch is not None:
        with_batch(kern, lambda block: calls.append(len(block)) or batch(block))
    learner = dataclasses.replace(s.learner, kernel=kern)
    return Scenario(name=s.name, learner=learner, data_dist=s.data_dist, m=s.m, loss=s.loss), calls


def _results(s, loss, threshold):
    """I(S;H) first, then the joint, the three-way joint and the deviation
    law in one walk, then C2-forward's worst-case law, all on s."""
    mi = sample_hypothesis_mutual_info(s)
    side = deviation_sign_side_info(s, loss, threshold)
    tj, j3, law = walk(s, [trn_hyp_request(s), threeway_request(s, side), deviation_request(s, loss)])
    return tj, j3, law, mi, deviation_law(s, kept_worst_case_loss(s, tj))


def _fresh_results(s, loss, threshold):
    """The same results, each from its own fresh scenario, walked in blocks
    of one sample so that nothing is replayed."""
    with block_size(1):
        tj = exact_trn_hyp_joint(_counted(s)[0])
        fresh = _counted(s)[0]
        j3 = exact_threeway_joint(fresh, deviation_sign_side_info(fresh, loss, threshold))
        law = deviation_law(_counted(s)[0], loss)
        mi = sample_hypothesis_mutual_info(_counted(s)[0])
        worst = deviation_law(_counted(s)[0], worst_case_loss(tj))
    return tj, j3, law, mi, worst


def _typed(values):
    return [(type(x), x) for x in values]


def _assert_identical(got, want):
    """Equal in value and type; float arrays equal bit for bit."""
    (tj, j3, law, mi, worst), (tj2, j32, law2, mi2, worst2) = got, want
    for x, y in ((tj.joint.weights, tj2.joint.weights), (j3.weights, j32.weights)):
        assert x.dtype == y.dtype and x.shape == y.shape
        if x.dtype == object:
            assert _typed(x.ravel().tolist()) == _typed(y.ravel().tolist())
        else:
            assert x.tobytes() == y.tobytes()
    assert (tj.kernel_evals, tj.method) == (tj2.kernel_evals, tj2.method)
    for a, b in ((law, law2), (worst, worst2)):
        assert a == b
        assert [_typed(p) for p in a.points] == [_typed(p) for p in b.points]
    assert type(mi) is type(mi2) and mi == mi2


@settings(max_examples=80, deadline=None)
@given(replay_cases(), st.sampled_from((learners.BLOCK_SIZE,) + BLOCK_SIZES), st.booleans())
def test_a_replayed_walk_gives_what_fresh_walks_give(case, size, exact):
    s_exact, s_float, loss = case
    s = s_exact if exact else s_float
    threshold = F(1, 4) if exact else 0.25
    counted, calls = _counted(s)
    with block_size(size):
        blocks = list(learners._blocks(s.data_dist, s.m, s.learner.symmetric))
        got = _results(counted, loss, threshold)
    _assert_identical(got, _fresh_results(s, loss, threshold))
    samples = sum(map(len, blocks))
    # one walk when it made one block; else two for I(S;H), one shared and one for the last law
    assert sum(calls) == samples * (1 if len(blocks) == 1 else 4)
    assert ("one_block_walk" in counted._cache) == (len(blocks) == 1)
    counted.clear_cache()
    assert "one_block_walk" not in counted._cache
    with block_size(size):
        exact_trn_hyp_joint(counted)
    assert sum(calls) == samples * (2 if len(blocks) == 1 else 5)


@pytest.mark.parametrize("mode", [EXACT, FLOAT64], ids=["exact", "float"])
def test_budget_errors_are_unchanged_by_a_kept_walk(mode):
    learner, dist, loss = _case("subsample", 4, 3, mode)
    s = _scenario(learner, dist, loss, 3)
    size = enumeration_size(4, 3, True)
    assert sample_hypothesis_mutual_info(s, budget=2 * size) > 0
    assert "one_block_walk" in s._cache
    cases = [
        (lambda b: sample_hypothesis_mutual_info(s, budget=b), 2 * size, "mutual information"),
        (lambda b: exact_trn_hyp_joint(s, budget=b), size, "joint"),
        (lambda b: deviation_law(s, loss, budget=b), size, "deviation law"),
    ]
    for call, needed, what in cases:
        with pytest.raises(EnumerationBudgetError) as err:
            call(needed - 1)
        assert str(err.value) == f"{what} for 'w' needs {needed} kernel evaluations, budget is {needed - 1}"
        assert (err.value.needed, err.value.budget) == (needed, needed - 1)
        call(needed)
