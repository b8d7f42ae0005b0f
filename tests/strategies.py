"""Hypothesis strategies for random small scenarios: n <= 4 observations,
m <= 3, at most 3 hypotheses, rational data and kernel weights, and a
kernel that is symmetric or order-dependent; subsample releases, whose
kernel has a batch form; and block_size, which sets the walk's block size
for a test."""

import contextlib
import dataclasses
import itertools
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

import stabaudit.learners as learners
from stabaudit.dist import Alphabet, Dist
from stabaudit.learners import LearnerKernel, Scenario, subsample_release
from stabaudit.losses import random_table_loss, table_loss
from stabaudit.numeric import EXACT, FLOAT64

F = Fraction


def _weights(size):
    """size ints in 0..4, not all zero."""
    return st.lists(st.integers(0, 4), min_size=size, max_size=size).filter(any)


@st.composite
def scenarios(draw):
    """(exact scenario, float scenario) sharing one random kernel and data law."""
    n, m, k = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    symmetric = draw(st.booleans())
    domain = Alphabet.of_size("z", n)
    hyp = Alphabet("h", tuple(f"h{i}" for i in range(k)))
    raw = draw(_weights(n))
    probs = [F(r, sum(raw)) for r in raw]
    samples = (
        itertools.combinations_with_replacement(range(n), m)
        if symmetric
        else itertools.product(range(n), repeat=m)
    )
    rows = {}
    for sample in samples:
        w = draw(_weights(k))
        rows[sample] = {h: F(x, sum(w)) for h, x in zip(hyp.symbols, w) if x}

    def scenario(mode):
        conv = (lambda x: x) if mode.exact else float

        def kern(sample):
            row = rows[tuple(sorted(sample)) if symmetric else sample]
            return {h: conv(p) for h, p in row.items()}

        learner = LearnerKernel(
            name="random", domain=domain, kernel=kern, hypotheses=lambda m: hyp, symmetric=symmetric
        )
        data = Dist(domain, np.array([conv(p) for p in probs], dtype=mode.dtype))
        return Scenario(name="random", learner=learner, data_dist=data, m=m)

    return scenario(EXACT), scenario(FLOAT64)


def quarter_table_loss(draw, domain, hyp):
    values = [[F(draw(st.integers(0, 4)), 4) for _ in hyp.symbols] for _ in domain.symbols]
    return table_loss("t", domain, hyp, values)


@st.composite
def cases(draw):
    """(exact scenario, float scenario, rational table loss)."""
    s_exact, s_float = draw(scenarios())
    return s_exact, s_float, quarter_table_loss(draw, s_exact.learner.domain, s_exact.learner.hypotheses(s_exact.m))


@st.composite
def losses(draw, domain, hyp):
    """A 0/1 integer table, a quarter-grid Fraction table or a seeded
    random_table_loss (Fractions over 16)."""
    kind = draw(st.sampled_from(["int", "quarter", "random"]))
    if kind == "int":
        values = [[draw(st.integers(0, 1)) for _ in hyp.symbols] for _ in domain.symbols]
        return table_loss("int", domain, hyp, values)
    if kind == "quarter":
        return quarter_table_loss(draw, domain, hyp)
    return random_table_loss(domain, hyp, seed=draw(st.integers(0, 2**16)))


#: block sizes that put block edges inside small sample spaces
BLOCK_SIZES = (1, 2, 7)


@contextlib.contextmanager
def block_size(size):
    saved = learners.BLOCK_SIZE
    learners.BLOCK_SIZE = size
    try:
        yield
    finally:
        learners.BLOCK_SIZE = saved


@st.composite
def releases(draw):
    """(exact scenario, float scenario) of a subsample release: n <= 5, m <= 4,
    k <= m, some data weights zero, and a domain of ints or of strings
    listed out of sorted order."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    k = draw(st.integers(1, m))
    delta = draw(st.sampled_from([F(1), F(1, 2), F(1, 3), F(3, 4)]))
    symbols = draw(st.sampled_from([range(n), tuple("dbeac"[:n])]))
    domain = Alphabet("z", symbols)
    raw = draw(_weights(n))

    def scenario(mode):
        conv = (lambda x: x) if mode.exact else float
        data = Dist(domain, np.array([conv(F(r, sum(raw))) for r in raw], dtype=mode.dtype))
        learner = subsample_release(domain, k, delta, mode=mode)
        return Scenario(name="release", learner=learner, data_dist=data, m=m)

    return scenario(EXACT), scenario(FLOAT64)


def per_sample_twin(s):
    """s with its kernel wrapped, so the walk calls it once per sample."""
    kernel = s.learner.kernel
    learner = dataclasses.replace(s.learner, kernel=lambda sample: kernel(sample))
    return Scenario(name=s.name, learner=learner, data_dist=s.data_dist, m=s.m, loss=s.loss)
