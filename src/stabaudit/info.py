"""Information measures built on total variation.

For a joint P(X, Y) the variational information is

    vi(X; Y) = tv(P(X, Y), P(X) P(Y)),

the total variation between the joint and the product of its marginals,
and the mutual stability is 1 - vi(X; Y).  The conditional version
averages the inner distance over the conditioning variable:

    vi(A; B | C) = E_C tv(P(A, B | C), P(A | C) P(B | C)).

These satisfy a chain rule (sum of conditional terms dominates the merged
quantity), a data-processing inequality along Markov chains, and a
triangle-style bound vi(X; Y) <= vi(X; Z) + vi(X; Y | Z); each has a
checker here.  Shannon mutual information (natural log) is included for
bounds that consume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dist import (
    ArityError,
    Dist,
    Joint,
    TransitionKernel,
    product_weights,
)

__all__ = [
    "variational_info",
    "mutual_stability",
    "conditional_variational_info",
    "ChainDecomposition",
    "chain_decompose",
    "Prop2Gap",
    "prop2_gap_check",
    "DpiCheck",
    "dpi_check",
    "shannon_mutual_info",
]


def _pair(j: Joint) -> Joint:
    if j.arity != 2:
        raise ArityError(
            f"need a two-axis joint, have axes {j.axis_names}; merge the rest first"
        )
    return j


def variational_info(j: Joint):
    """vi between the two axes of j; Fraction in exact mode, float otherwise.

    Half the absolute sum of j's cell table.
    """
    cells = _pair(j).cells
    diff = abs(cells.d).sum()
    return Fraction(diff, 2 * cells.scale) if j.is_exact else float(diff) / 2.0


def mutual_stability(j: Joint):
    """1 - vi(X; Y), the overlap between the joint and the product."""
    return 1 - variational_info(j)


def conditional_variational_info(j: Joint, given: str):
    """Average vi between the two non-conditioning axes of a 3-axis joint.

    Slices of zero mass contribute nothing.  Exact in exact mode.
    """
    if j.arity != 3:
        raise ArityError(f"need exactly three axes, have {j.axis_names}")
    ax = j.axis(given)
    w = np.moveaxis(j.weights, ax, 0)
    total = 0
    for slab in w:
        mass = slab.sum()
        if mass == 0:
            continue
        rows = slab.sum(axis=1)
        cols = slab.sum(axis=0)
        # tv(P(A,B|c), P(A|c)P(B|c)) * P(c), with the 1/mass factors folded in
        inner = abs(slab - np.multiply.outer(rows, cols) / mass).sum()
        total = total + inner / 2
    return total if j.is_exact else float(total)


@dataclass(frozen=True)
class ChainDecomposition:
    """Chain-rule split of vi(Z; (H_1, ..., H_k)).

    terms[t] is vi(Z; H_{t+1} | H_1..H_t); their sum dominates the merged
    total, and slack = sum(terms) - total is the (nonnegative) gap.
    """

    designated: str
    stage_names: tuple[str, ...]
    total: object
    terms: tuple

    @property
    def slack(self):
        return sum(self.terms) - self.total

    def holds(self, tol=0) -> bool:
        return self.slack >= -tol


def chain_decompose(j: Joint, designated: str | None = None) -> ChainDecomposition:
    """Decompose vi between one axis and all the others, in layout order."""
    if j.arity < 2:
        raise ArityError("chain decomposition needs at least two axes")
    designated = designated or j.axes[0].name
    stages = [n for n in j.axis_names if n != designated]
    if len(stages) == j.arity:
        raise ArityError(f"no axis named {designated!r}")

    if len(stages) == 1:
        total = variational_info(j.marginal(designated, stages[0]))
        return ChainDecomposition(designated, tuple(stages), total, (total,))

    merged_all = j.marginal(designated, *stages).merge(stages, "::".join(stages))
    total = variational_info(merged_all)

    terms = [variational_info(j.marginal(designated, stages[0]))]
    for t in range(1, len(stages)):
        prefix, current = stages[:t], stages[t]
        sub = j.marginal(designated, current, *prefix)
        if t == 1:
            tri = sub  # axes (Z, H_t, prefix) already
        else:
            tri = sub.merge(prefix, "::".join(prefix))
            tri = tri.reorder(designated, current, "::".join(prefix))
        terms.append(conditional_variational_info(tri, given=tri.axes[2].name))
    return ChainDecomposition(designated, tuple(stages), total, tuple(terms))


@dataclass(frozen=True)
class Prop2Gap:
    """Two-sided relation between pair information and its split.

    With total = vi(A; (B, C)), first = vi(A; B), and rest = vi(A; C | B):
    |total - rest| <= first and |total - first| <= rest.
    """

    total: object
    first: object
    rest_given_first: object

    def gaps(self) -> tuple:
        return (
            self.first - abs(self.total - self.rest_given_first),
            self.rest_given_first - abs(self.total - self.first),
        )

    def holds(self, tol=0) -> bool:
        return all(g >= -tol for g in self.gaps())


def prop2_gap_check(j: Joint) -> Prop2Gap:
    """Evaluate the split relation on a 3-axis joint with axes (A, B, C)."""
    if j.arity != 3:
        raise ArityError(f"need exactly three axes, have {j.axis_names}")
    a, b, c = j.axis_names
    total = variational_info(j.merge([b, c], f"{b}::{c}"))
    first = variational_info(j.marginal(a, b))
    rest = conditional_variational_info(j.reorder(a, c, b), given=b)
    return Prop2Gap(total=total, first=first, rest_given_first=rest)


@dataclass(frozen=True)
class DpiCheck:
    """Data-processing facts along a Markov chain A -> B -> C."""

    info_ab: object
    info_ac: object
    info_a_bc: object
    info_c_given_b: object

    def holds(self, tol=0) -> bool:
        return (
            self.info_ac <= self.info_ab + tol
            and abs(self.info_a_bc - self.info_ab) <= tol
            and self.info_c_given_b <= tol
        )


def dpi_check(p_a: Dist, a_to_b: TransitionKernel, b_to_c: TransitionKernel) -> DpiCheck:
    """Build P(a, b, c) = p(a) K1(b|a) K2(c|b) and check processing facts.

    Along the chain: vi(A; C) <= vi(A; B), the downstream variable adds
    nothing (vi(A; (B, C)) = vi(A; B)), and vi(A; C | B) = 0.
    """
    if a_to_b.src != p_a.alphabet or b_to_c.src != a_to_b.dst:
        raise ArityError("kernels do not compose over the given source")
    w = p_a.weights[:, None, None] * a_to_b.matrix[:, :, None] * b_to_c.matrix[None, :, :]
    j = Joint((p_a.alphabet, a_to_b.dst, b_to_c.dst), w)
    names = j.axis_names
    info_ab = variational_info(j.marginal(names[0], names[1]))
    info_ac = variational_info(j.marginal(names[0], names[2]))
    info_a_bc = variational_info(j.merge([names[1], names[2]], "bc"))
    info_c_given_b = conditional_variational_info(j.reorder(names[0], names[2], names[1]), given=names[1])
    return DpiCheck(info_ab, info_ac, info_a_bc, info_c_given_b)


def shannon_mutual_info(j: Joint) -> float:
    """Mutual information of a two-axis joint in nats (always a float)."""
    _pair(j)
    prod = product_weights(j)
    total = 0.0
    for p, q in zip(j.weights.ravel(), prod.ravel()):
        if p > 0:
            total += float(p) * math.log(float(p) / float(q))
    return total
