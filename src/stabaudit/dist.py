"""Finite alphabets, distributions, joints, and total-variation geometry.

Distributions live on ordered finite alphabets.  Weights are either exact
rationals (object-dtype arrays of fractions.Fraction) or float64; the two
modes share every operation.  Total variation between P and Q on a common
alphabet is

    tv(P, Q) = (1/2) * sum_x |P(x) - Q(x)|,

and the overlap coefficient is 1 - tv(P, Q).  Joints add named axes with
marginalization, slicing on an observed symbol (conditioning), axis merging,
and products of independent marginals.

An alphabet built from range(n), as Alphabet.of_size builds it, is
positional: symbol i sits at position i.  It keeps no per-symbol set or
dict, and no symbols tuple until .symbols is read, so building one costs
O(1).  Its index answers lookups by arithmetic (Positions) with the
semantics of the dict {i: i for i in range(n)}.  Its symbols are still the
tuple (0, ..., n-1), so it equals and hashes like Alphabet(name,
tuple(range(n))); the hash builds that tuple, equality between two
positional alphabets does not.  Code that runs on huge domains reads
symbol i as i instead of reading .symbols.

Every cell-wise quantity of a two-axis joint P(Z, H) (variational
information, generalization risk, the worst-case loss) reads the same
difference D = P(Z, H) - P(Z) P(H).  Joint.cells computes it once and
keeps it on the joint, which is immutable, as a cell table d / scale.

An exact joint keeps one integer form, Joint.numerators: its weights as
integers J over their common denominator den, the lcm of their
denominators.  They are nonnegative and sum to den, so each is at most
den, and J is int64 while den < 2^63, else Python ints (numeric.int_dtype).
Marginals, merges, reorders and conditioning are integer sums, slices
and transposes of J; the cell table is

    d = J * den - outer(J.sum(1), J.sum(0)),    scale = den**2,

int64 while 2 * scale < 2^63, which bounds every |d| and their sum, and
every sum over cells is an integer sum, divided once at the end.  In
float mode d = weights - product_weights(weights) and scale = 1.  An
exact joint given as integers (Joint.of_integers, as the walker and the
axis operations build them) is checked in integers and builds its
Fraction weights, and the Python-int integer_weights, only when they are
read.
"""

from __future__ import annotations

import itertools
import numbers
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm
from typing import Any, Iterable, Sequence

import numpy as np

from .numeric import EXACT, FLOAT64, NumericMode, as_ints, coerce_number, int_dtype, mode_of, zeros

#: absolute tolerance on total mass for float-mode construction
MASS_ATOL = 1e-12


class DomainMismatchError(ValueError):
    """Operands live on different alphabets or axis layouts."""


class ConditioningError(ValueError):
    """Conditioning on an event of zero probability."""


class ArityError(ValueError):
    """A joint does not have the axis count an operation requires."""


class Positions(Mapping):
    """The index of a positional alphabet of n symbols: symbol i is at i.

    Looks up like the dict {i: i for i in range(n)}: a key is found when it
    equals an int in range(n), as a dict would match it (True, 2.0,
    numpy integers), and raises KeyError otherwise.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __getitem__(self, key) -> int:
        i = key if key.__class__ is int else _as_int(key)
        if i is not None and 0 <= i < self.n:
            return i
        raise KeyError(key)

    def __contains__(self, key) -> bool:
        i = key if key.__class__ is int else _as_int(key)
        return i is not None and 0 <= i < self.n

    def __iter__(self):
        return iter(range(self.n))

    def __len__(self) -> int:
        return self.n


def _as_int(key) -> int | None:
    """The int a dict with int keys would match key to, or None."""
    try:
        return operator.index(key)
    except TypeError:
        pass
    if not isinstance(key, numbers.Number):
        return None
    try:
        i = int(key.real)
    except (TypeError, ValueError, OverflowError):
        return None
    return i if i == key else None


class Alphabet:
    """Ordered finite symbol set with a name used for axis lookup.

    Immutable.  Symbols given as range(n) make a positional alphabet (see
    the module docstring), which builds its symbols tuple on first read
    of .symbols; positional is not compared or hashed.
    """

    def __init__(self, name: str, symbols):
        positional = isinstance(symbols, range) and symbols.start == 0 and symbols.step == 1
        set_ = object.__setattr__
        set_(self, "name", name)
        set_(self, "positional", positional)
        if not positional:
            symbols = tuple(symbols)
            set_(self, "symbols", symbols)
        set_(self, "_size", len(symbols))
        if not self._size:
            raise ValueError(f"alphabet {name!r} is empty")
        if not positional and len(set(symbols)) != self._size:
            raise ValueError(f"alphabet {name!r} repeats a symbol")

    def __setattr__(self, attr, *value):
        raise AttributeError(f"cannot assign to or delete {attr!r} of an Alphabet")

    __delattr__ = __setattr__

    @cached_property
    def symbols(self) -> tuple:
        """The symbols in order; a positional alphabet builds (0, ..., n-1) once."""
        return tuple(range(self._size))

    @cached_property
    def index(self) -> Mapping:
        if self.positional:
            return Positions(self._size)
        return {s: i for i, s in enumerate(self.symbols)}

    def indices(self, symbols: Iterable) -> np.ndarray:
        """index[s] for each of symbols, as an intp array, with the KeyError
        index raises.  On a positional alphabet, ints in range map to
        themselves in array steps."""
        from array import array  # array("q") takes ints alone, so equality is by value

        symbols = list(symbols)
        if self.positional:
            try:
                at = np.frombuffer(array("q", symbols), np.int64).astype(np.intp)
            except (TypeError, OverflowError):
                pass
            else:
                if not len(at) or (at.min() >= 0 and at.max() < self._size):
                    return at
        index = self.index
        return np.array([index[s] for s in symbols], dtype=np.intp)

    def symbols_at(self, idx: np.ndarray) -> np.ndarray:
        """The symbols at the indices idx, in idx's shape: idx itself on a
        positional alphabet, where symbol i is i, else an object array."""
        if self.positional:
            return idx
        return np.fromiter(self.symbols, object, self._size)[idx]

    def __len__(self) -> int:
        return self._size

    def __contains__(self, symbol) -> bool:
        return symbol in self.index

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.name != other.name or self._size != other._size:
            return False
        return (self.positional and other.positional) or self.symbols == other.symbols

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.symbols))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        symbols = f"range(0, {self._size})" if self.positional else repr(self.symbols)
        return f"Alphabet(name={self.name!r}, symbols={symbols})"

    @classmethod
    def of_size(cls, name: str, n: int) -> "Alphabet":
        return cls(name, range(n))


def _validated_weights(weights, shape, where: str, owned: bool = False) -> np.ndarray:
    """weights as a read-only array, checked: a copy, unless owned says
    that weights is a float64 or object array that nothing else holds."""
    w = np.asarray(weights)
    if not owned:
        w = w.copy() if w.dtype == object else w.astype(np.float64)  # astype copies
    if w.shape != shape:
        raise DomainMismatchError(f"{where}: weights shape {w.shape} != {shape}")
    exact = w.dtype == object
    flat = w.ravel()
    if exact:
        values = flat.tolist()
        for x in values:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"{where}: exact weights must be int or Fraction, got {type(x).__name__}")
            if x.numerator < 0:
                raise ValueError(f"{where}: negative weight {x}")
        nums, den = common_denominator(values)
        if sum(nums) != den:
            raise ValueError(f"{where}: mass is {Fraction(sum(nums), den)}, expected exactly 1")
    else:
        if not np.all(np.isfinite(flat)):
            raise ValueError(f"{where}: non-finite weight")
        if np.any(flat < 0):
            raise ValueError(f"{where}: negative weight")
        total = flat.sum()
        if abs(total - 1.0) > MASS_ATOL:
            raise ValueError(f"{where}: mass is {total!r}, off by more than {MASS_ATOL}")
    w.setflags(write=False)
    return w


def common_denominator(values) -> tuple[list[int], int]:
    """Exact values as (numerators, den) over den, the lcm of their denominators.

    Values are ints or Fractions; anything else goes through Fraction(),
    which is lossless for floats.
    """
    fracs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (den // x.denominator) for x in fracs], den


@dataclass(frozen=True)
class CellTable:
    """D = joint - product of marginals of a two-axis joint, as d / scale.

    Exact mode holds integers with scale = den**2 for the joint's
    denominator den, int64 while 2 * scale < 2^63 and Python ints (object
    arrays) past that; float mode holds float64 with scale = 1.
    """

    d: np.ndarray
    scale: int


@dataclass(frozen=True, eq=False)
class Dist:
    """Probability distribution over one alphabet.

    Mass must be exactly 1 in exact mode and within MASS_ATOL in float mode;
    the constructor enforces this, so a Dist is always valid by construction.
    """

    alphabet: Alphabet
    weights: np.ndarray

    def __post_init__(self):
        w = _validated_weights(self.weights, (len(self.alphabet),), f"dist[{self.alphabet.name}]")
        object.__setattr__(self, "weights", w)

    @classmethod
    def _of_owned(cls, alphabet: Alphabet, weights: np.ndarray) -> "Dist":
        """Dist(alphabet, weights), checked the same way, without the copy:
        for a float64 or object array built for it alone."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "alphabet", alphabet)
        w = _validated_weights(weights, (len(alphabet),), f"dist[{alphabet.name}]", owned=True)
        object.__setattr__(dist, "weights", w)
        return dist

    @property
    def is_exact(self) -> bool:
        return self.weights.dtype == object

    @property
    def mode(self) -> NumericMode:
        return mode_of(self.weights)

    def __len__(self) -> int:
        return len(self.alphabet)

    def weight(self, symbol):
        return self.weights[self.alphabet.index[symbol]]

    __getitem__ = weight

    @cached_property
    def integer_weights(self) -> tuple[list[int], int]:
        """Exact weights as (numerators, den) over their common denominator."""
        return common_denominator(self.weights.tolist())

    def support(self) -> tuple:
        return tuple(s for s, w in zip(self.alphabet.symbols, self.weights) if w > 0)

    def expect(self, fn) -> Any:
        """Expectation of fn(symbol) under this distribution."""
        return sum(w * fn(s) for s, w in zip(self.alphabet.symbols, self.weights) if w != 0)

    def as_float(self) -> "Dist":
        if not self.is_exact:
            return self
        return Dist(self.alphabet, self.weights.astype(np.float64))

    @classmethod
    def uniform(cls, alphabet: Alphabet, mode: NumericMode = FLOAT64) -> "Dist":
        n = len(alphabet)
        if mode.exact:
            w = np.array([Fraction(1, n)] * n, dtype=object)
        else:
            w = np.full(n, 1.0 / n)
            w[-1] = 1.0 - w[:-1].sum()  # close the float gap exactly
        return cls._of_owned(alphabet, w)

    @classmethod
    def point_mass(cls, alphabet: Alphabet, symbol, mode: NumericMode = FLOAT64) -> "Dist":
        w = zeros(len(alphabet), mode)
        w[alphabet.index[symbol]] = Fraction(1) if mode.exact else 1.0
        return cls(alphabet, w)

    @classmethod
    def from_mapping(cls, alphabet: Alphabet, mapping: Mapping, mode: NumericMode = FLOAT64) -> "Dist":
        w = zeros(len(alphabet), mode)
        for symbol, value in mapping.items():
            w[alphabet.index[symbol]] = coerce_number(value, mode)
        return cls(alphabet, w)


@dataclass(frozen=True, eq=False)
class Joint:
    """Joint distribution over an ordered tuple of uniquely named axes."""

    axes: tuple[Alphabet, ...]
    weights: np.ndarray

    def __post_init__(self):
        shape, where = self._set_axes(self.axes)
        object.__setattr__(self, "weights", _validated_weights(self.weights, shape, where))

    def _set_axes(self, axes) -> tuple[tuple, str]:
        """Set the axes; return the joint's shape and its name in errors."""
        axes = tuple(axes)
        object.__setattr__(self, "axes", axes)
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise ValueError(f"axis names must be unique, got {names}")
        return tuple(len(a) for a in axes), f"joint[{','.join(names)}]"

    @classmethod
    def of_integers(cls, axes, nums: np.ndarray, den: int) -> "Joint":
        """The exact joint nums / den of an integer array, checked in integers
        with the errors Joint(axes, weights) raises.  Its numerators are nums
        and den over their gcd, copied; the weights are built on first read."""
        joint = object.__new__(_IntegerJoint)
        shape, where = joint._set_axes(axes)
        if nums.shape != shape:
            raise DomainMismatchError(f"{where}: weights shape {nums.shape} != {shape}")
        if nums.dtype.kind not in "iu":
            for x in nums.ravel().tolist():
                if not isinstance(x, int):
                    raise TypeError(f"{where}: exact weights must be int or Fraction, got {type(x).__name__}")
        else:  # int64 while no sum can pass it
            nums = nums.astype(int_dtype(int(nums.max()) * nums.size), copy=False)
        if nums.min() < 0:
            flat = nums.ravel()
            raise ValueError(f"{where}: negative weight {Fraction(int(flat[np.flatnonzero(flat < 0)[0]]), den)}")
        total = int(nums.sum())
        if total != den:
            raise ValueError(f"{where}: mass is {Fraction(total, den)}, expected exactly 1")
        g = gcd(den, int(np.gcd.reduce(nums, axis=None)))
        nums = np.array(nums // g, dtype=int_dtype(den // g))
        nums.setflags(write=False)
        object.__setattr__(joint, "numerators", (nums, den // g))
        return joint

    @property
    def arity(self) -> int:
        return len(self.axes)

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    @property
    def is_exact(self) -> bool:
        return self.weights.dtype == object

    @property
    def mode(self) -> NumericMode:
        return EXACT if self.is_exact else FLOAT64

    @cached_property
    def numerators(self) -> tuple[np.ndarray, int]:
        """Exact weights as integers in the joint's shape over their lcm den:
        int64 while den < 2^63, else Python ints (see the module docstring)."""
        nums, den = common_denominator(self.weights.ravel().tolist())
        nums = as_ints(nums, den).reshape(self.weights.shape)
        nums.setflags(write=False)
        return nums, den

    @cached_property
    def integer_weights(self) -> tuple[np.ndarray, int]:
        """The numerators as Python ints."""
        nums, den = self.numerators
        nums = nums.astype(object)
        nums.setflags(write=False)
        return nums, den

    def axis(self, name: str) -> int:
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise DomainMismatchError(f"no axis named {name!r} in {self.axis_names}")

    def weight(self, symbols: Sequence) -> Any:
        idx = tuple(a.index[s] for a, s in zip(self.axes, symbols))
        return self.weights[idx]

    def _form(self) -> tuple[np.ndarray, int | None]:
        """What the axis operations work on: the numerators over den in
        exact mode, the weights and None in float mode."""
        return self.numerators if self.is_exact else (self.weights, None)

    @staticmethod
    def _of_form(axes: tuple, w: np.ndarray, den: int | None):
        """The joint, or on one axis the Dist, of w over axes as _form gives it."""
        if den is None:
            return Dist(axes[0], w) if len(axes) == 1 else Joint(axes, w)
        if len(axes) == 1:
            return Dist._of_owned(axes[0], _fractions(w, den))
        return Joint.of_integers(axes, w, den)

    def marginal(self, *names: str):
        """Sum out every axis not listed; axes come back in the listed order.

        Returns a Dist when one name is given, a Joint otherwise.
        """
        if not names:
            raise ArityError("marginal needs at least one axis name")
        keep = [self.axis(n) for n in names]
        drop = tuple(i for i in range(self.arity) if i not in keep)
        w, den = self._form()
        w = w.sum(axis=drop) if drop else w
        # realign to the requested order
        current = [i for i in range(self.arity) if i not in drop]
        perm = [current.index(i) for i in keep]
        return self._of_form(tuple(self.axes[i] for i in keep), np.transpose(w, perm), den)

    def condition(self, name: str, symbol):
        """Condition on one axis taking an observed symbol.

        Returns the renormalized slice over the remaining axes, as a Dist
        when a single axis remains.
        """
        ax = self.axis(name)
        sl = [slice(None)] * self.arity
        sl[ax] = self.axes[ax].index[symbol]
        w, den = self._form()
        w = w[tuple(sl)]
        mass = w.sum()
        if mass == 0:
            raise ConditioningError(f"P({name}={symbol!r}) = 0")
        if den is None:
            w = w / mass
        rest = tuple(a for i, a in enumerate(self.axes) if i != ax)
        return self._of_form(rest, w, None if den is None else int(mass))

    def merge(self, names: Sequence[str], new_name: str) -> "Joint":
        """Fuse the listed axes into one axis of symbol tuples.

        The merged axis sits where the first listed axis was; its symbols
        are tuples in itertools.product order of the listed axes.
        """
        if len(names) < 2:
            raise ArityError("merge needs at least two axes")
        picked = [self.axis(n) for n in names]
        rest = [i for i in range(self.arity) if i not in picked]
        order = picked + rest
        w, den = self._form()
        w = np.transpose(w, order)
        merged_size = int(np.prod([len(self.axes[i]) for i in picked]))
        w = w.reshape((merged_size,) + tuple(len(self.axes[i]) for i in rest))
        merged = Alphabet(
            new_name,
            tuple(itertools.product(*(self.axes[i].symbols for i in picked))),
        )
        # put the merged axis back at the position of the first constituent
        slot = sum(1 for i in rest if i < picked[0])
        axes = [self.axes[i] for i in rest]
        axes.insert(slot, merged)
        w = np.moveaxis(w, 0, slot)
        return self._of_form(tuple(axes), np.ascontiguousarray(w), den)

    def reorder(self, *names: str) -> "Joint":
        if sorted(names) != sorted(self.axis_names):
            raise DomainMismatchError(f"reorder needs all of {self.axis_names}, got {names}")
        perm = [self.axis(n) for n in names]
        w, den = self._form()
        return self._of_form(tuple(self.axes[i] for i in perm), np.transpose(w, perm), den)

    def to_dist(self) -> Dist:
        if self.arity != 1:
            raise ArityError(f"to_dist needs arity 1, have {self.arity}")
        return Dist(self.axes[0], self.weights)

    def as_float(self) -> "Joint":
        if not self.is_exact:
            return self
        return Joint(self.axes, self.weights.astype(np.float64))

    @cached_property
    def cells(self) -> CellTable:
        """The cell table of D = joint - product of marginals (arity 2)."""
        if self.arity != 2:
            raise ArityError(f"cell table needs a two-axis joint, have axes {self.axis_names}")
        if not self.is_exact:
            w = self.weights
            return CellTable(w - product_weights(w), 1)
        big, den = self.numerators
        big = as_ints(big, 2 * den * den)
        return CellTable(big * den - product_weights(big), den * den)


def _fractions(nums: np.ndarray, den: int) -> np.ndarray:
    """nums / den as an object array: one Fraction per nonzero value, int 0
    for the others."""
    return np.array([Fraction(x, den) if x else 0 for x in nums.ravel().tolist()], dtype=object).reshape(nums.shape)


class _IntegerJoint(Joint):
    """An exact joint built by Joint.of_integers."""

    is_exact = True

    @cached_property
    def weights(self) -> np.ndarray:
        """One Fraction per nonzero cell; the others stay int 0."""
        w = _fractions(*self.numerators)
        w.setflags(write=False)
        return w


def _aligned(p, q) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p, Dist) and isinstance(q, Dist):
        if p.alphabet != q.alphabet:
            raise DomainMismatchError("distributions on different alphabets")
    elif isinstance(p, Joint) and isinstance(q, Joint):
        if p.axes != q.axes:
            raise DomainMismatchError("joints with different axis layouts")
    else:
        raise DomainMismatchError(f"cannot compare {type(p).__name__} with {type(q).__name__}")
    a, b = p.weights, q.weights
    if (a.dtype == object) != (b.dtype == object):
        a = a.astype(np.float64) if a.dtype == object else a
        b = b.astype(np.float64) if b.dtype == object else b
    return a, b


def tv_distance(p, q):
    """Total variation distance, exact (Fraction) when both operands are."""
    a, b = _aligned(p, q)
    total = abs(a - b).sum()
    return total / 2 if a.dtype == object else float(total) / 2.0


def overlap(p, q):
    """Overlap coefficient 1 - tv(p, q)."""
    return 1 - tv_distance(p, q)


def product(*dists: Dist) -> Joint:
    """Independent product of marginals as a joint with one axis each."""
    if len(dists) < 2:
        raise ArityError("product needs at least two distributions")
    w = reduce(np.multiply.outer, [d.weights for d in dists])
    return Joint(tuple(d.alphabet for d in dists), w)


def product_weights(j) -> np.ndarray:
    """Product of the marginals of a joint or a weights array, in its layout.

    On weights of total mass M, such as the integer numerators behind a
    cell table, the result is M**arity times the product of the normalized
    marginals.
    """
    w = j.weights if isinstance(j, Joint) else j
    vecs = []
    for i in range(w.ndim):
        drop = tuple(k for k in range(w.ndim) if k != i)
        vecs.append(w.sum(axis=drop))
    return reduce(np.multiply.outer, vecs)


@dataclass(frozen=True)
class Diagnostics:
    ok: bool
    is_exact: bool
    mass_error: float
    min_weight: float
    messages: tuple[str, ...]


def validate(obj) -> Diagnostics:
    """Re-check the mass and sign invariants of a Dist or Joint."""
    w = obj.weights.ravel()
    messages = []
    if obj.is_exact:
        total = sum(w)
        mass_error = float(total - 1)
        if total != 1:
            messages.append(f"mass {total} != 1")
        mn = min(w)
    else:
        total = w.sum()
        mass_error = float(total - 1.0)
        if abs(mass_error) > MASS_ATOL:
            messages.append(f"mass off by {mass_error!r}")
        if not np.all(np.isfinite(w)):
            messages.append("non-finite weight")
        mn = w.min()
    if mn < 0:
        messages.append(f"negative weight {mn}")
    return Diagnostics(
        ok=not messages,
        is_exact=obj.is_exact,
        mass_error=mass_error,
        min_weight=float(mn),
        messages=tuple(messages),
    )


@dataclass(frozen=True, eq=False)
class TransitionKernel:
    """Row-stochastic map from one alphabet to another."""

    src: Alphabet
    dst: Alphabet
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.dtype != object:
            m = m.astype(np.float64)
        m = m.copy()
        if m.shape != (len(self.src), len(self.dst)):
            raise DomainMismatchError(
                f"kernel shape {m.shape} != ({len(self.src)}, {len(self.dst)})"
            )
        exact = m.dtype == object
        for i, row in enumerate(m):
            total = sum(row) if exact else row.sum()
            bad = (total != 1) if exact else abs(total - 1.0) > MASS_ATOL
            if bad or (min(row) if exact else row.min()) < 0:
                raise ValueError(f"row {i} of kernel {self.src.name}->{self.dst.name} is not a distribution")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def row(self, symbol) -> np.ndarray:
        return self.matrix[self.src.index[symbol]]

    def push(self, p: Dist) -> Dist:
        if p.alphabet != self.src:
            raise DomainMismatchError("push: distribution not on kernel source")
        return Dist(self.dst, p.weights @ self.matrix if p.weights.dtype != object else (p.weights[:, None] * self.matrix).sum(axis=0))

    def joint_with(self, p: Dist) -> Joint:
        """P(a, b) = p(a) * K(b | a) over axes (src, dst)."""
        if p.alphabet != self.src:
            raise DomainMismatchError("joint_with: distribution not on kernel source")
        return Joint((self.src, self.dst), p.weights[:, None] * self.matrix)
