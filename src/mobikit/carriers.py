"""Value carriers: the sets that algebras and spaces live on.

A carrier bundles membership, equality (with a tolerance policy for floats),
deterministic sampling, and enumeration when the set is finite.  Elements are
plain Python values: Fraction, QI (Gaussian rational), int (mod-m residues),
float, and tuples of those.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

MAX_REJECTS = 10_000
RATIONAL_NUMERATOR_BOUND = 12
DENOMINATOR_BOUND = 8


class CarrierError(Exception):
    """Base class for carrier-level failures."""


class ShapeError(CarrierError):
    """A value has the wrong shape or type for this carrier."""


class NotEnumerableError(CarrierError):
    """enumerate_elements was asked for an infinite carrier."""


class SamplingExhausted(CarrierError):
    """A restricted carrier rejected too many consecutive candidates."""


class MembershipError(CarrierError):
    """An operation was applied to a value outside its carrier."""


def _rational(x):
    """x itself when it is an int or a Fraction (not a bool), else ShapeError."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise ShapeError(f"expected a rational, got {x!r}")
    return x


class QI:
    """Gaussian rational re + im*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("QI values are immutable")

    @staticmethod
    def coerce(x) -> "QI":
        if isinstance(x, QI):
            return x
        if isinstance(x, bool):
            raise ShapeError(f"expected a Gaussian rational, got {x!r}")
        if isinstance(x, (int, Fraction)):
            return QI(x, 0)
        raise ShapeError(f"expected a Gaussian rational, got {x!r}")

    def __add__(self, other):
        o = QI.coerce(other)
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = QI.coerce(other)
        return QI(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return QI.coerce(other) - self

    def __mul__(self, other):
        o = QI.coerce(other)
        return QI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QI.coerce(other)
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QI((self.re * o.re + self.im * o.im) / norm,
                  (self.im * o.re - self.re * o.im) / norm)

    def __rtruediv__(self, other):
        return QI.coerce(other) / self

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ShapeError("QI powers take a nonnegative int")
        out = QI(1, 0)
        for _ in range(n):
            out = out * self
        return out

    def conjugate(self) -> "QI":
        return QI(self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (QI, int, Fraction)) and not isinstance(other, bool):
            o = QI.coerce(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self):
        # real Gaussian rationals hash like their Fraction so x == y => hash equal
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QI({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"


class Carrier:
    """Interface shared by all carrier kinds."""

    atol: float = 0.0
    rtol: float = 0.0

    def contains(self, x) -> bool:
        raise NotImplementedError

    def eq(self, x, y) -> bool:
        raise NotImplementedError

    @property
    def finite(self) -> bool:
        return False

    def elements(self) -> list:
        raise NotEnumerableError(f"{self.describe()} is not enumerable")

    def draw(self, rng: random.Random):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.describe()


def _draw_fraction(rng: random.Random, bound: int = RATIONAL_NUMERATOR_BOUND) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, DENOMINATOR_BOUND))


@dataclass(frozen=True)
class Rational(Carrier):
    """All of Q; values are Fraction (ints accepted and compared exactly)."""

    def contains(self, x):
        return isinstance(x, (int, Fraction)) and not isinstance(x, bool)

    def eq(self, x, y):
        return _rational(x) == _rational(y)

    def draw(self, rng):
        return _draw_fraction(rng)

    def describe(self):
        return "Q"


@dataclass(frozen=True)
class GaussianRational(Carrier):
    """Q[i]; values are QI (plain rationals accepted as real values)."""

    def contains(self, x):
        return isinstance(x, QI) or (isinstance(x, (int, Fraction)) and not isinstance(x, bool))

    def eq(self, x, y):
        return QI.coerce(x) == QI.coerce(y)

    def draw(self, rng):
        return QI(_draw_fraction(rng), _draw_fraction(rng))

    def describe(self):
        return "Q[i]"


@dataclass(frozen=True)
class ModularInt(Carrier):
    """Residues mod m; any int is a member, equality is mod-m."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")

    def contains(self, x):
        return isinstance(x, int) and not isinstance(x, bool)

    def eq(self, x, y):
        if not (self.contains(x) and self.contains(y)):
            raise ShapeError(f"expected ints mod {self.modulus}, got {x!r}, {y!r}")
        return (x - y) % self.modulus == 0

    @property
    def finite(self):
        return True

    def elements(self):
        return list(range(self.modulus))

    def draw(self, rng):
        return rng.randrange(self.modulus)

    def describe(self):
        return f"Z/{self.modulus}"


@dataclass(frozen=True)
class Float64(Carrier):
    """Finite doubles compared with |x-y| <= atol + rtol*max(|x|,|y|)."""

    atol: float = 1e-9
    rtol: float = 1e-9
    span: int = 8  # sampling draws float(Fraction(n, d)) with |n| <= span

    def contains(self, x):
        if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
            return False
        return math.isfinite(float(x))

    def eq(self, x, y):
        if isinstance(x, (tuple, list)) or isinstance(y, (tuple, list)):
            raise ShapeError(f"expected scalars, got {x!r}, {y!r}")
        fx, fy = float(x), float(y)
        if fx == fy:
            return True
        return abs(fx - fy) <= self.atol + self.rtol * max(abs(fx), abs(fy))

    def draw(self, rng):
        return float(_draw_fraction(rng, bound=self.span))

    def describe(self):
        return "R64"


@dataclass(frozen=True)
class Product(Carrier):
    """Tuples whose i-th slot lives in parts[i]."""

    parts: tuple

    def contains(self, x):
        return (isinstance(x, tuple) and len(x) == len(self.parts)
                and all(p.contains(v) for p, v in zip(self.parts, x)))

    def _check_shape(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.parts):
            raise ShapeError(f"expected a {len(self.parts)}-tuple for {self.describe()}, got {x!r}")

    def eq(self, x, y):
        self._check_shape(x)
        self._check_shape(y)
        return all(p.eq(a, b) for p, a, b in zip(self.parts, x, y))

    @property
    def finite(self):
        return all(p.finite for p in self.parts)

    def elements(self):
        return [tuple(t) for t in itertools.product(*(p.elements() for p in self.parts))]

    def draw(self, rng):
        return tuple(p.draw(rng) for p in self.parts)

    def describe(self):
        return " x ".join(p.describe() for p in self.parts)


def Vector(base: Carrier, dim: int) -> Product:
    """dim-fold product of a single base carrier."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return Product(tuple([base] * dim))


@dataclass(frozen=True)
class Restricted(Carrier):
    """A base carrier filtered by a membership predicate.

    Draws rejection-sample the base unless `sampler` (rng -> element) draws
    members directly; its values are still checked for membership.
    """

    base: Carrier
    member: Callable[[object], bool]
    label: str = ""
    sampler: Callable[[random.Random], object] | None = None

    def contains(self, x):
        return self.base.contains(x) and bool(self.member(x))

    def eq(self, x, y):
        return self.base.eq(x, y)

    @property
    def finite(self):
        return self.base.finite

    def elements(self):
        return [x for x in self.base.elements() if self.member(x)]

    def draw(self, rng):
        if self.sampler is not None:
            x = self.sampler(rng)
            if not self.contains(x):
                raise ValueError(f"sampler for {self.describe()} drew non-member {x!r}")
            return x
        for _ in range(MAX_REJECTS):
            x = self.base.draw(rng)
            if self.member(x):
                return x
        raise SamplingExhausted(
            f"{MAX_REJECTS} consecutive candidates rejected for {self.describe()}")

    def describe(self):
        if self.label:
            return f"{{{self.base.describe()} : {self.label}}}"
        return f"{{{self.base.describe()} : restricted}}"


def eq(carrier: Carrier, x, y) -> bool:
    """Carrier equality with its tolerance policy."""
    return carrier.eq(x, y)


def sample(carrier: Carrier, seed: int, n: int) -> list:
    """n elements drawn from an RNG seeded with `seed`, finite carriers too."""
    if n < 0:
        raise ValueError("sample size must be >= 0")
    rng = random.Random(seed)
    return [carrier.draw(rng) for _ in range(n)]


def enumerate_elements(carrier: Carrier) -> list:
    """All elements of a finite carrier in a stable order."""
    if not carrier.finite:
        raise NotEnumerableError(f"{carrier.describe()} is not enumerable")
    return carrier.elements()


def tolerance(carrier: Carrier) -> tuple:
    """(atol, rtol) governing this carrier's equality."""
    if isinstance(carrier, Product):
        pairs = [tolerance(p) for p in carrier.parts]
        return (max(a for a, _ in pairs), max(r for _, r in pairs))
    if isinstance(carrier, Restricted):
        return tolerance(carrier.base)
    return (carrier.atol, carrier.rtol)


def try_subtract(x, y):
    """x - y when subtraction makes sense, else None (used for witnesses)."""
    if isinstance(x, tuple) and isinstance(y, tuple) and len(x) == len(y):
        parts = [try_subtract(a, b) for a, b in zip(x, y)]
        return None if any(p is None for p in parts) else tuple(parts)
    if isinstance(x, bool) or isinstance(y, bool):
        return None
    if isinstance(x, QI) or isinstance(y, QI):
        try:
            return QI.coerce(x) - QI.coerce(y)
        except ShapeError:
            return None
    if isinstance(x, (int, float, Fraction)) and isinstance(y, (int, float, Fraction)):
        return x - y
    return None
