"""Value carriers: the sets that algebras and spaces live on.

A carrier bundles membership, equality (for floats within FLOAT_ATOL and
FLOAT_RTOL, a tolerance that serves only walked laws and the seeded draw of
a decided one: on symbols Float64.eq is exact), deterministic sampling, and
enumeration when the set is finite.
Elements are plain Python values: Fraction, QI (Gaussian rational), int
(mod-m residues), float, and tuples of those.

Rational draws and the catalog's constants are Fractions of the private
subclass `rational._Fraction`, the exact-rational kernel that polynomial
coefficients share: its arithmetic with an int or a Fraction takes a fast
path with a `_Fraction` result, and it prints, hashes and compares as the
`Fraction` of the same value (see rational).  Draws pick from a table of the
values n/d with |n| <= 12 and 1 <= d <= 8, consuming the RNG exactly as
`rng.randint` would.

Each carrier draws with one plain method, `draw(rng)`; `draws` calls it
as its iterator is read (`sample` lists them).  Z/m draws with
`rng.randrange(m)`.  Rational values and R64's floats are nearly all of
a sampled pass's draws, so `_draw_rational` (which Q[i] calls for each
part) and `Float64.draw` alone inline `random.Random`'s getrandbits
rejection loop: the same calls in the same order as `rng.randint`, and the
same values, at about a third of its cost.
A product's draw is the tuple of its parts' draws, left to right.  A
restricted carrier's draw checks each sampled value for membership and
bounds rejection by MAX_REJECTS.

QI arithmetic and equality skip `QI.coerce` when the other operand is a
QI, and results are built without `QI.__init__`'s type tests, since sums,
products and quotients of Fractions are Fractions.  A real operand r (a
`_Fraction` or a symbol) of +, - and * meets only the nonzero half of
QI(r, 0): (a + bi) * r is a*r + (b*r)i, not (a*r - b*0) + (a*0 + b*r)i.
The general path's extra terms are products by zero, empty polynomials
whose sums keep the other side's terms in their order, so the fast path
gives the same values and, on symbols, the same terms in the same order,
which is what keeps a decided law's reports byte-identical.  (A number
half beside a symbolic one stays a number, where the general path adds
the empty polynomial to it and makes it a constant one: the same value
and terms.)  `Rational.eq` and
`GaussianRational.eq` compare `_Fraction` and `QI` components directly, and
`Product.eq` tests an exact tuple's length before falling back to the
general shape check, with the same `ShapeError` as before.  `ModularInt.eq`
reduces two exact ints without its membership tests.

`size()` is the number of elements of a finite carrier (an upper bound for
a restricted one), read from its parameters without enumerating it, and
None for an infinite one.

`symbol(fresh)` is a symbolic element standing for every element, for a
law to be decided once instead of drawn or walked (see symbolic): a fresh
rational variable for Rational, a fresh REAL variable for R64, which a
float operand meets as its exact rational, a fresh int variable for Z/m, a
QI of two fresh rational variables for Q[i], the tuple of its parts'
symbols for a product, its base's symbol for a restricted carrier with a
direct sampler, each variable in the domain its sign conditions bound it
to, or, when they bound a parallelotope, its coordinates as affine
expressions in UNIT variables (Restricted._box), and None for every other
carrier (rejection-sampled restrictions).  `element(symbol, values)` is
its inverse: the element that a symbol stands for at numbers given for
its variables, None when that is not a member.  `linear_solution` solves
the linear equations that a box, a constructed copy (report._images) and
a doubler (algebra.solve_two) give.
`exp` is math.exp on a number and an exp term (symbolic.exp) on a
symbol, the one exp of the catalog and of definition files.  A QI keeps
symbolic parts, and divides by a symbolic QI through its norm, a divisor
only when it is certified nowhere zero.  `admits(x)` answers whether every
value of a symbolic x is a member, for a closure predicate: Q, Q[i] and
Z/m admit a value of their kind, a product one whose parts its parts
admit, a restricted carrier one that its base admits and that meets each
of its sign conditions by symbolic.nonnegative; every other carrier, and
a restricted one with an opaque predicate, admits nothing (R64 too, so
that a float exp that overflows at a draw still fails closure).
`Rational.eq`, `Float64.eq`, `GaussianRational.eq` (part by part) and
`ModularInt.eq` given a symbolic side answer True only for sides equal, or
congruent modulo m, at every assignment, and raise symbolic.Undecided
otherwise.
`differences(x, y)` gives, for two symbolic elements of Q, R64, Q[i] or
Z/m, or a product or restriction of them, the polynomials that all
vanish at an assignment exactly when `eq(x, y)` holds there: one for Q,
one for R64 with each exp(g) a positive variable of its own
(symbolic.exp_difference), the real and imaginary parts for Q[i], one
for Z/m, which vanishes modulo m (symbolic.residue), the parts' in turn
for a product, the base's for a restriction; every other carrier gives
None.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import symbolic
from .rational import _Fraction, _gcd, _make, _new
from .symbolic import (FREE, REAL, UNIT, Exp, Points, Poly, Quotient, Undecided, congruent,
                       difference, domain_of, domains, equal, exp_difference,
                       nonnegative, reflected, residue, variables)

MAX_REJECTS = 10_000
_SYMBOLS = (Poly, Quotient, Points, Exp)  # the types of a symbolic value
SCALAR = "scalar"  # the shape of a non-product element with an order
COMPLEX = "complex"  # the shape of a Gaussian rational, which has none
MODULAR = "modular"  # the shape of a residue mod m, which has no division
RATIONAL_NUMERATOR_BOUND = 12
DENOMINATOR_BOUND = 8
FLOAT_ATOL = 1e-9  # absolute and relative tolerance of Float64 equality
FLOAT_RTOL = 1e-9


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
    # the type test first: isinstance(x, Fraction) is an ABC check for a subclass
    if type(x) is _Fraction or (not isinstance(x, bool) and isinstance(x, (int, Fraction))):
        return x
    raise ShapeError(f"expected a rational, got {_shown(x)}")


# _DRAWS[d - 1][n + RATIONAL_NUMERATOR_BOUND] is n/d: every value a Rational
# draw can take, built once at import (without Fraction(n, d)'s parsing) and
# shared, since values are immutable.
_DRAWS = tuple(tuple(_make(n // _gcd(n, d), d // _gcd(n, d))
                     for n in range(-RATIONAL_NUMERATOR_BOUND, RATIONAL_NUMERATOR_BOUND + 1))
               for d in range(1, DENOMINATOR_BOUND + 1))


_NUMERATOR_WIDTH = 2 * RATIONAL_NUMERATOR_BOUND + 1
_NUMERATOR_BITS = _NUMERATOR_WIDTH.bit_length()
_DENOMINATOR_BITS = DENOMINATOR_BOUND.bit_length()


def _draw_rational(rng: random.Random) -> _Fraction:
    """Rational's draw: Fraction(rng.randint(-B, B), rng.randint(1, D)) for
    B = RATIONAL_NUMERATOR_BOUND and D = DENOMINATOR_BOUND, with both randint
    loops inlined (the same getrandbits calls in the same order) and the
    value read from _DRAWS, whose rows and columns are the loops' results."""
    getrandbits = rng.getrandbits
    n = getrandbits(_NUMERATOR_BITS)
    while n >= _NUMERATOR_WIDTH:
        n = getrandbits(_NUMERATOR_BITS)
    d = getrandbits(_DENOMINATOR_BITS)
    while d >= DENOMINATOR_BOUND:
        d = getrandbits(_DENOMINATOR_BITS)
    return _DRAWS[d][n]


_HEAD_DIGITS = 20


def _render_int(n: int) -> str:
    """n in decimal; past the interpreter's digit limit for str(), its
    leading digits and its digit count, as in 123...(5001 digits)."""
    try:
        return str(n)
    except ValueError:
        m = abs(n)
        # m has `digits` digits: 10**(digits - 1) <= m < 10**digits
        digits = int(m.bit_length() * math.log10(2))
        digits += m >= 10 ** digits
        head = m // 10 ** (digits - _HEAD_DIGITS)
        return f"{'-' if n < 0 else ''}{head}...({digits} digits)"


def render_rational(v) -> str:
    """str() of an int or Fraction, with _render_int's form for a numerator
    or denominator past the digit limit."""
    text = _render_int(v.numerator)
    return text if v.denominator == 1 else f"{text}/{_render_int(v.denominator)}"


def _shown(x) -> str:
    """repr(x), as an error message names a value, with _render_int's form
    for an int past the digit limit, where repr() would raise: in an int, a
    Fraction, a QI or a tuple of them."""
    try:
        return repr(x)
    except ValueError:
        if type(x) is tuple:
            return f"({', '.join(map(_shown, x))}{',' if len(x) == 1 else ''})"
        if isinstance(x, QI):
            return f"QI({render_rational(x.re)}, {render_rational(x.im)})"
        if isinstance(x, Fraction):
            return f"Fraction({_render_int(x.numerator)}, {_render_int(x.denominator)})"
        return _render_int(x)


def _exact(x) -> bool:
    """Whether x is a symbolic rational or an int known exactly: its every
    value is a rational."""
    return type(x) in (Poly, Quotient, Points) and not (type(x) is Poly and x.modulus)


def exp(x):
    """e**x: math.exp on a number, and on a symbol the exp term that stands
    for it (symbolic.exp)."""
    return symbolic.exp(x) if type(x) in _SYMBOLS else math.exp(x)


def _part(x):
    """A component of a QI: x itself when it is a Fraction (_Fraction
    included; the type test skips the ABC check that isinstance makes) or
    symbolic, else Fraction(x)."""
    if type(x) is _Fraction or isinstance(x, Fraction) or type(x) in _SYMBOLS:
        return x
    return Fraction(x)


@reflected  # a Poly operand hands a QI to QI's reflected method
class QI:
    """Gaussian rational re + im*i with exact Fraction components, or
    symbolic ones (see symbolic)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # ints become plain Fractions; Fractions and symbols are kept
        object.__setattr__(self, "re", _part(re))
        object.__setattr__(self, "im", _part(im))

    def __setattr__(self, name, value):
        raise AttributeError("QI values are immutable")

    @staticmethod
    def coerce(x) -> "QI":
        t = type(x)
        if t is QI:
            return x
        if t is _Fraction or t in _SYMBOLS:
            return _qi(x, _ZERO)
        if isinstance(x, QI):
            return x
        if isinstance(x, bool):
            raise ShapeError(f"expected a Gaussian rational, got {_shown(x)}")
        if isinstance(x, (int, Fraction)):
            return QI(x, 0)
        raise ShapeError(f"expected a Gaussian rational, got {_shown(x)}")

    # A QI operand skips coerce, a real one (a _Fraction or a symbol) meets
    # the nonzero half only; _qi builds the results (see the module notes)

    def __add__(self, other):
        t = type(other)
        if t is _Fraction or t in _SYMBOLS:
            return _qi(self.re + other, self.im)
        o = other if t is QI else QI.coerce(other)
        return _qi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        t = type(other)
        if t is _Fraction or t in _SYMBOLS:
            return _qi(self.re - other, self.im)
        o = other if t is QI else QI.coerce(other)
        return _qi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        t = type(other)
        if t is _Fraction or t in _SYMBOLS:
            return _qi(other - self.re, -self.im)
        o = QI.coerce(other)
        return _qi(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        t = type(other)
        if t is _Fraction or t in _SYMBOLS:
            return _qi(self.re * other, self.im * other)
        o = other if t is QI else QI.coerce(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        return _qi(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is QI else QI.coerce(other)
        return _qi_quotient(self, o)

    def __rtruediv__(self, other):
        return _qi_quotient(QI.coerce(other), self)

    def __neg__(self):
        return _qi(-self.re, -self.im)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ShapeError("QI powers take a nonnegative int")
        out = QI(1, 0)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if type(other) is QI:
            return self.re == other.re and self.im == other.im
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
        re, im = render_rational(self.re), self.im
        if im == 0:
            return re
        text = "i" if im == 1 else "-i" if im == -1 else f"{render_rational(im)}i"
        if self.re == 0:
            return text
        return f"{re}{'+' if im > 0 else ''}{text}"


_set_re = QI.re.__set__
_set_im = QI.im.__set__
_ZERO = _make(0, 1)


def _qi(re, im) -> QI:
    """QI(re, im) for Fraction components, without __init__'s type tests."""
    z = _new(QI)
    _set_re(z, re)
    _set_im(z, im)
    return z


def _qi_quotient(z: QI, w: QI) -> QI:
    """z / w, or ZeroDivisionError when w is zero.  A symbolic norm is a
    divisor only when it is certified nowhere zero (symbolic.positive),
    once for both parts."""
    a, b, c, d = z.re, z.im, w.re, w.im
    norm = c * c + d * d
    if type(norm) in _SYMBOLS:
        inverse = 1 / norm
        return _qi((a * c + b * d) * inverse, (b * c - a * d) * inverse)
    if norm == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return _qi((a * c + b * d) / norm, (b * c - a * d) / norm)


class Carrier:
    """Interface shared by all carrier kinds."""

    def contains(self, x) -> bool:
        raise NotImplementedError

    def eq(self, x, y) -> bool:
        raise NotImplementedError

    def shape(self):
        """SCALAR, COMPLEX for Q[i], MODULAR for Z/m, or for a product the
        tuple of its parts' shapes."""
        return SCALAR

    def atom_names(self) -> frozenset:
        """The definition-language atoms (Q, QI, R64, Zmod) it is built from."""
        return frozenset()

    def coerce(self, value):
        """Best-effort coercion of a parsed literal into this element type."""
        return value

    def elements(self) -> list:
        raise NotEnumerableError(f"{self.describe()} is not enumerable")

    def size(self) -> int | None:
        """The number of elements, or None when the carrier is infinite;
        never found by enumerating."""
        return None

    def differences(self, x, y) -> list | None:
        """Polynomials, one per component, for two symbolic elements, such
        that eq(x, y) holds at an assignment exactly when every one of them
        vanishes there: exact ones (see solver.solved), or for Z/m ints
        known modulo m that vanish modulo m (see symbolic._certified); None
        for a carrier whose equality is neither exact equality of
        rationals nor congruence modulo m.  A subclass that overrides
        eq has none unless it overrides this too."""
        return None

    def symbol(self, fresh: Callable[..., object]):
        """A symbolic element that stands for every element, made of
        fresh(integer=False, domain=FREE) variables (see symbolic), each
        ranging over a domain that holds at every element, or None when the
        carrier has none: its values are neither rationals nor ints mod m,
        or its equality is not exact."""
        return None

    def element(self, symbol, values: dict):
        """The inverse of symbol(): the element that a symbol this carrier
        made stands for where each of its variables v takes the rational
        values[v], or None when that is not a member.  Q, Q[i], and products
        and restrictions of them define it."""
        raise NotImplementedError

    def admits(self, x) -> bool:
        """True when every value that the symbolic value x stands for is a
        member, at every assignment of its variables in their domains (see
        symbolic); False when that is not certified, and the closure law
        that asks is walked.  A subclass that overrides contains admits
        nothing unless it overrides this too."""
        return False

    def draw(self, rng: random.Random):
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.describe()


@dataclass(frozen=True)
class Rational(Carrier):
    """All of Q; values are Fraction (ints accepted and compared exactly)."""

    def contains(self, x):
        return type(x) is _Fraction or (isinstance(x, (int, Fraction))
                                        and not isinstance(x, bool))

    def eq(self, x, y):
        if type(x) is _Fraction and type(y) is _Fraction:
            return x._numerator == y._numerator and x._denominator == y._denominator
        if type(x) in _SYMBOLS or type(y) in _SYMBOLS:
            return equal(x, y)
        return _rational(x) == _rational(y)

    def differences(self, x, y):
        return [difference(x, y)]

    def admits(self, x):
        return _exact(x) or self.contains(x)

    def draw(self, rng):
        return _draw_rational(rng)

    def symbol(self, fresh):
        return fresh()

    def element(self, symbol, values):
        v = _evaluated(symbol, values)
        return _make(v.numerator, v.denominator)

    def describe(self):
        return "Q"

    def atom_names(self):
        return frozenset({"Q"})


@dataclass(frozen=True)
class GaussianRational(Carrier):
    """Q[i]; values are QI (plain rationals accepted as real values)."""

    def contains(self, x):
        return isinstance(x, QI) or (isinstance(x, (int, Fraction)) and not isinstance(x, bool))

    def eq(self, x, y):
        if type(x) is not QI or type(y) is not QI:
            x, y = QI.coerce(x), QI.coerce(y)
        try:
            return x.re == y.re and x.im == y.im
        except Undecided:  # a symbolic part, which refuses ==
            return equal(x.re, y.re) and equal(x.im, y.im)

    def differences(self, x, y):
        x, y = QI.coerce(x), QI.coerce(y)
        return [difference(x.re, y.re), difference(x.im, y.im)]

    def admits(self, x):
        if type(x) is QI:
            return all(_exact(v) or isinstance(v, Fraction) for v in (x.re, x.im))
        return _exact(x) or self.contains(x)

    def draw(self, rng):
        # each part drawn as a Rational is, the real part first
        return _qi(_draw_rational(rng), _draw_rational(rng))

    def symbol(self, fresh):
        return _qi(fresh(), fresh())

    def element(self, symbol, values):
        return QI(_evaluated(symbol.re, values), _evaluated(symbol.im, values))

    def describe(self):
        return "Q[i]"

    def shape(self):
        return COMPLEX

    def atom_names(self):
        return frozenset({"QI"})

    def coerce(self, value):
        return QI(value) if isinstance(value, (int, Fraction)) else value


@dataclass(frozen=True)
class ModularInt(Carrier):
    """Residues mod m; any int is a member, equality is mod-m, and an
    implication's differences are reduced mod m (differences)."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")

    def contains(self, x):
        return isinstance(x, int) and not isinstance(x, bool)

    def eq(self, x, y):
        if type(x) is int and type(y) is int:
            return (x - y) % self.modulus == 0
        if type(x) in _SYMBOLS or type(y) in _SYMBOLS:
            return congruent(x, y, self.modulus)
        if not (self.contains(x) and self.contains(y)):
            raise ShapeError(f"expected ints mod {self.modulus}, got {_shown(x)}, {_shown(y)}")
        return (x - y) % self.modulus == 0

    def differences(self, x, y):
        """[x - y reduced modulo m] (symbolic.residue), which vanishes
        modulo m exactly where x and y are congruent (see
        symbolic._certified)."""
        return [residue(x, y, self.modulus)]

    def admits(self, x):
        return (type(x) is Poly and not x.rational) or self.contains(x)

    def elements(self):
        return list(range(self.modulus))

    def size(self):
        return self.modulus

    def symbol(self, fresh):
        return fresh(integer=True)

    def draw(self, rng):
        return rng.randrange(self.modulus)

    def describe(self):
        return f"Z/{self.modulus}"

    def shape(self):
        return MODULAR

    def atom_names(self):
        return frozenset({"Zmod"})


@dataclass(frozen=True)
class Float64(Carrier):
    """Finite doubles, equal within FLOAT_ATOL + FLOAT_RTOL*max(|x|,|y|), and
    exactly on symbols (see symbolic)."""

    span: int = 8  # sampling draws float(Fraction(n, d)) with |n| <= span

    def __post_init__(self):
        if self.span < 0:
            raise ValueError("span must be >= 0")

    def contains(self, x):
        if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
            return False
        return math.isfinite(float(x))

    def eq(self, x, y):
        if isinstance(x, (tuple, list)) or isinstance(y, (tuple, list)):
            raise ShapeError(f"expected scalars, got {_shown(x)}, {_shown(y)}")
        try:
            fx, fy = float(x), float(y)
        except Undecided:  # a symbolic side, which refuses float(): exactly
            return equal(*(Fraction(v) if type(v) is float else v for v in (x, y)))
        if fx == fy:
            return True
        return abs(fx - fy) <= FLOAT_ATOL + FLOAT_RTOL * max(abs(fx), abs(fy))

    def draw(self, rng):
        # float(Fraction(rng.randint(-span, span),
        #                rng.randint(1, DENOMINATOR_BOUND))), both randint
        # loops inlined (see the module notes): n / d is correctly rounded,
        # as Fraction.__float__ is, so reducing n/d first changes nothing
        span = self.span
        width = 2 * span + 1
        k = width.bit_length()
        getrandbits = rng.getrandbits
        n = getrandbits(k)
        while n >= width:
            n = getrandbits(k)
        d = getrandbits(_DENOMINATOR_BITS)
        while d >= DENOMINATOR_BOUND:
            d = getrandbits(_DENOMINATOR_BITS)
        return (n - span) / (d + 1)

    def describe(self):
        return "R64"

    def atom_names(self):
        return frozenset({"R64"})

    def coerce(self, value):
        return float(value) if isinstance(value, (int, Fraction)) else value

    def differences(self, x, y):
        return [exp_difference(x, y)]

    def symbol(self, fresh):
        # every finite double is a rational; a float that meets it enters
        # as its exact rational (symbolic.REAL)
        return Poly(fresh().terms, REAL)


@dataclass(frozen=True)
class Product(Carrier):
    """Tuples whose i-th slot lives in parts[i]."""

    parts: tuple

    def contains(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.parts):
            return False
        for p, v in zip(self.parts, x):
            if not p.contains(v):
                return False
        return True

    def _check_shape(self, x):
        if not isinstance(x, tuple) or len(x) != len(self.parts):
            raise ShapeError(f"expected a {len(self.parts)}-tuple for {self.describe()}, got {_shown(x)}")

    def eq(self, x, y):
        n = len(self.parts)
        if type(x) is not tuple or len(x) != n:
            self._check_shape(x)
        if type(y) is not tuple or len(y) != n:
            self._check_shape(y)
        for p, a, b in zip(self.parts, x, y):
            if not p.eq(a, b):
                return False
        return True

    def differences(self, x, y):
        for v in (x, y):
            if type(v) is not tuple or len(v) != len(self.parts):
                self._check_shape(v)
        out = []
        for p, a, b in zip(self.parts, x, y):
            d = p.differences(a, b)
            if d is None:
                return None
            out += d
        return out

    def admits(self, x):
        return (type(x) is tuple and len(x) == len(self.parts)
                and all(p.admits(v) for p, v in zip(self.parts, x)))

    def shape(self):
        return tuple(p.shape() for p in self.parts)

    def atom_names(self):
        return frozenset().union(*(p.atom_names() for p in self.parts))

    def coerce(self, value):
        if isinstance(value, tuple) and len(value) == len(self.parts):
            return tuple(p.coerce(v) for p, v in zip(self.parts, value))
        if len(self.parts) == 1 and not isinstance(value, tuple):
            # the language has no 1-tuple literal: a scalar is the one part
            return (self.parts[0].coerce(value),)
        return value

    def elements(self):
        return list(itertools.product(*(p.elements() for p in self.parts)))

    def size(self):
        total = 1
        for p in self.parts:
            n = p.size()
            if n is None:
                return None
            total *= n
        return total

    def symbol(self, fresh):
        parts = tuple(p.symbol(fresh) for p in self.parts)
        return None if any(s is None for s in parts) else parts

    def element(self, symbol, values):
        parts = tuple(p.element(s, values) for p, s in zip(self.parts, symbol))
        return None if any(v is None for v in parts) else parts

    def draw(self, rng):
        return tuple([p.draw(rng) for p in self.parts])

    def describe(self):
        return " x ".join(p.describe() for p in self.parts)


def Vector(base: Carrier, dim: int) -> Product:
    """dim-fold product of a single base carrier."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return Product(tuple([base] * dim))


@dataclass(frozen=True)
class Sign:
    """The sign condition g(x) >= 0, or g(x) > 0 when strict, on an element
    x of a restricted carrier's base: g is a polynomial in x's coordinates,
    written as a function of x, so that it evaluates on numbers and on
    symbols alike."""

    g: Callable[[object], object]
    strict: bool = False


@dataclass(frozen=True)
class Restricted(Carrier):
    """A base carrier filtered by sign conditions, by an opaque membership
    predicate, or by both: a member is an element of the base that meets
    every condition and the predicate.

    Draws rejection-sample the base unless `sampler` (rng -> element) draws
    members directly; its values are still checked for membership by
    _meets, which compares each condition's g with 0 and then calls the
    predicate.  A sampled pass draws from restricted carriers rarely, next
    to the Q and R64 draws that _draw_rational and Float64.draw inline, so
    both stay plain calls.

    Its symbol is its base's, each variable in the domain (see
    symbolic.variables) that the conditions bound it to: UNIT for
    0 <= v <= 1, POSITIVE for v > 0, FREE otherwise.  When some condition
    is affine in two coordinates and the conditions bound a parallelotope
    (_box), as the lozenge's four do, its symbol writes the base's
    coordinates instead as affine expressions in n UNIT variables, one per
    slab 0 <= l_i <= c_i; every member is the symbol at some point of
    [0, 1]^n.  `element` is the base's element, when it is a member.  A
    carrier with a
    predicate and no sampler has none: the draws that rejection by an
    opaque test would make, and could exhaust, must run.  One with no
    predicate has a symbol without a sampler too, as a .mobi `where`
    clause of polynomial comparisons over Q does (see dsl).  The one cost:
    a rejection sampler that would exhaust only after its first draw no
    longer shows under a decided law, which makes one seeded draw; it
    still shows under every walked law.  `admits` certifies
    a symbolic value a member when the carrier has no predicate, its base
    admits the value and every condition holds on it (symbolic.nonnegative);
    a predicate is opaque, so a carrier with one admits nothing.
    """

    base: Carrier
    member: Callable[[object], bool] | None = None
    label: str = ""
    sampler: Callable[[random.Random], object] | None = None
    conditions: tuple = ()  # of Sign

    def _meets(self, x) -> bool:
        """Whether an element of the base meets every condition (g > 0 for a
        strict one, g >= 0 otherwise) and then the predicate."""
        for c in self.conditions:
            g = c.g(x)
            if not (g > 0 if c.strict else g >= 0):
                return False
        return self.member is None or bool(self.member(x))

    @functools.cached_property
    def _signs(self) -> tuple:
        """(symbol, indices, values): the base's symbol, of variables
        numbered from 0 (None when it has none), the index of each variable
        in the order the symbol makes them, and each condition's g evaluated
        once on the symbol, None where that raises; _domains and _box both
        read them."""
        indices, fresh = [], variables()

        def record(integer=False, domain=FREE):
            made = fresh(integer, domain)
            indices.append(next(iter(made.terms))[0])
            return made

        symbol, values = self.base.symbol(record), []
        for c in self.conditions if symbol is not None else ():
            try:
                values.append(c.g(symbol))
            except Exception:  # Undecided, or any error a symbol meets
                values.append(None)
        return symbol, indices, values

    def contains(self, x):
        return self.base.contains(x) and self._meets(x)

    def admits(self, x):
        return (self.member is None and self.base.admits(x)
                and all(nonnegative(c.g(x), c.strict) for c in self.conditions))

    def eq(self, x, y):
        return self.base.eq(x, y)

    def differences(self, x, y):
        return self.base.differences(x, y)

    def shape(self):
        return self.base.shape()

    def atom_names(self):
        return self.base.atom_names()

    def coerce(self, value):
        return self.base.coerce(value)

    def elements(self):
        return [x for x in self.base.elements() if self._meets(x)]

    def size(self):
        # the base's size bounds the members' count without testing them
        return self.base.size()

    @functools.cached_property
    def _domains(self) -> list | None:
        """The domain of each variable of the base's symbol, in the order
        the symbol makes them; None when the base has no symbol.  A condition
        whose g raises on the symbol leaves every variable unbounded."""
        symbol, indices, values = self._signs
        if symbol is None:
            return None
        bounds = {} if any(v is None for v in values) else domains(
            zip(values, (c.strict for c in self.conditions)))
        return [bounds.get(i, domain_of(i)) for i in indices]  # else the base's own

    @functools.cached_property
    def _box(self) -> list | None:
        """For a parallelotope that the conditions bound, each coordinate of
        the base's symbol, in the order the symbol makes them, as an affine
        polynomial in n variables t_i (the i-th of index i) that stand for
        UNIT variables w_i; None for any other carrier (see symbol).

        The base's symbol must be n rational variables, a tuple of them,
        nested; some condition must be affine in two of them, and the
        conditions must hold exactly n slabs with linearly independent l_i:
        a pair l_i >= 0 and c_i - l_i >= 0 (each perhaps strict), up to a
        positive factor, with l_i affine in the coordinates and c_i > 0.
        Then w_i = l_i / c_i, and x = A^-1 (c * w - d) for l = A x + d: an
        affine bijection of [0, 1]^n onto the slabs' intersection, which
        holds every member."""
        symbol, indices, values = self._signs
        if not _rational_coordinates(symbol) or any(v is None for v in values):
            return None
        forms = [(g, _linear(g)) for g in values]
        forms = [(g, form) for g, form in forms if form is not None]
        if not any(len(l) > 1 for _, (l, _) in forms):
            return None  # every condition bounds one coordinate (see _domains)
        slabs = []  # (f, c) for f = l + d
        for (f, (l, d)), (_, (h, e)) in itertools.combinations(forms, 2):
            u = next(iter(l))
            ratio = _ONE * h.get(u, 0) / l[u]
            # g = ratio * (f - d) + e >= 0 is f <= d - e / ratio for ratio < 0
            if ratio < 0 and h.keys() == l.keys() and all(h[v] == ratio * l[v] for v in l):
                if d - e / ratio > 0:
                    slabs.append((f, d - e / ratio))
        if len(slabs) != len(indices):
            return None
        # f_i = c_i * t_i
        coordinates = linear_solution(
            [(f, Poly({(i,): 1}) * c) for i, (f, c) in enumerate(slabs)], set(indices))
        return None if coordinates is None else [coordinates[v] for v in indices]

    def symbol(self, fresh):
        # an identity on the base holds on its members; with a predicate
        # and no sampler, the draws that rejection would make (and could
        # exhaust) must run
        if (self.sampler is None and self.member is not None) or self._domains is None:
            return None
        box = self._box
        if box is None:
            order = iter(self._domains)
            return self.base.symbol(lambda integer=False, domain=FREE: fresh(integer, next(order)))
        units = [fresh(False, UNIT) for _ in box]
        coordinates = iter([_evaluated(x, units) for x in box])
        return self.base.symbol(lambda integer=False, domain=FREE: next(coordinates))

    def element(self, symbol, values):
        x = self.base.element(symbol, values)
        return x if x is not None and self.contains(x) else None

    def draw(self, rng):
        if self.sampler is not None:
            x = self.sampler(rng)
            if not self.contains(x):
                raise ValueError(f"sampler for {self.describe()} drew non-member {_shown(x)}")
            return x
        for _ in range(MAX_REJECTS):
            x = self.base.draw(rng)
            if self._meets(x):
                return x
        raise SamplingExhausted(
            f"{MAX_REJECTS} consecutive candidates rejected for {self.describe()}")

    def describe(self):
        if self.label:
            return f"{{{self.base.describe()} : {self.label}}}"
        return f"{{{self.base.describe()} : restricted}}"


def _rational_coordinates(symbol) -> bool:
    """Whether a symbol is a rational variable or a tuple of them, nested."""
    if type(symbol) is tuple:
        return all(map(_rational_coordinates, symbol))
    return type(symbol) is Poly and symbol.rational is True


def _linear(g) -> tuple | None:
    """({v: c}, d) when g is the rational polynomial sum(c * v) + d of degree
    1; None for anything else."""
    if type(g) is not Poly or g.rational is not True or g.modulus:
        return None
    linear = {}
    for m, c in g.terms.items():
        if len(m) > 1:
            return None
        if m:
            linear[m[0]] = c
    return (linear, g.terms.get((), 0)) if linear else None


def _evaluated(p: Poly, values):
    """The value of the polynomial p where each variable v takes values[v],
    a number or a polynomial."""
    total = 0
    for m, c in p.terms.items():
        for v in m:
            c = c * values[v]
        total = total + c
    return total


_ONE = _make(1, 1)


def _vanishes(x) -> bool:
    """Whether x, a number or a polynomial, is zero."""
    return not x.terms if type(x) is Poly else type(x) not in _SYMBOLS and x == 0


def linear_solution(equations, unknowns: set) -> dict | None:
    """{u: value}, the one solution of linear equations in the variables
    whose indices are `unknowns`: pairs (left, right) for left == right,
    each left a polynomial of degree at most 1 in them with constant
    coefficients, each right a number or a polynomial in other variables;
    found by Gauss-Jordan elimination.  None when a left is not such a
    polynomial, or the equations leave an unknown free or have no solution
    (a right side that is not zero once its row's coefficients are
    eliminated)."""
    rows = []  # [pivot, {u: c} of the other unknowns, right side]: pivot's c is 1
    for polynomial, right in equations:
        left = {}
        for m, c in polynomial.terms.items():
            if not m:
                right = right - c
            elif len(m) == 1 and m[0] in unknowns:
                left[m[0]] = _make(c.numerator, c.denominator)
            else:
                return None
        for pivot, row, value in rows:
            c = left.pop(pivot, 0)
            if c:
                _eliminate(left, row, c)
                right = right - value * c
        if not left:
            if not _vanishes(right):
                return None
            continue
        pivot, c = next(iter(left.items()))
        del left[pivot]
        if c != 1:
            left = {u: k / c for u, k in left.items()}
            right = right * (_ONE / c)
        for other in rows:
            k = other[1].pop(pivot, 0)
            if k:
                _eliminate(other[1], left, k)
                other[2] = other[2] - right * k
        rows.append([pivot, left, right])
    if {pivot for pivot, _, _ in rows} != unknowns or any(row for _, row, _ in rows):
        return None
    return {pivot: value for pivot, _, value in rows}


def _eliminate(left: dict, row: dict, c) -> None:
    """left -= c * row, dropping the coefficients that become zero."""
    for u, k in row.items():
        s = left.pop(u, 0) - c * k
        if s:
            left[u] = s


def draws(carrier: Carrier, seed: int, n: int) -> Iterator:
    """n elements drawn from an RNG seeded with `seed`, finite carriers too,
    each drawn when the iterator reaches it."""
    if n < 0:
        raise ValueError("sample size must be >= 0")
    return map(carrier.draw, itertools.repeat(random.Random(seed), n))


def sample(carrier: Carrier, seed: int, n: int) -> list:
    """The list of draws(carrier, seed, n)."""
    return list(draws(carrier, seed, n))


def enumerate_elements(carrier: Carrier) -> list:
    """All elements of a finite carrier in a stable order."""
    if carrier.size() is None:
        raise NotEnumerableError(f"{carrier.describe()} is not enumerable")
    return carrier.elements()


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
