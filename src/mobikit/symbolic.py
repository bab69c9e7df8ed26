"""Commutative polynomials and rational functions over Q and Z, for
deciding a law once instead of walking its assignments.

A carrier gives a symbol for its elements (`Carrier.symbol`): a fresh
variable whose values are rationals for Q, one whose values are ints for
Z/m, a QI of two fresh rational variables for Q[i], a tuple of its parts'
symbols for a product.  A law's two sides, evaluated once on symbols, give
polynomials (or quotients, below), and the law's own equality, asked about
them, answers True only when they agree at every assignment (`Rational.eq`
and `GaussianRational.eq`, part by part, through `equal`, `ModularInt.eq`
through `congruent`); otherwise it raises Undecided.  A law whose equality
answers True holds at every draw of a sampled check and at every tuple of
an exhaustive one.

A Poly records what kind of value it stands for:

- a rational: anything computed with a Q variable or a Fraction;
- an int: Z/m variables and int coefficients only (`modulus` 0);
- an int known only modulo g (`modulus` g), after a `%`.

Ring operations combine the kinds: a rational with anything exact is a
rational, and an int known modulo g1 with one known modulo g2 is known
modulo gcd(g1, g2).  `P % k`, for an int P and a nonzero int k, reduces
P's coefficients modulo k and is known modulo gcd(g, k), since P % k is
congruent to P modulo k.  `/` is a Fraction only when an operand is a
rational and the divisor a nonzero constant, as in Python, where int / int
is a float.

A Quotient is a rational num / den whose denominator is a product of
factors, each stored once with its exponent, so that a sum takes the least
common multiple of the factors rather than their product.  Its only source
is a division of Gaussian rationals: `carriers.QI` divides by c + di
through 1 / (c*c + d*d), `inverse_norm`, which is a divisor only when c and
d are polynomials and one of them is a nonzero constant k, so that the norm
is at least k*k at every assignment.  Two quotients are equal when the
numerator of their difference is the zero polynomial.  A Poly or Quotient
operation with a QI operand returns NotImplemented, so that Python calls
QI's reflected method (`reflected`).

Anything that is not such an operation raises `Undecided`: `/` of two
ints, by a non-constant or by zero, a division by a Gaussian rational with
no constant part (z / w for two Q[i] symbols, QI(x, 0)) or by a quotient,
any comparison, bool(), float(), hash(), int() and __index__ (so a table
lookup), `%` of a rational or by anything but a nonzero int, k % P, //,
abs(), a power that is not a nonnegative int, an operand that is a float,
None or a bool, a rational mixed with an int known only modulo g, and a
result (or a partial product) with more than MAX_TERMS terms.  An undecided
law is walked as if it had no symbols.

Trust base.  A pass without a walk is sound when:

- every code path that a symbol reaches computes, on numbers, the same
  polynomial or rational function.  A path that branches on a value raises
  Undecided at the branch.  A path that branches on type can differ.  In
  the operations today only these do: `carriers._Fraction`'s dunders, which
  for a symbolic operand fall through to Fraction's own methods, which
  return NotImplemented, so that Python calls the symbol's reflected
  method, the same ring operation; `carriers.QI`, which keeps symbolic
  parts as it keeps Fractions, and whose quotient multiplies by the
  inverse norm where numbers divide by the norm, the same value; and
  `dsl._div`, whose int / int is a Fraction, where a Poly takes no int /
  int at all;
- every divisor is nonzero at every assignment: a nonzero constant, or a
  norm c*c + d*d with a nonzero constant part, which is positive for real
  c and d.  So no draw that a decision skips would have raised
  ZeroDivisionError, and the numbers divide where the symbols do;
- a Z/m variable stands for every int, and the elements and draws of Z/m
  are ints; a restricted carrier with a direct sampler draws, and
  enumerates, only members, on which an identity over its base holds too;
- Undecided subclasses none of ArithmeticError, report.EvalError or
  carriers.CarrierError, so no handler in mobikit can swallow it and put
  another value in place of the operation;
- the law's equality, given two symbolic sides, answers True only when it
  would answer True on every pair of values they stand for.  The carriers'
  equalities do (Rational.eq, GaussianRational.eq, ModularInt.eq, and
  Product.eq and Restricted.eq through them), and so does a law's equality
  built from them without branching on a value's type.  A law's own
  equality that rejects a value, such as one that raises at u == 3, meets
  a comparison on a symbol and leaves the law undecided.  The probes and
  one seeded draw run through the loop before the symbols under every
  strategy, so a side that raises on numbers fails the law, and the
  caller's own walk then gives the witness;
- for an implication, a constructed copy of the symbols on which the
  premise and the equality both answer True stands for every copy, so
  every copy a sampled walk would take passes.  Its draws and the first
  copy, a prefix of the sampled walk, still run through the loop, so a
  failure among them is the walk's first, with its witness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd
from typing import Callable

# past this many terms a polynomial is undecided rather than slow; the
# largest of a decided law in a pass of the catalog or of the
# definition-file checks has 579 (X5 over Q[i])
MAX_TERMS = 1_000


class Undecided(Exception):
    """A symbolic evaluation left the polynomials; the walk decides."""


class Poly:
    """A polynomial: {monomial: nonzero int or Fraction coefficient}, where a
    monomial is the sorted tuple of its variables' indices, one per degree;
    `rational` tells whether its value is a rational or an int, and an int
    is known modulo `modulus` (exactly when it is 0)."""

    __slots__ = ("terms", "rational", "modulus")

    def __init__(self, terms: dict, rational: bool = True, modulus: int = 0):
        if len(terms) > MAX_TERMS:
            raise Undecided(f"a polynomial of more than {MAX_TERMS} terms")
        self.terms, self.rational, self.modulus = terms, rational, modulus

    def __add__(self, other):
        operand = _operand(other)
        if operand is None:
            return NotImplemented
        terms, rational, modulus = operand
        out = dict(self.terms)
        for m, c in terms.items():
            s = out.pop(m, 0) + c
            if s:
                out[m] = s
        return Poly(out, *_kind(self, rational, modulus))

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()}, self.rational, self.modulus)

    def __sub__(self, other):
        if type(other) in _REFLECTED:
            return NotImplemented
        return self + -_poly(other)

    def __rsub__(self, other):
        return _poly(other) + -self

    def __mul__(self, other):
        operand = _operand(other)
        if operand is None:
            return NotImplemented
        terms, rational, modulus = operand
        kind = _kind(self, rational, modulus)
        out, right = {}, terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = tuple(sorted(m1 + m2))
                s = out.pop(m, 0) + c1 * c2
                if s:
                    out[m] = s
            if len(out) > MAX_TERMS:  # a partial product past the cap is undecided
                break
        return Poly(out, *kind)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) in _REFLECTED:
            return NotImplemented
        return _quotient(self, other)

    def __rtruediv__(self, other):
        return _quotient(other, self)

    def __mod__(self, k):
        if type(k) is not int or not k:
            raise Undecided(f"a remainder modulo {k!r}")
        if self.rational:
            raise Undecided("a remainder of a rational")
        out = {}
        for m, c in self.terms.items():
            r = c % k
            if r:
                out[m] = r
        return Poly(out, False, gcd(self.modulus, k))

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            raise Undecided(f"a power {n!r}")
        if n > MAX_TERMS and self.terms.keys() - {()}:
            raise Undecided(f"a power {n} past the degree cap")
        # x ** 0 is exactly 1, an int or a Fraction as x is
        out, base = Poly({(): 1}, self.rational), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out


class Quotient:
    """A rational function num / den that no assignment leaves undefined:
    `den` maps a key of each factor to (factor, exponent), where a factor is
    a polynomial that is nonzero at every assignment (see inverse_norm), and
    each factor is stored once.  Its value is a rational."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: dict):
        self.num, self.den = num, den

    def __add__(self, other):
        return _sum(self, other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return _sum(self, other, True)

    def __rsub__(self, other):
        return _sum(-self, other, False)

    def __neg__(self):
        return Quotient(-self.num, self.den)

    def __mul__(self, other):
        operand = _fraction(other)
        if operand is None:
            return NotImplemented
        num, den = operand
        out = dict(self.den)
        for key, (f, e) in den.items():
            out[key] = (f, out[key][1] + e) if key in out else (f, e)
        return _over(self.num * num, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) in _REFLECTED:
            return NotImplemented
        return _over(_quotient(self.num, other), self.den)

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            raise Undecided(f"a power {n!r}")
        den = {key: (f, e * n) for key, (f, e) in self.den.items()} if n else {}
        return _over(self.num ** n, den)


def _refuse(name: str):
    def refuse(self, *args):
        raise Undecided(f"{name} of a polynomial")
    return refuse


# a branch, a hash key, an index or a float would leave the polynomials
for _name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
              "__bool__", "__hash__", "__float__", "__int__", "__index__",
              "__complex__", "__abs__", "__round__", "__trunc__", "__floor__",
              "__ceil__", "__rmod__", "__floordiv__", "__rfloordiv__",
              "__divmod__", "__rdivmod__", "__rpow__"):
    setattr(Poly, _name, _refuse(_name))
    setattr(Quotient, _name, _refuse(_name))
# a remainder of a rational, and a division by what may be zero
Quotient.__mod__ = _refuse("__mod__")
Quotient.__rtruediv__ = _refuse("__rtruediv__")

# the operand types whose reflected methods take a Poly or a Quotient: a
# Quotient, and the Gaussian rationals of carriers (see reflected)
_REFLECTED = {Quotient}


def reflected(cls):
    """Class decorator: a Poly or Quotient operation with a cls operand
    returns NotImplemented, so that Python calls cls's reflected method."""
    _REFLECTED.add(cls)
    return cls


def _operand(x) -> tuple | None:
    """(terms, rational, modulus) of a Poly, an int or a Fraction; None for
    a type in _REFLECTED; Undecided for anything else."""
    if type(x) is Poly:
        return x.terms, x.rational, x.modulus
    if type(x) is int:
        return ({(): x} if x else {}), False, 0
    if isinstance(x, Fraction):
        return ({(): x} if x else {}), True, 0
    if type(x) in _REFLECTED:
        return None
    raise Undecided(f"a {type(x).__name__} operand")


def _kind(p: Poly, rational: bool, modulus: int) -> tuple:
    """(rational, modulus) of a ring operation on p and an operand of the
    given kind; Undecided for a rational with an int known modulo g."""
    rational, modulus = p.rational or rational, gcd(p.modulus, modulus)
    if rational and modulus:
        raise Undecided(f"a rational with an int known modulo {modulus}")
    return rational, modulus


def _poly(x) -> Poly:
    """x as a Poly; Undecided for a Quotient or a non-number."""
    if type(x) is Poly:
        return x
    operand = _operand(x)
    if operand is None:
        raise Undecided(f"a {type(x).__name__} where a polynomial is needed")
    return Poly(*operand)


def _quotient(a, b) -> Poly:
    """a / b for an exact nonzero constant b when a or b is a rational;
    Undecided otherwise."""
    a, b = _poly(a), _poly(b)
    if not (a.rational or b.rational):
        raise Undecided("an int / int, which is a float")
    if b.modulus or b.terms.keys() != {()}:
        raise Undecided("a division by zero, by a non-constant or by an inexact int")
    return a * (Fraction(1) / b.terms[()])


def _fraction(x) -> tuple | None:
    """(num, den) of a Quotient, or of a Poly, int or Fraction over no
    factors; None for another type in _REFLECTED; Undecided otherwise."""
    if type(x) is Quotient:
        return x.num, x.den
    if type(x) in _REFLECTED:
        return None
    return _poly(x), {}


def _over(num: Poly, den: dict):
    """num / den, a Poly when there is no factor or num is zero."""
    return Quotient(num, den) if den and num.terms else num


def _cofactor(den: dict, part: dict):
    """The product of den's factors that `part` lacks, with the exponents
    it lacks, so that part times it is den; 1 when it lacks none."""
    out = 1
    for key, (f, e) in den.items():
        missing = e - part[key][1] if key in part else e
        if missing:
            out = f ** missing * out
    return out


def _sum(q: Quotient, other, negate: bool):
    """q + other, or q - other when negate, over the least common multiple
    of their denominators: each factor with the larger exponent."""
    operand = _fraction(other)
    if operand is None:
        return NotImplemented
    num, den = operand
    out = dict(q.den)
    for key, (f, e) in den.items():
        if key not in out or out[key][1] < e:
            out[key] = (f, e)
    left, right = q.num * _cofactor(out, q.den), num * _cofactor(out, den)
    return _over(left - right if negate else left + right, out)


def inverse_norm(c, d):
    """1 / (c*c + d*d) for the parts c and d of a Gaussian rational, when
    both are polynomials and one is a nonzero constant k, so that the norm
    is at least k*k at every assignment; Undecided otherwise."""
    c, d = _poly(c), _poly(d)
    if c.modulus or d.modulus or not (c.terms.keys() == {()} or d.terms.keys() == {()}):
        raise Undecided("a division by a Gaussian rational that may be zero")
    norm, one = c * c + d * d, Poly({(): 1})
    if norm.terms.keys() == {()}:
        return _quotient(one, norm)
    return Quotient(one, {frozenset(norm.terms.items()): (norm, 1)})


def variables() -> Callable[..., Poly]:
    """A function fresh(integer=False) that returns a new variable each time
    it is called, one whose values are ints when integer is true and
    rationals otherwise."""
    indices = count()
    return lambda integer=False: Poly({(next(indices),): 1}, not integer)


def equal(x, y) -> bool:
    """True when x and y are the same rational or int at every assignment:
    their difference is 0, over factors that are nowhere zero, and neither
    is known only modulo some g; Undecided otherwise."""
    d = (x if type(x) is Quotient else _poly(x)) - (y if type(y) is Quotient else _poly(y))
    if type(d) is Quotient:
        d = d.num
    if d.terms or d.modulus:
        raise Undecided("sides that are not the same polynomial")
    return True


def congruent(x, y, n: int) -> bool:
    """True when x and y are ints congruent modulo n at every assignment:
    n divides the modulus they are known to and every coefficient of their
    difference; Undecided otherwise."""
    d = _poly(x) - y
    if d.rational or d.modulus % n or any(c % n for c in d.terms.values()):
        raise Undecided(f"sides that are not the same polynomial modulo {n}")
    return True
