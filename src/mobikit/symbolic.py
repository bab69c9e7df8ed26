"""Commutative polynomials over Q, for deciding a law once instead of drawing.

A carrier built from Q gives a symbol for its elements (`Carrier.symbol`): a
fresh variable for Q, a tuple of its parts' symbols for a product.  A law's
two sides, evaluated once on symbols, give polynomials; `identical` tells
whether they are the same.  If they are, the sides agree at every rational
assignment, so every draw of a sampled check passes.

Anything that is not a ring operation with a rational operand raises
`Undecided`: division by a non-constant or by zero, any comparison, bool(),
float(), hash(), %, //, abs(), a power that is not a nonnegative int, an
operand that is a float, a QI, None or a bool, and a result (or a partial
product) with more than MAX_TERMS terms.  An undecided law is sampled as if
it had no symbols.

Trust base.  A pass without draws is sound when:

- every code path that a symbol reaches computes, on numbers, the same
  polynomial.  A path that branches on a value raises Undecided at the
  branch.  A path that branches on type can differ.  In the operations
  today only `carriers._Fraction`'s dunders do, and for a Poly operand they
  fall through to Fraction's own methods, which return NotImplemented, so
  Python calls Poly's reflected method, the same ring operation; and
  `dsl._div`, whose int / int is the same quotient as the `/` a Poly takes;
- a restricted carrier with a direct sampler draws only members, on which
  an identity over its base holds too;
- Undecided subclasses none of ArithmeticError, report.EvalError or
  carriers.CarrierError, so no handler in mobikit can swallow it and put
  another value in place of the operation;
- the law's equality holds between equal values: equal rationals, and
  tuples of the same length whose parts are equal.  The first seeded draw
  still runs through the sampling loop, so a side that raises, or an
  equality that rejects the sides' shape, fails the law as before.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from typing import Callable

# past this many terms a polynomial is undecided rather than slow; the
# largest in a pass of the catalog or of the definition-file checks has 37
MAX_TERMS = 1_000


class Undecided(Exception):
    """A symbolic evaluation left the polynomials over Q; the draws decide."""


class Poly:
    """A polynomial: {monomial: nonzero int or Fraction coefficient}, where a
    monomial is the sorted tuple of its variables' indices, one per degree."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        if len(terms) > MAX_TERMS:
            raise Undecided(f"a polynomial of more than {MAX_TERMS} terms")
        self.terms = terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in _terms(other).items():
            s = out.pop(m, 0) + c
            if s:
                out[m] = s
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -_poly(other)

    def __rsub__(self, other):
        return _poly(other) + -self

    def __mul__(self, other):
        out, right = {}, _terms(other).items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = tuple(sorted(m1 + m2))
                s = out.pop(m, 0) + c1 * c2
                if s:
                    out[m] = s
            if len(out) > MAX_TERMS:  # a partial product past the cap is undecided
                break
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (Fraction(1) / _constant(other))

    def __rtruediv__(self, other):
        return _poly(other) * (Fraction(1) / _constant(self))

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            raise Undecided(f"a power {n!r}")
        if n > MAX_TERMS and self.terms.keys() - {()}:
            raise Undecided(f"a power {n} past the degree cap")
        out, base = Poly({(): 1}), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out


def _refuse(name: str):
    def refuse(self, *args):
        raise Undecided(f"{name} of a polynomial")
    return refuse


# a branch, a hash key or a float would leave the polynomials
for _name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__",
              "__bool__", "__hash__", "__float__", "__int__", "__index__",
              "__complex__", "__abs__", "__round__", "__trunc__", "__floor__",
              "__ceil__", "__mod__", "__rmod__", "__floordiv__",
              "__rfloordiv__", "__divmod__", "__rdivmod__", "__rpow__"):
    setattr(Poly, _name, _refuse(_name))


def _terms(x) -> dict:
    """The terms of a Poly, an int or a Fraction; Undecided for anything else."""
    if type(x) is Poly:
        return x.terms
    if type(x) is int or isinstance(x, Fraction):
        return {(): x} if x else {}
    raise Undecided(f"a {type(x).__name__} operand")


def _poly(x) -> Poly:
    return x if type(x) is Poly else Poly(_terms(x))


def _constant(x):
    """x's value as a nonzero rational; Undecided unless it is one."""
    terms = _terms(x)
    if not terms or terms.keys() != {()}:
        raise Undecided("a division by zero or by a non-constant")
    return terms[()]


def variables() -> Callable[[], Poly]:
    """A function that returns a new variable each time it is called."""
    indices = count()
    return lambda: Poly({(next(indices),): 1})


def identical(lhs, rhs) -> bool:
    """Whether two values are tuples of the same shape whose leaves are the
    same polynomials, or are the same polynomial; Undecided for a leaf that
    is neither a Poly nor an int or a Fraction."""
    if type(lhs) is tuple or type(rhs) is tuple:
        return (type(lhs) is tuple and type(rhs) is tuple and len(lhs) == len(rhs)
                and all(map(identical, lhs, rhs)))
    return _terms(lhs) == _terms(rhs)
