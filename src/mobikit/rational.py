"""The exact-rational kernel: `_Fraction`, a private subclass of Fraction.

Its arithmetic, comparisons and equality take a fast path when the other
operand is an int or a Fraction: the same gcd steps as `Fraction` (Knuth,
TAOCP vol. 2, 4.5.1) without its generic dispatch, and a `_Fraction`
result, all in one Python frame per operation.  Its arithmetic with a
symbolic operand (a type in `_SYMBOLIC`) returns NotImplemented at once.
Any other operand, and division by zero, goes to `Fraction`'s own method.
A `_Fraction` prints, hashes and compares as the `Fraction` of the same
value, and type errors name it `Fraction`.

It is the type of Rational draws and of the catalog's constants (carriers,
catalog.F), of the rational literals of definition files and their int /
int (dsl), and of each polynomial coefficient that is not an int
(symbolic, solver), so that a law decided on symbols multiplies its
coefficients on the fast paths too.  It is a module
of its own, below symbolic, rather than part of it: symbolic is the largest
module, and compiling the kernel's code inside it, from source as a
process that writes no bytecode does, raised the peak memory of a fresh
import by about 0.16 MB (ru_maxrss, median of 7), where a module of its own
left it unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Each binary dunder of _Fraction below is generated from one template per
# kernel, as collections.namedtuple generates its methods.  It reads reduced
# operands na/da and nb/db (da, db > 0; an int is n/1), runs the gcd steps of
# CPython's Fraction._add/_sub/_mul/_div and fills in its _Fraction result
# itself: one Python frame per operation.  The reflected form is the same
# code with na/da read from the other operand and nb/db from self.  An operand
# of a type in _SYMBOLIC gets NotImplemented at once, as Fraction's method
# would give it after its isinstance checks, so that Python calls that type's
# reflected method.  Any other operand (a bool, a float, a complex too), and
# division by zero, goes to Fraction's own method.

_new = object.__new__
_gcd = math.gcd

# the types of symbolic values, none of them a number to Fraction: symbolic
# adds Poly, Quotient, Points and Exp, and each type that its `reflected`
# marks, such as carriers.QI, so that this module stays below both
_SYMBOLIC = set()


def _make(n: int, d: int) -> "_Fraction":
    x = _new(_Fraction)
    x._numerator = n
    x._denominator = d
    return x


def _ratio(n: int, d: int) -> "_Fraction":
    """n / d for ints n and d, reduced, as Fraction(n, d) gives it but
    without its parsing: one gcd and the sign moved to n.  A zero d goes to
    Fraction, which raises ZeroDivisionError('Fraction(n, 0)')."""
    if not d:
        return _Fraction(n, d)
    g = _gcd(n, d)
    if d < 0:
        g = -g
    return _make(n // g, d // g)


_OPERANDS = """
def {f}(a, b):
    {a} = a._numerator, a._denominator
    t = type(b)
    if t is _Fraction or t is Fraction:
        {b} = b._numerator, b._denominator
    elif t is int:
        {b} = b, 1
    elif t in _SYMBOLIC:
        return NotImplemented
    else:
        return Fraction.{f}(a, b)
"""

_SUM = """
    x = _new(_Fraction)
    g = _gcd(da, db)
    if g == 1:
        x._numerator, x._denominator = na * db {op} da * nb, da * db
        return x
    s = da // g
    t = na * (db // g) {op} nb * s
    g2 = _gcd(t, g)
    if g2 == 1:
        x._numerator, x._denominator = t, s * db
    else:
        x._numerator, x._denominator = t // g2, s * (db // g2)
    return x
"""

_PRODUCT = """
    g1 = _gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = _gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    x = _new(_Fraction)
    x._numerator, x._denominator = na * nb, db * da
    return x
"""

_QUOTIENT = """
    if nb == 0:
        return Fraction.{f}(a, b)
    g1 = _gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = _gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    x = _new(_Fraction)
    if nb < 0:
        x._numerator, x._denominator = -na * db, -nb * da
    else:
        x._numerator, x._denominator = na * db, nb * da
    return x
"""

_COMPARISON = """
def {f}(a, b):
    t = type(b)
    if t is _Fraction or t is Fraction:
        return a._numerator * b._denominator {op} a._denominator * b._numerator
    if t is int:
        return a._numerator {op} a._denominator * b
    return Fraction.{f}(a, b)
"""


def _define(f, template, **fields):
    """The function `f` of a template, with the module's globals."""
    namespace = {}
    exec(template.format(f=f, **fields), globals(), namespace)
    return namespace[f]


def _dunders(name, kernel, op=""):
    """__name__ and __rname__: a op b and b op a with the kernel na/da op nb/db."""
    return (_define(f"__{name}__", _OPERANDS + kernel, a="na, da", b="nb, db", op=op),
            _define(f"__r{name}__", _OPERANDS + kernel, a="nb, db", b="na, da", op=op))


class _Fraction(Fraction):
    """A Fraction whose operations with int and Fraction operands skip
    Fraction's generic dispatch; results with such operands are _Fraction."""

    __slots__ = ()

    __add__, __radd__ = _dunders("add", _SUM, "+")
    __sub__, __rsub__ = _dunders("sub", _SUM, "-")
    __mul__, __rmul__ = _dunders("mul", _PRODUCT)
    __truediv__, __rtruediv__ = _dunders("truediv", _QUOTIENT)
    __lt__ = _define("__lt__", _COMPARISON, op="<")
    __le__ = _define("__le__", _COMPARISON, op="<=")
    __gt__ = _define("__gt__", _COMPARISON, op=">")
    __ge__ = _define("__ge__", _COMPARISON, op=">=")

    def __eq__(a, b):
        t = type(b)
        if t is _Fraction or t is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    __hash__ = Fraction.__hash__  # defining __eq__ would otherwise unset it

    def __neg__(a):
        return _make(-a._numerator, a._denominator)

    def __abs__(a):
        return _make(abs(a._numerator), a._denominator)

    def __pow__(a, b):
        if type(b) is int:
            na, da = a._numerator, a._denominator
            if b >= 0:
                return _make(na ** b, da ** b)
            if na > 0:
                return _make(da ** -b, na ** -b)
            if na < 0:
                return _make((-da) ** -b, (-na) ** -b)
        return Fraction.__pow__(a, b)

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"


# TypeErrors name the type as they name Fraction; pickles still find the
# class by its __qualname__
_Fraction.__name__ = "Fraction"
