"""Commutative polynomials and rational functions over Q and Z, and sums
of polynomials times exp of polynomials, for deciding a law once instead of
walking its assignments.

A carrier gives a symbol for its elements (`Carrier.symbol`): a fresh
variable whose values are rationals for Q, one whose values are doubles
(REAL) for R64, one whose values are ints for Z/m, a QI of two fresh
rational variables for Q[i], a tuple of its parts' symbols for a product.
A law's two sides, evaluated once on symbols, give polynomials (or
quotients, or values at seeded points, or sums of exp terms, below), and
the law's own equality, asked about them, answers True only when they
agree at every assignment, for values at points with error at most
2**-100 (`Rational.eq`, `Float64.eq` and `GaussianRational.eq`, part by
part, through `equal`, `ModularInt.eq` through `congruent`); otherwise it
raises Undecided.  A law whose equality answers True holds at every draw
of a sampled check and at every tuple of an exhaustive one.

A Poly records what kind of value it stands for:

- a double (REAL): anything computed with an R64 variable;
- a rational: anything computed with a Q variable or a Fraction;
- an int: Z/m variables and int coefficients only (`modulus` 0);
- an int known only modulo g (`modulus` g), after a `%`.

Ring operations combine the kinds: a double with anything exact is a
double, a rational with anything exact but a double a rational, and an int
known modulo g1 with one known modulo g2 is known modulo gcd(g1, g2).  A
finite float operand of a double enters as its exact rational, since
every double is one: Fraction(0.1) is not 1/10, and the law is about the
number the code uses; a float that meets any other kind is undecided.
`P % k`, for an int P and a nonzero int k, reduces P's coefficients
modulo k and is known modulo gcd(g, k), since P % k is congruent to P
modulo k.  `/` needs an operand that is a rational, as in
Python, where int / int is a float, and a divisor that is a nonzero
constant or a polynomial that `positive` or `nonnegative` certifies
(below).

Each variable ranges over a domain, kept in its index (`variables`): FREE,
every rational (or int); POSITIVE, the rationals > 0; UNIT, those in
[0, 1].  A carrier's symbol is made of FREE variables, except a
restricted carrier's, whose sign conditions (`carriers.Sign`, g >= 0 or
g > 0) bound a variable to UNIT by v >= 0 and 1 - v >= 0, or to POSITIVE by
v > 0 (`domains`); or, when they bound a parallelotope, n slabs
0 <= l_i <= c_i with l_i affine in the base's n rational coordinates and
some condition in two of them, such as the lozenge's sqrt_k|a2| <= a1 <=
1 - sqrt_k|a2|, whose symbol writes the coordinates as affine expressions
in n UNIT variables w_i = l_i / c_i (`carriers.Restricted._box`).

A Quotient is a rational num / den whose denominator is a product of
factors, each stored once (keyed by its terms) with its exponent, so that
a sum takes the least common multiple of the factors rather than their
product.  Its source is a division by a non-constant polynomial that
`positive` certifies positive at every real point, such as
nonaffine-poly-space's s*s + s*t + t*t + 1, or the norm c*c + d*d by which
`carriers.QI` divides for c + di, certified whenever c or d is a nonzero
constant; or, when `positive` does not, one that `nonnegative` certifies
positive on its variables' domains (the carrier rule, a Bernstein test),
such as halfplane-space's s + a*(t - s) for s, t > 0 and a in [0, 1].  Two
quotients are equal when the numerator of their difference is the zero
polynomial.

A Points is a rational whose polynomial would pass MAX_TERMS: a sum or a
product of rationals (a partial product too) that would is kept instead
as its exact values at POINTS = 2 seeded integer points, with upper
bounds on the degrees of a numerator and of a denominator of the rational
function it stands for.  Each variable's coordinate at each point is
drawn uniformly from [0, 2**POINT_BITS), 2**64, by an RNG seeded from a
constant and the variable's index, so the points depend on neither the
law nor --seed.  +, -, * and ** of a Points give a Points, an exact
operand (a Poly, a Quotient, an int or a Fraction) evaluated at the
points as it meets one; the degrees add under *, take the larger cross
sum under + and multiply under **.  A Points may be divided only by a
nonzero constant or by a certified polynomial, and only where it is
nonzero at every point: one positive only on the domains may be zero at
one, since the points lie outside [0, 1].  Two sides are equal when their
difference is 0 at every point (see the trust base).  An int whose
polynomial would pass MAX_TERMS is undecided.  Past MAX_TERMS = 150 terms
exact expansion, with Fraction coefficients, costs more than the values at
the points: in a pass of the catalog, X5, Y4, Y5 and Y8 of the two
non-affine spaces, Y6 of the Gaussian rational one and Y8 of
halfplane-space are decided at the points, and in the definition-file
checks the same five laws of that one's transcription and Y8 of
halfplane-space's; every other decided law is decided exactly.  The
exponent of a power is bounded by POINT_DEGREE, not by MAX_TERMS, so
x**200 is one term.

An Exp is a double sum_i p_i * exp(g_i), its terms grouped by their
exponents g_i, exact polynomials each stored once (keyed by its terms,
since a Poly refuses hash()), with coefficients p_i nonzero polynomials;
`exp` of a polynomial (carriers.exp on a symbol) makes one term, and
exp(g) * exp(h) = exp(g + h).  It divides exactly by c * exp(g), for a
constant c != 0, since exp(g) is nowhere zero.  `equal` asks each
coefficient of the difference to vanish (see the trust base).

A Poly, Quotient or Points operation with a QI or an Exp operand returns
NotImplemented, so that Python calls its reflected method (`reflected`).

Anything that is not such an operation raises `Undecided`: `/` of two
ints, by zero, by a polynomial that neither `positive` nor `nonnegative`
certifies (x / y, 1 / x, a Gaussian rational with no constant part such as
z / w for two Q[i] symbols or QI(x, 0), and s + a*(t - s) when s, t or a
is FREE), by a factor zero at a point for a Points, by a quotient or by a
Points, any comparison, bool(), float(), hash(), int() and __index__ (so a
table lookup), `%` of a rational or by anything but a nonzero int, k % P, //,
abs(), a power that is not a nonnegative int (or, of a nonconstant
polynomial or an Exp, past POINT_DEGREE), an operand that is a float
(but a finite one of a double), None or a bool, a rational (a Points too) mixed with an int known only
modulo g, an int result (or partial product) with more than MAX_TERMS
terms, and a Points of degree past POINT_DEGREE; for an Exp, a division by
anything but c * exp(g), an exp of an Exp, of a quotient or of a Points,
an Exp with a quotient or a Points, and a coefficient past MAX_TERMS (an
exp term has no Points).  What needs a polynomial's terms refuses a
Points: `positive` and `solver.solved` answer False for it, `congruent`,
`residue` and `difference` raise, and `difference` raises for an Exp.  An
undecided law is walked as if it had no symbols.

A closure predicate (A0, X0) asks its target carrier whether it admits the
value evaluated on symbols (`Carrier.admits`): Q, Q[i], Z/m and products
admit a value of their kind, and a restricted carrier one on which
`nonnegative` certifies each of its conditions.

An implication whose premise compares two sides with a carrier's own
equality is decided from its sides' differences on symbols
(Carrier.differences), each the numerator of x - y (`difference`), or for
doubles x - y with each exp(g) in it a POSITIVE variable of its own
(`exp_difference`, `exponent`): the premise's, pi_j, and the conclusion's,
gamma_i.  `solver.solved` solves the premise for its variables, case by
case, and asks `_certified` at each case for polynomials h_ij of degree
at most 1 with gamma_i = sum_j h_ij * pi_j, so that every assignment whose
premise holds meets the conclusion.  Over Z/m each difference is x - y
reduced modulo m (`residue`), and `_certified` alone is asked, over the
integers modulo m.  When neither decides, the premise and the equality are
evaluated afresh on the copy of the symbols that a sampled walk
constructs.

Trust base.  A pass without a walk is sound when:

- every code path that a symbol reaches computes, on numbers, the same
  polynomial or rational function.  A path that branches on a value raises
  Undecided at the branch.  A path that branches on type can differ.  In
  the operations today only these do: `rational._Fraction`'s dunders,
  which for a symbolic operand fall through to Fraction's own methods,
  which return NotImplemented, so that Python calls the symbol's reflected
  method, the same ring operation; `carriers.QI`, which keeps symbolic
  parts as it keeps Fractions, whose +, - and * with a _Fraction or a
  symbol leave out the products by its zero imaginary part, which an int
  or a Fraction operand computes, and whose quotient multiplies by 1 /
  norm where numbers divide by the norm, the same values;
  `dsl._div`, whose int / int is a `_Fraction`, where a Poly takes no int
  / int at all; and `carriers.exp`, math.exp on a number and `exp` on a
  symbol, the same function over R.  A float that meets a double stands
  for its exact rational, which is the number the float code uses; a
  double reaching an exact carrier's equality is a float there, which
  that equality rejects at the seeded draw that runs first.  Within the
  polynomials a coefficient is an int or a `_Fraction`: a rational
  operand whose denominator is 1 enters as its int numerator, still of a
  rational kind, and any other as a `_Fraction`.
  Its type picks only the kernel's path to the same value; what a value
  stands for is its Poly's kind, never its coefficients' type;
- every divisor is nonzero at every assignment: a nonzero constant, or a
  polynomial that `positive` certifies positive at every real point, by an
  exact LDL^T of a Gram matrix (a sum of squares plus a positive
  constant) or by a square root taken from its leading term, within
  POSITIVE_WORK units of work, or one that `nonnegative` certifies
  positive on the domains (below).  Every draw is a real point in the
  domains, so no draw that a decision skips would have raised
  ZeroDivisionError, and the numbers divide where the symbols do;
- the carrier rule: a variable's domain holds at every member.  A
  restricted carrier draws only members (its sampler's values are
  checked) and enumerates only members, and `domains` gives a variable a
  domain only from a condition c*v + d >= 0 (> 0) that bounds it there.
  `nonnegative` writes p in the Bernstein basis of its UNIT variables,
  whose polynomials are >= 0 on [0, 1]**k and sum to 1, and certifies
  p >= 0 when each coefficient is a polynomial with positive coefficients
  in POSITIVE variables, > 0 there unless zero, and p > 0 when none is
  zero (Garloff 1986; Zettler and Garloff, IEEE TAC 1998), within
  POSITIVE_WORK units.  A Quotient's sign is its numerator's, its factors
  being positive on the domains.  So a closure predicate that its carrier
  admits holds at every assignment;
- a restricted carrier's box: its symbol x = A^-1 (c * w - d), for the
  slabs 0 <= l_i(x) = (A x + d)_i <= c_i, A invertible and c_i > 0, is an
  affine bijection of [0, 1]**n onto the slabs' intersection, which holds
  every member (it is the member set when the slabs are the only
  conditions, as for the lozenge).  So every member is the symbol at one
  point of the box of its UNIT variables: an identity, a Bernstein
  certificate, a certificate or a solve in the w_i holds on the carrier;
  a constructed copy of a box coordinate is read back by solving the
  coordinates for the w_i (report._images), and counts only when the
  w_i's images stay in [0, 1] (`within`).  `carriers.Carrier.element` is
  the symbol evaluated at numbers, so the doubler that
  `algebra.solve_two` reads off the one solution of the affine
  differences of p(0, 1/2, x) and 1 on the symbol is the only candidate
  among the members: when `contains` refuses it, no member is one;
- a factor positive only on the domains at the points: the points lie
  outside [0, 1], where such a factor may be zero, so `_divided` checks
  its value at each point and leaves the law undecided at a zero, rather
  than dividing by it;
- a Points whose difference is 0 at both points stands for the zero
  rational function, with error at most 2**-100.  The difference is N / D
  with D a product of factors nonzero at the points (checked where a
  factor is positive only on the domains), and N of degree at most d <=
  POINT_DEGREE = 2**10.  A
  nonzero N vanishes at a point drawn uniformly from [0, 2**64)**n with
  probability at most d / 2**64 (Schwartz, JACM 1980; Zippel, EUROSAM
  1979), at both independent points with at most (d / 2**64)**2 <=
  2**-108.  The values are exact, so no assumption on N's coefficients is
  needed.  The probability is over the seeded choice of the points: they
  are fixed, so a law built to vanish at them would pass;
- exp terms: for pairwise distinct polynomials g_i with rational
  coefficients, sum_i p_i * exp(g_i) is the zero function of real
  variables only when every polynomial p_i is zero, so `equal`, which
  answers True only when every coefficient of the difference's groups
  vanishes, is sound and complete on them.  Gather the g_i that differ by
  rational constants, g + c_j: their sum is exp(g) * sum_j p_j * e**c_j,
  and each coefficient sum_j k_j * e**c_j of it, with rational k_j, is
  zero only when every k_j is, since the e**c for distinct rational c
  are linearly independent over the algebraic numbers
  (Lindemann-Weierstrass).  The gathered exponents differ by
  non-constant polynomials: on a generic line every difference stays
  non-constant and every gathered coefficient nonzero, and as the line's
  parameter grows one exponent outgrows every other, so its term outgrows
  the rest and the sum is not zero.  Only exp of polynomials has a
  symbol: with sin or |x| joined, identity over R is undecidable
  (Richardson, JSL 1968).  exp of a number is the float math.exp, and a
  float constant such as math.e is its exact rational, which is not e,
  so exp(a + 1) == math.e * exp(a) is undecided and walked.  A law
  decided over R64 holds over R for the function that the float code
  approximates; its seeded draw runs in floats first, so an overflow, or
  a tolerance failure, at that draw still fails the law;
- a Z/m variable stands for every int, and the elements and draws of Z/m
  are ints; a restricted carrier with a direct sampler draws, and
  enumerates, only members, on which an identity over its base holds too,
  each variable in its domain;
- Undecided subclasses none of ArithmeticError, report.EvalError or
  carriers.CarrierError, so no handler in mobikit can swallow it and put
  another value in place of the operation;
- the law's equality, given two symbolic sides, answers True only when it
  would answer True on every pair of values they stand for.  The carriers'
  equalities do (Rational.eq, Float64.eq, which asks `equal` exactly, with
  no tolerance, when float() refuses a side, GaussianRational.eq,
  ModularInt.eq, and Product.eq and Restricted.eq through them), and so
  does a law's equality built from them without branching on a value's
  type.  A law's own
  equality that rejects a value, such as one that raises at u == 3, meets
  a comparison on a symbol and leaves the law undecided.  The probes and
  one seeded draw run through the loop before the symbols under every
  strategy, so a side that raises on numbers fails the law, and the
  caller's own walk then gives the witness;
- for an implication, a certificate stands for every assignment.  The
  differences are exact: Rational's is x - y, GaussianRational's the real
  and the imaginary part of x - y, a product's its parts', a restricted
  carrier's its base's, and each is the numerator of a difference whose
  denominator's factors were certified positive on the domains, or
  Float64's x - y, whose exp(g) terms are variables that take the value
  exp(g) at each assignment; so the equality holds at an assignment
  exactly when every one vanishes there.  ModularInt's is x - y reduced
  modulo m, which vanishes modulo m exactly where the congruence holds
  (below).  Every other carrier gives none (a search table), nor does any
  other equality, so its implications are walked;
- a certificate modulo any modulus m; pivots are units modulo m.
  `_certified` finds the h_ij by elimination over the integers modulo m,
  and confirms each by a Poly identity with int multipliers, gamma_i -
  sum_j h_ij * pi_j == 0 modulo m.  At an int assignment where every pi_j
  is divisible by m, so is sum_j h_ij * pi_j, and so is gamma_i.  Each
  side is an int known modulo a multiple of m (`residue` refuses any
  other), so its value modulo m is its polynomial's;
- exp variables in an implication: exp(g) is a POSITIVE variable of its
  own (`exponent`), since exp(g) > 0 at every real point, so a Poly
  identity, a certificate, or a sign rule that holds with it free holds
  with it at exp(g) too; and at the points where a substitution v =
  image holds, exp(g) is exp(g(v = image)), so solver._renamed puts the
  variable of the substituted exponent in its place (1 for 0), and
  refuses a substitution by a quotient, which would take the exponent
  out of the polynomials.  The variables are numbered afresh at each
  variables(), so a law's numbering, and so its solve, depends on the law
  alone.  `_certified` confirms each certificate it finds by a Poly
  identity, gamma_i - sum_j h_ij * pi_j == 0, so at every real point
  where every pi_j vanishes every gamma_i does, and within
  CERTIFICATE_WORK units of work.  A solved premise skips the copies too,
  so it counts only when the copy of the symbols keeps each variable in
  its domain (`within`; report._copy_stays);
- for an implication, a solved premise (solver.solved) stands for every
  assignment.  Each case of the solve stands for the points, in the
  domains, that extend to a point of its parent case where the premise it
  solved vanishes, and its factors are nonzero there: the divisors of the
  sides, certified positive on the domains, and what substitution makes
  of them.  A substitution v = -r/c needs c nonzero on the case's points:
  a nonzero constant; a polynomial whose quotient by a product of the
  factors, found by exact division, is a nonzero constant or, up to sign,
  certified by `positive` or `nonnegative(strict=True)` on the whole box
  of the domains; or, after a case split, the c of the case v = -r/c,
  whose other case is c = 0 and r = 0.  At most solver.BRANCHES splits nest.
  A polynomial p of degree d in v becomes c**d * p(v = -r/c), zero
  exactly where p is; Cramer's rule for two premises clears the
  determinant the same way.  So a conclusion that vanishes at every point
  of every leaf case where the leaf's premise vanishes (it is zero, a
  premise is a nonzero constant, or `_certified` holds there) vanishes at
  every assignment that meets the premise.  The probes that refuse a
  coefficient before the rules run (a zero or two signs at seeded points
  of the domains) only refuse, and the whole solve spends at most
  solver.SOLVE_WORK units;
- for an implication, a constructed copy of the symbols on which the
  premise and the equality both answer True, evaluated afresh on it, with
  every division certified again, stands for every copy, so every copy a
  sampled walk would take passes.  The first draw and its copy run
  through the loop before the symbols, the rest of the walk after them,
  so a failure is the walk's first, with its witness.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from itertools import count, product
from math import comb, gcd
from typing import Callable

from .rational import _SYMBOLIC, _Fraction, _make

# past this many terms a rational is kept as a point form (Points) and an
# int is undecided.  A seed-0 catalog benchmark pass took 0.30 s at 100,
# 0.32 s at 150, 0.34 s at 250, 0.35 s at 400 and 0.41 s at 1,000
# (reference seconds on a 2-core x86-64 machine, medians of 6 alternating
# runs), with the same laws decided.  At 150 the largest polynomial of a
# law decided exactly in a pass of the catalog or of the definition-file
# checks has 150 terms
# (affine(half) of halfplane-space, through its certified divisor), the
# next 129 (Y6 of nonaffine-poly-space), and the largest side of an
# implication, which a premise solve needs exact, 100 (Y10 of
# nonaffine-poly-space); at 100 three more laws, those first two and Y3 of
# nonaffine-complex-space, are decided at the points
MAX_TERMS = 150
# a point form's seeded integer points, the bits of each coordinate, and
# the degree bound past which it is undecided
POINTS = 2
POINT_BITS = 64
POINT_DEGREE = 1 << 10
# past this much work (see positive) a divisor is not certified
POSITIVE_WORK = 20_000
# positive's answers, keyed by a polynomial's terms, nonnegative's by its
# terms and strictness, and how many each keeps
_POSITIVE: dict = {}
_NONNEGATIVE: dict = {}
POSITIVE_MEMO = 256
# the domain of a variable (see variables): every rational, the rationals
# > 0, and those in [0, 1]; it is kept in the index's bits above DOMAIN_SHIFT
FREE, POSITIVE, UNIT = 0, 1, 2
DOMAIN_SHIFT = 32
# the kind of a rational that stands for a double (Float64.symbol): a float
# operand that meets it enters as its exact rational; True and False are the
# kinds of a rational and of an int
REAL = 2
# the variables that stand for exp(g) in a premise solve (see exponent):
# the first index, each exponent's key: its variable, and each variable: g
EXP_BASE = 1 << 31
_EXP_VARIABLES: dict = {}
EXPONENTS: dict = {}
# past this much work (see _certified) an implication is not certified; the
# most that one needs in a pass of the catalog or of the definition-file
# checks is 831 (Y10 of tri-space)
CERTIFICATE_WORK = 2_000


class Undecided(Exception):
    """A symbolic evaluation left the polynomials; the walk decides."""


class Poly:
    """A polynomial: {monomial: nonzero int or _Fraction coefficient}, where a
    monomial is the sorted tuple of its variables' indices, one per degree;
    `rational` tells whether its value is a rational or an int, and an int
    is known modulo `modulus` (exactly when it is 0).  A sum or product
    that would pass MAX_TERMS terms is a Points for a rational and
    undecided for an int."""

    __slots__ = ("terms", "rational", "modulus")

    def __init__(self, terms: dict, rational: bool = True, modulus: int = 0):
        if len(terms) > MAX_TERMS:
            raise Undecided(f"a polynomial of more than {MAX_TERMS} terms")
        self.terms, self.rational, self.modulus = terms, rational, modulus

    def __add__(self, other):
        # a Poly of the same exact kind (equal `rational`, both moduli 0) is
        # most operands: its terms and that kind, without _operand and _kind
        if type(other) is Poly and other.rational == self.rational \
                and not (self.modulus or other.modulus):
            terms, kind = other.terms, (self.rational, 0)
        else:
            operand = _operand(other, self.rational)
            if operand is None:
                return NotImplemented
            terms, rational, modulus = operand
            kind = _kind(self, rational, modulus)
        out = dict(self.terms)
        for m, c in terms.items():
            s = out.pop(m, None)  # a new monomial takes c without a sum
            if s is not None:
                c = s + c
                if not c:
                    continue
            out[m] = c
        if len(out) > MAX_TERMS:
            return _points(self, kind) + other
        return Poly(out, *kind)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()}, self.rational, self.modulus)

    def __sub__(self, other):
        # __add__ of the negated terms, in one pass
        if type(other) is Poly and other.rational == self.rational \
                and not (self.modulus or other.modulus):
            terms, kind = other.terms, (self.rational, 0)
        else:
            operand = _operand(other, self.rational)
            if operand is None:
                return NotImplemented
            terms, rational, modulus = operand
            kind = _kind(self, rational, modulus)
        out = dict(self.terms)
        for m, c in terms.items():
            s = out.pop(m, None)
            if s is None:
                c = -c
            else:
                c = s - c
                if not c:
                    continue
            out[m] = c
        if len(out) > MAX_TERMS:
            return _points(self, kind) - Poly(terms, *kind)
        return Poly(out, *kind)

    def __rsub__(self, other):
        return _poly(other, self.rational) + -self

    def __mul__(self, other):
        if type(other) is Poly and other.rational == self.rational \
                and not (self.modulus or other.modulus):  # as in __add__
            terms, kind = other.terms, (self.rational, 0)
        else:
            operand = _operand(other, self.rational)
            if operand is None:
                return NotImplemented
            terms, rational, modulus = operand
            kind = _kind(self, rational, modulus)
        left = self.terms
        # a constant rescales the other side's terms, which keep their
        # monomials and their order; the product of nonzero coefficients is
        # nonzero, and no monomial repeats
        if len(terms) == 1 and () in terms:
            k = terms[()]
            return Poly(left if k == 1 else {m: c * k for m, c in left.items()}, *kind)
        if len(left) == 1 and () in left:
            k = left[()]
            return Poly(terms if k == 1 else {m: k * c for m, c in terms.items()}, *kind)
        out, right = {}, terms.items()
        for m1, c1 in left.items():
            for m2, c2 in right:
                m = m1 + m2
                if m1 and m2 and m1[-1] > m2[0]:  # else already in order
                    m = m2 + m1 if m2[-1] <= m1[0] else tuple(sorted(m))
                c = c1 * c2
                s = out.pop(m, None)  # as in __add__
                if s is not None:
                    c = s + c
                    if not c:
                        continue
                out[m] = c
            if len(out) > MAX_TERMS:  # a partial product past the cap
                return _points(self, kind) * other
        return Poly(out, *kind)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) in _REFLECTED:
            return NotImplemented
        return _quotient(self, _poly(other, self.rational))

    def __rtruediv__(self, other):
        return _quotient(_poly(other, self.rational), self)

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
        if n > POINT_DEGREE and self.terms.keys() - {()}:
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
    a polynomial that is positive at every assignment (see positive and
    nonnegative), and each factor is stored once.  Its value is a
    rational."""

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
        if type(other) in _REFLECTED and type(other) not in (Quotient, Points):
            return NotImplemented  # a QI divides
        return self * _quotient(Poly({(): 1}), _poly(other))

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            raise Undecided(f"a power {n!r}")
        den = {key: (f, e * n) for key, (f, e) in self.den.items()} if n else {}
        return _over(self.num ** n, den)


class Points:
    """A rational past MAX_TERMS, kept as its exact values at the POINTS
    seeded integer points (see _coordinates), with upper bounds `num` and
    `den` on the degrees of a numerator and a denominator of the rational
    function it stands for, the denominator a product of factors positive
    at every real point.  Degrees add under * and take the larger cross sum
    under + (num1 + den2 or num2 + den1); past POINT_DEGREE it is
    undecided."""

    __slots__ = ("values", "num", "den")

    def __init__(self, values: tuple, num: int, den: int):
        if max(num, den) > POINT_DEGREE:
            raise Undecided(f"a point form of degree past {POINT_DEGREE}")
        self.values, self.num, self.den = values, num, den

    def __add__(self, other):
        at = _at_points(other)
        if at is None:
            return NotImplemented
        values, num, den = at
        return Points(tuple(a + b for a, b in zip(self.values, values)),
                      max(self.num + den, num + self.den), self.den + den)

    __radd__ = __add__

    def __neg__(self):
        return Points(tuple(-v for v in self.values), self.num, self.den)

    def __sub__(self, other):
        at = _at_points(other)
        return NotImplemented if at is None else self + -Points(*at)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        at = _at_points(other)
        if at is None:
            return NotImplemented
        values, num, den = at
        return Points(tuple(a * b for a, b in zip(self.values, values)),
                      self.num + num, self.den + den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) in _REFLECTED and type(other) not in (Quotient, Points):
            return NotImplemented  # a QI divides
        return self * _quotient(Poly({(): 1}), _poly(other))

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            raise Undecided(f"a power {n!r}")
        if n * max(self.num, self.den) > POINT_DEGREE:
            raise Undecided(f"a power {n} past the degree cap")
        return Points(tuple(v ** n for v in self.values), self.num * n, self.den * n)

    @property
    def terms(self):
        # what needs a polynomial's terms, such as positive's and _certified's
        # own arithmetic, is undecided on a result past MAX_TERMS
        raise Undecided(f"the terms of a rational past {MAX_TERMS} terms")


class Exp:
    """A sum of terms p * exp(g), kept as `groups`: {the key of g (_key):
    (g, p)}, with g an exact polynomial and p a nonzero one, each g stored
    once and none 0, or a sum would be a Poly (_exps).  Its value stands for
    a double, so its coefficients are REAL.  A product multiplies the groups
    pairwise, exp(g) * exp(h) = exp(g + h); a division is exact by c *
    exp(g), for a constant c != 0, and undecided by anything else.  A
    coefficient past MAX_TERMS is undecided: an exp term has no Points."""

    __slots__ = ("groups",)

    def __init__(self, groups: dict):
        self.groups = groups

    def __add__(self, other):
        out = dict(self.groups)
        for g, p in _groups(other).values():
            _put(out, g, p)
        return _exps(out)

    __radd__ = __add__

    def __neg__(self):
        return Exp({key: (g, -p) for key, (g, p) in self.groups.items()})

    def __sub__(self, other):
        return self + -_exps(_groups(other))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = {}
        for g, p in self.groups.values():
            for h, r in _groups(other).values():
                _put(out, g + h, p * r)
        return _exps(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _inverse(other)

    def __rtruediv__(self, other):
        return _inverse(self) * other

    def __pow__(self, n):
        if type(n) is not int or not 0 <= n <= POINT_DEGREE:
            raise Undecided(f"a power {n!r}")
        out = _ONE
        for _ in range(n):
            out = self * out
        return out


_ONE = Poly({(): 1}, REAL)


def _key(g: Poly) -> tuple:
    """g's terms in a canonical order: a key that a Poly, which refuses
    hash(), cannot be."""
    return tuple(sorted(g.terms.items()))


def _groups(x) -> dict:
    """The groups of an Exp, or of a Poly or number as the one group of
    exp(0); Undecided for anything else (a Quotient, a Points, a QI) or an
    int known only modulo some g."""
    if type(x) is Exp:
        return x.groups
    p = _poly(x, REAL)
    if p.modulus:
        raise Undecided(f"an exp term with an int known modulo {p.modulus}")
    return {(): (Poly({}), p)} if p.terms else {}


def _put(out: dict, g: Poly, p):
    """Add p * exp(g) to the groups out, dropping a zero coefficient."""
    key = _key(g)
    if key in out:
        p = out[key][1] + p
    if type(p) is not Poly:
        raise Undecided(f"an exp term past {MAX_TERMS} terms")
    if p.terms:
        out[key] = (g, Poly(p.terms, REAL))
    else:
        out.pop(key, None)


def _exps(groups: dict):
    """The value of groups: a Poly when only exp(0) is left, else an Exp."""
    if not groups.keys() - {()}:
        return groups[()][1] if groups else Poly({}, REAL)
    return Exp(groups)


def _inverse(x):
    """1 / x for x = c * exp(g) with c a nonzero constant: exp(-g) / c;
    Undecided for anything else."""
    groups = _groups(x)
    if len(groups) != 1:
        raise Undecided("a division by a sum of exp terms")
    (g, p), = groups.values()
    if p.terms.keys() != {()}:
        raise Undecided("a division by a polynomial times an exp term")
    return _exps({_key(-g): (-g, Poly({(): _Fraction(1) / p.terms[()]}, REAL))})


def exponent(g: Poly) -> Poly:
    """exp(g) as a polynomial of a premise solve: 1 for g = 0, else the
    variable that stands for it, the same for the same exponent since the
    last variables(), POSITIVE since exp(g) > 0 at every real point; its
    index, from EXP_BASE up, maps back to g in EXPONENTS."""
    if not g.terms:
        return _ONE
    key = _key(g)
    v = _EXP_VARIABLES.get(key)
    if v is None:
        v = _EXP_VARIABLES[key] = (EXP_BASE + len(EXPONENTS)) | POSITIVE << DOMAIN_SHIFT
        EXPONENTS[v] = g
    return Poly({(v,): 1}, REAL)


def exp(g):
    """exp(g) for an exact polynomial g (a float as its exact rational): the
    one term 1 * exp(g), or 1 for g = 0; Undecided for anything else."""
    if type(g) is Exp:
        raise Undecided("an exp of an exp term")
    g = _poly(g, REAL)
    if g.modulus:
        raise Undecided(f"an exp of an int known modulo {g.modulus}")
    return _exps({_key(g): (g, _ONE)})


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
    for _cls in (Poly, Quotient, Points, Exp):
        setattr(_cls, _name, _refuse(_name))
# a remainder of a rational, and a division by what may be zero
for _cls in (Quotient, Points, Exp):
    _cls.__mod__ = _refuse("__mod__")
for _cls in (Quotient, Points):
    _cls.__rtruediv__ = _refuse("__rtruediv__")

# the operand types whose reflected methods take a Poly, a Quotient or a
# Points: a Quotient, a Points, an Exp, and the Gaussian rationals of
# carriers (see reflected)
_REFLECTED = {Quotient, Points, Exp}
# a _Fraction's arithmetic gives these, and each type that reflected marks,
# NotImplemented at once (see rational)
_SYMBOLIC.update((Poly, Quotient, Points, Exp))


def reflected(cls):
    """Class decorator: a Poly, Quotient or _Fraction operation with a cls
    operand returns NotImplemented, so that Python calls cls's reflected
    method."""
    _REFLECTED.add(cls)
    _SYMBOLIC.add(cls)
    return cls


def _operand(x, kind=True) -> tuple | None:
    """(terms, rational, modulus) of a Poly, an int or a Fraction, or of a
    finite float for an operation on a REAL one (of that kind), as its exact
    rational; None for a type in _REFLECTED; Undecided for anything else."""
    if type(x) is Poly:
        return x.terms, x.rational, x.modulus
    if type(x) is int:
        return ({(): x} if x else {}), False, 0
    if isinstance(x, Fraction):
        return ({(): _coefficient(x._numerator, x._denominator)} if x else {}), True, 0
    if type(x) in _REFLECTED:
        return None
    if type(x) is float and kind is REAL and math.isfinite(x):
        return ({(): _coefficient(*x.as_integer_ratio())} if x else {}), REAL, 0
    raise Undecided(f"a {type(x).__name__} operand")


def _coefficient(n: int, d: int):
    """n/d, in lowest terms with d > 0, as a coefficient on the kernel's
    fast paths: the int n when d is 1, else a _Fraction."""
    return n if d == 1 else _make(n, d)


def _kind(p: Poly, rational, modulus: int) -> tuple:
    """(rational, modulus) of a ring operation on p and an operand of the
    given kind, the greater of theirs (REAL > True > False); Undecided for
    a rational with an int known modulo g."""
    rational, modulus = max(p.rational, rational), gcd(p.modulus, modulus)
    if rational and modulus:
        raise Undecided(f"a rational with an int known modulo {modulus}")
    return rational, modulus


def _poly(x, kind=True) -> Poly:
    """x as a Poly, a float only for an operation of kind REAL; Undecided
    for a Quotient or a non-number."""
    if type(x) is Poly:
        return x
    operand = _operand(x, kind)
    if operand is None:
        raise Undecided(f"a {type(x).__name__} where a polynomial is needed")
    return Poly(*operand)


def _quotient(a: Poly, b: Poly):
    """a / b when a or b is a rational: a Poly when b is a nonzero constant,
    a Quotient over the one factor b when `positive` certifies b, or else
    `nonnegative` certifies it positive on its variables' domains;
    Undecided otherwise."""
    if not (a.rational or b.rational):
        raise Undecided("an int / int, which is a float")
    if b.modulus:
        raise Undecided("a division by an inexact int")
    if b.terms.keys() == {()}:
        return a * (_Fraction(1) / b.terms[()])
    if not (positive(b) or nonnegative(b, strict=True)):
        raise Undecided("a division by zero or by a polynomial that may be zero")
    return _over(Poly(a.terms, *_kind(a, max(b.rational, True), 0)),
                 {frozenset(b.terms.items()): (b, 1)})


def _fraction(x) -> tuple | None:
    """(num, den) of a Quotient, or of a Poly, int or Fraction over no
    factors; None for another type in _REFLECTED; Undecided otherwise."""
    if type(x) is Quotient:
        return x.num, x.den
    if type(x) in _REFLECTED:
        return None
    return _poly(x), {}


def _over(num, den: dict):
    """num / den, a Poly when there is no factor or num is zero, a Points
    when num is one."""
    if type(num) is Points:
        return Points(*_divided(_at_points(num), den))
    return Quotient(num, den) if den and num.terms else num


@functools.cache
def _coordinates(v: int) -> tuple:
    """Variable v's coordinate at each seeded point: uniform in
    [0, 2**POINT_BITS), from an RNG seeded by a constant and v alone, so
    the same for every law and every --seed."""
    rng = random.Random(f"mobikit point {v}")
    return tuple(rng.getrandbits(POINT_BITS) for _ in range(POINTS))


def _values(p: Poly) -> tuple:
    """p's exact values at the points.  At each point, a monomial's value
    is built from its longest prefix already built, and the terms are
    summed as ints over each denominator of their coefficients, then over
    the denominators."""
    values = []
    for point in range(POINTS):
        built = {(): 1}  # a monomial: its value at the point
        sums = {}  # a denominator: the sum of its terms' numerators times their monomials
        for m, c in p.terms.items():
            at = built.get(m)
            if at is None:
                k = len(m) - 1
                while m[:k] not in built:
                    k -= 1
                at = built[m[:k]]
                for k in range(k, len(m)):
                    at = built[m[:k + 1]] = at * _coordinates(m[k])[point]
            d = c.denominator
            sums[d] = sums.get(d, 0) + c.numerator * at
        values.append(sum(r if d == 1 else _Fraction(r, d) for d, r in sums.items()))
    return tuple(values)


def _at_points(x) -> tuple | None:
    """(values, num, den) at the points (see Points) of a Points, a
    Quotient, or a Poly, int or Fraction, whose den is 0; None for another
    type in _REFLECTED; Undecided for anything else, or for an int known
    only modulo some g."""
    t = type(x)
    if t is Points:
        return x.values, x.num, x.den
    if t is Quotient:
        return _divided(_at_points(x.num), x.den)
    if t in _REFLECTED:
        return None
    p = _poly(x)
    if p.modulus:
        raise Undecided(f"a rational with an int known modulo {p.modulus}")
    degree = max(map(len, p.terms), default=0)
    if degree > POINT_DEGREE:
        raise Undecided(f"a point form of degree past {POINT_DEGREE}")
    return _values(p), degree, 0


def _divided(at: tuple, den: dict) -> tuple:
    """(values, num, den) at the points of `at` over a Quotient's factors;
    Undecided when a factor is zero at a point, as one positive only on its
    variables' domains may be (the points lie outside [0, 1])."""
    values, num, degree = at
    for f, e in den.values():
        divisor, d, _ = _at_points(f)
        if not all(divisor):
            raise Undecided("a factor that is zero at a point")
        values = tuple(_Fraction(v) / w ** e for v, w in zip(values, divisor))
        degree += d * e
    return values, num, degree


def _points(p: Poly, kind: tuple) -> Points:
    """p as a Points, for an operation on it of the given kind (rational,
    modulus) whose result passes MAX_TERMS; Undecided for an int."""
    if not kind[0]:
        raise Undecided(f"an int polynomial of more than {MAX_TERMS} terms")
    return Points(*_at_points(p))


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


def positive(p) -> bool:
    """True when p is an exact polynomial that is positive at every real
    point, and so nonzero at every assignment, by one of two rules; False
    when none certifies it.  Each rule is exact over Fractions.

    - Gram rule: the basis is the monomials m whose square m*m has a
      positive coefficient in p, with the constant 1 last; each coefficient
      of p is split evenly over the ordered pairs of basis monomials whose
      product it is, and a monomial that no pair gives refuses p.  When the
      LDL^T of this Gram matrix G (p = z^T G z for the basis vector z) has
      every pivot >= 0, a zero column below each zero pivot and a last
      pivot > 0, p is a sum of squares plus the last pivot, so at least it
      (Choi, Lam and Reznick, "Sums of squares of real polynomials", 1995).
    - Square-root rule: when p's leading term, in the graded order of
      monomials, is a*m*m with a > 0, the square root q of p/a is taken
      term by term from the top (q = m + ..., each next term the leading
      term of p - a*q*q over 2*a*m) while it divides; then p = a*q*q + r,
      and p > 0 when r is positive.  A norm c*c + k*k, with k a nonzero
      constant and c any polynomial, leaves r = k*k.

    The work is bounded on every input: each call spends 100 units plus,
    for each term of its polynomial, one per 64 bits of the coefficient's
    numerator and denominator (at least one); a Gram matrix of n rows
    n**3/6 + n*n more; a square root one per term of q and of r at each
    term it takes.  Past POSITIVE_WORK units in all, or a polynomial past
    MAX_TERMS, the answer is False.

    An answer is kept, keyed by p's terms, so that a divisor that recurs
    across laws, such as the norm of one Gaussian rational, is certified
    once; the memo is emptied when it holds POSITIVE_MEMO answers."""
    return _positive_within(p, None)


def _positive_within(p, budget: list | None) -> bool:
    """positive(p), spending at most what is left of budget, when given,
    and charging it what the rule spent (see _memoised)."""
    try:
        p = _poly(p)
        if p.modulus:
            return False
        return _memoised(_POSITIVE, frozenset(p.terms.items()),
                         lambda work: _positive(p, work), budget)
    except Undecided:
        return False


def _memoised(memo: dict, key, rule: Callable, budget: list | None) -> bool:
    """rule(work) for a work list of POSITIVE_WORK units, or of what is
    left of budget when that is less, which is then charged what the rule
    spent; an answer is kept in memo, under key, unless it is False for
    want of work that a full POSITIVE_WORK might have given."""
    answer = memo.get(key)
    if answer is None:
        units = POSITIVE_WORK if budget is None else min(POSITIVE_WORK, max(budget[0], 0))
        work = [units]
        answer = rule(work)
        if budget is not None:
            budget[0] -= units - work[0]
        if answer or work[0] >= 0 or units == POSITIVE_WORK:
            if len(memo) >= POSITIVE_MEMO:
                memo.clear()
            memo[key] = answer
    return answer


def _spend(budget: list, units: int) -> bool:
    """Take units from budget[0]; False once it is overspent."""
    budget[0] -= units
    return budget[0] >= 0


def _size(p: Poly) -> int:
    """The work of reading p: one unit per term and per 64 bits of its
    coefficient's numerator and denominator."""
    return sum(1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 64
               for c in p.terms.values())


def _positive(p: Poly, budget: list) -> bool:
    """positive(p) for an exact p, spending from budget."""
    # each rule's arithmetic grows with the coefficients' bits; their size counts
    if not _spend(budget, _size(p) + 100):
        return False
    return _gram(p, budget) or _rooted(p, budget)


def _gram(p: Poly, budget: list) -> bool:
    """The Gram rule of positive."""
    terms = p.terms
    if terms.get((), 0) <= 0:
        return False
    # a sorted monomial is a square when its even and odd places agree
    basis = sorted(m[::2] for m, c in terms.items() if m and c > 0 and m[::2] == m[1::2])
    basis.append(())
    n = len(basis)
    if not _spend(budget, n * n * n // 6 + n * n):
        return False
    pairs = {}  # a monomial: the pairs (i, j), i >= j, whose basis product it is
    for i, left in enumerate(basis):
        for j in range(i + 1):
            pairs.setdefault(tuple(sorted(left + basis[j])), []).append((i, j))
    if not terms.keys() <= pairs.keys():
        return False
    gram = [[0] * (i + 1) for i in range(n)]  # the lower triangle
    for m, c in terms.items():
        at = pairs[m]
        share = _Fraction(c) / sum(1 if i == j else 2 for i, j in at)
        for i, j in at:
            gram[i][j] = share
    for k in range(n):
        pivot = gram[k][k]
        if pivot < 0 or (pivot == 0 and any(gram[i][k] for i in range(k + 1, n))):
            return False
        if not pivot:
            continue
        for i in range(k + 1, n):
            row = gram[i]
            if row[k]:
                ratio = row[k] / pivot
                for j in range(k + 1, i + 1):
                    if gram[j][k]:
                        row[j] -= ratio * gram[j][k]
    return gram[-1][-1] > 0


def _leading(terms: dict) -> tuple:
    """The (monomial, coefficient) of terms highest in the graded order:
    degree first, then the sorted indices.  The order is compatible with
    products, so the leading term of a product is the product of theirs."""
    return max(terms.items(), key=lambda term: (len(term[0]), term[0]))


def _rooted(p: Poly, budget: list) -> bool:
    """The square-root rule of positive."""
    if not p.terms:
        return False
    top, a = _leading(p.terms)
    root = top[::2]
    if not (root and a > 0 and root == top[1::2]):
        return False
    q, rest = Poly({root: 1}), p - Poly({top: a})
    while rest.terms:
        if not _spend(budget, len(q.terms) + len(rest.terms)):
            return False
        lead, c = _leading(rest.terms)
        divided = list(lead)  # lead / root, a monomial while root divides it
        for v in root:
            if v not in divided:  # the root stops: p = a*q*q + rest
                return _positive(rest, budget)
            divided.remove(v)
        t = Poly({tuple(divided): _Fraction(c) / (2 * a)})
        rest = rest - a * (2 * q * t + t * t)
        q = q + t
    return False  # p = a*q*q, which may be zero


def variables() -> Callable[..., Poly]:
    """A function fresh(integer=False, domain=FREE) that returns a new
    variable each time it is called, one whose values are ints when integer
    is true and rationals otherwise, and which ranges over its domain.  The
    k-th variable's index is k with the domain in the bits above
    DOMAIN_SHIFT (see domain_of), so a FREE variable's index is k, and a
    polynomial's terms say its variables' domains.  A call starts a law's
    symbols: the variables of exp terms (see exponent) start afresh too, so
    that a law's are numbered by its own evaluation alone."""
    _EXP_VARIABLES.clear()
    EXPONENTS.clear()
    indices = count()
    return lambda integer=False, domain=FREE: Poly(
        {(next(indices) | domain << DOMAIN_SHIFT,): 1}, not integer)


def domain_of(v: int) -> int:
    """The domain of the variable whose index is v: FREE, POSITIVE or UNIT."""
    return v >> DOMAIN_SHIFT


def domains(conditions) -> dict:
    """{variable index: domain} for the variables that sign conditions bound
    to UNIT or POSITIVE.  Each condition is a pair (g, strict), g >= 0, or
    g > 0 when strict, with g evaluated on a symbol of free variables; only
    a g of the form c*v + d with c != 0 bounds v, below when c > 0 and
    above when c < 0.  A variable bounded to [0, 1] is UNIT, one bounded
    below by 0 strictly, or by a positive number, is POSITIVE, and every
    other one is left out (free)."""
    below, above = {}, {}  # a variable: (its greatest lower bound, strict), its least upper bound
    for g, strict in conditions:
        form = affine(g)
        if form is None:
            continue
        v, c, bound = form
        if c > 0:
            if v not in below or below[v] < (bound, strict):
                below[v] = (bound, strict)
        elif v not in above or bound < above[v]:
            above[v] = bound
    out = {}
    for v, (low, strict) in below.items():
        if low >= 0 and v in above and above[v] <= 1:
            out[v] = UNIT
        elif low > 0 or (low == 0 and strict):
            out[v] = POSITIVE
    return out


def affine(g) -> tuple | None:
    """(v, c, bound) when g is the polynomial c*v + d in one variable v, with
    c != 0 and bound = -d/c, so that g >= 0 exactly where v >= bound for
    c > 0, and v <= bound for c < 0; None for anything else."""
    if type(g) is not Poly or g.modulus:
        return None
    linear = [(m, c) for m, c in g.terms.items() if m]
    if len(linear) != 1 or len(linear[0][0]) != 1:
        return None
    ((v,), c), = linear
    return v, c, _Fraction(-g.terms.get((), 0)) / c


def nonnegative(p, strict: bool = False) -> bool:
    """True when p >= 0, or p > 0 when strict, at every point whose
    variables lie in their domains (see variables), by the Bernstein rule;
    False when the rule does not certify it.  p is an exact polynomial, or
    a Quotient, whose sign is its numerator's: its factors are positive on
    the domains.

    Bernstein rule: with n_j the degree of p in its j-th UNIT variable u_j,
    p = sum_I b_I * B_I(u) over the multi-indices I <= n, where the
    B_I(u) = prod_j C(n_j, i_j) u_j**i_j (1 - u_j)**(n_j - i_j) are >= 0 on
    the box [0, 1]**k and sum to 1, and b_I = sum_{J <= I} prod_j C(i_j,
    j_j) / C(n_j, j_j) * a_J for p = sum_J a_J u**J (Garloff 1986; Zettler
    and Garloff, IEEE TAC 1998).  Each b_I, a polynomial in p's other
    variables, must have only positive coefficients and only POSITIVE
    variables, so it is > 0 on the domains when it is not the zero
    polynomial: then p >= min_I b_I >= 0, and p > 0 when no b_I is zero.  A
    FREE variable refuses p.

    The work is bounded as positive's is: 100 units plus p's size, then one
    unit per term of a_J for each b_I it adds to; past POSITIVE_WORK, or a
    polynomial past MAX_TERMS, the answer is False.  Answers are kept, as
    positive's are, keyed by p's terms, which name the variables' domains,
    and by strict."""
    return _nonnegative_within(p, strict, None)


def _nonnegative_within(p, strict: bool, budget: list | None) -> bool:
    """nonnegative(p, strict), spending at most what is left of budget, when
    given, and charging it what the rule spent (see _memoised)."""
    try:
        if type(p) is Quotient:
            p = p.num
        p = _poly(p)
        if p.modulus:
            return False
        return _memoised(_NONNEGATIVE, (frozenset(p.terms.items()), strict),
                         lambda work: _bernstein(p, strict, work), budget)
    except Undecided:
        return False


def _bernstein(p: Poly, strict: bool, budget: list) -> bool:
    """The Bernstein rule of nonnegative, spending from budget."""
    if not _spend(budget, _size(p) + 100):
        return False
    units = sorted({v for m in p.terms for v in m if domain_of(v) == UNIT})
    if any(domain_of(v) == FREE for m in p.terms for v in m):
        return False
    parts = {}  # J: a_J, the terms of p with u**J taken out
    for m, c in p.terms.items():
        J = tuple(m.count(u) for u in units)
        parts.setdefault(J, {})[tuple(v for v in m if domain_of(v) != UNIT)] = c
    n = [max(J[j] for J in parts) for j in range(len(units))]
    coefficients = {}  # I: b_I
    for J, a in parts.items():
        indices = list(product(*(range(j, nj + 1) for j, nj in zip(J, n))))
        if not _spend(budget, len(indices) * len(a)):
            return False
        scale = _Fraction(1, math.prod(comb(nj, j) for nj, j in zip(n, J)))
        for I in indices:
            w = scale * math.prod(comb(i, j) for i, j in zip(I, J))
            b = coefficients.setdefault(I, {})
            for m, c in a.items():
                s = b.pop(m, 0) + w * c
                if s:
                    b[m] = s
    bs = [b for b in coefficients.values() if b]
    if strict and len(bs) < math.prod(nj + 1 for nj in n):
        return False  # a b_I that is the zero polynomial
    return all(c > 0 for b in bs for c in b.values())


def _difference(x, y):
    """The numerator of x - y for two exact rationals or ints, or x - y as
    a Points; Undecided for anything else, or for an int known only modulo
    some g."""
    d = ((x if type(x) in (Quotient, Points, Exp) else _poly(x))
         - (y if type(y) in (Quotient, Points, Exp) else _poly(y)))
    if type(d) is Exp:
        raise Undecided("sides that differ by exp terms")
    if type(d) is Quotient:
        d = d.num
    if type(d) is Poly and d.modulus:
        raise Undecided(f"an int known only modulo {d.modulus}")
    return d


def difference(x, y) -> Poly:
    """The numerator of x - y for two exact rationals or ints: its
    denominator's factors are nowhere zero, so x equals y at an assignment
    exactly when it vanishes there; Undecided for anything else, for an int
    known only modulo some g, or for a difference known only at the points."""
    d = _difference(x, y)
    if type(d) is Points:
        raise Undecided("a difference known only at the points")
    return d


def exp_difference(x, y) -> Poly:
    """x - y for two doubles, a float as its exact rational, with each
    exp(g) in it the variable exponent(g): at every assignment, with each
    such variable at its exp(g), it is x - y, so it vanishes exactly where x
    equals y; Undecided for a quotient, a Points, an int known only modulo
    some g, or past MAX_TERMS."""
    out = Poly({}, REAL)
    for g, p in _groups(_exps(_groups(x)) - _exps(_groups(y))).values():
        out = out + p * exponent(g)
    if type(out) is not Poly:
        raise Undecided(f"a difference past {MAX_TERMS} terms")
    return out


def equal(x, y) -> bool:
    """True when x and y are the same rational or int at every assignment:
    their difference is 0, or for a Points 0 at every seeded point;
    Undecided otherwise."""
    d = _difference(x, y)
    if any(d.values) if type(d) is Points else d.terms:
        raise Undecided("sides that are not the same rational function")
    return True


def residue(x, y, n: int) -> Poly:
    """x - y with its coefficients reduced modulo n, an int known modulo n,
    for two ints known modulo multiples of n (or exactly): at every
    assignment x is congruent to y modulo n exactly when it vanishes there
    modulo n; Undecided for anything else."""
    d = _poly(x) - _poly(y)
    if type(d) is Points or d.rational or d.modulus % n:
        raise Undecided(f"sides that are not ints known modulo {n}")
    return d % n


def congruent(x, y, n: int) -> bool:
    """True when x and y are ints congruent modulo n at every assignment:
    n divides the modulus they are known to and every coefficient of their
    difference; Undecided otherwise."""
    if residue(x, y, n).terms:
        raise Undecided(f"sides that are not the same polynomial modulo {n}")
    return True


def _certified(premise: list, conclusion: list, budget: list, modulus: int = 0) -> bool:
    """True when every polynomial of `conclusion` is sum_j h_j * premise[j]
    for polynomials h_j of degree at most 1, so that it vanishes wherever
    every premise polynomial does: a degree-bounded Nullstellensatz
    certificate (De Loera, Lee, Malkin and Margulies, ISSAC 2008).  False
    when none is found.  With modulus 0 the polynomials are exact, none an
    int known only modulo some g (solver.solved refuses those before it
    asks); with a modulus n they are ints known modulo n with
    coefficients in [0, n) (ModularInt.differences), and the identity is
    one modulo n.

    The h_j are found by exact elimination on coefficient vectors, over Q,
    or over the integers modulo n, where each pivot is a unit modulo n
    scaled by its inverse, each subtraction is reduced modulo n, and a
    column with no unit leaves the search Undecided.  The columns are
    m * premise[j] for the monomials m of degree 0, then also of degree 1
    in the variables that occur.  The conclusions are reduced against the
    columns of a degree only when each of their monomials is a monomial of
    one of those columns; otherwise no combination of them can give it.  A
    certificate found is confirmed by a Poly identity, conclusion - sum_j
    h_j * premise[j] == 0, modulo n for a modulus n.

    The work is bounded: each term of the given polynomials spends one
    unit per 64 bits of its coefficient's numerator and denominator (at
    least one), a column of degree 1 one per term, each reduction one per
    column kept, and each subtraction one per term of the column and of
    its combination, spent from budget (CERTIFICATE_WORK units); past it
    the answer is False, or Undecided, as it is for a polynomial past
    MAX_TERMS."""
    premise = [p for p in premise if p.terms]
    targets = [[g, g.terms, {}] for g in conclusion if g.terms]
    names = sorted({v for p in premise + conclusion for m in p.terms for v in m})
    if not _spend(budget, sum(_size(p) for p in premise + conclusion)):
        return False
    basis = []  # (pivot, column with 1 at pivot, its combination)
    pending = [((j, ()), p.terms) for j, p in enumerate(premise)]
    support = {m for p in premise for m in p.terms}
    for degree in (0, 1):
        if degree:
            for v in names:
                for j, p in enumerate(premise):
                    if not _spend(budget, len(p.terms)):
                        return False
                    terms = {tuple(sorted(m + (v,))): c for m, c in p.terms.items()}
                    pending.append(((j, (v,)), terms))
                    support.update(terms)
        if not all(m in support for target in targets for m in target[1]):
            continue
        for key, terms in pending:
            _insert(basis, *_reduce(basis, terms, {key: 1}, budget, modulus), budget, modulus)
        pending = []
        for target in targets:
            target[1:] = _reduce(basis, target[1], target[2], budget, modulus)
        if not any(target[1] for target in targets):
            return all(_confirmed(g, combination, premise, modulus)
                       for g, _, combination in targets)
    return False


def _reduce(basis: list, terms: dict, combination: dict, budget: list,
            modulus: int) -> tuple:
    """(terms, combination) less their multiples of the columns of basis,
    in order, so that no pivot is left among the terms; each combination
    maps a column's key (j, m) to its coefficient."""
    if not _spend(budget, len(basis)):
        raise Undecided("a certificate past the work bound")
    for pivot, column, of in basis:
        c = terms.get(pivot)
        if c is None:
            continue
        if not _spend(budget, len(column) + len(of)):
            raise Undecided("a certificate past the work bound")
        terms = _minus(terms, c, column, modulus)
        combination = _minus(combination, c, of, modulus)
    return terms, combination


def _minus(terms: dict, c, other: dict, modulus: int) -> dict:
    """terms - c * other, reduced modulo a nonzero modulus, without zero
    coefficients."""
    out = dict(terms)
    for m, d in other.items():
        s = out.pop(m, 0) - c * d
        if modulus:
            s %= modulus
        if s:
            out[m] = s
    return out


def _insert(basis: list, terms: dict, combination: dict, budget: list, modulus: int):
    """Keep a reduced column that is not zero, scaled to 1 at a pivot, or
    to 1 modulo a nonzero modulus at the first term whose coefficient is a
    unit modulo it, whose subtractions (_minus) reduce what they leave;
    Undecided for a column with no unit."""
    if terms:
        if modulus:
            pivot = next((m for m, c in terms.items() if gcd(c, modulus) == 1), None)
            if pivot is None:
                raise Undecided(f"a column with no unit modulo {modulus}")
            scale = pow(terms[pivot], -1, modulus)
        else:
            pivot = next(iter(terms))
            scale = _Fraction(1) / terms[pivot]
        if not _spend(budget, len(terms) + len(combination)):
            raise Undecided("a certificate past the work bound")
        basis.append((pivot, {m: c * scale for m, c in terms.items()},
                      {k: c * scale for k, c in combination.items()}))


def _confirmed(g: Poly, combination: dict, premise: list, modulus: int) -> bool:
    """Whether g == sum_j h_j * premise[j] as polynomials, or modulo a
    nonzero modulus, for the h_j that combination gives: g's reduction to
    zero leaves g + sum c * m * premise[j] == 0 over its keys ((j, m), c),
    so h_j = -sum c * m, with int coefficients modulo a modulus."""
    multipliers = [{} for _ in premise]
    for (j, m), c in combination.items():
        multipliers[j][m] = -c
    rest = g
    for h, p in zip(multipliers, premise):
        if h:
            rest = rest - Poly(h, not modulus) * p
    return not (rest % modulus if modulus else rest).terms


def within(images: dict) -> bool:
    """Whether each image lies in the domain of its variable (a key of
    images) wherever the image's own variables lie in theirs: any image for
    a FREE variable; for a POSITIVE one a positive coefficient times
    POSITIVE variables; for a UNIT one 0, or a coefficient in (0, 1] times
    UNIT variables.  So a factor positive on the domains is positive at
    such images too."""
    for v, image in images.items():
        domain = domain_of(v)
        if domain == FREE:
            continue
        try:
            terms = _poly(image).terms
        except Undecided:
            return False
        if not terms:
            if domain == UNIT:
                continue
            return False
        if len(terms) > 1:
            return False
        (m, c), = terms.items()
        if not (c > 0 and all(domain_of(u) == domain for u in m)
                and (domain == POSITIVE or c <= 1)):
            return False
    return True
