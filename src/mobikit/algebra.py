"""Mobi algebras: a ternary operation p with constants 0, 1/2, 1.

The defining laws (law ids used throughout reports):

  A0  closure: p(a,b,c) lands in the carrier
  A1  p(1, 1/2, 0) = 1/2
  A2  p(0, a, 1) = a
  A3  p(a, b, a) = a
  A4  p(a, 0, b) = a
  A5  p(b, 1, a) = a
  A6  p(a, 1/2, b) = p(a, 1/2, c)  =>  b = c
  A7  p(a, p(b1,b2,b3), c) = p(p(a,b1,c), b2, p(a,b3,c))
  A8  p(p(a1,b,c1), 1/2, p(a2,b,c2)) = p(p(a1,1/2,a2), b, p(c1,1/2,c2))

Derived operations: complement(a) = p(1,a,0), product(a,b) = p(0,a,b),
oplus(a,b) = p(a,1/2,b), circ(a,b) = p(a,b,1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import symbolic
from .carriers import Carrier, CarrierError, MembershipError, linear_solution
from .report import (CheckReport, Laws, Sampled, Witness, _differences, _variables,
                     assignments_for, render_inline)
from .ringmod import RingWithHalf


@dataclass(frozen=True)
class MobiAlgebra:
    carrier: Carrier
    p: Callable  # ternary operation
    zero: object
    half: object
    one: object
    two: object | None = None  # declared doubler, if the carrier has one


class AmbiguousTwoError(CarrierError):
    """Multiple doublers found in a finite carrier: an axiom is suspect."""


class NoHalfError(CarrierError):
    """The ring has no element h with h + h = 1."""


def complement(algebra: MobiAlgebra, a):
    return algebra.p(algebra.one, a, algebra.zero)


def product(algebra: MobiAlgebra, a, b):
    return algebra.p(algebra.zero, a, b)


def oplus(algebra: MobiAlgebra, a, b):
    return algebra.p(a, algebra.half, b)


def circ(algebra: MobiAlgebra, a, b):
    return algebra.p(a, b, algebra.one)


def check_algebra(algebra: MobiAlgebra, strategy=Sampled()) -> list[CheckReport]:
    """Closure plus A1..A8.  A constant outside the carrier raises
    MembershipError, as a PointedMobiSpace's origin does."""
    C, p = algebra.carrier, algebra.p
    for name in ("zero", "half", "one"):
        value = getattr(algebra, name)
        if not C.contains(value):
            raise MembershipError(
                f"{name} = {render_inline(value)} is not in {C.describe()}")
    law = Laws(strategy, C.eq, C)
    zero, half, one = algebra.zero, algebra.half, algebra.one
    return [
        law.predicate("A0", lambda a, b, c: p(a, b, c), C.contains),
        law("A1", lambda: p(one, half, zero), lambda: half),
        law("A2", lambda a: p(zero, a, one), lambda a: a),
        law("A3", lambda a, b: p(a, b, a), lambda a, b: a),
        law("A4", lambda a, b: p(a, zero, b), lambda a, b: a),
        law("A5", lambda a, b: p(b, one, a), lambda a, b: a),
        law.implication("A6", lambda a, b, c: p(a, half, b),
                        lambda a, b, c: p(a, half, c),
                        lambda a, b, c: b, lambda a, b, c: c,
                        lambda t: (t[0], t[1], t[1])),
        law("A7", lambda a, b1, b2, b3, c: p(a, p(b1, b2, b3), c),
            lambda a, b1, b2, b3, c: p(p(a, b1, c), b2, p(a, b3, c))),
        law("A8", lambda a1, b, c1, a2, c2: p(p(a1, b, c1), half, p(a2, b, c2)),
            lambda a1, b, c1, a2, c2: p(p(a1, half, a2), b, p(c1, half, c2))),
    ]


def check_properties(algebra: MobiAlgebra, strategy=Sampled()) -> list[CheckReport]:
    """Consequences eq(6)..eq(14) of the axioms, checked directly."""
    A = algebra
    C, p = A.carrier, A.p
    e = C.eq
    law = Laws(strategy, e, C)
    # both product orders against 0 (+) a, sides shown as pairs
    pairs = Laws(strategy, lambda x, y: e(x[0], y[0]) and e(x[1], y[1]), C)
    zero, half = A.zero, A.half
    return [
        law("eq(6)", lambda: complement(A, half), lambda: half),
        pairs("eq(7)", lambda a: (product(A, a, half), product(A, half, a)),
              lambda a: (oplus(A, zero, a), oplus(A, zero, a))),
        law.implication("eq(8)", lambda a, b: product(A, a, half),
                        lambda a, b: product(A, b, half),
                        lambda a, b: a, lambda a, b: b, lambda t: (t[0], t[0])),
        law("eq(9)", lambda a: p(complement(A, a), half, a), lambda a: half),
        law.implication("eq(10)", lambda a: complement(A, a), lambda a: a,
                        lambda a: a, lambda a: half, lambda t: (half,)),
        law("eq(11)", lambda a, b, c: complement(A, p(a, b, c)),
            lambda a, b, c: p(complement(A, a), b, complement(A, c))),
        law("eq(12)", lambda a, b, c: p(c, b, a),
            lambda a, b, c: p(a, complement(A, b), c)),
        law("eq(13)", lambda a, b: complement(A, circ(A, a, b)),
            lambda a, b: product(A, complement(A, b), complement(A, a))),
        law("eq(14)", lambda a, b, c: product(A, half, p(a, b, c)),
            lambda a, b, c: oplus(A, product(A, complement(A, b), a),
                                  product(A, b, c))),
    ]


@dataclass(frozen=True)
class TwoResult:
    """Outcome of solving p(0, 1/2, x) = 1: the declared doubler; one found
    on symbols, by a scan of a finite carrier or by a search; none, proven
    on symbols or by a scan; or none among the strategy's draws."""

    value: object | None
    status: str  # "declared" | "found" | "proven-absent" | "absent-after-search"


def solve_two(algebra: MobiAlgebra, strategy=Sampled()) -> TwoResult:
    """Find the doubler: the solution of p(0, 1/2, x) = 1, if any.

    A declared value is checked and kept.  Otherwise, under every strategy,
    the equation is first solved on the carrier's symbol (_solved_two).
    When that does not answer, finite carriers are scanned exhaustively, so
    absence is proven and multiple solutions raise AmbiguousTwoError, and
    infinite ones search the strategy's assignments of one slot and report
    absent-after-search; Exhaustive raises NotEnumerableError there.
    """
    A = algebra
    c = A.carrier

    def is_two(x):
        return c.eq(A.p(A.zero, A.half, x), A.one)

    if A.two is not None:
        if not is_two(A.two):
            raise CarrierError(
                f"declared two={render_inline(A.two)} does not satisfy p(0,1/2,x)=1")
        return TwoResult(A.two, "declared")
    solved = _solved_two(A, is_two)
    if solved is not None:
        return solved
    if c.size() is not None:
        hits = [x for x in c.elements() if is_two(x)]
        if len(hits) > 1:
            raise AmbiguousTwoError(f"multiple doublers found: {render_inline(tuple(hits))}")
        if hits:
            return TwoResult(hits[0], "found")
        return TwoResult(None, "proven-absent")
    for (x,) in assignments_for("solve-two", (c,), strategy):
        if is_two(x):
            return TwoResult(x, "found")
    return TwoResult(None, "absent-after-search")


def _solved_two(algebra: MobiAlgebra, is_two: Callable) -> TwoResult | None:
    """The doubler solved for on the carrier's symbol: found when the one
    candidate the symbol gives is a member and is_two holds there on
    numbers, proven-absent when it is not a member; None otherwise.

    The carrier's differences (Carrier.differences) of p(0, 1/2, x) and one,
    on its symbol, must be exact rationals of degree at most 1 in the
    symbol's variables, with constant coefficients, and have exactly one
    solution (carriers.linear_solution); the candidate is the element the
    symbol stands for there (Carrier.element).  Every member is the symbol
    at some assignment in the domains, where the differences vanish exactly
    when p(0, 1/2, x) = 1 (see symbolic), so no member but the candidate
    can be the doubler."""
    c = algebra.carrier
    differences = _differences(c.eq)
    symbol = None if differences is None else c.symbol(symbolic.variables())
    if symbol is None:
        return None
    try:
        zeros = differences(algebra.p(algebra.zero, algebra.half, symbol), algebra.one)
        if any(d.rational is not True or d.modulus for d in zeros):
            return None
        solution = linear_solution([(d, 0) for d in zeros], _variables(symbol))
        if solution is None:
            return None
        x = c.element(symbol, solution)
    except Exception:  # Undecided, or any error a symbol meets: the scan or search decides
        return None
    if x is None:
        return TwoResult(None, "proven-absent")
    return TwoResult(x, "found") if is_two(x) else None


def _resolve_two(algebra: MobiAlgebra):
    result = solve_two(algebra)
    if result.value is None:
        raise CarrierError(
            f"the algebra on {algebra.carrier.describe()} has no doubler "
            f"({result.status}); declare one with dataclasses.replace(algebra, two=...)")
    return result.value


def ring_from_algebra(algebra: MobiAlgebra, two=None) -> RingWithHalf:
    """The ring with a + b = p(0, 2, p(a,1/2,b)) and a * b = p(0, a, b)."""
    t = _resolve_two(algebra) if two is None else two
    C, p = algebra.carrier, algebra.p
    zero, half = algebra.zero, algebra.half
    return RingWithHalf(
        carrier=C,
        add=lambda a, b: p(zero, t, p(a, half, b)),
        mul=lambda a, b: p(zero, a, b),
        neg=lambda a: p(a, t, zero),
        zero=zero,
        one=algebra.one,
        half=half,
    )


def algebra_from_ring(ring: RingWithHalf) -> MobiAlgebra:
    """The algebra with p(a, b, c) = a + b*c - b*a; requires half+half = one."""
    C = ring.carrier
    if not C.eq(ring.add(ring.half, ring.half), ring.one):
        raise NoHalfError(f"the ring on {C.describe()}: half + half != one")
    add, mul, neg = ring.add, ring.mul, ring.neg
    return MobiAlgebra(
        carrier=C,
        p=lambda a, b, c: add(a, add(mul(b, c), neg(mul(b, a)))),
        zero=ring.zero,
        half=ring.half,
        one=ring.one,
        two=ring.two,
    )


def check_commutativity_condition(algebra: MobiAlgebra, strategy=Sampled()) -> CheckReport:
    """p(0,a,b) = p(0,b,a): exactly when the induced multiplication commutes."""
    law = Laws(strategy, algebra.carrier.eq, algebra.carrier)
    return law("commutativity", lambda a, b: product(algebra, a, b),
               lambda a, b: product(algebra, b, a))


def check_algebra_morphism(f: Callable, source: MobiAlgebra, target: MobiAlgebra,
                           strategy=Sampled()) -> list[CheckReport]:
    """f preserves constants and p.

    When p-preservation passes, an extra report `half-iff-ends` asserts that
    preserving {0, 1} and preserving 1/2 have the same verdict (they are
    equivalent for p-preserving maps).
    """
    law = Laws(strategy, target.carrier.eq, source.carrier)
    reports = [
        law("f(0)", lambda: f(source.zero), lambda: target.zero),
        law("f(half)", lambda: f(source.half), lambda: target.half),
        law("f(1)", lambda: f(source.one), lambda: target.one),
        law("f(p)", lambda a, b, c: f(source.p(a, b, c)),
            lambda a, b, c: target.p(f(a), f(b), f(c))),
    ]
    by_law = {r.law: r for r in reports}
    if by_law["f(p)"].passed:
        ends = by_law["f(0)"].passed and by_law["f(1)"].passed
        halves = by_law["f(half)"].passed
        verdict = "pass" if ends == halves else "fail"
        witness = None
        if verdict == "fail":
            witness = Witness({"f(0) and f(1)": ends, "f(half)": halves},
                              ends, halves, None)
        reports.append(CheckReport("half-iff-ends", by_law["f(p)"].strategy,
                                   verdict, witness))
    return reports
