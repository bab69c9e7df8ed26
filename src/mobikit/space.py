"""Mobi spaces: a point set X acted on by an algebra through q(x, a, y).

Space laws (law ids):

  X0  closure: q(x,a,y) lands in the point carrier
  X1  q(x, 0, y) = x
  X2  q(y, 1, x) = x
  X3  q(x, a, x) = x
  X4  q(x, 1/2, y) = q(x, 1/2, y')  =>  y = y'
  X5  q(q(x,a,y), b, q(x,c,y)) = q(x, p(a,b,c), y)

The affine condition, law id affine(half), is
  q(q(x1,a,y1), 1/2, q(x2,a,y2)) = q(q(x1,1/2,x2), a, q(y1,1/2,y2))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algebra import MobiAlgebra, circ, complement, oplus, product
from .carriers import Carrier, CarrierError, MembershipError, memoise, sample
from .report import CheckReport, Laws, Sampled, law_seed


@dataclass(frozen=True)
class MobiSpace:
    algebra: MobiAlgebra
    points: Carrier
    q: Callable  # q(x, a, y)
    # known affine-condition counterexamples (x1, y1, x2, y2, a), probed first
    affine_probes: tuple = ()


@dataclass(frozen=True)
class PointedMobiSpace:
    space: MobiSpace
    origin: object

    def __post_init__(self):
        if not self.space.points.contains(self.origin):
            raise MembershipError(
                f"origin {self.origin!r} is not in {self.space.points.describe()}")


def _laws(space: MobiSpace, strategy) -> Laws:
    return Laws(strategy, space.points.eq, space.algebra.carrier, space.points)


def check_space(space: MobiSpace, strategy=Sampled()) -> list[CheckReport]:
    """Closure plus X1..X5."""
    A, pe = space.algebra, space.points.eq
    law = _laws(space, strategy)
    q, p = space.q, A.p
    return [
        law.predicate("X0", lambda x, a, y: q(x, a, y), space.points.contains),
        law("X1", lambda x, y: q(x, A.zero, y), lambda x, y: x),
        law("X2", lambda x, y: q(y, A.one, x), lambda x, y: x),
        law("X3", lambda x, a: q(x, a, x), lambda x, a: x),
        law.implication("X4", lambda x, y, y2: pe(q(x, A.half, y), q(x, A.half, y2)),
                        lambda x, y, y2: y, lambda x, y, y2: y2,
                        lambda t: (t[0], t[1], t[1])),
        law("X5", lambda x, y, a, b, c: q(q(x, a, y), b, q(x, c, y)),
            lambda x, y, a, b, c: q(x, p(a, b, c), y)),
    ]


def check_affine(space: MobiSpace, strategy=Sampled()) -> CheckReport:
    """The affine condition; known counterexample probes run first."""
    q, half = space.q, space.algebra.half
    return _laws(space, strategy)(
        "affine(half)",
        lambda x1, y1, x2, y2, a: q(q(x1, a, y1), half, q(x2, a, y2)),
        lambda x1, y1, x2, y2, a: q(q(x1, half, x2), a, q(y1, half, y2)),
        probes=tuple(space.affine_probes))


def check_y_properties(space: MobiSpace, strategy=Sampled()) -> list[CheckReport]:
    """Derived point laws Y1..Y10 (Y9, Y10 are implications)."""
    A, pe = space.algebra, space.points.eq
    law = _laws(space, strategy)
    q, p, half = space.q, A.p, A.half
    return [
        law("Y1", lambda x, y, a: q(y, a, x),
            lambda x, y, a: q(x, complement(A, a), y)),
        law("Y2", lambda x, y: q(y, half, x), lambda x, y: q(x, half, y)),
        law("Y3", lambda x, y, a, b: q(x, a, q(x, b, y)),
            lambda x, y, a, b: q(x, product(A, a, b), y)),
        law("Y4", lambda x, y, a, b: q(q(x, a, y), b, y),
            lambda x, y, a, b: q(x, circ(A, a, b), y)),
        law("Y5", lambda x, y, a, b: q(q(x, a, y), half, q(x, b, y)),
            lambda x, y, a, b: q(x, oplus(A, a, b), y)),
        law("Y6", lambda x, y, a: q(x, half, q(x, a, y)),
            lambda x, y, a: q(x, a, q(x, half, y))),
        law("Y7", lambda x, y, a: q(q(x, a, y), half, q(y, a, x)),
            lambda x, y, a: q(x, half, y)),
        law("Y8", lambda x, y, a, b, c:
                q(q(q(x, a, y), b, x), half, q(x, b, q(x, c, y))),
            lambda x, y, a, b, c: q(x, half, q(x, p(a, b, c), y))),
        law.implication("Y9", lambda x, y, a: pe(q(x, a, y), q(y, a, x)),
                        lambda x, y, a: q(x, a, y), lambda x, y, a: q(x, half, y),
                        lambda t: (t[0], t[0], t[2])),
        law.implication("Y10", lambda x, y, a, b, t: pe(q(x, a, y), q(x, b, y)),
                        lambda x, y, a, b, t: q(x, p(a, t, b), y),
                        lambda x, y, a, b, t: q(x, a, y),
                        lambda t: (t[0], t[1], t[2], t[2], t[4])),
    ]


def check_space_morphism(f: Callable, g: Callable, source: MobiSpace,
                         target: MobiSpace, strategy=Sampled()) -> list[CheckReport]:
    """g(q(x,a,y)) = q'(g(x), f(a), g(y)) with f an algebra map on scalars."""
    law = Laws(strategy, target.points.eq, source.algebra.carrier, source.points)
    return [law("g(q)", lambda x, a, y: g(source.q(x, a, y)),
                lambda x, a, y: target.q(g(x), f(a), g(y)))]


class InverseError(CarrierError):
    """transport_space was given maps that are not mutually inverse."""


def transport_space(space: MobiSpace, forward: Callable, backward: Callable) -> MobiSpace:
    """Push q through a bijection: q'(u,a,v) = forward(q(backward(u), a, backward(v))).

    The two maps are spot-checked to be mutually inverse on 50 seeded draws
    of the points each way; a mismatch raises InverseError with the
    offending point.  q' is memoised on small finite carriers (carriers.memoise).
    """
    points, eq = space.points, space.points.eq
    for x in sample(points, law_seed(0, "transport-fwd"), 50):
        u = forward(x)
        if not points.contains(u):
            raise InverseError(f"forward({x!r}) = {u!r} leaves {points.describe()}")
        if not eq(backward(u), x):
            raise InverseError(f"backward(forward(x)) != x at x={x!r}")
    for u in sample(points, law_seed(0, "transport-bwd"), 50):
        x = backward(u)
        if not points.contains(x):
            raise InverseError(f"backward({u!r}) = {x!r} leaves {points.describe()}")
        if not eq(forward(x), u):
            raise InverseError(f"forward(backward(u)) != u at u={u!r}")
    return MobiSpace(
        algebra=space.algebra,
        points=points,
        q=memoise(lambda u, a, v: forward(space.q(backward(u), a, backward(v))),
                  points, space.algebra.carrier, points),
    )


def trace_geodesic(space: MobiSpace, x, y, grid) -> list:
    """Rows (t, q(x, t, y)) for each scalar t in grid order."""
    if not space.points.contains(x):
        raise MembershipError(f"start {x!r} is not in {space.points.describe()}")
    if not space.points.contains(y):
        raise MembershipError(f"end {y!r} is not in {space.points.describe()}")
    rows = []
    for t in grid:
        if not space.algebra.carrier.contains(t):
            raise MembershipError(
                f"grid value {t!r} is not in {space.algebra.carrier.describe()}")
        rows.append((t, space.q(x, t, y)))
    return rows
