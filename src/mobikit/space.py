"""Mobi spaces: a point set X acted on by an algebra through q(x, a, y).

Space laws (law ids):

  X0  closure: q(x,a,y) lands in the point carrier
  X1  q(x, 0, y) = x
  X2  q(y, 1, x) = x
  X3  q(x, a, x) = x
  X4  q(x, 1/2, y) = q(x, 1/2, y')  =>  y = y'
  X5  q(q(x,a,y), b, q(x,c,y)) = q(x, p(a,b,c), y)

The affine condition (mode "half") is
  q(q(x1,a,y1), 1/2, q(x2,a,y2)) = q(q(x1,1/2,x2), a, q(y1,1/2,y2))
and mode "general" replaces the middle 1/2 by a second sampled scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algebra import MobiAlgebra, circ, complement, oplus, product
from .carriers import Carrier, CarrierError, MembershipError, sample
from .report import (CheckReport, Sampled, check_equation,
                     check_implication, check_predicate, law_seed)


@dataclass(frozen=True)
class MobiSpace:
    algebra: MobiAlgebra
    points: Carrier
    q: Callable  # q(x, a, y)
    name: str = ""
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


def eval_q(space: MobiSpace, x, a, y):
    """Apply q after validating membership of points and scalar."""
    if not space.points.contains(x):
        raise MembershipError(f"x={x!r} is not in {space.points.describe()}")
    if not space.algebra.carrier.contains(a):
        raise MembershipError(f"a={a!r} is not in {space.algebra.carrier.describe()}")
    if not space.points.contains(y):
        raise MembershipError(f"y={y!r} is not in {space.points.describe()}")
    return space.q(x, a, y)


def check_space(space: MobiSpace, strategy=Sampled()) -> list[CheckReport]:
    """Closure plus X1..X5."""
    S = space
    pts, sc = S.points, S.algebra.carrier
    pe = pts.eq
    q, p = S.q, S.algebra.p
    A = S.algebra
    return [
        check_predicate("X0", ("x", "a", "y"), (pts, sc, pts),
                        lambda x, a, y: q(x, a, y), pts.contains, strategy),
        check_equation("X1", ("x", "y"), (pts, pts), pe,
                       lambda x, y: q(x, A.zero, y), lambda x, y: x, strategy),
        check_equation("X2", ("x", "y"), (pts, pts), pe,
                       lambda x, y: q(y, A.one, x), lambda x, y: x, strategy),
        check_equation("X3", ("x", "a"), (pts, sc), pe,
                       lambda x, a: q(x, a, x), lambda x, a: x, strategy),
        check_implication("X4", ("x", "y", "y2"), (pts, pts, pts),
                          lambda x, y, y2: pe(q(x, A.half, y), q(x, A.half, y2)),
                          pe, lambda x, y, y2: y, lambda x, y, y2: y2, strategy,
                          construct=lambda t: (t[0], t[1], t[1])),
        check_equation("X5", ("x", "y", "a", "b", "c"), (pts, pts, sc, sc, sc), pe,
                       lambda x, y, a, b, c: q(q(x, a, y), b, q(x, c, y)),
                       lambda x, y, a, b, c: q(x, p(a, b, c), y), strategy),
    ]


def check_affine(space: MobiSpace, strategy=Sampled(), mode: str = "half") -> CheckReport:
    """The affine condition; known counterexample probes run first."""
    S = space
    pts, sc = S.points, S.algebra.carrier
    q = S.q
    half = S.algebra.half
    if mode == "half":
        return check_equation(
            "affine(half)", ("x1", "y1", "x2", "y2", "a"),
            (pts, pts, pts, pts, sc), pts.eq,
            lambda x1, y1, x2, y2, a: q(q(x1, a, y1), half, q(x2, a, y2)),
            lambda x1, y1, x2, y2, a: q(q(x1, half, x2), a, q(y1, half, y2)),
            strategy, probes=tuple(S.affine_probes))
    if mode == "general":
        probes = tuple(t + (half,) for t in S.affine_probes)
        return check_equation(
            "affine(general)", ("x1", "y1", "x2", "y2", "a", "b"),
            (pts, pts, pts, pts, sc, sc), pts.eq,
            lambda x1, y1, x2, y2, a, b: q(q(x1, a, y1), b, q(x2, a, y2)),
            lambda x1, y1, x2, y2, a, b: q(q(x1, b, x2), a, q(y1, b, y2)),
            strategy, probes=probes)
    raise ValueError(f"mode must be 'half' or 'general', got {mode!r}")


def check_y_properties(space: MobiSpace, strategy=Sampled()) -> list[CheckReport]:
    """Derived point laws Y1..Y10 (Y9, Y10 are implications)."""
    S = space
    A = S.algebra
    pts, sc = S.points, A.carrier
    pe = pts.eq
    q, p = S.q, A.p
    half = A.half
    return [
        check_equation("Y1", ("x", "y", "a"), (pts, pts, sc), pe,
                       lambda x, y, a: q(y, a, x),
                       lambda x, y, a: q(x, complement(A, a), y), strategy),
        check_equation("Y2", ("x", "y"), (pts, pts), pe,
                       lambda x, y: q(y, half, x), lambda x, y: q(x, half, y), strategy),
        check_equation("Y3", ("x", "y", "a", "b"), (pts, pts, sc, sc), pe,
                       lambda x, y, a, b: q(x, a, q(x, b, y)),
                       lambda x, y, a, b: q(x, product(A, a, b), y), strategy),
        check_equation("Y4", ("x", "y", "a", "b"), (pts, pts, sc, sc), pe,
                       lambda x, y, a, b: q(q(x, a, y), b, y),
                       lambda x, y, a, b: q(x, circ(A, a, b), y), strategy),
        check_equation("Y5", ("x", "y", "a", "b"), (pts, pts, sc, sc), pe,
                       lambda x, y, a, b: q(q(x, a, y), half, q(x, b, y)),
                       lambda x, y, a, b: q(x, oplus(A, a, b), y), strategy),
        check_equation("Y6", ("x", "y", "a"), (pts, pts, sc), pe,
                       lambda x, y, a: q(x, half, q(x, a, y)),
                       lambda x, y, a: q(x, a, q(x, half, y)), strategy),
        check_equation("Y7", ("x", "y", "a"), (pts, pts, sc), pe,
                       lambda x, y, a: q(q(x, a, y), half, q(y, a, x)),
                       lambda x, y, a: q(x, half, y), strategy),
        check_equation("Y8", ("x", "y", "a", "b", "c"), (pts, pts, sc, sc, sc), pe,
                       lambda x, y, a, b, c:
                           q(q(q(x, a, y), b, x), half, q(x, b, q(x, c, y))),
                       lambda x, y, a, b, c:
                           q(x, half, q(x, p(a, b, c), y)), strategy),
        check_implication("Y9", ("x", "y", "a"), (pts, pts, sc),
                          lambda x, y, a: pe(q(x, a, y), q(y, a, x)),
                          pe, lambda x, y, a: q(x, a, y),
                          lambda x, y, a: q(x, half, y), strategy,
                          construct=lambda t: (t[0], t[0], t[2])),
        check_implication("Y10", ("x", "y", "a", "b", "t"), (pts, pts, sc, sc, sc),
                          lambda x, y, a, b, t: pe(q(x, a, y), q(x, b, y)),
                          pe, lambda x, y, a, b, t: q(x, p(a, t, b), y),
                          lambda x, y, a, b, t: q(x, a, y), strategy,
                          construct=lambda t: (t[0], t[1], t[2], t[2], t[4])),
    ]


def check_space_morphism(f: Callable, g: Callable, source: MobiSpace,
                         target: MobiSpace, strategy=Sampled()) -> list[CheckReport]:
    """g(q(x,a,y)) = q'(g(x), f(a), g(y)) with f an algebra map on scalars."""
    pts, sc = source.points, source.algebra.carrier
    return [check_equation("g(q)", ("x", "a", "y"), (pts, sc, pts), target.points.eq,
                           lambda x, a, y: g(source.q(x, a, y)),
                           lambda x, a, y: target.q(g(x), f(a), g(y)), strategy)]


class InverseError(CarrierError):
    """transport_space was given maps that are not mutually inverse."""


def transport_space(space: MobiSpace, forward: Callable, backward: Callable,
                    points: Carrier | None = None, name: str = "",
                    spot_checks: int = 50, seed: int = 0) -> MobiSpace:
    """Push q through a bijection: q'(u,a,v) = forward(q(backward(u), a, backward(v))).

    The two maps are spot-checked to be mutually inverse on sampled points of
    both carriers; a mismatch raises InverseError with the offending point.
    """
    target = points if points is not None else space.points
    src_eq, tgt_eq = space.points.eq, target.eq
    for x in sample(space.points, law_seed(seed, "transport-fwd"), spot_checks):
        u = forward(x)
        if not target.contains(u):
            raise InverseError(f"forward({x!r}) = {u!r} leaves {target.describe()}")
        if not src_eq(backward(u), x):
            raise InverseError(f"backward(forward(x)) != x at x={x!r}")
    for u in sample(target, law_seed(seed, "transport-bwd"), spot_checks):
        x = backward(u)
        if not space.points.contains(x):
            raise InverseError(f"backward({u!r}) = {x!r} leaves {space.points.describe()}")
        if not tgt_eq(forward(x), u):
            raise InverseError(f"forward(backward(u)) != u at u={u!r}")
    return MobiSpace(
        algebra=space.algebra,
        points=target,
        q=lambda u, a, v: forward(space.q(backward(u), a, backward(v))),
        name=name or (f"transport({space.name})" if space.name else "transport"),
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
