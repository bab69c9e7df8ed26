"""The two constructions tying modules to pointed affine mobi spaces.

module_to_space:  q(x, a, y) = phi(1-a, x) + phi(a, y), origin = module zero,
over the algebra induced by the ring (p(a,b,c) = a + bc - ba).

space_to_module:  phi(a, x) = q(e, a, x),  x + y = q(e, 2, q(x, 1/2, y)),
-x = q(x, 2, e), over the ring induced by the algebra (needs a doubler 2).

Round-tripping either way is the identity; roundtrip_module/roundtrip_space
check that pointwise.
"""

from __future__ import annotations

from .algebra import (algebra_from_ring, check_algebra_morphism,
                      ring_from_algebra, _resolve_two)
from .carriers import try_subtract
from .report import (CheckReport, Sampled, Witness, assignments_for,
                     check_equation, _strategy_info)
from .ringmod import RModule, check_module
from .space import MobiSpace, PointedMobiSpace, check_space_morphism


def module_to_space(module: RModule, name: str = "") -> PointedMobiSpace:
    """The pointed space carried by a module."""
    ring = module.ring
    algebra = algebra_from_ring(ring)

    def one_minus(a):
        return ring.add(ring.one, ring.neg(a))

    def q(x, a, y):
        return module.add(module.phi(one_minus(a), x), module.phi(a, y))

    space = MobiSpace(algebra=algebra, points=module.points, q=q,
                      name=name or (f"space({module.name})" if module.name else "space"))
    return PointedMobiSpace(space, module.zero)


def space_to_module(pointed: PointedMobiSpace, two=None, name: str = "") -> RModule:
    """The module carried by a pointed space whose algebra has a doubler."""
    S = pointed.space
    e = pointed.origin
    A = S.algebra
    t = _resolve_two(A, two)
    ring = ring_from_algebra(A, t)
    q = S.q
    half = A.half
    return RModule(
        ring=ring,
        points=S.points,
        add=lambda x, y: q(e, t, q(x, half, y)),
        zero=e,
        phi=lambda a, x: q(e, a, x),
        neg=lambda x: q(x, t, e),
        name=name or (f"module({S.name})" if S.name else "module"),
    )


def roundtrip_module(module: RModule, strategy=Sampled()) -> CheckReport:
    """space_to_module(module_to_space(M)) has the same + and phi as M."""
    law = "roundtrip(module)"
    two = module.ring.two
    back = space_to_module(module_to_space(module), two=two)
    pts, sc = module.points, module.ring.carrier
    pe = pts.eq
    info = _strategy_info(strategy, 3)
    for a, x, y in assignments_for(law, (sc, pts, pts), strategy):
        lhs, rhs = module.add(x, y), back.add(x, y)
        if not pe(lhs, rhs):
            w = Witness({"op": "add", "x": x, "y": y}, lhs, rhs, try_subtract(lhs, rhs))
            return CheckReport(law, info, "fail", w)
        lhs, rhs = module.phi(a, x), back.phi(a, x)
        if not pe(lhs, rhs):
            w = Witness({"op": "phi", "a": a, "x": x}, lhs, rhs, try_subtract(lhs, rhs))
            return CheckReport(law, info, "fail", w)
    return CheckReport(law, info, "pass")


def roundtrip_space(pointed: PointedMobiSpace, two=None, strategy=Sampled()) -> CheckReport:
    """module_to_space(space_to_module(S)) has the same q as S."""
    law = "roundtrip(space)"
    S = pointed.space
    back = module_to_space(space_to_module(pointed, two=two))
    pts, sc = S.points, S.algebra.carrier
    pe = pts.eq
    info = _strategy_info(strategy, 3)
    for a, x, y in assignments_for(law, (sc, pts, pts), strategy):
        lhs, rhs = S.q(x, a, y), back.space.q(x, a, y)
        if not pe(lhs, rhs):
            w = Witness({"x": x, "a": a, "y": y}, lhs, rhs, try_subtract(lhs, rhs))
            return CheckReport(law, info, "fail", w)
    return CheckReport(law, info, "pass")


def transport_morphism(direction: str, pair: tuple, source, target,
                       strategy=Sampled()) -> list[CheckReport]:
    """Carry a morphism across the correspondence and verify the other side.

    direction "modules->spaces": source/target are RModule, pair (f, g) is a
    module morphism (f on scalars, g on points); the induced spaces must
    satisfy the algebra-morphism laws for f, g(q(x,a,y)) = q'(gx, fa, gy),
    and g(e) = e'.

    direction "spaces->modules": source/target are PointedMobiSpace; the
    induced modules must satisfy g(e) = e', additivity, phi-equivariance,
    and f preserving +, *, 1, and the doubler.
    """
    f, g = pair
    if direction == "modules->spaces":
        if not isinstance(source, RModule) or not isinstance(target, RModule):
            raise TypeError("modules->spaces expects RModule source and target")
        ps, pt = module_to_space(source), module_to_space(target)
        reports = check_algebra_morphism(f, ps.space.algebra, pt.space.algebra, strategy)
        reports += check_space_morphism(f, g, ps.space, pt.space, strategy)
        reports.append(check_equation("g(e)", (), (), pt.space.points.eq,
                                      lambda: g(ps.origin), lambda: pt.origin, strategy))
        return reports
    if direction == "spaces->modules":
        if not isinstance(source, PointedMobiSpace) or not isinstance(target, PointedMobiSpace):
            raise TypeError("spaces->modules expects PointedMobiSpace source and target")
        ms, mt = space_to_module(source), space_to_module(target)
        pe = mt.points.eq
        se = mt.ring.carrier.eq
        pts, sc = ms.points, ms.ring.carrier
        return [
            check_equation("g(e)", (), (), pe, lambda: g(ms.zero),
                           lambda: mt.zero, strategy),
            check_equation("g(add)", ("x", "y"), (pts, pts), pe,
                           lambda x, y: g(ms.add(x, y)),
                           lambda x, y: mt.add(g(x), g(y)), strategy),
            check_equation("g(phi)", ("a", "x"), (sc, pts), pe,
                           lambda a, x: g(ms.phi(a, x)),
                           lambda a, x: mt.phi(f(a), g(x)), strategy),
            check_equation("f(add)", ("a", "b"), (sc, sc), se,
                           lambda a, b: f(ms.ring.add(a, b)),
                           lambda a, b: mt.ring.add(f(a), f(b)), strategy),
            check_equation("f(mul)", ("a", "b"), (sc, sc), se,
                           lambda a, b: f(ms.ring.mul(a, b)),
                           lambda a, b: mt.ring.mul(f(a), f(b)), strategy),
            check_equation("f(1)", (), (), se, lambda: f(ms.ring.one),
                           lambda: mt.ring.one, strategy),
            check_equation("f(2)", (), (), se, lambda: f(ms.ring.two),
                           lambda: mt.ring.two, strategy),
        ]
    raise ValueError(f"direction must be 'modules->spaces' or 'spaces->modules', got {direction!r}")


def origin_scan(space: MobiSpace, two, origins, strategy=Sampled()) -> list:
    """Experiment: try several basepoints and report the module verdicts.

    Returns [(origin, [CheckReport])], one entry per origin.  Useful on
    spaces that fail the affine condition, where it is open whether some
    basepoint still yields a module.
    """
    out = []
    for e in origins:
        module = space_to_module(PointedMobiSpace(space, e), two=two)
        out.append((e, check_module(module, strategy)))
    return out
