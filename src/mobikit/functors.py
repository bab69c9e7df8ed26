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
from .report import CheckReport, Laws, Sampled
from .ringmod import RModule, check_module
from .space import MobiSpace, PointedMobiSpace, check_space_morphism


def module_to_space(module: RModule) -> PointedMobiSpace:
    """The pointed space carried by a module."""
    ring = module.ring
    algebra = algebra_from_ring(ring)

    def one_minus(a):
        return ring.add(ring.one, ring.neg(a))

    def q(x, a, y):
        return module.add(module.phi(one_minus(a), x), module.phi(a, y))

    space = MobiSpace(algebra=algebra, points=module.points, q=q)
    return PointedMobiSpace(space, module.zero)


def space_to_module(pointed: PointedMobiSpace) -> RModule:
    """The module carried by a pointed space whose algebra has a doubler."""
    S = pointed.space
    e = pointed.origin
    A = S.algebra
    t = _resolve_two(A)
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
    )


def roundtrip_module(module: RModule, strategy=Sampled()) -> CheckReport:
    """space_to_module(module_to_space(M)) has the same + and phi as M.

    Each side is the pair (x + y, phi(a, x)), compared component-wise."""
    back = space_to_module(module_to_space(module))
    pe = module.points.eq
    pairs = Laws(strategy, lambda u, v: pe(u[0], v[0]) and pe(u[1], v[1]),
                 module.ring.carrier, module.points)
    return pairs("roundtrip(module)",
                 lambda a, x, y: (module.add(x, y), module.phi(a, x)),
                 lambda a, x, y: (back.add(x, y), back.phi(a, x)))


def roundtrip_space(pointed: PointedMobiSpace, strategy=Sampled()) -> CheckReport:
    """module_to_space(space_to_module(S)) has the same q as S."""
    S = pointed.space
    back = module_to_space(space_to_module(pointed)).space
    law = Laws(strategy, S.points.eq, S.algebra.carrier, S.points)
    return law("roundtrip(space)", lambda a, x, y: S.q(x, a, y),
               lambda a, x, y: back.q(x, a, y))


def transport_morphism(pair: tuple, source, target,
                       strategy=Sampled()) -> list[CheckReport]:
    """Carry a morphism across the correspondence and verify the other side.

    Between two RModules, pair (f, g) is a module morphism (f on scalars, g
    on points); the induced spaces must satisfy the algebra-morphism laws
    for f, g(q(x,a,y)) = q'(gx, fa, gy), and g(e) = e'.

    Between two PointedMobiSpaces, the induced modules must satisfy
    g(e) = e', additivity, phi-equivariance, and f preserving +, *, 1, and
    the doubler.
    """
    f, g = pair
    if isinstance(source, RModule) and isinstance(target, RModule):
        ps, pt = module_to_space(source), module_to_space(target)
        reports = check_algebra_morphism(f, ps.space.algebra, pt.space.algebra, strategy)
        reports += check_space_morphism(f, g, ps.space, pt.space, strategy)
        law = Laws(strategy, pt.space.points.eq, ps.space.algebra.carrier)
        reports.append(law("g(e)", lambda: g(ps.origin), lambda: pt.origin))
        return reports
    if not (isinstance(source, PointedMobiSpace) and isinstance(target, PointedMobiSpace)):
        raise TypeError("transport_morphism expects two RModules or two PointedMobiSpaces, "
                        f"got {type(source).__name__} and {type(target).__name__}")
    ms, mt = space_to_module(source), space_to_module(target)
    law = Laws(strategy, mt.points.eq, ms.ring.carrier, ms.points)
    scalar = Laws(strategy, mt.ring.carrier.eq, ms.ring.carrier)
    return [
        law("g(e)", lambda: g(ms.zero), lambda: mt.zero),
        law("g(add)", lambda x, y: g(ms.add(x, y)),
            lambda x, y: mt.add(g(x), g(y))),
        law("g(phi)", lambda a, x: g(ms.phi(a, x)),
            lambda a, x: mt.phi(f(a), g(x))),
        scalar("f(add)", lambda a, b: f(ms.ring.add(a, b)),
               lambda a, b: mt.ring.add(f(a), f(b))),
        scalar("f(mul)", lambda a, b: f(ms.ring.mul(a, b)),
               lambda a, b: mt.ring.mul(f(a), f(b))),
        scalar("f(1)", lambda: f(ms.ring.one), lambda: mt.ring.one),
        scalar("f(2)", lambda: f(ms.ring.two), lambda: mt.ring.two),
    ]


def origin_scan(space: MobiSpace, origins, strategy=Sampled()) -> list:
    """Experiment: try several basepoints and report the module verdicts.

    Returns [(origin, [CheckReport])], one entry per origin.  Useful on
    spaces that fail the affine condition, where it is open whether some
    basepoint still yields a module.
    """
    out = []
    for e in origins:
        module = space_to_module(PointedMobiSpace(space, e))
        out.append((e, check_module(module, strategy)))
    return out
