"""Catalog of ready-made algebras, spaces, and modules.

Every entry can be built by name with keyword or string-valued parameters
(the CLI passes strings).  Spaces carry a default basepoint so conversions
and round-trips work out of the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import MobiAlgebra
from .carriers import (DENOMINATOR_BOUND, RATIONAL_NUMERATOR_BOUND, Float64,
                       GaussianRational, ModularInt, Product, QI, Rational,
                       Restricted, Vector)
from .ringmod import RModule, RingWithHalf
from .space import MobiSpace, transport_space

F = Fraction


@dataclass(frozen=True)
class ParamSpec:
    name: str
    kind: str  # "int" | "fraction" | "float" | "str" | "fractions"
    default: object
    doc: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "algebra" | "space" | "module"
    builder: Callable
    params: tuple = ()
    note: str = ""
    origin: Callable | None = None  # params -> default basepoint, spaces only


def _coerce(spec: ParamSpec, value):
    if spec.kind == "int":
        return int(value)
    if spec.kind == "fraction":
        return Fraction(value)
    if spec.kind == "float":
        return float(Fraction(value)) if isinstance(value, str) else float(value)
    if spec.kind == "str":
        return str(value)
    if spec.kind == "fractions":
        if isinstance(value, str):
            return tuple(Fraction(part.strip()) for part in value.split(","))
        if isinstance(value, (list, tuple)):
            return tuple(Fraction(v) for v in value)
        return (Fraction(value),)
    raise ValueError(f"unknown param kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# algebras

def _canonical_p(a, b, c):
    return a + b * (c - a)


# Direct samplers for the restricted carriers below.  Each draws n/d with
# |n| <= RATIONAL_NUMERATOR_BOUND and 1 <= d <= DENOMINATOR_BOUND, the support
# of a Rational draw, so it reaches exactly the values rejection sampling
# would accept.

def _draw_between(rng, lo, hi) -> Fraction:
    """n/d in [lo, hi]; needs lo <= 0 <= hi so that n = 0 always fits."""
    d = rng.randint(1, DENOMINATOR_BOUND)
    n_lo = max(math.ceil(lo * d), -RATIONAL_NUMERATOR_BOUND)
    n_hi = min(math.floor(hi * d), RATIONAL_NUMERATOR_BOUND)
    return F(rng.randint(n_lo, n_hi), d)


def _draw_unit(rng) -> Fraction:
    return _draw_between(rng, 0, 1)


def _unit_interval():
    return Restricted(Rational(), lambda x: 0 <= x <= 1, label="0 <= t <= 1",
                      sampler=_draw_unit)


def canonical_interval_algebra() -> MobiAlgebra:
    return MobiAlgebra(_unit_interval(), _canonical_p, F(0), F(1, 2), F(1),
                       name="canonical-interval-algebra")


def rational_line_algebra() -> MobiAlgebra:
    return MobiAlgebra(Rational(), _canonical_p, F(0), F(1, 2), F(1), two=F(2),
                       name="rational-line-algebra")


def float_line_algebra() -> MobiAlgebra:
    # scalar sampler stays in [-2, 2] so nested exp-based spaces cannot overflow
    return MobiAlgebra(Float64(span=2), _canonical_p, 0.0, 0.5, 1.0, two=2.0,
                       name="float-line-algebra")


def _require_odd_modulus(m: int):
    if m < 3 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {m}")


def zmod_algebra(m: int = 3) -> MobiAlgebra:
    _require_odd_modulus(m)
    return MobiAlgebra(ModularInt(m), lambda a, b, c: (a + b * c - b * a) % m,
                       0, (m + 1) // 2, 1, two=2 % m, name=f"zmod-algebra({m})")


def _pair_p(k):
    def p(a, b, c):
        return (a[0] + b[0] * (c[0] - a[0]) + k * b[1] * (c[1] - a[1]),
                a[1] + b[0] * (c[1] - a[1]) + b[1] * (c[0] - a[0]))
    return p


def lozenge_algebra(sqrt_k: Fraction = F(1)) -> MobiAlgebra:
    if sqrt_k <= 0:
        raise ValueError("sqrt_k must be positive")
    k = sqrt_k * sqrt_k

    def member(a):
        return sqrt_k * abs(a[1]) <= a[0] <= 1 - sqrt_k * abs(a[1])

    def draw(rng):
        a1 = _draw_unit(rng)
        r = min(a1, 1 - a1) / sqrt_k
        return (a1, _draw_between(rng, -r, r))

    carrier = Restricted(Vector(Rational(), 2), member,
                         label=f"{sqrt_k}|a2| <= a1 <= 1 - {sqrt_k}|a2|",
                         sampler=draw)
    return MobiAlgebra(carrier, _pair_p(k), (F(0), F(0)), (F(1, 2), F(0)),
                       (F(1), F(0)), name=f"lozenge-algebra({sqrt_k})")


def plane_algebra(k: Fraction = F(-1)) -> MobiAlgebra:
    return MobiAlgebra(Vector(Rational(), 2), _pair_p(k), (F(0), F(0)),
                       (F(1, 2), F(0)), (F(1), F(0)), two=(F(2), F(0)),
                       name=f"plane-algebra({k})")


def tri_algebra() -> MobiAlgebra:
    def p(a, b, c):
        return (a[0] + b[0] * (c[0] - a[0]),
                a[1] + b[0] * (c[1] - a[1]) + b[1] * (c[2] - a[2]),
                a[2] + b[2] * (c[2] - a[2]))

    return MobiAlgebra(Vector(Rational(), 3), p, (F(0), F(0), F(0)),
                       (F(1, 2), F(0), F(1, 2)), (F(1), F(0), F(1)),
                       two=(F(2), F(0), F(2)), name="tri-algebra")


# ---------------------------------------------------------------------------
# spaces

def _interp(x, a, y):
    return tuple(xi + a * (yi - xi) for xi, yi in zip(x, y))


def canonical_space(n: int = 1) -> MobiSpace:
    return MobiSpace(rational_line_algebra(), Vector(Rational(), n), _interp,
                     name=f"canonical-space({n})")


def _broadcast(k: tuple, n: int) -> tuple:
    if len(k) == n:
        return k
    if len(k) == 1:
        return k * n
    raise ValueError(f"k must have 1 or {n} component(s), got {len(k)}")


def projectile_space(n: int = 1, k=F(1)) -> MobiSpace:
    kk = _broadcast(_coerce(ParamSpec("k", "fractions", None), k), n)

    def q(x, a, y):
        s, t = x[n], y[n]
        head = tuple(x[i] + a * (y[i] - x[i]) + a * (1 - a) * (t - s) ** 2 * kk[i]
                     for i in range(n))
        return head + (s + a * (t - s),)

    return MobiSpace(rational_line_algebra(), Vector(Rational(), n + 1), q,
                     name=f"projectile-space({n},{kk if n > 1 else kk[0]})")


def damped_space(n: int = 1, alpha: float = 1.0) -> MobiSpace:
    def q(x, a, y):
        s, t = x[n], y[n]
        head = tuple((1 - a) * x[i] * math.exp(alpha * a * (t - s))
                     + a * y[i] * math.exp(alpha * (1 - a) * (s - t))
                     for i in range(n))
        return head + (s + a * (t - s),)

    return MobiSpace(float_line_algebra(), Vector(Float64(), n + 1), q,
                     name=f"damped-space({n},{alpha})")


def _polyval(coeffs: tuple, s):
    out = coeffs[-1] if coeffs else 0
    for c in reversed(coeffs[:-1]):
        out = out * s + c
    return out


def transported_space(lam="1", K="0,0,1", alpha: float = 1.0) -> MobiSpace:
    """Canonical interpolation on pairs pushed through F(x,s) = (lam(s)x - K(s), s).

    lam and K are polynomial coefficient lists (constant term first); lam must
    not vanish on sampled s.  lam="exp" selects the float variant
    F(x,s) = (x e^(alpha s), s) with K = 0.
    """
    if lam == "exp":
        base = MobiSpace(float_line_algebra(), Vector(Float64(), 2), _interp,
                         name="float-canonical(2)")
        fwd = lambda p: (p[0] * math.exp(alpha * p[1]), p[1])
        bwd = lambda p: (p[0] * math.exp(-alpha * p[1]), p[1])
        return transport_space(base, fwd, bwd, name=f"transported-space(exp,{alpha})")
    lam_c = _coerce(ParamSpec("lam", "fractions", None), lam)
    k_c = _coerce(ParamSpec("K", "fractions", None), K)
    base = canonical_space(2)

    def fwd(p):
        x, s = p
        return (_polyval(lam_c, s) * x - _polyval(k_c, s), s)

    def bwd(p):
        u, s = p
        lam_s = _polyval(lam_c, s)
        if lam_s == 0:
            raise ZeroDivisionError(f"lam({s}) = 0; choose lam without rational roots")
        return ((u + _polyval(k_c, s)) / lam_s, s)

    return transport_space(base, fwd, bwd,
                           name=f"transported-space({list(lam_c)},{list(k_c)})")


def halfplane_space(n: int = 1) -> MobiSpace:
    def draw(rng):
        head = tuple(Rational().draw(rng) for _ in range(n))
        return head + (F(rng.randint(1, RATIONAL_NUMERATOR_BOUND),
                         rng.randint(1, DENOMINATOR_BOUND)),)

    points = Restricted(Vector(Rational(), n + 1), lambda p: p[n] > 0, label="s > 0",
                        sampler=draw)

    def q(x, a, y):
        s, t = x[n], y[n]
        d = s + a * (t - s)
        head = tuple(x[i] + (y[i] - x[i]) * a * t / d for i in range(n))
        return head + (d,)

    return MobiSpace(canonical_interval_algebra(), points, q,
                     name=f"halfplane-space({n})")


def lozenge_space(sqrt_k: Fraction = F(1), sign: str = "plus") -> MobiSpace:
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    algebra = lozenge_algebra(sqrt_k)
    mult = 1 if sign == "plus" else -1

    def q(x, a, y):
        return x + (a[0] + mult * sqrt_k * a[1]) * (y - x)

    return MobiSpace(algebra, _unit_interval(), q,
                     name=f"lozenge-space({sqrt_k},{sign})")


def _h_mul(k):
    def mul(a, b):
        return (a[0] * b[0] + k * a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    return mul


def plane_space(k: Fraction = F(-1)) -> MobiSpace:
    mul = _h_mul(k)

    def q(x, a, y):
        d = mul(a, (y[0] - x[0], y[1] - x[1]))
        return (x[0] + d[0], x[1] + d[1])

    return MobiSpace(plane_algebra(k), Vector(Rational(), 2), q,
                     name=f"plane-space({k})")


def tri_space() -> MobiSpace:
    def q(x, a, y):
        return (x[0] + a[0] * (y[0] - x[0]) + a[1] * (y[1] - x[1]),
                x[1] + a[2] * (y[1] - x[1]))

    return MobiSpace(tri_algebra(), Vector(Rational(), 2), q, name="tri-space")


def nonaffine_complex_space(n: int = 1) -> MobiSpace:
    if n == 1:
        points = Product((GaussianRational(), Rational()))
    else:
        points = Product((Vector(GaussianRational(), n), Rational()))

    def factor(a, s, t):
        return QI((2 - a) * s + a * t, 1) / QI(s + t, 1) * a

    def q(x, a, y):
        s, t = x[1], y[1]
        f = factor(a, s, t)
        if n == 1:
            z, w = QI.coerce(x[0]), QI.coerce(y[0])
            head = z + (w - z) * f
        else:
            head = tuple(QI.coerce(zi) + (QI.coerce(wi) - QI.coerce(zi)) * f
                         for zi, wi in zip(x[0], y[0]))
        return (head, s + a * (t - s))

    probes = ()
    if n == 1:
        probes = (((QI(0), F(0)), (QI(0), F(1)), (QI(1), F(0)), (QI(0), F(0)),
                   F(-1, 2)),)
    return MobiSpace(rational_line_algebra(), points, q,
                     name=f"nonaffine-complex-space({n})", affine_probes=probes)


def nonaffine_poly_space(n: int = 1) -> MobiSpace:
    def q(x, a, y):
        s, t = x[n], y[n]
        num = 3 * s * s + 3 * s * (t - s) * a + (t - s) ** 2 * a * a + 1
        den = s * s + s * t + t * t + 1
        head = tuple(x[i] + a * (y[i] - x[i]) * num / den for i in range(n))
        return head + (s + a * (t - s),)

    return MobiSpace(rational_line_algebra(), Vector(Rational(), n + 1), q,
                     name=f"nonaffine-poly-space({n})")


# ---------------------------------------------------------------------------
# rings and modules

def _rational_ring() -> RingWithHalf:
    return RingWithHalf(Rational(), lambda a, b: a + b, lambda a, b: a * b,
                        lambda a: -a, F(0), F(1), F(1, 2), name="Q")


def _float_ring() -> RingWithHalf:
    return RingWithHalf(Float64(span=2), lambda a, b: a + b, lambda a, b: a * b,
                        lambda a: -a, 0.0, 1.0, 0.5, name="R64")


def _zmod_ring(m: int) -> RingWithHalf:
    _require_odd_modulus(m)
    return RingWithHalf(ModularInt(m), lambda a, b: (a + b) % m,
                        lambda a, b: (a * b) % m, lambda a: (-a) % m,
                        0, 1, (m + 1) // 2, name=f"Z/{m}")


def canonical_module(n: int = 1) -> RModule:
    return RModule(_rational_ring(), Vector(Rational(), n),
                   add=lambda x, y: tuple(a + b for a, b in zip(x, y)),
                   zero=(F(0),) * n,
                   phi=lambda a, x: tuple(a * c for c in x),
                   neg=lambda x: tuple(-c for c in x),
                   name=f"canonical-module({n})")


def zmod_module(m: int = 3, dim: int = 2) -> RModule:
    ring = _zmod_ring(m)
    return RModule(ring, Vector(ModularInt(m), dim),
                   add=lambda x, y: tuple((a + b) % m for a, b in zip(x, y)),
                   zero=(0,) * dim,
                   phi=lambda a, x: tuple((a * c) % m for c in x),
                   neg=lambda x: tuple((-c) % m for c in x),
                   name=f"zmod-module({m},{dim})")


def projectile_module(n: int = 1, k=F(1)) -> RModule:
    kk = _broadcast(_coerce(ParamSpec("k", "fractions", None), k), n)

    def add(x, y):
        s, t = x[n], y[n]
        return tuple(x[i] + y[i] - 2 * s * t * kk[i] for i in range(n)) + (s + t,)

    def phi(a, x):
        s = x[n]
        return tuple(a * x[i] + a * (1 - a) * s * s * kk[i] for i in range(n)) + (a * s,)

    def neg(x):
        s = x[n]
        return tuple(-x[i] - 2 * kk[i] * s * s for i in range(n)) + (-s,)

    return RModule(_rational_ring(), Vector(Rational(), n + 1), add,
                   (F(0),) * (n + 1), phi, neg,
                   name=f"projectile-module({n},{kk if n > 1 else kk[0]})")


def damped_module(n: int = 1, alpha: float = 1.0) -> RModule:
    def add(x, y):
        s, t = x[n], y[n]
        return tuple(x[i] * math.exp(alpha * t) + y[i] * math.exp(alpha * s)
                     for i in range(n)) + (s + t,)

    def phi(a, x):
        s = x[n]
        return tuple(a * x[i] * math.exp(-alpha * (1 - a) * s)
                     for i in range(n)) + (a * s,)

    def neg(x):
        s = x[n]
        return tuple(-x[i] * math.exp(-2 * alpha * s) for i in range(n)) + (-s,)

    return RModule(_float_ring(), Vector(Float64(), n + 1), add,
                   (0.0,) * (n + 1), phi, neg, name=f"damped-module({n},{alpha})")


def plane_module(k: Fraction = F(-1)) -> RModule:
    mul = _h_mul(k)
    ring = RingWithHalf(Vector(Rational(), 2),
                        lambda a, b: (a[0] + b[0], a[1] + b[1]), mul,
                        lambda a: (-a[0], -a[1]), (F(0), F(0)), (F(1), F(0)),
                        (F(1, 2), F(0)), name=f"plane-ring({k})")
    return RModule(ring, Vector(Rational(), 2),
                   add=lambda x, y: (x[0] + y[0], x[1] + y[1]),
                   zero=(F(0), F(0)),
                   phi=mul,
                   neg=lambda x: (-x[0], -x[1]),
                   name=f"plane-module({k})")


def tri_module() -> RModule:
    ring = RingWithHalf(
        Vector(Rational(), 3),
        lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
        lambda a, b: (a[0] * b[0], a[0] * b[1] + a[1] * b[2], a[2] * b[2]),
        lambda a: (-a[0], -a[1], -a[2]),
        (F(0), F(0), F(0)), (F(1), F(0), F(1)), (F(1, 2), F(0), F(1, 2)),
        name="tri-ring")
    return RModule(ring, Vector(Rational(), 2),
                   add=lambda x, y: (x[0] + y[0], x[1] + y[1]),
                   zero=(F(0), F(0)),
                   phi=lambda a, x: (a[0] * x[0] + a[1] * x[1], a[2] * x[1]),
                   neg=lambda x: (-x[0], -x[1]),
                   name="tri-module")


# ---------------------------------------------------------------------------
# the catalog itself

def _zeros(params):
    return (F(0),) * (params.get("n", 1) + 1)


_ENTRIES = [
    CatalogEntry("canonical-interval-algebra", "algebra", canonical_interval_algebra,
                 note="unit-interval rationals with p(a,b,c) = a + b(c-a); no doubler"),
    CatalogEntry("rational-line-algebra", "algebra", rational_line_algebra,
                 note="all of Q with p(a,b,c) = a + b(c-a); doubler 2"),
    CatalogEntry("float-line-algebra", "algebra", float_line_algebra,
                 note="float line with p(a,b,c) = a + b(c-a); scalar sampling in [-2,2]"),
    CatalogEntry("zmod-algebra", "algebra", zmod_algebra,
                 (ParamSpec("m", "int", 3, "odd modulus >= 3"),),
                 note="integers mod m with p(a,b,c) = a + bc - ba; half = (m+1)/2"),
    CatalogEntry("lozenge-algebra", "algebra", lozenge_algebra,
                 (ParamSpec("sqrt_k", "fraction", F(1), "positive square root of k"),),
                 note="pairs in the lozenge sqrt_k|a2| <= a1 <= 1 - sqrt_k|a2| with the "
                      "two-component p; constants on the real axis"),
    CatalogEntry("plane-algebra", "algebra", plane_algebra,
                 (ParamSpec("k", "fraction", F(-1), "h^2 = k"),),
                 note="all rational pairs with the two-component p; product is "
                      "(a1b1 + k a2b2, a1b2 + a2b1)"),
    CatalogEntry("tri-algebra", "algebra", tri_algebra,
                 note="rational triples with componentwise-coupled p; induced product "
                      "is noncommutative"),
    CatalogEntry("canonical-space", "space", canonical_space,
                 (ParamSpec("n", "int", 1, "dimension"),),
                 note="Q^n with straight-line interpolation x + a(y-x)",
                 origin=lambda ps: (F(0),) * ps.get("n", 1)),
    CatalogEntry("projectile-space", "space", projectile_space,
                 (ParamSpec("n", "int", 1, "spatial dimension"),
                  ParamSpec("k", "fractions", (F(1),), "quadratic coefficient(s)")),
                 note="pairs (x, s) interpolated with a quadratic correction "
                      "a(1-a)(t-s)^2 k in the first component",
                 origin=_zeros),
    CatalogEntry("damped-space", "space", damped_space,
                 (ParamSpec("n", "int", 1, "spatial dimension"),
                  ParamSpec("alpha", "float", 1.0, "damping rate")),
                 note="float pairs (x, s) with exponential damping factors; the one "
                      "Float64 instance, tolerance 1e-9",
                 origin=lambda ps: (0.0,) * (ps.get("n", 1) + 1)),
    CatalogEntry("transported-space", "space", transported_space,
                 (ParamSpec("lam", "str", "1", "poly coefficients, or 'exp'"),
                  ParamSpec("K", "str", "0,0,1", "poly coefficients"),
                  ParamSpec("alpha", "float", 1.0, "rate when lam='exp'")),
                 note="canonical pairs pushed through F(x,s) = (lam(s)x - K(s), s); "
                      "defaults reproduce the projectile space with k=1",
                 origin=lambda ps: ((0.0, 0.0) if ps.get("lam") == "exp"
                                    else (F(0), F(0)))),
    CatalogEntry("halfplane-space", "space", halfplane_space,
                 (ParamSpec("n", "int", 1, "spatial dimension"),),
                 note="pairs (x, s) with s > 0, scalars in [0,1]; interpolation "
                      "weighted by at/(s + a(t-s))",
                 origin=lambda ps: (F(0),) * ps.get("n", 1) + (F(1),)),
    CatalogEntry("lozenge-space", "space", lozenge_space,
                 (ParamSpec("sqrt_k", "fraction", F(1), "positive square root of k"),
                  ParamSpec("sign", "str", "plus", "'plus' or 'minus' branch")),
                 note="unit interval acted on by the lozenge algebra through "
                      "x + (a1 +/- sqrt_k a2)(y-x); both sign branches are spaces",
                 origin=lambda ps: F(0)),
    CatalogEntry("plane-space", "space", plane_space,
                 (ParamSpec("k", "fraction", F(-1), "h^2 = k"),),
                 note="rational pairs as numbers x1 + h x2 with h^2 = k, interpolated "
                      "by x + (a1 + h a2)(y-x)",
                 origin=lambda ps: (F(0), F(0))),
    CatalogEntry("tri-space", "space", tri_space,
                 note="rational pairs acted on by the triple algebra",
                 origin=lambda ps: (F(0), F(0))),
    CatalogEntry("nonaffine-complex-space", "space", nonaffine_complex_space,
                 (ParamSpec("n", "int", 1, "complex dimension"),),
                 note="Gaussian-rational pairs (z, s); satisfies the space laws but "
                      "fails the affine condition (known witness built in)",
                 origin=lambda ps: ((QI(0), F(0)) if ps.get("n", 1) == 1
                                    else ((QI(0),) * ps.get("n", 1), F(0)))),
    CatalogEntry("nonaffine-poly-space", "space", nonaffine_poly_space,
                 (ParamSpec("n", "int", 1, "spatial dimension"),),
                 note="rational pairs with a cubic-rational interpolation weight; "
                      "fails the affine condition",
                 origin=_zeros),
    CatalogEntry("canonical-module", "module", canonical_module,
                 (ParamSpec("n", "int", 1, "dimension"),),
                 note="Q^n as a module over Q"),
    CatalogEntry("zmod-module", "module", zmod_module,
                 (ParamSpec("m", "int", 3, "odd modulus >= 3"),
                  ParamSpec("dim", "int", 2, "rank")),
                 note="(Z/m)^dim as a module over Z/m"),
    CatalogEntry("projectile-module", "module", projectile_module,
                 (ParamSpec("n", "int", 1, "spatial dimension"),
                  ParamSpec("k", "fractions", (F(1),), "quadratic coefficient(s)")),
                 note="pairs (x, s) with (x,s)+(y,t) = (x+y-2stk, s+t) and "
                      "phi_a(x,s) = (ax + a(1-a)s^2 k, as)"),
    CatalogEntry("damped-module", "module", damped_module,
                 (ParamSpec("n", "int", 1, "spatial dimension"),
                  ParamSpec("alpha", "float", 1.0, "damping rate")),
                 note="float pairs with (x,s)+(y,t) = (x e^(alpha t) + y e^(alpha s), s+t) "
                      "and phi_a(x,s) = (a x e^(-alpha(1-a)s), as)"),
    CatalogEntry("plane-module", "module", plane_module,
                 (ParamSpec("k", "fraction", F(-1), "h^2 = k"),),
                 note="rational pairs as a module over the h-number ring"),
    CatalogEntry("tri-module", "module", tri_module,
                 note="rational pairs over the noncommutative triple ring with "
                      "phi_a(x) = (a1 x1 + a2 x2, a3 x2)"),
]

_BY_NAME = {entry.name: entry for entry in _ENTRIES}


def list_catalog() -> list:
    """All entries, in a stable order."""
    return list(_ENTRIES)


def get_entry(name: str) -> CatalogEntry:
    if name not in _BY_NAME:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown catalog name {name!r}; known: {known}")
    return _BY_NAME[name]


def coerce_params(entry: CatalogEntry, params: dict | None) -> dict:
    """Merge user params over defaults, coercing CLI strings to values."""
    given = dict(params or {})
    out = {}
    for spec in entry.params:
        raw = given.pop(spec.name, spec.default)
        out[spec.name] = _coerce(spec, raw)
    if given:
        raise ValueError(f"unknown parameter(s) for {entry.name}: {sorted(given)}")
    return out


def build(name: str, params: dict | None = None, **kw):
    """Build a catalog structure by name; params may be CLI strings."""
    entry = get_entry(name)
    merged = dict(params or {})
    merged.update(kw)
    return entry.builder(**coerce_params(entry, merged))


def default_origin(name: str, params: dict | None = None, **kw):
    """The entry's default basepoint (spaces only)."""
    entry = get_entry(name)
    if entry.origin is None:
        raise ValueError(f"{name} has no default basepoint")
    merged = dict(params or {})
    merged.update(kw)
    return entry.origin(coerce_params(entry, merged))
