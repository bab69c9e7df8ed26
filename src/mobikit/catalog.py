"""Catalog of ready-made algebras, spaces, and modules.

Each entry is a builder registered with `@_entry`: its name, with hyphens
for underscores, names the entry and ends in its kind, and its keyword
defaults are the parameters, which may be given as strings (the CLI passes
strings).  Spaces carry a default basepoint so conversions and round-trips
work out of the box.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .algebra import MobiAlgebra
from .carriers import (_DRAWS, DENOMINATOR_BOUND, RATIONAL_NUMERATOR_BOUND, Float64,
                       GaussianRational, ModularInt, Product, QI, Rational, Restricted,
                       Sign, Vector, _draw_rational, exp)
from .rational import _Fraction
from .ringmod import RModule, RingWithHalf
from .space import MobiSpace, transport_space

F = _Fraction  # rational constants and parameters take the kernel's fast paths


@dataclass(frozen=True)
class ParamSpec:
    name: str
    default: object


@dataclass(frozen=True)
class CatalogEntry:
    builder: Callable
    note: str = ""
    origin: Callable | None = None  # params -> default basepoint, spaces only

    @property
    def name(self) -> str:
        return self.builder.__name__.replace("_", "-")

    @property
    def kind(self) -> str:
        """The last word of the name: algebra, space or module."""
        return self.name.rpartition("-")[2]

    @functools.cached_property  # inspect.signature is slow; once per entry
    def params(self) -> tuple:
        """The builder's keyword parameters and their defaults."""
        return tuple(ParamSpec(p.name, p.default)
                     for p in inspect.signature(self.builder).parameters.values())


_BY_NAME = {}  # name -> CatalogEntry, in file order


def _entry(note: str, origin: Callable | None = None):
    """Register the decorated builder as a catalog entry."""
    def register(builder):
        entry = CatalogEntry(builder, note, origin)
        _BY_NAME[entry.name] = entry
        return builder
    return register


def _fractions(value) -> tuple:
    """Fractions from "a,b,..." text, a sequence, or one number."""
    if isinstance(value, str):
        return tuple(F(part.strip()) for part in value.split(","))
    if isinstance(value, (list, tuple)):
        return tuple(F(v) for v in value)
    return (F(value),)


def _coerce(default, value):
    """value, possibly CLI text, as the type of the parameter's default: an
    int, a Fraction, a float, a str, or a tuple of Fractions."""
    if isinstance(default, tuple):
        return _fractions(value)
    if isinstance(default, float) and isinstance(value, str):
        return float(Fraction(value))
    return type(default)(value)


def _zeros(params):
    return (F(0),) * (params["n"] + 1)


# ---------------------------------------------------------------------------
# algebras

def _canonical_p(a, b, c):
    return a + b * (c - a)


# Direct samplers for the restricted carriers below.  Each draws n/d with
# |n| <= RATIONAL_NUMERATOR_BOUND and 1 <= d <= DENOMINATOR_BOUND, the support
# of a Rational draw, so it reaches exactly the values rejection sampling
# would accept, and reads n/d from _DRAWS[d - 1][n + RATIONAL_NUMERATOR_BOUND].
# They call rng.randint: only the unrestricted draws that make up nearly all
# of a sampled pass (carriers._draw_rational, Float64.draw) inline its loop.

def _draw_unit(rng) -> Fraction:
    """n/d in [0, 1]: d = rng.randint(1, 8), then n = rng.randint(0, d)."""
    d = rng.randint(1, DENOMINATOR_BOUND)
    n = rng.randint(0, min(d, RATIONAL_NUMERATOR_BOUND))
    return _DRAWS[d - 1][n + RATIONAL_NUMERATOR_BOUND]


def _draw_symmetric(rng, num: int, den: int) -> Fraction:
    """n/d with |n/d| <= num/den (num >= 0, den > 0): d = rng.randint(1, 8),
    then n = rng.randint(-h, h) with h = min(floor(num * d / den), 12)."""
    d = rng.randint(1, DENOMINATOR_BOUND)
    h = min(num * d // den, RATIONAL_NUMERATOR_BOUND)
    return _DRAWS[d - 1][rng.randint(-h, h) + RATIONAL_NUMERATOR_BOUND]


def _draw_positive(rng) -> Fraction:
    """n/d > 0: n = rng.randint(1, 12), then d = rng.randint(1, 8)."""
    n = rng.randint(1, RATIONAL_NUMERATOR_BOUND)
    return _DRAWS[rng.randint(1, DENOMINATOR_BOUND) - 1][n + RATIONAL_NUMERATOR_BOUND]


def _unit_interval():
    return Restricted(Rational(), conditions=(Sign(lambda x: x), Sign(lambda x: 1 - x)),
                      label="0 <= t <= 1", sampler=_draw_unit)


@_entry("unit-interval rationals with p(a,b,c) = a + b(c-a); no doubler")
def canonical_interval_algebra() -> MobiAlgebra:
    return MobiAlgebra(_unit_interval(), _canonical_p, F(0), F(1, 2), F(1))


@_entry("all of Q with p(a,b,c) = a + b(c-a); doubler 2")
def rational_line_algebra() -> MobiAlgebra:
    return MobiAlgebra(Rational(), _canonical_p, F(0), F(1, 2), F(1), two=F(2))


@_entry("float line with p(a,b,c) = a + b(c-a); scalar sampling in [-2,2]")
def float_line_algebra() -> MobiAlgebra:
    # scalar sampler stays in [-2, 2] so nested exp-based spaces cannot overflow
    return MobiAlgebra(Float64(span=2), _canonical_p, 0.0, 0.5, 1.0, two=2.0)


def _require_odd_modulus(m: int):
    if m < 3 or m % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {m}")


@_entry("integers mod m with p(a,b,c) = a + bc - ba; half = (m+1)/2")
def zmod_algebra(m: int = 3) -> MobiAlgebra:
    # m is an odd modulus >= 3, so that 2 has an inverse
    _require_odd_modulus(m)
    return MobiAlgebra(ModularInt(m), lambda a, b, c: (a + b * c - b * a) % m,
                       0, (m + 1) // 2, 1, two=2 % m)


def _pair_p(k):
    def p(a, b, c):
        return (a[0] + b[0] * (c[0] - a[0]) + k * b[1] * (c[1] - a[1]),
                a[1] + b[0] * (c[1] - a[1]) + b[1] * (c[0] - a[0]))
    return p


@_entry("pairs in the lozenge sqrt_k|a2| <= a1 <= 1 - sqrt_k|a2| with the "
        "two-component p; constants on the real axis")
def lozenge_algebra(sqrt_k: Fraction = F(1)) -> MobiAlgebra:
    if sqrt_k <= 0:
        raise ValueError("sqrt_k must be positive")
    k = sqrt_k * sqrt_k
    kn, kd = sqrt_k.as_integer_ratio()

    def draw(rng):
        a1 = _draw_unit(rng)
        n, d = a1._numerator, a1._denominator
        # |a2| <= min(a1, 1 - a1) / sqrt_k = min(n, d - n) * kd / (d * kn)
        return (a1, _draw_symmetric(rng, min(n, d - n) * kd, d * kn))

    # sqrt_k|a2| <= a1 <= 1 - sqrt_k|a2|: the unit square in a1 -/+ sqrt_k a2
    conditions = (Sign(lambda a: a[0] - sqrt_k * a[1]), Sign(lambda a: a[0] + sqrt_k * a[1]),
                  Sign(lambda a: 1 - a[0] - sqrt_k * a[1]), Sign(lambda a: 1 - a[0] + sqrt_k * a[1]))
    carrier = Restricted(Vector(Rational(), 2), conditions=conditions,
                         label=f"{sqrt_k}|a2| <= a1 <= 1 - {sqrt_k}|a2|",
                         sampler=draw)
    return MobiAlgebra(carrier, _pair_p(k), (F(0), F(0)), (F(1, 2), F(0)),
                       (F(1), F(0)))


@_entry("all rational pairs with the two-component p; product is "
        "(a1b1 + k a2b2, a1b2 + a2b1)")
def plane_algebra(k: Fraction = F(-1)) -> MobiAlgebra:
    return MobiAlgebra(Vector(Rational(), 2), _pair_p(k), (F(0), F(0)),
                       (F(1, 2), F(0)), (F(1), F(0)), two=(F(2), F(0)))


@_entry("rational triples with componentwise-coupled p; induced product "
        "is noncommutative")
def tri_algebra() -> MobiAlgebra:
    def p(a, b, c):
        return (a[0] + b[0] * (c[0] - a[0]),
                a[1] + b[0] * (c[1] - a[1]) + b[1] * (c[2] - a[2]),
                a[2] + b[2] * (c[2] - a[2]))

    return MobiAlgebra(Vector(Rational(), 3), p, (F(0), F(0), F(0)),
                       (F(1, 2), F(0), F(1, 2)), (F(1), F(0), F(1)),
                       two=(F(2), F(0), F(2)))


# ---------------------------------------------------------------------------
# spaces

def _interp(x, a, y):
    return tuple(xi + a * (yi - xi) for xi, yi in zip(x, y))


@_entry("Q^n with straight-line interpolation x + a(y-x)",
        origin=lambda ps: (F(0),) * ps["n"])
def canonical_space(n: int = 1) -> MobiSpace:
    return MobiSpace(rational_line_algebra(), Vector(Rational(), n), _interp)


def _broadcast(k: tuple, n: int) -> tuple:
    """The quadratic coefficients k, one for all n spatial components or one each."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(k) == n:
        return k
    if len(k) == 1:
        return k * n
    raise ValueError(f"k must have 1 or {n} component(s), got {len(k)}")


@_entry("pairs (x, s) interpolated with a quadratic correction "
        "a(1-a)(t-s)^2 k in the first component", origin=_zeros)
def projectile_space(n: int = 1, k=(F(1),)) -> MobiSpace:
    kk = _broadcast(k, n)

    def q(x, a, y):
        s, t = x[n], y[n]
        head = tuple(x[i] + a * (y[i] - x[i]) + a * (1 - a) * (t - s) ** 2 * kk[i]
                     for i in range(n))
        return head + (s + a * (t - s),)

    return MobiSpace(rational_line_algebra(), Vector(Rational(), n + 1), q)


@_entry("float pairs (x, s) with exponential damping factors; the one "
        "Float64 instance, tolerance 1e-9",
        origin=lambda ps: (0.0,) * (ps["n"] + 1))
def damped_space(n: int = 1, alpha: float = 1.0) -> MobiSpace:
    def q(x, a, y):
        s, t = x[n], y[n]
        head = tuple((1 - a) * x[i] * exp(alpha * a * (t - s))
                     + a * y[i] * exp(alpha * (1 - a) * (s - t))
                     for i in range(n))
        return head + (s + a * (t - s),)

    return MobiSpace(float_line_algebra(), Vector(Float64(), n + 1), q)


def _polyval(coeffs: tuple, s):
    out = coeffs[-1] if coeffs else 0
    for c in reversed(coeffs[:-1]):
        out = out * s + c
    return out


@_entry("canonical pairs pushed through F(x,s) = (lam(s)x - K(s), s); "
        "defaults reproduce the projectile space with k=1",
        origin=lambda ps: (F(0), F(0)))
def transported_space(lam=(F(1),), K=(F(0), F(0), F(1))) -> MobiSpace:
    """Canonical interpolation on pairs pushed through F(x,s) = (lam(s)x - K(s), s).

    lam and K are polynomial coefficient lists (constant term first); lam must
    not vanish on sampled s.
    """
    base = canonical_space(2)

    def fwd(p):
        x, s = p
        return (_polyval(lam, s) * x - _polyval(K, s), s)

    def bwd(p):
        u, s = p
        lam_s = _polyval(lam, s)
        if lam_s == 0:
            raise ZeroDivisionError(f"lam({s}) = 0; choose lam without rational roots")
        return ((u + _polyval(K, s)) / lam_s, s)

    return transport_space(base, fwd, bwd)


@_entry("pairs (x, s) with s > 0, scalars in [0,1]; interpolation "
        "weighted by at/(s + a(t-s))",
        origin=lambda ps: (F(0),) * ps["n"] + (F(1),))
def halfplane_space(n: int = 1) -> MobiSpace:
    pairs = Vector(Rational(), n + 1)  # rejects n < 0

    def draw(rng):
        # n Rational draws, then the positive last coordinate
        return (*[_draw_rational(rng) for _ in range(n)], _draw_positive(rng))

    points = Restricted(pairs, conditions=(Sign(lambda p: p[n], strict=True),),
                        label="s > 0", sampler=draw)

    def q(x, a, y):
        s, t = x[n], y[n]
        d = s + a * (t - s)
        head = tuple(x[i] + (y[i] - x[i]) * a * t / d for i in range(n))
        return head + (d,)

    return MobiSpace(canonical_interval_algebra(), points, q)


@_entry("unit interval acted on by the lozenge algebra through "
        "x + (a1 +/- sqrt_k a2)(y-x); both sign branches are spaces",
        origin=lambda ps: F(0))
def lozenge_space(sqrt_k: Fraction = F(1), sign: str = "plus") -> MobiSpace:
    # sign picks the branch: 'plus' or 'minus' before sqrt_k a2
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    algebra = lozenge_algebra(sqrt_k)
    mult = 1 if sign == "plus" else -1

    def q(x, a, y):
        return x + (a[0] + mult * sqrt_k * a[1]) * (y - x)

    return MobiSpace(algebra, _unit_interval(), q)


def _h_mul(k):
    def mul(a, b):
        return (a[0] * b[0] + k * a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    return mul


@_entry("rational pairs as numbers x1 + h x2 with h^2 = k, interpolated "
        "by x + (a1 + h a2)(y-x)", origin=lambda ps: (F(0), F(0)))
def plane_space(k: Fraction = F(-1)) -> MobiSpace:
    mul = _h_mul(k)

    def q(x, a, y):
        d = mul(a, (y[0] - x[0], y[1] - x[1]))
        return (x[0] + d[0], x[1] + d[1])

    return MobiSpace(plane_algebra(k), Vector(Rational(), 2), q)


@_entry("rational pairs acted on by the triple algebra",
        origin=lambda ps: (F(0), F(0)))
def tri_space() -> MobiSpace:
    def q(x, a, y):
        return (x[0] + a[0] * (y[0] - x[0]) + a[1] * (y[1] - x[1]),
                x[1] + a[2] * (y[1] - x[1]))

    return MobiSpace(tri_algebra(), Vector(Rational(), 2), q)


@_entry("Gaussian-rational pairs (z, s); satisfies the space laws but "
        "fails the affine condition (known witness built in)",
        origin=lambda ps: ((QI(0), F(0)) if ps["n"] == 1
                           else ((QI(0),) * ps["n"], F(0))))
def nonaffine_complex_space(n: int = 1) -> MobiSpace:
    if n == 1:
        points = Product((GaussianRational(), Rational()))
    else:
        points = Product((Vector(GaussianRational(), n), Rational()))

    def factor(a, s, t):
        return QI((2 - a) * s + a * t, F(1)) / QI(s + t, F(1)) * a

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
    return MobiSpace(rational_line_algebra(), points, q, affine_probes=probes)


@_entry("rational pairs with a cubic-rational interpolation weight; "
        "fails the affine condition", origin=_zeros)
def nonaffine_poly_space(n: int = 1) -> MobiSpace:
    def q(x, a, y):
        s, t = x[n], y[n]
        num = 3 * s * s + 3 * s * (t - s) * a + (t - s) ** 2 * a * a + 1
        den = s * s + s * t + t * t + 1
        head = tuple(x[i] + a * (y[i] - x[i]) * num / den for i in range(n))
        return head + (s + a * (t - s),)

    return MobiSpace(rational_line_algebra(), Vector(Rational(), n + 1), q)


# ---------------------------------------------------------------------------
# rings and modules

def _rational_ring() -> RingWithHalf:
    return RingWithHalf(Rational(), lambda a, b: a + b, lambda a, b: a * b,
                        lambda a: -a, F(0), F(1), F(1, 2))


def _float_ring() -> RingWithHalf:
    return RingWithHalf(Float64(span=2), lambda a, b: a + b, lambda a, b: a * b,
                        lambda a: -a, 0.0, 1.0, 0.5)


def _zmod_ring(m: int) -> RingWithHalf:
    _require_odd_modulus(m)
    return RingWithHalf(ModularInt(m), lambda a, b: (a + b) % m,
                        lambda a, b: (a * b) % m, lambda a: (-a) % m,
                        0, 1, (m + 1) // 2)


@_entry("Q^n as a module over Q")
def canonical_module(n: int = 1) -> RModule:
    return RModule(_rational_ring(), Vector(Rational(), n),
                   add=lambda x, y: tuple(a + b for a, b in zip(x, y)),
                   zero=(F(0),) * n,
                   phi=lambda a, x: tuple(a * c for c in x),
                   neg=lambda x: tuple(-c for c in x))


@_entry("(Z/m)^dim as a module over Z/m")
def zmod_module(m: int = 3, dim: int = 2) -> RModule:
    # m is an odd modulus >= 3, as for zmod-algebra; dim is the rank
    ring = _zmod_ring(m)
    return RModule(ring, Vector(ModularInt(m), dim),
                   add=lambda x, y: tuple((a + b) % m for a, b in zip(x, y)),
                   zero=(0,) * dim,
                   phi=lambda a, x: tuple((a * c) % m for c in x),
                   neg=lambda x: tuple((-c) % m for c in x))


@_entry("pairs (x, s) with (x,s)+(y,t) = (x+y-2stk, s+t) and "
        "phi_a(x,s) = (ax + a(1-a)s^2 k, as)")
def projectile_module(n: int = 1, k=(F(1),)) -> RModule:
    kk = _broadcast(k, n)

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
                   (F(0),) * (n + 1), phi, neg)


@_entry("float pairs with (x,s)+(y,t) = (x e^(alpha t) + y e^(alpha s), s+t) "
        "and phi_a(x,s) = (a x e^(-alpha(1-a)s), as)")
def damped_module(n: int = 1, alpha: float = 1.0) -> RModule:
    def add(x, y):
        s, t = x[n], y[n]
        return tuple(x[i] * exp(alpha * t) + y[i] * exp(alpha * s)
                     for i in range(n)) + (s + t,)

    def phi(a, x):
        s = x[n]
        return tuple(a * x[i] * exp(-alpha * (1 - a) * s)
                     for i in range(n)) + (a * s,)

    def neg(x):
        s = x[n]
        return tuple(-x[i] * exp(-2 * alpha * s) for i in range(n)) + (-s,)

    return RModule(_float_ring(), Vector(Float64(), n + 1), add,
                   (0.0,) * (n + 1), phi, neg)


@_entry("rational pairs as a module over the h-number ring")
def plane_module(k: Fraction = F(-1)) -> RModule:
    mul = _h_mul(k)
    ring = RingWithHalf(Vector(Rational(), 2),
                        lambda a, b: (a[0] + b[0], a[1] + b[1]), mul,
                        lambda a: (-a[0], -a[1]), (F(0), F(0)), (F(1), F(0)),
                        (F(1, 2), F(0)))
    return RModule(ring, Vector(Rational(), 2),
                   add=lambda x, y: (x[0] + y[0], x[1] + y[1]),
                   zero=(F(0), F(0)),
                   phi=mul,
                   neg=lambda x: (-x[0], -x[1]))


@_entry("rational pairs over the noncommutative triple ring with "
        "phi_a(x) = (a1 x1 + a2 x2, a3 x2)")
def tri_module() -> RModule:
    ring = RingWithHalf(
        Vector(Rational(), 3),
        lambda a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
        lambda a, b: (a[0] * b[0], a[0] * b[1] + a[1] * b[2], a[2] * b[2]),
        lambda a: (-a[0], -a[1], -a[2]),
        (F(0), F(0), F(0)), (F(1), F(0), F(1)), (F(1, 2), F(0), F(1, 2)))
    return RModule(ring, Vector(Rational(), 2),
                   add=lambda x, y: (x[0] + y[0], x[1] + y[1]),
                   zero=(F(0), F(0)),
                   phi=lambda a, x: (a[0] * x[0] + a[1] * x[1], a[2] * x[1]),
                   neg=lambda x: (-x[0], -x[1]))


# ---------------------------------------------------------------------------
# the catalog itself

def list_catalog() -> list:
    """All entries, in a stable order."""
    return list(_BY_NAME.values())


def get_entry(name: str) -> CatalogEntry:
    if name not in _BY_NAME:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown catalog name {name!r}; known: {known}")
    return _BY_NAME[name]


def coerce_params(entry: CatalogEntry, params: dict | None) -> dict:
    """Merge user params over defaults, coercing CLI strings to values.  A
    value its parameter's type rejects raises ValueError naming the entry
    and the parameter."""
    given = dict(params or {})
    out = {}
    for spec in entry.params:
        value = given.pop(spec.name, spec.default)
        try:
            out[spec.name] = _coerce(spec.default, value)
        except (ValueError, ArithmeticError) as exc:
            # int("x") and Fraction("x") raise ValueError, Fraction("1/0")
            # ZeroDivisionError, worded as --origin words it, and
            # float(Fraction("1e400")) OverflowError
            if isinstance(exc, ValueError):
                detail = exc
            elif isinstance(exc, ZeroDivisionError):
                detail = "the value divides by zero"
            else:
                detail = f"{type(exc).__name__}: {exc}"
            raise ValueError(f"{entry.name}: --param {spec.name}={value}: {detail}") from None
    if given:
        raise ValueError(f"unknown parameter(s) for {entry.name}: {sorted(given)}")
    return out


def build(name: str, params: dict | None = None, **kw):
    """Build a catalog structure by name; params may be CLI strings."""
    entry = get_entry(name)
    return entry.builder(**coerce_params(entry, {**(params or {}), **kw}))


def default_origin(name: str, params: dict | None = None, **kw):
    """The entry's default basepoint (spaces only)."""
    entry = get_entry(name)
    if entry.origin is None:
        raise ValueError(f"{name} has no default basepoint")
    return entry.origin(coerce_params(entry, {**(params or {}), **kw}))
