"""Unitary rings containing one half, and modules over them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .carriers import Carrier
from .report import CheckReport, Sampled, check_equation


@dataclass(frozen=True)
class RingWithHalf:
    """Unitary ring whose half satisfies half + half = one."""

    carrier: Carrier
    add: Callable
    mul: Callable
    neg: Callable
    zero: object
    one: object
    half: object
    name: str = ""

    @property
    def two(self):
        return self.add(self.one, self.one)


@dataclass(frozen=True)
class RModule:
    """Module over a RingWithHalf, with its additive inverse neg declared."""

    ring: RingWithHalf
    points: Carrier
    add: Callable
    zero: object
    phi: Callable  # scalar action phi(a, x)
    neg: Callable
    name: str = ""


def check_ring(ring: RingWithHalf, strategy=Sampled()) -> list[CheckReport]:
    """Ring laws plus half+half=one. Commutativity of mul is reported
    separately by check_ring_commutativity and is not required here."""
    c = ring.carrier
    e = c.eq
    add, mul, neg = ring.add, ring.mul, ring.neg
    zero, one, half = ring.zero, ring.one, ring.half
    abc = (c, c, c)
    ab = (c, c)
    return [
        check_equation("add-assoc", ("a", "b", "c"), abc, e,
                       lambda a, b, cc: add(add(a, b), cc),
                       lambda a, b, cc: add(a, add(b, cc)), strategy),
        check_equation("add-comm", ("a", "b"), ab, e,
                       lambda a, b: add(a, b), lambda a, b: add(b, a), strategy),
        check_equation("add-zero", ("a",), (c,), e,
                       lambda a: add(a, zero), lambda a: a, strategy),
        check_equation("add-neg", ("a",), (c,), e,
                       lambda a: add(a, neg(a)), lambda a: zero, strategy),
        check_equation("half-plus-half", (), (), e,
                       lambda: add(half, half), lambda: one, strategy),
        check_equation("mul-assoc", ("a", "b", "c"), abc, e,
                       lambda a, b, cc: mul(mul(a, b), cc),
                       lambda a, b, cc: mul(a, mul(b, cc)), strategy),
        check_equation("mul-one-left", ("a",), (c,), e,
                       lambda a: mul(one, a), lambda a: a, strategy),
        check_equation("mul-one-right", ("a",), (c,), e,
                       lambda a: mul(a, one), lambda a: a, strategy),
        check_equation("dist-left", ("a", "b", "c"), abc, e,
                       lambda a, b, cc: mul(a, add(b, cc)),
                       lambda a, b, cc: add(mul(a, b), mul(a, cc)), strategy),
        check_equation("dist-right", ("a", "b", "c"), abc, e,
                       lambda a, b, cc: mul(add(a, b), cc),
                       lambda a, b, cc: add(mul(a, cc), mul(b, cc)), strategy),
    ]


def check_ring_commutativity(ring: RingWithHalf, strategy=Sampled()) -> CheckReport:
    """Informational: mul commutativity (not part of the ring contract)."""
    c = ring.carrier
    return check_equation("mul-comm", ("a", "b"), (c, c), c.eq,
                          lambda a, b: ring.mul(a, b),
                          lambda a, b: ring.mul(b, a), strategy)


def check_module(module: RModule, strategy=Sampled()) -> list[CheckReport]:
    """Abelian-group laws on points plus the four scalar-action laws and
    the phi_0 = zero invariant."""
    pts = module.points
    ring = module.ring
    sc = ring.carrier
    pe = pts.eq
    add, phi, zero, neg = module.add, module.phi, module.zero, module.neg
    return [
        check_equation("add-assoc", ("x", "y", "z"), (pts, pts, pts), pe,
                       lambda x, y, z: add(add(x, y), z),
                       lambda x, y, z: add(x, add(y, z)), strategy),
        check_equation("add-comm", ("x", "y"), (pts, pts), pe,
                       lambda x, y: add(x, y), lambda x, y: add(y, x), strategy),
        check_equation("add-zero", ("x",), (pts,), pe,
                       lambda x: add(x, zero), lambda x: x, strategy),
        check_equation("add-neg", ("x",), (pts,), pe,
                       lambda x: add(x, neg(x)), lambda x: zero, strategy),
        check_equation("phi-add", ("a", "x", "y"), (sc, pts, pts), pe,
                       lambda a, x, y: phi(a, add(x, y)),
                       lambda a, x, y: add(phi(a, x), phi(a, y)), strategy),
        check_equation("phi-ring-add", ("a", "b", "x"), (sc, sc, pts), pe,
                       lambda a, b, x: phi(ring.add(a, b), x),
                       lambda a, b, x: add(phi(a, x), phi(b, x)), strategy),
        check_equation("phi-ring-mul", ("a", "b", "x"), (sc, sc, pts), pe,
                       lambda a, b, x: phi(ring.mul(a, b), x),
                       lambda a, b, x: phi(a, phi(b, x)), strategy),
        check_equation("phi-one", ("x",), (pts,), pe,
                       lambda x: phi(ring.one, x), lambda x: x, strategy),
        check_equation("phi-zero", ("x",), (pts,), pe,
                       lambda x: phi(ring.zero, x), lambda x: zero, strategy),
    ]
