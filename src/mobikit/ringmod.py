"""Unitary rings containing one half, and modules over them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .carriers import Carrier
from .report import CheckReport, Laws, Sampled


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


def check_ring(ring: RingWithHalf, strategy=Sampled()) -> list[CheckReport]:
    """Ring laws plus half+half=one. Commutativity of mul is reported
    separately by check_ring_commutativity and is not required here."""
    law = Laws(strategy, ring.carrier.eq, ring.carrier)
    add, mul, neg = ring.add, ring.mul, ring.neg
    zero, one, half = ring.zero, ring.one, ring.half
    return [
        law("add-assoc", lambda a, b, c: add(add(a, b), c),
            lambda a, b, c: add(a, add(b, c))),
        law("add-comm", lambda a, b: add(a, b), lambda a, b: add(b, a)),
        law("add-zero", lambda a: add(a, zero), lambda a: a),
        law("add-neg", lambda a: add(a, neg(a)), lambda a: zero),
        law("half-plus-half", lambda: add(half, half), lambda: one),
        law("mul-assoc", lambda a, b, c: mul(mul(a, b), c),
            lambda a, b, c: mul(a, mul(b, c))),
        law("mul-one-left", lambda a: mul(one, a), lambda a: a),
        law("mul-one-right", lambda a: mul(a, one), lambda a: a),
        law("dist-left", lambda a, b, c: mul(a, add(b, c)),
            lambda a, b, c: add(mul(a, b), mul(a, c))),
        law("dist-right", lambda a, b, c: mul(add(a, b), c),
            lambda a, b, c: add(mul(a, c), mul(b, c))),
    ]


def check_ring_commutativity(ring: RingWithHalf, strategy=Sampled()) -> CheckReport:
    """Informational: mul commutativity (not part of the ring contract)."""
    law = Laws(strategy, ring.carrier.eq, ring.carrier)
    return law("mul-comm", lambda a, b: ring.mul(a, b), lambda a, b: ring.mul(b, a))


def check_module(module: RModule, strategy=Sampled()) -> list[CheckReport]:
    """Abelian-group laws on points plus the four scalar-action laws and
    the phi_0 = zero invariant."""
    ring = module.ring
    law = Laws(strategy, module.points.eq, ring.carrier, module.points)
    add, phi, zero, neg = module.add, module.phi, module.zero, module.neg
    return [
        law("add-assoc", lambda x, y, z: add(add(x, y), z),
            lambda x, y, z: add(x, add(y, z))),
        law("add-comm", lambda x, y: add(x, y), lambda x, y: add(y, x)),
        law("add-zero", lambda x: add(x, zero), lambda x: x),
        law("add-neg", lambda x: add(x, neg(x)), lambda x: zero),
        law("phi-add", lambda a, x, y: phi(a, add(x, y)),
            lambda a, x, y: add(phi(a, x), phi(a, y))),
        law("phi-ring-add", lambda a, b, x: phi(ring.add(a, b), x),
            lambda a, b, x: add(phi(a, x), phi(b, x))),
        law("phi-ring-mul", lambda a, b, x: phi(ring.mul(a, b), x),
            lambda a, b, x: phi(a, phi(b, x))),
        law("phi-one", lambda x: phi(ring.one, x), lambda x: x),
        law("phi-zero", lambda x: phi(ring.zero, x), lambda x: zero),
    ]
