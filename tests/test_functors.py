import math
from dataclasses import replace
from fractions import Fraction as F

import pytest

from mobikit import (CarrierError, Exhaustive, PointedMobiSpace, QI, RModule,
                     Sampled, all_passed, build, check_module, check_space,
                     default_origin, module_to_space, origin_scan,
                     report_to_text, roundtrip_module, roundtrip_space,
                     space_to_module, transport_morphism)


def pointed(name, **params):
    return PointedMobiSpace(build(name, params), default_origin(name, params))


# module -> space

def test_module_to_space_is_a_space():
    sp = module_to_space(build("zmod-module", m=3, dim=2))
    assert all_passed(check_space(sp.space, Exhaustive()))
    assert sp.origin == (0, 0)


def test_module_to_space_interpolates():
    sp = module_to_space(build("canonical-module", n=1)).space
    # q(x, a, y) = (1-a)x + ay
    assert sp.q((F(2),), F(1, 4), (F(6),)) == (F(3),)


# space -> module

def test_space_to_module_on_projectile_matches_closed_forms():
    module = space_to_module(pointed("projectile-space"))
    x, y, a = (F(1), F(2)), (F(3), F(5)), F(2, 3)
    s, t = x[1], y[1]
    assert module.add(x, y) == (x[0] + y[0] - 2 * s * t, s + t)
    assert module.phi(a, x) == (a * x[0] + a * (1 - a) * s * s, a * s)
    assert module.neg(x) == (-x[0] - 2 * s * s, -s)
    assert all_passed(check_module(module, Sampled(samples=100, seed=0)))


def test_space_to_module_on_damped_matches_closed_forms():
    module = space_to_module(pointed("damped-space"))
    x, y, a = (1.5, 0.5), (-2.0, 1.25), 0.75
    s, t = x[1], y[1]
    got = module.add(x, y)
    want = (x[0] * math.exp(t) + y[0] * math.exp(s), s + t)
    assert abs(got[0] - want[0]) < 1e-9 and abs(got[1] - want[1]) < 1e-9
    got = module.phi(a, x)
    want = (a * x[0] * math.exp(-(1 - a) * s), a * s)
    assert abs(got[0] - want[0]) < 1e-9 and abs(got[1] - want[1]) < 1e-9


def test_space_to_module_needs_a_doubler():
    with pytest.raises(CarrierError):
        space_to_module(pointed("halfplane-space"))


def test_space_to_module_checks_the_declared_two():
    sp = pointed("canonical-space", n=1)
    assert space_to_module(sp).add((F(1),), (F(2),)) == (F(3),)
    wrong = replace(sp.space, algebra=replace(sp.space.algebra, two=F(3)))
    with pytest.raises(CarrierError, match="does not satisfy"):
        space_to_module(PointedMobiSpace(wrong, sp.origin))


# round-trips

def test_roundtrip_module_exhaustive_on_zmod():
    assert roundtrip_module(build("zmod-module", m=3, dim=2),
                            Exhaustive()).passed


def test_roundtrip_space_exhaustive_on_induced_zmod_space():
    sp = module_to_space(build("zmod-module", m=3, dim=2))
    assert roundtrip_space(sp, strategy=Exhaustive()).passed


def test_roundtrip_space_on_catalog_spaces():
    strat = Sampled(samples=150, seed=0)
    for name, params in (("canonical-space", {"n": 2}),
                         ("projectile-space", {}),
                         ("plane-space", {"k": F(1)}),
                         ("tri-space", {})):
        assert roundtrip_space(pointed(name, **params),
                               strategy=strat).passed, name


def test_roundtrip_failure_reports_the_operation():
    # phi(a, x) = ax + c(a) with c zero at -1, 1/2 and 2: the round trip
    # keeps + but its phi(a, x) = phi(1 - a, 0) + phi(a, x) gains c(1 - a)
    m = build("canonical-module", n=1)
    skewed = RModule(m.ring, m.points, m.add, m.zero,
                     phi=lambda a, x: (a * x[0] + (a + 1) * (2 * a - 1) * (a - 2),),
                     neg=m.neg)
    report = roundtrip_module(skewed, Sampled(samples=60, seed=0))
    assert not report.passed
    w = report.witness
    assert list(w.inputs) == ["a", "x", "y"]
    a, x, _ = w.inputs.values()
    (add, phi), (back_add, back_phi) = w.lhs, w.rhs
    assert add == back_add
    assert phi == skewed.phi(a, x) and back_phi != phi


def test_roundtrip_division_by_zero_is_a_witness():
    # phi divides by x, and the round trip's + calls phi(-1, 0)
    m = build("canonical-module", n=1)
    dividing = RModule(m.ring, m.points, m.add, m.zero,
                       phi=lambda a, x: (a * x[0] * x[0] / x[0],), neg=m.neg)
    report = roundtrip_module(dividing, Sampled(samples=20, seed=0))
    w = report.witness
    assert list(w.inputs) == ["a", "x", "y"]
    # M's own side evaluates; the round-tripped side is the one that raised
    a, x, y = w.inputs.values()
    assert w.lhs == (dividing.add(x, y), dividing.phi(a, x))
    assert w.rhs.startswith("<error: ") and w.difference is None
    text = report_to_text(report)
    assert text.startswith("FAIL roundtrip(module) [sampled(n=20, seed=0)]")
    assert " rhs=<error: " in text


# morphism transport

def test_identity_transports_between_zmod_structures():
    m = build("zmod-module", m=3, dim=2)
    reports = transport_morphism("modules->spaces", (lambda a: a, lambda x: x),
                                 m, m, Exhaustive())
    assert all_passed(reports)


def test_identity_transports_between_canonical_spaces():
    sp = pointed("canonical-space", n=2)
    reports = transport_morphism("spaces->modules", (lambda a: a, lambda x: x),
                                 sp, sp, Sampled(samples=150, seed=0))
    assert all_passed(reports)


def test_scaling_transports_as_a_module_morphism():
    # g doubles points; paired with the identity on scalars it is linear
    sp = pointed("canonical-space", n=1)
    reports = transport_morphism(
        "spaces->modules", (lambda a: a, lambda x: (2 * x[0],)), sp, sp,
        Sampled(samples=100, seed=0))
    assert all_passed(reports)


def test_translation_is_not_a_module_morphism():
    sp = pointed("canonical-space", n=1)
    reports = transport_morphism(
        "spaces->modules", (lambda a: a, lambda x: (x[0] + 1,)), sp, sp,
        Sampled(samples=100, seed=0))
    failed = {r.law for r in reports if not r.passed}
    assert "g(e)" in failed


def test_transport_rejects_unknown_direction():
    m = build("zmod-module")
    with pytest.raises(ValueError):
        transport_morphism("sideways", (lambda a: a, lambda x: x), m, m,
                           Exhaustive())


# basepoint scanning on a nonaffine space

def test_origin_scan_finds_no_module_on_the_nonaffine_space():
    sp = build("nonaffine-complex-space")
    origins = [(QI(0), F(0)), (QI(1), F(1)), (QI(0, 1), F(2))]
    rows = origin_scan(sp, origins, Sampled(samples=200, seed=0))
    assert len(rows) == 3
    for origin, reports in rows:
        assert not all_passed(reports), origin


def test_origin_scan_passes_everywhere_on_an_affine_space():
    sp = build("canonical-space", n=1)
    rows = origin_scan(sp, [(F(0),), (F(5),)], Sampled(samples=100, seed=0))
    for origin, reports in rows:
        assert all_passed(reports), origin
