from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from mobikit import (InverseError, MobiSpace, PointedMobiSpace, QI, Rational,
                     Sampled, Vector, all_passed, build, check_affine,
                     check_space, check_space_morphism, check_y_properties,
                     trace_geodesic, transport_space)
from mobikit.carriers import MembershipError

rationals = st.fractions(max_denominator=30)


def canonical(n=1):
    return build("canonical-space", n=n)


# direct evaluation

@given(rationals, rationals, rationals)
def test_canonical_q_interpolates(x, a, y):
    sp = canonical(1)
    assert sp.q((x,), a, (y,)) == (x + a * (y - x),)


def test_projectile_midpoint_peaks():
    sp = build("projectile-space")
    assert sp.q((F(0), F(0)), F(1, 2), (F(0), F(1))) == (F(1, 4), F(1, 2))


# the space laws

def test_catalog_spaces_pass_their_laws():
    strat = Sampled(samples=120, seed=0)
    for name in ("canonical-space", "projectile-space", "halfplane-space",
                 "tri-space", "nonaffine-complex-space"):
        assert all_passed(check_space(build(name), strat)), name


def test_law_ids_in_display_order():
    reports = check_space(canonical(1), Sampled(samples=30, seed=0))
    assert [r.law for r in reports] == ["X0", "X1", "X2", "X3", "X4", "X5"]


def test_broken_space_fails_with_witness():
    sp = MobiSpace(build("rational-line-algebra"), Vector(Rational(), 1),
                   lambda x, a, y: y)
    reports = {r.law: r for r in check_space(sp, Sampled(samples=60, seed=0))}
    assert not reports["X1"].passed
    assert reports["X1"].witness is not None


# the affine interchange condition

def test_affine_spaces_pass():
    strat = Sampled(samples=100, seed=0)
    for name in ("canonical-space", "projectile-space", "plane-space",
                 "tri-space", "halfplane-space", "lozenge-space"):
        report = check_affine(build(name), strat)
        assert report.passed, name


def test_nonaffine_complex_fails_at_the_built_in_probe():
    report = check_affine(build("nonaffine-complex-space"),
                          Sampled(samples=1, seed=0))
    assert not report.passed
    w = report.witness
    assert w.inputs["a"] == F(-1, 2)
    assert w.lhs == (QI(F(33, 40), F(3, 20)), F(-1, 4))
    assert w.rhs == (QI(F(27, 40), F(3, 20)), F(-1, 4))
    assert w.difference == (QI(F(3, 20)), F(0))


def test_nonaffine_poly_fails_under_sampling():
    report = check_affine(build("nonaffine-poly-space"),
                          Sampled(samples=300, seed=0))
    assert not report.passed and report.witness is not None


# interaction properties between q and the derived scalar operations

def test_y_properties_pass_on_catalog_spaces():
    strat = Sampled(samples=100, seed=0)
    for name in ("canonical-space", "projectile-space", "plane-space",
                 "nonaffine-complex-space"):
        reports = check_y_properties(build(name), strat)
        assert all_passed(reports), name
        assert [r.law for r in reports] == [f"Y{k}" for k in range(1, 11)]


def test_y_properties_on_the_float_space():
    reports = check_y_properties(build("damped-space"),
                                 Sampled(samples=100, seed=0))
    assert all_passed(reports)


# pointed spaces

def test_pointed_space_validates_origin():
    sp = canonical(2)
    PointedMobiSpace(sp, (F(0), F(0)))
    with pytest.raises(MembershipError):
        PointedMobiSpace(sp, (F(0),))


# morphisms and transport

def test_identity_is_a_space_morphism():
    sp = canonical(2)
    reports = check_space_morphism(lambda a: a, lambda x: x, sp, sp,
                                   Sampled(samples=80, seed=0))
    assert all_passed(reports)


def test_translation_is_a_space_morphism():
    sp = canonical(1)
    reports = check_space_morphism(lambda a: a, lambda x: (x[0] + 3,), sp, sp,
                                   Sampled(samples=80, seed=0))
    assert all_passed(reports)


def test_transport_space_conjugates_q():
    base = canonical(1)
    shifted = transport_space(base, lambda x: (x[0] + 5,),
                              lambda x: (x[0] - 5,))
    assert shifted.q((F(5),), F(1, 2), (F(7),)) == (F(6),)
    assert all_passed(check_space(shifted, Sampled(samples=60, seed=0)))


def test_transport_space_rejects_a_fake_inverse():
    base = canonical(1)
    # the point is named as a report renders it, not as a tuple of Fractions
    with pytest.raises(InverseError, match=r"^backward\(forward\(x\)\) != x at x=\([-\d/]+\)$"):
        transport_space(base, lambda x: (x[0] + 5,), lambda x: (x[0] - 4,))


# geodesic traces

def test_trace_on_the_projectile_arc():
    sp = build("projectile-space")
    grid = [F(k, 4) for k in range(5)]
    rows = trace_geodesic(sp, (F(0), F(0)), (F(0), F(1)), grid)
    assert [pt for _, pt in rows] == [
        (F(0), F(0)), (F(3, 16), F(1, 4)), (F(1, 4), F(1, 2)),
        (F(3, 16), F(3, 4)), (F(0), F(1))]


def test_trace_validates_endpoints():
    sp = build("halfplane-space")
    with pytest.raises(MembershipError):
        trace_geodesic(sp, (F(0), F(0)), (F(0), F(1)), [F(0)])
