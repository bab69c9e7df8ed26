import itertools
import math
from dataclasses import replace
from fractions import Fraction as F

import pytest

from mobikit import (CarrierError, Exhaustive, PointedMobiSpace, QI, RModule,
                     Sampled, all_passed, build, check_module,
                     check_space, check_y_properties,
                     default_origin, module_to_space, origin_scan,
                     report_to_text, roundtrip_module, roundtrip_space,
                     space_to_module, transport_morphism, transport_space)
from mobikit.algebra import algebra_from_ring, ring_from_algebra
from mobikit.carriers import ModularInt
from mobikit.space import check_affine


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


# composite operations on finite carriers

def _tuples(*carriers):
    return itertools.product(*(c.elements() for c in carriers))


@pytest.mark.parametrize("m, dim", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_composite_operations_equal_their_formulas(m, dim):
    M = build("zmod-module", m=m, dim=dim)
    R, X = M.ring, M.points
    S = module_to_space(M)
    q = S.space.q
    for x, a, y in _tuples(X, R.carrier, X):
        assert q(x, a, y) == M.add(M.phi(R.add(R.one, R.neg(a)), x), M.phi(a, y))
    A = algebra_from_ring(R)
    for a, b, c in _tuples(R.carrier, R.carrier, R.carrier):
        assert A.p(a, b, c) == R.add(a, R.add(R.mul(b, c), R.neg(R.mul(b, a))))
    ring = ring_from_algebra(A)
    for a, b in _tuples(R.carrier, R.carrier):
        assert ring.add(a, b) == A.p(A.zero, A.two, A.p(a, A.half, b))
    back = space_to_module(S)
    for x, y in _tuples(X, X):
        assert back.add(x, y) == q(S.origin, A.two, q(x, A.half, y))
    shifted = transport_space(S.space, lambda x: tuple((c + 1) % m for c in x),
                              lambda x: tuple((c - 1) % m for c in x))
    for x, a, y in _tuples(X, R.carrier, X):
        want = tuple((c + 1) % m for c in
                     q(tuple((c - 1) % m for c in x), a, tuple((c - 1) % m for c in y)))
        assert shifted.q(x, a, y) == want


def _unreduced_module(m):
    """Z/m as a module whose + does not reduce: its sums leave {0..m-1}."""
    M = build("zmod-module", m=m, dim=1)
    return RModule(M.ring, ModularInt(m), add=lambda x, y: x + y, zero=0,
                   phi=lambda a, x: (a * x) % m, neg=lambda x: (-x) % m)


def test_a_raising_phi_fails_every_exhaustive_space_law():
    M = _unreduced_module(3)

    def phi(a, x):
        if x == 2:
            raise ZeroDivisionError("phi at 2")
        return M.phi(a, x)

    reports = check_space(module_to_space(replace(M, phi=phi)).space, Exhaustive())
    assert [r.verdict for r in reports] == ["fail"] * 6
    # the first tuple of the walk that reaches phi(_, 2)
    assert report_to_text(reports[0]) == (
        "FAIL X0 [exhaustive] witness: x=0, a=0, y=2 | lhs=<error: phi at 2> rhs=null")


def test_the_unreduced_module_passes_exhaustively():
    space = module_to_space(_unreduced_module(3)).space
    # every int is a residue mod 3, so the laws hold mod 3, but nested q
    # calls take unreduced sums outside 0..2
    reports = check_space(space, Exhaustive()) + check_y_properties(space, Exhaustive())
    assert all_passed(reports)


def test_exhaustive_zmod_checks_decide_the_functor_operations():
    # each check evaluates its probes, the first tuple and the symbolic
    # pass, not the 25 * 5 * 25 argument tuples of q
    M = build("zmod-module", m=5, dim=2)
    calls = 0

    def phi(a, x):
        nonlocal calls
        calls += 1
        return M.phi(a, x)

    counted = replace(M, phi=phi)
    assert check_affine(module_to_space(counted).space, Exhaustive()).passed
    assert 0 < calls < 50
    calls = 0
    assert roundtrip_module(counted, Exhaustive()).passed
    assert 0 < calls < 50


# morphism transport

def test_identity_transports_between_zmod_structures():
    m = build("zmod-module", m=3, dim=2)
    reports = transport_morphism((lambda a: a, lambda x: x), m, m, Exhaustive())
    assert all_passed(reports)


def test_identity_transports_between_canonical_spaces():
    sp = pointed("canonical-space", n=2)
    reports = transport_morphism((lambda a: a, lambda x: x), sp, sp,
                                 Sampled(samples=150, seed=0))
    assert all_passed(reports)


def test_scaling_transports_as_a_module_morphism():
    # g doubles points; paired with the identity on scalars it is linear
    sp = pointed("canonical-space", n=1)
    reports = transport_morphism((lambda a: a, lambda x: (2 * x[0],)), sp, sp,
                                 Sampled(samples=100, seed=0))
    assert all_passed(reports)


def test_translation_is_not_a_module_morphism():
    sp = pointed("canonical-space", n=1)
    reports = transport_morphism((lambda a: a, lambda x: (x[0] + 1,)), sp, sp,
                                 Sampled(samples=100, seed=0))
    failed = {r.law for r in reports if not r.passed}
    assert "g(e)" in failed


def test_transport_rejects_a_module_paired_with_a_pointed_space():
    m = build("zmod-module")
    sp = pointed("canonical-space", n=2)
    with pytest.raises(TypeError, match="got RModule and PointedMobiSpace"):
        transport_morphism((lambda a: a, lambda x: x), m, sp, Exhaustive())


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
