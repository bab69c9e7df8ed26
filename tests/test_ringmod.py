from fractions import Fraction as F

from mobikit import (Exhaustive, ModularInt, RModule, Rational, RingWithHalf,
                     Sampled, all_passed, build, check_module, check_ring,
                     check_ring_commutativity)


def rational_ring():
    return RingWithHalf(Rational(), lambda a, b: a + b, lambda a, b: a * b,
                        lambda a: -a, F(0), F(1), F(1, 2))


def test_ring_two_is_one_plus_one():
    assert rational_ring().two == F(2)
    ring = rational_ring()
    assert ring.add(F(5), ring.neg(F(3))) == F(2)


def test_rational_ring_laws():
    assert all_passed(check_ring(rational_ring(), Sampled(samples=120, seed=0)))


def test_ring_law_ids():
    reports = check_ring(rational_ring(), Sampled(samples=30, seed=0))
    assert [r.law for r in reports] == [
        "add-assoc", "add-comm", "add-zero", "add-neg", "half-plus-half",
        "mul-assoc", "mul-one-left", "mul-one-right", "dist-left",
        "dist-right"]


def test_zmod_ring_exhaustive():
    ring = build("zmod-module", m=5, dim=1).ring
    assert all_passed(check_ring(ring, Exhaustive()))


def test_wrong_half_fails():
    ring = RingWithHalf(ModularInt(5), lambda a, b: (a + b) % 5,
                        lambda a, b: (a * b) % 5, lambda a: (-a) % 5, 0, 1, 2)
    reports = {r.law: r for r in check_ring(ring, Exhaustive())}
    assert not reports["half-plus-half"].passed


def test_commutativity_check_is_separate():
    ring = build("tri-module").ring
    reports = check_ring(ring, Sampled(samples=150, seed=0))
    assert all_passed(reports)  # the laws do not include mul-comm
    assert not check_ring_commutativity(ring, Sampled(samples=300, seed=0)).passed
    assert check_ring_commutativity(rational_ring(),
                                    Sampled(samples=100, seed=0)).passed


# modules

def test_module_laws_all_pass():
    for name in ("canonical-module", "zmod-module", "projectile-module",
                 "plane-module", "tri-module"):
        module = build(name)
        strat = Exhaustive() if name == "zmod-module" else Sampled(120, 0)
        assert all_passed(check_module(module, strat)), name


def test_module_law_ids():
    reports = check_module(build("canonical-module"), Sampled(samples=30, seed=0))
    assert [r.law for r in reports] == [
        "add-assoc", "add-comm", "add-zero", "add-neg", "phi-add",
        "phi-ring-add", "phi-ring-mul", "phi-one", "phi-zero"]


def test_projectile_module_operations():
    m = build("projectile-module")
    assert m.add((F(1), F(2)), (F(3), F(4))) == (F(1) + F(3) - 2 * F(2) * F(4),
                                                 F(6))
    assert m.phi(F(1, 2), (F(4), F(2))) == (F(3), F(1))
    assert m.neg((F(1), F(3))) == (-F(1) - 2 * F(9), -F(3))


def test_phi_scaling_by_ring_constants():
    m = build("plane-module", k=F(-1))
    x = (F(3), F(4))
    assert m.phi(m.ring.one, x) == x
    assert m.phi(m.ring.zero, x) == m.zero
    # multiplication by h with h^2 = -1 rotates
    assert m.phi((F(0), F(1)), x) == (-F(4), F(3))


def test_broken_scalar_action_fails():
    m = build("canonical-module", n=1)
    broken = RModule(m.ring, m.points, m.add, m.zero,
                     phi=lambda a, x: (a * x[0] + 1,), neg=m.neg)
    reports = {r.law: r for r in check_module(broken, Sampled(60, 0))}
    assert not reports["phi-one"].passed
    assert reports["phi-one"].witness is not None
