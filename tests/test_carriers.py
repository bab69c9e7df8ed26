from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mobikit import (Exhaustive, Float64, GaussianRational, MobiAlgebra,
                     ModularInt, NotEnumerableError, Product, QI, Rational,
                     Restricted, Sampled, SamplingExhausted, Vector,
                     check_algebra, enumerate_elements, eq, sample, tolerance,
                     try_subtract)
from mobikit.carriers import ShapeError
from mobikit.report import assignments_for

rationals = st.fractions(max_denominator=50)


# QI arithmetic

@given(rationals, rationals, rationals, rationals)
def test_qi_add_commutes(a, b, c, d):
    assert QI(a, b) + QI(c, d) == QI(c, d) + QI(a, b)


@given(rationals, rationals, rationals, rationals)
def test_qi_mul_matches_complex(a, b, c, d):
    got = QI(a, b) * QI(c, d)
    assert got == QI(a * c - b * d, a * d + b * c)


@given(rationals, rationals)
def test_qi_div_roundtrip(a, b):
    z = QI(a, b)
    w = QI(Fraction(3, 7), Fraction(-2))
    assert z * w / w == z


def test_qi_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QI(1) / QI(0)


def test_qi_coerces_real_values():
    assert QI(Fraction(1, 2)) == Fraction(1, 2)
    assert QI(3, 0) == 3
    assert QI(3, 1) != 3
    assert hash(QI(5)) == hash(Fraction(5))


def test_qi_str():
    assert str(QI(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert str(QI(0, 1)) == "i"


def test_qi_power():
    assert QI(0, 1) ** 2 == -1


# membership and equality

def test_rational_accepts_ints_and_fractions():
    c = Rational()
    assert c.contains(Fraction(2, 3)) and c.contains(5)
    assert not c.contains(0.5)


def test_rational_eq_compares_exactly_and_rejects_non_rationals():
    c = Rational()
    assert c.eq(2, Fraction(4, 2)) and c.eq(Fraction(1, 3), Fraction(2, 6))
    assert not c.eq(Fraction(1, 3), 0)
    for bad in (True, 0.5, "1", None, QI(1)):
        with pytest.raises(ShapeError):
            c.eq(bad, 1)
        with pytest.raises(ShapeError):
            c.eq(Fraction(1), bad)


def test_qi_components_are_fractions():
    z = QI(3, Fraction(1, 2))
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (3, Fraction(1, 2))


def test_modular_eq_is_mod_m():
    c = ModularInt(5)
    assert eq(c, 7, 2) and not eq(c, 7, 3)
    assert list(enumerate_elements(c)) == [0, 1, 2, 3, 4]


def test_float64_tolerance_eq():
    c = Float64()
    assert eq(c, 1.0, 1.0 + 1e-12)
    assert not eq(c, 1.0, 1.0 + 1e-6)
    assert not c.contains(float("inf"))
    assert not c.contains(float("nan"))
    assert c.contains(1) and not c.contains(True)


def test_product_membership_and_enumeration():
    c = Product((ModularInt(2), ModularInt(3)))
    assert c.contains((1, 2)) and not c.contains((1,))
    assert len(list(enumerate_elements(c))) == 6


def test_vector_is_power_product():
    c = Vector(ModularInt(3), 2)
    assert len(list(enumerate_elements(c))) == 9
    assert c.contains((0, 2))


def test_restricted_filters_membership():
    c = Restricted(Rational(), lambda x: 0 <= x <= 1, label="unit")
    assert c.contains(Fraction(1, 2)) and not c.contains(Fraction(3, 2))


def test_restricted_can_exhaust():
    c = Restricted(Rational(), lambda x: False, label="empty")
    with pytest.raises(SamplingExhausted):
        sample(c, seed=0, n=1)


def test_restricted_sampler_draws_directly_and_is_checked():
    unit = Restricted(Rational(), lambda x: 0 <= x <= 1, label="unit",
                      sampler=lambda rng: Fraction(rng.randint(0, 4), 4))
    assert all(unit.contains(x) for x in sample(unit, seed=0, n=50))
    bad = Restricted(Rational(), lambda x: 0 <= x <= 1, label="unit",
                     sampler=lambda rng: Fraction(2))
    with pytest.raises(ValueError, match="non-member"):
        sample(bad, seed=0, n=1)


def test_infinite_carriers_refuse_enumeration():
    with pytest.raises(NotEnumerableError):
        list(enumerate_elements(Rational()))


# sampling

def test_sample_is_deterministic():
    c = Product((Rational(), Rational()))
    assert sample(c, seed=7, n=20) == sample(c, seed=7, n=20)
    assert sample(c, seed=7, n=20) != sample(c, seed=8, n=20)


def test_sample_finite_depends_on_seed():
    c = ModularInt(7)
    assert sample(c, seed=0, n=30) == sample(c, seed=0, n=30)
    assert sample(c, seed=0, n=30) != sample(c, seed=1, n=30)


def test_sampled_finite_law_reaches_every_residue_in_every_slot():
    slots = (ModularInt(7),) * 5
    assignments = list(assignments_for("A8", slots, Sampled(500)))
    assert len(assignments) == 500
    for i in range(5):
        assert {a[i] for a in assignments} == set(range(7))


def test_sampled_catches_a_perturbation_off_the_lexicographic_prefix():
    # Z/7 with p(3, 2, c) off by one for c != 3; the unit laws still hold.
    # A sampled check that only walks a prefix of the enumeration (a1 = 0,
    # b in {0, 1}) never evaluates p(3, 2, c) inside A8.
    def p(a, b, c):
        v = (a + b * c - b * a) % 7
        return (v + 1) % 7 if (a % 7, b % 7) == (3, 2) and c % 7 != 3 else v

    alg = MobiAlgebra(ModularInt(7), p, 0, 4, 1, two=2)
    for strategy in (Exhaustive(), Sampled(500)):
        failing = {r.law for r in check_algebra(alg, strategy) if not r.passed}
        assert "A8" in failing


def test_sample_members():
    for carrier in (Rational(), GaussianRational(), Float64(),
                    Vector(Rational(), 2)):
        for x in sample(carrier, seed=1, n=50):
            assert carrier.contains(x)


def test_tolerance_zero_for_exact_carriers():
    assert tolerance(Rational()) == (0.0, 0.0)
    atol, rtol = tolerance(Float64())
    assert atol > 0 and rtol > 0
    assert tolerance(Product((Rational(), Float64())))[0] > 0


# difference rendering support

def test_try_subtract():
    assert try_subtract(Fraction(3, 4), Fraction(1, 4)) == Fraction(1, 2)
    assert try_subtract((1, 2), (0, 1)) == (1, 1)
    assert try_subtract(QI(1, 1), QI(0, 1)) == QI(1, 0)
    assert try_subtract((1, 2), (1,)) is None
    assert try_subtract(2, 1) == 1
    assert try_subtract("a", "b") is None
