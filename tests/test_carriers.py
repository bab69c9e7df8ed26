import collections
import copy
import decimal
import math
import operator
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from mobikit import (Exhaustive, Float64, GaussianRational, MobiAlgebra,
                     ModularInt, NotEnumerableError, Product, QI, Rational,
                     Restricted, Sampled, SamplingExhausted, Vector, build,
                     check_algebra, enumerate_elements, sample, try_subtract)
from mobikit.carriers import (DENOMINATOR_BOUND, MODULAR, SCALAR, ShapeError, _Fraction,
                              linear_solution)
from mobikit.catalog import _draw_unit
from mobikit.dsl import _div
from mobikit.rational import _ratio
from mobikit.report import assignments_for
from mobikit.symbolic import Poly

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
    assert c.eq(7, 2) and not c.eq(7, 3)
    assert list(enumerate_elements(c)) == [0, 1, 2, 3, 4]


def test_modular_eq_fast_path_keeps_residues_and_shape_errors():
    c = ModularInt(3)
    assert c.eq(1, 4) and c.eq(-1, 2) and not c.eq(0, 4)
    for x, y in ((True, 1), (1, True), (1.0, 1), (1, Fraction(1)), ((1,), 1)):
        with pytest.raises(ShapeError):
            c.eq(x, y)


def _no_enumeration(*_):
    raise AssertionError("size() enumerated the carrier")


def test_size_is_read_from_the_parameters(monkeypatch):
    for cls in (ModularInt, Product, Restricted):
        monkeypatch.setattr(cls, "elements", _no_enumeration)
    big = ModularInt(10**18)
    assert big.size() == 10**18
    assert Vector(big, 3).size() == 10**54
    assert Product((ModularInt(2), ModularInt(3), ModularInt(5))).size() == 30
    assert Product(()).size() == 1
    # the base's size bounds the members' count; member is never asked
    assert Restricted(Vector(ModularInt(4), 2), _no_enumeration).size() == 16


def test_infinite_carriers_have_no_size():
    for c in (Rational(), Float64(), GaussianRational(),
              Product((ModularInt(3), Rational())),
              Restricted(Rational(), lambda x: 0 <= x <= 1)):
        assert c.size() is None, c


def test_float64_tolerance_eq():
    c = Float64()
    assert c.eq(1.0, 1.0 + 1e-12)
    assert not c.eq(1.0, 1.0 + 1e-6)
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


# difference rendering support

def test_try_subtract():
    assert try_subtract(Fraction(3, 4), Fraction(1, 4)) == Fraction(1, 2)
    assert try_subtract((1, 2), (0, 1)) == (1, 1)
    assert try_subtract(QI(1, 1), QI(0, 1)) == QI(1, 0)
    assert try_subtract((1, 2), (1,)) is None
    assert try_subtract(2, 1) == 1
    assert try_subtract("a", "b") is None


# the exact-rational kernel: a Fraction subclass with fast paths, checked
# against Fraction on the same values

def _plain(x):
    return Fraction(x) if type(x) is _Fraction else x


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # the exception itself is part of the outcome
        return None, (type(exc), str(exc))


def _assert_same(got, want):
    (value, error), (ref, ref_error) = got, want
    assert error == ref_error
    if ref_error is not None:
        return
    assert type(ref) in (bool, float, complex, Fraction), ref
    if type(ref) is Fraction:
        assert isinstance(value, Fraction)
        assert value.denominator > 0
        assert math.gcd(value.numerator, value.denominator) == 1
    else:
        assert type(value) is type(ref)
    assert value == ref
    assert str(value) == str(ref)
    assert hash(value) == hash(ref)


kernels = st.fractions(max_denominator=10 ** 6).map(_Fraction)
operands = st.one_of(
    kernels, st.fractions(max_denominator=10 ** 6),
    st.integers(-10 ** 12, 10 ** 12), st.integers(-2 ** 200, 2 ** 200),
    st.just(2 ** 64), st.just(-2 ** 64 - 1), st.just(0), st.just(_Fraction(0)),
    st.just(Fraction(0)), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300,
              max_value=1e300),
    st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e300),
    st.decimals(-10 ** 12, 10 ** 12, allow_nan=False, allow_infinity=False))
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv,
          operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
          operator.ge)


@settings(max_examples=400, deadline=None)
@given(k=kernels, other=operands)
def test_kernel_binary_operations_match_fraction(k, other):
    for op in BINARY:
        _assert_same(_outcome(op, k, other), _outcome(op, _plain(k), _plain(other)))
        _assert_same(_outcome(op, other, k), _outcome(op, _plain(other), _plain(k)))


@settings(max_examples=200, deadline=None)
@given(k=st.one_of(kernels, st.just(_Fraction(0))),
       exponent=st.one_of(st.integers(-6, 6), st.booleans()))
def test_kernel_unary_operations_and_powers_match_fraction(k, exponent):
    for op in (operator.neg, abs):
        _assert_same(_outcome(op, k), _outcome(op, _plain(k)))
    _assert_same(_outcome(operator.pow, k, exponent),
                 _outcome(operator.pow, _plain(k), exponent))


def test_kernel_division_by_zero_raises_what_fraction_raises():
    for k in (_Fraction(3, 4), _Fraction(-5, 2), _Fraction(0)):
        for zero in (0, Fraction(0), _Fraction(0)):
            _assert_same(_outcome(operator.truediv, k, zero),
                         _outcome(operator.truediv, _plain(k), _plain(zero)))
        for power in (-1, -3):
            _assert_same(_outcome(operator.pow, _Fraction(0), power),
                         _outcome(operator.pow, Fraction(0), power))
    _, error = _outcome(operator.truediv, _Fraction(3, 4), 0)
    assert error[0] is ZeroDivisionError


def test_kernel_reflected_division_by_zero_raises_what_fraction_raises():
    for other in (3, -1, 0, 2 ** 70, Fraction(3, 4), Fraction(0), True, 0.5, 1j):
        _assert_same(_outcome(operator.truediv, other, _Fraction(0)),
                     _outcome(operator.truediv, other, Fraction(0)))


ratio_ints = st.one_of(st.integers(-12, 12), st.integers(-2 ** 80, 2 ** 80))


@settings(max_examples=400, deadline=None)
@given(n=ratio_ints, d=ratio_ints)
@example(n=0, d=5)
@example(n=0, d=-5)
@example(n=6, d=-4)
@example(n=-6, d=-4)
@example(n=7, d=0)
@example(n=-7, d=0)
@example(n=0, d=0)
def test_ratio_of_two_ints_is_their_fraction(n, d):
    # _ratio and the dsl's int / int build Fraction(n, d) without its
    # parsing: the same reduced value on the kernel, or the same error
    want = _outcome(Fraction, n, d)
    for build in (_ratio, _div):
        got = _outcome(build, n, d)
        _assert_same(got, want)
        assert got[1] is not None or type(got[0]) is _Fraction


def test_ratio_of_bools_is_their_fraction():
    for n, d in ((True, 2), (-3, True), (False, 5), (True, False)):
        _assert_same(_outcome(_div, n, d), _outcome(Fraction, n, d))


class _Reflected:
    """An unknown type whose reflected operations report their name."""

    def __radd__(self, other):
        return ("radd", other)

    def __rsub__(self, other):
        return ("rsub", other)

    def __rmul__(self, other):
        return ("rmul", other)

    def __rtruediv__(self, other):
        return ("rtruediv", other)


def test_kernel_defers_other_types_as_fraction_does():
    probe = _Reflected()
    cases = (lambda h: h + QI(1, 1), lambda h: QI(1, 1) - h, lambda h: h * QI(0, 2),
             lambda h: QI(1, 1) / h, lambda h: h + object(), lambda h: object() - h,
             lambda h: h < object(), lambda h: h / decimal.Decimal(2),
             lambda h: 1j - h, lambda h: h >= 1j, lambda h: h + probe,
             lambda h: h - probe, lambda h: h * probe, lambda h: h / probe,
             lambda h: probe - h)
    for case in cases:
        (got, error), (want, ref_error) = (_outcome(case, _Fraction(1, 2)),
                                           _outcome(case, Fraction(1, 2)))
        assert error == ref_error
        assert type(got) is type(want) and got == want and repr(got) == repr(want)
    assert str(_outcome(lambda: _Fraction(1, 2) + object())[1][1]) == (
        "unsupported operand type(s) for +: 'Fraction' and 'object'")


def test_kernel_results_stay_on_the_kernel():
    k = _Fraction(3, 4)
    for value in (k + 1, 1 + k, k - Fraction(1, 3), Fraction(1, 3) - k, k * 2,
                  Fraction(2) * k, k / 3, 3 / k, -k, abs(-k), k ** -2):
        assert type(value) is _Fraction
    assert type(k + 0.5) is float and type(k + True) is Fraction
    assert type(QI(k, 1).re) is _Fraction and type(QI(k, 1).im) is Fraction


@given(k=kernels)
def test_kernel_repr_copy_and_pickle_round_trip(k):
    assert repr(k) == repr(Fraction(k))
    assert eval(repr(k)) == k
    for clone in (copy.copy(k), copy.deepcopy(k), pickle.loads(pickle.dumps(k))):
        assert type(clone) is _Fraction
        assert clone == k and hash(clone) == hash(k) and str(clone) == str(k)


# draws: the values and RNG states of the rng.randint formulas they replace

def _between(rng, lo, hi):
    d = rng.randint(1, DENOMINATOR_BOUND)
    return Fraction(rng.randint(max(math.ceil(lo * d), -12), min(math.floor(hi * d), 12)), d)


def _lozenge(rng, sqrt_k=1):
    a1 = _between(rng, 0, 1)
    r = min(a1, 1 - a1) / sqrt_k
    return (a1, _between(rng, -r, r))


def _halfplane(rng, n=1):
    head = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(n))
    return head + (Fraction(rng.randint(1, 12), rng.randint(1, 8)),)


def _randint_fraction(rng, bound=12):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, DENOMINATOR_BOUND))


def _qi_parts(z):
    assert type(z) is QI
    return (z.re, z.im)


def _flatten(v):
    return sum((_flatten(c) for c in v), ()) if isinstance(v, tuple) else (v,)


NESTED = Product((Rational(), Product((Vector(Rational(), 2), Rational()))))


DRAW_PAIRS = {
    "unit": (_draw_unit, lambda rng: _between(rng, 0, 1)),
    "lozenge": (build("lozenge-algebra").carrier.sampler, _lozenge),
    "half-plane": (build("halfplane-space").points.sampler, _halfplane),
    "Rational": (Rational().draw, _randint_fraction),
    "GaussianRational": (lambda rng: _qi_parts(GaussianRational().draw(rng)),
                         lambda rng: (_randint_fraction(rng), _randint_fraction(rng))),
    "nested Product": (lambda rng: _flatten(NESTED.draw(rng)),
                       lambda rng: tuple(_randint_fraction(rng) for _ in range(4))),
}


@pytest.mark.parametrize("name", sorted(DRAW_PAIRS))
def test_draws_reproduce_the_randint_stream(name):
    draw, reference = DRAW_PAIRS[name]
    for seed in range(200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(5):
            got, want = draw(rng), reference(ref_rng)
            assert got == want, (name, seed)
            for v in got if isinstance(got, tuple) else (got,):
                assert type(v) is _Fraction
        assert rng.random() == ref_rng.random(), (name, seed)


CATALOG_SAMPLERS = {
    **{f"lozenge sqrt_k={k}": (lambda k=k: build("lozenge-algebra", {"sqrt_k": k}).carrier,
                               lambda rng, k=k: _lozenge(rng, Fraction(k)))
       for k in ("1", "1/3", "1/2", "3/4", "2", "5/7", "9")},
    **{f"half-plane n={n}": (lambda n=n: build("halfplane-space", n=n).points,
                             lambda rng, n=n: _halfplane(rng, n))
       for n in (1, 2, 3)},
    "unit interval": (lambda: build("canonical-interval-algebra").carrier,
                      lambda rng: _between(rng, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(CATALOG_SAMPLERS))
def test_catalog_samplers_reproduce_the_randint_stream(name):
    """Each sampler, through its carrier, gives the values of its rng.randint
    formula and leaves the RNG in the same state."""
    carrier, reference = CATALOG_SAMPLERS[name]
    draw = carrier().draw
    for seed in range(100):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(10):
            got, want = draw(rng), reference(ref_rng)
            assert got == want and all(type(v) is _Fraction for v in _flatten(got)), (name, seed)
            assert rng.getstate() == ref_rng.getstate(), (name, seed)


def _positive_by_rejection(rng):
    while True:
        x = _randint_fraction(rng)
        if x > 0:
            return x


# five slots: a draw function of each kind, a sampler, and rejection sampling
MIXED = Product((Rational(), GaussianRational(), Float64(span=2),
                 Restricted(Rational(), lambda x: 0 <= x <= 1, sampler=_draw_unit),
                 Product((Restricted(Rational(), lambda x: x > 0), ModularInt(7)))))


def _mixed(rng):
    return (_randint_fraction(rng), QI(_randint_fraction(rng), _randint_fraction(rng)),
            float(_randint_fraction(rng, 2)), _between(rng, 0, 1),
            (_positive_by_rejection(rng), rng.randrange(7)))


def _assert_kernel_types(v):
    """Rationals are _Fraction, also inside QI; floats and residues keep their type."""
    if isinstance(v, tuple):
        for c in v:
            _assert_kernel_types(c)
    elif isinstance(v, QI):
        assert type(v.re) is _Fraction and type(v.im) is _Fraction
    else:
        assert type(v) in (_Fraction, float, int), v


MIXED_DRAW_PAIRS = {
    "Float64 span 2": (Float64(span=2).draw, lambda rng: float(_randint_fraction(rng, 2))),
    "Float64 span 8": (Float64(span=8).draw, lambda rng: float(_randint_fraction(rng, 8))),
    "Float64 span 20": (Float64(span=20).draw, lambda rng: float(_randint_fraction(rng, 20))),
    "5-slot Product": (MIXED.draw, _mixed),
}


@pytest.mark.parametrize("name", sorted(MIXED_DRAW_PAIRS))
def test_mixed_draws_reproduce_the_randint_stream(name):
    draw, reference = MIXED_DRAW_PAIRS[name]
    for seed in range(200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(5):
            got, want = draw(rng), reference(ref_rng)
            assert got == want and type(got) is type(want), (name, seed)
            _assert_kernel_types(got)
        assert rng.random() == ref_rng.random(), (name, seed)


def test_a_negative_float_span_is_refused_when_the_carrier_is_built():
    with pytest.raises(ValueError, match="span must be >= 0"):
        Float64(span=-1)
    assert Float64(span=0).draw(random.Random(0)) == 0.0


def test_sample_draws_the_same_stream_as_draw():
    for seed in range(50):
        ref_rng = random.Random(seed)
        assert sample(MIXED, seed, 8) == [_mixed(ref_rng) for _ in range(8)]
        rng = random.Random(seed)
        assert sample(MIXED, seed, 8) == [MIXED.draw(rng) for _ in range(8)]


def test_copies_and_pickles_of_carriers_draw_the_same_stream():
    for c in (Rational(), Float64(span=2), ModularInt(7), NESTED):
        for clone in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert clone == c
            assert sample(clone, 3, 20) == sample(c, 3, 20)


def test_a_sampler_in_a_product_is_still_checked():
    bad = Product((Rational(), Restricted(Rational(), lambda x: x > 0,
                                          sampler=lambda rng: Fraction(-1))))
    with pytest.raises(ValueError, match="drew non-member"):
        sample(bad, 0, 1)
    never = Product((Restricted(Rational(), lambda x: False),))
    with pytest.raises(SamplingExhausted):
        never.draw(random.Random(0))


# exact-type fast paths: the same answers and exceptions as the general paths

def test_product_eq_and_contains_check_shapes_as_before():
    c = Product((Rational(), Vector(Rational(), 2)))
    good = (Fraction(1), (Fraction(1), Fraction(2)))
    for bad in ([Fraction(1), (Fraction(1), Fraction(2))],  # a list
                (Fraction(1),), good + (Fraction(3),),      # wrong lengths
                (Fraction(1), [Fraction(1), Fraction(2)]),  # a nested list
                (Fraction(1), Fraction(1))):                # a nested scalar
        assert c.contains(bad) is False
        for x, y in ((bad, good), (good, bad)):
            with pytest.raises(ShapeError):
                c.eq(x, y)
    # the outer shapes are checked before any part; a nested one only when reached
    with pytest.raises(ShapeError, match=r"got \[1\]"):
        c.eq((Fraction(2), (Fraction(1), Fraction(2))), [1])
    assert c.eq((Fraction(2), [1]), good) is False
    assert c.eq(good, good) is True and c.contains(good) is True
    Point = collections.namedtuple("Point", "x y")
    v = Vector(Rational(), 2)
    assert v.eq(Point(1, 2), (1, 2)) and v.contains(Point(1, 2))


def test_rational_and_gaussian_fast_paths_agree_with_the_general_ones():
    r, g = Rational(), GaussianRational()
    half, k = Fraction(1, 2), _Fraction(1, 2)
    assert r.eq(k, _Fraction(2, 4)) and r.eq(k, half) and r.eq(half, k)
    assert not r.eq(k, _Fraction(1, 3)) and r.eq(_Fraction(2), 2)
    assert r.contains(k) and not r.contains(True)
    assert g.eq(QI(k, 1), QI(half, 1)) and not g.eq(QI(k, 1), QI(k, -1))
    assert g.eq(QI(2), 2) and g.eq(k, QI(half)) and not g.eq(QI(k, 1), k)
    with pytest.raises(ShapeError):
        g.eq(QI(1), True)


def _ref_pair(v):
    """A QI, int or Fraction as a pair of plain Fractions."""
    return (Fraction(v.re), Fraction(v.im)) if isinstance(v, QI) else (Fraction(v), Fraction(0))


def _ref_div(a, b, c, d):
    norm = c * c + d * d
    return ((a * c + b * d) / norm, (b * c - a * d) / norm)


QI_REFERENCE = {
    operator.add: lambda a, b, c, d: (a + c, b + d),
    operator.sub: lambda a, b, c, d: (a - c, b - d),
    operator.mul: lambda a, b, c, d: (a * c - b * d, a * d + b * c),
    operator.truediv: _ref_div,
}
small = st.fractions(max_denominator=30, min_value=-30, max_value=30)
gaussians = st.one_of(st.builds(QI, small, small),
                      st.builds(QI, small.map(_Fraction), small.map(_Fraction)),
                      st.builds(QI, st.integers(-3, 3), st.integers(-3, 3)))
qi_operands = st.one_of(gaussians, st.integers(-30, 30), small, small.map(_Fraction))


@settings(max_examples=300, deadline=None)
@given(z=gaussians, w=qi_operands)
def test_qi_arithmetic_matches_fraction_pairs(z, w):
    for op, ref in QI_REFERENCE.items():
        for x, y in ((z, w), (w, z)):
            c, d = _ref_pair(y)
            if op is operator.truediv and c == d == 0:
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            got = op(x, y)
            assert type(got) is QI
            assert isinstance(got.re, Fraction) and isinstance(got.im, Fraction)
            assert (got.re, got.im) == ref(*_ref_pair(x), c, d)
    same = _ref_pair(z) == _ref_pair(w)
    assert (z == w) is same and (w == z) is same and (z != w) is not same


def test_qi_rejects_bools_and_zero_divisors():
    z = QI(1, 2)
    for op in QI_REFERENCE:
        for x, y in ((z, True), (False, z)):
            with pytest.raises(ShapeError):
                op(x, y)
    for zero in (QI(0), QI(_Fraction(0), _Fraction(0)), 0, Fraction(0), _Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            z / zero
    with pytest.raises(ZeroDivisionError):
        1 / QI(0, 0)
    assert type(QI.coerce(_Fraction(1, 2)).re) is _Fraction
    assert QI.coerce(_Fraction(1, 2)) == QI(Fraction(1, 2))


def test_dsl_questions_are_carrier_methods():
    mixed = Product((Float64(), GaussianRational()))
    coerced = mixed.coerce((1, Fraction(1, 2)))
    assert coerced == (1.0, QI(Fraction(1, 2)))
    assert type(coerced[0]) is float and type(coerced[1]) is QI
    assert Restricted(mixed, lambda v: True).coerce((Fraction(3, 2), 2)) == (1.5, QI(2))
    assert mixed.coerce((1, 2, 3)) == (1, 2, 3)  # a wrong length is left alone
    # no 1-tuple literal exists, so a scalar is the point of a one-part product
    assert Vector(Float64(), 1).coerce(1) == (1.0,) and mixed.coerce(1) == 1
    assert Rational().coerce(1) == 1 and ModularInt(5).coerce(7) == 7
    nested = Product((Vector(Rational(), 2), ModularInt(3)))
    assert nested.shape() == ((SCALAR, SCALAR), MODULAR)
    assert Restricted(Rational(), lambda v: True).shape() == SCALAR
    assert mixed.atom_names() == {"R64", "QI"}
    assert Restricted(nested, lambda v: True).atom_names() == {"Q", "Zmod"}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize("carrier, x, y, message", [
    (Rational(), QI(10 ** 5000, 1), 0, "expected a rational, got QI({huge}, 1)"),
    (ModularInt(5), Fraction(10 ** 5000, 3), 2,
     "expected ints mod 5, got Fraction({huge}, 3), 2"),
    (GaussianRational(), (10 ** 5000, True), 0,
     "expected a Gaussian rational, got ({huge}, True)"),
    (Float64(), (10 ** 5000,), 1, "expected scalars, got ({huge},), 1"),
    (Vector(Rational(), 2), -10 ** 5000, (1, 2), "expected a 2-tuple for Q x Q, got -{huge}"),
], ids=["Q", "Z/5", "Q[i]", "R64", "Q^2"])
def test_a_shape_error_names_a_value_past_the_digit_limit_by_its_digit_count(
        carrier, x, y, message):
    # as render_rational does, where repr() would raise ValueError
    with pytest.raises(ShapeError) as raised:
        carrier.eq(x, y)
    assert str(raised.value) == message.format(huge="10000000000000000000...(5001 digits)")


def test_linear_solution_answers_only_a_unique_solution():
    x, y, z = (Poly({(i,): 1}) for i in range(3))
    half = Fraction(1, 2)
    # (x + y)/2 = 3, (x - y)/2 = z: x = 3 + z, y = 3 - z, the right sides kept as polynomials
    solved = linear_solution([((x + y) * half, 3), ((x - y) * half, z)], {0, 1})
    assert {v: p.terms for v, p in solved.items()} == {0: {(): 3, (2,): 1}, 1: {(): 3, (2,): -1}}
    assert linear_solution([(x + y + 1, 0), (x - y, 4)], {0, 1}) == {0: Fraction(3, 2),
                                                                   1: Fraction(-5, 2)}
    for equations, why in [
            ([(x + y, 1), (2 * x + 2 * y, 2)], "singular: y is free"),
            ([(x + y, 1), (2 * x + 2 * y, 3)], "no solution"),
            ([(x, 1)], "y is free"),
            ([(x + z, 1), (y, 2)], "z is not an unknown"),
            ([(x * y, 1), (y, 2)], "not linear")]:
        assert linear_solution(equations, {0, 1}) is None, why
