from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from mobikit import (AmbiguousTwoError, Exhaustive, MobiAlgebra, ModularInt,
                     NoHalfError, Rational, Restricted, RingWithHalf, Sampled,
                     algebra_from_ring, all_passed, build, check_algebra,
                     check_algebra_morphism, check_commutativity_condition,
                     check_properties, circ, complement, oplus, product,
                     ring_from_algebra, sample, solve_two)
from mobikit import algebra as algebra_module
from mobikit.carriers import NotEnumerableError
from mobikit.report import assignments_for, law_seed

rationals = st.fractions(max_denominator=30)


def line():
    return build("rational-line-algebra")


# the canonical operation on the rational line, directly

@given(rationals, rationals, rationals)
def test_line_p_is_a_plus_b_times_c_minus_a(a, b, c):
    assert line().p(a, b, c) == a + b * (c - a)


@given(rationals, rationals, rationals, rationals, rationals)
def test_line_satisfies_the_five_variable_laws(a, b1, b2, b3, c):
    alg = line()
    p = alg.p
    assert p(a, p(b1, b2, b3), c) == p(p(a, b1, c), b2, p(a, b3, c))
    a1, c1, a2, c2 = b1, b2, b3, c
    h = alg.half
    assert (p(p(a1, a, c1), h, p(a2, a, c2))
            == p(p(a1, h, a2), a, p(c1, h, c2)))


# derived operations

def test_derived_operations_on_the_line():
    alg = line()
    assert complement(alg, F(1, 4)) == F(3, 4)
    assert product(alg, F(1, 2), F(1, 3)) == F(1, 6)
    assert oplus(alg, F(1), F(0)) == F(1, 2)
    assert circ(alg, F(1, 2), F(1, 2)) == F(3, 4)


def test_complement_mod_five():
    alg = build("zmod-algebra", m=5)
    assert complement(alg, 3) == 3  # 1 - 3 = -2 = 3 mod 5


# law checking

def test_zmod3_passes_exhaustively():
    reports = check_algebra(build("zmod-algebra", m=3), Exhaustive())
    assert all_passed(reports)
    assert [r.law for r in reports] == [
        "A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8"]


def test_properties_on_the_line():
    reports = check_properties(line(), Sampled(samples=150, seed=0))
    assert all_passed(reports)
    assert [r.law for r in reports] == [f"eq({k})" for k in range(6, 15)]


def test_broken_half_is_caught():
    alg = MobiAlgebra(Rational(), lambda a, b, c: a + b * (c - a),
                      F(0), F(1, 3), F(1))
    reports = check_algebra(alg, Sampled(samples=50, seed=0))
    failed = {r.law for r in reports if not r.passed}
    assert "A1" in failed


def test_cancellation_failure_carries_witness():
    # constant p kills A6
    alg = MobiAlgebra(ModularInt(3), lambda a, b, c: 0, 0, 2, 1)
    reports = {r.law: r for r in check_algebra(alg, Exhaustive())}
    assert not reports["A6"].passed
    assert reports["A6"].witness is not None


# doubler solving

def test_solve_two_declared_and_found():
    assert solve_two(line()).status == "declared"
    undeclared = MobiAlgebra(ModularInt(5),
                             lambda a, b, c: (a + b * c - b * a) % 5,
                             0, 3, 1)
    result = solve_two(undeclared)
    assert result.status == "found" and result.value == 2


def test_solve_two_absent_on_the_interval():
    # p(0, 1/2, x) = x/2 = 1 has the one solution 2, outside [0, 1]
    result = solve_two(build("canonical-interval-algebra"))
    assert result.value is None
    assert result.status == "proven-absent"


def test_solve_two_absent_in_the_lozenge():
    # p(0, 1/2, x) = (x1/2, x2/2) = (1, 0) has the one solution (2, 0), which
    # lies outside the lozenge at every sqrt_k
    for sqrt_k in ("1/2", "1", "3"):
        result = solve_two(build("lozenge-algebra", sqrt_k=sqrt_k), Sampled(1, 0))
        assert (result.value, result.status) == (None, "proven-absent")


RUNS = [(1, 0), (1, 5), (5, 3), (40, 7), (500, 0), (500, 11)]


@pytest.mark.parametrize("samples, seed", RUNS)
def test_solve_two_finds_the_lines_doubler_on_symbols(samples, seed, monkeypatch):
    # x/2 = 1 is solved once on the line's symbol, under every strategy,
    # without a draw: so even Sampled(1, 0), whose one draw misses 2, finds it
    monkeypatch.setattr(algebra_module, "assignments_for", None)
    undeclared = replace(line(), two=None)
    for strategy in (Sampled(samples, seed), Exhaustive()):
        result = solve_two(undeclared, strategy)
        assert (result.value, result.status) == (2, "found")
        assert type(result.value) is type(undeclared.half)  # as a draw's


def without_symbol(alg):
    """alg over a carrier with no symbol: a restriction of its own carrier
    by a predicate that every element meets, with no sampler, which draws
    the same stream as the carrier itself."""
    return replace(alg, carrier=Restricted(alg.carrier, lambda x: True), two=None)


def _sampled_two(alg, samples, seed):
    """The first doubler among `samples` draws of the carrier itself at the
    per-law seed of "solve-two", as (value, status)."""
    for x in sample(alg.carrier, law_seed(seed, "solve-two"), samples):
        if alg.carrier.eq(alg.p(alg.zero, alg.half, x), alg.one):
            return x, "found"
    return None, "absent-after-search"


@pytest.mark.parametrize("name", ["rational-line-algebra",
                                  "canonical-interval-algebra"])
def test_solve_two_draws_the_sampled_stream_through_assignments_for(name, monkeypatch):
    # a carrier with a symbol is solved on it (above); this one has none
    alg = without_symbol(build(name))
    assert alg.carrier.symbol(lambda *args: None) is None
    assert sample(alg.carrier, 3, 40) == sample(build(name).carrier, 3, 40)
    calls = []

    def recording(law, slots, strategy, construct=None):
        calls.append((law, slots, strategy))
        return assignments_for(law, slots, strategy, construct)

    monkeypatch.setattr(algebra_module, "assignments_for", recording)
    statuses = set()
    for samples, seed in RUNS:
        result = solve_two(alg, Sampled(samples, seed))
        assert (result.value, result.status) == _sampled_two(alg, samples, seed)
        statuses.add(result.status)
    assert calls == [("solve-two", (alg.carrier,), Sampled(n, s)) for n, s in RUNS]
    # the line's doubler is 2: the small runs miss it and the large ones find it
    want = ({"found", "absent-after-search"} if name == "rational-line-algebra"
            else {"absent-after-search"})
    assert statuses == want


def test_solve_two_exhaustive_on_an_infinite_carrier_is_not_enumerable():
    undeclared = without_symbol(line())
    with pytest.raises(NotEnumerableError):
        solve_two(undeclared, Exhaustive())
    # a declared doubler needs no search
    assert solve_two(line(), Exhaustive()).status == "declared"


def test_solve_two_rejects_bad_declaration():
    from mobikit import CarrierError
    alg = MobiAlgebra(ModularInt(3), lambda a, b, c: (a + b * c - b * a) % 3,
                      0, 2, 1, two=1)
    with pytest.raises(CarrierError):
        solve_two(alg)


def test_solve_two_ambiguous():
    # p(0, half, x) is constant one, so every x doubles
    alg = MobiAlgebra(ModularInt(3), lambda a, b, c: 1 if b == 2 else a,
                      0, 2, 1)
    with pytest.raises(AmbiguousTwoError, match=r"^multiple doublers found: \(0, 1, 2\)$"):
        solve_two(alg)


# ring passage, both directions

def test_ring_from_zmod3():
    ring = ring_from_algebra(build("zmod-algebra", m=3))
    assert ring.add(1, 2) % 3 == 0
    assert ring.mul(2, 2) % 3 == 1
    assert ring.neg(1) % 3 == 2
    assert ring.two % 3 == 2


@given(rationals, rationals, rationals)
def test_algebra_from_rational_ring_is_canonical(a, b, c):
    ring = RingWithHalf(Rational(), lambda x, y: x + y, lambda x, y: x * y,
                        lambda x: -x, F(0), F(1), F(1, 2))
    alg = algebra_from_ring(ring)
    assert alg.p(a, b, c) == a + b * c - b * a


def test_algebra_from_ring_requires_half():
    bad = RingWithHalf(Rational(), lambda x, y: x + y, lambda x, y: x * y,
                       lambda x: -x, F(0), F(1), F(1, 3))
    with pytest.raises(NoHalfError, match=r"^the ring on Q: half \+ half != one$"):
        algebra_from_ring(bad)


@given(rationals, rationals, rationals)
def test_round_trip_through_the_ring(a, b, c):
    alg = line()
    ring = ring_from_algebra(alg)
    back = algebra_from_ring(ring)
    assert back.p(a, b, c) == alg.p(a, b, c)


# commutativity of the induced product

def test_commutativity_condition():
    assert check_commutativity_condition(
        build("zmod-algebra", m=5), Exhaustive()).passed
    report = check_commutativity_condition(
        build("tri-algebra"), Sampled(samples=400, seed=0))
    assert not report.passed and report.witness is not None


# morphisms

def interval_target():
    carrier = Restricted(Rational(), lambda x: -1 <= x <= 5,
                         label="-1 <= t <= 5")
    return MobiAlgebra(carrier,
                       lambda a, b, c: (c + 5 * a) / 6 + b * (c - a) / 6,
                       F(-1), F(2), F(5))


def test_affine_map_is_a_morphism():
    reports = check_algebra_morphism(lambda t: 6 * t - 1,
                                     build("canonical-interval-algebra"),
                                     interval_target(),
                                     Sampled(samples=200, seed=0))
    assert all_passed(reports)
    assert [r.law for r in reports] == [
        "f(0)", "f(half)", "f(1)", "f(p)", "half-iff-ends"]


def test_constants_equivalence_for_p_preserving_maps():
    # constant maps preserve p but fix no constant; the ends-iff-half
    # equivalence still holds with both sides false
    alg = line()
    reports = {r.law: r for r in check_algebra_morphism(
        lambda t: F(7), alg, alg, Sampled(samples=100, seed=0))}
    assert reports["f(p)"].passed
    assert not reports["f(0)"].passed
    assert not reports["f(half)"].passed
    assert not reports["f(1)"].passed
    assert reports["half-iff-ends"].passed


def test_non_p_preserving_map_skips_the_equivalence():
    alg = line()
    reports = check_algebra_morphism(lambda t: t * t, alg, alg,
                                     Sampled(samples=100, seed=0))
    laws = [r.law for r in reports]
    assert "half-iff-ends" not in laws
    assert not all_passed(reports)
