from fractions import Fraction as F
from pathlib import Path

import pytest

from mobikit import (QI, DslError, MobiAlgebra, MobiSpace, Sampled,
                     SamplingExhausted, all_passed, build, check_algebra,
                     check_space, load, parse, parse_value, print_definitions,
                     sample)

GOLDEN = Path(__file__).parent / "data" / "projectile.mobi"


def test_parse_print_parse_is_stable():
    text = GOLDEN.read_text()
    items = parse(text)
    printed = print_definitions(items)
    assert parse(printed) == items
    assert print_definitions(parse(printed)) == printed


def test_golden_file_elaborates_to_working_objects():
    defs = load(GOLDEN.read_text())
    assert set(defs) == {"line", "projectile"}
    assert isinstance(defs["line"], MobiAlgebra)
    assert isinstance(defs["projectile"], MobiSpace)
    strategy = Sampled(samples=120, seed=0)
    assert all_passed(check_algebra(defs["line"], strategy))
    assert all_passed(check_space(defs["projectile"], strategy))


def test_golden_space_matches_the_catalog_entry():
    space = load(GOLDEN.read_text())["projectile"]
    catalog = build("projectile-space")
    rng_points = sample(catalog.points, seed=7, n=200)
    rng_scalars = sample(catalog.algebra.carrier, seed=8, n=200)
    for x, a, y in zip(rng_points, rng_scalars, reversed(rng_points)):
        assert space.q(x, a, y) == catalog.q(x, a, y)


def test_space_can_resolve_over_from_the_catalog():
    defs = load(
        "space slide over canonical_interval_algebra {\n"
        "  carrier: Q\n"
        "  q(x, a, y) = x + a*(y - x)\n"
        "}\n")
    space = defs["slide"]
    assert space.algebra.name == "canonical-interval-algebra"
    assert space.q(F(0), F(1, 2), F(1)) == F(1, 2)


def test_param_default_and_where_clause():
    defs = load(
        "algebra window {\n"
        "  carrier: Q where v >= 0\n"
        "  zero: 0\n"
        "  half: 1/2\n"
        "  one: 1\n"
        "  p(a, b, c) = a + b*(c - a)\n"
        "}\n")
    carrier = defs["window"].carrier
    assert carrier.contains(F(3, 4)) and not carrier.contains(F(-1, 4))


def test_vector_where_clause_names_components():
    defs = load(
        "space cone over line {\n"
        "  carrier: Q^2 where v1 >= v2\n"
        "  q((x, s), a, (y, t)) = (x + a*(y - x), s + a*(t - s))\n"
        "}\n"
        "algebra line {\n"
        "  carrier: Q\n"
        "  zero: 0\n"
        "  half: 1/2\n"
        "  one: 1\n"
        "  p(a, b, c) = a + b*(c - a)\n"
        "}\n")
    points = defs["cone"].points
    assert points.contains((F(2), F(1))) and not points.contains((F(1), F(2)))


def test_reserved_names_require_their_carriers():
    defs = load(
        "algebra gauss {\n"
        "  carrier: QI\n"
        "  zero: 0\n"
        "  half: 1/2\n"
        "  one: 1\n"
        "  p(a, b, c) = a + b*(c - a) + 0*i\n"
        "}\n")
    assert defs["gauss"].p(QI(0), QI(0, 1), QI(1)) == QI(0, 1)


def test_parse_value_handles_rationals_and_tuples():
    assert parse_value("3/4") == F(3, 4)
    assert parse_value("(1, -1/2)") == (F(1), F(-1, 2))
    assert parse_value("1/2 + 2*i") == QI(F(1, 2), F(2))


@pytest.mark.parametrize("text,kind,line,col", [
    ("algebra a {\n  carrier: Q\n  zero: 0 @\n}\n", "lexical", 3, 11),
    ("algebra a {\n  carrier: Q\n  zero 0\n}\n", "syntax", 3, 8),
    ("algebra a {\n  carrier: Q\n  zero: 0\n  half: 1/2\n  one: 1\n"
     "  p(a, b, c) = a + b*(d - a)\n}\n", "unbound-identifier", 6, 23),
    ("algebra a {\n  carrier: Q^2\n  zero: (0, 0)\n  half: (1/2, 0)\n"
     "  one: (1, 0)\n  p(a, b, c) = a + b\n}\n", "shape-mismatch", 6, 18),
    ("algebra a {\n  carrier: Q\n  zero: 0\n  half: 1/2\n  one: 1\n"
     "  p(a, b, c) = a + b*(c - a) + i\n}\n", "exp-i-misuse", 6, 32),
])
def test_diagnostics_carry_kind_line_and_column(text, kind, line, col):
    with pytest.raises(DslError) as exc:
        load(text)
    err = exc.value
    assert (err.kind, err.line, err.col) == (kind, line, col)
    assert err.format("f.mobi").startswith(f"f.mobi:{line}:{col}: {kind}:")


def test_duplicate_definitions_are_rejected():
    text = GOLDEN.read_text()
    with pytest.raises(DslError) as exc:
        load(text + "\n" + text)
    assert exc.value.kind == "syntax"


def test_unknown_over_is_an_unbound_identifier():
    with pytest.raises(DslError) as exc:
        load("space s over nowhere {\n  carrier: Q\n"
             "  q(x, a, y) = x + a*(y - x)\n}\n")
    assert exc.value.kind == "unbound-identifier"
    assert exc.value.line == 1


def test_integer_division_stays_exact():
    defs = load(
        "algebra thirds {\n"
        "  carrier: Q\n"
        "  zero: 0\n"
        "  half: 1/2\n"
        "  one: 1\n"
        "  p(a, b, c) = a + (2/2)*b*(c - a)\n"
        "}\n")
    assert defs["thirds"].p(F(0), F(1, 3), F(1)) == F(1, 3)


def test_where_carriers_keep_rejection_sampling():
    defs = load(
        "space cone over canonical_interval_algebra {\n"
        "  carrier: Q^2 where v1 >= v2\n"
        "  q(x, a, y) = x\n"
        "}\n"
        "space empty over canonical_interval_algebra {\n"
        "  carrier: Q^2 where v1 > v1\n"
        "  q(x, a, y) = x\n"
        "}\n")
    cone, empty = defs["cone"].points, defs["empty"].points
    assert cone.sampler is None and empty.sampler is None
    assert all(cone.contains(x) for x in sample(cone, seed=3, n=50))
    with pytest.raises(SamplingExhausted):
        sample(empty, seed=0, n=1)
