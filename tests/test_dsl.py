import itertools
import operator
import sys
from fractions import Fraction as F
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mobikit import (QI, DslError, MobiAlgebra, MobiSpace, Sampled,
                     SamplingExhausted, all_passed, build, check_algebra,
                     check_space, elaborate, load, parse, parse_value, print_definitions,
                     run_cli, sample)
from mobikit.carriers import SCALAR, _Fraction
from mobikit.dsl import And, Bin, Compare, Name, Num, Tup, Unary, _compile

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


def test_a_space_may_name_an_algebra_defined_after_it():
    defs = load(
        "space slide over line {\n"
        "  carrier: Q\n"
        "  q(x, a, y) = x + a*(y - x)\n"
        "}\n"
        "algebra line {\n"
        "  carrier: Q\n"
        "  zero: 0\n"
        "  half: 1/2\n"
        "  one: 1\n"
        "  p(a, b, c) = a + b*(c - a)\n"
        "}\n")
    assert list(defs) == ["slide", "line"]
    assert defs["slide"].algebra is defs["line"]


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
    assert parse_value("exp(0) + 1") == 2.0  # every atom's names are allowed


def _algebra(carrier="Q", half="1/2", body="a + b*(c - a)") -> str:
    return (f"algebra a {{\n  carrier: {carrier}\n  zero: 0\n  half: {half}\n"
            f"  one: 1\n  p(a, b, c) = {body}\n}}\n")


# one digit more than the interpreter converts (3.10.7 and later limit it)
_LONG = "9" * (sys.get_int_max_str_digits() + 1
               if hasattr(sys, "get_int_max_str_digits") else 0)
_TOO_DEEP = "expression nests deeper than 64 levels"


@pytest.mark.parametrize("text,kind,line,col", [
    ("algebra a {\n  carrier: Q\n  zero: 0 @\n}\n", "lexical", 3, 11),
    ("algebra a {\n  carrier: Q\n  zero 0\n}\n", "syntax", 3, 8),
    ("algebra a {\n  carrier: Q\n  zero: 0\n  half: 1/2\n  one: 1\n"
     "  p(a, b, c) = a + b*(d - a)\n}\n", "unbound-identifier", 6, 23),
    ("algebra a {\n  carrier: Q^2\n  zero: (0, 0)\n  half: (1/2, 0)\n"
     "  one: (1, 0)\n  p(a, b, c) = a + b\n}\n", "shape-mismatch", 6, 18),
    ("algebra a {\n  carrier: Q\n  zero: 0\n  half: 1/2\n  one: 1\n"
     "  p(a, b, c) = a + b*(c - a) + i\n}\n", "exp-i-misuse", 6, 32),
    pytest.param(_algebra(half="1/0"), "arithmetic", 4, 10, id="zero divisor"),
    pytest.param(_algebra(carrier="R64", half="exp(1000)"), "arithmetic", 4, 9,
                 id="exp overflow"),
    pytest.param(_algebra(carrier="Zmod(5)", half="3", body="a + b*(c - a) + 1/2"),
                 "shape-mismatch", 6, 33, id="division mod m"),
    pytest.param(_algebra(body="(" * 65 + "a" + ")" * 65), "syntax", 6, 80,
                 id="parentheses"),
    pytest.param(_algebra(carrier="R64", body="exp(" * 65 + "a" + ")" * 65),
                 "syntax", 6, 16 + 4 * 64 + 3, id="calls"),
    pytest.param(_algebra(body="a" + " + a" * 64), "syntax", 6, 16, id="chain"),
    pytest.param(_algebra(body="-" * 64 + "a"), "syntax", 6, 80, id="signs"),
    pytest.param(_algebra(body="a + " + _LONG), "syntax", 6, 20, id="long literal",
                 marks=pytest.mark.skipif(not _LONG, reason="no digit limit")),
])
def test_diagnostics_carry_kind_line_and_column(text, kind, line, col):
    with pytest.raises(DslError) as exc:
        load(text)
    err = exc.value
    assert (err.kind, err.line, err.col) == (kind, line, col)
    assert err.format("f.mobi").startswith(f"f.mobi:{line}:{col}: {kind}:")


def test_an_expression_at_the_depth_limit_loads_and_runs():
    # 64 parentheses, and a tree 64 levels deep: a chain of 31 additions
    # under 32 signs, which evaluates to a
    body = "(" * 64 + "-" * 32 + "a" + " + 0" * 31 + ")" * 64
    items = parse(_algebra(body=body))
    assert parse(print_definitions(items)) == items
    assert elaborate(items)["a"].p(F(3), F(1), F(5)) == F(3)
    with pytest.raises(DslError, match=_TOO_DEEP):
        load(_algebra(body="-" + body))


def test_a_space_over_a_modular_algebra_may_not_divide():
    text = ("algebra z {\n  carrier: Zmod(5)\n  zero: 0\n  half: 3\n  one: 1\n"
            "  p(a, b, c) = a + b*(c - a)\n}\n"
            "space s over z {\n  carrier: Zmod(5)\n"
            "  q(x, a, y) = x + a*(y - x)/1\n}\n")
    with pytest.raises(DslError) as exc:
        load(text)
    assert (exc.value.kind, exc.value.line, exc.value.col) == ("shape-mismatch", 10, 29)
    # a field next to the residues keeps its division
    assert load(text.replace("carrier: Zmod(5)\n  q", "carrier: Q\n  q"))


@pytest.mark.parametrize("where, col", [
    ("v < 2", 21), ("2 >= v", 26), ("v = v <= 1", 25), ("i < 1", 21)])
def test_order_comparisons_on_gaussian_rationals_are_rejected(
        tmp_path, capsys, where, col):
    text = (f"algebra gauss {{\n  carrier: QI where {where}\n  zero: 0\n"
            "  half: 1/2\n  one: 1\n  p(a, b, c) = a + b*(c - a)\n}\n")
    with pytest.raises(DslError) as exc:
        load(text)
    err = exc.value
    assert (err.kind, err.line, err.col) == ("shape-mismatch", 2, col)
    path = tmp_path / "gauss.mobi"
    path.write_text(text)
    assert run_cli(["check", str(path), "--samples", "5"]) == 2
    out, stderr = capsys.readouterr()
    assert out == "" and stderr.count("\n") == 1
    assert stderr.startswith(f"{path}:2:{col}: shape-mismatch:")


def test_a_real_component_next_to_a_gaussian_one_keeps_its_order():
    pairs = load("space pairs over rational_line_algebra {\n"
                 "  carrier: QI x Q where v2 < 1 and v1 = v1\n"
                 "  q(x, a, y) = x\n}\n")["pairs"].points
    assert pairs.contains((QI(1, 2), F(1, 2)))
    assert not pairs.contains((QI(1, 2), F(3, 2)))


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


def test_where_equality_on_gaussian_rationals(tmp_path):
    # only the written relation is evaluated: QI has no order
    text = ("algebra gauss {\n"
            "  carrier: QI where v = v\n"
            "  zero: 0\n"
            "  half: 1/2\n"
            "  one: 1\n"
            "  p(a, b, c) = a + b*(c - a)\n"
            "}\n")
    carrier = load(text)["gauss"].carrier
    assert carrier.contains(QI(1, 2)) and carrier.contains(F(1, 2))
    assert not carrier.contains(1.5)
    path = tmp_path / "gauss.mobi"
    path.write_text(text)
    assert run_cli(["check", str(path), "--samples", "50"]) == 0
    pairs = load("space pairs over gauss {\n"
                 "  carrier: QI x QI where v1 = v2\n"
                 "  q(x, a, y) = x\n"
                 "}\n" + text)["pairs"].points
    assert pairs.contains((QI(1, 2), QI(1, 2)))
    assert not pairs.contains((QI(1, 2), QI(1, -2)))


@pytest.mark.parametrize("text,kind,msg", [
    ("x", "unbound-identifier", "unbound identifier 'x'"),
    ("(1, 2) + 3", "shape-mismatch", "operator '+' needs scalar operands"),
    ("-(1, i)", "shape-mismatch", "unary '-' needs a scalar operand"),
    ("exp(i)", "exp-i-misuse", "exp needs a real argument"),
    ("exp(1 + 2*i - i)", "exp-i-misuse", "exp needs a real argument"),
])
def test_parse_value_is_checked(text, kind, msg):
    with pytest.raises(DslError) as exc:
        parse_value(text)
    assert (exc.value.kind, exc.value.msg) == (kind, msg)


# The compiler against a reference evaluator that walks the tree directly.

_NAMES = ("a", "b", "c")
_RELATIONS = {"<=": operator.le, "<": operator.lt, "=": operator.eq,
              ">=": operator.ge, ">": operator.gt}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": operator.truediv}


class _Mismatch(Exception):
    """The reference's shape error, at the node it names."""


def _children(e):
    if isinstance(e, Unary):
        return (e.operand,)
    if isinstance(e, Bin):
        return (e.left, e.right)
    if isinstance(e, (Tup, Compare)):
        return e.items
    if isinstance(e, And):
        return e.parts
    return ()


def _reference_shape(e):
    if isinstance(e, (Num, Name)):
        return SCALAR
    if isinstance(e, Tup):
        return tuple(_reference_shape(x) for x in e.items)
    for x in _children(e):
        if _reference_shape(x) != SCALAR and not isinstance(e, And):
            raise _Mismatch(x if isinstance(e, Compare) else e)
    return SCALAR


def _reference_value(e, env):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Name):
        return env[e.text]
    if isinstance(e, Unary):
        return -_reference_value(e.operand, env)
    if isinstance(e, Tup):
        return tuple(_reference_value(x, env) for x in e.items)
    if isinstance(e, And):
        return all(_reference_value(p, env) for p in e.parts)
    if isinstance(e, Compare):
        return all(_RELATIONS[op](_reference_value(lhs, env), _reference_value(rhs, env))
                   for op, lhs, rhs in zip(e.ops, e.items, e.items[1:]))
    left = _reference_value(e.left, env)
    if e.op == "^":
        return left ** e.right.value
    right = _reference_value(e.right, env)
    if e.op == "/" and isinstance(left, int) and isinstance(right, int):
        return F(left, right)
    return _ARITH[e.op](left, right)


def _outcome(thunk):
    """(type, value) of the result, recursively for tuples, or the exception type."""
    try:
        value = thunk()
    except ZeroDivisionError as exc:
        return type(exc)

    def typed(v):
        return tuple(map(typed, v)) if isinstance(v, tuple) else (type(v), v)

    return typed(value)


def _trees():
    leaves = st.one_of(st.integers(0, 3).map(Num), st.sampled_from(_NAMES).map(Name))

    def extend(sub):
        items = st.lists(sub, min_size=2, max_size=3).map(tuple)
        relations = st.lists(st.sampled_from(sorted(_RELATIONS)), min_size=3, max_size=3)
        return st.one_of(
            sub.map(Unary),
            st.builds(Bin, st.sampled_from(sorted(_ARITH)), sub, sub),
            st.builds(lambda x, n: Bin("^", x, Num(n)), sub, st.integers(0, 2)),
            items.map(Tup),
            st.builds(lambda xs, ops: Compare(xs, tuple(ops[:len(xs) - 1])), items, relations),
            items.map(And))

    return st.recursive(leaves, extend, max_leaves=8)


_values = st.one_of(st.integers(-3, 3),
                    st.fractions(min_value=-3, max_value=3, max_denominator=8),
                    st.builds(_Fraction, st.integers(-12, 12), st.integers(1, 8)))


_ZERO_DIVISOR = Bin("/", Name("a"), Num(0))


@settings(max_examples=400, deadline=None)
@given(tree=_trees(), args=st.tuples(_values, _values, _values))
@example(tree=And((Num(0), _ZERO_DIVISOR)), args=(1, 1, 1))  # and short-circuits
@example(tree=Compare((Num(1), Num(0), _ZERO_DIVISOR), ("<", "<")), args=(1, 1, 1))
def test_compiled_expressions_match_the_reference(tree, args):
    lines = itertools.count(1)

    def number(e):  # distinct positions, to tell where a mismatch is reported
        e.line = next(lines)
        for child in _children(e):
            number(child)

    number(tree)
    env = {name: (SCALAR, itemgetter(k)) for k, name in enumerate(_NAMES)}
    try:
        want = _reference_shape(tree)
    except _Mismatch as exc:
        with pytest.raises(DslError) as err:
            _compile(tree, env, {"Q"})
        assert (err.value.kind, err.value.line) == ("shape-mismatch", exc.args[0].line)
        return
    shape, fn = _compile(tree, env, {"Q"})
    assert shape == want
    assert _outcome(lambda: fn(args)) == \
        _outcome(lambda: _reference_value(tree, dict(zip(_NAMES, args))))
