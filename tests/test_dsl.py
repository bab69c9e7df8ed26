import itertools
import operator
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mobikit import (QI, DslError, MobiAlgebra, MobiSpace, Sampled,
                     SamplingExhausted, all_passed, build, check_algebra,
                     check_space, elaborate, load, parse, parse_value, print_definitions,
                     run_cli, sample)
from mobikit.carriers import SCALAR, _Fraction
from mobikit.dsl import (_LITERAL, And, Bin, Compare, Name, Num, Tup, Unary,
                         _compile, _define, _namespace)
from mobikit.symbolic import FREE, POSITIVE, domain_of, variables

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
    assert space.algebra.carrier.describe() == "{Q : 0 <= t <= 1}"
    assert space.algebra.two is None
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
    defs = load(
        "space s over rational_line_algebra {\n"
        "  carrier: Q\n"
        "  param k: Q = -1/2\n"
        "  q(x, a, y) = x + a*(y - x)*k\n"
        "}\n")
    assert defs["s"].q(F(0), F(1), F(1)) == F(-1, 2)


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
    pytest.param(_algebra(body="a + b*(c - a)*exp(0)"), "exp-i-misuse", 6, 30,
                 id="exp without R64"),
    pytest.param("space s over canonical_space {\n  carrier: Q\n"
                 "  q(x, a, y) = x + a*(y - x)\n}\n", "unbound-identifier", 1, 14,
                 id="over a catalog space"),
    pytest.param("space s over rational_line_algebra {\n  carrier: Q\n"
                 "  param k: Zmod(5) = 1/2\n  q(x, a, y) = x + a*(y - x)\n}\n",
                 "syntax", 3, 9, id="fractional Zmod param"),
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
    # int / int is a Fraction of the kernel's fast type, on int arguments too
    assert defs["thirds"].p(0, 3, 1) == 3 and type(defs["thirds"].p(0, 3, 1)) is _Fraction
    assert parse_value("4/2") == 2 and type(parse_value("4/2")) is _Fraction
    # and so is a rational literal
    defs = load(
        "space s over thirds {\n"
        "  carrier: Q\n"
        "  param k: Q = -3/6\n"
        "  q(x, a, y) = k\n"
        "}\n"
        "algebra thirds {\n  carrier: Q\n  zero: 0\n  half: 1/2\n  one: 1\n"
        "  p(a, b, c) = a\n}\n")
    assert defs["s"].q(0, 0, 0) == F(-1, 2) and type(defs["s"].q(0, 0, 0)) is _Fraction


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


def _real(shape):
    """The shape with the kind of integer literals written SCALAR."""
    if isinstance(shape, tuple):
        return tuple(map(_real, shape))
    return SCALAR if shape == _LITERAL else shape


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
        return _Fraction(left, right)
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
    # the arguments under names of the test's choosing
    env = {name: (SCALAR, f"_t{k}") for k, name in enumerate(_NAMES)}
    ns = _namespace()
    try:
        want = _reference_shape(tree)
    except _Mismatch as exc:
        with pytest.raises(DslError) as err:
            _compile(tree, env, {"Q"}, ns)
        assert (err.value.kind, err.value.line) == ("shape-mismatch", exc.args[0].line)
        return
    shape, source = _compile(tree, env, {"Q"}, ns)
    assert _real(shape) == want
    fn = _define("f", "_t0, _t1, _t2", source, ns)
    assert _outcome(lambda: fn(*args)) == \
        _outcome(lambda: _reference_value(tree, dict(zip(_NAMES, args))))


# Generated functions: each operation, constant and where clause is one
# Python function built from generated source.

BENCH = Path(__file__).parents[1] / "bench"


def _workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


_WORKLOADS = _workloads()


@pytest.mark.parametrize("name", sorted(_WORKLOADS.TWINS))
def test_each_benchmark_transcription_agrees_with_its_catalog_twin(name):
    # the faithful transcription of the dsl workload, and the catalog
    # structures its catalog twins check, on 200 seeded draws each
    text = _WORKLOADS._render(name, _WORKLOADS._defaults(name), GOLDEN.read_text())
    defs = load(text)
    for (entry, extra), seed in zip(_WORKLOADS.TWINS[name], itertools.count(1)):
        params = dict(arg.format(m=_WORKLOADS.MODULUS).split("=")
                      for arg in extra[1::2])
        twin = build(entry, params)
        ours = next(d for d in defs.values() if type(d) is type(twin))
        if isinstance(twin, MobiAlgebra):
            carrier, run, theirs = twin.carrier, ours.p, twin.p
            slots = [sample(carrier, seed + k, 200) for k in range(3)]
        else:
            carrier, run, theirs = twin.points, ours.q, twin.q
            slots = [sample(carrier, seed, 200), sample(twin.algebra.carrier, seed + 1, 200),
                     sample(carrier, seed + 2, 200)]
        for args in zip(*slots):
            assert carrier.eq(run(*args), theirs(*args)), (name, args)


def test_an_exp_overflow_is_a_witness(tmp_path, capsys):
    path = tmp_path / "overflow.mobi"
    path.write_text(_algebra(carrier="R64", body="a + b*(c - a) + 0*exp(1000 + b)"))
    assert run_cli(["check", str(path), "--samples", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL a.A0 [sampled(n=3, seed=0)] witness: a=" in out[0]
    assert all("<error: exp overflow at " in line for line in out[:-1])
    assert out[-1] == "checked 9 law(s): 9 failed"


class _Counted(F):
    """A Fraction that counts its subtractions."""
    subtractions = 0

    def __sub__(self, other):
        _Counted.subtractions += 1
        return F(self) - other


def test_a_chain_evaluates_each_item_once_and_stops_at_a_false_link():
    carrier = load(_algebra(carrier="Q where 0 < v - 1 < 1/(v - 1)"))["a"].carrier
    assert carrier.contains(F(3, 2)) and not carrier.contains(F(3))
    # v - 1 is 0 at v = 1: the chain stops before 1/(v - 1)
    assert carrier.member(F(1)) is False
    # 4/2 keeps the clause an opaque predicate, a chain of Python comparisons
    member = load(_algebra(carrier="Q where 0 < v - 1 < 4/2"))["a"].carrier.member
    _Counted.subtractions = 0
    assert member(_Counted(2)) is True
    assert _Counted.subtractions == 1  # the middle item, once


def test_a_polynomial_chain_is_a_sign_condition_per_link():
    carrier = load(_algebra(carrier="Q where 0 < v - 1 <= 2 and v^2 >= -v"))["a"].carrier
    assert carrier.member is None
    assert [c.strict for c in carrier.conditions] == [True, False, False]
    assert [c.g(F(3, 2)) for c in carrier.conditions] == [F(1, 2), F(3, 2), F(15, 4)]
    assert carrier.contains(F(3)) and not carrier.contains(F(4)) and not carrier.contains(F(1))
    # v - 1 > 0 bounds v below by 1, so its variable is POSITIVE
    assert domain_of(next(iter(carrier.symbol(variables()).terms))[0]) == POSITIVE


@pytest.mark.parametrize("carrier", [
    "Q where v >= 0 and v = v",
    "Q where 1/v > 0",
    "Q x R64 where v1 > exp(v2)",
    "QI x Q where v2 > 0 and v1 = i",
    "R64 where v > 0",
    "QI x Q where v2 > 0",
    "Zmod(5) where v > 0",
    "Q x R64 where v1 > 0",
], ids=["equality", "division", "exp", "i", "R64", "QI", "Zmod", "R64-part"])
def test_a_where_clause_that_is_not_polynomial_over_q_stays_opaque(carrier):
    points = load("space s over canonical_interval_algebra {\n"
                  f"  carrier: {carrier}\n  q(x, a, y) = x\n}}\n")["s"].points
    assert points.member is not None and points.conditions == ()
    assert points.symbol(variables()) is None


def test_a_nonlinear_where_clause_leaves_its_variables_free():
    points = load("space disc over canonical_interval_algebra {\n"
                  "  carrier: Q^2 where v1*v1 + v2*v2 < 1\n  q(x, a, y) = x\n}\n")["disc"].points
    assert points.member is None and points.contains((F(1, 2), F(-1, 2)))
    assert not points.contains((F(1), F(0)))
    symbol = points.symbol(variables())
    assert [domain_of(next(iter(v.terms))[0]) for v in symbol] == [FREE, FREE]


def test_and_stops_early_and_gives_a_bool():
    member = load(_algebra(carrier="Q where v > 0 and 1/v < 2 and v = v"))["a"].carrier.member
    assert member(F(0)) is False  # 1/v is not evaluated
    assert member(F(1)) is True and member(F(1, 4)) is False
    assert member(F(-1)) is False


@pytest.mark.parametrize("carrier, body, p", [
    ("Q", "-" * 63 + "a", F(-3)),
    ("Q", "a" + " + 0" * 63, F(3)),
    ("R64", "exp(-" * 31 + "a" + ")" * 31 + " + a", None),
    ("Q", "(" * 64 + "a" + " - 0" * 63 + ")" * 64, F(3)),
])
def test_a_body_64_levels_deep_loads_and_runs(carrier, body, p):
    value = load(_algebra(carrier=carrier, body=body))["a"].p(F(3), F(1), F(5))
    assert value == p if p is not None else 3 < value < 4


def test_a_literal_64_levels_deep_is_a_value():
    value = parse_value("(" * 63 + "0" + ", 1)" * 63)
    for _ in range(63):
        value, last = value
        assert last == 1
    assert value == 0


def test_names_that_generated_source_uses_are_ordinary_names():
    text = ("algebra line {\n  carrier: Q\n  zero: 0\n  half: 1/2\n  one: 1\n"
            "  p(_x1, _div, _x0) = _x1 + _div*(_x0 - _x1)\n}\n"
            "space s over line {\n  carrier: Q^2 where v1 = v1\n"
            "  param __import__: Q = 2\n  param _k0: Q = 3\n"
            "  q((math, args), _x2, (_exp, __builtins__)) = "
            "(math + _x2*(_exp - math)*__import__/2, args + _x2*(__builtins__ - args)*_k0/3)\n"
            "}\n")
    defs = load(text)
    assert defs["line"].p(F(1), F(1, 2), F(3)) == 2
    catalog = build("projectile-space")
    strategy = Sampled(samples=60, seed=1)
    assert all_passed(check_algebra(defs["line"], strategy))
    assert all_passed(check_space(defs["s"], strategy))
    points = sample(catalog.points, seed=2, n=50)
    for x, a, y in zip(points, sample(catalog.algebra.carrier, seed=3, n=50), points[::-1]):
        assert defs["s"].q(x, a, y) == tuple(u + a * (v - u) for u, v in zip(x, y))


_MIXED = ("space s over zmod_algebra {\n  carrier: Q x Zmod(3)\n"
          "  q((x, s), a, (y, t)) = (x + a*(y - x), s + a*(t - s)/1)\n}\n")


def test_division_of_a_residue_in_a_mixed_carrier_is_refused(tmp_path, capsys):
    with pytest.raises(DslError) as exc:
        load(_MIXED)
    err = exc.value
    assert (err.kind, err.line, err.col) == ("shape-mismatch", 3, 55)
    path = tmp_path / "mixed.mobi"
    path.write_text(_MIXED)
    assert run_cli(["check", str(path), "--samples", "5"]) == 2
    assert capsys.readouterr().err == (
        f"{path}:3:55: shape-mismatch: '/' is not defined on Zmod carriers; "
        "multiply by an inverse\n")
    # the rational component divides, with or without a residue in it
    space = load(_MIXED.replace("(t - s)/1", "(t - s)")
                 .replace("a*(y - x)", "a*(y - x)/2 + (y - x)/a/2"))["s"]
    assert space.q((F(0), 1), 1, (F(4), 2)) == (F(4), 2)


# nonaffine-complex-space transcribed with its second component s + B*a*(t - s)
# for a B other than 1, as the seed-0 `check cplx perturbed B` of the dsl
# benchmark writes it with B = 1/2
CPLX_PERTURBED_B = (
    "space cplx over rational_line_algebra {{\n"
    "  carrier: QI x Q\n"
    "  q((z, s), a, (w, t)) = (z + (w - z)*(((2 - a)*s + a*t + i)/(s + t + i)*a),"
    " s + {B}*a*(t - s))\n"
    "}}\n")


@pytest.mark.parametrize("b", [F(1, 2), F(3, 2), 2, 3, -1])
def test_y9_of_cplx_with_a_perturbed_second_component_is_false(b):
    # at x = (0, 0), y = (0, 1) and a = 1/(2B) both premise sides are
    # (0, 1/2), while q(x, half, y) is (0, B/2)
    space = load(CPLX_PERTURBED_B.format(B=f"({b})"))["cplx"]
    q, half, eq = space.q, space.algebra.half, space.points.eq
    x, y, a = (QI(0, 0), F(0)), (QI(0, 0), F(1)), 1 / (2 * F(b))
    assert eq(q(x, a, y), (QI(0, 0), F(1, 2)))
    assert eq(q(x, a, y), q(y, a, x))
    assert eq(q(x, half, y), (QI(0, 0), F(b) / 2))
    assert not eq(q(x, a, y), q(x, half, y))


@pytest.mark.xfail(strict=True, reason=(
    "the Y9 solve is refused, no seeded draw meets the premise and the "
    "copies y := x meet it trivially, so the false law passes"))
def test_the_report_of_cplx_with_a_perturbed_second_component_fails_y9(tmp_path, capsys):
    path = tmp_path / "cplx-perturbed-B.mobi"
    path.write_text(CPLX_PERTURBED_B.format(B="(1/2)"))
    assert run_cli(["check", str(path), "--properties", "--samples", "100",
                    "--seed", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL cplx.Y9 ") for line in out), out


# the projectile and halfplane transcriptions with their second component
# s + B*a*(t - s), as the seed-0 `check projectile perturbed B` and `check
# halfplane perturbed B` of the dsl benchmark write them, with B = 1/2 and
# B = 3/2
PROJECTILE_PERTURBED_B = GOLDEN.read_text().replace("s + a*(t - s))",
                                                    "s + (1/2)*a*(t - s))")
HALFPLANE_PERTURBED_B = (
    "space halfplane over canonical_interval_algebra {\n"
    "  carrier: Q^2 where v2 > 0\n"
    "  q((x, s), a, (y, t)) = (x + (y - x)*a*t/(s + a*(t - s)), s + (3/2)*a*(t - s))\n"
    "}\n")
PERTURBED_B = {
    # name: (text, the flags the benchmark checks it with, x, y, a)
    "projectile": (PROJECTILE_PERTURBED_B, ("--properties", "--affine"),
                   (F(-1, 4), F(1, 2)), (F(-1, 4), F(0)), F(1)),
    "halfplane": (HALFPLANE_PERTURBED_B, ("--properties",),
                  (F(-5, 3), F(6, 5)), (F(-5, 3), F(1, 4)), F(1, 3)),
}


@pytest.mark.parametrize("name", PERTURBED_B)
def test_y9_of_projectile_or_halfplane_with_a_perturbed_second_component_is_false(name):
    # x and y share their first component x1, so q(x, a, y) = (x1, s +
    # B*a*(t - s)) and q(y, a, x) = (x1, t + B*a*(s - t)) agree at
    # a = 1/(2B), while q(x, half, y) has s + (B/2)*(t - s) for its second
    text, _, x, y, a = PERTURBED_B[name]
    assert text.rstrip("}\n").endswith("*a*(t - s))")
    space = load(text)[name]
    q, half, eq = space.q, space.algebra.half, space.points.eq
    assert space.points.contains(x) and space.points.contains(y)
    assert space.algebra.carrier.contains(a)
    assert eq(q(x, a, y), q(y, a, x))
    assert not eq(q(x, a, y), q(x, half, y))


@pytest.mark.xfail(strict=True, reason=(
    "the Y9 solve is refused, no seeded draw meets the premise off its "
    "diagonal and the copies y := x meet it trivially, so the false law passes"))
@pytest.mark.parametrize("name", PERTURBED_B)
def test_the_report_of_projectile_or_halfplane_with_a_perturbed_second_component_fails_y9(
        tmp_path, capsys, name):
    text, flags, *_ = PERTURBED_B[name]
    path = tmp_path / f"{name}-perturbed-B.mobi"
    path.write_text(text)
    assert run_cli(["check", str(path), *flags, "--samples", "100", "--seed", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert any(line.startswith(f"FAIL {name}.Y9 ") for line in out), out
