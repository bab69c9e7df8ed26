"""Edge cases of the law loop behind check_equation, check_predicate and
check_implication."""

import hashlib
import json
import operator
import sys
from fractions import Fraction as F
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import given, settings, strategies as st

from mobikit import (QI, CheckReport, EvalError, Exhaustive, MembershipError,
                     ModularInt, Rational, Sampled, ShapeError, Witness,
                     check_equation, check_implication, check_predicate,
                     report_to_text, reports_to_json)
from mobikit.carriers import Product, _draw_rational, sample
from mobikit.report import _json, assignments_for, law_seed, render_value, report_to_dict

Z5 = ModularInt(5)


def raising_at(bad, exc):
    """An operation of (a, b) that raises exc when a == bad, else returns a."""
    def op(a, b):
        if a == bad:
            raise exc("no value at a = 3")
        return a
    return op


@pytest.mark.parametrize("exc", [ZeroDivisionError, EvalError, ShapeError, MembershipError])
def test_an_error_in_any_law_kind_is_a_failing_witness(exc):
    names, slots, strategy = ("a", "b"), (Z5, Z5), Exhaustive()
    op = raising_at(3, exc)
    reports = [
        check_equation("side", names, slots, Z5.eq, op,
                       lambda a, b: a, strategy),
        check_predicate("value", names, slots, op, Z5.contains, strategy),
        check_implication("premise", names, slots, op, Z5.eq,
                          lambda a, b: a, lambda a, b: a, strategy),
    ]
    for report in reports:
        assert report.verdict == "fail", report.law
        w = report.witness
        assert w.inputs == {"a": 3, "b": 0}, report.law
        assert w.lhs == "<error: no value at a = 3>", report.law
        assert w.rhs is None and w.difference is None, report.law


@pytest.mark.parametrize("exc", [ZeroDivisionError, EvalError, ShapeError, MembershipError])
def test_an_error_on_the_right_side_is_shown_on_the_right(exc):
    names, slots, strategy = ("a", "b"), (Z5, Z5), Exhaustive()
    op = raising_at(3, exc)
    reports = [
        check_equation("side", names, slots, Z5.eq, lambda a, b: a, op, strategy),
        check_implication("conclusion", names, slots, lambda a, b: True, Z5.eq,
                          lambda a, b: a, op, strategy),
    ]
    for report in reports:
        assert report.verdict == "fail", report.law
        w = report.witness
        assert w.inputs == {"a": 3, "b": 0}, report.law
        assert w.lhs == 3 and w.rhs == "<error: no value at a = 3>", report.law
        assert w.difference is None, report.law
        assert report_to_text(report).endswith(
            "witness: a=3, b=0 | lhs=3 rhs=<error: no value at a = 3>")


def test_an_error_in_the_equality_shows_both_sides():
    def eq(u, v):  # rejects a side outside the carrier, as Rational.eq does
        if u == 3:
            raise ShapeError("expected a member, got 3")
        return u == v

    report = check_equation("side", ("a", "b"), (Z5, Z5), eq, lambda a, b: a,
                            lambda a, b: a, Exhaustive())
    assert report.witness == Witness({"a": 3, "b": 0}, 3, 3,
                                     "<error: expected a member, got 3>")
    assert report_to_text(report).endswith(
        "| lhs=3 rhs=3 difference=<error: expected a member, got 3>")


def test_a_failing_predicate_reports_its_value_alone():
    report = check_predicate("small", ("a",), (Z5,), lambda a: a + 5,
                             lambda v: v < 5, Exhaustive())
    assert report.verdict == "fail"
    w = report.witness
    assert (w.inputs, w.lhs, w.rhs, w.difference) == ({"a": 0}, 5, None, None)


def test_a_failing_probe_comes_before_a_failing_sample():
    # x = x + 1 fails on every assignment; 1000 is outside the draw support
    report = check_equation("off-by-one", ("x",), (Rational(),), operator.eq,
                            lambda x: x, lambda x: x + 1, Sampled(20, 0),
                            probes=((F(1000),),))
    assert report.verdict == "fail"
    assert report.witness.inputs == {"x": F(1000)}
    assert report.witness.difference == -1


@pytest.mark.parametrize("seed, law, value", [
    (0, "A1", 8224032920607012264),
    (7, "X5", 11528760480048820941),
    (11, "roundtrip", 4391594920032344636),
])
def test_a_law_seed_is_the_blake2s_digest_of_seed_and_law(seed, law, value):
    # every draw and report hash follows from these sub-seeds
    digest = hashlib.blake2s(f"{seed}:{law}".encode(), digest_size=8).digest()
    assert law_seed(seed, law) == int.from_bytes(digest, "big") == value


def test_sampled_draws_each_assignment_when_the_walk_reaches_it(monkeypatch):
    calls = []

    def draw(self, rng):
        calls.append(rng)
        return _draw_rational(rng)

    monkeypatch.setattr(Rational, "draw", draw)
    slots = (Rational(), Rational())
    walk = iter(Sampled(500, 3).assignments("law", slots))
    first = [next(walk) for _ in range(3)]
    assert len(calls) == 6  # two slots a draw
    assert first + list(walk) == sample(Product(slots), law_seed(3, "law"), 500)
    # an implication keeps its draws to build their copies after them,
    # without drawing them again
    calls.clear()
    walked = list(Sampled(20, 3).assignments("law", slots, lambda t: (t[0], t[0])))
    assert len(calls) == 40 and walked[20:] == [(a, a) for a, _ in walked[:20]]


def test_a_premise_met_only_by_constructed_copies_still_fails():
    # draws stay within |x| <= 12, so x = y + 1000 never holds by chance
    slots, strategy = (Rational(), Rational()), Sampled(30, 4)
    drawn = list(assignments_for("shifted", slots, strategy))
    assert not any(x == y + 1000 for x, y in drawn)
    report = check_implication("shifted", ("x", "y"), slots,
                               lambda x, y: x == y + 1000, operator.eq,
                               lambda x, y: x, lambda x, y: y, strategy,
                               construct=lambda t: (t[1] + 1000, t[1]))
    assert report.verdict == "fail"
    y = drawn[0][1]
    assert report.witness.inputs == {"x": y + 1000, "y": y}
    assert report.witness.difference == 1000


class Listed:
    """A strategy known only to this test: a fixed list of assignments,
    then the constructed copies of those that the premise could use."""

    def __init__(self, assignments):
        self.given = list(assignments)

    def assignments(self, law, slots, construct=None):
        if construct is None:
            return list(self.given)
        return self.given + [construct(a) for a in self.given]

    def label(self):
        return f"listed(n={len(self.given)})"

    def to_dict(self):
        return {"kind": "listed", "samples": len(self.given), "seed": None}


def test_a_strategy_defined_outside_the_library_runs_the_law_loop():
    names, slots = ("a", "b"), (Rational(), Rational())
    strategy = Listed([(F(1), F(2)), (F(3), F(3)), (F(5), F(1))])
    # a + b == a * b fails first at (1, 2); (3, 3) is never reached
    equation = check_equation("sum-is-product", names, slots, operator.eq,
                              lambda a, b: a + b, lambda a, b: a * b, strategy)
    assert equation.strategy is strategy
    assert equation.witness.inputs == {"a": 1, "b": 2}
    # the premise a == b + 10 holds only on the constructed copies
    implication = check_implication("shifted", names, slots,
                                    lambda a, b: a == b + 10, operator.eq,
                                    lambda a, b: a, lambda a, b: b, strategy,
                                    construct=lambda t: (t[1] + 10, t[1]))
    assert implication.witness.inputs == {"a": 12, "b": 2}
    passing = check_equation("commutes", names, slots, operator.eq,
                             lambda a, b: a + b, lambda a, b: b + a, strategy)
    assert passing.passed and passing.strategy is strategy
    assert report_to_text(passing) == "PASS commutes [listed(n=3)]"
    assert report_to_text(equation).startswith(
        "FAIL sum-is-product [listed(n=3)] witness: a=1, b=2 | lhs=3 rhs=2")
    rendered = json.loads(reports_to_json([equation, implication, passing]))
    assert [r["strategy"] for r in rendered] == [
        {"kind": "listed", "samples": 3, "seed": None}] * 3
    assert [r["verdict"] for r in rendered] == ["fail", "fail", "pass"]


def test_a_law_with_no_variables_reports_exhaustive_under_any_strategy():
    for strategy in (Sampled(20, 3), Listed([]), Exhaustive()):
        report = check_equation("constant", (), (), operator.eq,
                                lambda: 1, lambda: 1, strategy)
        assert report.passed and report.strategy == Exhaustive()
        assert report_to_text(report) == "PASS constant [exhaustive]"
        assert json.loads(reports_to_json([report]))[0]["strategy"] == {
            "kind": "exhaustive", "samples": None, "seed": None}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_a_number_past_the_digit_limit_renders_its_head_and_digit_count():
    big = 10 ** 5000 + 7
    assert render_value(big) == "10000000000000000000...(5001 digits)"
    assert render_value(-big) == "-10000000000000000000...(5001 digits)"
    assert render_value(F(2 * big, 3)) == "20000000000000000000...(5001 digits)/3"
    assert render_value(F(3, 10 ** 4999)) == "3/10000000000000000000...(5000 digits)"
    assert render_value(F(-5, 7)) == "-5/7" and render_value(12) == "12"


def dumped(reports) -> str:
    """The reports as json.dumps writes them, which reports_to_json must match."""
    return json.dumps([report_to_dict(r) for r in reports], indent=2, sort_keys=True)


class Weighted:
    """A strategy whose own dict holds a float and a tuple, which json.dumps
    writes as it writes any value."""

    def to_dict(self):
        return {"kind": "weighted", "weights": (0.25, 1e300), "seed": 5}


# a pass with no witness; a failure whose witness nests tuples and QIs, with
# no difference and with one; an Exhaustive strategy, whose samples and seed
# are null; law names that need escapes or are not ASCII; a strategy's dict
# with values of other types
JSON_REPORTS = {
    "a pass with no witness": [CheckReport("A0", Sampled(500, 0), "pass")],
    "no reports": [],
    "a witness with no difference": [CheckReport(
        "Y3", Sampled(20, 7), "fail",
        Witness({"x": (F(1, 2), (QI(1, 2), 3)), "a": QI(F(-1, 3), 0)},
                (QI(0, 1), (F(5), ())), "<error: division by zero>"))],
    "a witness with a difference": [CheckReport(
        "X4", Sampled(1, 11), "fail",
        Witness({"z": QI(F(7, 2), -1)}, (1, (2, QI(0, -1))), (F(1, 3),),
                (F(2, 3), (QI(1, 1), None))))],
    "an exhaustive strategy": [CheckReport("ring.add-comm", Exhaustive(), "pass"),
                               CheckReport("module.phi-add", Exhaustive(), "fail",
                                           Witness({"a": 3, "b": 4}, 2, 1, 1))],
    "names to escape": [CheckReport('quote " and back\\slash', Exhaustive(), "pass"),
                        CheckReport("\u00e9t\u00e9 \u03bb\t\u2028 \U0001f600", Sampled(3, 1),
                                    "fail", Witness({"\u00fc": F(1)}, "\u00e9", None))],
    "a float and a tuple": [CheckReport("A1", Weighted(), "pass")],
}


@pytest.mark.parametrize("reports", JSON_REPORTS.values(), ids=list(JSON_REPORTS))
def test_reports_to_json_writes_what_json_dumps_writes(reports):
    assert reports_to_json(reports) == dumped(reports)


def json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4)


# the values a report dict holds, and bools, nested in lists and str-keyed dicts
JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers() | st.text(),
                           json_containers, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_the_json_writer_matches_json_dumps_on_any_value(value):
    assert "".join(_json(value, "\n", encode_basestring_ascii, [])) == json.dumps(
        value, indent=2, sort_keys=True)
