"""Laws decided once over Q, Z/m and Q[i]: symbols, Undecided, and reports
that do not change when a law's draws are skipped."""

import json
import math
import operator
import random
import sys
import time
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from mobikit import (CheckReport, Exhaustive, Float64, GaussianRational,
                     MobiAlgebra, ModularInt, QI, Rational, Restricted,
                     SamplingExhausted, Sampled, Sign, Vector, build, carriers, check_algebra,
                     check_equation, check_implication, check_predicate,
                     list_catalog, report, reports_to_json, solver, symbolic)
from mobikit.algebra import check_properties
from mobikit.carriers import CarrierError, Product, ShapeError, sample
from mobikit.catalog import _draw_unit, nonaffine_poly_space, zmod_algebra, zmod_module
from mobikit.cli import run_cli
from mobikit.dsl import load
from mobikit.report import EvalError, law_seed, report_to_text
from mobikit.ringmod import check_module, check_ring
from mobikit.search import search_finite
from mobikit.space import MobiSpace, check_affine, check_space, check_y_properties
from mobikit.symbolic import (FREE, MAX_TERMS, POINT_DEGREE, POSITIVE, POSITIVE_WORK, REAL,
                              UNIT, Points, Poly, Quotient, Undecided, _Fraction, equal,
                              nonnegative, positive, variables)

GOLDEN = Path(__file__).parent / "data" / "projectile.mobi"


def without_symbols(monkeypatch):
    """Every carrier answers None to symbol(), as one without symbols does."""
    for cls in vars(carriers).values():
        if isinstance(cls, type) and "symbol" in vars(cls):
            monkeypatch.setattr(cls, "symbol", lambda self, fresh: None)


def law_kind(args) -> str:
    """The kind of law that a call of report._decided decides: an
    implication has a premise, and a predicate's right side is
    report._nothing."""
    if args[4] is not None:
        return "implication"
    return "predicate" if args[3] is report._nothing else "equation"


def has_certificate(premise: list, conclusion: list) -> bool:
    """The solver's certificate search (solver._certifies) on a budget of
    its own: False when it refuses, for a Points or an overspent budget
    too."""
    try:
        return solver._certifies(premise, conclusion, [symbolic.CERTIFICATE_WORK])
    except Undecided:
        return False


def outputs(capsys, commands) -> list:
    out = []
    for argv in commands:
        code = run_cli(list(argv))
        captured = capsys.readouterr()
        out.append((argv, code, captured.out, captured.err))
    return out


def catalog_commands(seed: int) -> list:
    """The commands of a pass of the benchmark's catalog workload, at 60
    samples: every entry checked, every space and module converted and
    round-tripped, and two entries at parameters whose checks stop with an
    error."""
    s = ("--samples", "60", "--seed", str(seed), "--report", "json")
    commands = []
    for entry in list_catalog():
        extra = ("--properties", "--affine") if entry.kind != "module" else ()
        commands.append(("catalog", "check", entry.name) + extra + s)
    for entry in list_catalog():
        if entry.kind != "algebra":
            direction = "space-to-module" if entry.kind == "space" else "module-to-space"
            commands.append(("convert", direction, entry.name) + s)
            commands.append(("roundtrip", entry.name) + s)
    for name, param in (("damped-space", "alpha=1000"), ("transported-space", "lam=0,1")):
        commands.append(("catalog", "check", name, "--param", param,
                         "--properties", "--affine") + s)
    return commands


@pytest.mark.parametrize("seed", [0, 1, 11])
def test_the_catalog_prints_the_same_with_and_without_symbols(capsys, monkeypatch, seed):
    commands = catalog_commands(seed)
    assert len(commands) == 57 and len(list_catalog()) == 23
    decided = outputs(capsys, commands)
    without_symbols(monkeypatch)
    walked = outputs(capsys, commands)
    # the non-affine spaces fail a law; the last two commands stop with an
    # error
    codes = [code for _, code, _, _ in decided]
    assert 1 in codes and codes[-2:] == [2, 2]
    # the conversions and round trips of halfplane-space and lozenge-space
    # stop too: their doubler's absence is proven on symbols, and only
    # searched for in the walk, which is all the outputs differ by
    absent = [argv[:-6] for argv, code, _, err in decided if "(proven-absent)" in err]
    assert absent == [("convert", "space-to-module", "halfplane-space"),
                      ("roundtrip", "halfplane-space"),
                      ("convert", "space-to-module", "lozenge-space"), ("roundtrip", "lozenge-space")]
    assert [(argv, code, out, err.replace("(absent-after-search)", "(proven-absent)"))
            for argv, code, out, err in walked] == decided


@pytest.mark.parametrize("seed", [0, 1, 11])
def test_definition_files_print_the_same_with_and_without_symbols(
        tmp_path, capsys, monkeypatch, seed):
    perturbed = tmp_path / "perturbed.mobi"
    # s + a*a*(t - s) breaks X5 and the affine condition
    perturbed.write_text(GOLDEN.read_text().replace("s + a*(t - s)", "s + a*a*(t - s)"))
    s = ("--properties", "--affine", "--samples", "60", "--seed", str(seed),
         "--report", "json")
    commands = [("check", str(GOLDEN)) + s, ("check", str(perturbed)) + s]
    decided = outputs(capsys, commands)
    assert [code for _, code, _, _ in decided] == [0, 1]
    without_symbols(monkeypatch)
    assert outputs(capsys, commands) == decided


def finite_commands(seed: int) -> list:
    """The in-process commands of a pass of the benchmark's finite workload
    other than search: exhaustive checks of zmod-algebra and zmod-module,
    the exhaustive conversion of zmod-module and two sampled checks."""
    s = ("--seed", str(seed))
    commands = [("catalog", "check", "zmod-algebra", "--param", f"m={m}",
                 "--exhaustive", "--properties") + s for m in (3, 5, 7, 9, 11)]
    commands += [("catalog", "check", "zmod-module", "--param", f"m={m}",
                  "--param", f"dim={dim}", "--exhaustive") + s
                 for m, dim in ((3, 2), (5, 2), (3, 3))]
    commands.append(("convert", "module-to-space", "zmod-module", "--exhaustive",
                     "--affine", "--properties") + s)
    commands += [("catalog", "check", "zmod-algebra", "--param", f"m={m}") + s
                 for m in (15, 21)]
    return commands


@pytest.mark.parametrize("seed", [0, 7])
def test_finite_checks_print_the_same_with_and_without_symbols(capsys, monkeypatch, seed):
    commands = finite_commands(seed)
    decided = outputs(capsys, commands)
    assert [code for _, code, _, _ in decided] == [0] * len(commands)
    without_symbols(monkeypatch)
    assert outputs(capsys, commands) == decided


ZMOD = """\
algebra zmod {
  carrier: Zmod(7)
  zero: 0
  half: 4
  one: 1
  p(a, b, c) = a + b*c - b*a
}
"""


@pytest.mark.parametrize("seed", [0, 7])
def test_a_zmod_definition_file_prints_the_same_with_and_without_symbols(
        tmp_path, capsys, monkeypatch, seed):
    # the definition-file workload's Z/7 transcription, and a copy whose
    # 2*a breaks A2 to A8
    faithful, perturbed = tmp_path / "zmod.mobi", tmp_path / "perturbed.mobi"
    faithful.write_text(ZMOD)
    perturbed.write_text(ZMOD.replace("= a + b*c", "= 2*a + b*c"))
    s = ("--properties", "--samples", "100", "--seed", str(seed))
    commands = [("check", str(path)) + s + extra
                for extra in ((), ("--exhaustive",)) for path in (faithful, perturbed)]
    decided = outputs(capsys, commands)
    assert [code for _, code, _, _ in decided] == [0, 1, 0, 1]
    without_symbols(monkeypatch)
    assert outputs(capsys, commands) == decided


CPLX = """\
space cplx over rational_line_algebra {
  carrier: QI x Q
  q((z, s), a, (w, t)) = (z + (w - z)*(((2 - a)*s + a*t + i)/(s + t + i)*a), s + a*(t - s))
}
"""


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_a_gaussian_rational_definition_file_prints_the_same_with_and_without_symbols(
        tmp_path, capsys, monkeypatch, seed):
    # the definition-file workload's Q[i] transcription of
    # nonaffine-complex-space, and a copy whose (3 - a) breaks X2
    faithful, perturbed = tmp_path / "cplx.mobi", tmp_path / "perturbed.mobi"
    faithful.write_text(CPLX)
    perturbed.write_text(CPLX.replace("(2 - a)", "(3 - a)"))
    s = ("--properties", "--samples", "100", "--seed", str(seed))
    commands = [("check", str(faithful)) + s, ("check", str(perturbed)) + s]
    decided = outputs(capsys, commands)
    assert [code for _, code, _, _ in decided] == [0, 1]
    without_symbols(monkeypatch)
    assert outputs(capsys, commands) == decided


def poly_space_checks(space: MobiSpace, seed: int) -> list:
    strategy = Sampled(100, seed)
    return (check_space(space, strategy) + check_y_properties(space, strategy)
            + [check_affine(space, strategy)])


def rational_space(num, den) -> MobiSpace:
    """nonaffine-poly-space at n=1 with its weight num(s, t, a) / den(s, t)."""
    base = nonaffine_poly_space()

    def q(x, a, y):
        s, t = x[1], y[1]
        return (x[0] + a * (y[0] - x[0]) * num(s, t, a) / den(s, t), s + a * (t - s))

    return MobiSpace(base.algebra, base.points, q)


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_a_space_through_a_certified_divisor_reports_the_same_without_symbols(
        monkeypatch, seed):
    # nonaffine-poly-space with 2*s*s in its numerator, where it has 3*s*s,
    # which breaks X2; and a copy that divides by s*s - 2*s*t + t*t, which is
    # zero at draws with s == t, refused as a divisor and walked
    perturbed = rational_space(
        lambda s, t, a: 2 * s * s + 3 * s * (t - s) * a + (t - s) ** 2 * a * a + 1,
        lambda s, t: s * s + s * t + t * t + 1)
    vanishing = rational_space(lambda s, t, a: 1 - a, lambda s, t: s * s - 2 * s * t + t * t)
    decided = [poly_space_checks(space, seed) for space in (perturbed, vanishing)]
    assert "X2" in [r.law for r in decided[0] if not r.passed]
    assert any(str(value).startswith("<error: ") for r in decided[1] if r.witness
               for value in (r.witness.lhs, r.witness.rhs, r.witness.difference))
    without_symbols(monkeypatch)
    walked = [poly_space_checks(space, seed) for space in (perturbed, vanishing)]
    assert [reports_to_json(r) for r in walked] == [reports_to_json(r) for r in decided]


def test_every_passing_equation_of_nonaffine_poly_space_is_decided(monkeypatch, capsys):
    walked, answers, at = [], [], [None]

    def spy(law, *args, walk=None, **kwargs):
        at[0] = law
        if walk is None:  # walked in full
            walked.append(law)
        return check(law, *args, walk=walk, **kwargs)

    def decide(*args):
        answers.append((law_kind(args), decided(*args)))
        if answers[-1][1] != report.Decided.EVERY:  # walked past its first draw
            walked.append(at[0])
        return answers[-1][1]

    check, decided = report._check, report._decided
    monkeypatch.setattr(report, "_check", spy)
    monkeypatch.setattr(report, "_decided", decide)
    assert run_cli(["catalog", "check", "nonaffine-poly-space", "--properties",
                    "--affine"]) == 1
    assert "FAIL affine(half)" in capsys.readouterr().out
    # the failing affine condition; X0 is admitted by Q x Q, X1, X2, X3, X5
    # and Y1 to Y8 are decided, X5, Y4, Y5 and Y8 past MAX_TERMS at the
    # points, and X4, Y9 and Y10 by solving their premise, copies and all
    assert walked == ["affine(half)"]
    assert answers.count(("equation", report.Decided.EVERY)) == 12
    assert answers.count(("predicate", report.Decided.EVERY)) == 1
    assert answers.count(("implication", report.Decided.EVERY)) == 3
    assert answers.count(("implication", report.Decided.COPIES)) == 0


# the laws of the Gaussian rational space past MAX_TERMS, and how many
# calls of q one evaluation of each makes, both sides
PAST_THE_CAP = {"X5": 4, "Y4": 3, "Y5": 4, "Y6": 4, "Y8": 7}


@pytest.mark.parametrize("source", ["catalog", "definition file"])
def test_y8_of_the_gaussian_rational_space_is_decided(monkeypatch, source):
    # and X5, Y4, Y5 and Y6: past MAX_TERMS, at the points; only the one
    # seeded draw of each runs on numbers, so none falls back to a walk
    space = build("nonaffine-complex-space") if source == "catalog" else load(CPLX)["cplx"]
    law, numeric = [None], {}

    def q(x, a, y):
        if isinstance(x[1], F):
            numeric[law[0]] = numeric.get(law[0], 0) + 1
        return space.q(x, a, y)

    def spy(name, *args, **kwargs):
        law[0] = name
        return check(name, *args, **kwargs)

    def points(p, kind):
        past.add(law[0])
        return to_points(p, kind)

    check, to_points, past = report._check, symbolic._points, set()
    monkeypatch.setattr(report, "_check", spy)
    monkeypatch.setattr(symbolic, "_points", points)
    spaced = replace(space, q=q)
    strategy = Sampled(500)
    assert all(r.passed for r in check_space(spaced, strategy)
               + check_y_properties(spaced, strategy))
    assert past == set(PAST_THE_CAP)
    assert {name: numeric.get(name) for name in PAST_THE_CAP} == PAST_THE_CAP


def implication_commands(seed: int) -> list:
    """Commands that check every implication of the catalog (A6, eq(8) and
    eq(10) of each algebra, X4, Y9 and Y10 of each space and of each
    module's space), in text reports."""
    s = ("--properties", "--samples", "100", "--seed", str(seed))
    return [("convert", "module-to-space", entry.name) + s if entry.kind == "module"
            else ("catalog", "check", entry.name) + s for entry in list_catalog()]


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_catalog_implications_print_the_same_with_and_without_symbols(
        capsys, monkeypatch, seed):
    copies = []

    def spy(*args):
        answer = decided(*args)
        if law_kind(args) == "implication":  # an implication's copies
            copies.append(answer)
        return answer

    decided = report._decided
    monkeypatch.setattr(report, "_decided", spy)
    commands = implication_commands(seed)
    with_symbols = outputs(capsys, commands)
    text = "".join(out for _, _, out, _ in with_symbols)
    for law in ("A6", "eq(8)", "eq(10)", "X4", "Y9", "Y10"):
        assert f" {law} [" in text, law
    assert sum(copies) > 20  # implications whose copies were decided
    without_symbols(monkeypatch)
    assert outputs(capsys, commands) == with_symbols


# -- symbols of carriers

def test_only_carriers_of_exact_rationals_have_symbols():
    # ... and Z/m, whose symbol is a variable whose values are ints, and
    # Q[i], whose symbol is a QI of two rational variables; a rejection-
    # sampled carrier, such as a `where` clause over R64, has none
    fresh = variables()
    never = Restricted(Rational(), lambda x: x > 100)
    positive = Restricted(Float64(), lambda v: v > 0)
    for carrier in (never, positive, Product((Rational(), positive))):
        assert carrier.symbol(fresh) is None, carrier
    q, n = Rational().symbol(fresh), ModularInt(5).symbol(fresh)
    assert type(q) is Poly and q.rational is True
    # a double is a rational too: one that a float meets as its exact value
    r = Float64().symbol(fresh)
    assert type(r) is Poly and r.rational is symbolic.REAL
    assert type(Product((Rational(), Float64())).symbol(fresh)) is tuple
    assert type(n) is Poly and not n.rational and n.modulus == 0
    z = GaussianRational().symbol(fresh)
    assert type(z) is QI and all(type(p) is Poly and p.rational for p in (z.re, z.im))
    with pytest.raises(Undecided):  # each part a fresh variable
        equal(z.re, z.im)
    pair = Vector(Rational(), 2).symbol(fresh)
    assert type(pair) is tuple and len(pair) == 2
    with pytest.raises(Undecided):  # each slot a fresh variable
        equal(*pair)


def test_a_restricted_carrier_with_a_sampler_has_its_bases_symbol():
    unit = Restricted(Vector(Rational(), 2), lambda x: True,
                      sampler=lambda rng: (F(0), F(1)))
    plane = Vector(Rational(), 2)
    assert plane.eq(unit.symbol(variables()), plane.symbol(variables()))


def test_a_rejection_sampled_carrier_still_exhausts_its_draws():
    never = Restricted(Rational(), lambda x: x > 100)
    with pytest.raises(SamplingExhausted):
        check_equation("id", ("a",), (never,), never.eq, lambda a: a, lambda a: a,
                       Sampled(5))


# -- what leaves the polynomials

fresh = variables()
x, y, n = fresh(), fresh(), fresh(integer=True)
z, w = GaussianRational().symbol(fresh), GaussianRational().symbol(fresh)
ratio = (1 / QI(x, 1)).re  # x / (x*x + 1), a quotient
# a variable over the rationals > 0 and one over [0, 1] (see symbolic.variables)
r, u = fresh(domain=symbolic.POSITIVE), fresh(domain=symbolic.UNIT)
# a variable over the doubles (see Float64.symbol), and e**v
v = Float64().symbol(fresh)
ev = carriers.exp(v)


def index(v: Poly) -> int:
    """The index of the variable v."""
    return next(iter(v.terms))[0]



def past_the_term_cap(integer=False):
    """A product of 2**11 terms, past MAX_TERMS: of rationals a Points of
    degree 11."""
    fresh = variables()
    return math.prod(1 + fresh(integer) for _ in range(11))


REFUSED = {
    "x / y": lambda: x / y,
    "1 / x": lambda: 1 / x,
    "x / 0": lambda: x / 0,
    "x / Fraction(0)": lambda: x / F(0),
    "x / (x - x)": lambda: x / (x - x),
    "1 / (x*x + y*y)": lambda: 1 / (x * x + y * y),
    "1 / (x*x - 1)": lambda: 1 / (x * x - 1),
    "1 / (x*x*y*y)": lambda: 1 / (x * x * y * y),
    "1 / (n*n + 1) for an n known modulo 3": lambda: F(1) / ((n % 3) * (n % 3) + 1),
    "x < 1": lambda: x < 1,
    "x <= 1": lambda: x <= 1,
    "x > 1": lambda: x > 1,
    "x >= 1": lambda: x >= 1,
    "x == x": lambda: x == x,
    "x != 1": lambda: x != 1,
    "Fraction(1) < x": lambda: F(1) < x,
    "Fraction(1) == x": lambda: F(1) == x,
    "1 == x": lambda: 1 == x,
    "bool(x)": lambda: bool(x),
    "if x": lambda: 1 if x else 0,
    "float(x)": lambda: float(x),
    "exp(x)": lambda: math.exp(x),
    "int(x)": lambda: int(x),
    "hash(x)": lambda: hash(x),
    "{x}": lambda: {x},
    "abs(x)": lambda: abs(x),
    "x % 2": lambda: x % 2,
    "2 % x": lambda: 2 % x,
    "x // 2": lambda: x // 2,
    "x ** -1": lambda: x ** -1,
    "x ** Fraction(2)": lambda: x ** F(2),
    "x ** 0.5": lambda: x ** 0.5,
    "x ** True": lambda: x ** True,
    "2 ** x": lambda: 2 ** x,
    "x ** 10**6": lambda: x ** 10 ** 6,
    "x + 0.5": lambda: x + 0.5,
    "0.5 * x": lambda: 0.5 * x,
    "z / w for two Q[i] symbols": lambda: z / w,
    "a divisor QI(x, 0)": lambda: QI(1, 1) / QI(x, 0),
    "a divisor QI(x, y - y)": lambda: z / QI(x, y - y),
    "a divisor whose part is a quotient": lambda: z / QI(ratio, 1),
    "1 / a quotient": lambda: 1 / ratio,
    "a quotient / x": lambda: ratio / x,
    "a quotient / a quotient": lambda: ratio / ratio,
    "a quotient % 2": lambda: ratio % 2,
    "a quotient == 0": lambda: ratio == 0,
    "bool(a quotient)": lambda: bool(ratio),
    "a divisor with a part known modulo 3": lambda: z / QI(n % 3, 1),
    "GaussianRational.eq of sides that differ": lambda: GaussianRational().eq(z, w),
    "x + None": lambda: x + None,
    "x + True": lambda: x + True,
    "True * x": lambda: True * x,
    "a leaf that is a float": lambda: equal(x, 1.0),
    "a leaf that is None": lambda: equal(None, None),
    "an int past the term cap": lambda: past_the_term_cap(integer=True),
    "1 / a Points": lambda: 1 / past_the_term_cap(),
    "x / a Points": lambda: x / past_the_term_cap(),
    "a quotient / a Points": lambda: ratio / past_the_term_cap(),
    "a Points / a Points": lambda: past_the_term_cap() / past_the_term_cap(),
    "a Points / x": lambda: past_the_term_cap() / x,
    "a Points / a quotient": lambda: past_the_term_cap() / ratio,
    "a Points / 0": lambda: past_the_term_cap() / 0,
    "a divisor whose part is a Points": lambda: z / QI(past_the_term_cap(), 1),
    "a Points % 2": lambda: past_the_term_cap() % 2,
    "a Points with an int known modulo 3": lambda: past_the_term_cap() + n % 3,
    "a Points < 1": lambda: past_the_term_cap() < 1,
    "a Points == a Points": lambda: past_the_term_cap() == past_the_term_cap(),
    "bool(a Points)": lambda: bool(past_the_term_cap()),
    "hash(a Points)": lambda: hash(past_the_term_cap()),
    "float(a Points)": lambda: float(past_the_term_cap()),
    "a Points ** 100, past the degree cap": lambda: past_the_term_cap() ** 100,
    "a Points ** -1": lambda: past_the_term_cap() ** -1,
    "a Points + 0.5": lambda: past_the_term_cap() + 0.5,
    "congruent of a Points": lambda: symbolic.congruent(past_the_term_cap(), 0, 3),
    "congruent of two polynomials whose difference passes the cap":
        lambda: symbolic.congruent(*(math.prod(1 + fresh() for _ in range(9)) for _ in "pq"), 3),
    "difference of a Points": lambda: symbolic.difference(past_the_term_cap(), 0),
    "Rational.eq of a Points and it plus x":
        lambda: Rational().eq(past_the_term_cap(), past_the_term_cap() + x),
    "ModularInt(5).eq of a Points": lambda: ModularInt(5).eq(past_the_term_cap(), 0),
    "a Q symbol % 3": lambda: x % 3,
    "an int / 2": lambda: n / 2,
    "2 / an int": lambda: 2 / (n * 0 + 3),
    "an int % 0": lambda: n % 0,
    "an int % an int": lambda: n % n,
    "an int % True": lambda: n % True,
    "a rational with an int known modulo 3": lambda: n % 3 + x,
    "a Fraction with an int known modulo 3": lambda: n % 3 * F(1, 2),
    "a division by an int known modulo 3": lambda: x / ((n * 0 + 1) % 3),
    "ModularInt(9).eq of ints known modulo 3":
        lambda: ModularInt(9).eq(n % 3, (n + 3) % 3),
    "ModularInt(5).eq of sides that differ": lambda: ModularInt(5).eq(n, 1),
    "ModularInt(5).eq of a rational": lambda: ModularInt(5).eq(x, x),
    "Rational.eq of an int known modulo 3": lambda: Rational().eq(n % 3, n % 3),
    "Rational.eq of sides that differ": lambda: Rational().eq(x, y),
    # the carrier rule: a Bernstein coefficient that is zero, has a negative
    # coefficient, or has a FREE variable
    "1 / u for a u in [0, 1]": lambda: 1 / u,
    "1 / (1 - u) for a u in [0, 1]": lambda: 1 / (1 - u),
    "1 / (r - 1) for an r > 0": lambda: 1 / (r - 1),
    "1 / (r*u - r*(1 - u))": lambda: 1 / (r * u - r * (1 - u)),
    "1 / (r + x) for a free x": lambda: 1 / (r + x),
    # exp terms: a division by anything but c * exp(g), an exp of anything
    # but a polynomial, a coefficient past the term cap, and no order
    "exp(v) / (1 + exp(v)), a division by a sum": lambda: ev / (1 + ev),
    "exp(v) / v": lambda: ev / v,
    "1 / (v * exp(v))": lambda: 1 / (v * ev),
    "exp(exp(v))": lambda: carriers.exp(ev),
    "exp of a quotient": lambda: carriers.exp(ratio),
    "exp of an int known modulo 3": lambda: carriers.exp(n % 3),
    "exp(v) + a quotient": lambda: ev + ratio,
    "exp(v) * a Points": lambda: ev * past_the_term_cap(),
    "an exp term past the term cap":
        lambda: math.prod(1 + Float64().symbol(fresh) for _ in range(11)) * ev,
    "exp(v) + a Q[i] symbol": lambda: ev + z,
    "exp(v) == exp(v)": lambda: ev == ev,
    "exp(v) < 1": lambda: ev < 1,
    "bool(exp(v))": lambda: bool(ev),
    "hash(exp(v))": lambda: hash(ev),
    "float(exp(v))": lambda: float(ev),
    "exp(v) % 2": lambda: ev % 2,
    "exp(v) ** -1": lambda: ev ** -1,
    "v + inf": lambda: v + math.inf,
    "v * nan": lambda: v * math.nan,
    "a Z/m symbol + a float": lambda: n + 0.5,
    "difference of an exp term": lambda: symbolic.difference(ev, 0),
    "Float64.eq of exp(v) and 1 + v": lambda: Float64().eq(ev, 1 + v),
}


@pytest.mark.parametrize("name", REFUSED)
def test_an_operation_off_the_polynomials_is_undecided(name):
    with pytest.raises(Undecided):
        REFUSED[name]()


def test_no_handler_for_a_numeric_or_carrier_error_catches_undecided():
    for base in (ArithmeticError, EvalError, CarrierError):
        assert not issubclass(Undecided, base)
    assert 2 ** 11 > MAX_TERMS  # the terms of past_the_term_cap


def test_a_points_is_neither_certified_positive_nor_a_certificate(monkeypatch):
    big = past_the_term_cap()
    assert type(big) is Points and (big.num, big.den) == (11, 0)
    assert not positive(big) and not positive(big * big + 1)
    assert not has_certificate([big], [big]) and not has_certificate([x], [big * x])
    # an intermediate result of their own arithmetic past the cap leaves
    # them undecided: c*c + 1's square root, and (x + 1) * p's multiplier
    norm = CERTIFIED["c*c + 1"]
    p = x * x + x * y + y * y + x + y + 1
    conclusion = (x + 1) * p
    monkeypatch.setattr(symbolic, "MAX_TERMS", 4)
    monkeypatch.setattr(symbolic, "_POSITIVE", {})
    assert not positive(norm)
    assert not has_certificate([p], [conclusion])
    monkeypatch.undo()
    assert positive(norm) and has_certificate([p], [conclusion])


def test_a_power_is_bounded_by_its_degree_not_by_the_term_cap():
    # x ** 200 is one term, past MAX_TERMS as an exponent; so is exp(x) **
    # 200; past POINT_DEGREE no power of a variable or of an exp term is
    # decided, and a sum's power past MAX_TERMS terms is a Points
    assert MAX_TERMS < 200 < POINT_DEGREE
    power = x ** 200
    assert type(power) is Poly and power.terms == {(index(x),) * 200: 1}
    assert equal(power, x ** 100 * x ** 100) is True
    assert equal(symbolic.exp(x) ** 200, symbolic.exp(200 * x)) is True
    assert type((1 + x) ** 200) is Points
    for base in (x, symbolic.exp(x)):
        with pytest.raises(Undecided):
            base ** (POINT_DEGREE + 1)


def test_ints_known_modulo_g():
    fresh = variables()
    n, k = fresh(integer=True), fresh(integer=True)
    r = (n * k + 7 * n - 2) % 3  # coefficients reduced, known modulo 3
    assert (r.terms, r.rational, r.modulus) == ({(0, 1): 1, (0,): 1, (): 1}, False, 3)
    assert ((n % 6) + (k % 9)).modulus == 3  # gcd(6, 9)
    assert (2 * (n % 6) - 1).modulus == 6 and (n * k - 1).modulus == 0
    assert ((n % 6) ** 0).modulus == 0 and ((n % 6) ** 2).modulus == 6
    assert (n + F(1, 2)).rational and (n / F(2)).rational
    assert ModularInt(3).eq((n * n + 3 * n) % 9, n * n)
    assert ModularInt(5).eq(n * 10 + k, k % 5) and Rational().eq(n * n, n ** 2)


# int expressions over three variables: ("v", i), ("k", c), (op, e1, e2)
# for op in + - *, and ("%", e, k)
INT_EXPRESSIONS = st.recursive(
    st.tuples(st.just("v"), st.integers(0, 2))
    | st.tuples(st.just("k"), st.integers(-20, 20)),
    lambda sub: (st.tuples(st.sampled_from("+-*"), sub, sub)
                 | st.tuples(st.just("%"), sub, st.integers(-12, 12).filter(bool))),
    max_leaves=8)


def evaluate(e, env):
    if e[0] == "v":
        return env[e[1]]
    if e[0] == "k":
        return e[1]
    if e[0] == "%":
        return evaluate(e[1], env) % e[2]
    a, b = evaluate(e[1], env), evaluate(e[2], env)
    return a + b if e[0] == "+" else a - b if e[0] == "-" else a * b


def as_poly(v) -> Poly:
    return v if type(v) is Poly else Poly({(): v} if v else {}, False)


@given(INT_EXPRESSIONS, INT_EXPRESSIONS, st.integers(1, 12),
       st.lists(st.integers(-50, 50), min_size=3, max_size=3))
def test_an_int_polynomial_is_its_value_modulo_what_it_is_known_to(e, shift, n, values):
    fresh = variables()
    env = [fresh(integer=True) for _ in range(3)]
    p = as_poly(evaluate(e, env))
    at = sum(c * math.prod(values[i] for i in m) for m, c in p.terms.items())
    difference = evaluate(e, values) - at
    assert not p.rational
    assert difference % p.modulus == 0 if p.modulus else difference == 0
    # e and e + n * shift are congruent modulo n at every assignment:
    # ModularInt(n).eq answers True when n divides the modulus their
    # difference is known to, and is undecided otherwise
    q = as_poly(evaluate(e, env) + n * evaluate(shift, env))
    if (p - q).modulus % n == 0:
        assert ModularInt(n).eq(p, q) is True
    else:
        with pytest.raises(Undecided):
            ModularInt(n).eq(p, q)


def test_a_gaussian_rational_divides_by_a_norm_that_is_nowhere_zero():
    # (x + i) / (y + i) has the norm y*y + 1, at least 1 at every assignment
    u = QI(x, 1) / QI(y, 1)
    assert GaussianRational().eq(u * QI(y, 1), QI(x, 1))
    assert GaussianRational().eq(x * QI(1, 1), QI(x, x))  # a Poly hands QI the product
    assert GaussianRational().eq(u + u - u / 2, QI(x, 1) * F(3, 2) / QI(y, 1))
    # sums take the least common multiple of the factors, each stored once
    v = QI(x, 1) / QI(y, 1) + QI(1, 0) / QI(y, 1) / QI(y, 1)
    assert [e for _, e in v.re.den.values()] == [2]
    assert equal((u.re * u.re) ** 0, 1)
    with pytest.raises(Undecided):
        GaussianRational().eq(u, QI(x, 1))


# -- divisors certified positive

def weight_divisor(s, t):
    """The divisor of nonaffine-poly-space's weight."""
    return s * s + s * t + t * t + 1


def certified() -> dict:
    fresh = variables()
    s, t, a, c = (fresh() for _ in range(4))
    return {
        "s*s + s*t + t*t + 1": weight_divisor(s, t),
        "(s + t)**2/4 + 1": (s + t) ** 2 / 4 + 1,
        # q(q(x, a, y), b, q(x, c, y)) divides by the weight divisor at the
        # points' last coordinates s + a*(t - s) and s + c*(t - s)
        "X5's divisor": weight_divisor(s + a * (t - s), s + c * (t - s)),
        "Y4's divisor": weight_divisor(s + a * (t - s), t),
        "the norm of QI(x, x + 1)": s * s + (s + 1) * (s + 1),
        # a norm c*c + 1 of nonaffine-complex-space, whose c has no variable
        # of degree 2 with a coefficient that is nowhere zero
        "c*c + 1": (s * (1 - a) + t * (1 + a)) ** 2 + 1,
    }


CERTIFIED = certified()


@pytest.mark.parametrize("name", CERTIFIED)
def test_a_divisor_certified_positive_is_a_factor(name):
    p = CERTIFIED[name]
    assert positive(p)
    u = (x + 1) / p
    assert type(u) is Quotient and Rational().eq(u * p, x + 1)
    assert Rational().eq(u / p * p, u)  # a quotient / p multiplies the factor in
    assert [e for _, e in (u / p).den.values()] == [2]


@pytest.mark.parametrize("name, gram, rules", [
    ("s*s + s*t + t*t + 1", True, {"_rooted"}),
    ("Y4's divisor", False, {"_rooted"}),
    ("c*c + 1", False, {"_rooted"}),
])
def test_which_rules_of_positive_certify_a_divisor(monkeypatch, name, gram, rules):
    # the square-root rule with the Gram rule, which certifies the
    # constants it reduces a polynomial to
    p = CERTIFIED[name]

    def certifies(rule):
        monkeypatch.setattr(symbolic, "_positive", lambda p, budget: (
            symbolic._spend(budget, 100)
            and (symbolic._gram(p, budget) or getattr(symbolic, rule)(p, budget))))
        return symbolic._positive(p, [POSITIVE_WORK])

    assert symbolic._gram(p, [POSITIVE_WORK]) is gram
    assert {rule for rule in ("_rooted",) if certifies(rule)} == rules


# a polynomial over three variables: (coefficient, variable indices) terms
POLYNOMIALS = st.lists(st.tuples(st.fractions(-5, 5, max_denominator=4),
                                 st.lists(st.integers(0, 2), max_size=2)), max_size=4)


def polynomial(terms, xs) -> Poly:
    return sum((c * math.prod((xs[i] for i in m), start=Poly({(): 1})) for c, m in terms),
               start=Poly({}))


@given(st.lists(POLYNOMIALS, min_size=1, max_size=3), POLYNOMIALS,
       st.fractions(-2, 3, max_denominator=4),
       st.lists(st.integers(-60, 60), min_size=24, max_size=24), st.integers(1, 12))
def test_a_certified_polynomial_is_positive_at_rational_points(squares, tail, k, coordinates,
                                                               denominator):
    fresh = variables()
    xs = [fresh() for _ in range(3)]
    p = sum((polynomial(sq, xs) ** 2 for sq in squares), start=polynomial(tail, xs)) + k
    if positive(p):
        # eight points (n1/d, n2/d, n3/d)
        for i in range(0, 24, 3):
            point = [F(n, denominator) for n in coordinates[i:i + 3]]
            assert sum(c * math.prod(point[j] for j in m) for m, c in p.terms.items()) > 0


@given(st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5), min_size=1, max_size=4),
       st.integers(1, 5), st.fractions(min_value=0, max_value=5, max_denominator=7).filter(bool))
def test_a_sum_of_squares_of_linear_forms_plus_a_positive_constant_is_certified(
        forms, denominator, k):
    # each form c1*x1 + ... + c4*x4 + c5 over the denominator
    fresh = variables()
    xs = [fresh() for _ in range(4)] + [Poly({(): 1})]
    squares = sum(sum(F(c, denominator) * x for c, x in zip(form, xs)) ** 2 for form in forms)
    assert positive(squares + k)


def test_an_adversarial_divisor_is_answered_within_a_second():
    # the weighted squares of all differences of 14 variables: zero where
    # they are equal, so refused, after every rule has been tried
    fresh = variables()
    xs = [fresh() for _ in range(14)]
    p = sum(F(i + 1, j + 2) * (xs[i] - xs[j]) ** 2
            for i in range(14) for j in range(i + 1, 14))
    start = time.perf_counter()
    assert not positive(p) and positive(p + 1)
    assert time.perf_counter() - start < 1


def test_ring_operations_stay_polynomials():
    a = (x + y) ** 2 - 2 * x * y
    assert equal(a, x * x + y ** 2)
    assert equal(x / 2 + F(1, 2) * x, x)
    assert equal((x - 1) * (x + 1), x * x - 1)
    assert Rational().eq(F(3) * (x - 1), 3 * x - 3)
    with pytest.raises(Undecided):
        equal(x * y, x + y)


# -- which laws are decided, and what a decided law still evaluates

def counting(fn, calls):
    """fn, recording each call whose arguments are numbers, not symbols."""
    def counted(*args):
        if not any(type(a) is Poly for a in args):
            calls.append(args)
        return fn(*args)
    return counted


def test_a_proved_law_evaluates_its_probes_and_one_draw():
    Q = Rational()
    lhs_calls, rhs_calls = [], []
    probes = ((F(1), F(2)), (F(3), F(4)))
    strategy = Sampled(500, 7)
    report = check_equation("comm", ("a", "b"), (Q, Q), Q.eq,
                            counting(lambda a, b: a * b + a, lhs_calls),
                            counting(lambda a, b: b * a + a, rhs_calls),
                            strategy, probes)
    assert report == CheckReport("comm", strategy, "pass")
    first = sample(Product((Q, Q)), law_seed(7, "comm"), 1)  # the strategy's own
    assert lhs_calls == rhs_calls == list(probes) + first


def test_a_walked_equation_evaluates_its_probes_and_first_draw_once():
    # abs of a symbol is undecided, so the law is walked past the probes
    # and the strategy's first draw: 2 probes and 50 draws, 52 in all
    Q = Rational()
    calls = []
    probes = ((F(-1), F(2)), (F(3), F(-4)))
    strategy = Sampled(50, 3)
    report = check_equation("square", ("a", "b"), (Q, Q), Q.eq,
                            counting(lambda a, b: abs(a) * abs(a) + b, calls),
                            lambda a, b: a * a + b, strategy, probes)
    assert report == CheckReport("square", strategy, "pass")
    assert calls == list(probes) + sample(Product((Q, Q)), law_seed(3, "square"), 50)


def test_a_predicate_and_an_implication_evaluate_every_draw():
    Q = Rational()
    values, premises, undecided = [], [], []
    # an opaque membership predicate admits no symbolic value
    opaque = Restricted(Q, lambda x: x >= 0)
    check_predicate("closed", ("a",), (Q,), counting(lambda a: a * a, values),
                    opaque.contains, Sampled(50))
    # every copy (a, a) passes on symbols: the 50 draws and the first copy run
    check_implication("cancel", ("a", "b"), (Q, Q),
                      counting(lambda a, b: True, premises), Q.eq,
                      lambda a, b: a + b, lambda a, b: b + a, Sampled(50),
                      construct=lambda t: (t[0], t[0]))
    # a premise that compares leaves the copies undecided: all 100 run
    check_implication("cancel", ("a", "b"), (Q, Q),
                      counting(lambda a, b: a == b, undecided), Q.eq,
                      lambda a, b: a + b, lambda a, b: b + a, Sampled(50),
                      construct=lambda t: (t[0], t[0]))
    assert len(values) == 50 and len(premises) == 51 and len(undecided) == 100


def test_a_law_that_fails_on_its_first_draw_makes_no_symbolic_pass(monkeypatch):
    calls = []
    monkeypatch.setattr(report, "_decided", lambda *args: calls.append(args))
    Q = Rational()
    equation = check_equation("off", ("a",), (Q,), Q.eq, lambda a: a + 1,
                              lambda a: a, Sampled(50))
    implication = check_implication("off", ("a", "b"), (Q, Q), lambda a, b: True,
                                    Q.eq, lambda a, b: a, lambda a, b: b, Sampled(50),
                                    construct=lambda t: (t[0], t[0]))
    assert equation.verdict == implication.verdict == "fail" and calls == []
    assert implication.witness.inputs == dict(zip("ab", sample(
        Product((Q, Q)), law_seed(0, "off"), 1)[0]))


def test_a_search_model_makes_no_symbolic_pass_or_seeded_draw(monkeypatch):
    walks = []

    def spy(law, *args, walk=None, **kwargs):
        walks.append(walk)
        return check(law, *args, walk=walk, **kwargs)

    check = report._check
    monkeypatch.setattr(report, "_check", spy)
    algebra = search_finite(3)[0].to_algebra()
    assert algebra.carrier.symbol(variables()) is None
    assert all(r.passed for r in check_algebra(algebra, Exhaustive()))
    assert walks and walks == [None] * len(walks)  # each law walked once


def test_a_proved_law_whose_equality_rejects_its_sides_still_fails(monkeypatch):
    # both sides are the same polynomials, but a triple is not a point of Q^2
    Q2 = Vector(Rational(), 2)

    def check():
        return check_equation("shape", ("x",), (Q2,), Q2.eq, lambda x: x + (0,),
                              lambda x: x + (0,), Sampled())

    decided = check()
    assert decided.verdict == "fail"
    assert decided.witness.difference.startswith("<error: expected a 2-tuple")
    without_symbols(monkeypatch)
    assert check() == decided


@pytest.mark.parametrize("carrier, strategy, text", [
    (Rational(), Sampled(500, 0), "a=3, b=7/5"),
    (ModularInt(5), Exhaustive(), "a=3, b=0"),
], ids=["Q-sampled", "Z5-exhaustive"])
def test_a_law_whose_equality_rejects_a_value_is_not_decided(monkeypatch, carrier,
                                                             strategy, text):
    # both sides are the same polynomial, but the equality rejects u == 3,
    # which neither the probes nor the first assignment reach
    def eq(u, v):
        if u == 3:
            raise ShapeError("expected a member, got 3")
        return carrier.eq(u, v)

    def check():
        return check_equation("side", ("a", "b"), (carrier, carrier), eq,
                              lambda a, b: a, lambda a, b: a, strategy)

    decided = check()
    assert report_to_text(decided).startswith(
        f"FAIL side [{strategy.label()}] witness: {text} | lhs=3 rhs=3 "
        "difference=<error: expected a member, got 3>")
    without_symbols(monkeypatch)
    assert check() == decided


def raises_on_numbers(a, b):
    if not isinstance(a, Poly):
        raise EvalError(f"no numbers, got {a}")
    return a + b


@pytest.mark.parametrize("strategy", [Sampled(50, 3), Exhaustive()],
                         ids=["sampled", "exhaustive"])
@pytest.mark.parametrize("probes, lhs", [
    (((F(1, 2), 1),), lambda a, b: a + b),  # a probe that is no int mod 5
    ((), raises_on_numbers),
], ids=["probe", "side"])
def test_a_decided_law_whose_one_draw_fails_reports_the_walk(monkeypatch, strategy,
                                                             probes, lhs):
    Z5 = ModularInt(5)

    def check():
        return check_equation("comm", ("a", "b"), (Z5, Z5), Z5.eq, lhs,
                              lambda a, b: b + a, strategy, probes)

    assert report._decided((Z5, Z5), Z5.eq, lhs, lambda a, b: b + a)
    decided = check()
    assert decided.verdict == "fail" and decided.strategy == strategy
    without_symbols(monkeypatch)
    assert check() == decided


def test_a_decided_exhaustive_check_lists_no_product(monkeypatch):
    def refuse(self):
        raise AssertionError(f"listed the elements of {self.describe()}")

    monkeypatch.setattr(Product, "elements", refuse)
    assert all(r.passed for r in check_module(zmod_module(61, 3), Exhaustive()))


def test_only_a_walked_law_needs_an_enumerable_carrier():
    Q = Rational()
    decided = check_equation("comm", ("a", "b"), (Q, Q), Q.eq, lambda a, b: a + b,
                             lambda a, b: b + a, Exhaustive())
    assert decided == CheckReport("comm", Exhaustive(), "pass")
    opaque = Restricted(Q, lambda x: x * x >= 0)  # a predicate stays walked
    with pytest.raises(CarrierError, match="^Q is not enumerable$"):
        check_predicate("closed", ("a",), (Q,), lambda a: a, opaque.contains, Exhaustive())


def test_every_zmod_equation_with_variables_is_decided(monkeypatch):
    walked = []

    def spy(law, *args, walk=None, **kwargs):
        if walk is None:
            walked.append(law)
        return check(law, *args, walk=walk, **kwargs)

    check = report._check
    monkeypatch.setattr(report, "_check", spy)
    algebra, module = zmod_algebra(7), zmod_module(5, 2)
    reports = (check_algebra(algebra, Exhaustive())
               + check_properties(algebra, Exhaustive())
               + check_module(module, Exhaustive()))
    assert all(r.passed for r in reports)
    # the laws without variables; A0 is admitted, and the implications
    # have certificates modulo 7 and 5
    assert walked == ["A1", "eq(6)"]


def test_a_planted_non_identity_fails_with_the_same_witness(monkeypatch):
    def p(a, b, c):
        return a + b * (c - a) + (b - b * b) * (c - a) * a

    fresh = variables()
    a, b1, b2, b3, c = (fresh() for _ in range(5))
    with pytest.raises(Undecided):
        equal(p(a, p(b1, b2, b3), c), p(p(a, b1, c), b2, p(a, b3, c)))
    algebra = MobiAlgebra(Rational(), p, F(0), F(1, 2), F(1), two=F(2))
    # past the term cap: prod(1 + v) has 2**11 terms, so both sides are
    # Points; the planted term vanishes at the first seeded draw, so only
    # the walk finds it
    Q, names = Rational(), tuple(f"v{i}" for i in range(11))
    slots = (Q,) * len(names)
    first = sample(Product(slots), law_seed(0, "planted"), 1)[0]

    def lhs(*v):
        return math.prod(1 + u for u in v)

    def rhs(*v):
        return lhs(*v) + (v[0] - first[0]) * (v[1] - first[1])

    assert type(lhs(*(fresh() for _ in names))) is Points
    assert not report._decided(slots, Q.eq, lhs, rhs)

    def check():
        return check_algebra(algebra) + [
            check_equation("planted", names, slots, Q.eq, lhs, rhs, Sampled(500))]

    decided = check()
    without_symbols(monkeypatch)
    sampled = check()
    assert reports_to_json(decided) == reports_to_json(sampled)
    a7 = next(r for r in decided if r.law == "A7")
    assert a7.verdict == "fail" and a7.witness is not None
    assert decided[-1].verdict == "fail"
    assert decided[-1].witness.inputs != dict(zip(names, first))


# rational expressions over three variables: ("v", i), ("k", c), (op, e1, e2)
# for op in + - *, ("**", e, n), and ("/", e, j) for a division by the j-th
# of DIVISORS
RATIONAL_EXPRESSIONS = st.recursive(
    st.tuples(st.just("v"), st.integers(0, 2))
    | st.tuples(st.just("k"), st.fractions(-3, 3, max_denominator=3)),
    lambda sub: (st.tuples(st.sampled_from("+-*"), sub, sub)
                 | st.tuples(st.just("**"), sub, st.integers(0, 3))
                 | st.tuples(st.just("/"), sub, st.integers(0, 2))),
    max_leaves=6)


def divisors(xs) -> tuple:
    """Divisors that the Gram rule of positive certifies with no arithmetic
    of its own, so under any MAX_TERMS."""
    a, b, c = xs
    return a * a + 1, a * a + b * b + 1, b * b + b * c + c * c + 2


def rational_value(e, env, ds):
    if e[0] == "v":
        return env[e[1]]
    if e[0] == "k":
        return e[1]
    if e[0] == "**":
        return rational_value(e[1], env, ds) ** e[2]
    if e[0] == "/":
        return rational_value(e[1], env, ds) / ds[e[2]]
    a, b = rational_value(e[1], env, ds), rational_value(e[2], env, ds)
    return a + b if e[0] == "+" else a - b if e[0] == "-" else a * b


def degree(e) -> int:
    """An upper bound on the degrees of a numerator and a denominator of e."""
    if e[0] in "vk":
        return 1 if e[0] == "v" else 0
    if e[0] == "**":
        return degree(e[1]) * e[2]
    if e[0] == "/":
        return degree(e[1]) + 2
    return degree(e[1]) + degree(e[2])


@settings(max_examples=150, deadline=None)
@given(st.lists(RATIONAL_EXPRESSIONS, min_size=4, max_size=4), st.booleans(),
       st.fractions(1, 3, max_denominator=3),
       st.lists(st.integers(0, 2), max_size=3))
def test_points_answer_as_the_exact_polynomials_do(expressions, same, c, monomial):
    # (e1 + e2) * e3 against e1 * e3 + e2 * e3, an identity, or against
    # e1 * e3 + e2 * e4; with MAX_TERMS at 8 most sides are Points, and
    # equal answers True exactly when the exact difference, at the default
    # cap, is zero; one coefficient more on an identity's side stays
    # undecided
    e1, e2, e3, e4 = expressions
    # within POINT_DEGREE, which also bounds an exact power's exponent
    assume(2 * sum(map(degree, expressions)) + 3 <= POINT_DEGREE)
    fresh = variables()
    xs = [fresh() for _ in range(3)]
    ds = divisors(xs)

    def sides():
        v1, v2, v3 = (rational_value(e, xs, ds) for e in (e1, e2, e3))
        other = v3 if same else rational_value(e4, xs, ds)
        return (v1 + v2) * v3, v1 * v3 + v2 * other

    try:
        zero = not symbolic.difference(*sides()).terms
    except Undecided:  # past the default cap too
        assume(False)
    planted = c * math.prod((xs[i] for i in monomial), start=Poly({(): 1}))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symbolic, "MAX_TERMS", 8)
        left, right = sides()
        event(f"{type(left).__name__} against {type(right).__name__}, zero: {zero}")
        if zero:
            assert equal(left, right) is True
            with pytest.raises(Undecided):
                equal(left + planted, right)
        else:
            with pytest.raises(Undecided):
                equal(left, right)


# -- implications decided by a certificate

def sides_of(strategy, calls, left, right, conclusion, construct, carrier=Rational(),
             names=("a", "b", "c")):
    """check_implication with the premise left == right, whose left side
    records each call on numbers."""
    slots = (carrier,) * len(names)
    return check_implication("law", names, slots, (counting(left, calls), right),
                             carrier.eq, *conclusion, strategy, construct)


def test_a_certified_implication_evaluates_its_premise_on_one_draw_and_its_copy():
    # a + 2*b == a + 2*c implies b == c: a constant multiplier, 1/2
    calls, walked = [], []
    strategy = Sampled(500, 3)
    report = sides_of(strategy, calls, lambda a, b, c: a + 2 * b, lambda a, b, c: a + 2 * c,
                      (lambda a, b, c: b, lambda a, b, c: c), lambda t: (t[0], t[1], t[1]))
    assert report == CheckReport("law", strategy, "pass")
    first = sample(Product((Rational(),) * 3), law_seed(3, "law"), 1)[0]
    assert calls == [first, (first[0], first[1], first[1])]
    # the same premise as a predicate has no sides to certify: its draws run
    check_implication("law", ("a", "b", "c"), (Rational(),) * 3,
                      counting(lambda a, b, c: Rational().eq(a + 2 * b, a + 2 * c), walked),
                      Rational().eq, lambda a, b, c: b, lambda a, b, c: c, strategy,
                      lambda t: (t[0], t[1], t[1]))
    assert len(walked) == 501


def test_a_certified_implication_passes_under_exhaustive_over_q():
    report = sides_of(Exhaustive(), [], lambda a, b, c: a * b, lambda a, b, c: a * c,
                      (lambda a, b, c: a * b * c, lambda a, b, c: a * c * c), None)
    assert report == CheckReport("law", Exhaustive(), "pass")


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("left, right, lhs, rhs, construct, verdict", [
    # a == b does not imply a + 1 == b: the copies (a, a) fail
    (lambda a, b: a, lambda a, b: b, lambda a, b: a + 1, lambda a, b: b,
     lambda t: (t[0], t[0]), "fail"),
    # a*b == 0 does not imply a == 0: the copies (0, b) pass, but a draw
    # with b == 0 and a != 0 fails
    (lambda a, b: a * b, lambda a, b: 0, lambda a, b: a, lambda a, b: 0,
     lambda t: (0, t[1]), "fail"),
    # a*a == b*b implies a**4 == b**4, through a multiplier a*a + b*b of
    # degree 2: not certified, so walked
    (lambda a, b: a * a, lambda a, b: b * b, lambda a, b: a ** 4, lambda a, b: b ** 4,
     lambda t: (t[0], -t[0]), "pass"),
], ids=["a + 1 == b", "a == 0", "a**4 == b**4"])
def test_an_uncertified_implication_reports_the_same_without_symbols(
        monkeypatch, seed, left, right, lhs, rhs, construct, verdict):
    def check():
        return sides_of(Sampled(500, seed), [], left, right, (lhs, rhs), construct,
                        names=("a", "b"))

    assert report._decided((Rational(),) * 2, Rational().eq, lhs, rhs, (left, right),
                           construct) != report.Decided.EVERY
    decided = check()
    assert decided.verdict == verdict
    without_symbols(monkeypatch)
    assert check() == decided


@pytest.mark.parametrize("carrier, strategy, evaluated", [
    # a `where` carrier with a predicate has no symbol, over Z/7 as over
    # R64: every draw and copy, or every tuple (a plain Z/7 is certified,
    # see the next test; R64 itself is solved, see
    # test_an_r64_implication_is_solved_through_its_exp_terms)
    (Restricted(ModularInt(7), lambda v: True), Sampled(50), 100),
    (Restricted(ModularInt(7), lambda v: True), Exhaustive(), 7 ** 3),
    (Restricted(Float64(), lambda v: True), Sampled(50), 100),
], ids=["Z/7-sampled", "Z/7-exhaustive", "R64"])
def test_an_implication_over_z_m_or_r64_evaluates_every_draw(carrier, strategy, evaluated):
    calls = []
    report = sides_of(strategy, calls, lambda a, b, c: a + 2 * b, lambda a, b, c: a + 2 * c,
                      (lambda a, b, c: b, lambda a, b, c: c), lambda t: (t[0], t[1], t[1]),
                      carrier=carrier)
    assert report.passed and len(calls) == evaluated


@pytest.mark.parametrize("carrier, k, strategy, evaluated", [
    (ModularInt(7), 1, Sampled(50), 2),  # the first draw and its copy
    (ModularInt(7), 1, Exhaustive(), 2),
    # a + 6*b == a + 6*c implies 3*b == 3*c modulo 9, but no coefficient of
    # the premise, 6 or 3, is a unit modulo 9, so no pivot is taken and the
    # law is walked: every draw and the first copy, or the first draw, its
    # copy and every tuple
    (ModularInt(9), 3, Sampled(50), 51),
    (ModularInt(9), 3, Exhaustive(), 2 + 9 ** 3),
], ids=["Z/7-sampled", "Z/7-exhaustive", "Z/9-sampled", "Z/9-exhaustive"])
def test_an_implication_over_z_p_evaluates_one_draw_and_over_z_9_every_draw(
        carrier, k, strategy, evaluated):
    calls = []
    left, right = lambda a, b, c: a + 2 * k * b, lambda a, b, c: a + 2 * k * c
    conclusion = (lambda a, b, c: k * b, lambda a, b, c: k * c)

    def construct(t):
        return t[0], t[1], t[1]

    result = sides_of(strategy, calls, left, right, conclusion, construct, carrier=carrier)
    assert result.passed and len(calls) == evaluated
    decided = report._decided((carrier,) * 3, carrier.eq, *conclusion, (left, right),
                              construct)
    assert (decided == report.Decided.EVERY) == (evaluated == 2)


def test_an_adversarial_premise_is_answered_within_a_second():
    # 6 dense quadrics in 12 variables, and a dense cubic whose monomials
    # all occur in the multiples of degree 1, so that the support does not
    # refuse it; every attempt stops at the work bound
    fresh = variables()
    xs = [fresh() for _ in range(12)] + [Poly({(): 1})]
    quadrics = [sum(F(i + j, k + 1) * xs[i] * xs[j] for i in range(13) for j in range(i, 13))
                for k in range(6)]
    cubic = sum(F(i + j + k + 1, 3) * xs[i] * xs[j] * xs[k]
                for i in range(13) for j in range(i, 13) for k in range(j, 13))
    start = time.perf_counter()
    assert not has_certificate(quadrics, [cubic])
    assert not has_certificate(quadrics, [quadrics[0] * xs[0] + 1])
    assert time.perf_counter() - start < 1


# a multiplier of degree at most 1, c0 + c1*x1 + c2*x2 + c3*x3
LINEAR = st.lists(st.fractions(-4, 4, max_denominator=3), min_size=4, max_size=4)


@given(st.lists(POLYNOMIALS, min_size=1, max_size=3),
       st.lists(st.lists(LINEAR, min_size=3, max_size=3), min_size=1, max_size=2))
def test_a_combination_of_the_premise_is_certified_and_one_plus_it_is_not(premises,
                                                                         multipliers):
    # no premise polynomial has a constant term, so no combination of them
    # has one
    fresh = variables()
    xs = [fresh() for _ in range(3)]
    monomials = [Poly({(): 1}), *xs]
    pi = [polynomial([(c, m) for c, m in p if m], xs) for p in premises]
    gamma = [sum(sum(c * m for c, m in zip(h, monomials)) * p for h, p in zip(hs, pi))
             for hs in multipliers]
    assert has_certificate(pi, gamma)
    assert not has_certificate(pi, [g + 1 for g in gamma])


# -- implications certified modulo a prime

# an int polynomial in three variables, as (coefficient, monomial) terms,
# and an int multiplier of degree at most 1, c0 + c1*x1 + c2*x2 + c3*x3
INT_POLYNOMIALS = st.lists(st.tuples(st.integers(-6, 6),
                                     st.lists(st.integers(0, 2), max_size=2)), max_size=4)
INT_LINEAR = st.lists(st.integers(-6, 6), min_size=4, max_size=4)


def int_value(terms, xs):
    """The polynomial of these terms at xs, ints or int symbols."""
    return sum((c * math.prod((xs[i] for i in m), start=1) for c, m in terms), start=0)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 5, 7, 9, 15, 25]), st.integers(1, 2),
       st.lists(st.tuples(INT_POLYNOMIALS, INT_POLYNOMIALS), min_size=2, max_size=2),
       st.lists(st.lists(INT_LINEAR, min_size=2, max_size=2), min_size=2, max_size=2),
       st.booleans(), st.integers(1, 6), st.lists(st.integers(0, 2), max_size=2))
def test_an_implication_over_z_p_reports_what_its_exhaustive_walk_reports(
        m, n, premises, multipliers, planted, k, monomial):
    # n premises left_j == right_j over Z/m, and n conclusions
    # sum_j h_ij * (left_j - right_j) == 0, the first one plus k * monomial
    # half the time; without symbols the exhaustive walk of (Z/m)^3 is a
    # complete oracle.  For a prime m every unplanted law is certified; for
    # a composite one a premise with no unit coefficient, such as 0 == 3
    # modulo 9, is refused and walked
    premises = premises[:n]
    slots, eq = (ModularInt(m),) * 3, Vector(ModularInt(m), n).eq

    def side(i):
        return lambda a, b, c: tuple(int_value(pair[i], (a, b, c)) for pair in premises)

    def lhs(a, b, c):
        xs = (a, b, c)
        pi = [int_value(left, xs) - int_value(right, xs) for left, right in premises]
        out = [sum(sum(h * v for h, v in zip(hs[j], (1, *xs))) * pi[j] for j in range(n))
               for hs in multipliers[:n]]
        if planted:
            out[0] += k * math.prod(xs[i] for i in monomial)
        return tuple(out)

    def rhs(a, b, c):
        return (0,) * n

    def check():
        return check_implication("law", ("a", "b", "c"), slots, (side(0), side(1)), eq,
                                 lhs, rhs, Exhaustive())

    decided = check()
    answer = report._decided(slots, eq, lhs, rhs, (side(0), side(1)))
    event(f"m: {m}, planted: {planted}, {answer.name}, {decided.verdict}")
    assert planted or m in (9, 15, 25) or answer == report.Decided.EVERY
    with pytest.MonkeyPatch.context() as patch:
        without_symbols(patch)
        assert check() == decided


@pytest.mark.parametrize("strategy", [Exhaustive(), Sampled(500, 0), Sampled(500, 7)],
                         ids=["exhaustive", "sampled-0", "sampled-7"])
def test_a_cancellation_by_a_scalar_that_may_be_zero_is_walked_over_z_5(monkeypatch,
                                                                        strategy):
    # a*(x - y) == 0 does not imply x == y at a == 0: no certificate, the
    # copies (a, x, x) pass, and the walk finds the witness
    Z5 = ModularInt(5)
    slots = (Z5,) * 3
    premise = (lambda a, x, y: a * (x - y), lambda a, x, y: 0)
    conclusion = (lambda a, x, y: x, lambda a, x, y: y)

    def construct(t):
        return t[0], t[1], t[1]

    def check():
        return check_implication("law", ("a", "x", "y"), slots, premise, Z5.eq, *conclusion,
                                 strategy, construct)

    assert report._decided(slots, Z5.eq, *conclusion, premise, construct) \
        == report.Decided.COPIES
    decided = check()
    assert decided.verdict == "fail" and decided.witness.inputs["a"] % 5 == 0
    without_symbols(monkeypatch)
    assert check() == decided


def test_a_changed_multiplier_coefficient_fails_the_modular_confirmation():
    # g = (2 + 3a) * (a*b - c) modulo 5: the combination that gives it is
    # confirmed, one with a coefficient changed by 1 is not, and one
    # changed by 5 is the same multiplier modulo 5
    fresh = variables()
    a, b, c = (fresh(integer=True) for _ in range(3))
    pi = symbolic.residue(a * b - c, 0, 5)
    g = symbolic.residue((2 + 3 * a) * (a * b - c), 0, 5)
    (va,) = a.terms
    combination = {(0, ()): -2 % 5, (0, va): -3 % 5}
    assert symbolic._confirmed(g, combination, [pi], 5)
    for change in (1, 4, 5):
        changed = {**combination, (0, va): combination[(0, va)] + change}
        assert symbolic._confirmed(g, changed, [pi], 5) is (change == 5)
    assert symbolic._certified([pi], [g], [symbolic.CERTIFICATE_WORK], 5)
    assert not symbolic._certified([pi], [symbolic.residue(g, -1, 5)],
                                   [symbolic.CERTIFICATE_WORK], 5)


@pytest.mark.parametrize("m", [9, 15, 21])
def test_a_composite_modulus_decides_its_implications(monkeypatch, capsys, m):
    # each premise of A6, eq(8) and eq(10) of zmod-algebra and of X4, Y9
    # and Y10 of its conversion has a coefficient that is a unit modulo an
    # odd m, so each is certified modulo m as over a prime
    answers = []

    def decide_spy(*args):
        answer = decide(*args)
        if law_kind(args) == "implication":
            answers.append(answer)
        return answer

    decide = report._decided
    monkeypatch.setattr(report, "_decided", decide_spy)
    fresh = variables()
    a, b = fresh(integer=True), fresh(integer=True)
    (difference,) = ModularInt(m).differences(a, b)
    assert difference.modulus == m and difference.terms == (a - b + m * b).terms
    for argv in (["catalog", "check", "zmod-algebra", "--param", f"m={m}", "--properties"],
                 ["convert", "module-to-space", "zmod-module", "--param", f"m={m}",
                  "--properties", "--affine"]):
        assert run_cli(argv) == 0
    capsys.readouterr()
    assert len(answers) == 6 and set(answers) == {report.Decided.EVERY}


@pytest.mark.parametrize("m, k, answer, verdict", [
    (15, 2, report.Decided.EVERY, "pass"),
    (9, 3, report.Decided.NOTHING, "fail"),
], ids=["Z/15", "Z/9"])
def test_a_cancellation_over_a_composite_modulus_is_certified_by_a_unit_only(
        monkeypatch, m, k, answer, verdict):
    # k*a == k*b implies a == b modulo m exactly when k is a unit modulo m:
    # 2 is one modulo 15, and the certificate pivots on it; 3 is not one
    # modulo 9, so the premise has no pivot, and the walk finds a=0, b=3
    Zm = ModularInt(m)
    slots = (Zm, Zm)
    premise = (lambda a, b: k * a, lambda a, b: k * b)
    conclusion = (lambda a, b: a, lambda a, b: b)

    def check():
        return check_implication("law", ("a", "b"), slots, premise, Zm.eq, *conclusion,
                                 Exhaustive())

    assert report._decided(slots, Zm.eq, *conclusion, premise) == answer
    decided = check()
    assert decided.verdict == verdict
    if verdict == "fail":
        assert decided.witness.inputs == {"a": 0, "b": 3}
    without_symbols(monkeypatch)
    assert check() == decided


CERTIFIED_IMPLICATIONS = {
    **{f"catalog check {name}": ["A6", "eq(8)", "eq(10)"] for name in (
        "canonical-interval-algebra", "rational-line-algebra", "float-line-algebra",
        "lozenge-algebra", "plane-algebra", "tri-algebra")},
    **{f"catalog check {name}": ["X4", "Y9", "Y10"] for name in (
        "canonical-space", "projectile-space", "damped-space", "transported-space",
        "halfplane-space", "lozenge-space", "plane-space", "tri-space",
        "nonaffine-complex-space", "nonaffine-poly-space")},
    **{f"convert module-to-space {name}": ["X4"] for name in (
        "canonical-module", "projectile-module", "damped-module", "plane-module",
        "tri-module", "zmod-module")},
    "catalog check zmod-algebra": ["A6", "eq(8)", "eq(10)"],
}


def test_the_certified_implications_of_the_catalog(monkeypatch, capsys):
    # every implication whose premise compares two sides with the
    # equality of Q, Q[i], R64 or a product of them: through certificates,
    # by a substitution, or by a case split, such as Y10 of
    # projectile-space, a = b or s = t; X4 of halfplane-space and of
    # nonaffine-complex-space solve through their divisors, and those of
    # damped-space through its exp terms
    command, law, certified = [None], [None], {}

    def check_spy(name, *args, **kwargs):
        law[0] = name
        return check(name, *args, **kwargs)

    def decide_spy(*args):
        answer = decide(*args)
        if answer == report.Decided.EVERY and law_kind(args) == "implication":
            certified.setdefault(command[0], []).append(law[0])
        return answer

    check, decide = report._check, report._decided
    monkeypatch.setattr(report, "_check", check_spy)
    monkeypatch.setattr(report, "_decided", decide_spy)
    for argv in catalog_commands(0):
        command[0] = " ".join(argv[:3])
        run_cli(list(argv))
    capsys.readouterr()
    assert certified == CERTIFIED_IMPLICATIONS
    assert sum(map(len, certified.values())) == 57


def benchmark_workloads():
    """bench/workloads.py, which builds the ops of a benchmark pass."""
    bench = str(Path(__file__).parents[1] / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads


# What a seed-0 pass of each benchmark workload decides: the laws (op,
# law) whose sides pass MAX_TERMS and so are decided at the points, the
# equations and the closure predicates decided of those asked, and the
# implications decided at every draw and at their copies only
DECIDED_IN_A_PASS = {
    "catalog": (
        [("catalog check halfplane-space", "Y8")]
        + [("catalog check nonaffine-complex-space", law)
           for law in ("X5", "Y4", "Y5", "Y6", "Y8")]
        + [("catalog check nonaffine-poly-space", law) for law in ("X5", "Y4", "Y5", "Y8")],
        (496, 496), (20, 20), 57, 0),
    "finite": ([], (139, 139), (8, 8), 20, 0),
    "dsl": ([("check cplx", law) for law in ("X5", "Y4", "Y5", "Y6", "Y8")]
            + [("check halfplane", "Y8")],
            (149, 153), (18, 19), 55, 6),
}


@pytest.mark.parametrize("workload", DECIDED_IN_A_PASS)
def test_the_laws_decided_at_the_points(monkeypatch, capsys, tmp_path, workload):
    # a law that moves from an exact decision to the points, or one that
    # is no longer decided, shows here; the search ops decide nothing (a
    # model's laws are walked) and the one child op is left out
    workloads = benchmark_workloads()
    if workload == "dsl":
        ops = workloads.dsl_ops(0, tmp_path, GOLDEN.read_text())[0]
    else:
        ops = getattr(workloads, f"{workload}_ops")(0)
    at, points, answers = [None, None], set(), []
    asked = {"equation": [0, 0], "predicate": [0, 0]}

    def check_spy(name, *args, **kwargs):
        at[1] = name
        return check(name, *args, **kwargs)

    def decide_spy(*args):
        answer = decide(*args)
        kind = law_kind(args)
        if kind == "implication":
            answers.append(answer)
        else:
            asked[kind][0] += answer == report.Decided.EVERY
            asked[kind][1] += 1
        return answer

    def points_spy(p, kind):
        points.add(tuple(at))
        return to_points(p, kind)

    check, decide, to_points = report._check, report._decided, symbolic._points
    monkeypatch.setattr(report, "_check", check_spy)
    monkeypatch.setattr(report, "_decided", decide_spy)
    monkeypatch.setattr(symbolic, "_points", points_spy)
    for op in ops:
        if not (op.child or op.key.startswith("search")):
            at[0] = op.key
            run_cli(list(op.argv))
    capsys.readouterr()
    past, equations, predicates, every, copies = DECIDED_IN_A_PASS[workload]
    assert points == set(past)
    assert tuple(asked["equation"]) == equations
    assert tuple(asked["predicate"]) == predicates
    assert (answers.count(report.Decided.EVERY), answers.count(report.Decided.COPIES)) \
        == (every, copies)


def test_the_halfplane_transcriptions_report_what_their_walks_report(
        monkeypatch, capsys, tmp_path):
    # `Q^2 where v2 > 0` is a sign condition, so the benchmark's halfplane
    # files decide their laws; walked, with no symbols, each gives the same
    # report, the perturbed ones their failures too
    ops = [op for op in benchmark_workloads().dsl_ops(0, tmp_path, GOLDEN.read_text())[0]
           if op.key.startswith("check halfplane")]
    assert [op.key for op in ops] == ["check halfplane", "check halfplane perturbed C",
                                      "check halfplane perturbed B"]
    commands = [op.argv for op in ops]
    decided = outputs(capsys, commands)
    assert [code for _, code, _, _ in decided] == [0, 1, 1]
    without_symbols(monkeypatch)
    assert outputs(capsys, commands) == decided


def test_a_norm_that_recurs_across_laws_is_certified_once(monkeypatch):
    class Memo(dict):
        def __setitem__(self, key, answer):
            stored.append(key)
            super().__setitem__(key, answer)

    def positive_spy(p):
        asked.append(frozenset(symbolic._poly(p).terms.items()))
        return positive(p)

    stored, asked = [], []
    positive = symbolic.positive
    monkeypatch.setattr(symbolic, "_POSITIVE", Memo())
    monkeypatch.setattr(symbolic, "positive", positive_spy)
    space = build("nonaffine-complex-space")
    assert all(r.passed for r in check_space(space, Sampled(20))
               + check_y_properties(space, Sampled(20)) if r.law != "Y8")
    most = max(set(asked), key=asked.count)
    assert asked.count(most) > 10 and stored.count(most) == 1
    assert len(stored) == len(set(stored))


# -- carriers that state their membership as sign conditions

def unit_interval():
    return build("canonical-interval-algebra").carrier


def domains_of(carrier) -> list:
    """The domain of each variable of the carrier's symbol, in order."""
    symbol = carrier.symbol(variables())
    return [symbolic.domain_of(index(v)) for v in (symbol if type(symbol) is tuple else (symbol,))]


def restricted(*conditions, base=Rational()):
    return Restricted(base, conditions=conditions, sampler=lambda rng: None)


@pytest.mark.parametrize("carrier, domains", [
    (unit_interval(), [UNIT]),
    (build("halfplane-space").points, [FREE, POSITIVE]),
    (build("lozenge-algebra").carrier, [UNIT, UNIT]),  # its box's (see below)
    (restricted(Sign(lambda v: v, strict=True)), [POSITIVE]),
    (restricted(Sign(lambda v: v - 2)), [POSITIVE]),
    (restricted(Sign(lambda v: 2 * v - 1), Sign(lambda v: 1 - v)), [UNIT]),
    (restricted(Sign(lambda v: v)), [FREE]),  # v may be 0
    (restricted(Sign(lambda v: v), Sign(lambda v: 2 - v)), [FREE]),
    (restricted(Sign(lambda v: v + 1, strict=True)), [FREE]),
    (restricted(Sign(lambda v: v * v - 1)), [FREE]),
    (restricted(Sign(lambda p: p[0] - p[1], strict=True), base=Vector(Rational(), 2)),
     [FREE, FREE]),
    (restricted(Sign(lambda p: p[0]), base=Vector(unit_interval(), 2)), [UNIT, UNIT]),
], ids=["unit interval", "half-plane", "lozenge", "v > 0", "v >= 2", "1/2 <= v <= 1",
        "v >= 0", "0 <= v <= 2", "v > -1", "v*v >= 1", "v1 > v2", "a restriction's parts"])
def test_a_restricted_carriers_symbol_ranges_over_what_its_conditions_bound(carrier, domains):
    assert domains_of(carrier) == domains


def test_a_restricted_carrier_tests_its_conditions_and_its_predicate_on_numbers():
    positive_rationals = Restricted(Rational(), lambda v: v != 3,
                                    conditions=(Sign(lambda v: v, strict=True),))
    assert [positive_rationals.contains(v) for v in (F(-1), 0, F(1, 2), 3, QI(1))] == [
        False, False, True, False, False]
    two = Restricted(ModularInt(5), conditions=(Sign(lambda v: 2 - v),))
    assert two.elements() == [0, 1, 2] and two.size() == 5
    # the labels stay as they were
    assert str(unit_interval()) == "{Q : 0 <= t <= 1}"
    assert str(build("halfplane-space").points) == "{Q x Q : s > 0}"


def test_an_affine_condition_compares_its_coordinate_with_a_bound():
    unit = unit_interval()
    mixed = Restricted(Vector(Rational(), 2), conditions=(
        Sign(lambda p: 3 * p[0] - 1, strict=True), Sign(lambda p: p[1] * p[1] - 1)),
        sampler=lambda rng: None)
    for p in [(F(1, 3), 1), (F(1, 2), F(1, 2)), (F(1, 2), -1), (0, 2)]:
        assert mixed.contains(p) == (3 * p[0] - 1 > 0 and p[1] * p[1] - 1 >= 0)
    for v in (F(-1, 100), 0, F(1, 2), 1, F(101, 100)):
        assert unit.contains(v) == (0 <= v <= 1)


def test_each_condition_is_evaluated_on_symbols_once():
    # _domains and _box, which symbol() reads, share one evaluation of each
    # g on the base's symbol
    calls = {}

    def counted(k, g):
        def on(p):
            if any(type(v) is Poly for v in p):
                calls[k] = calls.get(k, 0) + 1
            return g(p)
        return on

    carrier = Restricted(Vector(Rational(), 2), conditions=(
        Sign(counted(0, lambda p: 3 * p[0] - 1), strict=True),
        Sign(counted(1, lambda p: p[1] * p[1] - 1))), sampler=lambda rng: None)
    assert carrier.contains((1, 1)) and carrier.symbol(variables()) is not None
    assert calls == {0: 1, 1: 1}


def test_a_carrier_admits_a_symbolic_value_of_its_kind():
    # and a restricted carrier one that meets each of its conditions
    Q, Z5 = Rational(), ModularInt(5)
    assert Q.admits(x * y / (x * x + 1)) and Q.admits(n) and Q.admits(F(1, 2))
    assert not Q.admits(z) and not Q.admits(n % 3)  # an int known only modulo 3
    assert Z5.admits(n % 5) and Z5.admits(3) and not Z5.admits(x) and not Z5.admits(F(1, 2))
    assert GaussianRational().admits(z * w) and GaussianRational().admits(x)
    assert Vector(Rational(), 2).admits((x, y)) and not Vector(Rational(), 2).admits((x,))
    assert not Product((Rational(), Z5)).admits((x, x))
    # R64 has a symbol but admits nothing, so X0 over it keeps its walk: a
    # float exp may overflow at a draw; a `where` carrier has no symbol
    assert not Float64().admits(x) and not Float64().admits(Float64().symbol(fresh))
    assert not Restricted(Float64(), lambda v: v > 0).admits(x)
    unit = unit_interval()
    a, b, c = (unit.symbol(fresh) for _ in range(3))
    assert unit.admits(a + b * (c - a)) and unit.admits(F(1))
    assert not unit.admits(a + b) and not unit.admits(2 * a) and not unit.admits(x)
    points = build("halfplane-space").points
    p, q = points.symbol(fresh), points.symbol(fresh)
    assert points.admits((x, p[1] * a + q[1] * (1 - a)))
    assert not points.admits((x, p[1] * a))  # zero at a = 0
    assert not Restricted(Rational(), lambda v: True, sampler=lambda rng: 0).admits(x)


def carrier_certified() -> dict:
    fresh = variables()
    s, t = fresh(domain=POSITIVE), fresh(domain=POSITIVE)
    a, b, c = (fresh(domain=UNIT) for _ in range(3))

    def last(a):  # halfplane-space's last coordinate, and divisor
        return s + a * (t - s)

    return {
        "s + a*(t - s)": last(a),
        # q(q(x, a, y), b, q(x, c, y)) divides by its last coordinate
        "X5's divisor": last(a) + b * (last(c) - last(a)),
        "2 - a": 2 - a,
        "a*b + (1 - a)*(1 - b) + s": a * b + (1 - a) * (1 - b) + s,
        "s*(1 - a)**2 + a*(1 - a) + t*a**2": s * (1 - a) ** 2 + a * (1 - a) + t * a ** 2,
    }


CARRIER_CERTIFIED = carrier_certified()


@pytest.mark.parametrize("name", CARRIER_CERTIFIED)
def test_a_divisor_positive_on_its_carrier_is_a_factor(name):
    p = CARRIER_CERTIFIED[name]
    assert not positive(p) and nonnegative(p, strict=True) and nonnegative(p)
    quotient = (x + 1) / p
    assert type(quotient) is Quotient and Rational().eq(quotient * p, x + 1)
    assert not nonnegative(-p) and not nonnegative(p - 3, strict=True)


def test_the_carrier_rule_is_exact_at_the_corners_of_the_box():
    # p >= 0 with a zero Bernstein coefficient, and p > 0 refused
    fresh = variables()
    a, b = fresh(domain=UNIT), fresh(domain=UNIT)
    p = a + b * (1 - a)
    assert nonnegative(p) and nonnegative(1 - p) and not nonnegative(p, strict=True)
    assert nonnegative(p * (1 - p)) and not nonnegative(p - F(1, 100))


def test_the_carrier_rule_is_answered_within_its_work_bound():
    # 12 variables in [0, 1], each of degree 2: 3**12 Bernstein coefficients
    fresh = variables()
    p = math.prod(1 + fresh(domain=UNIT) ** 2 for _ in range(12))
    start = time.perf_counter()
    assert type(p) is Points or not nonnegative(p, strict=True)
    assert time.perf_counter() - start < 1


# the factors of a polynomial over two variables > 0 and two in [0, 1]:
# s, t, a, 1 - a, b, 1 - b
BOX_FACTORS = st.lists(st.tuples(st.fractions(0, 4, max_denominator=4),
                                 st.lists(st.integers(0, 5), max_size=3)),
                       min_size=1, max_size=4)


@settings(deadline=None)
@given(BOX_FACTORS, st.fractions(-3, 3, max_denominator=4),
       st.lists(st.integers(0, 3), max_size=3), st.booleans(), st.integers(0, 2 ** 32))
def test_a_polynomial_certified_on_the_carrier_is_positive_at_points_of_its_box(
        products, k, monomial, strict, seed):
    fresh = variables()
    s, t = fresh(domain=POSITIVE), fresh(domain=POSITIVE)
    a, b = fresh(domain=UNIT), fresh(domain=UNIT)
    factors = (s, t, a, 1 - a, b, 1 - b)
    p = sum((c * math.prod((factors[i] for i in m), start=Poly({(): 1})) for c, m in products),
            start=k * math.prod(((s, t, a, b)[i] for i in monomial), start=Poly({(): 1})))
    certified = nonnegative(p, strict)
    event(f"certified: {certified}")
    if certified:
        rng = random.Random(seed)
        for _ in range(200):
            point = {index(s): F(rng.randint(1, 60), rng.randint(1, 12)),
                     index(t): F(rng.randint(1, 60), rng.randint(1, 12)),
                     index(a): F(rng.randint(0, 12), 12), index(b): F(rng.randint(0, 12), 12)}
            value = sum(c * math.prod(point[v] for v in m) for m, c in p.terms.items())
            assert value > 0 if strict else value >= 0


def test_a_factor_zero_at_a_seeded_point_leaves_the_law_walked(monkeypatch):
    # K - a is positive for a in [0, 1], K a 64-bit coordinate, but zero at
    # the first seeded point, where a's coordinate is K; past a MAX_TERMS of
    # 4 the sides are Points, which cannot divide by it there
    unit = unit_interval()
    a = unit.symbol(variables())  # the variable of a law's first slot
    K = symbolic._coordinates(index(a))[0]
    assert nonnegative(K - a, strict=True) and not positive(K - a)
    monkeypatch.setattr(symbolic, "MAX_TERMS", 4)
    answers = []

    def spy(*args):
        answers.append(decide(*args))
        return answers[-1]

    def lhs(a, b, c):
        return (1 + a) * (1 + b) * (1 + c) / (K - a)

    def rhs(a, b, c):
        return (1 + c) * (1 + b) * (1 + a) / (K - a)

    fresh = variables()
    with pytest.raises(Undecided, match="a factor that is zero at a point"):
        lhs(*(unit.symbol(fresh) for _ in range(3)))
    decide = report._decided
    monkeypatch.setattr(report, "_decided", spy)

    def checked():
        return check_equation("vanishing", tuple("abc"), (unit,) * 3, unit.eq, lhs, rhs,
                              Sampled(50))

    decided = checked()
    # walked, not failed
    assert decided.passed and answers == [report.Decided.NOTHING]
    without_symbols(monkeypatch)
    assert checked() == decided


COPIES_LEAVE = {
    # b == 5*a => 1/(2 + a - b) == 1/(2 + a - b): certified, since the
    # conclusion's difference is 0, but the copy (a, 5*a) leaves [0, 1]
    # and divides by 2 - 4*a, zero at a = 1/2
    "certified": lambda a, b: 1 / (2 + a - b),
    # ... == 1/(2 + a - b) + (b - 5*a)*a*a: no certificate of degree 1, so
    # the copy is evaluated afresh, where 1/(2 - 4*a) is refused
    "afresh": lambda a, b: 1 / (2 + a - b) + (b - 5 * a) * a * a,
}


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("name", COPIES_LEAVE)
def test_an_implication_whose_copies_leave_the_carrier_is_walked(monkeypatch, name, seed):
    unit = unit_interval()
    premise = (lambda a, b: b, lambda a, b: 5 * a)

    def lhs(a, b):
        return 1 / (2 + a - b)

    def construct(t):
        return (t[0], 5 * t[0])

    def checked():
        return check_implication("leave", ("a", "b"), (unit, unit), premise, unit.eq, lhs,
                                 COPIES_LEAVE[name], Sampled(200, seed), construct)

    answer = report._decided((unit, unit), unit.eq, lhs, COPIES_LEAVE[name], premise, construct)
    assert answer == report.Decided.NOTHING
    decided = checked()
    assert decided.verdict == "fail" and decided.witness.inputs["a"] == F(1, 2)
    assert decided.witness.lhs.startswith("<error: ")
    without_symbols(monkeypatch)
    assert checked() == decided


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_an_operation_that_leaves_its_carrier_at_a_corner_fails_closure_as_walked(
        monkeypatch, seed):
    # halfplane-space with t - a*t as the last coordinate, 0 at a = 1, and
    # the unit interval's p with a*b*c added, 2 at a = b = c = 1
    def q(x, a, y):
        s, t = x[1], y[1]
        return (x[0] + (y[0] - x[0]) * a * t / (s + a * (t - s)), t - a * t)

    space = replace(build("halfplane-space"), q=q)
    algebra = replace(build("canonical-interval-algebra"),
                      p=lambda a, b, c: a + b * (c - a) + a * b * c)

    def checked():
        strategy = Sampled(500, seed)
        return [check_space(space, strategy)[0], check_algebra(algebra, strategy)[0]]

    decided = checked()
    assert [(r.law, r.verdict) for r in decided] == [("X0", "fail"), ("A0", "fail")]
    assert decided[0].witness.inputs["a"] == 1
    without_symbols(monkeypatch)
    assert checked() == decided


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_halfplane_space_and_every_catalog_predicate_report_the_same_without_symbols(
        capsys, monkeypatch, seed):
    predicates, admitted = [], []

    def spy(*args):
        predicates.append(args)
        return check(*args)

    def admit(*args):
        answer = decide(*args)
        if law_kind(args) == "predicate":
            admitted.append(answer == report.Decided.EVERY)
        return answer

    check, decide = report.check_predicate, report._decided
    monkeypatch.setattr(report, "check_predicate", spy)
    for argv in catalog_commands(seed)[:-2]:  # not the two that stop with an error
        run_cli(list(argv))
    monkeypatch.setattr(report, "check_predicate", check)
    monkeypatch.setattr(report, "_decided", admit)
    command = ["catalog", "check", "halfplane-space", "--properties", "--affine",
               "--samples", "500", "--seed", str(seed), "--report", "json"]

    def checked():
        reports = [check(*args[:5], Sampled(500, seed)) for args in predicates]
        capsys.readouterr()
        code = run_cli(command)
        return reports, code, capsys.readouterr()

    decided = checked()
    # A0 and X0 of every algebra, space and module's space; all but the 3
    # over R64 are admitted, as is halfplane-space's X0 in the command
    assert len(predicates) == 23 and admitted.count(True) == 20 + 1
    assert all(r.passed for r in decided[0]) and decided[1] == 0
    without_symbols(monkeypatch)
    assert checked() == decided


# -- implications decided by solving their premise

POSITIVE_Q = Restricted(Rational(), conditions=(Sign(lambda v: v, strict=True),),
                        label="v > 0", sampler=lambda rng: F(rng.randint(1, 99)))
PAIRS = Product((Rational(), Rational()))


def planted(slots, left, right, lhs, rhs, construct, eq=Rational().eq):
    """What _decided answers for the implication left == right => lhs == rhs."""
    return report._decided(slots, eq, lhs, rhs, (left, right), construct)


@pytest.mark.parametrize("slots, left, right, lhs, rhs, construct, eq, decided", [
    # a*(x - y) == 0 does not give x == y: a may be 0
    ((Rational(),) * 3, lambda a, x, y: a * x, lambda a, x, y: a * y,
     lambda a, x, y: x, lambda a, x, y: y, lambda t: (t[0], t[1], t[1]), Rational().eq, False),
    # a 2x2 block whose determinant a*a - b*b may vanish
    ((Rational(),) * 4, lambda a, b, u, w: (a * u + b * w, b * u + a * w),
     lambda a, b, u, w: (0, 0), lambda a, b, u, w: (u, w), lambda a, b, u, w: (0, 0),
     lambda t: (t[0], t[1], 0, 0), PAIRS.eq, False),
    # and one whose determinant a*a + 1 does not: Cramer's rule
    ((Rational(),) * 4, lambda a, b, u, w: (a * u - w, u + a * w),
     lambda a, b, u, w: (0, 0), lambda a, b, u, w: (u, w), lambda a, b, u, w: (0, 0),
     lambda t: (t[0], t[1], 0, 0), PAIRS.eq, True),
    # t*(y - y2) == 0 gives y == y2 only when t is nowhere zero
    ((Rational(),) * 3, lambda t, y, y2: t * y, lambda t, y, y2: t * y2,
     lambda t, y, y2: y, lambda t, y, y2: y2, lambda t: (t[0], t[1], t[1]), Rational().eq,
     False),
    ((POSITIVE_Q, Rational(), Rational()), lambda t, y, y2: t * y, lambda t, y, y2: t * y2,
     lambda t, y, y2: y, lambda t, y, y2: y2, lambda t: (t[0], t[1], t[1]), Rational().eq,
     True),
    # a*(x - y) == 0 gives a*x*x == a*y*y: a = 0, or x = y
    ((Rational(),) * 3, lambda a, x, y: a * x, lambda a, x, y: a * y,
     lambda a, x, y: a * x * x, lambda a, x, y: a * y * y, lambda t: (t[0], t[1], t[1]),
     Rational().eq, True),
], ids=["a(x - y)", "det a*a - b*b", "det a*a + 1", "t free", "t positive", "a split"])
def test_a_premise_is_solved_only_where_its_coefficient_is_nowhere_zero(
        slots, left, right, lhs, rhs, construct, eq, decided):
    answer = planted(slots, left, right, lhs, rhs, construct, eq)
    assert (answer == report.Decided.EVERY) is decided


def test_a_premise_over_z_m_is_refused_at_once(monkeypatch):
    # Z/m gives no differences, so the solver is never asked; asked about
    # ints, it refuses before solving, even x - y => x - y
    calls = []
    solve = solver._solve
    monkeypatch.setattr(solver, "_solve", lambda *args: calls.append(args) or solve(*args))
    answer = planted((ModularInt(7),) * 3, lambda a, x, y: a * x, lambda a, x, y: a * y,
                     lambda a, x, y: x, lambda a, x, y: y, lambda t: (t[0], t[1], t[1]),
                     ModularInt(7).eq)
    assert answer != report.Decided.EVERY
    fresh = variables()
    m, k = fresh(integer=True), fresh(integer=True)
    assert not solver.solved([m - k], [m - k]) and not solver.solved([(m - k) % 7], [x])
    assert calls == []


def test_a_case_split_is_capped_and_a_refused_solve_is_bounded(monkeypatch):
    fresh = variables()
    a, b, x, y = fresh(), fresh(), fresh(), fresh()
    # a*b*(x - y) == 0 => a*b*(x**3 - y**3) == 0, through a multiplier of
    # degree 2, so by splits: x = y, or a*b = 0, which splits again, a = 0
    # or b = 0
    premise, conclusion = [a * b * (x - y)], [a * b * (x ** 3 - y ** 3)]
    assert not has_certificate(premise, conclusion)
    assert solver.solved(premise, conclusion)
    monkeypatch.setattr(solver, "BRANCHES", 1)
    assert not solver.solved(premise, conclusion)
    monkeypatch.setattr(solver, "BRANCHES", 2)
    # dense premises linear in every variable: refused within the budget
    xs = [fresh() for _ in range(8)]
    dense = [sum(F(i + j + 1, k + 2) * xs[i] * xs[j] for i in range(8) for j in range(i + 1, 8))
             for k in range(3)]
    start = time.perf_counter()
    assert not solver.solved(dense, [xs[0] - xs[1]])
    assert time.perf_counter() - start < 1


# one premise c*(x0 - q) and a conclusion that it may or may not imply:
# c a product of linear factors in x1, x2, x3, which some points make zero
LINEAR_FACTORS = st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
                          min_size=1, max_size=2)


@settings(deadline=None, max_examples=150)
@given(LINEAR_FACTORS, POLYNOMIALS, POLYNOMIALS, POLYNOMIALS, st.integers(0, 2),
       st.booleans(), st.integers(0, 2 ** 32))
def test_a_solved_implication_holds_at_points_that_satisfy_its_premise(
        factors, q, h, e, power, planted_error, seed):
    fresh = variables()
    x0, *xs = [fresh() for _ in range(4)]
    one = Poly({(): 1})
    linear = [sum((k * v for k, v in zip(f[1:], xs)), start=one * f[0]) for f in factors]
    c = math.prod(linear, start=one)
    q, h, e = (polynomial(p, xs) for p in (q, h, e))
    premise = c * (x0 - q)
    conclusion = (x0 - q) * h * c ** power + (e if planted_error else 0)
    answer = solver.solved([premise], [conclusion])
    event(f"solved: {answer}")
    if answer:
        rng = random.Random(seed)
        for _ in range(200):
            point = {index(v): F(rng.randint(-9, 9), rng.randint(1, 4)) for v in xs}
            form = linear[rng.randrange(len(linear))]
            coefficients = [form.terms.get((index(v),), 0) for v in xs]
            if rng.random() < 0.5 and any(coefficients):
                # put the point on the zero set of one linear factor
                j = next(i for i, k in enumerate(coefficients) if k)
                point[index(xs[j])] = 0
                rest = value_at(form, point)
                point[index(xs[j])] = -F(rest) / coefficients[j]
            if value_at(c, point) == 0:
                point[index(x0)] = F(rng.randint(-9, 9), rng.randint(1, 4))
            else:
                point[index(x0)] = value_at(q, point)
            assert value_at(premise, point) == 0
            assert value_at(conclusion, point) == 0


def value_at(p: Poly, point: dict):
    return sum(k * math.prod(point[v] for v in m) for m, k in p.terms.items())


# -- R64 laws decided as identities of polynomials and exp of polynomials

def reals(k: int) -> list:
    """k symbols of R64: rational variables that a float meets exactly."""
    fresh = variables()
    return [Float64().symbol(fresh) for _ in range(k)]


def test_exp_identities_are_decided_and_near_identities_are_not():
    a, b, c = reals(3)
    R, exp = Float64(), carriers.exp
    assert R.eq(exp(a + b), exp(a) * exp(b)) is True
    assert R.eq(exp(2 * a), exp(a) ** 2) is True
    assert R.eq(exp(a) / exp(b), exp(a - b)) is True
    assert R.eq(2.5 * exp(a) / (0.5 * exp(-b)), 5 * exp(a + b)) is True
    # 0*exp(1000 + b) is exactly 0 on symbols, where a float would overflow
    body = "a + b*(c - a) + 0*exp(1000 + b)"
    p = load(f"algebra g {{\n  carrier: R64\n  zero: 0\n  half: 1/2\n  one: 1\n"
             f"  p(a, b, c) = {body}\n}}\n")["g"].p
    assert R.eq(p(a, b, c), a + b * (c - a)) is True
    # exp is no polynomial, and the float math.e is not e: Fraction(math.e)
    # * exp(a) is exp(a + 1) by Lindemann-Weierstrass only if it were e, so
    # the law is walked, and passes within the tolerance
    for left, right in ((exp(a), 1 + a), (exp(a + 1), math.e * exp(a)),
                        (exp(2 * a) - exp(a), 0)):
        with pytest.raises(Undecided):
            R.eq(left, right)
    lhs, rhs = lambda a: exp(a + 1), lambda a: math.e * exp(a)
    assert not report._decided((R,), R.eq, lhs, rhs)
    assert check_equation("e", ("a",), (R,), R.eq, lhs, rhs, Sampled(100)).passed


def scaled_damped_space(scale: float) -> MobiSpace:
    """damped-space, n = 1 and alpha = 1, with its second exponent scaled."""
    def q(x, a, y):
        s, t = x[1], y[1]
        return ((1 - a) * x[0] * carriers.exp(a * (t - s))
                + a * y[0] * carriers.exp(scale * (1 - a) * (s - t)), s + a * (t - s))

    return MobiSpace(build("float-line-algebra"), Vector(Float64(), 2), q)


def test_a_scaled_exponent_leaves_x5_undecided_and_walked(monkeypatch):
    def x5(space):
        q, p = space.q, space.algebra.p
        return (space.points.eq, lambda x, y, a, b, c: q(q(x, a, y), b, q(x, c, y)),
                lambda x, y, a, b, c: q(x, p(a, b, c), y))

    slots = (Vector(Float64(), 2),) * 2 + (Float64(span=2),) * 3
    assert report._decided(slots, *x5(scaled_damped_space(1.0)))
    assert not report._decided(slots, *x5(scaled_damped_space(1.01)))
    decided = check_space(scaled_damped_space(1.01))
    assert next(r for r in decided if r.law == "X5").verdict == "fail"
    without_symbols(monkeypatch)
    assert check_space(scaled_damped_space(1.01)) == decided


def test_r64_checks_that_failed_on_rounding_pass(capsys):
    # Y4 at alpha = 4, and Y5 at seed 40, are identities over R: decided,
    # so the float rounding of their one draw's exp factors stays within
    # tolerance; X4, whose premise holds only within tolerance at a draw, is
    # solved, so that draw is not walked
    assert run_cli(["catalog", "check", "damped-space", "--param", "n=2", "--param",
                    "alpha=4", "--properties", "--affine"]) == 0
    assert capsys.readouterr().out.endswith("checked 17 law(s): all passed\n")
    assert run_cli(["catalog", "check", "damped-space", "--param", "n=2", "--param",
                    "alpha=4", "--properties", "--samples", "17", "--seed", "40"]) == 0
    assert capsys.readouterr().out.endswith("checked 16 law(s): all passed\n")


DAMPED = """\
space damped over float_line_algebra {{
  carrier: R64^2
  param alpha: R64 = 1
  q((x, s), a, (y, t)) = ({A}(1 - a)*x*exp(alpha*a*(t - s)) + a*y*exp(alpha*(1 - a)*(s - t)), s + {B}a*(t - s))
}}
"""


@pytest.mark.parametrize("seed", [0, 1, 11])
def test_damped_definition_files_print_the_same_with_and_without_symbols(
        tmp_path, capsys, monkeypatch, seed):
    # the transcription of damped-space, and each coefficient perturbed:
    # (1 - a)*x times 2 breaks X1, a*(t - s) times 3/2 breaks X2
    commands = []
    for name, fields in (("damped", {"A": "", "B": ""}), ("a", {"A": "2*", "B": ""}),
                         ("b", {"A": "", "B": "(3/2)*"})):
        path = tmp_path / f"{name}.mobi"
        path.write_text(DAMPED.format(**fields))
        commands.append(("check", str(path), "--properties", "--samples", "100",
                         "--seed", str(seed), "--report", "json"))
    decided = outputs(capsys, commands)
    assert [code for _, code, _, _ in decided] == [0, 1, 1]
    failed = [[r["law"] for r in json.loads(out) if r["verdict"] == "fail"]
              for _, _, out, _ in decided[1:]]
    assert failed[0][0] == "damped.X1" and failed[1][0] == "damped.X2"
    without_symbols(monkeypatch)
    assert outputs(capsys, commands) == decided


def test_an_r64_implication_is_solved_through_its_exp_terms():
    # as over Q: the first draw and its copy, then the premise is solved
    calls, R = [], Float64()
    assert sides_of(Sampled(50), calls, lambda a, b, c: a + 2 * b, lambda a, b, c: a + 2 * c,
                    (lambda a, b, c: b, lambda a, b, c: c), lambda t: (t[0], t[1], t[1]),
                    carrier=R).passed and len(calls) == 2
    exp, slots = carriers.exp, (R,) * 3

    def solved(left, right, lhs, rhs):
        return planted(slots, left, right, lhs, rhs, None, R.eq) == report.Decided.EVERY

    # exp(a) is nowhere zero: exp(a)*b = exp(a)*c gives b = c
    assert solved(lambda a, b, c: exp(a) * b, lambda a, b, c: exp(a) * c,
                  lambda a, b, c: b, lambda a, b, c: c)
    # c = a makes exp(c - b) exp(a - b), X4's shape: a substitution into
    # an exponent
    pair = Vector(R, 2).eq
    assert planted(slots, lambda a, b, c: (c - a, b * exp(c - b)), lambda a, b, c: (0, 0),
                   lambda a, b, c: (b * exp(a - b), 0), lambda a, b, c: (0, 0), None,
                   pair) == report.Decided.EVERY
    # b = 0 meets exp(a)*b = exp(c)*b with a != c; and exp(a) = exp(c) gives
    # a = c over R, which the solver, taking exp(a) for a positive variable
    # of its own, does not show
    for left, right in ((lambda a, b, c: exp(a) * b, lambda a, b, c: exp(c) * b),
                        (lambda a, b, c: exp(a), lambda a, b, c: exp(c))):
        assert not solved(left, right, lambda a, b, c: a, lambda a, b, c: c)
    # b = (c*c + 1) / (a*a + 1) is a quotient, which an exponent cannot
    # take: its numerator alone would make exp(b*(a*a + 1)) the right side
    assert not solved(lambda a, b, c: (a * a + 1) * b, lambda a, b, c: c * c + 1,
                      lambda a, b, c: exp(b * (a * a + 1)),
                      lambda a, b, c: exp((c * c + 1) * (a * a + 1)))


def test_every_r64_equation_of_damped_module_is_decided(monkeypatch):
    walked = []

    def spy(law, *args, walk=None, **kwargs):
        if walk is None:
            walked.append(law)
        return check(law, *args, walk=walk, **kwargs)

    check = report._check
    monkeypatch.setattr(report, "_check", spy)
    module, strategy = build("damped-module"), Sampled(10 ** 6)
    reports = check_ring(module.ring, strategy) + check_module(module, strategy)
    assert len(reports) == 19 and all(r.passed for r in reports)
    assert walked == ["half-plus-half"]  # the one law without variables


def test_the_lozenge_closures_are_decided_on_its_box(monkeypatch):
    # the lozenge's symbol writes (a1, a2) in two UNIT variables, so the
    # Bernstein test admits A0 of lozenge-algebra and X0 of lozenge-space:
    # each evaluates its one seeded draw on numbers, and nothing else
    admitted = []
    decide = report._decided
    monkeypatch.setattr(report, "_decided",
                        lambda *args: admitted.append(decide(*args)) or admitted[-1])
    space = build("lozenge-space")
    lozenge = space.algebra.carrier
    for law, slots, value, carrier in [
            ("A0", (lozenge,) * 3, space.algebra.p, lozenge),
            ("X0", (space.points, lozenge, space.points), space.q, space.points)]:
        values = []
        decided = check_predicate(law, ("x", "a", "y"), slots,
                                  lambda *args: values.append(args) or value(*args),
                                  carrier.contains, Sampled(500))
        on_numbers = [args for args in values
                      if not any(type(v) is Poly for a in args for v in flat(a))]
        assert decided.passed and len(values) == 2 and len(on_numbers) == 1
        assert report._admitting(carrier.contains) is carrier
    assert admitted == [report.Decided.EVERY] * 2


def flat(value) -> tuple:
    """The parts of a tuple, nested, or the value itself."""
    return sum(map(flat, value), ()) if type(value) is tuple else (value,)


def box_coordinates(carrier) -> list:
    """The terms of each coordinate of a restricted carrier's symbol, its
    variables named w1, w2, ... in the order the symbol makes them."""
    symbol = carrier.symbol(variables())
    units = sorted({v for part in symbol for m in part.terms for v in m})
    names = {v: f"w{i}" for i, v in enumerate(units, 1)}
    return [{tuple(names[v] for v in m): c for m, c in part.terms.items()} for part in symbol]


@pytest.mark.parametrize("sqrt_k", [F(1, 2), F(1), F(3)])
def test_the_lozenge_is_the_unit_square_in_its_box_variables(sqrt_k):
    # w1 = a1 - sqrt_k a2 and w2 = a1 + sqrt_k a2, each in [0, 1], so
    # a1 = (w1 + w2)/2 and a2 = (w2 - w1)/(2 sqrt_k); its members map back
    # to (w1, w2) and the box's corners to the lozenge's
    carrier = build("lozenge-algebra", sqrt_k=sqrt_k).carrier
    assert carrier.member is None and len(carrier.conditions) == 4
    half = F(1, 2)
    assert box_coordinates(carrier) == [{("w1",): half, ("w2",): half},
                                        {("w1",): -half / sqrt_k, ("w2",): half / sqrt_k}]
    symbol = carrier.symbol(variables())
    units = sorted({v for part in symbol for m in part.terms for v in m})
    assert [symbolic.domain_of(v) for v in units] == [UNIT, UNIT]
    corners = [carrier.element(symbol, dict(zip(units, w)))
               for w in [(0, 0), (1, 0), (0, 1), (1, 1)]]
    assert corners == [(0, 0), (half, -half / sqrt_k), (half, half / sqrt_k), (1, 0)]
    assert carrier.element(symbol, dict(zip(units, (2, 2)))) is None  # (2, 0)
    assert carrier.admits(symbol)


@pytest.mark.parametrize("carrier", [
    unit_interval(), build("halfplane-space").points,
    restricted(Sign(lambda v: v), Sign(lambda v: 2 - v)),
    restricted(Sign(lambda p: p[0]), Sign(lambda p: 2 - p[0]), Sign(lambda p: p[1] - 1),
               Sign(lambda p: 3 - p[1]), base=Vector(Rational(), 2)),
    restricted(Sign(lambda p: p[0] - p[1]), Sign(lambda p: 1 - p[0] + p[1]),
               Sign(lambda p: p[0] + p[1]), base=Vector(Rational(), 2)),
    restricted(Sign(lambda p: p[0] - p[1]), Sign(lambda p: 1 - p[0] + p[1]),
               Sign(lambda p: p[0] + p[1]), Sign(lambda p: p[1] - p[0] + 2),
               base=Vector(Rational(), 2)),
], ids=["unit interval", "half-plane", "0 <= v <= 2", "a box in each coordinate",
        "one slab", "two slabs, one direction"])
def test_a_carrier_whose_conditions_bound_no_parallelotope_keeps_its_domains(carrier):
    # one coordinate per condition, or fewer independent slabs than
    # coordinates: the symbol is the base's, each variable in its domain
    assert carrier._box is None
    assert all(len(part.terms) == 1 for part in flat(carrier.symbol(variables())))


def parallelotope(A, d, c, strict=False):
    """The carrier {x in Q^2 : 0 <= (A x + d)_i <= c_i}, strictly at the
    first lower and the second upper bound when strict, whose sampler maps
    two unit draws w to x = A^-1 (c * w - d), each w off a strict bound."""
    (p, q), (r, s) = A
    det = F(p * s - q * r)

    def l(i):
        return lambda x: A[i][0] * x[0] + A[i][1] * x[1] + d[i]

    def draw(rng):
        w = [_draw_unit(rng), _draw_unit(rng)]
        if strict:
            w = [F(1, 2) if w[0] == 0 else w[0], F(1, 2) if w[1] == 1 else w[1]]
        u, v = (c[i] * w[i] - d[i] for i in range(2))
        return ((s * u - q * v) / det, (p * v - r * u) / det)

    return Restricted(Vector(Rational(), 2), conditions=(
        Sign(l(0), strict), Sign(lambda x: c[0] - l(0)(x)),
        Sign(l(1)), Sign(lambda x: c[1] - l(1)(x), strict)), sampler=draw)


SMALL = st.sampled_from([F(-3), F(-1), F(-1, 2), F(0), F(1, 3), F(1), F(2)])
SCALES = st.sampled_from([F(1, 2), F(1), F(2), F(3)])


@st.composite
def parallelotopes(draw):
    # A rational and nonsingular, with a row in both coordinates: else
    # every condition bounds one coordinate, and the symbol is the base's
    A = draw(st.tuples(st.tuples(SMALL, SMALL), st.tuples(SMALL, SMALL)).filter(
        lambda A: A[0][0] * A[1][1] != A[0][1] * A[1][0] and any(all(row) for row in A)))
    d = draw(st.tuples(SMALL, SMALL))
    c = draw(st.tuples(SCALES, SCALES))
    return parallelotope(A, d, c, draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(parallelotopes(), st.sampled_from(["affine", "quadratic"]),
       st.sampled_from([F(0), F(1, 3), F(1), F(3, 2), F(-1, 2)]), st.integers(0, 3))
def test_a_parallelotope_reports_what_its_walk_reports(carrier, kind, t, seed):
    # x + t (y - x), and x + t w1(z) (y - x) for the box variable w1 of z,
    # stay in the parallelotope for t in [0, 1] and may leave it otherwise;
    # a closure, an equation and an implication (false where t w1(x) = 0)
    # report the same decided as walked, the implication's copies kept in
    # the box
    assert carrier._box is not None
    w1 = carrier.conditions[0].g
    width = carrier.conditions[1].g((0, 0)) + w1((0, 0))  # c_1

    def op(x, y, z):
        s = t if kind == "affine" else t * w1(z) / width
        return tuple(a + s * (b - a) for a, b in zip(x, y))

    eq, slots = carrier.eq, (carrier,) * 3
    strategy = Sampled(30, seed)

    def reports():
        return [
            check_predicate("closed", ("x", "y", "z"), slots, op, carrier.contains, strategy),
            check_equation("idempotent", ("x", "z"), slots[:2], eq,
                           lambda x, z: op(x, x, z), lambda x, z: x, strategy),
            check_implication("cancel", ("x", "y", "z"), slots,
                              (lambda x, y, z: op(x, y, x), lambda x, y, z: op(x, z, x)),
                              eq, lambda x, y, z: y, lambda x, y, z: z, strategy,
                              lambda a: (a[0], a[1], a[1])),
        ]

    decided = reports()
    with pytest.MonkeyPatch.context() as patch:
        without_symbols(patch)
        assert reports() == decided
    # on the closed box, a strict bound is met only by a walk
    closed = 0 <= t <= 1
    admitted = report._decided(slots, lambda v, _: carrier.admits(v), op, report._nothing)
    assert admitted == (report.Decided.EVERY if closed and not carrier.conditions[0].strict
                        else report.Decided.NOTHING)
    assert decided[0].passed or not closed


def test_a_lozenge_operation_that_leaves_the_box_at_a_corner_fails_with_the_walks_witness(
        monkeypatch):
    # w1 := w1 + (w1 w2)^2 / 4 leaves the unit square only near w = (1, 1),
    # a = (1, 0): in (a1, a2), with w1 w2 = a1^2 - a2^2, it moves a1 by
    # e = (a1^2 - a2^2)^2 / 8 and a2 by -e
    lozenge = build("lozenge-algebra").carrier

    def corner(a):
        e = (a[0] * a[0] - a[1] * a[1]) ** 2 / 8
        return (a[0] + e, a[1] - e)

    def check():
        return check_predicate("A0", ("a",), (lozenge,), corner, lozenge.contains, Sampled(500))

    decided = check()
    assert not decided.passed and not lozenge.contains(decided.witness.lhs)
    assert report._decided((lozenge,), lambda v, _: lozenge.admits(v), corner,
                           report._nothing) == report.Decided.NOTHING
    without_symbols(monkeypatch)
    assert check() == decided


EXPRESSION_LEAVES = (st.tuples(st.just("v"), st.integers(0, 1))
                     | st.tuples(st.just("k"), st.sampled_from([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0])))
# polynomials in two variables, and sums and products of them and of exp of them
EXPONENTS = st.recursive(EXPRESSION_LEAVES,
                         lambda sub: st.tuples(st.sampled_from("+-*"), sub, sub), max_leaves=3)
EXP_POLYNOMIALS = st.recursive(EXPRESSION_LEAVES | st.tuples(st.just("exp"), EXPONENTS),
                               lambda sub: st.tuples(st.sampled_from("+-*"), sub, sub),
                               max_leaves=5)


SYMBOLS = reals(2)


def exp_value(e, env):
    """e at env, floats or symbols alike: exp is carriers.exp."""
    if e[0] == "v":
        return env[e[1]]
    if e[0] == "k":
        return e[1]
    if e[0] == "exp":
        return carriers.exp(exp_value(e[1], env))
    if e[0] == "**":
        return exp_value(e[1], env) ** e[2]
    a, b = exp_value(e[1], env), exp_value(e[2], env)
    return {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv}[e[0]](a, b)


def variable(e) -> bool:
    """Whether a variable occurs in e, so that exp of it is a symbolic exp
    term rather than the float math.exp of a number."""
    return e[0] == "v" or (e[0] != "k" and any(variable(u) for u in e[1:3]
                                                if type(u) is tuple))


def rewritten(e, rng: random.Random):
    """An expression equal to e over R, as the float code computes it:
    exp(u + v) as exp(u) * exp(v) and exp(u - v) as exp(u) / exp(v) where
    both u and v have a variable, exp(k*u) for k in 0..2 as exp(u)**k where
    u has one, products distributed over sums where each product keeps one,
    and sums and products swapped.  Without a variable exp is the float
    math.exp, for which exp(2k) and exp(k)**2 may differ in the last place,
    and a sum or product of numbers is a rounded float: (v + k)*exp(k') is
    not v*exp(k') + fl(k*exp(k')) over R."""
    if e[0] in "vk":
        return e
    if e[0] == "exp":
        u = e[1]
        if u[0] in "+-" and variable(u[1]) and variable(u[2]) and rng.random() < 0.7:
            op = "*" if u[0] == "+" else "/"
            return (op, rewritten(("exp", u[1]), rng), rewritten(("exp", u[2]), rng))
        if u[0] == "*" and u[1][0] == "k" and u[1][1] in (0.0, 1.0, 2.0) and variable(u[2]):
            return ("**", rewritten(("exp", u[2]), rng), int(u[1][1]))
        return ("exp", rewritten(u, rng))
    op, u, v = e
    if (op == "*" and u[0] in "+-" and variable(u)
            and (variable(v) or variable(u[1]) and variable(u[2]))
            and rng.random() < 0.5):
        w = rewritten(v, rng)
        return (u[0], ("*", rewritten(u[1], rng), w), ("*", rewritten(u[2], rng), w))
    u, v = rewritten(u, rng), rewritten(v, rng)
    return (op, v, u) if op in "+*" and rng.random() < 0.5 else (op, u, v)


def doubled(e):
    """e with the exponent u of its first exp(u) doubled, or None when e
    has no exp."""
    if e[0] in "vk":
        return None
    if e[0] == "exp":
        return ("exp", ("*", ("k", 2.0), e[1]))
    for k in (1, 2):
        d = doubled(e[k])
        if d is not None:
            return e[:k] + (d,) + e[k + 1:]
    return None


@settings(max_examples=150, deadline=None)
@given(EXP_POLYNOMIALS, st.integers(0, 2 ** 16), st.booleans(), EXP_POLYNOMIALS)
def test_a_decided_exp_polynomial_identity_holds_at_float_points(e, seed, same, other):
    # e against a rewriting of it, an identity over R that must be decided,
    # or against a rewriting of e with one exponent doubled (or, with no
    # exp in e, e plus another expression), which may or may not be equal;
    # wherever equal decides, floats agree at 100 seeded points in [-1, 1]
    rng = random.Random(seed)
    right = rewritten(e if same else doubled(e) or ("+", e, other), rng)
    try:
        decided = Float64().eq(*(exp_value(f, SYMBOLS) for f in (e, right)))
    except Undecided:
        decided = False
    event(f"same: {same}, decided: {decided}")
    assert decided or not same
    if decided:
        for _ in range(100):
            point = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
            left_value, right_value = exp_value(e, point), exp_value(right, point)
            assert abs(left_value - right_value) <= carriers.FLOAT_ATOL + carriers.FLOAT_RTOL * max(
                abs(left_value), abs(right_value)), (e, right, point)


# -- the exact-rational kernel

KERNEL_MONOMIALS = st.lists(st.integers(0, 9), max_size=3).map(lambda m: tuple(sorted(m)))
KERNEL_INTS = st.integers(1, 9) | st.integers(-9, -1)
KERNEL_FRACTIONS = st.builds(F, KERNEL_INTS, st.integers(1, 6))
KERNEL_RATIONALS = st.one_of(KERNEL_INTS, KERNEL_FRACTIONS, KERNEL_FRACTIONS.map(_Fraction))
# the kinds of a Poly: a rational, a double, an int, and ints known modulo 4 or 6
KERNEL_KINDS = ((True, 0), (REAL, 0), (False, 0), (False, 4), (False, 6))


@st.composite
def kernel_polys(draw):
    rational, modulus = draw(st.sampled_from(KERNEL_KINDS))
    coefficients = KERNEL_RATIONALS if rational else KERNEL_INTS
    return Poly(draw(st.dictionaries(KERNEL_MONOMIALS, coefficients, max_size=14)),
                rational, modulus)


KERNEL_CONSTANTS = st.one_of(
    st.sampled_from([0, 1, -1, F(1), _Fraction(1), _Fraction(-1), F(4), _Fraction(-6, 3),
                     0.0, 1.0, -2.0, 0.375]),
    st.integers(-50, 50), KERNEL_RATIONALS)


def generic_operand(x, kind) -> tuple:
    """(terms, rational, modulus) of an operand of a Poly of the given kind,
    with Fraction coefficients for rationals."""
    if type(x) is Poly:
        return dict(x.terms), x.rational, x.modulus
    if type(x) is int:
        return ({(): x} if x else {}), False, 0
    if isinstance(x, F) or (type(x) is float and kind == REAL):
        return ({(): F(x)} if x else {}), (REAL if type(x) is float else True), 0
    raise Undecided("an operand off the polynomials")


def generic_sum(a: dict, b: dict) -> dict:
    """a + b as Poly.__add__ sums: a new monomial at the end, a summed one
    moved there, a zero sum dropped."""
    out = dict(a)
    for m, c in b.items():
        s = out.pop(m, None)
        if s is not None:
            c = s + c
            if not c:
                continue
        out[m] = c
    return out


def generic_product(a: dict, b: dict) -> dict | None:
    """a * b term pair by term pair, each monomial sorted; None when a
    partial product passes MAX_TERMS."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m, c = tuple(sorted(m1 + m2)), c1 * c2
            s = out.pop(m, None)
            if s is not None:
                c = s + c
                if not c:
                    continue
            out[m] = c
        if len(out) > MAX_TERMS:
            return None
    return out


def at_point(x, point: int):
    """The exact value of a Poly or a number at one of the seeded points."""
    if type(x) is not Poly:
        return F(x)
    return sum((F(c) * math.prod(symbolic._coordinates(v)[point] for v in m)
                for m, c in x.terms.items()), F(0))


def generic(op: str, left, right):
    """left op right as the generic loops compute it, in the form outcome gives."""
    poly, other = (left, right) if type(left) is Poly else (right, left)
    b, rational, modulus = generic_operand(other, poly.rational)
    rational, modulus = max(poly.rational, rational), math.gcd(poly.modulus, modulus)
    if rational and modulus:
        raise Undecided("a rational with an int known modulo g")
    a = dict(poly.terms)
    if op == "*":
        out = generic_product(a, b)
    elif op == "+":
        out = generic_sum(a, b)
    elif poly is left:
        out = generic_sum(a, {m: -c for m, c in b.items()})
    else:
        out = generic_sum(b, {m: -c for m, c in a.items()})
    if out is not None and len(out) <= MAX_TERMS:
        return "terms", list(out.items()), rational, modulus
    if not rational:
        raise Undecided("an int past the cap")
    # past the cap: the exact values at the points and bounds on the degrees
    fn = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]
    values = tuple(fn(at_point(left, k), at_point(right, k)) for k in range(symbolic.POINTS))
    degrees = [max(map(len, x.terms), default=0) if type(x) is Poly else 0
               for x in (left, right)]
    return "points", values, sum(degrees) if op == "*" else max(degrees), 0


def outcome(thunk):
    """What thunk gives: "undecided", or a Poly's terms, in order, and kind, or
    a Points' values and degree bounds (generic gives these forms itself)."""
    try:
        x = thunk()
    except Undecided:
        return "undecided"
    if type(x) is tuple:
        return x
    if type(x) is Points:
        return "points", x.values, x.num, x.den
    return "terms", list(x.terms.items()), x.rational, x.modulus


# each monomial of the 13-term operand is a variable, of the other a square,
# so their 169 products are distinct: past MAX_TERMS, ordered and interleaved;
# a difference passes it from MAX_TERMS terms
KERNEL_PAST_THE_CAP = (Poly({(v,): v + 1 for v in range(13)}),
                Poly({(v, v): _Fraction(1, v + 2) for v in range(13)}))


@settings(max_examples=300, deadline=None)
@given(kernel_polys(), st.sampled_from("+-*"), st.booleans(),
       st.one_of(kernel_polys(), KERNEL_CONSTANTS))
@example(KERNEL_PAST_THE_CAP[0], "*", False, KERNEL_PAST_THE_CAP[1])
@example(KERNEL_PAST_THE_CAP[1], "*", True, KERNEL_PAST_THE_CAP[0])
@example(Poly(KERNEL_PAST_THE_CAP[0].terms, False), "*", False,
         Poly({(v, v): 2 for v in range(13)}, False))
@example(Poly({(1, 2): 3, (): 1}), "-", False, Poly({(3,): 1, (1, 2): 3, (0,): F(1, 2)}))
@example(Poly({(v,): 1 for v in range(MAX_TERMS)}), "-", False, Poly({(0,): 3, (MAX_TERMS,): 2}))
@example(Poly({(v,): 1 for v in range(MAX_TERMS)}), "-", True, _Fraction(5, 2))
def test_polynomial_arithmetic_matches_the_generic_loops(p, op, reflected, x):
    # the fast paths of +, - and * (a constant operand, monomials already in
    # order, a one-pass difference) give the terms, in the same order, the
    # kind and, past MAX_TERMS, the values at the points and the degree
    # bounds of the generic loops; a constant or a Poly on either side
    left, right = (x, p) if reflected else (p, x)
    fn = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]
    want = outcome(lambda: generic(op, left, right))
    event(f"{op}: {want[0] if type(want) is tuple else want}")
    assert outcome(lambda: fn(left, right)) == want


@pytest.mark.parametrize("entry", ["nonaffine-complex-space", "damped-space"])
def test_polynomial_coefficients_stay_on_the_kernels_fast_paths(monkeypatch, capsys, entry):
    # every coefficient is an int or the kernel's _Fraction, so that each
    # product of coefficients skips Fraction's generic dispatch; damped-space's
    # float operands enter as exact rationals
    seen = set()
    init = Poly.__init__

    def spy(self, terms, *kind):
        seen.update(map(type, terms.values()))
        init(self, terms, *kind)

    monkeypatch.setattr(Poly, "__init__", spy)
    assert run_cli(["catalog", "check", entry, "--properties", "--affine", "--seed", "0"]) in (0, 1)
    capsys.readouterr()
    assert seen and seen <= {int, _Fraction}, seen


# the kinds that take Poly's same-kind path: equal `rational`, both moduli 0
SAME_KINDS = ((True, 0), (REAL, 0), (False, 0))


@st.composite
def same_kind_pairs(draw):
    rational, modulus = draw(st.sampled_from(SAME_KINDS))
    coefficients = KERNEL_RATIONALS if rational else KERNEL_INTS
    return tuple(Poly(draw(st.dictionaries(KERNEL_MONOMIALS, coefficients, max_size=14)),
                      rational, modulus) for _ in range(2))


def counting_operands(monkeypatch) -> list:
    """A list that each call of symbolic._operand appends its operand to."""
    calls, operand = [], symbolic._operand
    monkeypatch.setattr(symbolic, "_operand",
                        lambda x, *kind: calls.append(x) or operand(x, *kind))
    return calls


@settings(max_examples=200, deadline=None)
@given(same_kind_pairs(), st.sampled_from("+-*"))
@example(KERNEL_PAST_THE_CAP, "*")
@example((Poly({(v,): 1 for v in range(MAX_TERMS)}),
          Poly({(v,): 2 for v in range(MAX_TERMS // 2, MAX_TERMS + MAX_TERMS // 2)})), "+")
@example((Poly({(v,): 1 for v in range(MAX_TERMS)}), Poly({(MAX_TERMS,): 1})), "-")
def test_a_same_kind_poly_operand_gives_what_the_general_path_gives(pair, op):
    # p op q with q of p's kind skips _operand and _kind, and gives the terms
    # in the same order, the kind, or past MAX_TERMS the same Points, as the
    # generic loops and as the general path: the operand of a lower exact
    # kind, which takes p's kind there
    p, q = pair
    fn = {"+": operator.add, "-": operator.sub, "*": operator.mul}[op]
    with pytest.MonkeyPatch.context() as patch:
        calls = counting_operands(patch)
        fast = outcome(lambda: fn(p, q))
    assert not calls
    assert fast == outcome(lambda: generic(op, p, q))
    if p.rational:
        lower = Poly(q.terms, True if p.rational is REAL else False)
        with pytest.MonkeyPatch.context() as patch:
            calls = counting_operands(patch)
            assert outcome(lambda: fn(p, lower)) == fast
        assert calls


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_a_rational_with_an_int_known_modulo_m_stays_undecided(op):
    fresh = variables()
    x, n = fresh(), fresh(integer=True) % 7
    for left, right in ((x, n), (n, x), (x + 1, n * n), (_Fraction(1, 2), n)):
        with pytest.raises(Undecided, match="modulo 7"):
            op(left, right)
    # two ints known modulo 7 stay so, off the same-kind path
    assert op(n, n + 1).modulus == 7 and not op(n, n + 1).rational


def qi_parts(z) -> tuple:
    """A QI's two parts as the QI fast-path test compares them: a symbol's
    terms in order (a Quotient's numerator's and each factor's, with its
    key and exponent), and a number's value as the terms of a constant, since
    the general path makes a number half a constant Poly when it adds the
    product by zero of a symbolic other half."""
    def part(x):
        if type(x) is Quotient:
            return list(x.num.terms.items()), [
                (key, list(f.terms.items()), e) for key, (f, e) in x.den.items()]
        return list(x.terms.items()) if type(x) is Poly else [((), F(x))] if x else []
    assert type(z) is QI
    return part(z.re), part(z.im)


# each form of a QI's parts: numbers, rational variables, a variable and a
# number, and quotients (1 / (x + i) = x / (x*x + 1) - i / (x*x + 1))
def qi_operands():
    fresh = variables()
    x, y, s = fresh(), fresh(), fresh()
    zs = {"numbers": QI(_Fraction(1, 2), _Fraction(-3)), "symbols": QI(x, y),
          "a symbol and a number": QI(x * y - 1, _Fraction(2, 5)),
          "quotients": 1 / QI(x, 1)}
    rs = {"an int": 3, "a _Fraction": _Fraction(-5, 7), "a Poly": s * s + 2 * x,
          "a Quotient": (1 / QI(s, 1)).re}
    return zs, rs


QI_ZS, QI_RS = qi_operands()

# each operation with a real operand r, and the general path that it keeps:
# QI(r, 0) in r's place; Python hands r + z and r * z to QI's __radd__ and
# __rmul__, which are __add__ and __mul__
QI_CASES = {
    "z * r": (lambda z, r: z * r, lambda z, r: z * QI(r, 0)),
    "r * z": (lambda z, r: r * z, lambda z, r: z * QI(r, 0)),
    "z + r": (lambda z, r: z + r, lambda z, r: z + QI(r, 0)),
    "r + z": (lambda z, r: r + z, lambda z, r: z + QI(r, 0)),
    "z - r": (lambda z, r: z - r, lambda z, r: z - QI(r, 0)),
    "r - z": (lambda z, r: r - z, lambda z, r: QI(r, 0) - z),
}


@pytest.mark.parametrize("r", QI_RS.values(), ids=list(QI_RS))
@pytest.mark.parametrize("z", QI_ZS.values(), ids=list(QI_ZS))
@pytest.mark.parametrize("case", QI_CASES.values(), ids=list(QI_CASES))
def test_a_qi_with_a_real_operand_gives_what_qi_of_it_gives(case, z, r):
    # a _Fraction or a symbol meets only the nonzero half; the values, and on
    # symbols the terms in order, are those of the general path
    fast, general = case
    assert qi_parts(fast(z, r)) == qi_parts(general(z, r))
