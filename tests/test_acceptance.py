"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL
line on the live terminal, bypassing capture, so a `pytest -v` run shows
the verdicts inline.
"""
import json
import math
import time
from fractions import Fraction as F
from pathlib import Path

from mobikit import (QI, Exhaustive, MobiAlgebra, PointedMobiSpace, Rational,
                     Restricted, Sampled, all_passed, build, check_affine,
                     check_algebra, check_algebra_morphism,
                     check_commutativity_condition, check_module,
                     check_properties, check_y_properties, default_origin,
                     list_catalog, load, module_to_space, roundtrip_module,
                     roundtrip_space, sample, search_finite, space_to_module,
                     transport_morphism)
from mobikit.cli import run_cli

GOLDEN = Path(__file__).parent / "data" / "projectile.mobi"
FULL = Sampled(samples=500, seed=0)


def _verdict(capsys, number, ok, note):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {note}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_exhaustive_axiom_suite_on_odd_moduli(capsys):
    start = time.perf_counter()
    ok = True
    for m in (3, 5):
        alg = build("zmod-algebra", m=m)
        ok = ok and all_passed(check_algebra(alg, Exhaustive()))
        ok = ok and all_passed(check_properties(alg, Exhaustive()))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _verdict(capsys, 1, ok,
             f"closure, A1-A8 and eq(6)-eq(14) exhaustive on zmod 3 and 5 "
             f"in {elapsed:.2f}s")


def test_criterion_02_complex_counterexample_is_bit_exact(capsys):
    report = check_affine(build("nonaffine-complex-space"),
                          Sampled(samples=1, seed=0))
    w = report.witness
    ok = (not report.passed and w is not None
          and w.inputs["x1"] == (QI(0), F(0))
          and w.inputs["y1"] == (QI(0), F(1))
          and w.inputs["x2"] == (QI(1), F(0))
          and w.inputs["y2"] == (QI(0), F(0))
          and w.inputs["a"] == F(-1, 2)
          and w.difference == (QI(F(3, 20)), F(0)))
    _verdict(capsys, 2, ok,
             "affine check on the complex line pair reports difference "
             "(3/20, 0) at the pinned assignment, zero tolerance")


def test_criterion_03_derived_module_matches_closed_forms(capsys):
    proj = space_to_module(
        PointedMobiSpace(build("projectile-space"), (F(0), F(0))))
    xs = sample(proj.points, seed=11, n=500)
    ys = sample(proj.points, seed=12, n=500)
    scalars = sample(proj.ring.carrier, seed=13, n=500)
    ok = True
    for (x, s), (y, t), a in zip(xs, ys, scalars):
        ok = ok and proj.add((x, s), (y, t)) == (x + y - 2 * s * t, s + t)
        ok = ok and proj.phi(a, (x, s)) == (a * x + a * (1 - a) * s * s,
                                            a * s)
    damped = space_to_module(
        PointedMobiSpace(build("damped-space", alpha="1"), (0.0, 0.0)))
    xs = sample(damped.points, seed=21, n=500)
    ys = sample(damped.points, seed=22, n=500)
    scalars = sample(damped.ring.carrier, seed=23, n=500)
    worst = 0.0
    for (x, s), (y, t), a in zip(xs, ys, scalars):
        gx, gs = damped.add((x, s), (y, t))
        wx, ws = x * math.exp(t) + y * math.exp(s), s + t
        worst = max(worst, abs(gx - wx), abs(gs - ws))
        gx, gs = damped.phi(a, (x, s))
        wx, ws = a * x * math.exp(-(1 - a) * s), a * s
        worst = max(worst, abs(gx - wx), abs(gs - ws))
    ok = ok and worst <= 1e-9
    _verdict(capsys, 3, ok,
             f"space-derived + and phi match the closed forms, exact on the "
             f"projectile and within {worst:.1e} <= 1e-9 on the damped line")


def test_criterion_04_roundtrips_are_identities(capsys):
    start = time.perf_counter()
    module = build("zmod-module", m=3, dim=2)
    ok = roundtrip_module(module, Exhaustive()).passed
    ok = ok and roundtrip_space(module_to_space(module),
                                strategy=Exhaustive()).passed
    cases = [("canonical-space", {"n": 2}),
             ("projectile-space", {}),
             ("plane-space", {"k": F(-1)}),
             ("plane-space", {"k": F(0)}),
             ("plane-space", {"k": F(1)}),
             ("tri-space", {})]
    for name, params in cases:
        pointed = PointedMobiSpace(build(name, params),
                                   default_origin(name, params))
        ok = ok and roundtrip_space(pointed, strategy=FULL).passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(capsys, 4, ok,
             f"module and space round-trips are identities (exhaustive on "
             f"zmod 3 squared, 500 exact samples elsewhere) in {elapsed:.2f}s")


def test_criterion_05_derived_law_suite_across_the_catalog(capsys):
    ok = True
    for entry in list_catalog():
        if entry.kind == "space":
            ok = ok and all_passed(check_y_properties(build(entry.name),
                                                      FULL))
        elif entry.kind == "algebra":
            ok = ok and all_passed(check_properties(build(entry.name), FULL))
    _verdict(capsys, 5, ok,
             "Y1-Y10 hold on every catalog space and eq(6)-eq(14) on every "
             "catalog algebra at 500 samples")


def test_criterion_06_noncommutativity_and_nonassociativity(capsys):
    tri = check_commutativity_condition(build("tri-algebra"), FULL)
    ok = not tri.passed and tri.witness is not None
    module = space_to_module(PointedMobiSpace(
        build("nonaffine-complex-space"),
        default_origin("nonaffine-complex-space")))
    assoc = {r.law: r for r in check_module(module, FULL)}["add-assoc"]
    ok = ok and not assoc.passed and assoc.witness is not None
    _verdict(capsys, 6, ok,
             "tri-algebra multiplication is non-commutative and the complex "
             "pair's derived + is non-associative, each with a witness")


def test_criterion_07_finite_search_results(capsys):
    start = time.perf_counter()
    one = search_finite(1)
    two = search_finite(2, require_distinct_constants=True)
    three = search_finite(3, require_distinct_constants=True)
    want = tuple(tuple(tuple((a + b * c - b * a) % 3 for c in range(3))
                       for b in range(3)) for a in range(3))
    hits = [m for m in three
            if (m.zero, m.half, m.one) == (0, 2, 1) and m.table == want]
    elapsed = time.perf_counter() - start
    ok = len(one) == 1 and two == [] and len(hits) == 1 and elapsed < 30.0
    _verdict(capsys, 7, ok,
             f"search finds 1 size-1 model, none of size 2, and the mod-3 "
             f"table at size 3, in {elapsed:.2f}s")


def test_criterion_08_morphism_suite_and_transport(capsys):
    target = MobiAlgebra(
        Restricted(Rational(), lambda x: -1 <= x <= 5, label="-1 <= t <= 5"),
        lambda a, b, c: (c + 5 * a) / 6 + b * (c - a) / 6,
        F(-1), F(2), F(5))
    reports = check_algebra_morphism(lambda t: 6 * t - 1,
                                     build("canonical-interval-algebra"),
                                     target, Sampled(samples=200, seed=0))
    ok = all_passed(reports)
    ok = ok and "half-iff-ends" in {r.law for r in reports}
    module = build("zmod-module", m=3, dim=2)
    ok = ok and all_passed(transport_morphism(
        (lambda a: a, lambda x: x), module, module, Exhaustive()))
    pointed = PointedMobiSpace(build("canonical-space", n=2),
                               default_origin("canonical-space", {"n": 2}))
    ok = ok and all_passed(transport_morphism(
        (lambda a: a, lambda x: x), pointed, pointed, FULL))
    _verdict(capsys, 8, ok,
             "t maps to 6t-1 passes the morphism suite with the half-iff-ends "
             "equivalence, and identity morphisms transport both ways")


def test_criterion_09_dsl_golden_file_and_diagnostics(capsys, tmp_path):
    defs = load(GOLDEN.read_text())
    line, proj = defs["line"], defs["projectile"]
    alg = build("rational-line-algebra")
    space = build("projectile-space")
    scalars = sample(alg.carrier, seed=31, n=200)
    points = sample(space.points, seed=32, n=200)
    ok = all(line.p(a, b, c) == alg.p(a, b, c)
             for a, b, c in zip(scalars, reversed(scalars), scalars[1:]))
    ok = ok and all(proj.q(x, a, y) == space.q(x, a, y)
                    for x, a, y in zip(points, scalars, reversed(points)))
    diagnostics = [
        "algebra a {\n  carrier: Q\n  zero 0\n}\n",
        "algebra a {\n  carrier: Q\n  zero: 0\n  half: 1/2\n  one: 1\n"
        "  p(a, b, c) = a + b*(d - a)\n}\n",
        "algebra a {\n  carrier: Q^2\n  zero: (0, 0)\n  half: (1/2, 0)\n"
        "  one: (1, 0)\n  p(a, b, c) = a + b\n}\n",
    ]
    for idx, text in enumerate(diagnostics):
        bad = tmp_path / f"bad{idx}.mobi"
        bad.write_text(text)
        code = run_cli(["check", str(bad)])
        err = capsys.readouterr().err
        position = err.split(": ")[0]
        ok = ok and code == 2
        ok = ok and position.startswith(str(bad))
        ok = ok and len(position.rsplit(":", 2)) == 3
        ok = ok and all(part.isdigit()
                        for part in position.rsplit(":", 2)[1:])
    _verdict(capsys, 9, ok,
             "the golden definition file matches the catalog on 200 shared "
             "samples and the three diagnostic cases exit 2 with line and "
             "column")


def test_criterion_10_json_reports_are_byte_identical(capsys):
    argv = ["check", str(GOLDEN), "--report", "json",
            "--samples", "120", "--seed", "5"]
    first_code = run_cli(argv)
    first = capsys.readouterr().out
    second_code = run_cli(argv)
    second = capsys.readouterr().out
    ok = first_code == second_code == 0 and first == second
    ok = ok and json.loads(first)
    _verdict(capsys, 10, ok,
             "two check runs with the same seed and sample count emit "
             "byte-identical JSON")
