import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import mobikit
from mobikit import DslError, Restricted, catalog, cli, load, sample
from mobikit.catalog import list_catalog
from mobikit.cli import run_cli
from mobikit.search import MAX_SIZE

GOLDEN = Path(__file__).parent / "data" / "projectile.mobi"
HALFPLANE = Path(__file__).parent / "data" / "halfplane.mobi"

BROKEN = """\
algebra skew {
  carrier: Q
  zero: 0
  half: 1/3
  one: 1
  p(a, b, c) = a + b*(c - a)
}
"""


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_error_line(code, out, err) -> str:
    """The message of a configuration error: exit 2, no stdout, one line."""
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def test_check_passes_the_golden_file(capsys):
    code, out, _ = run(capsys, "check", str(GOLDEN), "--samples", "60")
    assert code == 0
    assert "PASS line.A1" in out
    assert "PASS projectile.X0" in out
    assert "all passed" in out.splitlines()[-1]


def test_check_reports_a_witness_on_failure(tmp_path, capsys):
    f = tmp_path / "skew.mobi"
    f.write_text(BROKEN)
    code, out, _ = run(capsys, "check", str(f))
    assert code == 1
    assert "FAIL skew.A1" in out
    assert "witness:" in out and "lhs=" in out
    assert "failed" in out.splitlines()[-1]


def test_check_diagnostic_goes_to_stderr_with_position(tmp_path, capsys):
    f = tmp_path / "oops.mobi"
    f.write_text("algebra a {\n  carrier: Q\n  zero 0\n}\n")
    code, out, err = run(capsys, "check", str(f))
    assert code == 2 and out == ""
    assert err.startswith(f"{f}:3:8: syntax:")


def test_check_exhaustive_needs_finite_carriers(tmp_path, capsys):
    # a where clause with a division is an opaque predicate, so its carrier
    # has no symbol and every law walks Q x Q
    path = tmp_path / "halfplane.mobi"
    path.write_text(HALFPLANE.read_text().replace("v2 > 0", "v2 > 0 and 1/v2 > 0"))
    code, _, err = run(capsys, "check", str(path), "--exhaustive", "--properties")
    assert code == 2 and "error: {Q x Q : v2 > 0 and 1/v2 > 0} is not enumerable" in err


def test_check_exhaustive_passes_over_a_polynomial_where_clause(capsys):
    # `Q^2 where v2 > 0` is the sign condition v2 > 0, as in halfplane-space:
    # each of the 16 laws is decided, so none enumerates Q x Q
    code, out, err = run(capsys, "check", str(HALFPLANE), "--exhaustive", "--properties")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "checked 16 law(s): all passed"


def test_an_empty_polynomial_where_clause_fails_at_its_first_draw(tmp_path, capsys):
    # a decided law still makes its one seeded draw by rejection
    path = tmp_path / "empty.mobi"
    path.write_text(HALFPLANE.read_text().replace("v2 > 0", "v2 > 0 and v2 < 0"))
    assert one_error_line(*run(capsys, "check", str(path), "--properties")) == (
        "error: 10000 consecutive candidates rejected for {Q x Q : v2 > 0 and v2 < 0}")


def test_check_exhaustive_passes_when_every_law_is_decided(capsys):
    # the closure predicates A0 and X0 are admitted on symbols, as the
    # equations are decided, X4 and A6 certified, and with --properties Y9
    # and Y10 solved
    code, out, err = run(capsys, "check", str(GOLDEN), "--exhaustive")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "checked 15 law(s): all passed"
    code, out, err = run(capsys, "check", str(GOLDEN), "--exhaustive", "--properties")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "checked 34 law(s): all passed"


def test_check_exhaustive_enumerates_a_restricted_carrier(tmp_path, capsys):
    path = tmp_path / "flat.mobi"
    path.write_text("space flat over zmod_algebra {\n"
                    "  carrier: Zmod(3)^2 where v1 = 0\n"
                    "  q((x, s), a, (y, t)) = (0, s + a*(t - s))\n"
                    "}\n")
    code, out, err = run(capsys, "check", str(path), "--exhaustive", "--affine",
                         "--properties")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 18)
    assert all(line.endswith("[exhaustive]") for line in lines[:-1])
    assert lines[-1] == "checked 17 law(s): all passed"


@pytest.mark.parametrize("text, message", [
    ("space s over zmod_algebra { carrier: Zmod(3) where v = 5  q(x, a, y) = x + a*y }",
     "error: {Z/3 : v = 5} is empty"),
    ("algebra h { carrier: Q where v >= 0 and v <= 1/2  zero: 0  half: 1/4  one: 1/2"
     "  p(a, b, c) = a + b*(c - a) }",
     "error: {Q : v >= 0 and v <= 1/2} is not enumerable"),
], ids=["empty", "infinite"])
def test_an_exhaustive_check_names_the_carrier_it_cannot_walk(tmp_path, capsys, text,
                                                              message):
    # an empty carrier would pass every law without evaluating one
    path = tmp_path / "f.mobi"
    path.write_text(text)
    result = run(capsys, "check", str(path), "--exhaustive", "--affine", "--properties")
    assert one_error_line(*result) == message


def test_a_constant_outside_the_carrier_exits_two(tmp_path, capsys):
    path = tmp_path / "f.mobi"
    path.write_text("algebra half_interval { carrier: Q where v >= 0 and v <= 1/2"
                    "  zero: 0  half: 1/2  one: 1  p(a, b, c) = a + b*(c - a) }")
    result = run(capsys, "check", str(path), "--properties")
    assert one_error_line(*result) == "error: one = 1 is not in {Q : v >= 0 and v <= 1/2}"


def test_running_out_of_memory_exits_two(monkeypatch, capsys):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("mobikit.search.search_finite", exhaust)
    assert one_error_line(*run(capsys, "search", "--size", "2")) == "error: out of memory"


def test_check_json_is_deterministic(capsys):
    code, first, _ = run(capsys, "check", str(GOLDEN), "--report", "json",
                         "--samples", "40", "--seed", "3")
    assert code == 0
    payload = json.loads(first)
    assert all(r["law"].split(".")[0] in ("line", "projectile")
               for r in payload)
    code, second, _ = run(capsys, "check", str(GOLDEN), "--report", "json",
                          "--samples", "40", "--seed", "3")
    assert code == 0 and first == second


def test_check_affine_and_properties_add_reports(capsys):
    code, out, _ = run(capsys, "check", str(GOLDEN), "--samples", "50",
                       "--affine", "--properties")
    assert code == 0
    assert "PASS projectile.affine(half)" in out
    assert "PASS line.eq(6)" in out
    assert "PASS projectile.Y10" in out


def test_catalog_list_names_every_entry(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "zmod-algebra" in out and "projectile-space" in out
    assert "module" in out


def test_catalog_check_with_params(capsys):
    code, out, _ = run(capsys, "catalog", "check", "zmod-algebra",
                       "--param", "m=5", "--exhaustive")
    assert code == 0
    assert "PASS A8 [exhaustive]" in out


def test_catalog_check_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "check", "no-such-thing")
    assert code == 2 and "error:" in err


def test_catalog_check_rejects_even_modulus(capsys):
    code, _, err = run(capsys, "catalog", "check", "zmod-algebra",
                       "--param", "m=4")
    assert code == 2 and "odd" in err


def test_convert_space_to_module(capsys):
    code, out, _ = run(capsys, "convert", "space-to-module",
                       "projectile-space", "--samples", "80")
    assert code == 0
    assert "PASS ring.half-plus-half" in out
    assert "PASS module.phi-add" in out


def test_convert_space_to_module_with_origin(capsys):
    code, out, _ = run(capsys, "convert", "space-to-module",
                       "canonical-space", "--param", "n=2",
                       "--origin", "(1/2, 1/2)", "--samples", "60")
    assert code == 0


def test_convert_rejects_foreign_origin(capsys):
    result = run(capsys, "convert", "space-to-module",
                 "halfplane-space", "--origin", "(0, 0)")
    assert one_error_line(*result).startswith("error: origin (0, 0) is not in ")


def test_convert_module_to_space(capsys):
    code, out, _ = run(capsys, "convert", "module-to-space", "zmod-module",
                       "--exhaustive")
    assert code == 0
    assert "PASS X5 [exhaustive]" in out


def test_roundtrip_module_and_space(capsys):
    code, out, _ = run(capsys, "roundtrip", "zmod-module", "--exhaustive")
    assert code == 0 and "roundtrip(module)" in out
    code, out, _ = run(capsys, "roundtrip", "projectile-space",
                       "--samples", "80")
    assert code == 0 and "roundtrip(space)" in out


def test_roundtrip_rejects_algebras(capsys):
    one_error_line(*run(capsys, "roundtrip", "zmod-algebra"))


@pytest.mark.parametrize("argv, message", [
    (("convert", "space-to-module", "rational-line-algebra"),
     "error: rational-line-algebra is an algebra, not a space"),
    (("convert", "space-to-module", "canonical-module"),
     "error: canonical-module is a module, not a space"),
    (("convert", "module-to-space", "canonical-space"),
     "error: canonical-space is a space, not a module"),
    (("roundtrip", "lozenge-algebra"),
     "error: lozenge-algebra is an algebra, not a space or a module"),
    (("trace", "canonical-module", "--from", "(1, 2)", "--to", "(2, 1)", "--steps", "2"),
     "error: canonical-module is a module, not a space"),
    (("trace", "zmod-algebra", "--from", "1", "--to", "2", "--steps", "2"),
     "error: zmod-algebra is an algebra, not a space"),
])
def test_a_wrong_catalog_kind_exits_two(tmp_path, capsys, argv, message):
    if argv[0] == "trace":
        argv += ("--out", str(tmp_path / "x.csv"))
    assert one_error_line(*run(capsys, *argv)) == message
    assert not (tmp_path / "x.csv").exists()


def test_search_prints_models(capsys):
    code, out, _ = run(capsys, "search", "--size", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "found 1 model(s) of size 3"
    assert any("zero=0" in ln and "half=2" in ln and "one=1" in ln
               for ln in lines)


def test_search_distinct_constants_empty(capsys):
    code, out, _ = run(capsys, "search", "--size", "2",
                       "--distinct-constants")
    assert code == 0
    assert out.splitlines()[0] == (
        "found 0 model(s) of size 2 with distinct constants")


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_search_limit_below_one_exits_two(capsys, limit):
    # a limit below 1 would print "found 0 model(s)" although Z/3 exists
    result = run(capsys, "search", "--size", "3", "--limit", limit)
    assert one_error_line(*result) == "error: limit must be >= 1"


def test_search_size_out_of_range(capsys):
    code, _, err = run(capsys, "search", "--size", str(MAX_SIZE + 1))
    assert code == 2 and "error:" in err


def test_trace_writes_the_projectile_arc(tmp_path, capsys):
    out_path = tmp_path / "arc.csv"
    code, _, _ = run(capsys, "trace", "projectile-space",
                     "--from", "(0, 0)", "--to", "(0, 1)",
                     "--steps", "4", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == (
        "t,c1,c2\n"
        "0,0,0\n"
        "0.25,0.1875,0.25\n"
        "0.5,0.25,0.5\n"
        "0.75,0.1875,0.75\n"
        "1,0,1\n")


def test_trace_writes_a_negative_value_that_rounds_to_zero_as_zero(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    code, _, _ = run(capsys, "trace", "canonical-space", "--from=-1/10000000000000",
                     "--to", "1", "--steps", "2", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == "t,c1\n0,0\n0.5,0.5\n1,1\n"


def test_trace_writes_float_coordinates_as_python_prints_them(tmp_path, capsys):
    out_path = tmp_path / "damped.csv"
    code, _, _ = run(capsys, "trace", "damped-space", "--from", "(0, 0)",
                     "--to", "(1, 1)", "--steps", "2", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == (
        "t,c1,c2\n"
        "0,0.0,0.0\n"
        "0.5,0.3032653298563167,0.5\n"
        "1,1.0,1.0\n")


@pytest.mark.parametrize("name, start, end, text", [
    ("plane-space", "(0, 0)", "(1, 1)", "t,c1,c2\n0,0,0\n0.5,0.5,0.5\n1,1,1\n"),
    ("tri-space", "(0, 0)", "(1, 1)", "t,c1,c2\n0,0,0\n0.5,0.5,0.5\n1,1,1\n"),
    ("lozenge-space", "0", "1", "t,c1\n0,0\n0.5,0.5\n1,1\n"),
], ids=["plane-space", "tri-space", "lozenge-space"])
def test_trace_walks_scalars_that_are_pairs_or_triples(tmp_path, capsys, name, start,
                                                       end, text):
    # the scalar at t is zero + t(one - zero): (t, 0) for the plane and the
    # lozenge, (t, 0, t) for the triples, each of which moves x toward y by t
    out_path = tmp_path / "t.csv"
    code, out, _ = run(capsys, "trace", name, "--from", start, "--to", end,
                       "--steps", "2", "--out", str(out_path))
    assert (code, out) == (0, f"wrote 3 points to {out_path}\n")
    assert out_path.read_text() == text


@pytest.mark.parametrize("argv, message", [
    (("catalog", "check", "zmod-algebra", "--param", "m"),
     "error: --param wants NAME=VALUE, got 'm'"),
    (("trace", "canonical-space", "--from", "0", "--to", "1", "--steps", "0"),
     "error: --steps must be >= 1, got 0"),
    (("trace", "lozenge-space", "--from", "0", "--to", "2", "--steps", "2"),
     "error: end 2 is not in {Q : 0 <= t <= 1}"),
    (("convert", "space-to-module", "halfplane-space", "--samples", "5"),
     "error: the algebra on {Q : 0 <= t <= 1} has no doubler (proven-absent); "
     "declare one with dataclasses.replace(algebra, two=...)"),
    # a value outside its carrier is named as a report renders it: a
    # Fraction as 1/2, an int past the digit limit by its digit count
    (("convert", "space-to-module", "halfplane-space", "--origin", "(1/2, -1/3)"),
     "error: origin (1/2, -1/3) is not in {Q x Q : s > 0}"),
    (("convert", "space-to-module", "halfplane-space", "--origin", "(10^5000, -1)"),
     "error: origin (10000000000000000000...(5001 digits), -1) is not in {Q x Q : s > 0}"),
    (("trace", "halfplane-space", "--from", "(0, 1)", "--to", "(1/2, -1/3)", "--steps", "2"),
     "error: end (1/2, -1/3) is not in {Q x Q : s > 0}"),
    (("trace", "lozenge-space", "--from", "0", "--to", "10^5000", "--steps", "2"),
     "error: end 10000000000000000000...(5001 digits) is not in {Q : 0 <= t <= 1}"),
    (("catalog", "check", "zmod-algebra", "--param", "m=3", "--param", "m=5"),
     "error: --param m is given more than once"),
])
def test_a_command_that_cannot_run_exits_two(tmp_path, capsys, argv, message):
    if argv[0] == "trace":
        argv += ("--out", str(tmp_path / "x.csv"))
    assert one_error_line(*run(capsys, *argv)) == message
    assert not (tmp_path / "x.csv").exists()


def test_trace_rejects_endpoints_outside_the_space(tmp_path, capsys):
    for src, dst, message in [
            ("(0, 0)", "(1, 1)", "error: start (0, 0) is not in "),
            ("(0, 1)", "(1, -1)", "error: end (1, -1) is not in ")]:
        result = run(capsys, "trace", "halfplane-space", "--from", src,
                     "--to", dst, "--steps", "2", "--out", str(tmp_path / "x.csv"))
        assert one_error_line(*result).startswith(message)
        assert not (tmp_path / "x.csv").exists()


def test_trace_splits_complex_components(tmp_path, capsys):
    out_path = tmp_path / "qi.csv"
    code, _, _ = run(capsys, "trace", "nonaffine-complex-space",
                     "--from", "(1, 0)", "--to", "(2, 1)",
                     "--steps", "2", "--out", str(out_path))
    assert code == 0
    header = out_path.read_text().splitlines()[0]
    assert header == "t,c1,c2,c3"


_DEEP = {"parentheses": "(" * 160 + "0" + ")" * 160, "chain": "0" + " + 1" * 600,
         "signs": "1 + " + "-" * 600 + "0"}
# the column of each DslError below; the 536th '+' of the chain is the
# first node deeper than 64 levels
_COLUMNS = {"x": 1, "(1, 2) + 3": 8, "exp(1000)": 1, "1/0": 2, "exp(i)": 1,
            _DEEP["parentheses"]: 65, _DEEP["chain"]: 4 * 536 - 1, _DEEP["signs"]: 68}


@pytest.mark.parametrize("value, error", [
    ("x", "error: unbound-identifier: unbound identifier 'x'\n"),
    ("(1, 2) + 3", "error: shape-mismatch: operator '+' needs scalar operands\n"),
    ("exp(1000)", "error: arithmetic: the value: exp overflow at 1000\n"),
    ("1/0", "error: arithmetic: the value divides by zero\n"),
    ("exp(i)", "error: exp-i-misuse: exp needs a real argument\n"),
    *(pytest.param(value, "error: syntax: expression nests deeper than 64 levels\n",
                   id=f"deep {kind}")
      for kind, value in _DEEP.items())])
@pytest.mark.parametrize("command", ["trace", "convert"])
def test_a_malformed_point_expression_exits_two(tmp_path, capsys, command, value, error):
    if command == "trace":
        argv = ("trace", "canonical-space", "--from", value, "--to", "(1, 1)",
                "--steps", "2", "--out", str(tmp_path / "x.csv"))
        option = "--from"
    else:
        argv = ("convert", "space-to-module", "canonical-space", "--origin", value)
        option = "--origin"
    if value in _COLUMNS:  # a DslError names the option and the column
        error = error.replace("error: ", f"error: {option}:1:{_COLUMNS[value]}: ")
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", error)


def test_the_parser_is_built_on_first_use_and_then_reused():
    probe = ("import argparse; built = []; "
             "argparse.ArgumentParser.__init__ = lambda *a, **k: built.append(a); "
             "import mobikit.cli; print(len(built))")
    src = str(Path(mobikit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "0\n"  # importing the CLI builds no parser
    assert cli._build_parser() is cli._build_parser()


def test_a_second_command_does_not_inherit_the_first_ones_arguments(
        monkeypatch, capsys):
    built = []

    def build(name, params=None):
        built.append(dict(params or {}))
        return real_build(name, params)

    real_build = catalog.build
    monkeypatch.setattr(catalog, "build", build)
    assert run(capsys, "catalog", "check", "zmod-algebra", "--param", "m=5",
               "--exhaustive")[0] == 0
    assert run(capsys, "catalog", "check", "zmod-algebra", "--exhaustive")[0] == 0
    assert built == [{"m": "5"}, {}]


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "check")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.mobi")
    assert code == 2 and "error:" in err


def test_a_file_that_is_not_utf8_is_unreadable(tmp_path, capsys):
    path = tmp_path / "f.mobi"
    path.write_bytes(b"\xff")
    assert one_error_line(*run(capsys, "check", str(path))) == (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte")


@pytest.mark.parametrize("samples", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ("catalog", "check", "rational-line-algebra"),
    ("check", str(GOLDEN)),
    ("roundtrip", "canonical-space")])
def test_fewer_than_one_sample_exits_two(capsys, command, samples):
    # zero samples would evaluate nothing and print PASS for every sampled law
    code, out, err = run(capsys, *command, "--samples", samples)
    assert code == 2 and out == ""
    assert err == "error: samples must be >= 1\n"


@pytest.mark.parametrize("argv, kind", [
    (("damped-space", "--param", "alpha=1000"), "OverflowError"),
    (("transported-space", "--param", "lam=0,1"), "ZeroDivisionError"),
    # the R64 equations are decided, but X0 and the implications are walked
    (("damped-space", "--param", "alpha=1000", "--properties", "--affine",
      "--seed", "11"), "OverflowError")])
def test_arithmetic_error_in_an_operation_exits_two(capsys, argv, kind):
    code, out, err = run(capsys, "catalog", "check", *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1


def _catalog_commands(name: str, *tail) -> list:
    """Every command that takes the catalog entry `name`, with `tail`."""
    kind = catalog.get_entry(name).kind
    commands = [["catalog", "check", name, *tail]]
    if kind != "algebra":
        direction = "space-to-module" if kind == "space" else "module-to-space"
        commands += [["convert", direction, name, *tail], ["roundtrip", name, *tail]]
    return commands


@pytest.mark.parametrize("name, param, message", [
    ("projectile-space", "n=0", "error: n must be >= 1, got 0"),
    ("projectile-module", "n=0", "error: n must be >= 1, got 0"),
    ("halfplane-space", "n=-1", "error: dim must be >= 1")])
def test_a_dimension_below_one_exits_two(capsys, name, param, message):
    for argv in _catalog_commands(name, "--param", param, "--samples", "5"):
        assert one_error_line(*run(capsys, *argv)) == message, argv


@pytest.mark.parametrize("name, param, message", [
    ("projectile-space", "k=x",
     "error: projectile-space: --param k=x: Invalid literal for Fraction: 'x'"),
    ("projectile-space", "n=x", "error: projectile-space: --param n=x: "
     "invalid literal for int() with base 10: 'x'"),
    ("transported-space", "lam=exp",
     "error: transported-space: --param lam=exp: Invalid literal for Fraction: 'exp'"),
    ("projectile-space", "k=1/0",
     "error: projectile-space: --param k=1/0: the value divides by zero")])
def test_a_param_of_the_wrong_type_names_the_entry_and_the_param(capsys, name, param,
                                                                 message):
    for argv in _catalog_commands(name, "--param", param, "--samples", "5"):
        assert one_error_line(*run(capsys, *argv)) == message, argv


@pytest.mark.parametrize("name", ["damped-space", "halfplane-space"])
def test_a_space_of_dimension_zero_still_checks(capsys, name):
    code, out, err = run(capsys, "catalog", "check", name, "--param", "n=0")
    assert (code, err) == (0, "") and out.endswith("all passed\n")


# --param values: text that each default type takes, and text that none
# takes or that no builder accepts; an int parameter, which may be a
# dimension, draws no 1000, so that no dimension exceeds 4
_PARAM_TEXT = tuple(str(n) for n in range(-1, 5)) + (
    "1/2", "-3/4", "1000", "1e400", "nan", "", "exp", "minus", "1,2", "x")


@st.composite
def _catalog_commands_with_a_param(draw):
    entry = draw(st.sampled_from([e for e in list_catalog() if e.params]))
    spec = draw(st.sampled_from(entry.params))
    pool = _PARAM_TEXT
    if isinstance(spec.default, int):
        pool = tuple(text for text in pool if text != "1000")
    param = f"{spec.name}={draw(st.sampled_from(pool))}"
    samples = str(draw(st.integers(1, 20)))
    return draw(st.sampled_from(_catalog_commands(
        entry.name, "--param", param, "--samples", samples)))


@settings(max_examples=60, deadline=None)
@given(argv=_catalog_commands_with_a_param())
@example(argv=["catalog", "check", "projectile-space", "--param", "n=0"])
@example(argv=["roundtrip", "halfplane-space", "--param", "n=-1"])
@example(argv=["convert", "module-to-space", "projectile-module", "--param", "n=0"])
def test_a_catalog_param_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert any(line.startswith("FAIL ") for line in out.getvalue().splitlines()), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from([e.name for e in list_catalog()]),
       samples=st.integers(-3, 20), seed=st.integers(),
       flags=st.sets(st.sampled_from(("--properties", "--affine"))))
def test_catalog_check_keeps_the_exit_code_contract(name, samples, seed, flags):
    argv = ["catalog", "check", name, "--samples", str(samples),
            "--seed", str(seed), *sorted(flags)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2), argv
    if samples < 1:
        assert code == 2, argv
    if code == 1:
        assert any(line.startswith("FAIL ") for line in out.getvalue().splitlines()), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)


# one digit more than the interpreter converts (3.10.7 and later limit it)
_LONG = "9" * (sys.get_int_max_str_digits() + 1
               if hasattr(sys, "get_int_max_str_digits") else 5000)


def _algebra(carrier: str, half: str, body: str) -> str:
    return (f"algebra g {{\n  carrier: {carrier}\n  zero: 0\n  half: {half}\n"
            f"  one: 1\n  p(a, b, c) = {body}\n}}\n")


def _sizes(small: int, large: int):
    return st.one_of(st.integers(0, small), st.integers(0, large))


@st.composite
def _mobi_files(draw):
    """A one-algebra file: a chain of terms, under signs and parentheses,
    over Q or Z/5.  Sizes fall on both sides of the nesting limit, and reach
    depths that overflow the interpreter's stack even with the 2000 frames
    that Hypothesis adds to its recursion limit."""
    zmod = draw(st.booleans())
    terms = draw(st.lists(st.sampled_from(("a", "b", "c", "0", "1", "2")),
                          min_size=1, max_size=6)) * (1 + draw(_sizes(12, 400)))
    if draw(st.integers(0, 9)) == 0:
        terms[draw(st.integers(0, len(terms) - 1))] = _LONG
    ops = draw(st.lists(st.sampled_from("+-*/"), min_size=len(terms) - 1,
                        max_size=len(terms) - 1))
    body = terms[0] + "".join(f" {op} {t}" for op, t in zip(ops, terms[1:]))
    depth = draw(_sizes(70, 400))
    body = "-" * draw(_sizes(70, 2500)) + "(" * depth + body + ")" * depth
    half = draw(st.sampled_from(("3", "1/0") if zmod else ("1/2", "1/3", "1/0")))
    return _algebra("Zmod(5)" if zmod else "Q", half, body)


def _space(over: str, carrier: str, body: str, where: str = "") -> str:
    args = "(x, s), a, (y, t)" if carrier == "Q^2" else "x, a, y"
    if where:
        carrier += f" where {where}"
    return f"space s over {over} {{\n  carrier: {carrier}\n  q({args}) = {body}\n}}\n"


def _terms(draw, names, max_size, ops="+-*/"):
    terms = draw(st.lists(st.sampled_from(names), min_size=1, max_size=max_size))
    ops = draw(st.lists(st.sampled_from(ops), min_size=len(terms) - 1,
                        max_size=len(terms) - 1))
    return terms[0] + "".join(f" {op} ({t})" for op, t in zip(ops, terms[1:]))


@st.composite
def _where_clauses(draw, carrier: str):
    """A conjunction of one or two chains of order comparisons, each of two
    or three polynomials in the components of a Q or Q^2 carrier."""
    names = ("v1", "v2", "v2^2") if carrier == "Q^2" else ("v", "v^2")
    chains = []
    for _ in range(draw(st.integers(1, 2))):
        items = [_terms(draw, names + ("0", "1", "2", "-1"), 3, "+-*")
                 for _ in range(draw(st.integers(2, 3)))]
        ops = draw(st.lists(st.sampled_from(("<", "<=", ">", ">=")),
                            min_size=len(items) - 1, max_size=len(items) - 1))
        chains.append(items[0] + "".join(f" {op} {t}" for op, t in zip(ops, items[1:])))
    return " and ".join(chains)


@st.composite
def _mobi_space_files(draw, where: bool = False):
    """A space with a short q body on a point carrier of one or two parts,
    over a small generated algebra or over a catalog algebra; with where,
    on Q or Q^2 restricted by a generated polynomial where clause."""
    over = draw(st.sampled_from(("g", "rational_line_algebra",
                                 "float_line_algebra", "zmod_algebra")))
    text = ""
    if over == "g":
        zmod = draw(st.booleans())
        body = _terms(draw, ("a + b*(c - a)", "a", "b", "c", "0", "1"), 3)
        text = _algebra("Zmod(5)" if zmod else "Q", "3" if zmod else "1/2", body)
    carrier = draw(st.sampled_from(("Q", "Q^2") if where
                                   else ("Q", "QI", "R64", "Zmod(5)", "Q^2")))
    names = ("x + a*(y - x)", "x", "y", "a", "0", "1", "1/2")
    if carrier == "Q^2":
        names += ("s", "t")
        body = f"({_terms(draw, names, 3)}, {_terms(draw, names, 3)})"
    else:
        body = _terms(draw, names, 4)
    clause = draw(_where_clauses(carrier)) if where else ""
    return text + _space(over, carrier, body, clause)


def _check_keeps_the_exit_code_contract(path, text, seed):
    argv = ["check", str(path), "--samples", "3", "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code in (0, 1, 2), text
    if code == 1:
        assert any(line.startswith("FAIL ") for line in out.getvalue().splitlines()), text
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, (text, lines)
        assert lines[0].startswith((f"{path}:", "error:")), (text, lines)


@settings(max_examples=60, deadline=None)
@given(text=_mobi_files(), seed=st.integers(0, 3))
@example(text=_algebra("Q", "1/2", "a + b*(c - a)"), seed=0)  # all laws pass
@example(text=_algebra("Q", "1/0", "a - (b)/(c - c)"), seed=0)
def test_check_of_a_generated_file_keeps_the_exit_code_contract(
        tmp_path_factory, text, seed):
    path = tmp_path_factory.mktemp("gen") / "g.mobi"
    path.write_text(text)
    _check_keeps_the_exit_code_contract(path, text, seed)


@settings(max_examples=40, deadline=None)
@given(text=_mobi_space_files(), seed=st.integers(0, 3))
@example(text=_space("rational_line_algebra", "Q^2",
                     "(x + a*(y - x), s + a*(t - s))"), seed=0)  # all laws pass
def test_check_of_a_generated_space_keeps_the_exit_code_contract(
        tmp_path_factory, text, seed):
    path = tmp_path_factory.mktemp("gen") / "s.mobi"
    path.write_text(text)
    _check_keeps_the_exit_code_contract(path, text, seed)


def _checked(argv: list, walked: bool = False) -> tuple:
    """(exit code, stdout, stderr) of a command; walked gives no restricted
    carrier a symbol, so that each law over one walks its draws."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        if walked:
            patch.setattr(Restricted, "symbol", lambda self, fresh: None)
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("over, code", [("canonical_interval_algebra", 0),
                                        ("rational_line_algebra", 1)])
def test_a_space_over_a_nonlinear_where_clause_reports_what_its_walk_reports(
        tmp_path, over, code):
    # the disc's variables are free: its equations are decided over all of
    # Q x Q, and X0, which the disc bounds, is walked; over the whole line
    # a leaves the disc
    path = tmp_path / "disc.mobi"
    path.write_text(_space(over, "Q^2", "(x + a*(y - x), s + a*(t - s))",
                           "v1*v1 + v2*v2 < 1"))
    argv = ["check", str(path), "--properties", "--samples", "50"]
    decided = _checked(argv)
    assert decided[0] == code and decided == _checked(argv, walked=True)


@settings(max_examples=40, deadline=None)
@given(carrier=st.sampled_from(("Q", "Q^2")), data=st.data())
def test_the_sign_conditions_of_a_where_clause_are_its_predicate(carrier, data):
    # `and 0 = 0` keeps the same clause an opaque predicate
    clause = data.draw(_where_clauses(carrier))
    body = "(x, s)" if carrier == "Q^2" else "x"
    signs, opaque = (load(_space("rational_line_algebra", carrier, body, where))["s"].points
                     for where in (clause, clause + " and 0 = 0"))
    assert (signs.member, len(signs.conditions)) == (None, clause.count("<") + clause.count(">"))
    assert opaque.member is not None and opaque.conditions == ()
    for x in sample(signs.base, 0, 300):
        assert signs.contains(x) == opaque.contains(x), (clause, x)


@settings(max_examples=15, deadline=None)
@given(text=_mobi_space_files(where=True))
@example(text=_space("canonical_interval_algebra", "Q^2",  # the halfplane transcription
                     "(x + (y - x)*a*t/(s + a*(t - s)), s + a*(t - s))", "v2 > 0"))
def test_a_space_over_a_where_clause_reports_what_its_walk_reports(tmp_path_factory, text):
    # symbols decide a law only when the walk would pass it, so the reports
    # are the same; a carrier that rejection samples more thinly than one
    # draw in 40 is left out, as its walks are slow and may exhaust where
    # the one draw of a decided law does not
    try:
        points = load(text)["s"].points
    except DslError:
        points = None
    if points is not None:
        assume(sum(map(points.contains, sample(points.base, 0, 400))) >= 10)
    path = tmp_path_factory.mktemp("gen") / "s.mobi"
    path.write_text(text)
    for seed in range(3):
        argv = ["check", str(path), "--properties", "--samples", "10", "--seed", str(seed)]
        assert _checked(argv) == _checked(argv, walked=True), text


@pytest.mark.parametrize("over, carrier, error", [
    ("float_line_algebra", "Q", "expected a rational, got 0.125"),
    ("rational_line_algebra", "Zmod(5)", "expected ints mod 5, got Fraction(3, 1), 3")])
def test_a_point_outside_the_carrier_fails_the_law(tmp_path, capsys, over, carrier, error):
    # the point carrier's equality rejects what q returns: each law fails
    # with an <error: ...> witness, and every verdict is printed
    path = tmp_path / "s.mobi"
    path.write_text(_space(over, carrier, "x + a*(y - x)"))
    code, out, err = run(capsys, "check", str(path), "--samples", "20")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (1, "", 7)
    assert [line.split()[:2] for line in lines[:6]] == [
        ["FAIL", f"s.X{i}"] for i in range(6)]
    assert f"difference=<error: {error}>" in lines[1]
    assert lines[-1] == "checked 6 law(s): 6 failed"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_a_value_past_the_digit_limit_outside_the_carrier_fails_the_law(tmp_path, capsys):
    # Z/5's equality names the Fraction q returns by its digit count, where
    # repr() would raise, so every verdict is printed
    path = tmp_path / "s.mobi"
    path.write_text(_space("rational_line_algebra", "Zmod(5)", "x + a*(y - x) + 10^5000"))
    code, out, err = run(capsys, "check", str(path), "--samples", "5")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (1, "", 7)
    assert [line.split()[:2] for line in lines[:6]] == [["FAIL", f"s.X{i}"] for i in range(6)]
    assert ("difference=<error: expected ints mod 5, got "
            "Fraction(10000000000000000000...(5001 digits), 1), 3>") in lines[1]
    assert lines[-1] == "checked 6 law(s): 6 failed"


@pytest.mark.parametrize("text, where", [
    (_algebra("Q", "1/0", "a"), "4:10: arithmetic: half divides by zero"),
    pytest.param(_algebra("Q", "1/2", "a + " + _LONG), "6:20: syntax: integer literal of ",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="no digit limit")),
    (_algebra("Zmod(5)", "3", "a + b*(c - a) + 1/2"),
     "6:33: shape-mismatch: '/' is not defined on Zmod carriers"),
    (_algebra("Q", "1/2", "(" * 160 + "a" + ")" * 160),
     "6:80: syntax: expression nests deeper than 64 levels"),
    (_algebra("Q", "1/2", "a" + " + b" * 600),  # the 536th '+' is 65 levels deep
     "6:2158: syntax: expression nests deeper than 64 levels"),
], ids=["zero-divisor", "long-literal", "division-mod-m", "parentheses", "chain"])
def test_check_reports_what_used_to_crash_at_its_position(tmp_path, capsys, text, where):
    path = tmp_path / "f.mobi"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert err.startswith(f"{path}:") and where in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_a_witness_past_the_digit_limit_is_rendered(tmp_path, capsys):
    path = tmp_path / "g.mobi"
    path.write_text(_algebra("Q", "1/2", "a + b*(c - a) + 10^5000"))
    code, out, err = run(capsys, "check", str(path), "--samples", "3")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (1, "", 10)
    assert lines[0].startswith("PASS g.A0") and lines[-1] == "checked 9 law(s): 6 failed"
    assert "difference=10000000000000000000...(5001 digits)" in lines[1]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_a_gaussian_witness_past_the_digit_limit_is_rendered(tmp_path, capsys):
    path = tmp_path / "g.mobi"
    path.write_text(_algebra("QI", "1/2", "a + b*(c - a) + 10^5000*i"))
    code, out, err = run(capsys, "check", str(path), "--samples", "3")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (1, "", 10)
    assert lines[0].startswith("PASS g.A0") and lines[-1] == "checked 9 law(s): 6 failed"
    assert "difference=10000000000000000000...(5001 digits)i" in lines[1]


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_an_exp_overflow_past_the_digit_limit_is_a_witness(tmp_path, capsys):
    path = tmp_path / "g.mobi"
    path.write_text(_algebra("R64", "1/2", "a + b*(c - a) + 0*exp(10^5000)"))
    code, out, err = run(capsys, "check", str(path), "--samples", "3")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (1, "", 10)
    assert lines[-1] == "checked 9 law(s): 9 failed"
    assert all("lhs=<error: exp overflow at 10000000000000000000...(5001 digits)>" in line
               for line in lines[:-1])


def test_an_unwritable_out_path_prints_the_os_message(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    line = one_error_line(*run(capsys, "trace", "projectile-space",
                               "--from", "(0,0)", "--to", "(1,1)", "--steps", "2",
                               "--out", str(target)))
    assert "No such file or directory" in line and str(target) in line
    assert not target.parent.exists()


def test_a_one_part_point_is_written_as_a_scalar(tmp_path, capsys):
    code, out, _ = run(capsys, "convert", "space-to-module", "canonical-space",
                       "--origin", "0", "--samples", "30")
    assert code == 0 and "all passed" in out.splitlines()[-1]
    out_path = tmp_path / "line.csv"
    code, _, _ = run(capsys, "trace", "canonical-space", "--from", "0",
                     "--to", "1", "--steps", "2", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == "t,c1\n0,0\n0.5,0.5\n1,1\n"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mobikit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(mobikit.__all__)
    assert all(namespace[name] is getattr(mobikit, name) for name in mobikit.__all__)


def _env_with_src() -> dict:
    src = str(Path(mobikit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


@pytest.mark.parametrize("module", ["mobikit", "mobikit.cli"])
def test_python_dash_m_runs_without_warnings(module):
    # the package must not import mobikit.cli before runpy executes it
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", module, "search", "--size", "1"],
        env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0] == "found 1 model(s) of size 1"


def test_the_package_loads_the_cli_on_first_use():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mobikit; "
         "print('mobikit.cli' in sys.modules, mobikit.run_cli.__module__, "
         "mobikit.main.__module__)"],
        env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert proc.stdout == "False mobikit.cli mobikit.cli\n", proc.stderr


def _loaded_after(code: str) -> set:
    """The mobikit modules in sys.modules after a fresh interpreter runs code."""
    probe = (code + "\nimport sys; "
             "print(' '.join(m for m in sys.modules if m.startswith('mobikit')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_the_package_loads_none_of_its_modules():
    assert _loaded_after("import mobikit") == {"mobikit"}


# the modules that `mobikit.cli` loads on first use, only for the commands
# that run them
_ON_FIRST_USE = {"mobikit.dsl", "mobikit.solver", "mobikit.search", "mobikit.functors"}


@pytest.mark.parametrize("argv, runs", [
    (None, set()),
    (["catalog", "list"], set()),
    (["catalog", "check", "zmod-algebra"], set()),
    # implications decided by certificates modulo a prime, without the solver
    (["catalog", "check", "zmod-algebra", "--properties"], set()),
    (["convert", "module-to-space", "zmod-module", "--exhaustive", "--affine", "--properties"],
     {"mobikit.functors"}),
    (["roundtrip", "zmod-module", "--exhaustive"], {"mobikit.functors"}),
    (["search", "--size", "1"], {"mobikit.search"}),
], ids=["import", "catalog-list", "catalog-check", "catalog-check-properties",
        "convert-exhaustive", "roundtrip", "search"])
def test_a_catalog_command_loads_neither_the_language_nor_the_solver(argv, runs):
    code = "import mobikit.cli"
    if argv is not None:
        code += f"; mobikit.cli.run_cli({argv!r})"
    loaded = _loaded_after(code)
    assert "mobikit.cli" in loaded
    assert loaded & _ON_FIRST_USE == runs


def test_checking_a_definition_file_loads_the_language():
    loaded = _loaded_after(f"import mobikit.cli; mobikit.cli.run_cli(['check', {str(GOLDEN)!r}])")
    assert "mobikit.dsl" in loaded


def test_dir_lists_every_public_name():
    assert set(dir(mobikit)) >= set(mobikit.__all__)


def test_each_public_name_is_its_home_modules_object():
    assert sorted(mobikit._HOME) == sorted(mobikit.__all__)
    for name, module in mobikit._HOME.items():
        home = importlib.import_module(f"mobikit.{module}")
        assert getattr(mobikit, name) is getattr(home, name), name


def test_an_unknown_attribute_raises_attributeerror():
    with pytest.raises(AttributeError) as info:
        mobikit.no_such_name  # noqa: B018
    assert str(info.value) == "module 'mobikit' has no attribute 'no_such_name'"


def test_sampled_check_of_a_large_finite_carrier_fits_in_512_mb():
    # Z/101 has 101^5 five-variable assignments; sampling must not build them.
    resource = pytest.importorskip("resource")
    cap = 512 * 2 ** 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-c", "from mobikit.cli import main; main()",
         "catalog", "check", "zmod-algebra", "--param", "m=101"],
        env=_env_with_src(), preexec_fn=limit_memory, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "all passed" in proc.stdout.splitlines()[-1]


@pytest.mark.skipif(not Path("/dev/stdout").exists(), reason="needs /dev/stdout")
@pytest.mark.parametrize("argv, unbuffered, first", [
    # the trace is far longer than a pipe holds, so writing it meets the
    # closed pipe after the first line
    (("trace", "canonical-space", "--from", "0", "--to", "1", "--steps", "20000",
      "--out", "/dev/stdout"), False, "t,c1"),
    # closed before the first line: each print meets it, or the flush at exit
    (("search", "--size", "7"), True, None),
    (("search", "--size", "7"), False, None),
], ids=["trace-after-the-first-line", "search-unbuffered", "search-at-exit"])
def test_a_closed_stdout_ends_quietly(argv, unbuffered, first):
    env = _env_with_src()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "mobikit", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if first is not None:
        assert proc.stdout.readline() == first + "\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, "")


def test_an_oserror_other_than_a_closed_pipe_still_exits_two(capsys, tmp_path):
    code, out, err = run(capsys, "trace", "canonical-space", "--from", "0", "--to", "1",
                         "--steps", "4", "--out", str(tmp_path / "missing" / "t.csv"))
    assert code == 2 and out == "" and err.startswith("error: [Errno 2]")
