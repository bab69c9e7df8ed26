import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mobikit
from mobikit.cli import run_cli

GOLDEN = Path(__file__).parent / "data" / "projectile.mobi"

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
    code, _, err = run(capsys, "check", str(GOLDEN), "--exhaustive")
    assert code == 2 and "error:" in err


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
    code, _, err = run(capsys, "convert", "space-to-module",
                       "halfplane-space", "--origin", "(0, 0)")
    assert code == 2 and "error:" in err


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
    code, _, err = run(capsys, "roundtrip", "zmod-algebra")
    assert code == 2 and "error:" in err


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


def test_search_size_out_of_range(capsys):
    code, _, err = run(capsys, "search", "--size", "9")
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


def test_trace_rejects_endpoints_outside_the_space(tmp_path, capsys):
    code, _, err = run(capsys, "trace", "halfplane-space",
                       "--from", "(0, 0)", "--to", "(1, 1)",
                       "--steps", "2", "--out", str(tmp_path / "x.csv"))
    assert code == 2 and "error:" in err


def test_trace_splits_complex_components(tmp_path, capsys):
    out_path = tmp_path / "qi.csv"
    code, _, _ = run(capsys, "trace", "nonaffine-complex-space",
                     "--from", "(1, 0)", "--to", "(2, 1)",
                     "--steps", "2", "--out", str(out_path))
    assert code == 0
    header = out_path.read_text().splitlines()[0]
    assert header == "t,c1,c2,c3"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "check")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2


def test_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.mobi")
    assert code == 2 and "error:" in err


def test_sampled_check_of_a_large_finite_carrier_fits_in_512_mb():
    # Z/101 has 101^5 five-variable assignments; sampling must not build them.
    resource = pytest.importorskip("resource")
    cap = 512 * 2 ** 20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(mobikit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", "from mobikit.cli import main; main()",
         "catalog", "check", "zmod-algebra", "--param", "m=101"],
        env=env, preexec_fn=limit_memory, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "all passed" in proc.stdout.splitlines()[-1]
