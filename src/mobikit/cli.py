"""Command-line interface.

    mobi check FILE [--samples N] [--seed S] [--exhaustive] [--affine]
                    [--properties] [--report text|json]
    mobi catalog list
    mobi catalog check NAME [--param k=v]... [check flags]
    mobi convert space-to-module NAME [--origin EXPR] [--param k=v]... [flags]
    mobi convert module-to-space NAME [--param k=v]... [flags]
    mobi roundtrip NAME [--param k=v]... [--samples N] [--seed S]
    mobi search --size N [--distinct-constants] [--limit K]
    mobi trace NAME --from EXPR --to EXPR --steps N --out PATH [--param k=v]...

Exit codes: 0 all checks passed, 1 a check found a counterexample,
2 usage, parse, or configuration errors, an arithmetic error such as an
overflow or a division by zero, or running out of memory (diagnostics go
to stderr).  A reader that closes stdout early, as `| head` does, is not an
error: the rest of the output is dropped and the exit code is unchanged.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

# algebra before catalog: imported through catalog, symbolic.py, the largest
# compile of a cold start, would be compiled while catalog's half-run module
# body is still alive, and bench/run.py's peak RSS read about 0.2 MB higher.
# The definition language loads on first use, in _cmd_check and _point, as
# search does in _cmd_search and functors in _cmd_convert and _cmd_roundtrip:
# no catalog command runs them, and compiling them at every cold start cost
# about 5 ms.
from .algebra import MobiAlgebra, check_algebra, check_properties
from . import catalog as _catalog
from .carriers import CarrierError, QI
from .report import CheckReport, EvalError, Exhaustive, Sampled, all_passed, \
    report_to_text, reports_to_json
from .ringmod import RModule, check_module, check_ring
from .space import (MobiSpace, PointedMobiSpace, check_affine, check_space,
                    check_y_properties, trace_geodesic)

# EvalError escapes a command only from building its input, such as an
# --origin or --from value; law checks turn it into a witness
_CONFIG_ERRORS = (CarrierError, ValueError, KeyError, OSError, EvalError)


def _out(line: str) -> None:
    """print(line) to stdout; once its reader has gone, drop the rest."""
    try:
        print(line)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout() -> None:
    """Point stdout at os.devnull, so that later writes and the flush at
    exit succeed after its reader has closed the pipe."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, sys.stdout.fileno())
    os.close(null)


def _strategy(args):
    if args.exhaustive:
        return Exhaustive()
    return Sampled(samples=args.samples, seed=args.seed)


def _emit(reports, fmt: str) -> int:
    if fmt == "json":
        _out(reports_to_json(reports))
    else:
        for rep in reports:
            _out(report_to_text(rep))
        failed = sum(1 for r in reports if not r.passed)
        if failed:
            _out(f"checked {len(reports)} law(s): {failed} failed")
        else:
            _out(f"checked {len(reports)} law(s): all passed")
    return 0 if all_passed(reports) else 1


def _prefixed(name: str, reports) -> list:
    # built directly: dataclasses.replace reads every field by name first
    return [CheckReport(f"{name}.{r.law}", r.strategy, r.verdict, r.witness)
            for r in reports]


def _suite(structure, args) -> list:
    """The law reports for a module, an algebra or a space."""
    strategy = _strategy(args)
    if isinstance(structure, RModule):
        return (_prefixed("ring", check_ring(structure.ring, strategy))
                + _prefixed("module", check_module(structure, strategy)))
    if isinstance(structure, MobiAlgebra):
        reports = check_algebra(structure, strategy)
        if args.properties:
            reports += check_properties(structure, strategy)
        return reports
    reports = check_space(structure, strategy)
    if args.affine:
        reports.append(check_affine(structure, strategy))
    if args.properties:
        reports += check_y_properties(structure, strategy)
    return reports


# each structure type as an error message names it
_STRUCTURES = {MobiAlgebra: "an algebra", MobiSpace: "a space", RModule: "a module"}


def _build(args, *types):
    """The catalog entry args.name built with its --param values; ValueError
    unless the built object is an instance of one of `types`."""
    built = _catalog.build(args.name, _params(args))
    if not isinstance(built, types):
        kind = next(text for t, text in _STRUCTURES.items() if isinstance(built, t))
        wanted = " or ".join(_STRUCTURES[t] for t in types)
        raise ValueError(f"{args.name} is {kind}, not {wanted}")
    return built


def _point(space, option: str, text: str):
    """The point of `space` that the expression given to `option` names; a
    DslError in the expression is a ValueError placed at the option."""
    from .dsl import DslError, parse_value
    try:
        return space.points.coerce(parse_value(text))
    except DslError as exc:
        raise ValueError(exc.format(option)) from None


def _params(args) -> dict:
    out = {}
    for item in args.param or []:
        if "=" not in item:
            raise ValueError(f"--param wants NAME=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in out:
            raise ValueError(f"--param {key} is given more than once")
        out[key] = value.strip()
    return out


# ---------------------------------------------------------------------------
# commands

def _cmd_check(args) -> int:
    path = args.file
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    from .dsl import DslError, elaborate, parse
    try:
        structures = elaborate(parse(text))
    except DslError as exc:
        print(exc.format(path), file=sys.stderr)
        return 2
    reports = []
    for name, structure in structures.items():
        reports.extend(_prefixed(name, _suite(structure, args)))
    return _emit(reports, args.report)


def _param_text(default) -> str:
    """A parameter default as --param takes it back: a tuple comma-joined."""
    return ",".join(map(str, default)) if isinstance(default, tuple) else str(default)


def _cmd_catalog(args) -> int:
    if args.catalog_command == "list":
        for entry in _catalog.list_catalog():
            params = " ".join(f"{p.name}={_param_text(p.default)}" for p in entry.params)
            head = f"{entry.name}  ({entry.kind})"
            _out(f"{head}  {params}".rstrip())
            _out(f"    {entry.note}")
        return 0
    built = _catalog.build(args.name, _params(args))
    return _emit(_suite(built, args), args.report)


def _cmd_convert(args) -> int:
    from .functors import module_to_space, space_to_module
    if args.direction == "space-to-module":
        space = _build(args, MobiSpace)
        if args.origin is not None:
            origin = _point(space, "--origin", args.origin)
        else:
            origin = _catalog.default_origin(args.name, _params(args))
        built = space_to_module(PointedMobiSpace(space, origin))
    else:
        built = module_to_space(_build(args, RModule)).space
    return _emit(_suite(built, args), args.report)


def _cmd_roundtrip(args) -> int:
    from .functors import roundtrip_module, roundtrip_space
    built = _build(args, MobiSpace, RModule)
    strategy = _strategy(args)
    if isinstance(built, RModule):
        report = roundtrip_module(built, strategy)
    else:
        origin = _catalog.default_origin(args.name, _params(args))
        report = roundtrip_space(PointedMobiSpace(built, origin),
                                 strategy=strategy)
    return _emit([report], args.report)


def _cmd_search(args) -> int:
    from .search import search_finite
    models = search_finite(args.size,
                           require_distinct_constants=args.distinct_constants,
                           limit=args.limit)
    suffix = " with distinct constants" if args.distinct_constants else ""
    _out(f"found {len(models)} model(s) of size {args.size}{suffix}")
    for idx, model in enumerate(models, 1):
        _out(f"model {idx}: zero={model.zero} half={model.half} one={model.one}")
        for a in range(model.size):
            rows = "  ".join(" ".join(str(v) for v in model.table[a][b])
                             for b in range(model.size))
            _out(f"  a={a}: {rows}")
    return 0


def _render_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    frac = Fraction(value)
    scaled = round(abs(frac) * 10 ** 12)
    # a value that rounds to zero at 12 digits is written 0, never -0
    sign = "-" if frac < 0 and scaled else ""
    digits = f"{scaled:013d}"
    head, tail = digits[:-12], digits[-12:].rstrip("0")
    return f"{sign}{head}.{tail}" if tail else f"{sign}{head}"


def _flatten_point(value) -> list:
    if isinstance(value, tuple):
        out = []
        for part in value:
            out.extend(_flatten_point(part))
        return out
    if isinstance(value, QI):
        return [value.re, value.im]
    return [value]


def _between(zero, one, t):
    """zero + t(one - zero), component by component, in exact arithmetic: a
    float is taken as the Fraction of its value, so that on a float line
    the scalar at t is the Fraction t itself."""
    if isinstance(zero, tuple):
        return tuple(_between(z, o, t) for z, o in zip(zero, one))
    zero, one = (Fraction(v) if isinstance(v, float) else v for v in (zero, one))
    return zero + t * (one - zero)


def _grid(algebra: MobiAlgebra, steps: int) -> dict:
    """{t: the scalar zero + t(one - zero)} for t = k/steps, k = 0..steps,
    where the algebra's carrier contains that scalar."""
    grid = {}
    for k in range(steps + 1):
        t = Fraction(k, steps)
        scalar = _between(algebra.zero, algebra.one, t)
        if algebra.carrier.contains(scalar):
            grid[t] = scalar
    return grid


def _cmd_trace(args) -> int:
    space = _build(args, MobiSpace)
    start = _point(space, "--from", args.src)
    end = _point(space, "--to", args.dst)
    if args.steps < 1:
        raise ValueError(f"--steps must be >= 1, got {args.steps}")
    grid = _grid(space.algebra, args.steps)
    rows = trace_geodesic(space, start, end, list(grid.values()))
    if not rows:
        raise ValueError("the scalar grid is empty; nothing to trace")
    width = len(_flatten_point(rows[0][1]))
    import csv
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t"] + [f"c{i + 1}" for i in range(width)])
        for t, (_, point) in zip(grid, rows):
            writer.writerow([_render_cell(t)]
                            + [_render_cell(v) for v in _flatten_point(point)])
    _out(f"wrote {len(rows)} points to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# wiring

def _add_check_flags(sp, affine=True):
    sp.add_argument("--samples", type=int, default=500,
                    help="sample count for infinite carriers (default 500)")
    sp.add_argument("--seed", type=int, default=0,
                    help="base RNG seed (default 0)")
    sp.add_argument("--exhaustive", action="store_true",
                    help="enumerate every assignment (finite carriers only)")
    if affine:
        sp.add_argument("--affine", action="store_true",
                        help="also check the affine interchange condition")
        sp.add_argument("--properties", action="store_true",
                        help="also check the derived-operation properties")
    sp.add_argument("--report", choices=("text", "json"), default="text")


def _add_params_flag(sp):
    sp.add_argument("--param", action="append", metavar="NAME=VALUE",
                    help="set a catalog parameter (repeatable)")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The `mobi` parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="mobi",
        description="check algebras, spaces, and modules against their laws")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="check every definition in a file")
    sp.add_argument("file")
    _add_check_flags(sp)
    sp.set_defaults(func=_cmd_check)

    cat = sub.add_parser("catalog", help="list or check built-in structures")
    catsub = cat.add_subparsers(dest="catalog_command", required=True)
    sp = catsub.add_parser("list", help="list catalog entries")
    sp.set_defaults(func=_cmd_catalog)
    sp = catsub.add_parser("check", help="check one catalog entry")
    sp.add_argument("name")
    _add_params_flag(sp)
    _add_check_flags(sp)
    sp.set_defaults(func=_cmd_catalog)

    sp = sub.add_parser("convert",
                        help="convert between spaces and modules, then check")
    sp.add_argument("direction",
                    choices=("space-to-module", "module-to-space"))
    sp.add_argument("name")
    sp.add_argument("--origin", default=None,
                    help="basepoint expression (default: the entry's own)")
    _add_params_flag(sp)
    _add_check_flags(sp)
    sp.set_defaults(func=_cmd_convert)

    sp = sub.add_parser("roundtrip",
                        help="check that converting there and back is the identity")
    sp.add_argument("name")
    _add_params_flag(sp)
    _add_check_flags(sp, affine=False)
    sp.set_defaults(func=_cmd_roundtrip)

    sp = sub.add_parser("search", help="enumerate finite models")
    sp.add_argument("--size", type=int, required=True)
    sp.add_argument("--distinct-constants", action="store_true")
    sp.add_argument("--limit", type=int, default=None)
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("trace", help="sample a path between two points to CSV")
    sp.add_argument("name")
    sp.add_argument("--from", dest="src", required=True)
    sp.add_argument("--to", dest="dst", required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--out", required=True)
    _add_params_flag(sp)
    sp.set_defaults(func=_cmd_trace)

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:  # --out names a pipe whose reader has gone
        return 0
    except _CONFIG_ERRORS as exc:
        # str() of a KeyError quotes its message; an OSError's args[0] is errno
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # overflow or division by zero in an operation
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def main():
    code = run_cli()
    try:
        sys.stdout.flush()  # here rather than at exit, which would print a traceback
    except BrokenPipeError:
        _drop_stdout()
    sys.exit(code)


if __name__ == "__main__":
    main()
