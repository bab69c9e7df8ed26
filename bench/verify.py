"""Check one op's outcome against its known answer (answers.py)."""

from __future__ import annotations

import json

from answers import TABLE

# The built-in probe of nonaffine-complex-space, rendered as in JSON reports.
COMPLEX_WITNESS = {
    "inputs": {"x1": ["0", "0"], "y1": ["0", "1"], "x2": ["1", "0"],
               "y2": ["0", "0"], "a": "-1/2"},
    "difference": ["3/20", "0"],
}


def _reports(argv, out: str):
    """(law, verdict, witness) triples from a text or JSON report."""
    if not out.strip():
        return []
    if "json" in argv:
        return [(r["law"], r["verdict"], r["witness"]) for r in json.loads(out)]
    rows = []
    for line in out.splitlines():
        head, _, _ = line.partition(" [")
        verdict, _, law = head.partition(" ")
        if verdict in ("PASS", "FAIL"):
            rows.append((law, verdict.lower(), None))
    return rows


def _search_lines(n: int, distinct: bool, count: int) -> list:
    suffix = " with distinct constants" if distinct else ""
    lines = [f"found {count} model(s) of size {n}{suffix}"]
    if n == 3 and count == 1:
        # Z/3 in its canonical labelling: zero=0, one=1, half=2 = (3+1)/2
        lines.append("model 1: zero=0 half=2 one=1")
        for a in range(3):
            rows = "  ".join(" ".join(str((a + b * c - b * a) % 3)
                                      for c in range(3)) for b in range(3))
            lines.append(f"  a={a}: {rows}")
    return lines


def _extra(check: str, argv, out: str, err: str, reports) -> str | None:
    kind, _, rest = check.partition(":")
    if kind == "complex-witness":
        for law, verdict, witness in reports:
            if law == "affine(half)":
                got = {"inputs": witness and witness["inputs"],
                       "difference": witness and witness.get("difference")}
                return None if got == COMPLEX_WITNESS else f"witness {got}"
        return "no affine(half) report"
    if kind == "search":
        n, distinct, count = (int(x) for x in rest.split(":"))
        want = _search_lines(n, bool(distinct), count)
        got = out.splitlines()
        if n != 3 or count != 1:
            got = got[:1]
        return None if got == want else f"search output {got[:5]}"
    if kind == "unreadable":
        prefix = f"error: cannot read {argv[1]}:"
        return None if err.startswith(prefix) else f"stderr {err[:120]!r}"
    if kind == "diagnostic":
        diag, line, col = rest.split(":")
        prefix = f"{argv[1]}:{line}:{col}: {diag}:"
        return None if err.startswith(prefix) else f"stderr {err[:120]!r}"
    raise ValueError(f"unknown check {check!r}")


def verify(key: str, argv, code, out: str, err: str) -> str | None:
    """None when the outcome matches the table, else why it does not.

    code is the exit code, or an exception when the command raised.
    """
    answer = TABLE[key]
    if isinstance(code, BaseException):
        return f"raised {type(code).__name__}: {code}"
    if code != answer.exit:
        last = err.strip().splitlines()[-1:] or [""]
        return f"exit {code}, expected {answer.exit}: {last[0][:200]}"
    try:
        reports = _reports(argv, out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    failing = {law for law, verdict, _ in reports if verdict == "fail"}
    if answer.exact and failing != answer.failing:
        return f"failing laws {sorted(failing)}, expected {sorted(answer.failing)}"
    if not answer.failing <= failing:
        return f"failing laws {sorted(failing)} miss {sorted(answer.failing)}"
    if answer.check:
        return _extra(answer.check, argv, out, err, reports)
    return None
