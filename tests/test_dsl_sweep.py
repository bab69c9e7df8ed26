"""Every token of a few .mobi files, deleted, doubled or replaced, gives a
recorded outcome: the DslError's kind, line, col and msg, or the printed
definitions when the mutant loads.  The table pins the front end's
diagnostics, so that a rework of the lexer or parser keeps each of them.

After a change that is meant to move a diagnostic, rewrite the table with

    PYTHONPATH=src python tests/test_dsl_sweep.py

and review its diff.
"""

import json
import re
from pathlib import Path

from mobikit import DslError, elaborate, parse, print_definitions

DATA = Path(__file__).parent / "data"
TABLE = DATA / "dsl_sweep.json"

# The malformed files of the benchmark's dsl workload, one per error kind.
MALFORMED = {
    "lexical": "algebra bad {\n  carrier: Q\n  zero: 0\n  half: 1/2\n"
               "  one: 1\n  p(a, b, c) = a + b*(c - a) ;\n}\n",
    "syntax": "algebra bad {\n  carrier: Q\n  zero 0\n  half: 1/2\n"
              "  one: 1\n  p(a, b, c) = a + b*(c - a)\n}\n",
    "unbound-identifier": "algebra bad {\n  carrier: Q\n  zero: 0\n"
                          "  half: 1/2\n  one: 1\n"
                          "  p(a, b, c) = a + b*(d - a)\n}\n",
    "shape-mismatch": "algebra bad {\n  carrier: Q^2\n  zero: (0, 0)\n"
                      "  half: (1/2, 0)\n  one: (1, 0)\n"
                      "  p(a, b, c) = a + b\n}\n",
    "exp-i-misuse": "algebra bad {\n  carrier: Q\n  zero: 0\n  half: 1/2\n"
                    "  one: 1\n  p(a, b, c) = a + b*(c - a) + i\n}\n",
}

# A token here is a name, an integer, a two-character relation or any other
# visible character; it need not be one the lexer accepts.
_TOKEN = re.compile(r"[A-Za-z_]\w*|\d+|<=|>=|\S")
_REPLACEMENTS = ("@", "(", ")", ",", "0", "x", "=", "}", "-")


def _sources() -> dict:
    sources = {"projectile": (DATA / "projectile.mobi").read_text()}
    sources.update((f"malformed {kind}", text) for kind, text in MALFORMED.items())
    return sources


def _mutants(text: str):
    """(label, mutant) for each token: deleted, doubled, then each replacement."""
    for k, m in enumerate(_TOKEN.finditer(text)):
        start, end = m.span()
        label = f"token {k} {m.group()!r} at offset {start}"
        yield f"{label} deleted", text[:start] + text[end:]
        yield f"{label} doubled", text[:end] + m.group() + text[end:]
        for new in _REPLACEMENTS:
            yield f"{label} -> {new!r}", text[:start] + new + text[end:]


def _outcome(text: str):
    try:
        items = parse(text)
        elaborate(items)
    except DslError as e:
        return [e.kind, e.line, e.col, e.msg]
    return print_definitions(items)


def _sweep() -> dict:
    return {name: [(label, _outcome(mutant)) for label, mutant in _mutants(text)]
            for name, text in _sources().items()}


def test_every_token_mutation_keeps_its_recorded_outcome():
    table = json.loads(TABLE.read_text())
    swept = _sweep()
    assert list(swept) == list(table)
    differ = []
    for name, cases in swept.items():
        assert len(cases) == len(table[name]), name
        differ += [f"{name}: {label}: {got!r} != {want!r}"
                   for (label, got), want in zip(cases, table[name])
                   if got != want]
    assert not differ, f"{len(differ)} outcome(s) changed:\n" + "\n".join(differ[:20])


if __name__ == "__main__":
    # one outcome a line, so that a change to the table reads as a small diff
    compact = {"separators": (",", ":")}
    TABLE.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: [\n"
        + ",\n".join(json.dumps(outcome, **compact) for _, outcome in cases)
        + "\n]" for name, cases in _sweep().items()) + "\n}\n")
