"""The three workloads: the `mobi` commands of one pass, built from the seed.

An op is one CLI command.  Its key names it in the table of known answers
(answers.py) and does not depend on the seed; its argv does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple
    child: bool = False  # run in a fresh interpreter under a memory cap


ALGEBRAS = ("canonical-interval-algebra", "rational-line-algebra",
            "float-line-algebra", "zmod-algebra", "lozenge-algebra",
            "plane-algebra", "tri-algebra")
SPACES = ("canonical-space", "projectile-space", "damped-space",
          "transported-space", "halfplane-space", "lozenge-space",
          "plane-space", "tri-space", "nonaffine-complex-space",
          "nonaffine-poly-space")
MODULES = ("canonical-module", "zmod-module", "projectile-module",
           "damped-module", "plane-module", "tri-module")

# Rounds of the eight search commands in one finite pass, so that search
# is a visible share of the pass (one round takes about 0.1 s).
SEARCH_ROUNDS = 10


def catalog_ops(seed: int) -> list:
    s = ("--seed", str(seed), "--report", "json")
    ops = []
    for name in ALGEBRAS + SPACES:
        ops.append(Op(f"catalog check {name}",
                      ("catalog", "check", name, "--properties", "--affine") + s))
    for name in MODULES:
        ops.append(Op(f"catalog check {name}", ("catalog", "check", name) + s))
    for name in SPACES:
        ops.append(Op(f"convert space-to-module {name}",
                      ("convert", "space-to-module", name) + s))
        ops.append(Op(f"roundtrip {name}", ("roundtrip", name) + s))
    for name in MODULES:
        ops.append(Op(f"convert module-to-space {name}",
                      ("convert", "module-to-space", name) + s))
        ops.append(Op(f"roundtrip {name}", ("roundtrip", name) + s))
    ops.append(Op("catalog check damped-space alpha=1000",
                  ("catalog", "check", "damped-space", "--param", "alpha=1000",
                   "--properties", "--affine") + s))
    ops.append(Op("catalog check transported-space lam=0,1",
                  ("catalog", "check", "transported-space", "--param", "lam=0,1",
                   "--properties", "--affine") + s))
    return ops


def finite_ops(seed: int) -> list:
    s = ("--seed", str(seed))
    ops = []
    for m in (3, 5, 7, 9, 11):
        ops.append(Op(f"catalog check zmod-algebra m={m} exhaustive",
                      ("catalog", "check", "zmod-algebra", "--param", f"m={m}",
                       "--exhaustive", "--properties") + s))
    for m, dim in ((3, 2), (5, 2), (3, 3)):
        ops.append(Op(f"catalog check zmod-module m={m} dim={dim} exhaustive",
                      ("catalog", "check", "zmod-module", "--param", f"m={m}",
                       "--param", f"dim={dim}", "--exhaustive") + s))
    ops.append(Op("convert module-to-space zmod-module exhaustive",
                  ("convert", "module-to-space", "zmod-module", "--exhaustive",
                   "--affine", "--properties") + s))
    for m in (15, 21):
        ops.append(Op(f"catalog check zmod-algebra m={m}",
                      ("catalog", "check", "zmod-algebra", "--param", f"m={m}")
                      + s))
    for _ in range(SEARCH_ROUNDS):
        for n in (1, 2, 3, 4):
            ops.append(Op(f"search size={n}", ("search", "--size", str(n))))
            ops.append(Op(f"search size={n} distinct",
                          ("search", "--size", str(n), "--distinct-constants")))
    ops.append(Op("catalog check zmod-algebra m=101",
                  ("catalog", "check", "zmod-algebra", "--param", "m=101") + s,
                  child=True))
    return ops


# --- dsl workload ------------------------------------------------------------

def _lit(v) -> str:
    v = Fraction(v)
    text = str(v)
    return text if v.denominator == 1 and v >= 0 else f"({text})"


def _coef(v) -> str:
    """A multiplicative coefficient; 1 is written as nothing."""
    return "" if v == 1 else f"{_lit(v)}*"


# Transcriptions of catalog entries.  `{X}` marks a coefficient slot;
# TEMPLATES gives each slot's value in the faithful transcription.  Slots
# are multiplicative coefficients, written as nothing when 1, except those
# in LITERAL_SLOTS, which are plain numbers.
LINE = """\
algebra line {{
  carrier: Q
  zero: 0
  half: 1/2
  one: 1
  p(a, b, c) = {A}a + {B}b*(c - a)
}}
"""

ZMOD = """\
algebra zmod {{
  carrier: Zmod({m})
  zero: 0
  half: {half}
  one: 1
  p(a, b, c) = {A}a + {B}b*c - {C}b*a
}}
"""

CPLX = """\
space cplx over rational_line_algebra {{
  carrier: QI x Q
  q((z, s), a, (w, t)) = (z + (w - z)*((({K} - a)*s + a*t + i)/(s + t + i)*a), s + {B}a*(t - s))
}}
"""

DAMPED = """\
space damped over float_line_algebra {{
  carrier: R64^2
  param alpha: R64 = 1
  q((x, s), a, (y, t)) = ({A}(1 - a)*x*exp(alpha*a*(t - s)) + a*y*exp(alpha*(1 - a)*(s - t)), s + {B}a*(t - s))
}}
"""

HALFPLANE = """\
space halfplane over canonical_interval_algebra {{
  carrier: Q^2 where v2 > 0
  q((x, s), a, (y, t)) = (x + {C}(y - x)*a*t/(s + a*(t - s)), s + {B}a*(t - s))
}}
"""

# Slot edits on the verbatim copy of tests/data/projectile.mobi.
PROJECTILE_SLOTS = {"B": "s + a*(t - s))", "P": "a - b*a + b*c"}

TEMPLATES = {
    "line": (LINE, {"A": 1, "B": 1}),
    "zmod": (ZMOD, {"A": 1, "B": 1, "C": 1}),
    "cplx": (CPLX, {"K": 2, "B": 1}),
    "damped": (DAMPED, {"A": 1, "B": 1}),
    "halfplane": (HALFPLANE, {"C": 1, "B": 1}),
}
LITERAL_SLOTS = {("cplx", "K")}

# Catalog twins: the same structures through catalog closures.
TWINS = {
    "projectile": (("rational-line-algebra", ()), ("projectile-space", ())),
    "line": (("rational-line-algebra", ()),),
    "zmod": (("zmod-algebra", ("--param", "m={m}")),),
    "cplx": (("nonaffine-complex-space", ()),),
    "damped": (("damped-space", ()),),
    "halfplane": (("halfplane-space", ()),),
}

# Fewer samples than the default 500 keep dsl commands short, so that one
# run holds enough commands for a median and a tail.
DSL_SAMPLES = 100

PERTURB_VALUES = (2, 3, -1, Fraction(1, 2), Fraction(3, 2))
MODULUS = 7
ZMOD_PERTURB_VALUES = (2, 3, 4)  # k - 1 is a unit mod 7

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


def _render(name: str, values: dict, golden: str) -> str:
    if name == "projectile":
        text = golden
        for slot, value in values.items():
            if value != 1:
                target = PROJECTILE_SLOTS[slot]
                edit = (f"s + {_coef(value)}a*(t - s))" if slot == "B"
                        else f"a - b*a + {_coef(value)}b*c")
                if target not in text:
                    raise ValueError(f"{target!r} not found in the golden file")
                text = text.replace(target, edit)
        return text
    template, _ = TEMPLATES[name]
    fields = {slot: (_lit(v) if (name, slot) in LITERAL_SLOTS else _coef(v))
              for slot, v in values.items()}
    return template.format(m=MODULUS, half=(MODULUS + 1) // 2, **fields)


def _defaults(name: str) -> dict:
    if name == "projectile":
        return {slot: 1 for slot in PROJECTILE_SLOTS}
    return dict(TEMPLATES[name][1])


def dsl_ops(seed: int, workdir: Path, golden: str):
    """The ops of one dsl pass and, per transcription, its catalog twins.

    Each file is checked as transcribed and once per coefficient slot
    with that one coefficient changed to a seeded value.  Writes the
    generated .mobi files into workdir.
    """
    rng = random.Random(seed)
    s = ("--samples", str(DSL_SAMPLES), "--seed", str(seed))
    ops, perturbed, twins = [], [], {}
    for name in ("projectile", "line", "zmod", "cplx", "damped", "halfplane"):
        flags = ("--properties", "--affine") if name == "projectile" \
            else ("--properties",)
        path = workdir / f"{name}.mobi"
        path.write_text(_render(name, _defaults(name), golden), encoding="utf-8")
        ops.append(Op(f"check {name}", ("check", str(path)) + flags + s))
        twins[name] = [Op(f"twin {entry}", ("catalog", "check", entry)
                          + tuple(a.format(m=MODULUS) for a in extra)
                          + flags + s)
                       for entry, extra in TWINS[name]]
        choices = ZMOD_PERTURB_VALUES if name == "zmod" else PERTURB_VALUES
        for slot in _defaults(name):
            values = _defaults(name)
            values[slot] = rng.choice([v for v in choices if v != values[slot]])
            path = workdir / f"{name}-perturbed-{slot}.mobi"
            path.write_text(_render(name, values, golden), encoding="utf-8")
            perturbed.append(Op(f"check {name} perturbed {slot}",
                                ("check", str(path)) + flags + s))
    malformed = []
    for kind, text in MALFORMED.items():
        path = workdir / f"malformed-{kind}.mobi"
        path.write_text(text, encoding="utf-8")
        malformed.append(Op(f"check malformed {kind}", ("check", str(path))))
    # The one error that is not a diagnostic.  It also makes the op count
    # odd, so that the median op time is one op's time, not the mean of two.
    malformed.append(Op("check missing file",
                        ("check", str(workdir / "missing.mobi"))))
    return ops + perturbed + malformed, twins
