"""Hand-written known answers for every benchmark op.

Each entry was derived from the paper's statements, the README and the
arguments noted beside it, not by running the program.  An op is keyed
by a stable, seed-independent name (see workloads.py).

Answer fields:
  exit     the exit code `mobi` must return (0 pass, 1 a law failed,
           2 usage or configuration error);
  failing  law ids that must fail; with exact=True no other law may fail;
  check    the name of an extra output check in verify.py, or None.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Answer:
    exit: int
    failing: frozenset = frozenset()
    exact: bool = True
    check: str | None = None


PASS = Answer(0)
NO_DOUBLER = Answer(2)  # space-to-module needs a doubler 2 in the scalars


def _fails(*laws, exact=True, check=None):
    return Answer(1, frozenset(laws), exact, check)


# Ops that the program gets wrong at the seed.  They stay in the load and
# count as failed until the program is fixed.
KNOWN_DEFECTS = {
    # OverflowError from exp(1000 s) escapes the law runner (ROADMAP item 3)
    "catalog check damped-space alpha=1000":
        "OverflowError escapes the law runner",
    # lam(s) = s vanishes at s = 0 in the transport spot check (item 3)
    "catalog check transported-space lam=0,1":
        "ZeroDivisionError escapes catalog.build",
    # sampling a finite carrier builds all 101^5 tuples (ROADMAP item 2)
    "catalog check zmod-algebra m=101":
        "sampling Z/101 materialises the full product",
}

# --- catalog workload --------------------------------------------------------
# Every catalog entry satisfies its law suite (README, acceptance criterion
# 5).  The two non-affine spaces fail the affine interchange condition by
# design and nothing else; nonaffine-complex-space fails it at its built-in
# probe with side difference (3/20, 0) (README, criterion 2).
_CATALOG_CHECKS = {
    "canonical-interval-algebra": PASS,
    "rational-line-algebra": PASS,
    "float-line-algebra": PASS,
    "zmod-algebra": PASS,
    "lozenge-algebra": PASS,
    "plane-algebra": PASS,
    "tri-algebra": PASS,
    "canonical-space": PASS,
    "projectile-space": PASS,
    "damped-space": PASS,
    "transported-space": PASS,
    "halfplane-space": PASS,
    "lozenge-space": PASS,
    "plane-space": PASS,
    "tri-space": PASS,
    "nonaffine-complex-space": _fails("affine(half)", check="complex-witness"),
    "nonaffine-poly-space": _fails("affine(half)"),
    "canonical-module": PASS,
    "zmod-module": PASS,
    "projectile-module": PASS,
    "damped-module": PASS,
    "plane-module": PASS,
    "tri-module": PASS,
}

# space-to-module needs the doubler 2 with p(0, 1/2, 2) = 1.  The unit
# interval (halfplane-space's scalars) and the lozenge hold no such
# element, since 2 and (2, 0) lie outside them: exit 2.  An affine space
# with a doubler gives a module (the paper's correspondence): exit 0.  A
# non-affine space gives a non-associative +: for the complex pair this
# is acceptance criterion 6; for the polynomial pair, with origin (0, 0),
# ((1,0) + (0,2)) + (0,2) = (68/5, 4) but (1,0) + ((0,2) + (0,2)) = (29/5, 4).
_SPACE_TO_MODULE = {
    "canonical-space": PASS,
    "projectile-space": PASS,
    "damped-space": PASS,
    "transported-space": PASS,
    "halfplane-space": NO_DOUBLER,
    "lozenge-space": NO_DOUBLER,
    "plane-space": PASS,
    "tri-space": PASS,
    "nonaffine-complex-space": _fails("module.add-assoc", exact=False),
    "nonaffine-poly-space": _fails("module.add-assoc", exact=False),
}

# Every module gives an affine space over the algebra of its ring.
_MODULE_TO_SPACE = {name: PASS for name in (
    "canonical-module", "zmod-module", "projectile-module", "damped-module",
    "plane-module", "tri-module")}

# Round trips are identities on affine spaces and on modules.  On the
# non-affine spaces the induced q' differs from q: at x = (1, 0),
# y = (0, 1), a = 1/2 the complex pair gives (19 - 8i)/34 against
# 5/8 - i/8, and at x = (1, 0), y = (0, 2), a = 1/2 the polynomial pair
# gives 11/10 against 4/5.
_ROUNDTRIP = dict(_MODULE_TO_SPACE)
_ROUNDTRIP.update({
    "canonical-space": PASS,
    "projectile-space": PASS,
    "damped-space": PASS,
    "transported-space": PASS,
    "halfplane-space": NO_DOUBLER,
    "lozenge-space": NO_DOUBLER,
    "plane-space": PASS,
    "tri-space": PASS,
    "nonaffine-complex-space": _fails("roundtrip(space)"),
    "nonaffine-poly-space": _fails("roundtrip(space)"),
})

TABLE = {}
TABLE.update({f"catalog check {n}": a for n, a in _CATALOG_CHECKS.items()})
TABLE.update({f"convert space-to-module {n}": a
              for n, a in _SPACE_TO_MODULE.items()})
TABLE.update({f"convert module-to-space {n}": a
              for n, a in _MODULE_TO_SPACE.items()})
TABLE.update({f"roundtrip {n}": a for n, a in _ROUNDTRIP.items()})
# ROADMAP item 3: a crash inside an operation or a builder is an error,
# exit 2, never exit 1 with a traceback.
TABLE["catalog check damped-space alpha=1000"] = Answer(2)
TABLE["catalog check transported-space lam=0,1"] = Answer(2)

# --- finite workload ---------------------------------------------------------
# Z/m with m odd is a ring in which 2 is a unit, so zmod-algebra and
# zmod-module satisfy every law for every odd m (README, criterion 1).
for _m in (3, 5, 7, 9, 11):
    TABLE[f"catalog check zmod-algebra m={_m} exhaustive"] = PASS
for _m, _dim in ((3, 2), (5, 2), (3, 3)):
    TABLE[f"catalog check zmod-module m={_m} dim={_dim} exhaustive"] = PASS
TABLE["convert module-to-space zmod-module exhaustive"] = PASS
for _m in (15, 21, 101):
    TABLE[f"catalog check zmod-algebra m={_m}"] = PASS

# Finite search.  For n >= 2 the constants are forced apart: 0 = 1 gives
# a = p(0, a, 1) = p(0, a, 0) = 0 for all a; half = 0 gives
# half = p(1, 0, 0) = 1; half = 1 gives half = p(1, 1, 0) = 0.  A finite
# algebra has a doubler (the half row is injective, hence onto), so it is
# a ring in which 2 is a unit: none of order 2 or 4, only Z/3 of order 3
# (README example: "found 1 model(s) of size 3").  Size 1 has the trivial
# model, whose constants coincide.
SEARCH_MODELS = {(1, False): 1, (1, True): 0, (2, False): 0, (2, True): 0,
                 (3, False): 1, (3, True): 1, (4, False): 0, (4, True): 0}
for (_n, _distinct), _count in SEARCH_MODELS.items():
    _key = f"search size={_n}" + (" distinct" if _distinct else "")
    TABLE[_key] = Answer(0, check=f"search:{_n}:{int(_distinct)}:{_count}")

# --- dsl workload ------------------------------------------------------------
# Transcriptions of catalog entries pass like their twins; the projectile
# file is the golden file of acceptance criterion 9.
DSL_FILES = ("projectile", "line", "zmod", "cplx", "damped", "halfplane")
for _name in DSL_FILES:
    TABLE[f"check {_name}"] = PASS

# Perturbing one coefficient breaks a unit law, whatever the new value:
#   line  k*a + b*(c-a):      A4  p(a, 0, b) = k a      != a
#   line  a + k*b*(c-a):      A2  p(0, a, 1) = k a      != a
#   zmod  k*a + b*c - b*a:    A4  p(a, 0, b) = k a      != a (mod 7)
#   zmod  a + k*b*c - b*a:    A2  p(0, a, 1) = k a      != a (mod 7)
#   zmod  a + b*c - k*b*a:    A3  p(a, b, a) = a + (1-k)ab != a
#   s + k*a*(t - s) in the second component of q, any space:
#                             X2  q(y, 1, x) has second part t + k(s-t) != s
#   cplx  (k - a)*s in the weight: X2 needs weight 1 at a = 1, which holds
#         only for k = 2 (or s = 0)
#   damped k*(1-a)*x*...:     X1  q(x, 0, y) = k x      != x
#   halfplane k*(y-x)*...:    X2  q(y, 1, x) = y + k(x-y) != x
#   projectile line.p = a - b*a + k*b*c:
#                             A2 of its algebra `line`
PERTURBED = {
    ("projectile", "B"): "projectile.X2",
    ("projectile", "P"): "line.A2",
    ("line", "A"): "line.A4",
    ("line", "B"): "line.A2",
    ("zmod", "A"): "zmod.A4",
    ("zmod", "B"): "zmod.A2",
    ("zmod", "C"): "zmod.A3",
    ("cplx", "K"): "cplx.X2",
    ("cplx", "B"): "cplx.X2",
    ("damped", "A"): "damped.X1",
    ("damped", "B"): "damped.X2",
    ("halfplane", "C"): "halfplane.X2",
    ("halfplane", "B"): "halfplane.X2",
}
for (_name, _slot), _law in PERTURBED.items():
    TABLE[f"check {_name} perturbed {_slot}"] = _fails(_law, exact=False)

# Malformed files exit 2 with `path:line:col: kind:` on stderr.  Line and
# column point at the offending token of the text in workloads.py.
MALFORMED = {
    "lexical": (6, 30),             # the ';'
    "syntax": (3, 8),               # the '0' after `zero` with no ':'
    "unbound-identifier": (6, 23),  # the 'd'
    "shape-mismatch": (6, 18),      # the '+' on Q^2 values
    "exp-i-misuse": (6, 32),        # the 'i' on a Q carrier
}
for _kind, (_line, _col) in MALFORMED.items():
    TABLE[f"check malformed {_kind}"] = Answer(
        2, check=f"diagnostic:{_kind}:{_line}:{_col}")

# A file that cannot be read is a usage error: exit 2, `error: cannot read`.
TABLE["check missing file"] = Answer(2, check="unreadable")

# Catalog twins of the transcriptions, run only in the traced dsl run.
for _name in ("rational-line-algebra", "zmod-algebra",
              "nonaffine-complex-space", "damped-space", "halfplane-space",
              "projectile-space"):
    TABLE[f"twin {_name}"] = PASS
