"""Every law of every suite keeps its id, its variable names in order and
the carrier of each variable.

The variable order decides which seeded draw feeds which variable, so a
silent reorder of a passing law changes what is tested without moving any
report hash.  The table in `tests/data/law_variables.json` records each
law's `(suite, id, names, carriers)` on structures whose points and scalars
differ.  Regenerate it with `python tests/test_law_variables.py` only when
a law is meant to change.
"""

import json
import sys
from pathlib import Path

from mobikit import (PointedMobiSpace, Sampled, algebra_from_ring, build,
                     check_affine, check_algebra, check_algebra_morphism,
                     check_commutativity_condition, check_module,
                     check_properties, check_ring, check_ring_commutativity,
                     check_space, check_space_morphism, check_y_properties,
                     default_origin, roundtrip_module, roundtrip_space,
                     transport_morphism)
import mobikit.report as report

TABLE = Path(__file__).parent / "data" / "law_variables.json"
LAW_CHECKS = ("check_equation", "check_predicate", "check_implication")


def _identity(v):
    return v


def _suites():
    """(suite label, thunk) for every suite on the pinned structures."""
    space = build("projectile-space")
    pointed = PointedMobiSpace(space, default_origin("projectile-space"))
    algebra = space.algebra
    module = build("canonical-module", n=2)
    tri_ring = build("tri-module").ring
    tri_algebra = algebra_from_ring(tri_ring)
    pair = (_identity, _identity)
    s = Sampled(samples=1)
    return [
        ("check_algebra(rational-line)", lambda: check_algebra(algebra, s)),
        ("check_properties(rational-line)", lambda: check_properties(algebra, s)),
        ("check_algebra(tri)", lambda: check_algebra(tri_algebra, s)),
        ("check_properties(tri)", lambda: check_properties(tri_algebra, s)),
        ("check_commutativity_condition(tri)",
         lambda: [check_commutativity_condition(tri_algebra, s)]),
        ("check_algebra_morphism(tri)",
         lambda: check_algebra_morphism(_identity, tri_algebra, tri_algebra, s)),
        ("check_space(projectile)", lambda: check_space(space, s)),
        ("check_affine(projectile)", lambda: [check_affine(space, s)]),
        ("check_y_properties(projectile)", lambda: check_y_properties(space, s)),
        ("check_space_morphism(projectile)",
         lambda: check_space_morphism(_identity, _identity, space, space, s)),
        ("check_ring(tri)", lambda: check_ring(tri_ring, s)),
        ("check_ring_commutativity(tri)",
         lambda: [check_ring_commutativity(tri_ring, s)]),
        ("check_module(canonical-2)", lambda: check_module(module, s)),
        ("roundtrip_module(canonical-2)", lambda: [roundtrip_module(module, s)]),
        ("roundtrip_space(projectile)", lambda: [roundtrip_space(pointed, s)]),
        ("transport_morphism(modules->spaces, canonical-2)",
         lambda: transport_morphism(pair, module, module, s)),
        ("transport_morphism(spaces->modules, projectile)",
         lambda: transport_morphism(pair, pointed, pointed, s)),
    ]


def law_table() -> list:
    """[suite, law, names, carriers] for every law checked, in order.

    Each law check is replaced, in every loaded mobikit module that holds
    it, by a recorder that notes its arguments and then runs it."""
    rows = []
    modules = [m for n, m in sys.modules.items()
               if n == "mobikit" or n.startswith("mobikit.")]
    restore = []
    for fname in LAW_CHECKS:
        orig = getattr(report, fname)

        def recorder(law, names, slots, *args, _orig=orig, **kwargs):
            rows.append([suite, law, list(names), [c.describe() for c in slots]])
            return _orig(law, names, slots, *args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, recorder)
    try:
        for suite, run in _suites():
            run()
    finally:
        for mod, attr, value in restore:
            setattr(mod, attr, value)
    return rows


def test_every_law_keeps_its_variables_and_carriers():
    want = json.loads(TABLE.read_text(encoding="utf-8"))
    assert law_table() == want


def test_the_table_covers_every_suite_and_both_carrier_kinds():
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    assert {r[0].split("(")[0] for r in rows} >= {
        "check_algebra", "check_properties", "check_commutativity_condition",
        "check_algebra_morphism", "check_space", "check_affine",
        "check_y_properties", "check_space_morphism", "check_ring",
        "check_ring_commutativity", "check_module", "roundtrip_module",
        "roundtrip_space", "transport_morphism"}
    space_rows = [r for r in rows if r[0] == "check_space(projectile)"]
    assert {c for r in space_rows for c in r[3]} == {"Q", "Q x Q"}


if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row) for row in law_table())
    TABLE.write_text(f"[\n{rows}\n]\n", encoding="utf-8")
    print(f"wrote {TABLE}")
