import json
import random
from itertools import permutations, product
from pathlib import Path

import pytest

from mobikit import (CheckReport, Exhaustive, FiniteModel, all_passed, build,
                     check_algebra, check_ring, ring_from_algebra, run_cli,
                     search_finite)
from mobikit import search
from mobikit.search import (MAX_SIZE, _canonical_key, _Instances,
                            _model_from_key, _Placement)


def test_size_one_has_the_degenerate_model():
    models = search_finite(1)
    assert len(models) == 1
    m = models[0]
    assert m.zero == m.half == m.one == 0
    assert m.p(0, 0, 0) == 0


def test_size_two_has_no_model_with_distinct_constants():
    assert search_finite(2, require_distinct_constants=True) == []


def test_size_two_has_no_model_at_all():
    # collapsing any two of zero, half, one breaks A1 or A2 on two points
    assert search_finite(2) == []


def test_size_three_finds_exactly_the_modular_model():
    models = search_finite(3)
    assert len(models) == 1
    m = models[0]
    assert (m.zero, m.half, m.one) == (0, 2, 1)
    want = build("zmod-algebra", m=3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert m.p(a, b, c) == want.p(a, b, c)


def test_size_four_has_no_model():
    assert search_finite(4) == []


def test_size_six_has_no_model():
    # a ring of order 6 is Z/6, where 2 is not a unit
    assert search_finite(6) == []


def _invariants(model):
    """(additive order of one, square roots of zero, idempotents) of the
    model's ring."""
    ring = ring_from_algebra(model.to_algebra())
    x, order = ring.one, 1
    while x != ring.zero:
        x, order = ring.add(x, ring.one), order + 1
    squares = [ring.mul(x, x) for x in range(model.size)]
    return (order, squares.count(ring.zero),
            sum(sq == x for x, sq in enumerate(squares)))


def test_size_nine_finds_the_four_rings_of_order_nine():
    models = search_finite(9)
    for model in models:
        algebra = model.to_algebra()
        assert all_passed(check_algebra(algebra, Exhaustive())), model
        assert all_passed(check_ring(ring_from_algebra(algebra), Exhaustive()))
    # Z/3[x]/(x^2), Z/3 x Z/3, GF(9), Z/9, in the order the search finds them
    assert [_invariants(m) for m in models] == [
        (3, 3, 2), (3, 1, 4), (3, 1, 2), (9, 3, 2)]


def test_size_ten_has_no_model():
    # a ring of order 10 has Z/2 as a factor, where 2 is not a unit
    assert search_finite(10) == []


def test_the_least_number_heuristic_keeps_every_model_in_order(monkeypatch):
    fast = [search_finite(n, distinct)
            for n in range(1, 8) for distinct in (False, True)]
    monkeypatch.setattr(search, "_candidates", lambda n, used: range(n))
    assert fast == [search_finite(n, distinct)
                    for n in range(1, 8) for distinct in (False, True)]


def test_only_the_canonical_placements_are_searched():
    assert search._placements(1) == [(0, 0, 0)]
    assert search._placements(7) == [(0, 0, 0), (0, 0, 1), (0, 1, 0),
                                     (0, 1, 1), (0, 2, 1)]
    for n in range(1, 6):
        for z, h, o in product(range(n), repeat=3):
            labels = {}
            for x in (z, o, h):
                labels.setdefault(x, len(labels))
            assert ((labels[z], labels[h], labels[o])
                    in search._placements(n))


def test_size_seven_finds_the_modular_model_first():
    models = search_finite(7, limit=1)
    want = build("zmod-algebra", m=7)
    table = [[[want.p(a, b, c) for c in range(7)] for b in range(7)]
             for a in range(7)]
    assert models == [_model_from_key(7, _canonical_key(7, 0, 4, 1, table))]


def test_found_models_pass_the_full_law_suite():
    models = [m for n in range(1, 6) for m in search_finite(n)]
    for model in models + search_finite(7, limit=1):
        algebra = model.to_algebra()
        assert all_passed(check_algebra(algebra, Exhaustive())), model
        ring = ring_from_algebra(algebra)
        assert all_passed(check_ring(ring, Exhaustive())), model


def test_each_new_canonical_model_is_verified_once(monkeypatch):
    # several labeled tables of size 7 reach a leaf; all share one canonical key
    calls, keys = [], []

    def verifier(algebra, strategy):
        calls.append(strategy)
        return check_algebra(algebra, strategy)

    def key(*args):
        keys.append(args)
        return _canonical_key(*args)

    monkeypatch.setattr(search, "check_algebra", verifier)
    monkeypatch.setattr(search, "_canonical_key", key)
    assert len(search_finite(7)) == 1
    assert len(keys) > 1
    assert calls == [Exhaustive()]


def test_a_model_the_verifier_rejects_is_not_reported(monkeypatch):
    failed = CheckReport("A7", Exhaustive(), "fail")
    monkeypatch.setattr(search, "check_algebra", lambda algebra, strategy: [failed])
    assert search_finite(3) == []


def test_limit_stops_at_the_first_models_and_must_be_positive():
    for n in range(1, 6):
        found = search_finite(n)
        assert all(isinstance(m, FiniteModel) for m in found)
        assert search_finite(n, limit=1) == found[:1]
    for limit in (0, -1):
        with pytest.raises(ValueError, match="limit must be >= 1"):
            search_finite(3, limit=limit)


def test_table_lookup_wraps_like_the_carrier():
    m = search_finite(3)[0]
    alg = m.to_algebra()
    assert alg.p(4, 5, 6) == alg.p(1, 2, 0)


@pytest.mark.parametrize("bad", [0, MAX_SIZE + 1, -1, True, 2.0])
def test_out_of_range_sizes_are_rejected(bad):
    with pytest.raises(ValueError):
        search_finite(bad)


# `mobi search` output at sizes 1 to 5, captured from the search that
# rescanned every A7 and A8 instance at each node (size 5 with its size
# cap lifted).
Z3_MODEL = """\
model 1: zero=0 half=2 one=1
  a=0: 0 0 0  0 1 2  0 2 1
  a=1: 1 1 1  0 1 2  2 1 0
  a=2: 2 2 2  0 1 2  1 0 2
"""
Z5_MODEL = """\
model 1: zero=0 half=2 one=1
  a=0: 0 0 0 0 0  0 1 2 3 4  0 2 3 4 1  0 3 4 1 2  0 4 1 2 3
  a=1: 1 1 1 1 1  0 1 2 3 4  2 1 4 0 3  4 1 3 2 0  3 1 0 4 2
  a=2: 2 2 2 2 2  0 1 2 3 4  3 4 2 1 0  1 0 2 4 3  4 3 2 0 1
  a=3: 3 3 3 3 3  0 1 2 3 4  4 0 1 3 2  2 4 0 3 1  1 2 4 3 0
  a=4: 4 4 4 4 4  0 1 2 3 4  1 3 0 2 4  3 2 1 0 4  2 0 3 1 4
"""
SEARCH_STDOUT = {
    1: "found 1 model(s) of size 1\nmodel 1: zero=0 half=0 one=0\n  a=0: 0\n",
    2: "found 0 model(s) of size 2\n",
    3: "found 1 model(s) of size 3\n" + Z3_MODEL,
    4: "found 0 model(s) of size 4\n",
    5: "found 1 model(s) of size 5\n" + Z5_MODEL,
}
DISTINCT_STDOUT = {
    1: "found 0 model(s) of size 1 with distinct constants\n",
    2: "found 0 model(s) of size 2 with distinct constants\n",
    3: "found 1 model(s) of size 3 with distinct constants\n" + Z3_MODEL,
    4: "found 0 model(s) of size 4 with distinct constants\n",
    5: "found 1 model(s) of size 5 with distinct constants\n" + Z5_MODEL,
}


# `mobi search` output at sizes 6 to 9, captured from the search that
# enumerated every relabeling for the canonical key and built every A7 and
# A8 instance before the first placement.
PINNED_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "search_stdout.json").read_text())


def _pinned(n, variant):
    if n > 5:
        return PINNED_STDOUT[f"{n} {variant}"]
    return (DISTINCT_STDOUT if "distinct" in variant else SEARCH_STDOUT)[n]


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("extra, variant", [
    ((), "all"), (("--limit", "1"), "limit1"),
    (("--distinct-constants",), "distinct"),
    (("--distinct-constants", "--limit", "1"), "distinct-limit1")],
    ids=["all", "limit1", "distinct", "distinct-limit1"])
def test_search_stdout_is_pinned(capsys, n, extra, variant):
    assert run_cli(["search", "--size", str(n), *extra]) == 0
    assert capsys.readouterr().out == _pinned(n, variant)


def _brute_force_key(n, z, h, o, table):
    best = None
    for perm in permutations(range(n)):
        inv = [0] * n
        for src, dst in enumerate(perm):
            inv[dst] = src
        flat = tuple(perm[table[inv[a]][inv[b]][inv[c]]]
                     for a in range(n) for b in range(n) for c in range(n))
        key = (perm[z], perm[o], perm[h], flat)
        if best is None or key < best:
            best = key
    return best


def _relabeled(rng, n, z, h, o, table):
    """The arguments of _canonical_key for the table relabeled at random."""
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for src, dst in enumerate(perm):
        inv[dst] = src
    table = [[[perm[table[inv[a]][inv[b]][inv[c]]] for c in range(n)]
              for b in range(n)] for a in range(n)]
    return n, perm[z], perm[h], perm[o], table


def _tables(rng, n):
    """Tables over n labels, each with random constants: uniform entries,
    a constant table, entries projected from their own indices, and
    entries from two labels, which leave many relabelings tied."""
    def table(entry):
        return [[[entry(a, b, c) for c in range(n)] for b in range(n)]
                for a in range(n)]

    k = rng.randrange(n)
    two = [rng.randrange(n), rng.randrange(n)]
    for t in (table(lambda a, b, c: rng.randrange(n)),
              table(lambda a, b, c: k),
              table(lambda a, b, c: (a, b, c)[rng.randrange(3)]),
              table(lambda a, b, c: rng.choice(two))):
        yield (n, rng.randrange(n), rng.randrange(n), rng.randrange(n), t)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_canonical_key_matches_the_minimum_over_all_relabelings(n):
    model = search_finite(n)[0]
    rng = random.Random(n)
    for _ in range(5 if n < 7 else 2):
        args = _relabeled(rng, n, model.zero, model.half, model.one,
                          model.table)
        assert _canonical_key(*args) == _brute_force_key(*args)


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_key_of_tables_that_are_no_model(n):
    rng = random.Random(100 + n)
    cases = list(_tables(rng, n))
    # the brute force tries all n! labelings, about 2 s a table at n = 8
    if n < 7:
        cases += [_relabeled(rng, *args) for args in cases]
    elif n == 8:
        cases = [cases[0], cases[3]]  # uniform and two-valued
    for args in cases:
        assert _canonical_key(*args) == _brute_force_key(*args), args


def _eager_instances(n):
    """The A7 and A8 instance table as it was built in full before the
    first placement: (static, groups), indexed as in _Instances."""
    quint = list(product(range(n), repeat=5))
    n5, nn = n ** 5, n * n
    rng = range(n)
    static = (
        [((q * n + r) * n + s, p * nn + q * n + t, p * nn + s * n + t,
          p * nn + t, r * n) for p, q, r, s, t in quint]
        + [((p * n + q) * n + r, (s * n + q) * n + t, p * nn + s,
            r * nn + t, q * n) for p, q, r, s, t in quint])
    outer = [p * n ** 4 + t for p in rng for t in rng if p != t]
    groups = (
        [[((q * n + r) * n + s) * n + pt for pt in outer] if q != s
         else [] for q in rng for r in rng for s in rng]
        + [[n5 + (((p * n + q) * n + r) * n + s) * n + t
            for s in rng for t in rng if p != r or s != t]
           for p in rng for q in rng for r in rng])
    by_b = [[2 * n5 + g for g in range(2 * n ** 3)
             if groups[g] and g // n % n == b] for b in rng]
    return static, groups, by_b


@pytest.mark.parametrize("n", range(1, 8))
def test_each_group_built_on_first_visit_matches_the_eager_table(n):
    static, groups, by_b = _eager_instances(n)
    instances = _Instances(n)
    assert instances.by_b == by_b
    for z, h, o in search._placements(n):
        state = _Placement(n, z, h, o, instances)
        if state.ok:
            cells = state.cells
            free = [k for k in range(n ** 3) if cells[k] is None]
            state.fill(free, 0, lambda table: False, 1 << z | 1 << h | 1 << o)
        built = set()
        for g, ids in instances.groups.items():
            assert ids == groups[g], (z, h, o, g)
            assert [instances.static[i] for i in ids] == [static[i] for i in ids]
            built.update(ids)
        assert all(instances.static[i] is None
                   for i in range(2 * n ** 5) if i not in built)


def test_a_small_search_builds_few_instances(monkeypatch):
    made = []

    class Recorded(_Instances):
        def __init__(self, n):
            super().__init__(n)
            made.append(self)

    monkeypatch.setattr(search, "_Instances", Recorded)
    assert search_finite(4) == []
    (instances,) = made
    # the search visits 33 of the 112 groups, 444 of the 2 * 4^5 instances
    built = sum(len(ids) for ids in instances.groups.values())
    assert (len(instances.groups), built) == (33, 444)


class Conflict(Exception):
    pass


def _closure(n, z, h, o, assigned):
    """Reference propagation by full rescans: the unit laws and `assigned`,
    closed under half-row injectivity and every A7 and A8 instance.
    Returns the cells as {(a, b, c): value}; raises Conflict."""
    t = {}

    def put(cell, v):
        if t.setdefault(cell, v) != v:
            raise Conflict(cell)

    for a, b in product(range(n), repeat=2):
        put((a, z, b), a)
        put((a, b, a), a)
        put((b, o, a), a)
        put((z, a, o), a)
    put((o, h, z), h)
    for cell, v in assigned:
        put(cell, v)
    size = len(t) - 1
    while len(t) != size:
        size = len(t)
        for a in range(n):
            row = [t.get((a, h, c)) for c in range(n)]
            known = [v for v in row if v is not None]
            if len(set(known)) != len(known):
                raise Conflict(("row", a))
            if len(known) == n - 1:
                put((a, h, row.index(None)), (set(range(n)) - set(known)).pop())
        sides = []
        for a, b1, b2, b3, c in product(range(n), repeat=5):  # A7
            inner, x, y = t.get((b1, b2, b3)), t.get((a, b1, c)), t.get((a, b3, c))
            if None not in (inner, x, y):
                sides.append(((a, inner, c), (x, b2, y)))
        for a1, b, c1, a2, c2 in product(range(n), repeat=5):  # A8
            u, v = t.get((a1, b, c1)), t.get((a2, b, c2))
            x, y = t.get((a1, h, a2)), t.get((c1, h, c2))
            if None not in (u, v, x, y):
                sides.append(((u, h, v), (x, b, y)))
        for left, right in sides:
            lhs, rhs = t.get(left), t.get(right)
            if lhs is None and rhs is not None:
                put(left, rhs)
            elif rhs is None and lhs is not None:
                put(right, lhs)
            elif lhs != rhs:
                raise Conflict((left, right))
    return t


def _engine(n, z, h, o, assigned):
    """The cells after set-up and after each assignment in turn, as
    _closure returns them."""
    state = _Placement(n, z, h, o, _Instances(n))

    def cells():
        return {(k // (n * n), k // n % n, k % n): v
                for k, v in enumerate(state.cells) if v is not None}

    if not state.ok:
        raise Conflict("setup")
    out = [cells()]
    for (a, b, c), v in assigned:
        if not (state.assign((a * n + b) * n + c, v) and state.propagate()):
            raise Conflict((a, b, c))
        out.append(cells())
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Conflict:
        return "conflict"


def _cases(n, count, seed):
    """Placements of distinct constants with a few assigned cells, whose
    values come from a relabeled model in every other case when n has one,
    and are random otherwise."""
    rng = random.Random(seed)
    models = search_finite(n)
    placements = [p for p in product(range(n), repeat=3) if len(set(p)) == 3]
    cells = list(product(range(n), repeat=3))
    for i in range(count):
        z, h, o = rng.choice(placements)
        chosen = rng.sample(cells, rng.randint(1, 4))
        if models and i % 2:
            m = models[0]
            src = [m.zero, m.half, m.one]
            src += [x for x in range(n) if x not in src]
            dst = [z, h, o] + [x for x in range(n) if x not in (z, h, o)]
            perm = dict(zip(src, dst))
            inv = dict(zip(dst, src))
            assigned = [(c, perm[m.p(*(inv[x] for x in c))]) for c in chosen]
        else:
            assigned = [(c, rng.randrange(n)) for c in chosen]
        yield n, z, h, o, assigned


@pytest.mark.parametrize("n, count", [(3, 60), (4, 60), (5, 20)])
def test_propagation_reaches_the_reference_closure(n, count):
    conflicts = 0
    for n, z, h, o, assigned in _cases(n, count, seed=n):
        states = _outcome(_engine, n, z, h, o, assigned)
        if states == "conflict":
            assert _outcome(_closure, n, z, h, o, assigned) == "conflict"
            conflicts += 1
            continue
        for k, state in enumerate(states):
            assert state == _closure(n, z, h, o, assigned[:k]), (z, h, o)
    assert 0 < conflicts < count  # both kinds of case were exercised


@pytest.mark.parametrize("n, placement", [(4, (0, 1, 2)), (4, (3, 1, 0)),
                                          (5, (0, 2, 1))])
def test_propagation_of_every_single_cell_reaches_the_reference_closure(
        n, placement):
    start = _closure(n, *placement, [])
    for cell in product(range(n), repeat=3):
        if cell not in start:
            for v in range(n):
                case = (n, *placement, [(cell, v)])
                got = _outcome(_engine, *case)
                if got != "conflict":
                    got = got[-1]
                assert got == _outcome(_closure, *case), (cell, v)
