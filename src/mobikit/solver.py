"""Implications decided by solving their premise (see solved).

An implication's premise is an equality that random draws almost never
meet, so only the constructed copies of a walk test its conclusion.  A
certificate of degree 1 (`symbolic._certified`) covers the cancellation and
path laws X4, Y9 and Y10 of an affine space, but not of one whose path
divides, or whose premise factors into cases, such as Y10 of
projectile-space: a = b, or s = t.  Solving the premise for one variable
at a time under a nonzero leading coefficient, case by case where that
coefficient may vanish, decides them (symbolic's trust base states why a
solved premise holds at every assignment).  Over R64 each exp(g) of a
difference is a positive variable of its own (symbolic.exponent), which a
substitution into g renames (_renamed), so that X4, Y9 and Y10 of
damped-space solve as over Q.  It is a module of its own:
compiled from source inside symbolic, it raised the peak memory of a
fresh import by about 0.5 MB.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from itertools import combinations

from .rational import _Fraction, _ratio
from .symbolic import (CERTIFICATE_WORK, EXPONENTS, FREE, MAX_TERMS, POSITIVE, UNIT, Poly,
                       Undecided, _certified, _leading, _nonnegative_within, _poly,
                       _positive_within, _spend, domain_of, exponent)

# past this much work (see solved) an implication is not decided by solving
# its premise, and past this many nested case splits a node is not split
SOLVE_WORK = 20_000
BRANCHES = 2
# the seeded points in the domains at which a coefficient's signs are read
# before a rule is asked to certify it nowhere zero (see _nowhere_zero), and
# the denominator of a UNIT variable's coordinate there
PROBES = 8
PROBE_SCALE = 64


def solved(premise: list, conclusion: list, factors=()) -> bool:
    """True when every polynomial of `conclusion` vanishes at every point
    of the domains where every polynomial of `premise` does, shown by
    solving the premise for its variables, as geometry theorems are proved
    under a nonzero leading coefficient (Wu 1978; Chou, Mechanical
    Geometry Theorem Proving, 1988); False when that is not shown, for an
    int (a Z/m variable's, refused at once), or for anything but exact
    polynomials.  `factors` are polynomials nonzero on the domains, such as
    the factors of the sides' denominators (see Quotient).

    A node of the solve has its premise, conclusion and factors, and
    stands for a set of points of its variables, in their domains: the
    root for every point, a child for those points that extend to a point
    of its parent's where the premise it solved vanishes.  The factors are
    nonzero on a node's points.  With its zero premises dropped, a node
    holds when every conclusion is zero, or when a premise is a nonzero
    constant (no point satisfies the premise).  Otherwise, in order:

    - a premise c*v + r, with c and r free of the variable v and c a
      nonzero constant, gives v = -r/c, put into every other polynomial;
    - `_certified` is asked for a certificate of the node;
    - a premise c*v + r whose coefficient c is nowhere zero (below), the
      smallest such c first, gives v = -r/c: every other polynomial p, of
      degree d in v, becomes c**d * p(v = -r/c), which vanishes exactly
      where p does, since c is nonzero; or p(v = q), when -r is q*c
      exactly.  Two neighbouring premises a11*v1 + a12*v2 + r1 and
      a21*v1 + a22*v2 + r2, with no v1*v2 term, whose determinant
      a11*a22 - a12*a21 is nowhere zero, give v1 and v2 over it by
      Cramer's rule in the same way: the (re, im) pair of a Q[i] premise.
      The factors are substituted too, and stay nonzero, and a variable
      that stands for exp(g) (symbolic.exponent), g having a substituted
      variable, becomes that of exp(g) substituted, undecided when the
      images are quotients.  When a split is
      left, blocks are not sought if a premise is a product c*(v - q);
    - a case split, when fewer than BRANCHES splits enclose the node: that
      product, or else the premise c*v + r with the smallest coefficient,
      splits it into c = 0 and r = 0, both in its place, and v = -r/c,
      where c is nonzero and joins the factors.  Both must hold.

    A coefficient is nowhere zero when what is left of it after exact
    division by the factors, as often as each divides, is a nonzero
    constant, or, up to its sign, one that `positive` or
    `nonnegative(strict=True)` certifies.  A zero or two signs at PROBES
    seeded points of the domains refuse it before the rules are asked.

    The work is bounded by one budget of SOLVE_WORK units: each `_certified`
    spends at most CERTIFICATE_WORK of it, each `positive` and
    `nonnegative` at most POSITIVE_WORK, each product one unit per pair of
    terms, each step of an exact division one per term of the divisor,
    each linear form read and each value at the probes one per term.  Past
    it, or past MAX_TERMS, the answer is False."""
    try:
        polys = [_poly(p) for p in (*premise, *conclusion, *factors)]
        if any(p.modulus or (not p.rational and p.terms.keys() - {()}) for p in polys):
            return False
        k, n = len(premise), len(premise) + len(conclusion)
        return _solve(polys[:k], polys[k:n], _factors(polys[n:]), BRANCHES, [SOLVE_WORK])
    except Undecided:
        return False


def _factors(polys) -> list:
    """The non-constant polynomials of polys, each once."""
    unique = {frozenset(f.terms.items()): f for f in polys if f.terms.keys() - {()}}
    return list(unique.values())


def _charge(budget: list, units: int):
    """Take units from budget; Undecided once it is overspent."""
    if not _spend(budget, units):
        raise Undecided("a solve past the work bound")


def _solve(premise: list, conclusion: list, factors: list, branches: int,
           budget: list) -> bool:
    """Whether a node of solved holds.  A substitution replaces the node by
    its child in place, so that only splits nest."""
    while True:
        premise = [p for p in premise if p.terms]
        conclusion = [g for g in conclusion if g.terms]
        if not conclusion or any(p.terms.keys() == {()} for p in premise):
            return True
        # each premise's linear forms, smallest coefficient first
        forms = sorted(((len(c.terms), j, v, c) for j, p in enumerate(premise)
                        for v, c in _coefficients(p, budget).items()), key=lambda f: f[:3])
        step = next((({j}, {v: -_rest(premise[j], v)}, c) for _, j, v, c in forms
                     if c.terms.keys() == {()}), None)
        factored = None
        if step is None:
            if _certifies(premise, conclusion, budget):
                return True
            # a premise c*(v - q), a product, is split before blocks are
            # sought; c divides c*v + r exactly when it divides r
            if branches:
                factored = next((form for form in forms
                                 if _exactly(premise[form[1]], form[3], budget) is not None),
                                None)
            step = _substitution(premise, forms, factors, budget, blocks=factored is None)
        if step is None:
            break
        done, numerators, den = step
        images, den = _images(numerators, den, budget)
        rest = [p for j, p in enumerate(premise) if j not in done]
        premise, conclusion, factors = _substituted(images, den, budget, rest, conclusion,
                                                    factors)
    if not (branches and forms):
        return False
    _, j, v, c = factored or forms[0]
    r = _rest(premise[j], v)
    rest = premise[:j] + premise[j + 1:]
    if not _solve(rest + [c, r], conclusion, factors, branches - 1, budget):
        return False
    images, den = _images({v: -r}, c, budget)
    rest, conclusion, factors = _substituted(images, den, budget, rest, conclusion, factors)
    return _solve(rest, conclusion, factors + [c], branches - 1, budget)


def _certifies(premise: list, conclusion: list, budget: list) -> bool:
    """symbolic._certified, spending at most CERTIFICATE_WORK of budget."""
    units = min(CERTIFICATE_WORK, budget[0])
    work = [units]
    try:
        answer = _certified(premise, conclusion, work)
    except Undecided:
        answer = False
    _charge(budget, units - work[0])
    return answer


def _coefficients(p: Poly, budget: list) -> dict:
    """{v: c} for each variable v in which p has degree 1, with p = c*v + r
    and c, r free of v (r is _rest(p, v)), in the order of the variables."""
    names = sorted({v for m in p.terms for v in m})
    _charge(budget, len(names) * len(p.terms))
    out = {}
    for v in names:
        c = {}
        for m, k in p.terms.items():
            n = m.count(v)
            if n > 1:
                break
            if n:
                i = m.index(v)
                c[m[:i] + m[i + 1:]] = k
        else:
            out[v] = Poly(c)
    return out


def _rest(p: Poly, v: int) -> Poly:
    """r of p = c*v + r: p's terms free of v."""
    return Poly({m: k for m, k in p.terms.items() if v not in m})


def _substitution(premise: list, forms: list, factors: list, budget: list,
                  blocks: bool) -> tuple | None:
    """(the premises solved, {v: numerator}, denominator) of the first
    substitution of solved that applies, or None: one premise's, by its
    linear forms, smallest coefficient first, then, when blocks, two
    neighbouring premises'.

    A coefficient with a zero, or two signs, at the probe points has a zero
    on the domains, where neither rule of _nowhere_zero certifies it; when
    every factor keeps one sign at the probes, so has the coefficient over
    any product of them, and it is refused before any division."""
    steady = not any(_varies(_at_probes(f, budget)) for f in factors)
    probed = {}  # id of a coefficient: its values at the probes

    def values(c):
        if id(c) not in probed:
            probed[id(c)] = _at_probes(c, budget)
        return probed[id(c)]

    for _, j, v, c in forms:
        if not (steady and _varies(values(c))) and _nowhere_zero(c, factors, budget):
            return {j}, {v: -_rest(premise[j], v)}, c
    if not blocks:
        return None
    lines = [{} for _ in premise]  # for each premise, {v: c}
    for _, j, v, c in forms:
        lines[j][v] = c
    for i in range(len(premise) - 1):
        j = i + 1
        for v1, v2 in combinations(sorted(lines[i].keys() & lines[j].keys()), 2):
            block = [_pair(premise[k], lines[k], v1, v2) for k in (i, j)]
            if None in block:
                continue
            (a11, a12, r1), (a21, a22, r2) = block
            at = [values(a) for a in (a11, a22, a12, a21)]
            if steady and _varies([w * x - y * z for w, x, y, z in zip(*at)]):
                continue
            det = _product(a11, a22, budget) - _product(a12, a21, budget)
            if _nowhere_zero(det, factors, budget):
                return {i, j}, {v1: _product(a12, r2, budget) - _product(a22, r1, budget),
                                v2: _product(a21, r1, budget) - _product(a11, r2, budget)}, det
    return None


def _pair(p: Poly, line: dict, v1: int, v2: int) -> tuple | None:
    """(a1, a2, r) with p = a1*v1 + a2*v2 + r, all free of v1 and v2, for
    a premise p whose coefficients are line; None when p has a v1*v2
    term."""
    a1, a2 = line[v1], line[v2]
    if any(v2 in m for m in a1.terms):
        return None
    return a1, a2, Poly({m: k for m, k in p.terms.items() if v1 not in m and v2 not in m})


def _nowhere_zero(c: Poly, factors: list, budget: list) -> bool:
    """Whether c is nonzero at every point of a node whose factors are
    nonzero there (see solved)."""
    if not c.terms:
        return False
    for f in factors:
        while (q := _exactly(c, f, budget)) is not None:
            c = q
    if c.terms.keys() == {()}:
        return True
    # a zero constant term, when the origin lies in the domains, or a zero
    # or two signs at the probes, show a zero on the domains, where neither
    # rule certifies c
    if () not in c.terms and all(domain_of(v) != POSITIVE for m in c.terms for v in m):
        return False
    at = _at_probes(c, budget)
    if _varies(at):
        return False
    if at[0] < 0:
        c = -c
    return _positive_within(c, budget) or _nonnegative_within(c, True, budget)


def _varies(values: list) -> bool:
    """Whether values hold a zero or two signs."""
    return not (all(v > 0 for v in values) or all(v < 0 for v in values))


def _at_probes(p: Poly, budget: list) -> list:
    """p's exact values at the PROBES probe points (see _probe).  The terms
    are summed as ints over each denominator, as in _values, at every point
    at once."""
    _charge(budget, PROBES * len(p.terms))
    sums = {}  # a denominator: the sums of its terms' numerators at the points
    for m, c in p.terms.items():
        values, d = [c.numerator] * PROBES, c.denominator
        for v in m:
            values = [a * b for a, b in zip(values, _probe(v))]
            if domain_of(v) == UNIT:
                d *= PROBE_SCALE
        total = sums.get(d)
        sums[d] = values if total is None else [a + b for a, b in zip(total, values)]
    if not sums:
        return [0] * PROBES
    scale = math.lcm(*sums)
    return [_ratio(sum(n[k] * (scale // d) for d, n in sums.items()), scale)
            for k in range(PROBES)]


@functools.cache
def _probe(v: int) -> tuple:
    """Variable v's coordinate at each of the PROBES probe points, in its
    domain, from an RNG seeded by a constant and v alone: a nonzero int in
    [-64, 64] for FREE, in [1, 64] for POSITIVE, and for UNIT k in [1, 63]
    standing for k / PROBE_SCALE, in (0, 1)."""
    rng = random.Random(f"mobikit probe {v}")
    domain = domain_of(v)
    out = []
    for _ in range(PROBES):
        k = rng.randrange(1, PROBE_SCALE + 1)
        if domain == UNIT:
            out.append(k % PROBE_SCALE or 1)
        else:
            out.append(-k if domain == FREE and rng.getrandbits(1) else k)
    return tuple(out)


def _exactly(p: Poly, f: Poly, budget: list) -> Poly | None:
    """p / f when f divides p exactly, else None: division by f's leading
    term in the graded order (see _leading), which is exact when the
    remainder is zero.  The terms left wait in a heap, greatest first."""
    if not p.terms:
        return p
    top, a = _leading(f.terms)
    # the least terms of p and f, in the same order, divide as the leading do
    if not _divides(min(f.terms, key=_degree), min(p.terms, key=_degree)):
        return None
    rest, q = dict(p.terms), {}
    heap = [_greatest(m) for m in rest]
    heapq.heapify(heap)
    while rest:
        _charge(budget, len(f.terms))
        m = heapq.heappop(heap)[2]
        k = rest.get(m)
        if k is None:
            continue  # cancelled since it was pushed
        divided = list(m)
        for v in top:
            if v not in divided:
                return None
            divided.remove(v)
        t, k = tuple(divided), _Fraction(k) / a
        q[t] = k
        for n, b in f.terms.items():
            key = tuple(sorted(t + n))
            s = rest.pop(key, None)
            if s is None:
                s = -k * b
                heapq.heappush(heap, _greatest(key))
            else:
                s -= k * b
            if s:
                rest[key] = s
    return Poly(q)


def _greatest(m: tuple) -> tuple:
    """A heap key of a monomial that puts the greatest in the graded order
    of _leading first."""
    return -len(m), tuple(-v for v in m), m


def _degree(m: tuple) -> tuple:
    """A monomial's place in the graded order of _leading."""
    return len(m), m


def _divides(m: tuple, n: tuple) -> bool:
    """Whether the monomial m divides the monomial n."""
    rest = list(n)
    for v in m:
        if v not in rest:
            return False
        rest.remove(v)
    return True


def _product(a: Poly, b: Poly, budget: list) -> Poly:
    """a * b, charged one unit per pair of terms; Undecided past MAX_TERMS."""
    _charge(budget, len(a.terms) * len(b.terms))
    out = a * b
    if type(out) is not Poly:
        raise Undecided(f"a product past {MAX_TERMS} terms")
    return out


def _images(numerators: dict, den: Poly, budget: list) -> tuple:
    """({v: image}, den) for v = numerator / den: the images are the
    quotients, and den None, when den is a constant or divides every
    numerator exactly; otherwise the numerators and den."""
    if den.terms.keys() == {()}:
        scale = _Fraction(1) / den.terms[()]
        return {v: n * scale for v, n in numerators.items()}, None
    quotients = {}
    for v, n in numerators.items():
        q = _exactly(n, den, budget)
        if q is None:
            return numerators, den
        quotients[v] = q
    return quotients, None


def _substituted(images: dict, den, budget: list, *groups) -> list:
    """Each group of polynomials with each variable v replaced by
    images[v] / den (by images[v] when den is None), times the power of den
    that clears it; the factors, the last group, less their constants."""
    powers = {}  # (a variable, or None for den, n): its image, or den, to the n

    def power(key, base, n):
        # built up from 1 without recursion: a recursive closure is a
        # reference cycle, which would keep the powers until a collection
        powers.setdefault((key, 1), base)
        for k in range(2, n + 1):
            if (key, k) not in powers:
                powers[key, k] = _product(powers[key, k - 1], base, budget)
        return powers[key, n]

    def substitute(p):
        if images.keys().isdisjoint(v for m in p.terms for v in m):
            return p
        parts = {}  # exponents of the variables replaced: the terms of p with them taken out
        for m, k in p.terms.items():
            e = tuple(m.count(v) for v in images)
            parts.setdefault(e, {})[tuple(u for u in m if u not in images)] = k
        top = max(map(sum, parts))
        out = Poly({})
        for e, terms in parts.items():
            term = Poly(terms)
            for v, n in zip(images, e):
                if n:
                    term = _product(term, power(v, images[v], n), budget)
            if den is not None and top > sum(e):
                term = _product(term, power(None, den, top - sum(e)), budget)
            _charge(budget, len(term.terms))
            out = out + term
        return out

    out = [[substitute(p) for p in group] for group in groups]
    renamed = _renamed(images, den, substitute, out)
    if renamed:
        out = [[_rename(p, renamed) for p in group] for group in out]
    out[-1] = _factors(out[-1])
    return out


def _renamed(images: dict, den, substitute, groups: list) -> dict:
    """{v: exponent(g(images))} for each variable v in groups that stands
    for exp(g) (symbolic.exponent) where g has a variable of images, since
    exp(g) is exp(g(images)) wherever the images hold; Undecided when they
    are quotients (den), which would leave the polynomials."""
    out = {}
    for v in {v for group in groups for p in group for m in p.terms for v in m}:
        g = EXPONENTS.get(v)
        if g is None or images.keys().isdisjoint(u for m in g.terms for u in m):
            continue
        if den is not None:
            raise Undecided("an exponent substituted by a quotient")
        out[v] = exponent(substitute(g))
    return out


def _rename(p: Poly, renamed: dict) -> Poly:
    """p with each variable v of renamed replaced by renamed[v]."""
    if renamed.keys().isdisjoint(v for m in p.terms for v in m):
        return p
    out = Poly({}, p.rational)
    for m, k in p.terms.items():
        term = Poly({tuple(v for v in m if v not in renamed): k}, p.rational)
        for v in m:
            if v in renamed:
                term = term * renamed[v]
        out = out + term
    return out
