"""Exhaustive search for finite models of the algebra laws.

A model of size n is a table t over {0..n-1} together with placements of the
three constants.  Every placement relabels onto one whose constants take the
smallest labels in the order zero, one, half first appear, so only those (at
most five: all equal, one of three pairs equal, all distinct) are searched.
For each placement the unit laws pin down large parts of the table up front;
the rest is filled by backtracking over the free cells in a fixed order, and
every assignment is propagated:

* Half rows must be injective (the cancellation law): a repeated value is a
  conflict, and a half row with one hole left has that hole forced.
* Each instance of A7 and of A8 is evaluated as far as the filled cells
  allow and then parked on the first unset cell it reads.  That cell is
  either static, like (b1, b2, b3) in A7, or addressed by values already
  read, like (a, inner, c) or (x, b2, y).  Assigning a cell re-evaluates
  only the instances parked on it.  An instance whose two sides are known
  and differ is a conflict; one whose only unknown is the cell of one side
  forces that cell to the other side's value, and one whose two side cells
  are both unset is parked on both.  Instances that the unit laws make true
  whatever the other cells hold are never parked.
* Every assignment and every move of an instance goes on a trail, which
  backtracking unwinds.

A branch on cell (a, b, c) tries only the least-number candidates (SEM,
Zhang and Zhang 1995; Mace4, McCune 2003): the constants' labels, the labels
that the branches above it mention as a cell index or a value, a, b and c,
and the least label that is none of these.  This loses no model.  The state
after set-up, the unit-law pins and their propagation closure, is the same
under every permutation of the labels that fixes the constants, and so is
the closure of it with the branch assignments above, since those mention
only used labels.  So the transposition of an unused label v with the least
unused one maps every table below the branch v onto a table below the
earlier branch on the least unused label, with the same path above: the
first table of each isomorphism class is still reached, and models are
found in the same order as by trying every value.

Propagation only cuts branches that no model passes through.  Results are
deduplicated up to relabeling and reported in a canonical labeling, the one
minimizing (zero, one, half, flattened table).  Each complete table's
canonical key is computed first; each new canonical model is verified by
`check_algebra` under `Exhaustive`, the law suite users run, and a key
already seen is skipped, since isomorphic tables pass or fail the laws
together.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import permutations, product

from .algebra import MobiAlgebra, check_algebra
from .carriers import ModularInt
from .report import Exhaustive, all_passed

MAX_SIZE = 11


class TableLabels(ModularInt):
    """The labels 0..n-1 of a model's table.  They are not residues with
    ring arithmetic: a law through the table indexes it, so they have no
    symbol, and its laws are walked without a symbolic pass."""

    def symbol(self, fresh):
        return None


@dataclass(frozen=True)
class FiniteModel:
    size: int
    zero: int
    half: int
    one: int
    table: tuple  # table[a][b][c], nested tuples

    def p(self, a: int, b: int, c: int) -> int:
        return self.table[a][b][c]

    def to_algebra(self) -> MobiAlgebra:
        n, t = self.size, self.table
        return MobiAlgebra(TableLabels(n),
                           lambda a, b, c: t[a % n][b % n][c % n],
                           self.zero, self.half, self.one)


class _Instances:
    """The A7 and A8 instances of size n that the unit laws leave open.

    Instance i < n**5 is A7 at the i-th quintuple (a, b1, b2, b3, c) of
    product(range(n), repeat=5), and instance n**5 + i is A8 at the i-th
    quintuple (a1, b, c1, a2, c2).  static[i] holds flat cell indices and
    their fixed parts: for A7, the cells (b1, b2, b3), (a, b1, c) and
    (a, b3, c), then (a, 0, c) and b2*n, from which (a, inner, c) and
    (x, b2, y) are computed; for A8, the cells (a1, b, c1) and (a2, b, c2),
    then (a1, 0, a2) and (c1, 0, c2), to which half*n is added, and b*n.

    A7 holds by the unit laws when a = c, b1 = b3, or b2 is zero or one,
    and A8 when b is zero or one, or a1 = c1 and a2 = c2; those are left
    out.  The rest are grouped by the first cell they read, (b1, b2, b3) or
    (a1, b, c1): id 2 * n**5 + k is the A7 group of cell k, and
    2 * n**5 + n**3 + k the A8 group, so that a group whose cell is unset
    is parked whole.
    """

    def __init__(self, n):
        quint = list(product(range(n), repeat=5))
        n3, n5, nn = n ** 3, n ** 5, n * n
        rng = range(n)
        self.n5 = n5
        self.static = (
            [((q * n + r) * n + s, p * nn + q * n + t, p * nn + s * n + t,
              p * nn + t, r * n) for p, q, r, s, t in quint]
            + [((p * n + q) * n + r, (s * n + q) * n + t, p * nn + s,
                r * nn + t, q * n) for p, q, r, s, t in quint])
        # quint index of (p, q, r, s, t) is (((p*n + q)*n + r)*n + s)*n + t
        outer = [p * n ** 4 + t for p in rng for t in rng if p != t]
        self.groups = (
            [[((q * n + r) * n + s) * n + pt for pt in outer] if q != s
             else [] for q in rng for r in rng for s in rng]
            + [[n5 + (((p * n + q) * n + r) * n + s) * n + t
                for s in rng for t in rng if p != r or s != t]
               for p in rng for q in rng for r in rng])
        # group ids by the middle index of their cell
        first = 2 * n5
        self.by_b = [[first + g for g in range(2 * n3)
                      if self.groups[g] and g // n % n == b] for b in rng]

    def open(self, z, o) -> list:
        """The groups a placement with this zero and one must check."""
        return [g for b, ids in enumerate(self.by_b) if b != z and b != o
                for g in ids]


class _Placement:
    """The table of one placement of the constants, with its propagation.

    Cells are flat indices (a*n + b)*n + c.  watch[k] holds the instances
    parked on cell k.  The trail holds ~k for each assignment of cell k and
    j >= 0 for each instance appended to watch[j]; undo() unwinds it.  A
    watch list is never cleared: while its cell is set nothing parks there,
    and the instances that moved on are popped from their new lists first.
    """

    def __init__(self, n, z, h, o, instances: _Instances):
        self.n, self.h = n, h
        self.instances = instances
        self.cells = [None] * n ** 3
        self.watch = [[] for _ in range(n ** 3)]
        self.trail = []
        self.pending = []
        self.row_of = [k // (n * n) if k // n % n == h else -1
                       for k in range(n ** 3)]
        self.row_used = [0] * n  # bit v set when half row a holds v
        self.row_filled = [0] * n
        self.ok = self._unit_laws(z, h, o)
        if self.ok:
            self.pending.clear()  # nothing is parked yet
            self.ok = self._visit(instances.open(z, o)) and self.propagate()

    def _unit_laws(self, z, h, o) -> bool:
        n, put = self.n, self.assign
        for a in range(n):
            for b in range(n):
                if not (put((a * n + z) * n + b, a)        # p(a, 0, b) = a
                        and put((a * n + b) * n + a, a)    # p(a, b, a) = a
                        and put((b * n + o) * n + a, a)):  # p(b, 1, a) = a
                    return False
            if not put((z * n + a) * n + o, a):  # p(0, a, 1) = a
                return False
        return put((o * n + h) * n + z, h)  # p(1, half, 0) = half

    def assign(self, k, v) -> bool:
        """Set cell k to v, or report a conflict; forces a half row's last hole."""
        cells = self.cells
        cur = cells[k]
        if cur is not None:
            return cur == v
        row = self.row_of[k]
        if row < 0:
            cells[k] = v
            self.trail.append(~k)
            self.pending.append(k)
            return True
        used = self.row_used[row]
        bit = 1 << v
        if used & bit:
            return False
        cells[k] = v
        self.trail.append(~k)
        self.pending.append(k)
        self.row_used[row] = used | bit
        self.row_filled[row] += 1
        n = self.n
        if self.row_filled[row] != n - 1:
            return True
        start = (row * n + self.h) * n
        hole = next(j for j in range(start, start + n) if cells[j] is None)
        missing = (((1 << n) - 1) ^ used ^ bit).bit_length() - 1
        return self.assign(hole, missing)

    def _visit(self, instances) -> bool:
        """Evaluate instances; park, force or report a conflict for each."""
        cells, watch, trail, assign = self.cells, self.watch, self.trail, self.assign
        static, groups, n5 = (self.instances.static, self.instances.groups,
                              self.instances.n5)
        n = self.n
        nn = n * n
        hn = self.h * n
        n3 = nn * n
        first_group = 2 * n5
        for i in instances:
            if i >= first_group:
                g = i - first_group
                j = g % n3
                if cells[j] is None:
                    watch[j].append(i)
                    trail.append(j)
                elif not self._visit(groups[g]):
                    return False
                continue
            if i < n5:
                j, jx, jy, base, b2n = static[i]
                inner = cells[j]
                if inner is not None:
                    x = cells[jx]
                    if x is None:
                        j = jx
                    else:
                        y = cells[jy]
                        if y is None:
                            j = jy
                        else:
                            left = base + inner * n
                            right = x * nn + b2n + y
                            j = -1
            else:
                j, jv, jx, jy, bn = static[i]
                u = cells[j]
                if u is not None:
                    v = cells[jv]
                    if v is None:
                        j = jv
                    else:
                        x = cells[jx + hn]
                        if x is None:
                            j = jx + hn
                        else:
                            y = cells[jy + hn]
                            if y is None:
                                j = jy + hn
                            else:
                                left = u * nn + hn + v
                                right = x * nn + bn + y
                                j = -1
            if j >= 0:  # an input cell is unset
                watch[j].append(i)
                trail.append(j)
                continue
            lhs = cells[left]
            rhs = cells[right]
            if lhs is None:
                if rhs is None:
                    if left != right:  # the side set first forces the other
                        watch[left].append(i)
                        watch[right].append(i)
                        trail.append(left)
                        trail.append(right)
                elif not assign(left, rhs):
                    return False
            elif rhs is None:
                if not assign(right, lhs):
                    return False
            elif lhs != rhs:
                return False
        return True

    def propagate(self) -> bool:
        pending, watch = self.pending, self.watch
        while pending:
            if not self._visit(watch[pending.pop()]):
                return False
        return True

    def undo(self, mark):
        cells, watch, trail = self.cells, self.watch, self.trail
        self.pending.clear()
        for e in reversed(trail[mark:]):
            if e >= 0:
                watch[e].pop()
                continue
            k = ~e
            row = self.row_of[k]
            if row >= 0:
                self.row_used[row] ^= 1 << cells[k]
                self.row_filled[row] -= 1
            cells[k] = None
        del trail[mark:]

    def fill(self, free, idx, leaf, used) -> bool:
        """Branch on the unset cells of free[idx:] in order and call
        leaf(table) on each complete table; True from leaf stops.  used is
        the bit set of the constants' labels and of the labels that the
        branches above mention; a branch tries the values _candidates gives.
        """
        cells = self.cells
        while idx < len(free) and cells[free[idx]] is not None:
            idx += 1  # propagated earlier
        if idx == len(free):
            return leaf(self.nested())
        k = free[idx]
        n = self.n
        used |= 1 << k // (n * n) | 1 << k // n % n | 1 << k % n
        mark = len(self.trail)
        for v in _candidates(n, used):
            if (self.assign(k, v) and self.propagate()
                    and self.fill(free, idx + 1, leaf, used | 1 << v)):
                return True
            self.undo(mark)
        return False

    def nested(self) -> list:
        n, cells = self.n, self.cells
        return [[cells[(a * n + b) * n:(a * n + b + 1) * n] for b in range(n)]
                for a in range(n)]


def _candidates(n, used) -> list:
    """The labels in the bit set used, and the least label that is not."""
    used |= ~used & (used + 1)
    return [v for v in range(n) if used >> v & 1]


def _constant_labels(z, h, o) -> dict:
    """The label of each distinct constant: 0, 1, 2 in the order zero, one,
    half first appear."""
    labels = {}
    for x in (z, o, h):
        labels.setdefault(x, len(labels))
    return labels


def _canonical_key(n, z, h, o, table):
    """The least (zero, one, half, flattened table) over all relabelings.

    The least key sends zero, one and half to the smallest labels in that
    order, so only the labelings of the other elements are tried, and each
    is compared with the least so far only until the first entry that
    differs.
    """
    fixed = _constant_labels(z, h, o)
    rest = [x for x in range(n) if x not in fixed]
    flat = [v for plane in table for row in plane for v in row]
    perm = [0] * n
    inv = [0] * n
    for x, label in fixed.items():
        perm[x] = label
        inv[label] = x
    best = None
    for labels in permutations(range(len(fixed), n)):
        for x, label in zip(rest, labels):
            perm[x] = label
            inv[label] = x
        planes = [x * n * n for x in inv]
        rows = [x * n for x in inv]
        entries = (perm[flat[a + b + c]]
                   for a in planes for b in rows for c in inv)
        if best is None:
            best = tuple(entries)
            continue
        for i, (v, w) in enumerate(zip(entries, best)):
            if v != w:
                if v < w:
                    best = best[:i] + (v,) + tuple(entries)
                break
    return fixed[z], fixed[o], fixed[h], best


def _model_from_key(n, key) -> FiniteModel:
    zero, one, half, flat = key
    table = tuple(tuple(tuple(flat[(a * n + b) * n + c] for c in range(n))
                        for b in range(n))
                  for a in range(n))
    return FiniteModel(n, zero, half, one, table)


def _placements(n) -> list:
    """The placements (zero, half, one) whose constants take the smallest
    labels, in the order zero, one, half first appear, as the canonical key
    does; every placement relabels onto one of these."""
    return [(z, h, o) for z, h, o in product(range(min(n, 3)), repeat=3)
            if all(x == label
                   for x, label in _constant_labels(z, h, o).items())]


def search_finite(n: int, require_distinct_constants: bool = False,
                  limit: int | None = None) -> list:
    """All models of size n up to relabeling, in canonical form.

    limit stops the search after that many models.
    """
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_SIZE:
        raise ValueError(
            f"size must be an integer between 1 and {MAX_SIZE}, got {n!r}")
    # a limit below 1 would report no model without searching
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    instances = _Instances(n)
    found = []
    seen = set()

    def leaf(z, h, o, table):
        key = _canonical_key(n, z, h, o, table)
        if key in seen:
            return False
        seen.add(key)
        model = _model_from_key(n, key)
        if not all_passed(check_algebra(model.to_algebra(), Exhaustive())):
            return False
        found.append(model)
        return limit is not None and len(found) >= limit

    for z, h, o in _placements(n):
        if require_distinct_constants and len({z, h, o}) < 3:
            continue
        state = _Placement(n, z, h, o, instances)
        if not state.ok:
            continue
        cells = state.cells
        free = [k for b in sorted(range(n), key=lambda b: b != h)
                for a in range(n)
                for k in range((a * n + b) * n, (a * n + b + 1) * n)
                if cells[k] is None]
        if state.fill(free, 0, partial(leaf, z, h, o),
                      1 << z | 1 << h | 1 << o):
            break
    return found
