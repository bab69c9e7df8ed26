"""Law-checking engine: strategies, witnesses, and CheckReport.

Every law check (equation, predicate or implication) runs through one loop,
`_check`, which walks the assignments its strategy gives and returns a
CheckReport whose witness, when present, re-evaluates to unequal sides.  A
ZeroDivisionError, EvalError, ShapeError or MembershipError raised while
evaluating a law becomes an `<error: ...>` witness.

A strategy answers for itself: `assignments(law, slots, construct)` gives
the assignments it walks, `label()` is its text in a report line and
`to_dict()` its JSON form.  Exhaustive refuses a slot that is infinite or
empty, naming its carrier.

An equation whose slots all have symbols (Carrier.symbol) first runs its
probes and one seeded draw, `Sampled(1).assignments(law, slots)`, through
the loop, under any strategy; every carrier with a symbol can draw.  If
they pass, it is evaluated once on the symbols, and if the law's own
equality answers True on the two symbolic sides (see symbolic), the report
is a pass with the caller's strategy, the one the full walk gives; nothing
is enumerated, so under Exhaustive a decided equation passes over an
infinite carrier too.  Otherwise the caller's strategy walks the law, so a
failing law has the witness it has without symbols.

An implication whose slots all have symbols, and whose premise is a pair
of sides compared with a carrier's own equality, or which Sampled walks
with constructed copies, first runs one seeded draw and its copy through
the loop: under Sampled the strategy's own first draw, otherwise that of
`Sampled(1)`.  If they pass, it is evaluated once on the symbols.  When
solving the premise shows that it implies the conclusion (see
solver.solved), and the copy of the symbols stays in their domains, the
report is a pass with the caller's strategy, and nothing is enumerated,
as for an equation.  Otherwise Sampled walks its other draws,
and its other copies unless every copy passes on the symbols; any other
strategy walks the law in full.

A predicate whose test is the own `contains` of a carrier that admits its
own symbol (Carrier.admits), and whose slots all have symbols, runs one
seeded draw as an equation does; if it passes and the carrier admits the
value evaluated once on the symbols, the report is a pass with the
caller's strategy, under Exhaustive over an infinite carrier too.  Every
other predicate is walked in full, at once when the carrier's sign
conditions meet a slot whose members an opaque predicate bounds (see
_admitting).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from itertools import chain, islice, product
from typing import Callable, Iterable

from . import symbolic
from .carriers import (QI, Carrier, CarrierError, MembershipError, Product,
                       ShapeError, draws, enumerate_elements, render_rational,
                       try_subtract)


class EvalError(Exception):
    """An operation failed at evaluation time (e.g. division by zero)."""


# raised by a law's premise, side or equality: each fails the law with an
# `<error: ...>` witness
_LAW_ERRORS = (ZeroDivisionError, EvalError, ShapeError, MembershipError)


@dataclass(frozen=True)
class Exhaustive:
    """Walk every assignment; requires finite, nonempty carriers."""

    def assignments(self, law: str, slots: tuple, construct=None) -> Iterable[tuple]:
        # the walk already holds every constructed copy; an empty slot would
        # pass every law without evaluating it
        pools = [enumerate_elements(c) for c in slots]
        for c, pool in zip(slots, pools):
            if not pool:
                raise CarrierError(f"{c.describe()} is empty")
        return product(*pools)

    def label(self) -> str:
        return "exhaustive"

    def to_dict(self) -> dict:
        return {"kind": "exhaustive", "samples": None, "seed": None}


@dataclass(frozen=True)
class Sampled:
    """Walk `samples` seeded assignments per law, and for an implication
    their constructed copies after them; each is made when the walk
    reaches it, and only an implication's draws are kept."""

    samples: int = 500
    seed: int = 0

    def __post_init__(self):
        # zero samples would pass every law without evaluating it
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    def assignments(self, law: str, slots: tuple, construct=None) -> Iterable[tuple]:
        drawn = draws(Product(tuple(slots)), law_seed(self.seed, law), self.samples)
        if construct is None:
            return drawn
        drawn = list(drawn)
        return chain(drawn, map(construct, drawn))

    def label(self) -> str:
        return f"sampled(n={self.samples}, seed={self.seed})"

    def to_dict(self) -> dict:
        return {"kind": "sampled", "samples": self.samples, "seed": self.seed}


@dataclass(frozen=True)
class Witness:
    inputs: dict
    lhs: object
    rhs: object
    difference: object = None


@dataclass(frozen=True)
class CheckReport:
    law: str
    strategy: object  # the strategy that ran; Exhaustive() for a law with no variables
    verdict: str  # "pass" | "fail"
    witness: Witness | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def law_seed(seed: int, law: str) -> int:
    """Stable per-law sub-seed derived from the run seed and the law id."""
    digest = hashlib.blake2s(f"{seed}:{law}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def assignments_for(law: str, slots: tuple, strategy,
                    construct: Callable | None = None) -> Iterable[tuple]:
    """Assignment tuples for a law quantified over the given carriers, with
    the constructed copies, if any, that the strategy walks."""
    return strategy.assignments(law, slots, construct)


def _failure(law, strategy, names, assignment, left, right, difference=None) -> CheckReport:
    return CheckReport(law, strategy, "fail",
                       Witness(dict(zip(names, assignment)), left, right, difference))


def _check(law: str, names: tuple, slots: tuple, eq: Callable, lhs: Callable,
           rhs: Callable, strategy, premise: Callable | None = None,
           construct: Callable | None = None, probes: tuple = (),
           walk: Iterable[tuple] | None = None) -> CheckReport:
    """The one assignment loop: probes, then `walk`, by default the
    strategy's assignments.  Assignments whose premise fails are skipped;
    the first one whose sides differ, or whose evaluation raises, is the
    witness.  A raise shows where it happened: the premise's and lhs's on
    the left, rhs's on the right beside the left side's value, eq's as the
    difference of both sides."""
    if not slots:
        strategy = Exhaustive()  # one assignment, the empty one
    if walk is None:
        walk = assignments_for(law, slots, strategy, construct)
    for assignment in chain(probes, walk):
        try:
            if premise is not None and not premise(*assignment):
                continue
            left = lhs(*assignment)
        except _LAW_ERRORS as exc:
            return _failure(law, strategy, names, assignment, f"<error: {exc}>", None)
        try:
            right = rhs(*assignment)
        except _LAW_ERRORS as exc:
            return _failure(law, strategy, names, assignment, left, f"<error: {exc}>")
        try:
            if eq(left, right):
                continue
        except _LAW_ERRORS as exc:
            return _failure(law, strategy, names, assignment, left, right,
                            f"<error: {exc}>")
        return _failure(law, strategy, names, assignment, left, right,
                        try_subtract(left, right))
    return CheckReport(law, strategy, "pass")


def _symbols(slots: tuple) -> tuple | None:
    """A symbol for each slot (Carrier.symbol), or None when one has none."""
    fresh = symbolic.variables()
    assignment = tuple(c.symbol(fresh) for c in slots)
    return None if any(s is None for s in assignment) else assignment


class Decided(IntEnum):
    """What one evaluation of an implication on symbols decides."""

    NOTHING = 0
    COPIES = 1  # every constructed copy passes
    EVERY = 2  # every assignment passes: the premise implies the conclusion


def _carrier(method: Callable, companion: str) -> Carrier | None:
    """The carrier whose own method (its eq or contains) `method` is, when
    the class that defines that method defines `companion` too; None for
    any other function."""
    carrier = getattr(method, "__self__", None)
    name = getattr(method, "__name__", None)
    if not isinstance(carrier, Carrier) or method != getattr(carrier, name):
        return None
    owner = next(c for c in type(carrier).__mro__ if name in vars(c))
    return carrier if companion in vars(owner) else None


def _differences(eq: Callable) -> Callable | None:
    """The `differences` of the carrier whose own equality eq is (see
    Carrier.differences), or None: for any other equality, for a carrier
    whose eq and differences come from different classes, and for one
    that gives none for its own symbol, such as a product with a Z/m part."""
    carrier = _carrier(eq, "differences")
    if carrier is None:
        return None
    symbol = carrier.symbol(symbolic.variables())
    if symbol is None or carrier.differences(symbol, symbol) is None:
        return None
    return carrier.differences


def _images(symbol, value, images: dict) -> dict:
    """images, with the value in a constructed copy of each variable of a
    symbol (see Carrier.symbol): a tuple's parts and a QI's two parts in
    turn; Undecided when the copy is not built the same way."""
    if type(symbol) in (tuple, QI):
        if type(value) is not type(symbol) or (type(symbol) is tuple
                                                and len(value) != len(symbol)):
            raise symbolic.Undecided("a copy of another shape")
        parts = zip(symbol, value) if type(symbol) is tuple else (
            (symbol.re, value.re), (symbol.im, value.im))
        for part, image in parts:
            _images(part, image, images)
    else:
        images[next(iter(symbol.terms))[0]] = value
    return images


def _denominators(value, factors: dict) -> dict:
    """factors, with each factor of the denominator of each Quotient in a
    value: a list's or a tuple's parts and a QI's two parts in turn, keyed
    as Quotient.den keys them."""
    if type(value) in (list, tuple):
        for part in value:
            _denominators(part, factors)
    elif type(value) is QI:
        _denominators([value.re, value.im], factors)
    elif type(value) is symbolic.Quotient:
        factors.update((key, f) for key, (f, _) in value.den.items())
    return factors


def _copy_stays(assignment: tuple, construct: Callable) -> bool:
    """Whether the constructed copy of the symbols keeps every variable in
    its domain (see symbolic.within), so that a factor positive on the
    domains is positive at every copy a walk takes; always when every
    variable is FREE, since then every factor is positive at every real
    point."""
    if all(symbolic.domain_of(v) == symbolic.FREE for v in _images(assignment, assignment, {})):
        return True
    try:
        return symbolic.within(_images(assignment, construct(assignment), {}))
    except Exception:  # as in _decided
        return False


def _compared(eq: Callable, sides: tuple) -> Callable:
    """The premise that the pair of sides `sides` is equal under eq."""
    left, right = sides
    return lambda *assignment: eq(left(*assignment), right(*assignment))


def _decided(slots: tuple, eq: Callable, lhs: Callable, rhs: Callable,
             premise=None, construct: Callable | None = None):
    """For an equation (no premise): whether eq answers True on lhs and rhs
    evaluated once on a symbol for each slot, so that it holds at every
    assignment (see symbolic).

    For an implication, a Decided.  EVERY when the premise is a pair of
    sides compared with a carrier's own eq, solver.solved shows that the
    premise's differences (Carrier.differences) imply the conclusion's, all
    evaluated on the symbols, with the factors of the sides' denominators
    nonzero, and the copy of the symbols, if any, keeps each variable in
    its domain (see _copy_stays).  Otherwise COPIES when
    every copy passes: when every one of those differences vanishes on the
    copy of the symbols, substituted into them where the copy maps each
    variable to one term in its domain; else when premise and eq both
    answer True on the copy of the symbols, evaluated afresh.  NOTHING
    otherwise."""
    assignment = _symbols(slots)
    if premise is None:
        try:
            return assignment is not None and eq(lhs(*assignment), rhs(*assignment)) is True
        except Exception:  # Undecided, or any error a symbol meets: the walk decides
            return False
    if assignment is None:
        return Decided.NOTHING
    differences = _differences(eq) if type(premise) is tuple else None
    try:
        if differences is not None:
            sides = [f(*assignment) for f in premise + (lhs, rhs)]
            pi, gamma = differences(*sides[:2]), differences(*sides[2:])
            if None not in (pi, gamma):
                from . import solver  # on first use: a cold start that solves nothing skips it
                if (construct is None or _copy_stays(assignment, construct)) and (
                        solver.solved(pi, gamma, _denominators(sides, {}).values())):
                    return Decided.EVERY
                if construct is None:
                    return Decided.NOTHING
                images = _images(assignment, construct(assignment), {})
                vanish = not any(symbolic.substituted(d, images).terms for d in pi + gamma)
                return Decided.COPIES if vanish else Decided.NOTHING
    except Exception:  # as for an equation; a copy evaluated afresh may decide
        pass
    if construct is None:
        return Decided.NOTHING
    if type(premise) is tuple:
        premise = _compared(eq, premise)
    try:
        copy = construct(assignment)
        if premise(*copy) is True and eq(lhs(*copy), rhs(*copy)) is True:
            return Decided.COPIES
    except Exception:  # as for an equation
        pass
    return Decided.NOTHING


def check_equation(law: str, names: tuple, slots: tuple, eq: Callable,
                   lhs: Callable, rhs: Callable, strategy,
                   probes: tuple = ()) -> CheckReport:
    """Check lhs(...) == rhs(...) over assignments; probes run first.

    When every slot has a symbol, the probes and one seeded draw run first;
    if they pass and eq decides the equation on symbols, it holds at every
    assignment, and the pass is reported with the caller's strategy.
    Otherwise the strategy's own walk gives the report."""
    if slots and _symbols(slots) is not None:
        report = _check(law, names, slots, eq, lhs, rhs, strategy, probes=probes,
                        walk=Sampled(1).assignments(law, slots))
        if report.passed and _decided(slots, eq, lhs, rhs):
            return report
    return _check(law, names, slots, eq, lhs, rhs, strategy, probes=probes)


def _admitting(holds: Callable, slots: tuple) -> Carrier | None:
    """The carrier whose own contains holds is (see _carrier), when it
    admits its own symbol (see Carrier.admits); None otherwise, as for a
    carrier with no symbol or with an opaque membership predicate.  None
    too when its sign conditions bound a variable of its symbol and a slot
    is opaque (Carrier.opaque), as the lozenge is: symbolic.nonnegative
    refuses the FREE variables of that slot's symbol, so a value made from
    them would be evaluated only to be refused."""
    carrier = _carrier(holds, "admits")
    if carrier is None:
        return None
    symbol = carrier.symbol(symbolic.variables())
    try:
        if symbol is None or carrier.admits(symbol) is not True:
            return None
    except Exception:  # as in _admitted
        return None
    bounded = any(symbolic.domain_of(v) != symbolic.FREE for v in _images(symbol, symbol, {}))
    return None if bounded and any(c.opaque() for c in slots) else carrier


def _admitted(slots: tuple, carrier: Carrier, value: Callable) -> bool:
    """Whether the carrier admits value evaluated once on a symbol for each
    slot (see Carrier.admits), so that it is a member at every assignment."""
    assignment = _symbols(slots)
    try:
        return assignment is not None and carrier.admits(value(*assignment)) is True
    except Exception:  # Undecided, or any error a symbol meets: the walk decides
        return False


def check_predicate(law: str, names: tuple, slots: tuple, value: Callable,
                    holds: Callable, strategy) -> CheckReport:
    """Check holds(value(...)) over assignments (closure-style laws).

    When holds is the own contains of a carrier that admits its own symbol
    and every slot has a symbol, one seeded draw runs first, as for an
    equation; if it passes and the carrier admits the value on symbols (see
    Carrier.admits), it is a member at every assignment, and the pass is
    reported with the caller's strategy.  Otherwise the strategy's own walk
    gives the report."""
    def eq(v, _):
        return holds(v)

    def nothing(*_):
        return None

    carrier = _admitting(holds, slots)
    if slots and carrier is not None and _symbols(slots) is not None:
        report = _check(law, names, slots, eq, value, nothing, strategy,
                        walk=Sampled(1).assignments(law, slots))
        if report.passed and _admitted(slots, carrier, value):
            return report
    return _check(law, names, slots, eq, value, nothing, strategy)


def check_implication(law: str, names: tuple, slots: tuple, premise,
                      eq: Callable, lhs: Callable, rhs: Callable, strategy,
                      construct: Callable | None = None) -> CheckReport:
    """Check premise(...) => lhs(...) == rhs(...).

    `premise` is a predicate of the assignment, or the pair (left, right)
    of its sides, compared with eq.  Sampled runs rarely hit the premise by
    chance, so `construct` (mapping an assignment to one that satisfies
    the premise) lets Sampled walk a second pass, the constructed copies of
    its draws, to keep the check non-vacuous.

    When every slot has a symbol, and either the premise is a pair of
    sides compared with a carrier's own eq or Sampled walks copies, the
    first seeded draw and its copy run through the loop (under Sampled the
    strategy's own first draw, a prefix of its walk).  If they pass, the
    law is evaluated once on symbols (see _decided).  When solving the
    premise shows that it implies the conclusion, the pass is reported
    with the caller's strategy and nothing else runs.  Otherwise Sampled
    walks its other draws, and its other copies unless every copy passes
    on symbols; any other strategy walks the law in full.  A failure in
    the first draw or its copy is reported from the strategy's own walk,
    so a failing law has the witness it has without symbols.
    """
    sides = type(premise) is tuple
    holds = _compared(eq, premise) if sides else premise
    sampled = isinstance(strategy, Sampled)
    certifiable = sides and _differences(eq) is not None
    if not (slots and (certifiable or (sampled and construct is not None))
            and _symbols(slots) is not None):
        return _check(law, names, slots, eq, lhs, rhs, strategy, premise=holds,
                      construct=construct)
    first = Sampled(1, strategy.seed if sampled else 0).assignments(law, slots, construct)
    report = _check(law, names, slots, eq, lhs, rhs, strategy, premise=holds, walk=first)
    decided = report.passed and _decided(slots, eq, lhs, rhs, premise, construct)
    if decided == Decided.EVERY:
        return report
    if not (report.passed and sampled):
        return _check(law, names, slots, eq, lhs, rhs, strategy, premise=holds,
                      construct=construct)
    rest = islice(strategy.assignments(law, slots), 1, None)
    if construct is not None and decided != Decided.COPIES:
        rest = list(rest)
        rest = chain(rest, map(construct, rest))
    return _check(law, names, slots, eq, lhs, rhs, strategy, premise=holds, walk=rest)


class Laws:
    """The laws of one suite: one strategy, one equality, and its carriers.

    A law's variables are the parameters of its first function, in order.
    As in the paper's notation, a name that starts with x, y or z ranges
    over `points` and every other one (a, b, c, t, b1, ...) over `scalars`.
    """

    def __init__(self, strategy, eq: Callable, scalars, points=None):
        self.strategy, self.eq = strategy, eq
        self.scalars, self.points = scalars, points

    def _variables(self, fn: Callable) -> tuple:
        code = fn.__code__  # inspect.signature is slow
        names = code.co_varnames[:code.co_argcount]
        return names, tuple(self.points if n[0] in "xyz" else self.scalars
                            for n in names)

    def __call__(self, law: str, lhs: Callable, rhs: Callable,
                 probes: tuple = ()) -> CheckReport:
        names, slots = self._variables(lhs)
        return check_equation(law, names, slots, self.eq, lhs, rhs,
                              self.strategy, probes)

    def predicate(self, law: str, value: Callable, holds: Callable) -> CheckReport:
        names, slots = self._variables(value)
        return check_predicate(law, names, slots, value, holds, self.strategy)

    def implication(self, law: str, left: Callable, right: Callable,
                    lhs: Callable, rhs: Callable, construct: Callable) -> CheckReport:
        """left(...) == right(...) => lhs(...) == rhs(...)."""
        names, slots = self._variables(left)
        return check_implication(law, names, slots, (left, right), self.eq, lhs,
                                 rhs, self.strategy, construct)


def all_passed(reports: Iterable[CheckReport]) -> bool:
    return all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# rendering

def render_value(v) -> object:
    """JSON-friendly form: numbers as exact strings, tuples as arrays."""
    if v is None:
        return None
    if isinstance(v, tuple):
        return [render_value(c) for c in v]
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, Fraction)):
        return render_rational(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_inline(v) -> str:
    """Compact single-line form for text reports."""
    if isinstance(v, tuple):
        return "(" + ", ".join(render_inline(c) for c in v) + ")"
    rendered = render_value(v)
    return "null" if rendered is None else str(rendered)


def report_to_dict(report: CheckReport) -> dict:
    witness = None
    if report.witness is not None:
        witness = {"inputs": {k: render_value(v) for k, v in report.witness.inputs.items()},
                   "lhs": render_value(report.witness.lhs),
                   "rhs": render_value(report.witness.rhs)}
        if report.witness.difference is not None:
            witness["difference"] = render_value(report.witness.difference)
    return {"law": report.law, "strategy": report.strategy.to_dict(),
            "verdict": report.verdict, "witness": witness}


def reports_to_json(reports: Iterable[CheckReport]) -> str:
    import json  # on first use: a text report never needs it
    return json.dumps([report_to_dict(r) for r in reports], indent=2, sort_keys=True)


def report_to_text(report: CheckReport) -> str:
    line = f"{'PASS' if report.passed else 'FAIL'} {report.law} [{report.strategy.label()}]"
    if report.witness is not None:
        w = report.witness
        inputs = ", ".join(f"{k}={render_inline(v)}" for k, v in w.inputs.items())
        line += f" witness: {inputs} | lhs={render_inline(w.lhs)} rhs={render_inline(w.rhs)}"
        if w.difference is not None:
            line += f" difference={render_inline(w.difference)}"
    return line
