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

An implication under Sampled whose slots all have symbols walks its draws
and then the first draw's constructed copy, a prefix of the full walk.  If
they pass, and the premise and the equality both answer True on the copy
of the symbols, every copy passes and the pass is reported; otherwise the
other copies are walked after them.  Every predicate, and every
implication under another strategy, is walked in full.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Iterable

from . import symbolic
from .carriers import (CarrierError, MembershipError, Product, ShapeError,
                       enumerate_elements, render_rational, sample, try_subtract)


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
    their constructed copies after them."""

    samples: int = 500
    seed: int = 0

    def __post_init__(self):
        # zero samples would pass every law without evaluating it
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    def assignments(self, law: str, slots: tuple, construct=None) -> list:
        drawn = sample(Product(tuple(slots)), law_seed(self.seed, law), self.samples)
        if construct is not None:
            drawn += [construct(a) for a in drawn]
        return drawn

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


def _decided(slots: tuple, eq: Callable, lhs: Callable, rhs: Callable,
             premise: Callable | None = None,
             construct: Callable | None = None) -> bool:
    """Whether eq answers True on lhs and rhs evaluated once on a symbol for
    each slot, so that it holds at every assignment (see symbolic).  With
    `construct`, they are evaluated on the constructed copy of the symbols,
    where `premise` must answer True too: then every copy passes."""
    assignment = _symbols(slots)
    if assignment is None:
        return False
    try:
        if construct is not None:
            assignment = construct(assignment)
            if premise(*assignment) is not True:
                return False
        return eq(lhs(*assignment), rhs(*assignment)) is True
    except Exception:  # Undecided, or any error a symbol meets: the walk decides
        return False


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


def check_predicate(law: str, names: tuple, slots: tuple, value: Callable,
                    holds: Callable, strategy) -> CheckReport:
    """Check holds(value(...)) over assignments (closure-style laws)."""
    return _check(law, names, slots, lambda v, _: holds(v), value,
                  lambda *_: None, strategy)


def check_implication(law: str, names: tuple, slots: tuple, premise: Callable,
                      eq: Callable, lhs: Callable, rhs: Callable, strategy,
                      construct: Callable | None = None) -> CheckReport:
    """Check premise(...) => lhs(...) == rhs(...).

    Sampled runs rarely hit the premise by chance, so `construct` (mapping an
    assignment to one that satisfies the premise) lets Sampled walk a second
    pass, the constructed copies of its draws, to keep the check non-vacuous.

    When every slot has a symbol, Sampled walks its draws and the first
    copy, a prefix of its walk, before the copies are decided on symbols:
    if premise and eq answer True on the copy of the symbols, every copy
    passes and the rest are skipped.  Otherwise they are walked after it.
    """
    if not (isinstance(strategy, Sampled) and construct is not None and slots
            and _symbols(slots) is not None):
        return _check(law, names, slots, eq, lhs, rhs, strategy, premise=premise,
                      construct=construct)
    drawn = strategy.assignments(law, slots)
    report = _check(law, names, slots, eq, lhs, rhs, strategy, premise=premise,
                    walk=drawn + [construct(drawn[0])])
    if not report.passed or _decided(slots, eq, lhs, rhs, premise, construct):
        return report
    return _check(law, names, slots, eq, lhs, rhs, strategy, premise=premise,
                  walk=[construct(a) for a in drawn[1:]])


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

    def implication(self, law: str, premise: Callable, lhs: Callable,
                    rhs: Callable, construct: Callable) -> CheckReport:
        names, slots = self._variables(premise)
        return check_implication(law, names, slots, premise, self.eq, lhs, rhs,
                                 self.strategy, construct)


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
