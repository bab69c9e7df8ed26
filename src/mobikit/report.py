"""Law-checking engine: strategies, witnesses, and CheckReport.

Every law check (equation, predicate or implication) runs through one loop,
`_check`, which walks the assignments its strategy gives and returns a
CheckReport whose witness, when present, re-evaluates to unequal sides.  A
ZeroDivisionError or EvalError raised while evaluating a law becomes an
`<error: ...>` witness.

A strategy answers for itself: `assignments(law, slots, construct)` gives
the assignments it walks, `label()` is its text in a report line and
`to_dict()` its JSON form.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Iterable

from .carriers import Product, render_rational, sample, try_subtract


class EvalError(Exception):
    """An operation failed at evaluation time (e.g. division by zero)."""


@dataclass(frozen=True)
class Exhaustive:
    """Walk every assignment; requires finite carriers."""

    def assignments(self, law: str, slots: tuple, construct=None) -> Iterable[tuple]:
        # the walk already holds every constructed copy
        return product(*(c.elements() for c in slots))

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
           construct: Callable | None = None, probes: tuple = ()) -> CheckReport:
    """The one assignment loop: probes, then the strategy's assignments.
    Assignments whose premise fails are skipped; the first one whose sides
    differ, or whose evaluation raises, is the witness.  A raise shows on the
    side that raised: the premise's and lhs's on the left, rhs's on the right
    beside the left side's value."""
    if not slots:
        strategy = Exhaustive()  # one assignment, the empty one
    for assignment in chain(probes, assignments_for(law, slots, strategy, construct)):
        try:
            if premise is not None and not premise(*assignment):
                continue
            left = lhs(*assignment)
        except (ZeroDivisionError, EvalError) as exc:
            return _failure(law, strategy, names, assignment, f"<error: {exc}>", None)
        try:
            right = rhs(*assignment)
        except (ZeroDivisionError, EvalError) as exc:
            return _failure(law, strategy, names, assignment, left, f"<error: {exc}>")
        if not eq(left, right):
            return _failure(law, strategy, names, assignment, left, right,
                            try_subtract(left, right))
    return CheckReport(law, strategy, "pass")


def check_equation(law: str, names: tuple, slots: tuple, eq: Callable,
                   lhs: Callable, rhs: Callable, strategy,
                   probes: tuple = ()) -> CheckReport:
    """Check lhs(...) == rhs(...) over assignments; probes run first."""
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
    """
    return _check(law, names, slots, eq, lhs, rhs, strategy, premise=premise,
                  construct=construct)


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
