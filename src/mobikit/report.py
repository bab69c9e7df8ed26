"""Law-checking engine: strategies, witnesses, and CheckReport.

Every law check walks assignments either exhaustively (finite carriers only)
or over seeded samples, and returns a CheckReport whose witness, when present,
re-evaluates to unequal sides.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable

from .carriers import Product, QI, sample, try_subtract


class EvalError(Exception):
    """An operation failed at evaluation time (e.g. division by zero)."""


@dataclass(frozen=True)
class Exhaustive:
    """Walk every assignment; requires finite carriers."""


@dataclass(frozen=True)
class Sampled:
    """Walk `samples` seeded assignments per law."""

    samples: int = 500
    seed: int = 0


@dataclass(frozen=True)
class StrategyInfo:
    kind: str  # "exhaustive" | "sampled"
    samples: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class Witness:
    inputs: dict
    lhs: object
    rhs: object
    difference: object = None


@dataclass(frozen=True)
class CheckReport:
    law: str
    strategy: StrategyInfo
    verdict: str  # "pass" | "fail"
    witness: Witness | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def law_seed(seed: int, law: str) -> int:
    """Stable per-law sub-seed derived from the run seed and the law id."""
    digest = hashlib.blake2s(f"{seed}:{law}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _strategy_info(strategy, n_slots: int) -> StrategyInfo:
    if n_slots == 0 or isinstance(strategy, Exhaustive):
        return StrategyInfo("exhaustive")
    return StrategyInfo("sampled", strategy.samples, strategy.seed)


def assignments_for(law: str, slots: tuple, strategy) -> Iterable[tuple]:
    """Assignment tuples for a law quantified over the given carriers."""
    if not slots:
        return [()]
    if isinstance(strategy, Exhaustive):
        import itertools

        return itertools.product(*(c.elements() for c in slots))
    if isinstance(strategy, Sampled):
        prod = Product(tuple(slots))
        return sample(prod, law_seed(strategy.seed, law), strategy.samples)
    raise TypeError(f"unknown strategy {strategy!r}")


def _error_witness(names, assignment, exc) -> Witness:
    return Witness(inputs=dict(zip(names, assignment)),
                   lhs=f"<error: {exc}>", rhs=None, difference=None)


def check_equation(law: str, names: tuple, slots: tuple, eq: Callable,
                   lhs: Callable, rhs: Callable, strategy,
                   probes: tuple = ()) -> CheckReport:
    """Check lhs(...) == rhs(...) over assignments; probes run first."""
    info = _strategy_info(strategy, len(slots))
    for assignment in chain(probes, assignments_for(law, slots, strategy)):
        try:
            left = lhs(*assignment)
            right = rhs(*assignment)
        except (ZeroDivisionError, EvalError) as exc:
            return CheckReport(law, info, "fail", _error_witness(names, assignment, exc))
        if not eq(left, right):
            w = Witness(dict(zip(names, assignment)), left, right, try_subtract(left, right))
            return CheckReport(law, info, "fail", w)
    return CheckReport(law, info, "pass")


def check_predicate(law: str, names: tuple, slots: tuple, value: Callable,
                    holds: Callable, strategy) -> CheckReport:
    """Check holds(value(...)) over assignments (closure-style laws)."""
    info = _strategy_info(strategy, len(slots))
    for assignment in assignments_for(law, slots, strategy):
        try:
            v = value(*assignment)
        except (ZeroDivisionError, EvalError) as exc:
            return CheckReport(law, info, "fail", _error_witness(names, assignment, exc))
        if not holds(v):
            w = Witness(dict(zip(names, assignment)), v, None, None)
            return CheckReport(law, info, "fail", w)
    return CheckReport(law, info, "pass")


def check_implication(law: str, names: tuple, slots: tuple, premise: Callable,
                      eq: Callable, lhs: Callable, rhs: Callable, strategy,
                      construct: Callable | None = None) -> CheckReport:
    """Check premise(...) => lhs(...) == rhs(...).

    Sampled runs rarely hit the premise by chance, so `construct` (mapping an
    assignment to one that satisfies the premise) is applied to a second pass
    of the same assignments to keep the check non-vacuous.
    """
    info = _strategy_info(strategy, len(slots))
    base = list(assignments_for(law, slots, strategy))
    extra = []
    if construct is not None and not isinstance(strategy, Exhaustive):
        extra = [construct(a) for a in base]
    for assignment in chain(base, extra):
        try:
            if not premise(*assignment):
                continue
            left = lhs(*assignment)
            right = rhs(*assignment)
        except (ZeroDivisionError, EvalError) as exc:
            return CheckReport(law, info, "fail", _error_witness(names, assignment, exc))
        if not eq(left, right):
            w = Witness(dict(zip(names, assignment)), left, right, try_subtract(left, right))
            return CheckReport(law, info, "fail", w)
    return CheckReport(law, info, "pass")


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
        return str(Fraction(v))
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, QI):
        return str(v)
    return str(v)


def render_inline(v) -> str:
    """Compact single-line form for text reports."""
    if isinstance(v, tuple):
        return "(" + ", ".join(render_inline(c) for c in v) + ")"
    rendered = render_value(v)
    return "null" if rendered is None else str(rendered)


def report_to_dict(report: CheckReport) -> dict:
    strategy = {"kind": report.strategy.kind,
                "samples": report.strategy.samples,
                "seed": report.strategy.seed}
    witness = None
    if report.witness is not None:
        witness = {"inputs": {k: render_value(v) for k, v in report.witness.inputs.items()},
                   "lhs": render_value(report.witness.lhs),
                   "rhs": render_value(report.witness.rhs)}
        if report.witness.difference is not None:
            witness["difference"] = render_value(report.witness.difference)
    return {"law": report.law, "strategy": strategy,
            "verdict": report.verdict, "witness": witness}


def reports_to_json(reports: Iterable[CheckReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2, sort_keys=True)


def report_to_text(report: CheckReport) -> str:
    s = report.strategy
    strat = "exhaustive" if s.kind == "exhaustive" else f"sampled(n={s.samples}, seed={s.seed})"
    line = f"{'PASS' if report.passed else 'FAIL'} {report.law} [{strat}]"
    if report.witness is not None:
        w = report.witness
        inputs = ", ".join(f"{k}={render_inline(v)}" for k, v in w.inputs.items())
        line += f" witness: {inputs} | lhs={render_inline(w.lhs)} rhs={render_inline(w.rhs)}"
        if w.difference is not None:
            line += f" difference={render_inline(w.difference)}"
    return line
