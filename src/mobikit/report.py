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

Every law whose slots all have symbols (Carrier.symbol), and which can be
decided on them, takes one path, `_law`: an equation; a predicate whose
test is the own `contains` of a carrier that admits its own symbol
(Carrier.admits); an implication whose premise is a pair of sides compared
with a carrier's own equality, or which Sampled walks with constructed
copies.  Its probes and one seeded draw, with its copy, run through the
loop: under Sampled the strategy's own first draw, otherwise that of
`Sampled(1)`.  If they pass, the law is evaluated once on the symbols
(`_decided`).  When that shows it holds at every assignment (an equality
that answers True, a carrier that admits the value, or a premise that
implies the conclusion by solving it, see solver.solved, or over Z/m by
a certificate modulo m, see symbolic._certified), the report is a pass
with the caller's strategy, and nothing is enumerated, so under Exhaustive
a decided law passes over an infinite carrier too.  Otherwise Sampled
walks its other draws, never the first one again, and its other copies
unless every copy passes on the symbols; any other strategy is walked in
full.  A law that fails at a probe or at its first draw under Sampled
itself has that report, which its full walk gives too, since that walk
meets the same assignment first; one that fails at the first draw's copy,
which the full walk reaches after every other draw, or under any other
strategy, is walked in full.  So a failing law has the witness it has
without symbols.  Every other law is walked in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from itertools import chain, islice, product
from typing import Callable, Iterable

# hashlib.blake2s is this very function (hashlib never takes blake2 from
# OpenSSL); importing it through hashlib would also load OpenSSL (_hashlib),
# about 3 ms of every cold start
from _blake2 import blake2s

from . import symbolic
from .carriers import (QI, Carrier, CarrierError, MembershipError, Product,
                       ShapeError, draws, enumerate_elements, linear_solution,
                       render_rational, try_subtract)


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
    digest = blake2s(f"{seed}:{law}".encode(), digest_size=8).digest()
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
    """What one evaluation of a law on symbols decides."""

    NOTHING = 0
    COPIES = 1  # every constructed copy passes
    EVERY = 2  # every assignment passes


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
    whose eq and differences come from different classes, for one that
    gives none for its own symbol, and for one whose differences are known
    modulo more than one modulus, such as a product of Q and Z/p."""
    carrier = _carrier(eq, "differences")
    if carrier is None:
        return None
    symbol = carrier.symbol(symbolic.variables())
    zeros = None if symbol is None else carrier.differences(symbol, symbol)
    if zeros is None or len({d.modulus for d in zeros}) > 1:
        return None
    return carrier.differences


def _leaves(symbol, value, out: list) -> list:
    """out, with the pairs (part of a symbol, part of a value built the same
    way) of a tuple's parts and a QI's two parts in turn, nested; Undecided
    when the value is not built the same way."""
    if type(symbol) in (tuple, QI):
        if type(value) is not type(symbol) or (type(symbol) is tuple
                                                and len(value) != len(symbol)):
            raise symbolic.Undecided("a copy of another shape")
        parts = zip(symbol, value) if type(symbol) is tuple else (
            (symbol.re, value.re), (symbol.im, value.im))
        for part, image in parts:
            _leaves(part, image, out)
    else:
        out.append((symbol, value))
    return out


def _variables(symbol) -> set:
    """The indices of the variables of a symbol."""
    return {v for part, _ in _leaves(symbol, symbol, []) for m in part.terms for v in m}


def _images(symbol, value) -> dict:
    """The value of each variable of a symbol (see Carrier.symbol) in a
    constructed copy of it: each part of the symbol, a variable or an affine
    expression in its variables with constant coefficients (a restricted
    carrier's box coordinates), equals the copy's part, and the variables
    are solved for (carriers.linear_solution); Undecided when the copy is
    not built the same way or does not determine them."""
    images = linear_solution(_leaves(symbol, value, []), _variables(symbol))
    if images is None:
        raise symbolic.Undecided("a copy that does not determine the symbol's variables")
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
    if all(symbolic.domain_of(v) == symbolic.FREE for v in _variables(assignment)):
        return True
    try:
        return symbolic.within(_images(assignment, construct(assignment)))
    except Exception:  # as in _decided
        return False


# the default of _decided's `differences`: not looked up by the caller
_UNASKED = object()


def _compared(eq: Callable, sides: tuple) -> Callable:
    """The premise that the pair of sides `sides` is equal under eq."""
    left, right = sides
    return lambda *assignment: eq(left(*assignment), right(*assignment))


def _decided(slots: tuple, eq: Callable, lhs: Callable, rhs: Callable,
             premise=None, construct: Callable | None = None,
             assignment: tuple | None = None, differences=_UNASKED) -> Decided:
    """What one evaluation of a law on a symbol for each slot decides (see
    symbolic); `assignment` is those symbols (_symbols(slots)) and
    `differences` is _differences(eq), or None for a premise that is not a
    pair of sides, when the caller has looked them up already.  For an
    equation or a predicate (no premise), EVERY when eq answers True on lhs
    and rhs evaluated on the symbols.

    For an implication, EVERY when the premise is a pair of sides compared
    with a carrier's own eq, the copy of the symbols, if any, keeps each
    variable in its domain (see _copy_stays), and the premise's differences
    (Carrier.differences) imply the conclusion's, all evaluated on the
    symbols: by solver.solved, with the factors of the sides' denominators
    nonzero, or, for differences known modulo m, by a certificate modulo m
    (symbolic._certified).  Otherwise COPIES when every copy passes: when
    premise and eq both answer True on the copy of the symbols, evaluated
    afresh.  NOTHING otherwise."""
    if assignment is None:
        assignment = _symbols(slots)
    if assignment is None:
        return Decided.NOTHING
    if differences is _UNASKED:
        differences = _differences(eq) if type(premise) is tuple else None
    try:
        if premise is None and eq(lhs(*assignment), rhs(*assignment)) is True:
            return Decided.EVERY
        if differences is not None and (construct is None
                                        or _copy_stays(assignment, construct)):
            sides = [f(*assignment) for f in premise + (lhs, rhs)]
            pi, gamma = differences(*sides[:2]), differences(*sides[2:])
            modulus = max((d.modulus for d in pi), default=0)
            if modulus:
                certified = symbolic._certified(pi, gamma, [symbolic.CERTIFICATE_WORK],
                                                modulus)
            else:
                from . import solver  # on first use: a cold start that solves nothing skips it
                certified = solver.solved(pi, gamma, _denominators(sides, {}).values())
            if certified:
                return Decided.EVERY
    except Exception:  # Undecided, or any error a symbol meets: a copy or the walk decides
        pass
    if construct is None:
        return Decided.NOTHING
    if type(premise) is tuple:
        premise = _compared(eq, premise)
    try:
        copy = construct(assignment)
        if premise(*copy) is True and eq(lhs(*copy), rhs(*copy)) is True:
            return Decided.COPIES
    except Exception:  # as above
        pass
    return Decided.NOTHING


def _law(law: str, names: tuple, slots: tuple, eq: Callable, lhs: Callable,
         rhs: Callable, strategy, decides: Callable | None, premise=None,
         construct: Callable | None = None, probes: tuple = (),
         differences: Callable | None = None) -> CheckReport:
    """The one path of every law check, as the module docstring tells:
    `decides` is the equality the law is decided with on symbols (see
    _decided), None for a law that is only walked, and `differences` that
    of its carrier, for a premise that is a pair of sides.

    A failure at a probe or at the first draw is the report under Sampled
    itself, whose full walk meets that assignment first too; a failure at
    the first draw's copy, and any failure under another strategy, such as
    Exhaustive or a subclass of Sampled with assignments of its own, is
    walked in full, since that walk can meet another failing assignment
    first."""
    holds = _compared(eq, premise) if type(premise) is tuple else premise
    sampled = isinstance(strategy, Sampled)
    symbols = _symbols(slots) if slots and decides is not None else None
    if symbols is None:
        return _check(law, names, slots, eq, lhs, rhs, strategy, holds, construct, probes)
    first = Sampled(1, strategy.seed if sampled else 0).assignments(law, slots)
    if construct is not None:
        first = list(first)  # its copy follows it
    report = _check(law, names, slots, eq, lhs, rhs, strategy, holds, probes=probes,
                    walk=first)
    copied = report.passed and construct is not None
    if copied:
        report = _check(law, names, slots, eq, lhs, rhs, strategy, holds,
                        walk=map(construct, first))
    if not report.passed:
        if type(strategy) is Sampled and not copied:
            return report
        return _check(law, names, slots, eq, lhs, rhs, strategy, holds, construct, probes)
    decided = _decided(slots, decides, lhs, rhs, premise, construct, symbols, differences)
    if decided == Decided.EVERY:
        return report
    if not sampled:
        return _check(law, names, slots, eq, lhs, rhs, strategy, holds, construct, probes)
    rest = islice(strategy.assignments(law, slots), 1, None)
    if construct is not None and decided != Decided.COPIES:
        rest = list(rest)
        rest = chain(rest, map(construct, rest))
    return _check(law, names, slots, eq, lhs, rhs, strategy, holds, walk=rest)


def check_equation(law: str, names: tuple, slots: tuple, eq: Callable,
                   lhs: Callable, rhs: Callable, strategy,
                   probes: tuple = ()) -> CheckReport:
    """Check lhs(...) == rhs(...) over assignments; probes run first.  It is
    decided on symbols with eq (see _law)."""
    return _law(law, names, slots, eq, lhs, rhs, strategy, eq, probes=probes)


def _admitting(holds: Callable) -> Carrier | None:
    """The carrier whose own contains holds is (see _carrier), when it
    admits its own symbol (see Carrier.admits); None otherwise, as for a
    carrier with no symbol or with an opaque membership predicate."""
    carrier = _carrier(holds, "admits")
    if carrier is None:
        return None
    symbol = carrier.symbol(symbolic.variables())
    try:
        return carrier if symbol is not None and carrier.admits(symbol) is True else None
    except Exception:  # as in _decided
        return None


def _nothing(*_):
    return None


def check_predicate(law: str, names: tuple, slots: tuple, value: Callable,
                    holds: Callable, strategy) -> CheckReport:
    """Check holds(value(...)) over assignments (closure-style laws).

    When holds is the own contains of a carrier that admits its own symbol,
    the value is a member at every assignment if the carrier admits it on
    symbols (Carrier.admits; see _law); any other predicate is walked."""
    carrier = _admitting(holds)
    return _law(law, names, slots, lambda v, _: holds(v), value, _nothing, strategy,
                None if carrier is None else lambda v, _: carrier.admits(v))


def check_implication(law: str, names: tuple, slots: tuple, premise,
                      eq: Callable, lhs: Callable, rhs: Callable, strategy,
                      construct: Callable | None = None) -> CheckReport:
    """Check premise(...) => lhs(...) == rhs(...).

    `premise` is a predicate of the assignment, or the pair (left, right)
    of its sides, compared with eq.  Sampled runs rarely hit the premise by
    chance, so `construct` (mapping an assignment to one that satisfies
    the premise) lets Sampled walk a second pass, the constructed copies of
    its draws, to keep the check non-vacuous.

    It is decided on symbols with eq (see _law) when the premise is a pair
    of sides compared with a carrier's own eq, or when Sampled walks
    copies; otherwise it is walked.
    """
    differences = _differences(eq) if type(premise) is tuple else None
    copies = isinstance(strategy, Sampled) and construct is not None
    return _law(law, names, slots, eq, lhs, rhs, strategy,
                eq if differences is not None or copies else None, premise, construct,
                differences=differences)


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
    """The reports' dicts (report_to_dict) as a JSON array, byte for byte
    the text of json.dumps(dicts, indent=2, sort_keys=True).  _json writes
    it, with strings quoted by json's own encode_basestring_ascii, because
    json.dumps with an indent runs json's pure-Python encoder, which takes
    about twice as long on a typical report list; a value of a type that
    _json does not write, such as a float in a strategy's own to_dict, goes
    to json.dumps itself."""
    # on first use: a text report never needs json
    from json.encoder import encode_basestring_ascii
    dicts = [report_to_dict(r) for r in reports]
    try:
        return "".join(_json(dicts, "\n", encode_basestring_ascii, []))
    except TypeError:
        import json
        return json.dumps(dicts, indent=2, sort_keys=True)


def _json(value, indent: str, quote: Callable, out: list) -> list:
    """out, with the JSON text of a value made of dicts with str keys,
    lists, strs, ints, bools and None, as json.dumps(value, indent=2,
    sort_keys=True) writes it; `indent` is a newline and the indentation
    of the value's own line.  TypeError for a value of any other type."""
    t = type(value)
    if t is str:
        out.append(quote(value))
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif t is int:
        out.append(int.__repr__(value))
    elif t is dict or t is list:
        if not value:
            out.append("{}" if t is dict else "[]")
            return out
        inner, separator = indent + "  ", "{" if t is dict else "["
        for item in (sorted(value) if t is dict else value):
            out.append(separator + inner)
            if t is dict:
                out += (quote(item), ": ")
                item = value[item]
            _json(item, inner, quote, out)
            separator = ","
        out.append(indent + ("}" if t is dict else "]"))
    else:
        raise TypeError(f"a {t.__name__}, which _json does not write")
    return out


def report_to_text(report: CheckReport) -> str:
    line = f"{'PASS' if report.passed else 'FAIL'} {report.law} [{report.strategy.label()}]"
    if report.witness is not None:
        w = report.witness
        inputs = ", ".join(f"{k}={render_inline(v)}" for k, v in w.inputs.items())
        line += f" witness: {inputs} | lhs={render_inline(w.lhs)} rhs={render_inline(w.rhs)}"
        if w.difference is not None:
            line += f" difference={render_inline(w.difference)}"
    return line
