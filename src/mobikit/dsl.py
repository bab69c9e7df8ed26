"""A small definition language for algebras and spaces.

Files hold any number of definitions:

    algebra line {
      carrier: Q
      zero: 0
      half: 1/2
      one: 1
      p(a, b, c) = a - b*a + b*c
    }

    space projectile over line {
      carrier: Q^2
      param k: Q = 1
      q((x, s), a, (y, t)) = (x + a*(y - x) + a*(1 - a)*(t - s)^2*k, s + a*(t - s))
    }

Carriers are products of Q, QI, R64, and Zmod(m) atoms, each optionally
raised to a power, joined with `x`, with an optional `where` constraint over
the components (named v for a single scalar, v1..vk otherwise).  The names
`i` and `exp` are reserved: `i` needs a QI atom in the carrier, `exp(...)`
an R64 atom and a real argument.  A QI value has no order, so it may only be
compared with `=`.  A space's `over` names an algebra defined anywhere in
the file, before or after the space, or a catalog algebra.

Elaboration checks each expression and compiles it in the same walk, once,
into nested closures over the operation's arguments; evaluating p, q or a
where clause runs those closures, not the syntax tree.  parse_value checks
and compiles a literal the same way, with every atom's names allowed.

`/` is refused on a carrier of Zmod atoms alone.  Parentheses and syntax
trees nest at most _MAX_DEPTH levels, far inside the recursion limit.

Errors are reported as DslError(kind, line, col, msg) with kind one of
lexical, syntax, unbound-identifier, shape-mismatch, exp-i-misuse, and
arithmetic (a constant whose evaluation fails, such as 1/0).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .algebra import MobiAlgebra
from .carriers import (COMPLEX, SCALAR, Float64, GaussianRational,
                       ModularInt, Product, QI, Rational, Restricted)
from .report import EvalError
from .space import MobiSpace

_KEYWORDS = {"algebra", "space", "over", "carrier", "zero", "half", "one",
             "param", "where", "and"}
_BASES = {"Q", "QI", "R64", "Zmod"}
_RESERVED = {"i", "exp"}
_RELATIONS = {"<=": operator.le, "<": operator.lt, "=": operator.eq,
              ">=": operator.ge, ">": operator.gt}
# Binding strength, shared by the parser and the printer: ^ binds tightest,
# then unary -, then * /, then + -.
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY = 3
_MAX_DEPTH = 64
_TOO_DEEP = f"expression nests deeper than {_MAX_DEPTH} levels"


class DslError(Exception):
    def __init__(self, kind: str, line: int, col: int, msg: str):
        super().__init__(f"{kind}: {msg}")
        self.kind = kind
        self.line = line
        self.col = col
        self.msg = msg

    def format(self, path: str) -> str:
        return f"{path}:{self.line}:{self.col}: {self.kind}: {self.msg}"


# ---------------------------------------------------------------------------
# tokens

class Token(NamedTuple):
    kind: str  # "name" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


# The matching group names the token kind; "space" is skipped.
_TOKEN_RE = re.compile(r"(?P<space>[ \t\r\n]+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<int>\d+)|(?P<punct><=|>=|[{}(),:=^+\-*/<>])")


def _lex(text: str) -> list:
    toks = []
    pos, line, line_start = 0, 1, 0
    depth = 0  # of open parentheses; a stray ')' fails in the parser first
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            raise DslError("lexical", line, col,
                           f"unexpected character {text[pos]!r}")
        if m.lastgroup == "space":
            line += m.group().count("\n")
            line_start = max(line_start, text.rfind("\n", pos, m.end()) + 1)
        else:
            tok = Token(m.lastgroup, m.group(), line, col)
            depth += (tok.text == "(") - (tok.text == ")")
            if depth > _MAX_DEPTH:
                raise _error("syntax", tok, _TOO_DEEP)
            toks.append(tok)
        pos = m.end()
    toks.append(Token("eof", "", line, pos - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# syntax trees

@dataclass
class _Node:
    """A node that remembers where its source begins; positions do not take
    part in equality, so a reparsed tree equals the original."""
    line: int = field(default=0, kw_only=True, compare=False)
    col: int = field(default=0, kw_only=True, compare=False)


@dataclass
class Num(_Node):
    value: int


@dataclass
class Name(_Node):
    text: str


@dataclass
class Unary(_Node):
    operand: object


@dataclass
class Bin(_Node):
    op: str
    left: object
    right: object


@dataclass
class Call(_Node):
    fn: str
    arg: object


@dataclass
class Tup(_Node):
    items: tuple


@dataclass
class Compare(_Node):
    items: tuple  # n expressions
    ops: tuple  # n-1 relational operators


@dataclass
class And(_Node):
    parts: tuple


@dataclass
class CarrierAtom(_Node):
    base: str  # "Q" | "QI" | "R64" | "Zmod"
    modulus: int | None
    power: int


@dataclass
class CarrierType:
    atoms: tuple
    where: object | None = None


@dataclass
class ParamDef(_Node):
    name: str
    atom: CarrierAtom
    value: Fraction


@dataclass
class OpDef(_Node):
    name: str
    patterns: tuple  # nested tuples of str
    body: object


@dataclass
class AlgebraDef(_Node):
    name: str
    carrier: CarrierType
    zero: object
    half: object
    one: object
    op: OpDef


@dataclass
class SpaceDef(_Node):
    name: str
    over: str
    carrier: CarrierType
    params: tuple
    op: OpDef
    over_line: int = field(default=0, compare=False)
    over_col: int = field(default=0, compare=False)


def _error(kind: str, at, msg: str) -> DslError:
    """A DslError at the position of a token or a node."""
    return DslError(kind, at.line, at.col, msg)


# ---------------------------------------------------------------------------
# parser
#
# A token is matched by its text alone: the eof token's text is empty, and no
# name or integer is spelled like an operator.

class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.idx = 0

    def peek(self) -> Token:
        return self.toks[self.idx]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":  # never step past the final eof token
            self.idx += 1
        return tok

    def fail(self, tok: Token, msg: str):
        got = f"{tok.text!r}" if tok.kind != "eof" else "end of input"
        raise _error("syntax", tok, f"{msg}, got {got}")

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.idx += 1
            return True
        return False

    def expect(self, text: str):
        tok = self.next()
        if tok.text != text:
            self.fail(tok, f"expected {text!r}")

    def expect_name(self, what: str) -> Token:
        tok = self.next()
        if tok.kind != "name":
            self.fail(tok, f"expected {what}")
        return tok

    def integer(self, what: str) -> Num:
        tok = self.next()
        if tok.kind != "int":
            self.fail(tok, f"expected {what}")
        return self.number(tok)

    def number(self, tok: Token) -> Num:
        try:
            value = int(tok.text)
        except ValueError:  # more digits than the interpreter converts
            raise _error("syntax", tok, f"integer literal of {len(tok.text)} "
                                        "digits is too long") from None
        return Num(value, line=tok.line, col=tok.col)

    def ident(self) -> Token:
        tok = self.expect_name("an identifier")
        if tok.text in _KEYWORDS:
            self.fail(tok, f"expected an identifier, keyword {tok.text!r} is reserved")
        if tok.text in _RESERVED:
            self.fail(tok, f"{tok.text!r} is reserved and cannot be defined")
        return tok

    def separated(self, item, sep: str = ",") -> list:
        """One or more of item(), joined by sep."""
        items = [item()]
        while self.accept(sep):
            items.append(item())
        return items

    # -- items

    def file(self) -> list:
        items = []
        while self.peek().kind != "eof":
            kw = self.next()
            if kw.text == "algebra":
                items.append(self.algebra(kw))
            elif kw.text == "space":
                items.append(self.space(kw))
            else:
                self.fail(kw, "expected 'algebra' or 'space'")
        return items

    def algebra(self, kw: Token) -> AlgebraDef:
        name = self.ident()
        readers = {"carrier": self.carrier_type, "zero": self.expr,
                   "half": self.expr, "one": self.expr}
        fields, _, op = self.body(kw, readers,
                                  {"param": "algebras take no parameters"},
                                  self.algebra_op, "p(a, b, c)")
        return AlgebraDef(name.text, *(fields[key] for key in readers), op,
                          line=kw.line, col=kw.col)

    def space(self, kw: Token) -> SpaceDef:
        name = self.ident()
        self.expect("over")
        over = self.expect_name("an algebra name")
        refused = dict.fromkeys(("zero", "half", "one"), "spaces take no constants")
        fields, params, op = self.body(kw, {"carrier": self.carrier_type}, refused,
                                       self.space_op, "q(x, a, y)")
        return SpaceDef(name.text, over.text, fields["carrier"], tuple(params),
                        op, over_line=over.line, over_col=over.col,
                        line=kw.line, col=kw.col)

    def body(self, kw: Token, readers: dict, refused: dict, operation, signature):
        """The { ... } of a definition: (fields, params, operation).

        Each key of readers is a `key: value` field, read by its reader and
        required once; a word in refused fails with its message; `param`
        lines accumulate; any other name begins the one operation.
        """
        self.expect("{")
        fields, params, op = {}, [], None
        while not self.accept("}"):
            tok = self.next()
            if tok.kind == "eof":
                self.fail(tok, "expected '}'")
            if tok.text in refused:
                self.fail(tok, refused[tok.text])
            if tok.kind != "name":
                self.fail(tok, "expected a field")
            if tok.text in readers:
                self.expect(":")
                value = readers[tok.text]()
                if tok.text in fields:
                    self.fail(tok, f"duplicate field {tok.text!r}")
                fields[tok.text] = value
            elif tok.text == "param":
                params.append(self.param(params))
            elif op is not None:
                self.fail(tok, "duplicate operation definition")
            else:
                op = operation(tok)
        for key in readers:
            if key not in fields:
                self.fail(kw, f"missing field {key!r}")
        if op is None:
            self.fail(kw, f"{kw.text} needs an operation {signature} = ...")
        return fields, params, op

    def param(self, params: list) -> ParamDef:
        name = self.ident()
        if any(par.name == name.text for par in params):
            self.fail(name, f"duplicate param {name.text!r}")
        self.expect(":")
        atom = self.carrier_atom()
        if atom.power != 1:
            raise _error("syntax", atom, "params must have a scalar carrier")
        self.expect("=")
        return ParamDef(name.text, atom, self.signed_rational(),
                        line=name.line, col=name.col)

    # -- carriers

    def carrier_type(self) -> CarrierType:
        atoms = self.separated(self.carrier_atom, "x")
        where = self.constraint() if self.accept("where") else None
        return CarrierType(tuple(atoms), where)

    def carrier_atom(self) -> CarrierAtom:
        tok = self.next()
        if tok.text not in _BASES:
            self.fail(tok, "expected a carrier (Q, QI, R64, or Zmod(m))")
        modulus = None
        if tok.text == "Zmod":
            self.expect("(")
            modulus = _at_least(self.integer("a modulus"), 2, "modulus")
            self.expect(")")
        power = 1
        if self.accept("^"):
            power = _at_least(self.integer("an integer power"), 1, "power")
        return CarrierAtom(tok.text, modulus, power, line=tok.line, col=tok.col)

    def constraint(self):
        parts = self.separated(self.comparison, "and")
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts), line=parts[0].line, col=parts[0].col)

    def comparison(self) -> Compare:
        items = [self.expr()]
        ops = []
        if self.peek().text not in _RELATIONS:
            self.fail(self.peek(), "expected a comparison operator")
        while self.peek().text in _RELATIONS:
            ops.append(self.next().text)
            items.append(self.expr())
        return Compare(tuple(items), tuple(ops),
                       line=items[0].line, col=items[0].col)

    # -- operations

    def algebra_op(self, name: Token) -> OpDef:
        if name.text != "p":
            self.fail(name, "expected the operation 'p'")
        self.expect("(")
        args = self.separated(self.ident)
        self.expect(")")
        if len(args) != 3:
            self.fail(name, f"p takes exactly 3 arguments, got {len(args)}")
        for k, arg in enumerate(args):
            if any(arg.text == other.text for other in args[:k]):
                self.fail(arg, f"duplicate argument {arg.text!r}")
        self.expect("=")
        return OpDef("p", tuple(a.text for a in args), self.expr(),
                     line=name.line, col=name.col)

    def space_op(self, name: Token) -> OpDef:
        if name.text != "q":
            self.fail(name, "expected the operation 'q'")
        self.expect("(")
        left = self.pattern()
        self.expect(",")
        mid = self.ident().text
        self.expect(",")
        right = self.pattern()
        self.expect(")")
        seen = set()
        for word in _pattern_names((left, mid, right)):
            if word in seen:
                self.fail(name, f"duplicate pattern name {word!r}")
            seen.add(word)
        self.expect("=")
        return OpDef("q", (left, mid, right), self.expr(),
                     line=name.line, col=name.col)

    def pattern(self):
        if not self.accept("("):
            return self.ident().text
        parts = self.separated(self.pattern)
        self.expect(")")
        return parts[0] if len(parts) == 1 else tuple(parts)

    def signed_rational(self) -> Fraction:
        negative = self.accept("-")
        value = Fraction(self.integer("a rational literal").value)
        if self.accept("/"):
            den = self.integer("a denominator")
            if den.value == 0:
                raise _error("syntax", den, "denominator cannot be zero")
            value /= den.value
        return -value if negative else value

    # -- expressions, by _LEVEL

    def expr(self, level: int = 1):
        """An expression whose binary operators bind at least at level; each
        level below _UNARY is one left-associative loop."""
        if level == _UNARY:
            return self.unary()
        node = self.expr(level + 1)
        while _LEVEL.get(self.peek().text) == level:
            op = self.next()
            node = Bin(op.text, node, self.expr(level + 1),
                       line=op.line, col=op.col)
        return node

    def unary(self):
        signs = []
        while self.peek().text == "-":
            signs.append(self.next())
        node = self.power()
        for tok in reversed(signs):
            node = Unary(node, line=tok.line, col=tok.col)
        return node

    def power(self):
        node = self.atom()
        op = self.peek()
        if self.accept("^"):
            exponent = self.integer("a nonnegative integer exponent")
            node = Bin("^", node, exponent, line=op.line, col=op.col)
        return node

    def atom(self):
        tok = self.next()
        if tok.kind == "int":
            return self.number(tok)
        if tok.kind == "name" and tok.text not in _KEYWORDS:
            if tok.text != "exp":
                return Name(tok.text, line=tok.line, col=tok.col)
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call("exp", arg, line=tok.line, col=tok.col)
        if tok.text == "(":
            items = self.separated(self.expr)
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return Tup(tuple(items), line=tok.line, col=tok.col)
        self.fail(tok, "expected an expression")


def _at_least(num: Num, least: int, what: str) -> int:
    if num.value < least:
        raise _error("syntax", num, f"{what} must be >= {least}, got {num.value}")
    return num.value


def _pattern_names(pattern):
    if isinstance(pattern, str):
        yield pattern
    else:
        for part in pattern:
            yield from _pattern_names(part)


def parse(text: str) -> list:
    """Parse a definition file into a list of AlgebraDef / SpaceDef."""
    return _Parser(_lex(text)).file()


def parse_value(text: str):
    """Parse a standalone literal expression like '(1/2, -3)' or '1 - i'."""
    parser = _Parser(_lex(text))
    expr = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise _error("syntax", tok, f"unexpected {tok.text!r} after the expression")
    _, value = _compile(expr, {}, _BASES)
    return value(())


# ---------------------------------------------------------------------------
# printing

def _fmt(e, level=0) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Name):
        return e.text
    if isinstance(e, Call):
        return f"{e.fn}({_fmt(e.arg)})"
    if isinstance(e, Unary):
        text = f"-{_fmt(e.operand, _UNARY)}"
        return f"({text})" if level > _UNARY else text
    if isinstance(e, Bin):
        mine = _LEVEL[e.op]
        left = _fmt(e.left, mine)
        right = _fmt(e.right, mine + 1)
        glue = f" {e.op} " if mine == 1 else e.op
        text = f"{left}{glue}{right}"
        return f"({text})" if mine < level else text
    if isinstance(e, Tup):
        return "(" + ", ".join(_fmt(x) for x in e.items) + ")"
    if isinstance(e, Compare):
        parts = [_fmt(e.items[0])]
        for op, item in zip(e.ops, e.items[1:]):
            parts.append(f" {op} {_fmt(item)}")
        return "".join(parts)
    if isinstance(e, And):
        return " and ".join(_fmt(p) for p in e.parts)
    raise TypeError(f"cannot print {e!r}")


def _fmt_atom(atom: CarrierAtom) -> str:
    base = f"Zmod({atom.modulus})" if atom.base == "Zmod" else atom.base
    return f"{base}^{atom.power}" if atom.power > 1 else base


def _fmt_carrier(ct: CarrierType) -> str:
    text = " x ".join(_fmt_atom(a) for a in ct.atoms)
    if ct.where is not None:
        text += f" where {_fmt(ct.where)}"
    return text


def _fmt_pattern(pat) -> str:
    if isinstance(pat, str):
        return pat
    return "(" + ", ".join(_fmt_pattern(p) for p in pat) + ")"


def print_definitions(items) -> str:
    """Render definitions back to canonical source text."""
    chunks = []
    for item in items:
        lines = []
        if isinstance(item, AlgebraDef):
            lines.append(f"algebra {item.name} {{")
            lines.append(f"  carrier: {_fmt_carrier(item.carrier)}")
            lines.append(f"  zero: {_fmt(item.zero)}")
            lines.append(f"  half: {_fmt(item.half)}")
            lines.append(f"  one: {_fmt(item.one)}")
            args = ", ".join(item.op.patterns)
            lines.append(f"  p({args}) = {_fmt(item.op.body)}")
        else:
            lines.append(f"space {item.name} over {item.over} {{")
            lines.append(f"  carrier: {_fmt_carrier(item.carrier)}")
            for par in item.params:
                lines.append(f"  param {par.name}: {_fmt_atom(par.atom)} = {par.value}")
            left, mid, right = item.op.patterns
            lines.append(f"  q({_fmt_pattern(left)}, {mid}, {_fmt_pattern(right)})"
                         f" = {_fmt(item.op.body)}")
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


# ---------------------------------------------------------------------------
# elaboration: definitions to runtime structures
#
# One walk checks an expression and compiles it: _compile returns its shape
# (SCALAR; COMPLEX when it may be a Gaussian rational, so that neither exp
# nor an order comparison accepts it; or the tuple of its items' shapes) and
# a function of one argument, the tuple (a, b, c) of p, the tuple (x, a, y)
# of q, or the element that a where clause tests.  Each name in env maps to
# (shape, getter of its value).

_FIELDS = {"Q": Rational, "QI": GaussianRational, "R64": Float64}


def _atom_carrier(atom: CarrierAtom):
    if atom.base == "Zmod":
        base = ModularInt(atom.modulus)
    else:
        base = _FIELDS[atom.base]()
    return base if atom.power == 1 else Product((base,) * atom.power)


def _constant(value):
    return lambda args: value


def _identity(args):
    return args


def _path(indices: tuple):
    """The getter of args[i][j]... along the index path (i, j, ...)."""
    if len(indices) == 1:
        return operator.itemgetter(indices[0])

    def get(args):
        for i in indices:
            args = args[i]
        return args

    return get


def _compile(e, env: dict, bases, depth: int = 1):
    """(shape, fn) of e at depth in its tree, raising DslError on static problems."""
    if depth > _MAX_DEPTH:
        raise _error("syntax", e, _TOO_DEEP)
    if isinstance(e, Num):
        return SCALAR, _constant(e.value)
    if isinstance(e, Name):
        if e.text == "i":
            if "QI" not in bases:
                raise _error("exp-i-misuse", e, "'i' requires a QI carrier")
            return COMPLEX, _constant(QI(0, 1))
        if e.text not in env:
            raise _error("unbound-identifier", e, f"unbound identifier {e.text!r}")
        return env[e.text]
    if isinstance(e, Call):  # the parser makes a Call of exp(...) only
        if "R64" not in bases:
            raise _error("exp-i-misuse", e, "'exp' requires an R64 carrier")
        shape, arg = _scalar(e.arg, env, bases, e, "exp needs a scalar argument",
                             depth)
        if shape == COMPLEX:
            raise _error("exp-i-misuse", e, "exp needs a real argument")

        def exp(args):
            value = arg(args)
            try:
                return math.exp(float(value))
            except OverflowError:
                raise EvalError(f"exp overflow at {value!r}")

        return SCALAR, exp
    if isinstance(e, Unary):
        shape, operand = _scalar(e.operand, env, bases, e,
                                 "unary '-' needs a scalar operand", depth)
        return shape, lambda args: -operand(args)
    if isinstance(e, Bin):
        msg = f"operator {e.op!r} needs scalar operands"
        shape, left = _scalar(e.left, env, bases, e, msg, depth)
        right_shape, right = _scalar(e.right, env, bases, e, msg, depth)
        if right_shape == COMPLEX:
            shape = COMPLEX
        if e.op == "+":
            return shape, lambda args: left(args) + right(args)
        if e.op == "-":
            return shape, lambda args: left(args) - right(args)
        if e.op == "*":
            return shape, lambda args: left(args) * right(args)
        if e.op == "^":
            power = e.right.value
            return shape, lambda args: left(args) ** power
        if bases == {"Zmod"}:
            raise _error("shape-mismatch", e,
                         "'/' is not defined on Zmod carriers; multiply by an inverse")

        def divide(args):
            a, b = left(args), right(args)
            if isinstance(a, int) and isinstance(b, int):
                return Fraction(a, b)
            return a / b

        return shape, divide
    if isinstance(e, Tup):
        shapes, fns = zip(*(_compile(x, env, bases, depth + 1) for x in e.items))
        return shapes, lambda args: tuple([fn(args) for fn in fns])
    if isinstance(e, Compare):
        shapes, fns = zip(*(_scalar(item, env, bases, item,
                                    "comparisons need scalar operands", depth)
                            for item in e.items))
        for k, op in enumerate(e.ops):
            if op != "=" and COMPLEX in shapes[k:k + 2]:
                at = e.items[k if shapes[k] == COMPLEX else k + 1]
                raise _error("shape-mismatch", at,
                             f"{op!r} needs real operands; Q[i] has no order")
        first, *rest = fns
        links = tuple(zip([_RELATIONS[op] for op in e.ops], rest))

        def compare(args):
            lhs = first(args)
            for holds, item in links:
                rhs = item(args)
                if not holds(lhs, rhs):
                    return False
                lhs = rhs
            return True

        return SCALAR, compare
    if isinstance(e, And):
        fns = [_compile(part, env, bases, depth + 1)[1] for part in e.parts]
        return SCALAR, lambda args: all(fn(args) for fn in fns)
    raise TypeError(f"cannot compile {e!r}")


def _fits(shape, want) -> bool:
    """Whether a value of this shape may stand where want is expected: a
    real scalar may stand for a Gaussian rational."""
    if isinstance(want, tuple):
        return (isinstance(shape, tuple) and len(shape) == len(want)
                and all(map(_fits, shape, want)))
    return shape == want or (shape == SCALAR and want == COMPLEX)


def _expect(e, env: dict, bases, want, at, msg: str):
    """The compiled fn of e, whose shape must fit want, else a shape-mismatch at `at`."""
    shape, fn = _compile(e, env, bases)
    if not _fits(shape, want):
        raise _error("shape-mismatch", at, msg)
    return fn


def _scalar(e, env: dict, bases, at, msg: str, depth: int):
    """(shape, fn) of e, the child of a node at depth, which must be a scalar,
    else a shape-mismatch at `at`."""
    shape, fn = _compile(e, env, bases, depth + 1)
    if isinstance(shape, tuple):
        raise _error("shape-mismatch", at, msg)
    return shape, fn


def _bind_pattern(pattern, shape, path: tuple, env: dict, op: OpDef):
    """Bind pattern names to their shapes and index paths; the pattern must
    match the shape."""
    if isinstance(pattern, str):
        env[pattern] = (shape, _path(path))
        return
    if not isinstance(shape, tuple) or len(shape) != len(pattern):
        raise _error("shape-mismatch", op, "pattern does not match the carrier shape")
    for k, (sub, subshape) in enumerate(zip(pattern, shape)):
        _bind_pattern(sub, subshape, path + (k,), env, op)


def _elab_carrier(ct: CarrierType):
    atoms = [_atom_carrier(a) for a in ct.atoms]
    carrier = atoms[0] if len(atoms) == 1 else Product(tuple(atoms))
    if ct.where is None:
        return carrier
    # the components: v for a single scalar, else v1..vk
    shape = carrier.shape()
    if not isinstance(shape, tuple):
        env = {"v": (shape, _identity)}
    else:
        env = {f"v{k + 1}": (sub, operator.itemgetter(k))
               for k, sub in enumerate(shape)}
    _, member = _compile(ct.where, env, carrier.atom_names())
    return Restricted(carrier, member, label=_fmt(ct.where))


def _param_value(par: ParamDef):
    base = par.atom.base
    if base == "Q" or base == "QI":
        return par.value
    if base == "R64":
        return float(par.value)
    if par.value.denominator != 1:
        raise _error("syntax", par, f"param {par.name!r} needs an integer value")
    return int(par.value)


def _evaluate(fn, expr, what: str):
    """The value of a compiled constant; a failing operation is an arithmetic
    DslError at the constant's expression."""
    try:
        return fn(())
    except ZeroDivisionError:
        raise _error("arithmetic", expr, f"{what} divides by zero") from None
    except (ArithmeticError, EvalError) as exc:
        raise _error("arithmetic", expr, f"{what}: {exc}") from None


def _elab_algebra(d: AlgebraDef) -> MobiAlgebra:
    carrier = _elab_carrier(d.carrier)
    shape = carrier.shape()
    bases = carrier.atom_names()
    fields = ((d.zero, "zero"), (d.half, "half"), (d.one, "one"))
    constants = [_expect(expr, {}, bases, shape, expr,
                         f"{what} does not match the carrier shape")
                 for expr, what in fields]
    env = {name: (shape, operator.itemgetter(k))
           for k, name in enumerate(d.op.patterns)}
    body = _expect(d.op.body, env, bases, shape, d.op.body,
                   "the body of p does not match the carrier shape")
    zero, half, one = (_evaluate(fn, expr, what)
                       for fn, (expr, what) in zip(constants, fields))
    return MobiAlgebra(carrier, lambda a, b, c: body((a, b, c)),
                       zero, half, one, name=d.name)


def _elab_space(d: SpaceDef, algebras: dict) -> MobiSpace:
    algebra = algebras.get(d.over)
    if algebra is None:
        from . import catalog
        try:
            entry = catalog.get_entry(d.over.replace("_", "-"))
        except KeyError:
            raise DslError("unbound-identifier", d.over_line, d.over_col,
                           f"unknown algebra {d.over!r}")
        if entry.kind != "algebra":
            raise DslError("unbound-identifier", d.over_line, d.over_col,
                           f"{d.over!r} names a catalog {entry.kind}, not an algebra")
        algebra = catalog.build(entry.name)
    points = _elab_carrier(d.carrier)
    shape = points.shape()
    bases = points.atom_names() | algebra.carrier.atom_names()
    env = {}
    left, mid, right = d.op.patterns
    _bind_pattern(left, shape, (0,), env, d.op)
    _bind_pattern(right, shape, (2,), env, d.op)
    env[mid] = (algebra.carrier.shape(), operator.itemgetter(1))
    for par in d.params:
        if par.name in env:
            raise _error("syntax", par,
                         f"param {par.name!r} collides with a pattern name")
        env[par.name] = (SCALAR, _constant(_param_value(par)))
    body = _expect(d.op.body, env, bases, shape, d.op.body,
                   "the body of q does not match the carrier shape")
    return MobiSpace(algebra, points, lambda x, a, y: body((x, a, y)),
                     name=d.name)


def elaborate(items) -> dict:
    """Turn parsed definitions into runtime structures, in file order.

    Algebras elaborate first so a space may name one defined later in
    the same file.
    """
    seen = set()
    for item in items:
        if item.name in seen:
            raise _error("syntax", item, f"duplicate definition {item.name!r}")
        seen.add(item.name)
    algebras = {item.name: _elab_algebra(item)
                for item in items if isinstance(item, AlgebraDef)}
    out = {}
    for item in items:
        if isinstance(item, AlgebraDef):
            out[item.name] = algebras[item.name]
        else:
            out[item.name] = _elab_space(item, algebras)
    return out


def load(text: str) -> dict:
    """Parse and elaborate in one step."""
    return elaborate(parse(text))
