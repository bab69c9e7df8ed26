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

Errors are reported as DslError(kind, line, col, msg) with kind one of
lexical, syntax, unbound-identifier, shape-mismatch, exp-i-misuse.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import MobiAlgebra
from .carriers import (COMPLEX, SCALAR, Float64, GaussianRational,
                       ModularInt, Product, QI, Rational, Restricted)
from .report import EvalError
from .space import MobiSpace

_KEYWORDS = {"algebra", "space", "over", "carrier", "zero", "half", "one",
             "param", "where", "and"}
_BASES = {"Q", "QI", "R64", "Zmod"}
_RESERVED = {"i", "exp"}
_RELOPS = ("<=", ">=", "<", ">", "=")


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

@dataclass
class Token:
    kind: str  # "name" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|<=|>=|[{}(),:=^+\-*/<>]")
_SPACE_RE = re.compile(r"[ \t\r\n]+")


def _lex(text: str) -> list:
    toks = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _SPACE_RE.match(text, pos)
        if m:
            chunk = m.group()
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                col = len(chunk) - chunk.rfind("\n")
            else:
                col += len(chunk)
            pos = m.end()
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise DslError("lexical", line, col,
                           f"unexpected character {text[pos]!r}")
        word = m.group()
        if word[0].isalpha() or word[0] == "_":
            kind = "name"
        elif word[0].isdigit():
            kind = "int"
        else:
            kind = "punct"
        toks.append(Token(kind, word, line, col))
        col += len(word)
        pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# syntax trees

@dataclass
class Num:
    value: int
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class Name:
    text: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class Unary:
    operand: object
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class Bin:
    op: str
    left: object
    right: object
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class Call:
    fn: str
    arg: object
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class Tup:
    items: tuple
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class Compare:
    items: tuple  # n expressions
    ops: tuple  # n-1 relational operators
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class And:
    parts: tuple
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class CarrierAtom:
    base: str  # "Q" | "QI" | "R64" | "Zmod"
    modulus: int | None
    power: int
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class CarrierType:
    atoms: tuple
    where: object | None = None


@dataclass
class ParamDef:
    name: str
    atom: CarrierAtom
    value: Fraction
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class OpDef:
    name: str
    patterns: tuple  # nested tuples of str
    body: object
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class AlgebraDef:
    name: str
    carrier: CarrierType
    zero: object
    half: object
    one: object
    op: OpDef
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass
class SpaceDef:
    name: str
    over: str
    carrier: CarrierType
    params: tuple
    op: OpDef
    over_line: int = field(default=0, compare=False)
    over_col: int = field(default=0, compare=False)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


# ---------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.idx = 0

    def peek(self) -> Token:
        # next() never steps past the final eof token
        return self.toks[self.idx]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.idx += 1
        return tok

    def fail(self, tok: Token, msg: str):
        got = f"{tok.text!r}" if tok.kind != "eof" else "end of input"
        raise DslError("syntax", tok.line, tok.col, f"{msg}, got {got}")

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.kind == "eof":
            self.fail(tok, f"expected {text!r}")
        return self.next()

    def accept(self, text: str) -> bool:
        if self.peek().text == text and self.peek().kind != "eof":
            self.next()
            return True
        return False

    def expect_name(self, what="a name") -> Token:
        tok = self.peek()
        if tok.kind != "name":
            self.fail(tok, f"expected {what}")
        return self.next()

    def ident(self) -> Token:
        tok = self.expect_name("an identifier")
        if tok.text in _KEYWORDS:
            self.fail(tok, f"expected an identifier, keyword {tok.text!r} is reserved")
        if tok.text in _RESERVED:
            self.fail(tok, f"{tok.text!r} is reserved and cannot be defined")
        return tok

    # -- items

    def file(self) -> list:
        items = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "algebra":
                items.append(self.algebra())
            elif tok.text == "space":
                items.append(self.space())
            else:
                self.fail(tok, "expected 'algebra' or 'space'")
        return items

    def algebra(self) -> AlgebraDef:
        kw = self.expect("algebra")
        name = self.ident()
        self.expect("{")
        fields = {}
        op = None
        while not self.accept("}"):
            tok = self.peek()
            if tok.kind == "eof":
                self.fail(tok, "expected '}'")
            if tok.text == "carrier":
                self.next()
                self.expect(":")
                self._set(fields, "carrier", self.carrier_type(), tok)
            elif tok.text in ("zero", "half", "one"):
                self.next()
                self.expect(":")
                self._set(fields, tok.text, self.expr(), tok)
            elif tok.text == "param":
                self.fail(tok, "algebras take no parameters")
            elif tok.kind == "name":
                if op is not None:
                    self.fail(tok, "duplicate operation definition")
                op = self.algebra_op()
            else:
                self.fail(tok, "expected a field")
        self._require(fields, ("carrier", "zero", "half", "one"), kw)
        if op is None:
            self.fail(kw, "algebra needs an operation p(a, b, c) = ...")
        return AlgebraDef(name.text, fields["carrier"], fields["zero"],
                          fields["half"], fields["one"], op,
                          line=kw.line, col=kw.col)

    def space(self) -> SpaceDef:
        kw = self.expect("space")
        name = self.ident()
        self.expect("over")
        over = self.expect_name("an algebra name")
        self.expect("{")
        fields = {}
        params = []
        seen_params = set()
        op = None
        while not self.accept("}"):
            tok = self.peek()
            if tok.kind == "eof":
                self.fail(tok, "expected '}'")
            if tok.text == "carrier":
                self.next()
                self.expect(":")
                self._set(fields, "carrier", self.carrier_type(), tok)
            elif tok.text == "param":
                self.next()
                pname = self.ident()
                if pname.text in seen_params:
                    self.fail(pname, f"duplicate param {pname.text!r}")
                seen_params.add(pname.text)
                self.expect(":")
                atom = self.carrier_atom()
                if atom.power != 1:
                    raise DslError("syntax", atom.line, atom.col,
                                   "params must have a scalar carrier")
                self.expect("=")
                value = self.signed_rational()
                params.append(ParamDef(pname.text, atom, value,
                                       line=pname.line, col=pname.col))
            elif tok.text in ("zero", "half", "one"):
                self.fail(tok, "spaces take no constants")
            elif tok.kind == "name":
                if op is not None:
                    self.fail(tok, "duplicate operation definition")
                op = self.space_op()
            else:
                self.fail(tok, "expected a field")
        self._require(fields, ("carrier",), kw)
        if op is None:
            self.fail(kw, "space needs an operation q(x, a, y) = ...")
        return SpaceDef(name.text, over.text, fields["carrier"], tuple(params),
                        op, over_line=over.line, over_col=over.col,
                        line=kw.line, col=kw.col)

    def _set(self, fields, key, value, tok):
        if key in fields:
            self.fail(tok, f"duplicate field {key!r}")
        fields[key] = value

    def _require(self, fields, keys, tok):
        for key in keys:
            if key not in fields:
                self.fail(tok, f"missing field {key!r}")

    # -- carriers

    def carrier_type(self) -> CarrierType:
        atoms = [self.carrier_atom()]
        while self.peek().text == "x" and self.peek().kind == "name":
            self.next()
            atoms.append(self.carrier_atom())
        where = None
        if self.accept("where"):
            where = self.constraint()
        return CarrierType(tuple(atoms), where)

    def carrier_atom(self) -> CarrierAtom:
        tok = self.expect_name("a carrier (Q, QI, R64, or Zmod(m))")
        if tok.text not in _BASES:
            self.fail(tok, "expected a carrier (Q, QI, R64, or Zmod(m))")
        modulus = None
        if tok.text == "Zmod":
            self.expect("(")
            mtok = self.peek()
            if mtok.kind != "int":
                self.fail(mtok, "expected a modulus")
            self.next()
            modulus = int(mtok.text)
            if modulus < 2:
                raise DslError("syntax", mtok.line, mtok.col,
                               f"modulus must be >= 2, got {modulus}")
            self.expect(")")
        power = 1
        if self.accept("^"):
            ptok = self.peek()
            if ptok.kind != "int":
                self.fail(ptok, "expected an integer power")
            self.next()
            power = int(ptok.text)
            if power < 1:
                raise DslError("syntax", ptok.line, ptok.col,
                               f"power must be >= 1, got {power}")
        return CarrierAtom(tok.text, modulus, power, line=tok.line, col=tok.col)

    def constraint(self):
        parts = [self.comparison()]
        while self.accept("and"):
            parts.append(self.comparison())
        if len(parts) == 1:
            return parts[0]
        return And(tuple(parts), line=parts[0].line, col=parts[0].col)

    def comparison(self) -> Compare:
        items = [self.expr()]
        ops = []
        tok = self.peek()
        if tok.text not in _RELOPS:
            self.fail(tok, "expected a comparison operator")
        while self.peek().text in _RELOPS and self.peek().kind == "punct":
            ops.append(self.next().text)
            items.append(self.expr())
        return Compare(tuple(items), tuple(ops),
                       line=items[0].line, col=items[0].col)

    # -- operations

    def algebra_op(self) -> OpDef:
        name = self.expect_name()
        if name.text != "p":
            self.fail(name, "expected the operation 'p'")
        self.expect("(")
        args = [self.ident()]
        while self.accept(","):
            args.append(self.ident())
        self.expect(")")
        if len(args) != 3:
            self.fail(name, f"p takes exactly 3 arguments, got {len(args)}")
        seen = set()
        for arg in args:
            if arg.text in seen:
                self.fail(arg, f"duplicate argument {arg.text!r}")
            seen.add(arg.text)
        self.expect("=")
        body = self.expr()
        return OpDef("p", tuple(a.text for a in args), body,
                     line=name.line, col=name.col)

    def space_op(self) -> OpDef:
        name = self.expect_name()
        if name.text != "q":
            self.fail(name, "expected the operation 'q'")
        self.expect("(")
        left = self.pattern()
        self.expect(",")
        mid = self.ident()
        self.expect(",")
        right = self.pattern()
        self.expect(")")
        self._check_pattern_names(left, mid.text, right, name)
        self.expect("=")
        body = self.expr()
        return OpDef("q", (left, mid.text, right), body,
                     line=name.line, col=name.col)

    def pattern(self):
        if self.accept("("):
            parts = [self.pattern()]
            while self.accept(","):
                parts.append(self.pattern())
            self.expect(")")
            if len(parts) == 1:
                return parts[0]
            return tuple(parts)
        return self.ident().text

    def _check_pattern_names(self, left, mid, right, tok):
        seen = set()

        def walk(pat):
            if isinstance(pat, str):
                if pat in seen:
                    self.fail(tok, f"duplicate pattern name {pat!r}")
                seen.add(pat)
            else:
                for part in pat:
                    walk(part)

        walk(left)
        walk(mid)
        walk(right)

    def signed_rational(self) -> Fraction:
        negative = self.accept("-")
        tok = self.peek()
        if tok.kind != "int":
            self.fail(tok, "expected a rational literal")
        self.next()
        num = int(tok.text)
        den = 1
        if self.accept("/"):
            dtok = self.peek()
            if dtok.kind != "int":
                self.fail(dtok, "expected a denominator")
            self.next()
            den = int(dtok.text)
            if den == 0:
                raise DslError("syntax", dtok.line, dtok.col,
                               "denominator cannot be zero")
        value = Fraction(num, den)
        return -value if negative else value

    # -- expressions; precedence ^ above unary - above * / above + -

    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-") and self.peek().kind == "punct":
            op = self.next()
            right = self.term()
            node = Bin(op.text, node, right, line=op.line, col=op.col)
        return node

    def term(self):
        node = self.unary()
        while self.peek().text in ("*", "/") and self.peek().kind == "punct":
            op = self.next()
            right = self.unary()
            node = Bin(op.text, node, right, line=op.line, col=op.col)
        return node

    def unary(self):
        tok = self.peek()
        if tok.text == "-" and tok.kind == "punct":
            self.next()
            return Unary(self.unary(), line=tok.line, col=tok.col)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek().text == "^" and self.peek().kind == "punct":
            op = self.next()
            etok = self.peek()
            if etok.kind != "int":
                self.fail(etok, "expected a nonnegative integer exponent")
            self.next()
            node = Bin("^", node, Num(int(etok.text), line=etok.line,
                                      col=etok.col),
                       line=op.line, col=op.col)
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Num(int(tok.text), line=tok.line, col=tok.col)
        if tok.kind == "name":
            if tok.text in _KEYWORDS:
                self.fail(tok, "expected an expression")
            self.next()
            if tok.text == "exp":
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call("exp", arg, line=tok.line, col=tok.col)
            return Name(tok.text, line=tok.line, col=tok.col)
        if tok.text == "(":
            self.next()
            items = [self.expr()]
            while self.accept(","):
                items.append(self.expr())
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return Tup(tuple(items), line=tok.line, col=tok.col)
        self.fail(tok, "expected an expression")


def parse(text: str) -> list:
    """Parse a definition file into a list of AlgebraDef / SpaceDef."""
    return _Parser(_lex(text)).file()


def parse_value(text: str):
    """Parse a standalone literal expression like '(1/2, -3)' or '1 - i'."""
    parser = _Parser(_lex(text))
    expr = parser.expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise DslError("syntax", tok.line, tok.col,
                       f"unexpected {tok.text!r} after the expression")
    _, value = _compile(expr, {}, _BASES)
    return value(())


# ---------------------------------------------------------------------------
# printing

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _fmt(e, level=0) -> str:
    if isinstance(e, Num):
        return str(e.value)
    if isinstance(e, Name):
        return e.text
    if isinstance(e, Call):
        return f"{e.fn}({_fmt(e.arg)})"
    if isinstance(e, Unary):
        inner = _fmt(e.operand, 3)
        text = f"-{inner}"
        return f"({text})" if level > 3 else text
    if isinstance(e, Bin):
        mine = _LEVEL[e.op]
        left = _fmt(e.left, mine)
        right = _fmt(e.right, mine + 1)
        glue = e.op if e.op in ("*", "/", "^") else f" {e.op} "
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

_RELATIONS = {"<=": operator.le, "<": operator.lt, "=": operator.eq,
              ">=": operator.ge, ">": operator.gt}


def _atom_carrier(atom: CarrierAtom):
    if atom.base == "Q":
        base = Rational()
    elif atom.base == "QI":
        base = GaussianRational()
    elif atom.base == "R64":
        base = Float64()
    else:
        base = ModularInt(atom.modulus)
    if atom.power == 1:
        return base
    return Product((base,) * atom.power)


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


def _compile(e, env: dict, bases):
    """(shape, fn) of e, raising DslError on static problems."""
    if isinstance(e, Num):
        return SCALAR, _constant(e.value)
    if isinstance(e, Name):
        if e.text == "i":
            if "QI" not in bases:
                raise DslError("exp-i-misuse", e.line, e.col,
                               "'i' requires a QI carrier")
            return COMPLEX, _constant(QI(0, 1))
        if e.text == "exp":
            raise DslError("exp-i-misuse", e.line, e.col,
                           "'exp' is a function; write exp(...)")
        if e.text not in env:
            raise DslError("unbound-identifier", e.line, e.col,
                           f"unbound identifier {e.text!r}")
        return env[e.text]
    if isinstance(e, Call):
        if e.fn != "exp":
            raise DslError("unbound-identifier", e.line, e.col,
                           f"unknown function {e.fn!r}")
        if "R64" not in bases:
            raise DslError("exp-i-misuse", e.line, e.col,
                           "'exp' requires an R64 carrier")
        shape, arg = _scalar(e.arg, env, bases, e, "exp needs a scalar argument")
        if shape == COMPLEX:
            raise DslError("exp-i-misuse", e.line, e.col,
                           "exp needs a real argument")

        def exp(args):
            value = arg(args)
            try:
                return math.exp(float(value))
            except OverflowError:
                raise EvalError(f"exp overflow at {value!r}")

        return SCALAR, exp
    if isinstance(e, Unary):
        shape, operand = _scalar(e.operand, env, bases, e,
                                 "unary '-' needs a scalar operand")
        return shape, lambda args: -operand(args)
    if isinstance(e, Bin):
        msg = f"operator {e.op!r} needs scalar operands"
        shape, left = _scalar(e.left, env, bases, e, msg)
        right_shape, right = _scalar(e.right, env, bases, e, msg)
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

        def divide(args):
            a, b = left(args), right(args)
            if isinstance(a, int) and isinstance(b, int):
                return Fraction(a, b)
            return a / b

        return shape, divide
    if isinstance(e, Tup):
        shapes, fns = zip(*(_compile(x, env, bases) for x in e.items))
        return shapes, lambda args: tuple([fn(args) for fn in fns])
    if isinstance(e, Compare):
        shapes, fns = zip(*(_scalar(item, env, bases, item,
                                    "comparisons need scalar operands")
                            for item in e.items))
        for k, op in enumerate(e.ops):
            if op != "=" and COMPLEX in shapes[k:k + 2]:
                at = e.items[k if shapes[k] == COMPLEX else k + 1]
                raise DslError("shape-mismatch", at.line, at.col,
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
        fns = [_compile(part, env, bases)[1] for part in e.parts]
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
        raise DslError("shape-mismatch", at.line, at.col, msg)
    return fn


def _scalar(e, env: dict, bases, at, msg: str):
    """(shape, fn) of e, which must be a scalar, else a shape-mismatch at `at`."""
    shape, fn = _compile(e, env, bases)
    if isinstance(shape, tuple):
        raise DslError("shape-mismatch", at.line, at.col, msg)
    return shape, fn


def _bind_pattern(pattern, shape, path: tuple, env: dict, op: OpDef):
    """Bind pattern names to their shapes and index paths; the pattern must
    match the shape."""
    if isinstance(pattern, str):
        env[pattern] = (shape, _path(path))
        return
    if not isinstance(shape, tuple) or len(shape) != len(pattern):
        raise DslError("shape-mismatch", op.line, op.col,
                       "pattern does not match the carrier shape")
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
        raise DslError("syntax", par.line, par.col,
                       f"param {par.name!r} needs an integer value")
    return int(par.value)


def _elab_algebra(d: AlgebraDef) -> MobiAlgebra:
    carrier = _elab_carrier(d.carrier)
    shape = carrier.shape()
    bases = carrier.atom_names()
    constants = [_expect(expr, {}, bases, shape, expr,
                         f"{what} does not match the carrier shape")
                 for expr, what in ((d.zero, "zero"), (d.half, "half"),
                                    (d.one, "one"))]
    env = {name: (shape, operator.itemgetter(k))
           for k, name in enumerate(d.op.patterns)}
    body = _expect(d.op.body, env, bases, shape, d.op.body,
                   "the body of p does not match the carrier shape")
    zero, half, one = (fn(()) for fn in constants)
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
            raise DslError("syntax", par.line, par.col,
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
            raise DslError("syntax", item.line, item.col,
                           f"duplicate definition {item.name!r}")
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
