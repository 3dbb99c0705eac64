"""Text format for recurrence benchmarks (".rec" files).

Grammar (EBNF sketch)::

    file    := header* item+
    header  := KEY ":" VALUE          (one per line, before the first item)
    item    := funcdef | "entry" NAME | "expect" piecewise | "category" NAME
    funcdef := "def" NAME "(" params ")" "pre" bool "{" case+ "}"
    case    := "case" bool "->" expr
    piecewise := ("piece" bool "->" expr)+

Expressions use +, -, *, /, ^, postfix !, floor/ceil/log2/fact/max/min and
function calls; booleans use comparisons with and/or/not/true.  `print_*`
produces canonical text whose reparse is structurally identical, with
rational constants always written as fractions.
"""

from __future__ import annotations

import errno
import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    Add,
    And,
    BoolExpr,
    Call,
    CaseDef,
    Ceil,
    Cmp,
    Const,
    Div,
    EvalError,
    Expr,
    Factorial,
    Floor,
    FuncDef,
    Log2,
    Max,
    Min,
    Mul,
    Not,
    Or,
    Piece,
    PiecewiseClosedForm,
    Pow,
    RecurrenceSystem,
    Sub,
    TRUE,
    TrueExpr,
    Var,
    contains_call,
    eval_bool,
)

FORMAT_VERSION = 1

class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {msg}")


@dataclass
class BenchmarkFile:
    system: RecurrenceSystem
    category: str | None = None
    expect: PiecewiseClosedForm | None = None
    reconstructed: bool = False
    format_version: int = FORMAT_VERSION


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>->|!=|<=|>=|[(){},+\-*/^!=<>:])
""",
    re.VERBOSE,
)

KEYWORDS = {
    "def", "pre", "case", "entry", "expect", "category", "piece",
    "and", "or", "not", "true",
}
FUNC_KEYWORDS = {"floor": Floor, "ceil": Ceil, "log2": Log2, "fact": Factorial}


@dataclass
class Token:
    kind: str  # "number" | "name" | "op" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(tok)
        else:
            tokens.append(Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of file'!r}", t.line, t.col)
        return t

    def error(self, msg: str, tok: Token | None = None):
        t = tok or self.peek()
        raise ParseError(msg, t.line, t.col)

    # -- file structure ----------------------------------------------------
    def parse_file(self) -> BenchmarkFile:
        headers = self._parse_headers()
        funcs: dict[str, FuncDef] = {}
        entry: str | None = None
        expect: PiecewiseClosedForm | None = None
        category: str | None = None
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "def":
                f = self.parse_funcdef()
                if f.name in funcs:
                    self.error(f"duplicate definition of {f.name!r}", t)
                funcs[f.name] = f
            elif t.text == "entry":
                self.next()
                entry = self.next().text
            elif t.text == "category":
                self.next()
                category = self._parse_dashed_name()
            elif t.text == "expect":
                self.next()
                expect = self.parse_piecewise()
            else:
                self.error(f"expected an item, found {t.text!r}")
        if not funcs:
            self.error("file defines no functions")
        if entry is None:
            if len(funcs) == 1:
                entry = next(iter(funcs))
            else:
                self.error("missing entry declaration")
        try:
            system = RecurrenceSystem(funcs, entry)
        except ValueError as exc:
            raise ParseError(str(exc), self.peek().line, 0) from None
        for f in system.functions.values():
            bad = _totality_gap(f)
            if bad is not None:
                raise ParseError(
                    f"{f.name}: no case guard holds at {bad} although the"
                    " precondition does (totality check)",
                    self.peek().line,
                    0,
                )
        return BenchmarkFile(
            system=system,
            category=category,
            expect=expect,
            reconstructed=headers.get("reconstructed", "").lower() == "true",
        )

    def _parse_dashed_name(self) -> str:
        """Names joined by dashes, e.g. "max-heavy" or "format-version"."""
        t = self.next()
        if t.kind != "name":
            self.error("expected a name", t)
        parts = [t.text]
        while self.peek().text == "-" and self.peek(1).kind == "name":
            self.next()
            parts.append(self.next().text)
        return "-".join(parts)

    def _parse_headers(self) -> dict[str, str]:
        headers: dict[str, str] = {}
        while self.peek().kind == "name" and self.peek().text not in KEYWORDS:
            mark = self.i
            key = self._parse_dashed_name()
            if self.peek().text != ":":
                self.i = mark
                break
            self.next()  # ":"
            value = self.next()
            if key == "format-version" and value.text != str(FORMAT_VERSION):
                self.error(f"format-version must be {FORMAT_VERSION}, found {value.text!r}", value)
            headers[key] = value.text
        return headers

    def parse_funcdef(self) -> FuncDef:
        t0 = self.expect("def")
        name = self.next().text
        self.expect("(")
        params: list[str] = []
        while True:
            p = self.next()
            if p.kind != "name":
                self.error("expected parameter name", p)
            params.append(p.text)
            if self.peek().text == ",":
                self.next()
            else:
                break
        self.expect(")")
        self.expect("pre")
        pre = self.parse_bool()
        self.expect("{")
        cases: list[CaseDef] = []
        while self.peek().text == "case":
            self.next()
            guard_tok = self.peek()
            guard = self.parse_bool()
            if contains_call(guard):
                self.error("case guard contains a call", guard_tok)
            self.expect("->")
            body = self.parse_expr()
            cases.append(CaseDef(guard, body))
        self.expect("}")
        try:
            return FuncDef(name, tuple(params), pre, tuple(cases))
        except ValueError as exc:
            raise ParseError(str(exc), t0.line, t0.col) from None

    def parse_piecewise(self) -> PiecewiseClosedForm:
        pieces: list[Piece] = []
        while self.peek().text == "piece":
            self.next()
            dom = self.parse_bool()
            self.expect("->")
            body = self.parse_expr()
            pieces.append(Piece(dom, body, 1.0))
        if not pieces:
            self.error("expected at least one piece")
        return PiecewiseClosedForm(tuple(pieces))

    # -- booleans ------------------------------------------------------------
    def parse_bool(self) -> BoolExpr:
        lhs = self.parse_band()
        while self.peek().text == "or":
            self.next()
            lhs = Or(lhs, self.parse_band())
        return lhs

    def parse_band(self) -> BoolExpr:
        lhs = self.parse_bnot()
        while self.peek().text == "and":
            self.next()
            lhs = And(lhs, self.parse_bnot())
        return lhs

    def parse_bnot(self) -> BoolExpr:
        if self.peek().text == "not":
            self.next()
            return Not(self.parse_bnot())
        return self.parse_batom()

    def parse_batom(self) -> BoolExpr:
        t = self.peek()
        if t.text == "true":
            self.next()
            return TRUE
        if t.text == "(":
            # Could enclose a boolean or be the start of an arithmetic
            # comparison; try the boolean reading first and backtrack.
            mark = self.i
            self.next()
            try:
                inner = self.parse_bool()
                self.expect(")")
                return inner
            except ParseError:
                self.i = mark
        lhs = self.parse_expr()
        op = self.next()
        if op.text not in ("=", "!=", "<", "<=", ">", ">="):
            self.error("expected a comparison operator", op)
        rhs = self.parse_expr()
        return Cmp(op.text, lhs, rhs)

    # -- arithmetic ------------------------------------------------------------
    def parse_expr(self) -> Expr:
        lhs = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.parse_term()
            lhs = Add(lhs, rhs) if op == "+" else Sub(lhs, rhs)
        return lhs

    def parse_term(self) -> Expr:
        lhs = self.parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            rhs = self.parse_unary()
            if op == "/":
                if isinstance(lhs, Const) and isinstance(rhs, Const) and rhs.value != 0:
                    lhs = Const(lhs.value / rhs.value)  # literal fractions stay exact
                else:
                    lhs = Div(lhs, rhs)
            else:
                lhs = Mul(lhs, rhs)
        return lhs

    def parse_unary(self) -> Expr:
        if self.peek().text == "-":
            self.next()
            inner = self.parse_unary()
            if isinstance(inner, Const):
                return Const(-inner.value)
            return Mul(Const(Fraction(-1)), inner)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_postfix()
        if self.peek().text == "^":
            self.next()
            return Pow(base, self.parse_unary())
        return base

    def parse_postfix(self) -> Expr:
        e = self.parse_atom()
        while self.peek().text == "!":
            self.next()
            e = Factorial(e)
        return e

    def parse_atom(self) -> Expr:
        t = self.next()
        if t.kind == "number":
            return Const(Fraction(t.text))
        if t.text == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if t.kind == "name":
            if t.text in ("max", "min"):
                self.expect("(")
                a = self.parse_expr()
                self.expect(",")
                b = self.parse_expr()
                self.expect(")")
                return Max(a, b) if t.text == "max" else Min(a, b)
            if t.text in FUNC_KEYWORDS:
                self.expect("(")
                a = self.parse_expr()
                self.expect(")")
                return FUNC_KEYWORDS[t.text](a)
            if t.text in KEYWORDS:
                self.error(f"unexpected keyword {t.text!r}", t)
            if self.peek().text == "(":
                self.next()
                args = [self.parse_expr()]
                while self.peek().text == ",":
                    self.next()
                    args.append(self.parse_expr())
                self.expect(")")
                return Call(t.text, tuple(args))
            return Var(t.text)
        self.error(f"expected an expression, found {t.text or 'end of file'!r}", t)


def _totality_gap(f: FuncDef):
    """Sampled check that the precondition entails some guard; returns a
    witness tuple when a hole is found (kept solver-free by design).  A
    point where a guard or the precondition fails to evaluate (EvalError)
    is skipped; any other error propagates."""
    rng = random.Random(52)
    pts = list(itertools.product(range(4), repeat=f.arity))
    if f.arity <= 2:
        pts += list(itertools.product(range(9), repeat=f.arity))
    pts += [tuple(rng.randint(0, 30) for _ in range(f.arity)) for _ in range(128)]
    for tup in pts:
        env = dict(zip(f.params, tup))
        try:
            if not eval_bool(f.precondition, env):
                continue
            if not any(eval_bool(c.guard, env) for c in f.cases):
                return tup
        except EvalError:
            continue
    return None


def parse(text: str) -> BenchmarkFile:
    return _Parser(text).parse_file()


def load(path: str) -> BenchmarkFile:
    """Read and parse the `.rec` file at `path`.  Raises OSError when it
    cannot be read (text that is not UTF-8 included) and ParseError when it
    does not parse."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, f"not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    return parse(text)


def parse_expr(text: str) -> Expr:
    p = _Parser(text)
    e = p.parse_expr()
    if p.peek().kind != "eof":
        p.error("trailing input after expression")
    return e


def parse_bool(text: str) -> BoolExpr:
    p = _Parser(text)
    b = p.parse_bool()
    if p.peek().kind != "eof":
        p.error("trailing input after constraint")
    return b


def parse_candidate(text: str) -> PiecewiseClosedForm:
    """Parse either "piece <bool> -> <expr> ..." or a bare expression."""
    stripped = text.strip()
    if stripped.startswith("piece"):
        p = _Parser(text)
        pcf = p.parse_piecewise()
        if p.peek().kind != "eof":
            p.error("trailing input after piecewise form")
        return pcf
    body = parse_expr(text)
    return PiecewiseClosedForm((Piece(TRUE, body, 1.0),))


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_ADD, _MUL, _UNARY, _POW, _POSTFIX, _ATOM = 1, 2, 3, 4, 5, 6


def _fmt_const(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def print_expr(e: Expr) -> str:
    return _pe(e, 0)


def _paren(s: str, level: int, minlevel: int) -> str:
    return f"({s})" if level < minlevel else s


def _pe(e: Expr, minlevel: int) -> str:
    if isinstance(e, Const):
        s = _fmt_const(e.value)
        if e.value.denominator > 1:
            lvl = _MUL  # fractions reparse as literal divisions
        elif e.value < 0:
            lvl = _UNARY
        else:
            lvl = _ATOM
        return _paren(s, lvl, minlevel)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        return _paren(f"{_pe(e.lhs, _ADD)} + {_pe(e.rhs, _MUL)}", _ADD, minlevel)
    if isinstance(e, Sub):
        return _paren(f"{_pe(e.lhs, _ADD)} - {_pe(e.rhs, _MUL)}", _ADD, minlevel)
    if isinstance(e, Mul):
        if isinstance(e.lhs, Const) and e.lhs.value == -1:
            return _paren(f"-{_pe(e.rhs, _UNARY)}", _UNARY, minlevel)
        return _paren(f"{_pe(e.lhs, _MUL)}*{_pe(e.rhs, _UNARY)}", _MUL, minlevel)
    if isinstance(e, Div):
        return _paren(f"{_pe(e.lhs, _MUL)}/{_pe(e.rhs, _UNARY)}", _MUL, minlevel)
    if isinstance(e, Pow):
        return _paren(f"{_pe(e.base, _POSTFIX)}^{_pe(e.exp, _UNARY)}", _POW, minlevel)
    if isinstance(e, Factorial):
        return _paren(f"{_pe(e.arg, _ATOM)}!", _POSTFIX, minlevel)
    if isinstance(e, Floor):
        return f"floor({_pe(e.arg, 0)})"
    if isinstance(e, Ceil):
        return f"ceil({_pe(e.arg, 0)})"
    if isinstance(e, Log2):
        return f"log2({_pe(e.arg, 0)})"
    if isinstance(e, Max):
        return f"max({_pe(e.lhs, 0)}, {_pe(e.rhs, 0)})"
    if isinstance(e, Min):
        return f"min({_pe(e.lhs, 0)}, {_pe(e.rhs, 0)})"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(_pe(a, 0) for a in e.args)})"
    raise TypeError(f"cannot print {type(e).__name__}")


_BOR, _BAND, _BNOT, _BATOM = 1, 2, 3, 4


def print_bool(b: BoolExpr) -> str:
    return _pb(b, 0)


def _pb(b: BoolExpr, minlevel: int) -> str:
    if isinstance(b, TrueExpr):
        return "true"
    if isinstance(b, Cmp):
        return f"{_pe(b.lhs, 0)} {b.op} {_pe(b.rhs, 0)}"
    if isinstance(b, Not):
        return _paren(f"not {_pb(b.arg, _BNOT)}", _BNOT, minlevel)
    if isinstance(b, And):
        return _paren(f"{_pb(b.lhs, _BAND)} and {_pb(b.rhs, _BNOT)}", _BAND, minlevel)
    if isinstance(b, Or):
        return _paren(f"{_pb(b.lhs, _BOR)} or {_pb(b.rhs, _BAND)}", _BOR, minlevel)
    raise TypeError(f"cannot print {type(b).__name__}")


def print_piecewise(pcf: PiecewiseClosedForm) -> str:
    return " ".join(
        f"piece {print_bool(p.domain)} -> {print_expr(p.body)}" for p in pcf.pieces
    )


def print_funcdef(f: FuncDef) -> str:
    lines = [f"def {f.name}({', '.join(f.params)}) pre {print_bool(f.precondition)} {{"]
    for c in f.cases:
        lines.append(f"  case {print_bool(c.guard)} -> {print_expr(c.body)}")
    lines.append("}")
    return "\n".join(lines)


def print_benchmark(bf: BenchmarkFile) -> str:
    """Canonical text; print then parse is the identity on structure."""
    out = [f"format-version: {bf.format_version}"]
    if bf.reconstructed:
        out.append("reconstructed: true")
    if bf.category:
        out.append(f"category {bf.category}")
    for f in bf.system.functions.values():
        out.append(print_funcdef(f))
    out.append(f"entry {bf.system.entry}")
    if bf.expect is not None:
        out.append(f"expect {print_piecewise(bf.expect)}")
    return "\n".join(out) + "\n"
