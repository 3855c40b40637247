"""Expression text format: a small LL(1) grammar and the matching printer.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' nat]
    atom   := rational | family '[' nat ']' | 'hinv' | 'S'
            | 'det' '(' nat ',' nat ')' | '(' expr ')'

with family one of f, g, k, T, R, w, h and rational either an integer or
int/int; there is no 'lam', since coefficients are rational.  Derivative
orders are always bracketed (no primes), which keeps the grammar
unambiguous at any order.  ``print -> parse`` is the identity on
canonical forms.
"""

from __future__ import annotations

from fractions import Fraction

from .cochains import det_expr
from .expr import DEFAULT_ORDER_CAP, DiffExpr, atom_name, check_order_cap, jet, hinv

_JET_FAMILIES = {"f", "g", "k", "T", "R", "w", "h"}


class ExprSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError("expected an integer", start)
        return int(self.text[start:self.pos])

    def name(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos], start


def parse_expr(text: str, cap: int = DEFAULT_ORDER_CAP) -> DiffExpr:
    """Parse text in the module's grammar into a canonical DiffExpr.

    Text outside the grammar, 'lam' and other unknown names included, is an
    ExprSyntaxError carrying the offset; a jet of the result above cap
    raises OrderCapExceeded."""
    sc = _Scanner(text)
    e = _expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise ExprSyntaxError("unexpected trailing input", sc.pos)
    return check_order_cap(e, cap)


def _expr(sc: _Scanner) -> DiffExpr:
    negate = False
    if sc.peek() == "-":
        sc.expect("-")
        negate = True
    acc = _term(sc)
    if negate:
        acc = -acc
    while sc.peek() in ("+", "-"):
        op = sc.peek()
        sc.expect(op)
        rhs = _term(sc)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _term(sc: _Scanner) -> DiffExpr:
    acc = _factor(sc)
    while sc.peek() == "*":
        sc.expect("*")
        acc = acc * _factor(sc)
    return acc


def _factor(sc: _Scanner) -> DiffExpr:
    base = _atom(sc)
    if sc.peek() == "^":
        sc.expect("^")
        sc.skip_ws()
        pos = sc.pos
        n = sc.integer()
        try:
            base = base ** n
        except ValueError as exc:
            raise ExprSyntaxError(str(exc), pos) from None
    return base


def _atom(sc: _Scanner) -> DiffExpr:
    ch = sc.peek()
    if ch == "(":
        sc.expect("(")
        e = _expr(sc)
        sc.expect(")")
        return e
    if ch.isdigit():
        num = sc.integer()
        if sc.peek() == "/":
            sc.expect("/")
            sc.skip_ws()
            pos = sc.pos
            den = sc.integer()
            if den == 0:
                raise ExprSyntaxError("zero denominator", pos)
            return DiffExpr.rational(Fraction(num, den))
        return DiffExpr.rational(num)
    if ch.isalpha():
        word, start = sc.name()
        if word == "hinv":
            return hinv()
        if word == "S":
            from .calculus import schwarzian

            return schwarzian()
        if word == "det":
            sc.expect("(")
            ppos = sc.pos
            p = sc.integer()
            sc.expect(",")
            qpos = sc.pos
            q = sc.integer()
            sc.expect(")")
            if p >= q:
                raise ExprSyntaxError(f"det({p},{q}) needs p < q", ppos if p > q else qpos)
            return det_expr(p, q)
        if word in _JET_FAMILIES:
            sc.expect("[")
            pos = sc.pos
            order = sc.integer()
            sc.expect("]")
            try:
                return jet(word, order)
            except ValueError as exc:
                raise ExprSyntaxError(str(exc), pos) from None
        raise ExprSyntaxError(f"unknown name {word!r}", start)
    raise ExprSyntaxError("expected a factor", sc.pos)


# -- printing ----------------------------------------------------------


def _join(pieces) -> str:
    """(sign, body) pieces as "a - b + c", with no leading '+'; "0" if none."""
    out = " ".join(f"{sign} {body}" for sign, body in pieces)
    return "0" if not out else out[2:] if out[0] == "+" else "-" + out[2:]


def _mono_text(mono) -> str:
    parts = []
    for atom, exp in mono:
        name = atom_name(atom)
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return "*".join(parts)


def to_text(e: DiffExpr) -> str:
    """Deterministic canonical rendering; parse_expr(to_text(e)) == e."""
    pieces = []
    for mono, c in e.terms():
        mono_s = _mono_text(mono)
        mag = abs(c)
        body = str(mag) if not mono_s else mono_s if mag == 1 else f"{mag}*{mono_s}"
        pieces.append(("-" if c < 0 else "+", body))
    return _join(pieces)
