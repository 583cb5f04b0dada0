"""Event-LTL formulas: AST, parser, printer.

The property language speaks about event occurrences only.  Grammar:

    phi ::= "true" | "[" event "]" | "!" phi | "G" phi | "F" phi
          | phi "&" phi | phi "|" phi | phi "U" phi | phi "=>" phi
          | "(" phi ")"

Precedence, loosest first: `=>` (right associative), `|`, `&`, `U`
(right associative), then the prefix operators `!`, `G`, `F`.
Implication is sugar: `a => b` parses to `!a | b`.  There is no next
operator and there are no state propositions.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    event: str


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Finally(Formula):
    operand: Formula


@dataclass(frozen=True)
class Globally(Formula):
    operand: Formula


TRUE = TrueFormula()
FALSE = Not(TRUE)  # the language has no false literal; !true serves


def or_all(parts: list[Formula]) -> Formula:
    """Left-nested disjunction of `parts`; empty list yields !true."""
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


# ---------------------------------------------------------------------------
# printing

_PREC_IMPL, _PREC_OR, _PREC_AND, _PREC_UNTIL, _PREC_UNARY = 1, 2, 3, 4, 5


def formula_to_text(f: Formula, parent: int = 0) -> str:
    """Render with minimal parentheses; reparses to an equal AST.

    A disjunction with a negated left operand prints as the implication it
    desugared from; parsing that implication rebuilds the same tree.
    """
    if isinstance(f, TrueFormula):
        return "true"
    if isinstance(f, Atom):
        return f"[{f.event}]"
    if isinstance(f, Not):
        return "!" + formula_to_text(f.operand, _PREC_UNARY)
    if isinstance(f, Finally):
        return "F " + formula_to_text(f.operand, _PREC_UNARY)
    if isinstance(f, Globally):
        return "G " + formula_to_text(f.operand, _PREC_UNARY)
    if isinstance(f, Until):
        # right associative: parenthesize a left child at the same level
        text = (formula_to_text(f.left, _PREC_UNTIL + 1) + " U "
                + formula_to_text(f.right, _PREC_UNTIL))
        return f"({text})" if parent > _PREC_UNTIL else text
    if isinstance(f, And):
        text = (formula_to_text(f.left, _PREC_AND) + " & "
                + formula_to_text(f.right, _PREC_AND + 1))
        return f"({text})" if parent > _PREC_AND else text
    if isinstance(f, Or):
        if isinstance(f.left, Not):
            text = (formula_to_text(f.left.operand, _PREC_IMPL + 1) + " => "
                    + formula_to_text(f.right, _PREC_IMPL))
            return f"({text})" if parent > _PREC_IMPL else text
        text = (formula_to_text(f.left, _PREC_OR) + " | "
                + formula_to_text(f.right, _PREC_OR + 1))
        return f"({text})" if parent > _PREC_OR else text
    raise TypeError(f)


# ---------------------------------------------------------------------------
# parsing

_FORMULA_TOKEN = re.compile(r"""
      (?P<ws>\s+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>=>|[!|&()\[\]])
""", re.VERBOSE)


def _tokenize(text: str):
    tokens = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = _FORMULA_TOKEN.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r} in formula", line, col)
        if m.lastgroup != "ws":
            tokens.append((m.group(), line, col))
        value = m.group()
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        i = m.end()
    tokens.append(("", line, col))
    return tokens


class _FormulaParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def pos(self):
        _, line, col = self.tokens[self.i]
        return line, col

    def advance(self):
        tok = self.tokens[self.i]
        if tok[0] != "":
            self.i += 1
        return tok[0]

    def expect(self, want: str):
        got, line, col = self.tokens[self.i]
        if got != want:
            shown = got or "end of input"
            raise ParseError(f"unexpected {shown!r}, expected {want!r}", line, col)
        self.advance()

    def parse(self) -> Formula:
        f = self.implies()
        got, line, col = self.tokens[self.i]
        if got != "":
            raise ParseError(f"unexpected {got!r} after formula", line, col)
        return f

    def implies(self) -> Formula:
        left = self.disj()
        if self.peek() == "=>":
            self.advance()
            return Or(Not(left), self.implies())
        return left

    def disj(self) -> Formula:
        left = self.conj()
        while self.peek() == "|":
            self.advance()
            left = Or(left, self.conj())
        return left

    def conj(self) -> Formula:
        left = self.until()
        while self.peek() == "&":
            self.advance()
            left = And(left, self.until())
        return left

    def until(self) -> Formula:
        left = self.unary()
        if self.peek() == "U":
            self.advance()
            return Until(left, self.until())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.advance()
            return Not(self.unary())
        if tok == "G":
            self.advance()
            return Globally(self.unary())
        if tok == "F":
            self.advance()
            return Finally(self.unary())
        if tok == "true":
            self.advance()
            return TRUE
        if tok == "(":
            self.advance()
            inner = self.implies()
            self.expect(")")
            return inner
        if tok == "[":
            self.advance()
            name, line, col = self.tokens[self.i]
            if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name or ""):
                raise ParseError("expected an event name inside [ ]", line, col)
            self.advance()
            self.expect("]")
            return Atom(name)
        line, col = self.pos()
        shown = tok or "end of input"
        raise ParseError(f"unexpected {shown!r} in formula", line, col)


def parse_formula(text: str) -> Formula:
    """Parse a property string.  Raises ParseError on malformed or empty input."""
    if not text or not text.strip():
        raise ParseError("empty formula")
    return _FormulaParser(_tokenize(text)).parse()


def parse_property_file(text: str) -> dict[str, Formula]:
    """Read a `.ltl` file: one formula per line, `#` comments.

    A line may carry an optional label, `name = formula`; unlabeled lines
    get positional names p1, p2, ...
    """
    out: dict[str, Formula] = {}
    counter = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?![=>])(.*)$", line)
        if m and m.group(2).strip():
            name, body = m.group(1), m.group(2)
        else:
            counter += 1
            name, body = f"p{counter}", line
        if name in out:
            raise ParseError(f"duplicate property name {name!r}", lineno, 1)
        try:
            out[name] = parse_formula(body)
        except ParseError as exc:
            raise ParseError(f"in property {name!r}: {exc}", lineno, 1) from exc
    return out
