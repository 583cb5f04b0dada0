"""Event-LTL formulas: AST, parser, printer.

The property language speaks about event occurrences only.  Grammar:

    phi ::= "true" | "[" event "]" | "!" phi | "G" phi | "F" phi
          | phi "&" phi | phi "|" phi | phi "U" phi | phi "=>" phi
          | "(" phi ")"

Precedence, loosest first: `=>` (right associative), `|`, `&`, `U`
(right associative), then the prefix operators `!`, `G`, `F`; the parser
and the printer read the binary levels from one table, `_BINARY`.
Implication is sugar: `a => b` parses to `!a | b`.  There is no next
operator and there are no state propositions.

Tokens come from the machine language's lexer, `machine_parser.tokenize`,
run under this module's pattern (names, the operators above, whitespace
between them); the parser reads them through `machine_parser.TokenCursor`.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .machine_parser import TokenCursor, tokenize


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


def _implies(left: Formula, right: Formula) -> Formula:
    return Or(Not(left), right)


# ---------------------------------------------------------------------------
# binary operators, read by the parser and by the printer

# One entry per precedence level, loosest first: its associativity and each
# operator's source text mapped to the builder of its tree.
_BINARY = (
    ("right", {"=>": _implies}),
    ("left", {"|": Or}),
    ("left", {"&": And}),
    ("right", {"U": Until}),
)

# builder -> (level counted from 1, associativity, source text)
_BINARY_OPS = {build: (level, assoc, text)
               for level, (assoc, ops) in enumerate(_BINARY, 1)
               for text, build in ops.items()}


# ---------------------------------------------------------------------------
# printing

def formula_to_text(f: Formula, need: int = 0) -> str:
    """Render with minimal parentheses; reparses to an equal AST.

    A binary operator prints bare when its level is at least `need`, and an
    operand at its operator's own level prints bare on the side its
    operator associates to.  A disjunction with a negated left operand
    prints as the implication it desugared from; parsing that implication
    rebuilds the same tree.
    """
    if isinstance(f, TrueFormula):
        return "true"
    if isinstance(f, Atom):
        return f"[{f.event}]"
    if isinstance(f, Not):
        return "!" + formula_to_text(f.operand, len(_BINARY) + 1)
    if isinstance(f, Finally):
        return "F " + formula_to_text(f.operand, len(_BINARY) + 1)
    if isinstance(f, Globally):
        return "G " + formula_to_text(f.operand, len(_BINARY) + 1)
    if isinstance(f, (Or, And, Until)):
        build, left = type(f), f.left
        if build is Or and isinstance(left, Not):
            build, left = _implies, left.operand
        level, assoc, op = _BINARY_OPS[build]
        left = formula_to_text(left, level if assoc == "left" else level + 1)
        right = formula_to_text(f.right, level if assoc == "right" else level + 1)
        text = f"{left} {op} {right}"
        return f"({text})" if level < need else text
    raise TypeError(f)


# ---------------------------------------------------------------------------
# parsing

_FORMULA_TOKEN = re.compile(r"""
      (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<skip>\s+)
    | (?P<op>=>|[!|&()\[\]])
    | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

_PREFIX = {"!": Not, "G": Globally, "F": Finally}


class _FormulaParser(TokenCursor):
    def parse(self) -> Formula:
        f = self.binary(_BINARY, self.unary, 0)
        if not self.at("eof"):
            raise self.unexpected(" after formula")
        return f

    def node(self, build, left: Formula, right: Formula, t) -> Formula:
        return build(left, right)

    def unary(self) -> Formula:
        op = self.peek().value
        if op in _PREFIX:
            self.advance()
            return _PREFIX[op](self.unary())
        if self.accept("name", "true"):
            return TRUE
        if self.accept("("):
            inner = self.binary(_BINARY, self.unary, 0)
            self.expect(")")
            return inner
        if self.accept("["):
            t = self.peek()
            if t.kind != "name":
                raise ParseError("expected an event name inside [ ]", t.line, t.col)
            self.advance()
            self.expect("]")
            return Atom(t.value)
        raise self.unexpected(" in formula")


def parse_formula(text: str) -> Formula:
    """Parse a property string.  Raises ParseError on malformed or empty input."""
    if not text or not text.strip():
        raise ParseError("empty formula")
    tokens = tokenize(text, _FORMULA_TOKEN, keywords=(), where=" in formula")
    return _FormulaParser(tokens).parse()


def parse_property_file(text: str) -> dict[str, Formula]:
    """Read a `.ltl` file: one formula per line, `#` comments.

    A line may carry an optional label, `name = formula`; unlabeled lines
    get positional names p1, p2, ...
    """
    out: dict[str, Formula] = {}
    counter = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = re.match(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?![=>])(.*)$", line)
        if m and m.group(2).strip():
            name, start = m.group(1), m.start(2)
        else:
            counter += 1
            name, start = f"p{counter}", 0
        if name in out:
            raise ParseError(f"duplicate property name {name!r}", lineno, 1)
        try:
            out[name] = parse_formula(line[start:])
        except ParseError as exc:
            # the body is one line, so its columns shift by where it starts
            raise ParseError(f"in property {name!r}: {exc.detail}",
                             lineno, start + exc.col) from exc
    return out
