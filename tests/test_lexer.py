"""The one-pass lexer (`machine_parser.tokenize`) against a reference lexer
kept here: it matches one token at a time from the current position, under
patterns with separate whitespace and comment groups, and counts lines and
columns as it goes.  Both must give the same `(kind, value, line, col)`
stream, or the same `unexpected character` error at the same place, for
every text that the corpus machines and property files and the front-end
error table (`test_frontend_errors.ROWS`) feed the lexer, and a few more."""
from __future__ import annotations

import re

import pytest

from ebltl import formulas, machine_parser
from ebltl.errors import EbltlError, ParseError
from ebltl.formulas import parse_property_file
from ebltl.machine_parser import KEYWORDS, Token, parse_machine_file, tokenize
from ebltl.oracle import corpus_root
from tests.test_frontend_errors import ROWS

MACHINE = re.compile(r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>//[^\n]*)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<int>[0-9]+)
    | (?P<op><=>|:=|\.\.|=>|<=|>=|/=|<:|\\/|/\\|\|\||[\\(){},:=<>+\-*&])
""", re.VERBOSE)
FORMULA = re.compile(r"""
      (?P<ws>\s+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>=>|[!|&()\[\]])
""", re.VERBOSE)


def reference_tokens(text: str, formula: bool, keywords, where: str) -> list[Token]:
    pattern = FORMULA if formula else MACHINE
    out: list[Token] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        m = pattern.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}{where}", line, col)
        kind, value = m.lastgroup, m.group()
        if kind == "name" and value in keywords:
            kind = "kw"
        elif kind == "op":
            kind = value
        if kind not in ("ws", "comment"):
            out.append(Token(kind, value, line, col))
        if "\n" in value:
            line += value.count("\n")
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        i = m.end()
    return out + [Token("eof", "end of input", line, col)]


def one_pass_tokens(text: str, formula: bool, keywords, where: str) -> list[Token]:
    pattern = formulas._FORMULA_TOKEN if formula else machine_parser._TOKEN_RE
    return tokenize(text, pattern, keywords, where)


def outcome(lexer, *args) -> list[tuple]:
    """The `(kind, value, line, col)` stream, or the error and its place."""
    try:
        return [(t.kind, t.value, t.line, t.col) for t in lexer(*args)]
    except ParseError as exc:
        return [("error", str(exc), exc.line, exc.col)]


def lexer_inputs(monkeypatch) -> list[tuple]:
    """`(text, formula, keywords, where)` of every lexer call made while the
    corpus is parsed and the front-end error table runs."""
    seen: list[tuple] = []

    def recording(text, pattern=machine_parser._TOKEN_RE, keywords=KEYWORDS, where=""):
        seen.append((text, pattern is formulas._FORMULA_TOKEN, keywords, where))
        return tokenize(text, pattern, keywords, where)

    monkeypatch.setattr(machine_parser, "tokenize", recording)
    monkeypatch.setattr(formulas, "tokenize", recording)
    root = corpus_root()
    for path in sorted(root.glob("*/*.eb")) + sorted(root.glob("*/mutants/*.eb")):
        parse_machine_file(path)
    for path in sorted(root.glob("*/*.ltl")):
        parse_property_file(path.read_text(encoding="utf-8"))
    for row in ROWS:
        with pytest.raises(EbltlError):
            row[1]()
    return seen


EXTRA = [
    ("", False), ("", True), ("a", False), ("\n\n  x", False), ("x // note", False),
    ("x // note\n\ty\r\n z", False), ("a\n  $", False), ("K = 2 \x0b", False),
    ("n := n+1||m:=0..3", False), ("café", False), ("G [a] => F [b]", True),
    ("[a]\n\n  & ?", True), ("(![a] | [b]) => G F [c]\n", True), ("é", True),
]


def test_one_pass_lexer_matches_the_reference(monkeypatch):
    inputs = lexer_inputs(monkeypatch)
    monkeypatch.undo()
    assert sum(not formula for _, formula, _, _ in inputs) >= 70  # machines and table rows
    assert sum(formula for _, formula, _, _ in inputs) >= 20
    inputs += [(text, formula, () if formula else KEYWORDS,
                " in formula" if formula else "") for text, formula in EXTRA]
    errors = 0
    for text, formula, keywords, where in inputs:
        want = outcome(reference_tokens, text, formula, keywords, where)
        assert outcome(one_pass_tokens, text, formula, keywords, where) == want, text
        errors += want[0][0] == "error"
    assert errors >= 5
