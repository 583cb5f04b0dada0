"""Lexer and recursive-descent parser for the machine language.

Concrete syntax, one machine per file (`.eb`):

    machine NAME [refines NAME]
    [carriers    NAME = { elem, ... } ...]
    [constants   NAME = INT ...]
    [variables   NAME : TYPE ...]
    [invariant   EXPR]
    [variant     EXPR]
    [linking     EXPR]
    events
      event init then ACTIONS end
      event NAME [refines NAME]
        [status ordinary|anticipated|convergent]
        [when EXPR | any NAME : TYPE, ... where EXPR]
        then ACTIONS end
      ...
    end

TYPE is `bool`, `set of CARRIER`, a carrier name (enumeration value), or an
integer range `LO..HI` whose bounds are literals or declared constants.
ACTIONS are `target := expr` assignments joined with `||`, or bounded
choice blocks `any x : TYPE where EXPR then ACTIONS end`.  Boolean
connectives are `&`, `or`, `not`, `=>`, `<=>`; set operators are `\\/`,
`/\\`, `\\`, `<:`, `in`, `notin`.  Their precedence and associativity
are `machine_ast.BINARY_LEVELS`.  Comments run from `//` to end of line.

`tokenize` and `TokenCursor` are the lexer and the token cursor of both
input languages: this module runs `tokenize` under the machine pattern and
`KEYWORDS`, `formulas` under its own pattern and no keywords.  Both parse
binary operators with `TokenCursor.binary` over their own level table.
The machine parser reads every separated list (carrier elements,
parameters, call arguments, set literals and `||` actions) with one helper,
`items`, and the `carriers`, `constants` and `variables` blocks with
another, `section`.

`parse_machine` also runs the typechecker, so a returned Machine is
well-formed except for its `linking` clause, which can only be checked
once the abstract machine is known.
"""
from __future__ import annotations

import re

from .errors import ParseError
from .machine_ast import (
    BINARY_LEVELS, STATUSES, Assign, AnyChoice, Binary, BoolLit, BoolType,
    Call, ElemType, Event, Expr, IfExpr, IntLit, IntRangeType, Machine, Name,
    Param, SetLit, SetType, Unary, VarType,
)
from .typecheck import typecheck

KEYWORDS = {
    "machine", "refines", "carriers", "constants", "variables", "invariant",
    "variant", "linking", "events", "event", "status", "ordinary",
    "anticipated", "convergent", "any", "where", "when", "then", "end",
    "bool", "set", "of", "in", "notin", "or", "not", "if", "else",
    "true", "false", "card", "min", "max",
}

_TOKEN_RE = re.compile(r"""
      (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<skip>[ \t\r\n]+|//[^\n]*)
    | (?P<int>[0-9]+)
    | (?P<op><=>|:=|\.\.|=>|<=|>=|/=|<:|\\/|/\\|\|\||[\\(){},:=<>+\-*&])
    | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.kind = kind  # 'name' | 'int' | 'kw' | operator text | 'eof'
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind!r}, {self.value!r}, {self.line}:{self.col})"


def tokenize(text: str, pattern: re.Pattern = _TOKEN_RE,
             keywords=KEYWORDS, where: str = "") -> list[Token]:
    """Split `text` into tokens in one `finditer` pass under `pattern`,
    whose named groups are the token kinds and match every character:
    `skip` matches (whitespace and comments) are dropped, an `op` match is
    its own kind, a `name` in `keywords` is a `kw`, and a `bad` character
    raises ParseError, its message ended by `where`.  The list ends with an
    `eof` token."""
    tokens: list[Token] = []
    line, begins = 1, 0  # begins: where the current line starts
    for m in pattern.finditer(text):
        kind, value, col = m.lastgroup, m.group(), m.start() - begins + 1
        if kind == "skip":
            if "\n" in value:
                line += value.count("\n")
                begins = m.start() + value.rfind("\n") + 1
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}{where}", line, col)
        if kind == "name" and value in keywords:
            kind = "kw"
        elif kind == "op":
            kind = value
        tokens.append(Token(kind, value, line, col))
    tokens.append(Token("eof", "end of input", line, len(text) - begins + 1))
    return tokens


class TokenCursor:
    """Reads a token list front to back; the machine and formula parsers
    both read through it.  `advance` never moves past the `eof` token."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def at(self, kind: str, value: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (value is None or t.value == value)

    def advance(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        if self.at(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        if not self.at(kind, value):
            want = "end of input" if kind == "eof" else repr(value or kind)
            raise self.unexpected(f", expected {want}")
        return self.advance()

    def expect_name(self, what: str) -> Token:
        if not self.at("name"):
            raise self.unexpected(f", expected {what}")
        return self.advance()

    def unexpected(self, rest: str) -> ParseError:
        """The error naming the next token, then `rest`, at its position."""
        t = self.peek()
        return ParseError(f"unexpected {t.value!r}{rest}", t.line, t.col)

    def binary(self, levels, operand, level: int):
        """Parse `levels[level:]` of a binary operator table such as
        `machine_ast.BINARY_LEVELS`, whose leaves `operand()` parses.

        An operator is a token whose value is a key of its level's map; the
        subclass's `node(op, left, right, token)` builds the tree from the
        mapped value; a level that does not chain (the comparisons) rejects
        a second operator.  The last level calls `operand` directly, so each
        nesting level costs one frame per table level and no more.
        """
        assoc, ops = levels[level]
        last = level + 1 == len(levels)
        left = operand() if last else self.binary(levels, operand, level + 1)
        while self.peek().value in ops:
            t = self.advance()
            if assoc == "right":
                right = self.binary(levels, operand, level)
            else:
                right = operand() if last else self.binary(levels, operand, level + 1)
            left = self.node(ops[t.value], left, right, t)
            if assoc is None and self.peek().value in ops:
                raise self.unexpected(": comparisons do not chain; parenthesise one side")
        return left


class _Parser(TokenCursor):
    # -- machine structure -------------------------------------------------

    def machine(self) -> Machine:
        head = self.expect("kw", "machine")
        name = self.expect_name("machine name").value
        refines = None
        if self.accept("kw", "refines"):
            refines = self.expect_name("abstract machine name").value

        carriers = self.section("carriers", "=", self.carrier)
        constants = self.section("constants", "=", lambda: int(self.expect("int").value))
        variables = self.section("variables", ":", self.var_type)
        invariant = self.expr() if self.accept("kw", "invariant") else None
        variant = self.expr() if self.accept("kw", "variant") else None
        linking = self.expr() if self.accept("kw", "linking") else None

        self.expect("kw", "events")
        init = None
        events: list[Event] = []
        while self.at("kw", "event"):
            ev = self.event()
            if ev.name == "init":
                if init is not None:
                    raise ParseError("duplicate init event", ev.pos[0], ev.pos[1])
                init = ev
            else:
                events.append(ev)
        if init is None:
            t = self.peek()
            raise ParseError("machine has no init event", t.line, t.col)
        self.expect("kw", "end")
        self.expect("eof")

        return Machine(
            name=name, refines=refines, carriers=carriers,
            constants=constants, variables=variables,
            invariant=invariant, variant=variant, linking=linking,
            init=init, events=tuple(events), pos=(head.line, head.col),
        )

    def items(self, item, sep: str = ",") -> tuple:
        """One or more `item()`s, separated by `sep` tokens."""
        out = [item()]
        while self.accept(sep):
            out.append(item())
        return tuple(out)

    def section(self, keyword: str, sep: str, value) -> tuple:
        """The `NAME sep value()` entries of a `keyword` block, read while a
        name comes next; none when the block is absent."""
        entries = []
        if self.accept("kw", keyword):
            while self.at("name"):
                name = self.advance().value
                self.expect(sep)
                entries.append((name, value()))
        return tuple(entries)

    def carrier(self) -> tuple[str, ...]:
        self.expect("{")
        elems = self.items(lambda: self.expect_name("carrier element").value)
        self.expect("}")
        return elems

    def var_type(self) -> VarType:
        t = self.peek()
        pos = (t.line, t.col)
        if self.accept("kw", "bool"):
            return BoolType(pos)
        if self.accept("kw", "set"):
            self.expect("kw", "of")
            return SetType(self.expect_name("carrier name").value, pos)
        if t.kind == "int":
            lo = int(self.advance().value)
            self.expect("..")
            return IntRangeType(lo, self.range_bound(), pos)
        if t.kind == "name":
            name = self.advance().value
            if self.accept(".."):
                return IntRangeType(name, self.range_bound(), pos)
            return ElemType(name, pos)
        raise self.unexpected(", expected a type")

    def range_bound(self) -> int | str:
        t = self.peek()
        if t.kind == "int":
            return int(self.advance().value)
        if t.kind == "name":
            return self.advance().value
        raise self.unexpected(", expected a range bound")

    def event(self) -> Event:
        head = self.expect("kw", "event")
        name = self.expect_name("event name").value
        refines = None
        if self.accept("kw", "refines"):
            refines = self.expect_name("abstract event name").value
        status = None
        if self.accept("kw", "status"):
            t = self.peek()
            if t.kind != "kw" or t.value not in STATUSES:
                raise self.unexpected(f", expected one of {', '.join(STATUSES)}")
            status = self.advance().value

        params: tuple[Param, ...] = ()
        guard: Expr | None = None
        if self.accept("kw", "any"):
            params = self.items(self.param)
            self.expect("kw", "where")
            guard = self.expr()
        elif self.accept("kw", "when"):
            guard = self.expr()

        if name == "init" and (refines or status or params or guard is not None):
            raise ParseError("init takes no refines, status, parameters or guard",
                             head.line, head.col)

        self.expect("kw", "then")
        actions = self.items(self.action, "||")
        self.expect("kw", "end")
        return Event(name=name, status=status, refines=refines, params=params,
                     guard=guard, actions=actions, pos=(head.line, head.col))

    def param(self) -> Param:
        t = self.expect_name("parameter name")
        self.expect(":")
        return Param(t.value, self.var_type(), (t.line, t.col))

    def action(self):
        if self.at("kw", "any"):
            head = self.advance()
            params = self.items(self.param)
            self.expect("kw", "where")
            where = self.expr()
            self.expect("kw", "then")
            inner = self.items(self.action, "||")
            self.expect("kw", "end")
            return AnyChoice(params, where, inner, (head.line, head.col))
        t = self.expect_name("assignment target")
        self.expect(":=")
        return Assign(t.value, self.expr(), (t.line, t.col))

    # -- expressions -------------------------------------------------------

    def expr(self) -> Expr:
        return self.binary(BINARY_LEVELS, self.atom, 0)

    def node(self, op: str, left: Expr, right: Expr, t: Token) -> Expr:
        return Binary(op, left, right, (t.line, t.col))

    def atom(self) -> Expr:
        t = self.peek()
        pos = (t.line, t.col)
        if t.kind == "int":
            self.advance()
            return IntLit(int(t.value), pos)
        if self.accept("kw", "true"):
            return BoolLit(True, pos)
        if self.accept("kw", "false"):
            return BoolLit(False, pos)
        if self.accept("-"):
            return Unary("neg", self.atom(), pos)
        if self.accept("kw", "not"):
            return Unary("not", self.atom(), pos)
        if t.kind == "kw" and t.value in ("card", "min", "max"):
            self.advance()
            self.expect("(")
            args = self.items(self.expr)
            self.expect(")")
            want = 1 if t.value == "card" else 2
            if len(args) != want:
                raise ParseError(f"{t.value} takes {want} argument(s)", t.line, t.col)
            return Call(t.value, args, pos)
        if self.accept("kw", "if"):
            cond = self.expr()
            self.expect("kw", "then")
            then = self.expr()
            self.expect("kw", "else")
            orelse = self.expr()
            self.expect("kw", "end")
            return IfExpr(cond, then, orelse, pos)
        if self.accept("("):
            inner = self.expr()
            self.expect(")")
            return inner
        if self.accept("{"):
            items = () if self.at("}") else self.items(self.expr)
            self.expect("}")
            return SetLit(items, pos)
        if t.kind == "name":
            self.advance()
            return Name(t.value, pos)
        raise self.unexpected(" in expression")


def parse_expression(text: str):
    """Parse a standalone expression (used for linking invariants given as
    strings in chain manifests)."""
    parser = _Parser(tokenize(text))
    expr = parser.expr()
    parser.expect("eof")
    return expr


def parse_machine(text: str,
                  constant_overrides: dict[str, int] | None = None) -> Machine:
    """Parse and typecheck a machine source.

    Raises ParseError or TypecheckError with positions.  The linking clause
    is parsed but deferred: names it mentions may live in the abstract
    machine, which is only known once a refinement pair is assembled.
    `constant_overrides` replaces declared constant values by name (names
    the machine does not declare are ignored, so one override set can be
    applied across a whole chain).
    """
    machine = _Parser(tokenize(text)).machine()
    if constant_overrides:
        machine.constants = tuple(
            (name, constant_overrides.get(name, value))
            for name, value in machine.constants)
    typecheck(machine)
    return machine


def parse_machine_file(path, constant_overrides: dict[str, int] | None = None) -> Machine:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_machine(fh.read(), constant_overrides)
