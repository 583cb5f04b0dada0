"""AST for the machine specification language.

A machine is a set of typed state variables, an invariant, an optional
natural-number variant, and a list of guarded events.  Events update the
state through parallel assignments and bounded nondeterministic choices.
Everything is finite by declaration: integers carry explicit ranges, sets
and enumeration values draw from declared carrier sets.

Every node carries a source position for error reporting; positions are
excluded from structural equality so that pretty-print/re-parse round
trips compare equal.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from .semantics import CompiledMachine

Pos = tuple[int, int]

ORDINARY = "ordinary"
ANTICIPATED = "anticipated"
CONVERGENT = "convergent"
STATUSES = (ORDINARY, ANTICIPATED, CONVERGENT)


# ---------------------------------------------------------------------------
# declared types

@dataclass(frozen=True)
class IntRangeType:
    lo: Union[int, str]  # literal or constant name, resolved by typecheck
    hi: Union[int, str]
    pos: Optional[Pos] = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"


@dataclass(frozen=True)
class BoolType:
    pos: Optional[Pos] = field(default=None, compare=False)

    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class SetType:
    carrier: str
    pos: Optional[Pos] = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"set of {self.carrier}"


@dataclass(frozen=True)
class ElemType:
    carrier: str
    pos: Optional[Pos] = field(default=None, compare=False)

    def __str__(self) -> str:
        return self.carrier


VarType = Union[IntRangeType, BoolType, SetType, ElemType]


# ---------------------------------------------------------------------------
# expressions

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Name(Expr):
    name: str
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class SetLit(Expr):
    items: tuple[Expr, ...]
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # 'neg' | 'not'
    operand: Expr
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Call(Expr):
    fn: str  # 'card' | 'min' | 'max'
    args: tuple[Expr, ...]
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class IfExpr(Expr):
    cond: Expr
    then: Expr
    orelse: Expr
    pos: Pos = field(default=(0, 0), compare=False)


# ---------------------------------------------------------------------------
# actions and events

@dataclass(frozen=True)
class Param:
    name: str
    ptype: VarType
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Assign:
    target: str
    expr: Expr
    pos: Pos = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class AnyChoice:
    """Bounded nondeterministic block inside an event body.

    All valuations of `params` satisfying `where` are admissible; the inner
    assignments run in parallel with the surrounding ones.
    """

    params: tuple[Param, ...]
    where: Expr
    actions: tuple["Action", ...]
    pos: Pos = field(default=(0, 0), compare=False)


Action = Union[Assign, AnyChoice]


@dataclass(frozen=True)
class Event:
    name: str
    status: Optional[str]  # None when the source carries no status line
    refines: Optional[str]
    params: tuple[Param, ...]
    guard: Optional[Expr]  # None means `true`
    actions: tuple[Action, ...]
    pos: Pos = field(default=(0, 0), compare=False)

    @property
    def effective_status(self) -> str:
        return self.status if self.status is not None else ORDINARY


# ---------------------------------------------------------------------------
# machines

@dataclass
class Machine:
    name: str
    refines: Optional[str]
    carriers: tuple[tuple[str, tuple[str, ...]], ...]
    constants: tuple[tuple[str, int], ...]
    variables: tuple[tuple[str, VarType], ...]
    invariant: Optional[Expr]
    variant: Optional[Expr]
    linking: Optional[Expr]
    init: Event
    events: tuple[Event, ...]  # non-init events, in declaration order
    pos: Pos = field(default=(0, 0), compare=False)
    # populated by the typechecker
    sym: Optional["SymbolTable"] = field(default=None, compare=False, repr=False)
    # built from `sym` on first use by semantics.compile_machine
    compiled: Optional["CompiledMachine"] = field(default=None, compare=False, repr=False)

    def alphabet(self) -> tuple[str, ...]:
        """Event names of the machine, sorted; init is not part of it."""
        return tuple(sorted(e.name for e in self.events))

    def event(self, name: str) -> Event:
        for e in self.events:
            if e.name == name:
                return e
        raise KeyError(name)

    def events_with_status(self, status: str) -> tuple[str, ...]:
        return tuple(sorted(e.name for e in self.events if e.effective_status == status))


@dataclass
class SymbolTable:
    """Resolved view of a machine's declarations (built by typecheck)."""

    carrier_elems: dict[str, tuple[str, ...]]
    constants: dict[str, int]
    var_types: dict[str, VarType]  # IntRangeType bounds resolved to ints
    var_names: tuple[str, ...]  # sorted

    def domain(self, vtype: VarType):
        """All values of a resolved declared type, in canonical order."""
        if isinstance(vtype, IntRangeType):
            return tuple(range(int(vtype.lo), int(vtype.hi) + 1))
        if isinstance(vtype, BoolType):
            return (False, True)
        if isinstance(vtype, ElemType):
            return tuple(sorted(self.carrier_elems[vtype.carrier]))
        if isinstance(vtype, SetType):
            # by size, then in element order, as `combinations` lists them
            elems = sorted(self.carrier_elems[vtype.carrier])
            return tuple(frozenset(subset) for size in range(len(elems) + 1)
                         for subset in combinations(elems, size))
        raise TypeError(f"unknown type {vtype!r}")

    def domain_size(self, vtype: VarType) -> int:
        """`len(self.domain(vtype))`, without building a range or subsets."""
        if isinstance(vtype, IntRangeType):
            return max(0, int(vtype.hi) - int(vtype.lo) + 1)
        if isinstance(vtype, SetType):
            return 1 << len(self.carrier_elems[vtype.carrier])
        return len(self.domain(vtype))


# ---------------------------------------------------------------------------
# binary operators, read by the parser and by the printer

# One entry per precedence level, loosest first: its associativity ("left",
# "right", or None for an operator that does not chain) and each operator's
# source text mapped to its AST op.
BINARY_LEVELS = (
    ("left", {"<=>": "<=>"}),
    ("right", {"=>": "=>"}),
    ("left", {"or": "or"}),
    ("left", {"&": "&"}),
    (None, {"=": "=", "/=": "/=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
            "<:": "<:", "in": "in", "notin": "notin"}),
    ("left", {"\\/": "union", "/\\": "inter", "\\": "diff"}),
    ("left", {"+": "+", "-": "-"}),
    ("left", {"*": "*"}),
)

# AST op -> (level counted from 1, associativity, source text)
_BINARY_OPS = {op: (level, assoc, text)
               for level, (assoc, ops) in enumerate(BINARY_LEVELS, 1)
               for text, op in ops.items()}


# ---------------------------------------------------------------------------
# pretty printing back to concrete syntax

def expr_to_text(e: Expr, need: int = 0) -> str:
    """Render with minimal parentheses; reparses to an equal AST.

    A binary operator prints bare when its level is at least `need`.  An
    operand at its operator's own level is parenthesised unless it is the
    left operand of a left-associative operator.
    """
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, Name):
        return e.name
    if isinstance(e, SetLit):
        return "{ " + ", ".join(expr_to_text(i) for i in e.items) + " }" if e.items else "{}"
    if isinstance(e, Unary):
        inner = expr_to_text(e.operand, len(BINARY_LEVELS) + 1)
        return ("-" + inner) if e.op == "neg" else ("not " + inner)
    if isinstance(e, Binary):
        level, assoc, op = _BINARY_OPS[e.op]
        left = expr_to_text(e.left, level if assoc == "left" else level + 1)
        text = f"{left} {op} {expr_to_text(e.right, level + 1)}"
        return f"({text})" if level < need else text
    if isinstance(e, Call):
        return f"{e.fn}({', '.join(expr_to_text(a) for a in e.args)})"
    if isinstance(e, IfExpr):
        text = (f"if {expr_to_text(e.cond)} then {expr_to_text(e.then)}"
                f" else {expr_to_text(e.orelse)} end")
        return f"({text})" if need > 0 else text
    raise TypeError(f"unknown expression {e!r}")


def _action_to_text(a: Action) -> str:
    if isinstance(a, Assign):
        return f"{a.target} := {expr_to_text(a.expr)}"
    parts = ", ".join(f"{p.name} : {p.ptype}" for p in a.params)
    body = " || ".join(_action_to_text(x) for x in a.actions)
    return f"any {parts} where {expr_to_text(a.where)} then {body} end"


def _event_to_text(e: Event, out: list[str]) -> None:
    header = f"  event {e.name}"
    if e.refines:
        header += f" refines {e.refines}"
    out.append(header)
    if e.status is not None:
        out.append(f"    status {e.status}")
    if e.params:
        parts = ", ".join(f"{p.name} : {p.ptype}" for p in e.params)
        guard = expr_to_text(e.guard) if e.guard is not None else "true"
        out.append(f"    any {parts} where {guard}")
    elif e.guard is not None:
        out.append(f"    when {expr_to_text(e.guard)}")
    body = " || ".join(_action_to_text(a) for a in e.actions)
    out.append(f"    then {body} end")


def machine_to_text(m: Machine) -> str:
    """Render a machine back to concrete syntax; re-parses to an equal AST."""
    out: list[str] = []
    head = f"machine {m.name}"
    if m.refines:
        head += f" refines {m.refines}"
    out.append(head)
    for keyword, lines in (
            ("carriers", [f"{name} = {{ {', '.join(elems)} }}" for name, elems in m.carriers]),
            ("constants", [f"{name} = {value}" for name, value in m.constants]),
            ("variables", [f"{name} : {vtype}" for name, vtype in m.variables]),
            ("invariant", [expr_to_text(e) for e in (m.invariant,) if e is not None]),
            ("variant", [expr_to_text(e) for e in (m.variant,) if e is not None]),
            ("linking", [expr_to_text(e) for e in (m.linking,) if e is not None])):
        if lines:
            out.append(keyword)
            out.extend(f"  {line}" for line in lines)
    out.append("events")
    _event_to_text(m.init, out)
    for e in m.events:
        out.append("")
        _event_to_text(e, out)
    out.append("end")
    return "\n".join(out) + "\n"
