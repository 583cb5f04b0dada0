"""Static well-formedness checks for parsed machines.

The checker resolves declared types (constant range bounds become ints),
rejects unknown identifiers, enforces distinct parallel-assignment targets,
requires init to assign every variable from variable-free expressions, and
ties the presence of a variant to the presence of anticipated or convergent
events.  The linking clause is only syntax-checked here; its names may
belong to the abstract machine and are resolved by `link_typecheck` once a
refinement pair is assembled.

Expression types follow the typing table of docs/language.md.  One table,
`_SHARED_OPERAND`, types every binary operator whose two operands share a
type: the logical connectives, the arithmetic and the integer comparisons,
and the set operators, whose operand types join.
"""
from __future__ import annotations

from .errors import TypecheckError
from .machine_ast import (
    ANTICIPATED, CONVERGENT, Assign, Binary, BoolLit, BoolType,
    Call, ElemType, Event, Expr, IfExpr, IntLit, IntRangeType, Machine, Name,
    Param, SetLit, SetType, SymbolTable, Unary, VarType,
)

INT = "int"
BOOL = "bool"


def _fmt(t) -> str:
    if isinstance(t, tuple):  # ('set'|'elem', carrier-or-None)
        kind, carrier = t
        return f"{kind} of {carrier or '?'}"
    return str(t)


def _sem_type(vtype: VarType):
    if isinstance(vtype, IntRangeType):
        return INT
    if isinstance(vtype, BoolType):
        return BOOL
    if isinstance(vtype, SetType):
        return ("set", vtype.carrier)
    if isinstance(vtype, ElemType):
        return ("elem", vtype.carrier)
    raise TypeError(vtype)


# binary operators whose operands share one type: that type and the result
# type (None, None: the set operators, which join set types)
_SHARED_OPERAND = {
    "&": (BOOL, BOOL), "or": (BOOL, BOOL), "=>": (BOOL, BOOL), "<=>": (BOOL, BOOL),
    "+": (INT, INT), "-": (INT, INT), "*": (INT, INT),
    "<": (INT, BOOL), "<=": (INT, BOOL), ">": (INT, BOOL), ">=": (INT, BOOL),
    "union": (None, None), "inter": (None, None), "diff": (None, None),
}


def _unify(a, b):
    """Join two inferred types; None carrier in a set type is polymorphic."""
    if a == b:
        return a
    if isinstance(a, tuple) and isinstance(b, tuple) and a[0] == b[0] == "set":
        if a[1] is None:
            return b
        if b[1] is None:
            return a
    return None


def resolve_type(vtype: VarType, sym: SymbolTable) -> VarType:
    """A declared type with constant range bounds replaced by their values;
    the one place bounds are resolved, for variables and parameters alike.
    Errors point at the type's position when the parser set one."""
    where = vtype.pos or ()
    if isinstance(vtype, IntRangeType):
        for bound in (vtype.lo, vtype.hi):
            if isinstance(bound, str) and bound not in sym.constants:
                raise TypecheckError(f"range bound {bound!r} is not a declared constant", *where)
        lo, hi = (sym.constants.get(bound, bound) for bound in (vtype.lo, vtype.hi))
        if lo > hi:
            raise TypecheckError(f"empty integer range {lo}..{hi}", *where)
        return IntRangeType(lo, hi)
    if isinstance(vtype, (SetType, ElemType)) and vtype.carrier not in sym.carrier_elems:
        raise TypecheckError(f"unknown carrier {vtype.carrier!r}", *where)
    return vtype


def base_env(sym: SymbolTable) -> dict:
    """Name -> semantic type for every carrier, element, constant and
    variable; types are INT, BOOL, ('elem', c) and ('set', c)."""
    env: dict = {}
    for carrier, elems in sym.carrier_elems.items():
        env[carrier] = ("set", carrier)
        for el in elems:
            env[el] = ("elem", carrier)
    for name in sym.constants:
        env[name] = INT
    for name, vtype in sym.var_types.items():
        env[name] = _sem_type(vtype)
    return env


class _Checker:
    def __init__(self, machine: Machine):
        self.m = machine

    def error(self, message: str, node=None):
        pos = getattr(node, "pos", None)
        if pos:
            raise TypecheckError(message, pos[0], pos[1])
        raise TypecheckError(message)

    # -- declarations -------------------------------------------------------

    def build_symbols(self) -> SymbolTable:
        m = self.m
        carrier_elems: dict[str, tuple[str, ...]] = {}
        taken: dict[str, str] = {}

        def claim(name: str, what: str):
            if name in taken:
                self.error(f"duplicate declaration of {name!r} ({what} vs {taken[name]})", m)
            taken[name] = what

        for cname, elems in m.carriers:
            claim(cname, "carrier")
            if len(set(elems)) != len(elems):
                self.error(f"carrier {cname!r} repeats an element", m)
            carrier_elems[cname] = elems
            for e in elems:
                claim(e, "carrier element")

        constants: dict[str, int] = {}
        for name, value in m.constants:
            claim(name, "constant")
            constants[name] = value

        sym = SymbolTable(carrier_elems=carrier_elems, constants=constants,
                          var_types={}, var_names=())
        for name, vtype in m.variables:
            claim(name, "variable")
            sym.var_types[name] = resolve_type(vtype, sym)
        sym.var_names = tuple(sorted(sym.var_types))
        return sym

    # -- expression typing ----------------------------------------------------

    def infer(self, e: Expr, env: dict):
        if isinstance(e, IntLit):
            return INT
        if isinstance(e, BoolLit):
            return BOOL
        if isinstance(e, Name):
            t = env.get(e.name)
            if t is None:
                self.error(f"unknown identifier {e.name!r}", e)
            return t
        if isinstance(e, SetLit):
            carrier = None
            for item in e.items:
                t = self.infer(item, env)
                if not (isinstance(t, tuple) and t[0] == "elem"):
                    self.error("set literals list carrier elements", item)
                if carrier is None:
                    carrier = t[1]
                elif carrier != t[1]:
                    self.error("set literal mixes carriers", item)
            return ("set", carrier)
        if isinstance(e, Unary):
            t = INT if e.op == "neg" else BOOL
            self.check(e.operand, t, env)
            return t
        if isinstance(e, Binary):
            return self.infer_binary(e, env)
        if isinstance(e, Call):
            if e.fn == "card":
                t = self.infer(e.args[0], env)
                if not (isinstance(t, tuple) and t[0] == "set"):
                    self.error("card expects a set", e)
                return INT
            for a in e.args:
                self.check(a, INT, env)
            return INT
        if isinstance(e, IfExpr):
            self.check(e.cond, BOOL, env)
            t1 = self.infer(e.then, env)
            t2 = self.infer(e.orelse, env)
            t = _unify(t1, t2)
            if t is None:
                self.error(f"if branches disagree: {_fmt(t1)} vs {_fmt(t2)}", e)
            return t
        raise TypeError(e)

    def infer_binary(self, e: Binary, env: dict):
        op = e.op
        if op in _SHARED_OPERAND:
            # a left-nested chain of one operator that gives its operand type,
            # as the parser builds it, is checked in a loop, leftmost operand
            # first, so that its length costs no stack
            operand, result = _SHARED_OPERAND[op]
            chain = [e]
            while (operand == result and isinstance(chain[-1].left, Binary)
                   and chain[-1].left.op == op):
                chain.append(chain[-1].left)
            chain.reverse()
            if operand is not None:
                self.check(chain[0].left, operand, env)
                for node in chain:
                    self.check(node.right, operand, env)
                return result
            t = self.infer(chain[0].left, env)
            for node in chain:
                t1, t2 = t, self.infer(node.right, env)
                t = _unify(t1, t2)
                if t is None or not (isinstance(t, tuple) and t[0] == "set"):
                    self.error(f"set operator over {_fmt(t1)} and {_fmt(t2)}", node)
            return t
        if op in ("=", "/="):
            t1 = self.infer(e.left, env)
            t2 = self.infer(e.right, env)
            if _unify(t1, t2) is None:
                self.error(f"cannot compare {_fmt(t1)} with {_fmt(t2)}", e)
            return BOOL
        if op in ("in", "notin"):
            t1 = self.infer(e.left, env)
            t2 = self.infer(e.right, env)
            if not (isinstance(t1, tuple) and t1[0] == "elem"):
                self.error("left operand of in/notin must be a carrier element", e)
            if _unify(("set", t1[1]), t2) is None:
                self.error(f"membership mixes {_fmt(t1)} with {_fmt(t2)}", e)
            return BOOL
        if op == "<:":
            t1 = self.infer(e.left, env)
            t2 = self.infer(e.right, env)
            if not (isinstance(t1, tuple) and t1[0] == "set") or _unify(t1, t2) is None:
                self.error(f"subset needs two sets over one carrier, got "
                           f"{_fmt(t1)} and {_fmt(t2)}", e)
            return BOOL
        raise TypeError(op)

    def check(self, e: Expr, expected, env: dict) -> None:
        got = self.infer(e, env)
        if _unify(got, expected) is None:
            self.error(f"expected {_fmt(expected)}, got {_fmt(got)}", e)

    # -- events ---------------------------------------------------------------

    def param_env(self, params: tuple[Param, ...], env: dict, seen: set[str]) -> dict:
        extra: dict = {}
        for p in params:
            if p.name in env or p.name in seen or p.name in extra:
                self.error(f"parameter {p.name!r} shadows another name", p)
            resolved = resolve_type(p.ptype, self.sym)
            extra[p.name] = _sem_type(resolved)
        return {**env, **extra}

    def check_actions(self, actions, env: dict, targets: list, init_mode: bool) -> None:
        for a in actions:
            if isinstance(a, Assign):
                if a.target not in self.sym.var_types:
                    self.error(f"assignment to undeclared variable {a.target!r}", a)
                if a.target in targets:
                    self.error(f"parallel assignments both write {a.target!r}", a)
                targets.append(a.target)
                if init_mode and not free_names(a.expr).isdisjoint(self.sym.var_types):
                    self.error("init expressions cannot read variables", a)
                self.check(a.expr, _sem_type(self.sym.var_types[a.target]), env)
            else:  # AnyChoice
                inner_env = self.param_env(a.params, env, set(targets))
                self.check(a.where, BOOL, inner_env)
                if init_mode and not free_names(a.where).isdisjoint(self.sym.var_types):
                    self.error("init expressions cannot read variables", a)
                self.check_actions(a.actions, inner_env, targets, init_mode)

    def check_event(self, ev: Event, init_mode: bool = False) -> None:
        env = self.param_env(ev.params, self.env, set())
        if ev.guard is not None:
            self.check(ev.guard, BOOL, env)
        targets: list[str] = []
        self.check_actions(ev.actions, env, targets, init_mode)
        if init_mode:
            missing = set(self.sym.var_types) - set(targets)
            if missing:
                self.error(f"init does not assign {', '.join(sorted(missing))}", ev)

    # -- whole machine ---------------------------------------------------------

    def run(self) -> None:
        m = self.m
        self.sym = self.build_symbols()
        self.env = base_env(self.sym)

        if m.invariant is not None:
            self.check(m.invariant, BOOL, self.env)
        if m.variant is not None:
            self.check(m.variant, INT, self.env)

        names = [e.name for e in m.events]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            self.error(f"duplicate event name {sorted(dupes)[0]!r}", m)
        if "init" in names:
            self.error("init cannot be redeclared", m)

        self.check_event(m.init, init_mode=True)
        for ev in m.events:
            self.check_event(ev)

        needs_variant = any(e.effective_status in (ANTICIPATED, CONVERGENT)
                            for e in m.events)
        if needs_variant and m.variant is None:
            self.error("machine has anticipated or convergent events but no variant", m)
        if not needs_variant and m.variant is not None:
            self.error("variant given but no event is anticipated or convergent", m)

        m.sym = self.sym


def free_names(e: Expr) -> set[str]:
    """All identifiers an expression mentions: one walk over each node's
    `Expr` fields, and those inside its tuple fields."""
    names: set[str] = set()
    todo = [e]
    while todo:
        node = todo.pop()
        if isinstance(node, Name):
            names.add(node.name)
        elif isinstance(node, Expr):
            for value in vars(node).values():
                todo.extend(value if isinstance(value, tuple) else (value,))
    return names


def typecheck(machine: Machine) -> Machine:
    """Check a parsed machine and attach its resolved symbol table."""
    _Checker(machine).run()
    return machine


def link_typecheck(abstract: Machine, concrete: Machine, linking: Expr | None) -> None:
    """Check a linking invariant over the union of two machines' names.

    Shared carriers, constants and variables must agree between the two
    machines; the linking expression may then mention names from either
    side (this is the one place abstract variables are legal).
    """
    for what, mine, theirs in (
            ("carrier", concrete.sym.carrier_elems, abstract.sym.carrier_elems),
            ("constant", concrete.sym.constants, abstract.sym.constants)):
        for name, value in mine.items():
            if theirs.get(name, value) != value:
                raise TypecheckError(
                    f"{what} {name!r} differs between {abstract.name} and {concrete.name}")
    shared = set(abstract.sym.var_types) & set(concrete.sym.var_types)
    for name in sorted(shared):
        if abstract.sym.var_types[name] != concrete.sym.var_types[name]:
            raise TypecheckError(
                f"shared variable {name!r} has different types in "
                f"{abstract.name} and {concrete.name}")
    if linking is None:
        return
    env = base_env(concrete.sym)
    for name, t in base_env(abstract.sym).items():
        if env.setdefault(name, t) != t:
            raise TypecheckError(
                f"name {name!r} types differently in {abstract.name} and {concrete.name}")
    _Checker(concrete).check(linking, BOOL, env)
