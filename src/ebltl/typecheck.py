"""Static well-formedness checks for parsed machines.

The checker resolves declared types (constant range bounds become ints),
rejects unknown identifiers, enforces distinct parallel-assignment targets,
requires init to assign every variable from variable-free expressions, and
ties the presence of a variant to the presence of anticipated or convergent
events.  The linking clause is only syntax-checked here; its names may
belong to the abstract machine and are resolved by `link_typecheck` once a
refinement pair is assembled.
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


# operators whose left-nested chains are checked in a loop, with the type
# every operand must have (None: the set operators, which join set types)
_CHAINS = {"&": BOOL, "or": BOOL, "+": INT, "-": INT, "*": INT,
           "union": None, "inter": None, "diff": None}


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
        lo, hi = vtype.lo, vtype.hi
        if isinstance(lo, str):
            if lo not in sym.constants:
                raise TypecheckError(f"range bound {lo!r} is not a declared constant", *where)
            lo = sym.constants[lo]
        if isinstance(hi, str):
            if hi not in sym.constants:
                raise TypecheckError(f"range bound {hi!r} is not a declared constant", *where)
            hi = sym.constants[hi]
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

        self.sym = SymbolTable(carrier_elems=carrier_elems, constants=constants,
                               var_types={}, var_names=())

        var_types: dict[str, VarType] = {}
        for name, vtype in m.variables:
            claim(name, "variable")
            var_types[name] = resolve_type(vtype, self.sym)

        self.sym.var_types = var_types
        self.sym.var_names = tuple(sorted(var_types))
        return self.sym

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
            if e.op == "neg":
                self.check(e.operand, INT, env)
                return INT
            self.check(e.operand, BOOL, env)
            return BOOL
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
        if op in _CHAINS:
            # a left-nested chain of one operator, as the parser builds it, is
            # checked in a loop, leftmost operand first, so that its length
            # costs no stack
            chain = [e]
            while isinstance(chain[-1].left, Binary) and chain[-1].left.op == op:
                chain.append(chain[-1].left)
            chain.reverse()
            expected = _CHAINS[op]
            if expected is not None:
                self.check(chain[0].left, expected, env)
                for node in chain:
                    self.check(node.right, expected, env)
                return expected
            t = self.infer(chain[0].left, env)
            for node in chain:
                t1, t2 = t, self.infer(node.right, env)
                t = _unify(t1, t2)
                if t is None or not (isinstance(t, tuple) and t[0] == "set"):
                    self.error(f"set operator over {_fmt(t1)} and {_fmt(t2)}", node)
            return t
        if op in ("=>", "<=>"):
            self.check(e.left, BOOL, env)
            self.check(e.right, BOOL, env)
            return BOOL
        if op in ("<", "<=", ">", ">="):
            self.check(e.left, INT, env)
            self.check(e.right, INT, env)
            return BOOL
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
                if init_mode:
                    for name in free_names(a.expr):
                        if name in self.sym.var_types:
                            self.error("init expressions cannot read variables", a)
                self.check(a.expr, _sem_type(self.sym.var_types[a.target]), env)
            else:  # AnyChoice
                inner_env = self.param_env(a.params, env, set(targets))
                self.check(a.where, BOOL, inner_env)
                if init_mode:
                    for name in free_names(a.where):
                        if name in self.sym.var_types:
                            self.error("init expressions cannot read variables", a)
                self.check_actions(a.actions, inner_env, targets, init_mode)

    def check_event(self, ev: Event, init_mode: bool = False) -> None:
        env = self.param_env(ev.params, base_env(self.sym), set())
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
        env = base_env(self.sym)

        if m.invariant is not None:
            self.check(m.invariant, BOOL, env)
        if m.variant is not None:
            self.check(m.variant, INT, env)

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
    """All identifiers an expression mentions."""
    if isinstance(e, Name):
        return {e.name}
    if isinstance(e, (IntLit, BoolLit)):
        return set()
    if isinstance(e, SetLit):
        out: set[str] = set()
        for item in e.items:
            out |= free_names(item)
        return out
    if isinstance(e, Unary):
        return free_names(e.operand)
    if isinstance(e, Binary):
        return free_names(e.left) | free_names(e.right)
    if isinstance(e, Call):
        out = set()
        for a in e.args:
            out |= free_names(a)
        return out
    if isinstance(e, IfExpr):
        return free_names(e.cond) | free_names(e.then) | free_names(e.orelse)
    raise TypeError(e)


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
    for cname, elems in concrete.carriers:
        for aname, aelems in abstract.carriers:
            if cname == aname and tuple(elems) != tuple(aelems):
                raise TypecheckError(
                    f"carrier {cname!r} differs between {abstract.name} and {concrete.name}")
    for name, value in concrete.constants:
        for aname, avalue in abstract.constants:
            if name == aname and value != avalue:
                raise TypecheckError(
                    f"constant {name!r} differs between {abstract.name} and {concrete.name}")
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
