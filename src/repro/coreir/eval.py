"""A lazy (call-by-need) evaluator for the core IR: core compiled to
Python closures once, then run with the paper's §9 operation counters.

Why an evaluator with counters: the paper's evaluation (section 9) is
about the *relative* run-time costs of dictionary passing — "the extra
level of indirection when dispatching a method function and the time
and space required to propagate dictionaries".  We cannot re-run the
Yale Haskell backend, so the evaluator charges a uniform cost model and
counts exactly the operations the paper talks about:

* ``dict_constructions`` — evaluations of :class:`CDict` nodes (one
  per dictionary tuple built at run time);
* ``dict_selections``   — evaluations of dictionary :class:`CSel`
  nodes (the "reference to a tuple element" in method dispatch);
* ``tuple_selections``  — evaluations of the other :class:`CSel` nodes;
* ``fun_calls``         — closure bodies entered;
* ``prim_calls``        — primitive applications;
* ``steps``             — one per core node evaluated (a
  machine-independent time proxy): a node reached in tail position of
  another counts too, an argument that needs no suspension (a
  variable, a literal, a nullary constructor) does not;
* ``allocations``       — thunks (every ``let`` binding and every
  argument that is not a variable or a constant), tuples, dictionaries
  and saturated constructor applications;
* ``max_stack``         — the deepest nesting of evaluations: one level
  per thunk forced, per case scrutinee, per application head, per
  selection operand and per closure body entered with arguments left
  over.  ``max_depth`` bounds the same depth (``eval_depth_limit``).

Laziness is the default; ``call_by_need=False`` gives call-by-name
(no thunk memoisation), the "implementation that is not fully lazy"
whose repeated dictionary construction section 8.8 warns about.

**Closures, compiled once.**  Each core expression is compiled into
nested Python functions the first time it runs, and the code stays
with the :class:`Evaluator` (the compile server's pooled evaluators
keep it across requests):

* a local variable resolves at compile time to a (depth, slot)
  position in list frames ``[parent, slot1, slot2, ...]``; the
  top-level bindings form the outermost frame, so a global is a slot
  in it too;
* lambda bodies, case alternatives and suspended expressions (thunk
  code) compile lazily, on first entry, so a run pays only for the
  code it reaches;
* a chain of nested ``let``s runs as one node with one frame;
* an application whose head evaluates to a closure or primitive of
  exactly the arity supplied enters it directly, without the general
  partial/over-application path (:func:`_apply`);
* a tail position — a ``let`` or ``case`` body, a saturated call —
  returns ``(code, frame)`` to the nearest enclosing evaluation, which
  loops, so tail calls run in constant Python stack and an
  interpreted level costs about three Python frames.

Every counter is charged where the code for the node it describes
runs, in the order a node-by-node interpreter would charge it (where
one piece of code stands for several nodes it adds their steps at
once, and replays them one by one only when that crosses the step
limit); the goldens in ``tests/golden/eval_stats.json`` pin the
counts, errors and step-limit verdicts over a corpus.  Closures and
not generated Python source: CPython's ``compile()`` costs about
21 µs per core node against about 2 µs to build closures, and a
request runs a small part of the program it compiles.

A thunk is a two-slot list: ``[code, frame]`` while suspended,
``[None, value]`` once evaluated (under call-by-need), with
``_blackhole`` in the code slot while it is being forced — a list is
several times cheaper to allocate than an instance, and thunks are the
most frequent allocation.  Compiled code reaches counters and limits
through a :class:`Runtime` and never refers to the evaluator or its
top-level frame; a dropped evaluator empties that frame, so its code
and values are freed by reference counting, not left to the cycle
collector.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import EvalError, ResourceLimitError
from repro.limits import DEFAULT_EVAL_DEPTH
from repro.coreir.syntax import (
    CApp,
    CCase,
    CCon,
    CDict,
    CLam,
    CLet,
    CLit,
    CoreExpr,
    CoreProgram,
    CSel,
    CTuple,
    CVar,
)


# --------------------------------------------------------------------------
# Values
# --------------------------------------------------------------------------

class Value:
    __slots__ = ()


class VInt(Value):
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"VInt({self.value})"


class VFloat(Value):
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"VFloat({self.value})"


class VChar(Value):
    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"VChar({self.value!r})"


class VCon(Value):
    """A saturated data constructor; ``args`` are thunks or values."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: List[Any]) -> None:
        self.name = name
        self.args = args

    def __repr__(self) -> str:
        return f"VCon({self.name}, {len(self.args)} args)"


class VTuple(Value):
    __slots__ = ("items",)

    def __init__(self, items: List[Any]) -> None:
        self.items = items

    def __repr__(self) -> str:
        return f"VTuple({len(self.items)})"


class VDict(VTuple):
    """A dictionary: operationally a tuple, distinguished for dumps."""

    __slots__ = ("tag",)

    def __init__(self, items: List[Any], tag: str) -> None:
        super().__init__(items)
        self.tag = tag

    def __repr__(self) -> str:
        return f"VDict({self.tag}, {len(self.items)})"


class VClosure(Value):
    """A lambda's compiled code with its frame; ``applied`` holds the
    arguments of a partial application."""

    __slots__ = ("lam", "env", "applied")

    def __init__(self, lam: "_Lam", env: List[Any],
                 applied: Tuple[Any, ...] = ()) -> None:
        self.lam = lam
        self.env = env
        self.applied = applied

    def __repr__(self) -> str:
        return f"VClosure({self.lam.params})"


class VPrim(Value):
    __slots__ = ("name", "arity", "fn", "applied")

    def __init__(self, name: str, arity: int, fn: Callable,
                 applied: Tuple[Any, ...] = ()) -> None:
        self.name = name
        self.arity = arity
        self.fn = fn
        self.applied = applied

    def __repr__(self) -> str:
        return f"VPrim({self.name})"


class VPartialCon(Value):
    """A data constructor applied to fewer arguments than its arity."""

    __slots__ = ("name", "arity", "applied")

    def __init__(self, name: str, arity: int,
                 applied: Tuple[Any, ...] = ()) -> None:
        self.name = name
        self.arity = arity
        self.applied = applied


def _blackhole(env: Any) -> Any:
    """The code of a thunk while it is being forced; :meth:`Runtime.force`
    reports the loop before calling it."""
    raise EvalError("<<loop>>: value depends on itself")


# --------------------------------------------------------------------------
# Statistics and the runtime context
# --------------------------------------------------------------------------

@dataclass
class EvalStats:
    steps: int = 0
    fun_calls: int = 0
    prim_calls: int = 0
    dict_constructions: int = 0
    dict_selections: int = 0
    tuple_selections: int = 0
    allocations: int = 0
    max_stack: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "steps": self.steps,
            "fun_calls": self.fun_calls,
            "prim_calls": self.prim_calls,
            "dict_constructions": self.dict_constructions,
            "dict_selections": self.dict_selections,
            "tuple_selections": self.tuple_selections,
            "allocations": self.allocations,
        }

    def reset(self) -> None:
        self.steps = 0
        self.fun_calls = 0
        self.prim_calls = 0
        self.dict_constructions = 0
        self.dict_selections = 0
        self.tuple_selections = 0
        self.allocations = 0
        self.max_stack = 0


class Runtime(EvalStats):
    """The state compiled code runs against: the counters (this *is*
    the evaluator's :class:`EvalStats`), the current nesting depth and
    the limits.  Primitives receive it as their evaluator argument
    (they only call :meth:`force`).

    ``limit`` is the step limit with 0 mapped to infinity, and ``mark``
    is the depth up to which entering an evaluation needs no
    bookkeeping — the lower of ``max_stack`` and the depth limit — so
    the hot paths test one number each.
    """

    def __init__(self, call_by_need: bool = True, step_limit: int = 0,
                 max_depth: int = DEFAULT_EVAL_DEPTH) -> None:
        super().__init__()
        self.depth = 0
        self.call_by_need = call_by_need
        self.step_limit = step_limit
        self.max_depth = max_depth
        self.limit: float = 0
        self.mark: float = 0
        self.configure()

    def configure(self) -> None:
        """Recompute ``limit`` and ``mark`` after a limit changed."""
        self.limit = self.step_limit or float("inf")
        self.mark = min(self.max_stack, self.max_depth or float("inf"))

    def reset(self) -> None:
        super().reset()
        self.configure()

    def grow(self, depth: int) -> None:
        """Entering an evaluation at *depth*, past ``mark``."""
        if depth > self.max_stack:
            self.max_stack = depth
        if self.max_depth and depth > self.max_depth:
            raise ResourceLimitError(
                f"evaluation nests too deeply (more than "
                f"{self.max_depth} levels); raise eval_depth_limit for "
                f"deeply recursive programs",
                limit="eval_depth_limit",
            )
        self.configure()

    def out_of_steps(self) -> None:
        raise EvalError(
            f"evaluation exceeded the step limit ({self.step_limit})")

    def enter(self, code: Callable, env: Any) -> Any:
        """Evaluate compiled *code* in *env* one level deeper, running
        its tail calls; the result may be an unevaluated thunk."""
        d = self.depth + 1
        if d > self.mark:
            self.grow(d)
        self.depth = d
        try:
            r = code(env)
            while type(r) is tuple:
                r = r[0](r[1])
        finally:
            self.depth = d - 1
        return r

    def force(self, value: Any) -> Any:
        """Weak head normal form of *value*."""
        if type(value) is not list:
            return value
        code = value[0]
        if code is None:
            return value[1]
        if code is _blackhole:
            raise EvalError("<<loop>>: value depends on itself")
        value[0] = _blackhole
        d = self.depth + 1
        try:
            if d > self.mark:
                self.grow(d)
            self.depth = d
            r = code(value[1])
            while type(r) is tuple:
                r = r[0](r[1])
            self.depth = d - 1
            if type(r) is list:
                r = r[1] if r[0] is None else self.force(r)
        except BaseException:
            self.depth = d - 1
            value[0] = code
            raise
        if self.call_by_need:
            value[0] = None
            value[1] = r
        else:
            value[0] = code
        return r


# --------------------------------------------------------------------------
# Applying values
# --------------------------------------------------------------------------

def _apply(rt: Runtime, fn: Any, args: List[Any]) -> Any:
    """Apply the forced value *fn* to *args* (thunks or values), with
    partial and over-application; a saturated closure call in tail
    position comes back as ``(body, frame)``."""
    while args:
        t = type(fn)
        if t is VClosure:
            lam = fn.lam
            have = fn.applied
            need = lam.arity - len(have)
            if len(args) < need:
                return VClosure(lam, fn.env, have + tuple(args))
            rt.fun_calls += 1
            frame = [fn.env, *have, *args[:need]]
            body = lam.body or lam.compile()
            if len(args) == need:
                return body, frame
            args = args[need:]
            fn = rt.force(rt.enter(body, frame))
        elif t is VPrim:
            have = fn.applied
            need = fn.arity - len(have)
            if len(args) < need:
                return VPrim(fn.name, fn.arity, fn.fn, have + tuple(args))
            rt.prim_calls += 1
            fn = rt.force(fn.fn(rt, *have, *args[:need]))
            args = args[need:]
        elif t is VPartialCon:
            have = fn.applied
            need = fn.arity - len(have)
            if len(args) < need:
                return VPartialCon(fn.name, fn.arity, have + tuple(args))
            fn = VCon(fn.name, [*have, *args[:need]])
            rt.allocations += 1
            args = args[need:]
        else:
            raise EvalError(f"cannot apply non-function value {fn!r}")
    return fn


# --------------------------------------------------------------------------
# The closure compiler
# --------------------------------------------------------------------------

class _Scope:
    """Compile-time view of one frame: binder name -> slot."""

    __slots__ = ("slots", "parent")

    def __init__(self, names: List[str], parent: Optional["_Scope"],
                 first: int = 1, slots: Optional[Dict[str, int]] = None
                 ) -> None:
        # A repeated binder name keeps its last slot, as a later
        # binding of the same name shadows an earlier one.
        self.slots = dict(slots or {})
        self.slots.update((name, i) for i, name in enumerate(names, first))
        self.parent = parent


class _Lam:
    """A lambda: arity, parameter names and its body code, compiled on
    first entry (and again after :meth:`Evaluator.forget_code`)."""

    __slots__ = ("arity", "params", "body", "_source")

    def __init__(self, expr: CLam, scope: _Scope,
                 compiler: "_Compiler") -> None:
        self.arity = len(expr.params)
        self.params = expr.params
        self.body: Optional[Callable] = None
        self._source = (expr.body, scope, compiler)

    def compile(self) -> Callable:
        body, scope, compiler = self._source
        self.body = compiler.code(body, scope)
        return self.body


def _const(expr: CoreExpr) -> Any:
    """The value of a literal or nullary constructor, or None when
    *expr* needs evaluating.  Constants are shared: nothing mutates a
    scalar, and the empty argument list of a nullary constructor stays
    empty."""
    t = type(expr)
    if t is CLit:
        kind = expr.kind
        if kind == "int":
            return VInt(expr.value)
        if kind == "float":
            return VFloat(expr.value)
        if kind == "char":
            return VChar(expr.value)
        return None
    if t is CCon and expr.arity == 0:
        return VCon(expr.name, [])
    return None


def _string(text: str) -> Value:
    out: Value = VCon("[]", [])
    for ch in reversed(text):
        out = VCon(":", [VChar(ch), out])
    return out


def _mentions(expr: CoreExpr, names: Dict[str, int]) -> bool:
    """Whether *expr* has a variable named in *names* (bound or free:
    a conservative free-variable test)."""
    todo = [expr]
    while todo:
        e = todo.pop()
        t = type(e)
        if t is CVar:
            if e.name in names:
                return True
        elif t is CApp:
            todo.append(e.fn)
            todo.append(e.arg)
        elif t is CLam:
            todo.append(e.body)
        elif t is CLet:
            todo.extend(rhs for _, rhs in e.binds)
            todo.append(e.body)
        elif t is CCase:
            todo.append(e.scrutinee)
            todo.extend(alt.body for alt in e.alts)
            todo.extend(alt.body for alt in e.lit_alts)
            if e.default is not None:
                todo.append(e.default)
        elif t is CTuple or t is CDict:
            todo.extend(e.items)
        elif t is CSel:
            todo.append(e.expr)
    return False


def _getter(depth: int, slot: int) -> Callable[[List[Any]], Any]:
    """env -> the variable at (*depth*, *slot*); the common ones are
    shared, as a getter depends on nothing else."""
    get = _GETTERS.get((depth, slot))
    if get is not None:
        return get
    if depth == 0:
        get = lambda env: env[slot]
    elif depth == 1:
        get = lambda env: env[0][slot]
    elif depth == 2:
        get = lambda env: env[0][0][slot]
    else:
        def get(env: List[Any]) -> Any:
            for _ in range(depth):
                env = env[0]
            return env[slot]
    if depth < 8 and slot < 4096:
        _GETTERS[(depth, slot)] = get
    return get


#: (depth, slot) -> getter, for positions below the bounds above
_GETTERS: Dict[Tuple[int, int], Callable[[List[Any]], Any]] = {}


class _Compiler:
    """Compiles core expressions to functions ``code(env)``.

    A code returns a value, a thunk, or ``(code, env)`` for a tail
    position; every caller that is not itself in tail position goes
    through :meth:`Runtime.enter` or :meth:`Runtime.force` (or does
    what they do inline), which run those.  The compiler holds the
    runtime and the top-level name -> slot table, never the top-level
    frame, so compiled code does not keep the evaluator's values alive.

    Compiled functions bind what they use as default arguments, not as
    closure cells: a cell is one more object per captured variable,
    and code lives as long as its evaluator — for a one-shot run that
    is long enough to reach the collector's oldest generation, where
    every extra object makes full collections more frequent.  (Reading
    a local is also a little cheaper than reading a cell.)  They are
    only ever called with the one ``env`` argument.  Applications build
    their argument lists in a plain loop: before CPython 3.12 a list
    comprehension is one more function call per evaluation."""

    def __init__(self, rt: Runtime, gindex: Dict[str, int]) -> None:
        self.rt = rt
        self.force = rt.force
        self.gindex = gindex
        #: every lambda compiled so far, until forget_code() stops the
        #: tracking
        self.lams: Optional[List[_Lam]] = []

    # ------------------------------------------------------------ scope

    def resolve(self, name: str,
                scope: Optional[_Scope]) -> Optional[Tuple[int, int]]:
        depth = 0
        while scope is not None:
            slot = scope.slots.get(name)
            if slot is not None:
                return depth, slot
            scope = scope.parent
            depth += 1
        slot = self.gindex.get(name)
        return None if slot is None else (depth, slot)

    def getter(self, name: str,
               scope: Optional[_Scope]) -> Callable[[List[Any]], Any]:
        where = self.resolve(name, scope)
        if where is None:
            def unbound(env, name=name):
                raise EvalError(f"unbound variable {name!r} at run time")
            return unbound
        return _getter(*where)

    # --------------------------------------------------------- arguments

    def site(self, expr: CoreExpr, scope: Optional[_Scope]) -> List[Any]:
        """A suspended expression, compiled when first forced: the list
        ``[code, expr, scope, compiler]`` with ``code`` None until then.
        Its thunks are ``[code, env]``, or ``[_lazy, (site, env)]``
        while ``code`` is None; the site never refers to a thunk, so
        code that is never forced forms no reference cycle."""
        return [None, expr, scope, self]

    def args(self, exprs: List[CoreExpr], scope: Optional[_Scope]
             ) -> Tuple[List[Callable], int]:
        """``(makers, allocs)``: ``makers[i](env)`` builds argument *i*
        — the variable itself, a constant, or a new thunk; *allocs*
        counts the thunks."""
        makers = []
        allocs = 0
        for expr in exprs:
            if type(expr) is CVar:
                makers.append(self.getter(expr.name, scope))
                continue
            value = _const(expr)
            if value is not None:
                makers.append(lambda env, value=value: value)
                continue
            makers.append(lambda env, site=self.site(expr, scope):
                          [_lazy, (site, env)] if site[0] is None
                          else [site[0], env])
            allocs += 1
        return makers, allocs

    # -------------------------------------------------------------- code

    def code(self, expr: CoreExpr, scope: Optional[_Scope]) -> Callable:
        t = type(expr)
        if t is CApp:
            return self.app(expr, scope)
        if t is CVar:
            return self.var(expr, scope)
        if t is CCase:
            return self.case(expr, scope)
        if t is CLet:
            return self.let(expr, scope)
        if t is CLam:
            return self.lam(expr, scope)
        if t is CSel:
            return self.sel(expr, scope)
        if t is CLit or t is CCon:
            return self.const(expr)
        if t is CTuple or t is CDict:
            return self.tuple(expr, scope)
        raise EvalError(f"cannot evaluate core node {expr!r}")

    def var(self, expr: CVar, scope: Optional[_Scope]) -> Callable:
        def var(env, rt=self.rt, get=self.getter(expr.name, scope)):
            s = rt.steps + 1
            rt.steps = s
            if s > rt.limit:
                rt.out_of_steps()
            return get(env)
        return var

    def const(self, expr: CoreExpr) -> Callable:
        value = _const(expr)
        if value is None and type(expr) is not CCon:
            def string(env, rt=self.rt, text=expr.value):
                s = rt.steps + 1
                rt.steps = s
                if s > rt.limit:
                    rt.out_of_steps()
                return _string(text)
            return string
        if value is None:
            value = VPartialCon(expr.name, expr.arity)

        def const(env, rt=self.rt, value=value):
            s = rt.steps + 1
            rt.steps = s
            if s > rt.limit:
                rt.out_of_steps()
            return value
        return const

    def lam(self, expr: CLam, scope: Optional[_Scope]) -> Callable:
        lam = _Lam(expr, _Scope(expr.params, scope), self)
        if self.lams is not None:
            self.lams.append(lam)

        def closure(env, rt=self.rt, lam=lam):
            s = rt.steps + 1
            rt.steps = s
            if s > rt.limit:
                rt.out_of_steps()
            return VClosure(lam, env)
        return closure

    def let(self, expr: CLet, scope: Optional[_Scope]) -> Callable:
        """A chain of directly nested ``let``s, run as one.

        The body gets one flat frame ``[env, t1, ..., tn]`` with the
        whole chain's bindings.  A non-recursive right-hand side is
        suspended in ``env`` when it mentions no earlier binding of the
        chain, and otherwise in a copy of the frame so far, so only a
        ``letrec`` makes a frame refer to itself (as it must).  Each
        ``let`` still counts its step, then its allocations."""
        frame_scope: Optional[_Scope] = scope
        specs = []  # (site, env) per binding; env: 0 outer, -1 frame
        per_let: List[int] = []
        n = 0
        while type(expr) is CLet:
            names = [name for name, _ in expr.binds]
            grown = _Scope(names, scope, n + 1,
                           {} if frame_scope is scope else frame_scope.slots)
            for _, rhs in expr.binds:
                if expr.recursive:
                    specs.append((self.site(rhs, grown), -1))
                elif n and _mentions(rhs, frame_scope.slots):
                    specs.append((self.site(rhs, frame_scope), n))
                else:
                    specs.append((self.site(rhs, scope), 0))
            per_let.append(len(names))
            n += len(names)
            frame_scope = grown
            expr = expr.body
        body = self.code(expr, frame_scope)

        def let(env, rt=self.rt, body=body, specs=tuple(specs),
                k=len(per_let), n=n, per_let=tuple(per_let)):
            s = rt.steps + k
            if s > rt.limit:
                _let_out_of_steps(rt, per_let)
            rt.steps = s
            rt.allocations += n
            frame = [env]
            for site, where in specs:
                e = env if where == 0 else frame if where < 0 \
                    else frame[:where + 1]
                code = site[0]
                frame.append([_lazy, (site, e)] if code is None
                             else [code, e])
            return body, frame
        return let

    def tuple(self, expr: CoreExpr, scope: Optional[_Scope]) -> Callable:
        makers, allocs = self.args(expr.items, scope)
        if type(expr) is CDict:
            def dictionary(env, rt=self.rt, makers=tuple(makers),
                           allocs=allocs + 1, tag=expr.tag):
                s = rt.steps + 1
                rt.steps = s
                if s > rt.limit:
                    rt.out_of_steps()
                rt.allocations += allocs
                rt.dict_constructions += 1
                return VDict([mk(env) for mk in makers], tag)
            return dictionary

        def tup(env, rt=self.rt, makers=tuple(makers), allocs=allocs + 1):
            s = rt.steps + 1
            rt.steps = s
            if s > rt.limit:
                rt.out_of_steps()
            rt.allocations += allocs
            return VTuple([mk(env) for mk in makers])
        return tup

    def operand(self, expr: CoreExpr,
                scope: Optional[_Scope]) -> Callable:
        """env -> the forced value of *expr*, evaluated one level
        deeper (an application head or a case scrutinee that is not a
        variable, a selection operand)."""
        if type(expr) is CVar:
            def var_operand(env, rt=self.rt, force=self.force,
                            get=self.getter(expr.name, scope)):
                d = rt.depth + 1
                if d > rt.mark:
                    rt.grow(d)
                s = rt.steps + 1
                rt.steps = s
                if s > rt.limit:
                    rt.out_of_steps()
                v = get(env)
                if type(v) is list:
                    return v[1] if v[0] is None else force(v)
                return v
            return var_operand

        def operand(env, rt=self.rt, force=self.force,
                    code=self.code(expr, scope)):
            d = rt.depth + 1
            if d > rt.mark:
                rt.grow(d)
            rt.depth = d
            try:
                v = code(env)
                while type(v) is tuple:
                    v = v[0](v[1])
            finally:
                rt.depth = d - 1
            if type(v) is list:
                return v[1] if v[0] is None else force(v)
            return v
        return operand

    def sel(self, expr: CSel, scope: Optional[_Scope]) -> Callable:
        def sel(env, rt=self.rt, operand=self.operand(expr.expr, scope),
                index=expr.index, from_dict=expr.from_dict):
            s = rt.steps + 1
            rt.steps = s
            if s > rt.limit:
                rt.out_of_steps()
            value = operand(env)
            if not isinstance(value, VTuple):
                raise EvalError(f"selection from non-tuple value {value!r}")
            if from_dict:
                rt.dict_selections += 1
            else:
                rt.tuple_selections += 1
            return value.items[index]
        return sel

    def case(self, expr: CCase, scope: Optional[_Scope]) -> Callable:
        # A variable scrutinee (the usual case) is evaluated inline.
        get = scrutinee = None
        if type(expr.scrutinee) is CVar:
            get = self.getter(expr.scrutinee.name, scope)
        else:
            scrutinee = self.operand(expr.scrutinee, scope)
        alts = expr.alts
        # First match wins, as in a top-to-bottom scan.
        by_con: Dict[str, int] = {}
        by_width: Dict[int, int] = {}
        for i, alt in enumerate(alts):
            by_con.setdefault(alt.con_name, i)
            if alt.con_name.startswith("("):
                by_width.setdefault(len(alt.binders), i)
        by_lit: Dict[Any, CoreExpr] = {}
        for lalt in expr.lit_alts:
            by_lit.setdefault(lalt.value, lalt.body)
        # Alternative bodies compile on first entry: bodies[i] for
        # alts[i], then the literal alternatives by value, then the
        # default (under the key None).
        bodies: List[Optional[Callable]] = [None] * len(alts)
        others: Dict[Any, Callable] = {}

        def case(env, rt=self.rt, force=self.force, get=get,
                 scrutinee=scrutinee, by_con=by_con, by_width=by_width,
                 bodies=bodies, alts=alts,
                 has_binders=tuple(bool(alt.binders) for alt in alts),
                 by_lit=by_lit, others=others, default=expr.default,
                 scope=scope, compiler=self):
            if get is None:
                s = rt.steps + 1
                rt.steps = s
                if s > rt.limit:
                    rt.out_of_steps()
                scrut = scrutinee(env)
            else:
                s = rt.steps + 2
                if s > rt.limit:
                    _step_then_enter(rt)
                d = rt.depth + 1
                if d > rt.mark:
                    rt.steps = s - 1
                    rt.grow(d)
                rt.steps = s
                scrut = get(env)
                if type(scrut) is list:
                    scrut = scrut[1] if scrut[0] is None else force(scrut)
            t = type(scrut)
            if t is VCon:
                i = by_con.get(scrut.name)
                if i is not None:
                    code = bodies[i] or compiler.alt(bodies, alts, i, scope)
                    if has_binders[i]:
                        return code, [env, *scrut.args]
                    return code, env
            elif t is VTuple or t is VDict:
                i = by_width.get(len(scrut.items))
                if i is not None:
                    code = bodies[i] or compiler.alt(bodies, alts, i, scope)
                    if has_binders[i]:
                        return code, [env, *scrut.items]
                    return code, env
            elif t is VInt or t is VChar or t is VFloat:
                raw = scrut.value
                code = others.get(raw)
                if code is None:
                    lit_body = by_lit.get(raw)
                    if lit_body is not None:
                        code = others[raw] = compiler.code(lit_body, scope)
                if code is not None:
                    return code, env
            if default is not None:
                code = others.get(None)
                if code is None:
                    code = others[None] = compiler.code(default, scope)
                return code, env
            raise EvalError(f"no matching case alternative for {scrut!r}")
        return case

    def alt(self, bodies: List[Optional[Callable]], alts: List[Any],
            i: int, scope: Optional[_Scope]) -> Callable:
        """Compile case alternative *i* on its first entry."""
        alt = alts[i]
        inner = _Scope(alt.binders, scope) if alt.binders else scope
        code = bodies[i] = self.code(alt.body, inner)
        return code

    def app(self, expr: CApp, scope: Optional[_Scope]) -> Callable:
        head = expr
        arg_exprs: List[CoreExpr] = []
        while type(head) is CApp:
            arg_exprs.append(head.arg)
            head = head.fn
        arg_exprs.reverse()
        makers, allocs = self.args(arg_exprs, scope)
        n = len(makers)

        if type(head) is CCon and head.arity == n:
            # A saturated constructor: what evaluating the head and
            # applying the partial constructor would do, in one go.
            def con(env, rt=self.rt, name=head.name, makers=tuple(makers),
                    allocs=allocs + 1):
                s = rt.steps + 2
                if s > rt.limit:
                    _step_then_enter(rt)
                d = rt.depth + 1
                if d > rt.mark:
                    rt.steps = s - 1
                    rt.grow(d)
                rt.steps = s
                args = []
                for mk in makers:
                    args.append(mk(env))
                rt.allocations += allocs
                return VCon(name, args)
            return con

        if type(head) is CVar:
            return self.app_var(self.getter(head.name, scope),
                                makers, allocs)

        def app(env, rt=self.rt, head=self.operand(head, scope),
                makers=tuple(makers), allocs=allocs):
            s = rt.steps + 1
            rt.steps = s
            if s > rt.limit:
                rt.out_of_steps()
            fn = head(env)
            args = [mk(env) for mk in makers]
            rt.allocations += allocs
            return _apply(rt, fn, args)
        return app

    def app_var(self, get: Callable, makers: List[Callable],
                allocs: int) -> Callable:
        """An application whose head is a variable (nearly all of
        them): the head's evaluation — one level deeper, one step — is
        done inline, and a closure or primitive of exactly the arity
        supplied is entered without :func:`_apply`."""
        def app(env, rt=self.rt, force=self.force, get=get,
                makers=tuple(makers), allocs=allocs, n=len(makers)):
            s = rt.steps + 2
            if s > rt.limit:
                _step_then_enter(rt)
            d = rt.depth + 1
            if d > rt.mark:
                rt.steps = s - 1
                rt.grow(d)
            rt.steps = s
            fn = get(env)
            if type(fn) is list:
                fn = fn[1] if fn[0] is None else force(fn)
            args = []
            for mk in makers:
                args.append(mk(env))
            rt.allocations += allocs
            t = type(fn)
            if t is VClosure:
                lam = fn.lam
                if lam.arity == n and not fn.applied:
                    rt.fun_calls += 1
                    return lam.body or lam.compile(), [fn.env, *args]
            elif t is VPrim:
                if fn.arity == n and not fn.applied:
                    rt.prim_calls += 1
                    r = fn.fn(rt, *args)
                    if type(r) is list:
                        return r[1] if r[0] is None else force(r)
                    return r
            return _apply(rt, fn, args)
        return app


def _lazy(suspended: Tuple[List[Any], Any]) -> Any:
    """Code of a thunk whose expression is not compiled yet: compile it
    (once per site) and run it."""
    site, env = suspended
    code = site[0]
    if code is None:
        code = site[0] = site[3].code(site[1], site[2])
    return code(env)


def _let_out_of_steps(rt: Runtime, per_let: Tuple[int, ...]) -> None:
    """Replay a ``let`` chain's steps and allocations one ``let`` at a
    time, raising at the first step over the limit."""
    for allocs in per_let:
        rt.steps += 1
        if rt.steps > rt.limit:
            rt.out_of_steps()
        rt.allocations += allocs


def _step_then_enter(rt: Runtime) -> None:
    """Replay, one event at a time, two steps known to run past the step
    limit: a node's own step, then — one evaluation deeper — its
    operand's.  The first step over the limit raises, unless entering
    the operand's evaluation exceeds the depth limit first."""
    rt.steps += 1
    if rt.steps > rt.limit:
        rt.out_of_steps()
    d = rt.depth + 1
    if d > rt.mark:
        rt.grow(d)
    rt.steps += 1
    rt.out_of_steps()


# --------------------------------------------------------------------------
# The evaluator
# --------------------------------------------------------------------------

class Globals:
    """The top-level frame: ``frame[slot]`` holds a binding's thunk (or
    a primitive), ``index`` maps names to slots.  Bindings are added,
    never removed, so compiled code can address them by slot."""

    def __init__(self, rt: Runtime) -> None:
        frame: List[Any] = [None]
        self.frame = frame
        self.index: Dict[str, int] = {}
        compiler = self.compiler = _Compiler(rt, self.index)
        #: the expression bound at each slot, and its code once compiled
        exprs: List[Optional[CoreExpr]] = [None]
        codes: Dict[int, Callable] = {}
        self._exprs = exprs
        self._codes = codes

        def top(slot):
            # A top-level thunk is [top, slot]: the binding's code is
            # compiled on first use, once per slot.  (This refers to
            # the frame, whose thunks refer to this: the evaluator
            # empties the frame when it goes.)
            code = codes.get(slot)
            if code is None:
                code = codes[slot] = compiler.code(exprs[slot], None)
            return code(frame)
        self._top = top

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def lookup(self, name: str) -> Any:
        slot = self.index.get(name)
        if slot is None:
            raise EvalError(f"unbound variable {name!r} at run time")
        return self.frame[slot]

    def bind(self, name: str, value: Any) -> int:
        """Bind *name* to *value* (a later binding replaces an earlier
        one in place); its slot."""
        slot = self.index.get(name)
        if slot is None:
            slot = self.index[name] = len(self.frame)
            self.frame.append(value)
            self._exprs.append(None)
        else:
            self.frame[slot] = value
        return slot

    def forget_code(self) -> None:
        """Drop the compiled code of the top-level bindings."""
        self._codes.clear()

    def define(self, name: str, expr: CoreExpr) -> None:
        """Bind *name* to a thunk of *expr*, compiled when first forced."""
        slot = self.bind(name, None)
        self._exprs[slot] = expr
        self._codes.pop(slot, None)
        self.frame[slot] = [self._top, slot]


class Evaluator:
    def __init__(self, program: CoreProgram,
                 primitives: Optional[Dict[str, VPrim]] = None,
                 call_by_need: bool = True,
                 step_limit: int = 0,
                 max_depth: int = DEFAULT_EVAL_DEPTH) -> None:
        # Interpreted recursion nests Python frames (about three per
        # level).  The evaluator does NOT touch the process recursion
        # limit: raising it on a default-stack thread lets the C stack
        # overflow (SIGSEGV) before Python notices.  Deep evaluation
        # must run under with_big_stack(); the max_depth budget turns
        # exhaustion into a clean ResourceLimitError either way.
        self.stats = Runtime(call_by_need, step_limit, max_depth)
        self.globals = Globals(self.stats)
        if primitives:
            for name, prim in primitives.items():
                self.globals.bind(name, prim)
        for binding in program.bindings:
            self.globals.define(binding.name, binding.expr)

    def __del__(self) -> None:
        # The top-level frame and its thunks refer to each other (a
        # top-level function's closure captures the frame it lives in,
        # a thunk's code finds it through the frame), and compiled code
        # hangs off that cycle; so do the lambdas the compiler tracks.
        # Breaking both when the evaluator goes lets reference counting
        # free it all, instead of leaving every compiled closure to the
        # cycle collector.  A value obtained from this evaluator must
        # be converted (value_to_python, deep) before the evaluator is
        # dropped: its unevaluated parts still read the frame.
        globals_ = getattr(self, "globals", None)
        if globals_ is not None:
            globals_.frame.clear()
            globals_.compiler.lams = None

    # The limits live on the runtime, where compiled code reads them.

    @property
    def call_by_need(self) -> bool:
        return self.stats.call_by_need

    @call_by_need.setter
    def call_by_need(self, value: bool) -> None:
        self.stats.call_by_need = value

    @property
    def step_limit(self) -> int:
        return self.stats.step_limit

    @step_limit.setter
    def step_limit(self, value: int) -> None:
        self.stats.step_limit = value
        self.stats.configure()

    @property
    def max_depth(self) -> int:
        return self.stats.max_depth

    @max_depth.setter
    def max_depth(self, value: int) -> None:
        self.stats.max_depth = value
        self.stats.configure()

    # ------------------------------------------------------------ driving

    def run(self, name: str) -> Value:
        """Force the top-level binding *name* to weak head normal form.
        The value's unevaluated parts need this evaluator: convert it
        (:func:`value_to_python`, :meth:`deep`) before dropping it."""
        return self.force(self.globals.lookup(name))

    def run_expr(self, expr: CoreExpr) -> Value:
        rt = self.stats
        code = self.globals.compiler.code(expr, None)
        return rt.force(rt.enter(code, self.globals.frame))

    def force(self, value: Any) -> Value:
        return self.stats.force(value)

    def forget_code(self) -> None:
        """Drop the compiled code (it compiles again when next run),
        then keep all code compiled from here on.  An evaluator pool
        calls this when it first keeps an evaluator, so only those that
        serve a second request hold compiled code — most programs a
        server caches are evaluated once."""
        compiler = self.globals.compiler
        for lam in compiler.lams or ():
            lam.body = None
        compiler.lams = None
        self.globals.forget_code()

    def deep(self, value: Any) -> Value:
        """Force *value* and, iteratively, every component — used to
        extract complete results.  An explicit worklist (with a visited
        set, so cyclic structures terminate) keeps result extraction
        from ever overflowing the Python stack, however long the list."""
        force = self.stats.force
        value = force(value)
        stack: List[Value] = [value]
        seen = set()
        while stack:
            v = stack.pop()
            if id(v) in seen:
                continue
            seen.add(id(v))
            if isinstance(v, VCon):
                v.args = [force(a) for a in v.args]
                stack.extend(v.args)
            elif isinstance(v, VTuple):
                v.items = [force(i) for i in v.items]
                stack.extend(v.items)
        return value


# --------------------------------------------------------------------------
# Result extraction
# --------------------------------------------------------------------------

def value_to_python(evaluator: Any, value: Any) -> Any:
    """Convert a core value to a Python object: Int/Float/Char to their
    Python counterparts, Bool to bool, [Char] to str, other lists to
    list, tuples to tuple, other constructors to ``(name, args...)``.
    *evaluator* is an :class:`Evaluator` or its :class:`Runtime`."""
    value = evaluator.force(value)
    if isinstance(value, VInt):
        return value.value
    if isinstance(value, VFloat):
        return value.value
    if isinstance(value, VChar):
        return value.value
    if isinstance(value, VDict):
        return ("<dict>", value.tag)
    if isinstance(value, VTuple):
        return tuple(value_to_python(evaluator, i) for i in value.items)
    if isinstance(value, VCon):
        if value.name == "True":
            return True
        if value.name == "False":
            return False
        if value.name == "()":
            return ()
        if value.name in ("[]", ":"):
            items = []
            node: Value = value
            while True:
                node = evaluator.force(node)
                if isinstance(node, VCon) and node.name == "[]":
                    break
                assert isinstance(node, VCon) and node.name == ":"
                items.append(value_to_python(evaluator, node.args[0]))
                node = node.args[1]
            if items and all(isinstance(i, str) and len(i) == 1
                             for i in items):
                return "".join(items)
            return items
        return (value.name,
                *[value_to_python(evaluator, a) for a in value.args])
    if isinstance(value, (VClosure, VPrim, VPartialCon)):
        return f"<function {getattr(value, 'name', '')}>"
    raise EvalError(f"cannot convert value {value!r}")


#: Recursion limit inside big-stack threads; a 512 MB stack holds this
#: many interpreted frames comfortably.
BIG_STACK_RECURSION_LIMIT = 1_000_000

_big_stack_lock: Any = None
_big_stack_active = 0
_big_stack_saved_limit = 0


def with_big_stack(fn: Callable[[], Any], stack_mb: int = 512) -> Any:
    """Run *fn* in a thread with a large stack — deep recursion in
    interpreted programs nests Python frames.

    The recursion limit and ``threading.stack_size`` are process-global,
    so concurrent callers coordinate through a lock and a nesting count:
    the limit is raised when the first big-stack thread starts and
    restored only when the last one finishes (restoring earlier would
    yank the floor out from under a thread that is still deep).
    """
    import threading

    global _big_stack_lock, _big_stack_active, _big_stack_saved_limit
    if _big_stack_lock is None:
        _big_stack_lock = threading.Lock()

    result: List[Any] = []
    error: List[BaseException] = []

    def runner() -> None:
        try:
            result.append(fn())
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            error.append(exc)

    with _big_stack_lock:
        if _big_stack_active == 0:
            _big_stack_saved_limit = sys.getrecursionlimit()
            if _big_stack_saved_limit < BIG_STACK_RECURSION_LIMIT:
                sys.setrecursionlimit(BIG_STACK_RECURSION_LIMIT)
        _big_stack_active += 1
        # stack_size is global too: set it, start the thread (which
        # snapshots it), and reset before releasing the lock.
        threading.stack_size(stack_mb * 1024 * 1024)
        try:
            thread = threading.Thread(target=runner)
            thread.start()
        except BaseException:
            _big_stack_active -= 1
            if (_big_stack_active == 0
                    and sys.getrecursionlimit() == BIG_STACK_RECURSION_LIMIT):
                sys.setrecursionlimit(_big_stack_saved_limit)
            raise
        finally:
            threading.stack_size(0)
    try:
        thread.join()
    finally:
        with _big_stack_lock:
            _big_stack_active -= 1
            if (_big_stack_active == 0
                    and sys.getrecursionlimit() == BIG_STACK_RECURSION_LIMIT):
                sys.setrecursionlimit(_big_stack_saved_limit)
    if error:
        raise error[0]
    return result[0]
