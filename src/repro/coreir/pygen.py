"""The compiled backend: core IR → Python source.

The interpreter (:mod:`repro.coreir.eval`) walks core trees; this
module instead *generates Python code* for a core program — the moral
equivalent of the native backend the paper's numbers came from:
closure-converted code plus a small runtime (:mod:`repro.coreir.pyrt`).

Generation strategy:

* every top-level binding becomes a zero-argument Python function whose
  result is memoised in a :class:`~repro.coreir.pyrt.Thunk` — the
  program is one big letrec, exactly like the interpreter's global
  frame;
* lambdas become nested ``def``s wrapped in ``PFun`` (arity-aware
  curried application through ``rt.apply_fn``);
* ``let`` and ``case`` compile to statements; every binder is
  α-renamed to a fresh Python local, so shadowing in the core cannot
  leak between branches;
* laziness: argument and let positions are wrapped in thunks unless
  the expression is an *atom* (variable, literal, nullary
  constructor), in which case it is passed through unchanged;
* dictionaries stay observable: ``CDict`` compiles to ``rt.mkdict``
  and dictionary selection to ``rt.dsel``, both bumping the same
  counters the interpreter keeps, so §9's quantities can be compared
  across backends.

Use :class:`PyProgram` (or ``CompiledProgram.to_python()``) to execute.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.coreir import pyrt
from repro.coreir.syntax import (
    CApp,
    CCase,
    CCon,
    CDict,
    CLam,
    CLet,
    CLit,
    CoreProgram,
    CSel,
    CTuple,
    CVar,
    app_spine,
)
from repro.coreir.eval import with_big_stack
from repro.errors import ResourceLimitError
from repro.limits import (
    DEFAULT_EVAL_DEPTH,
    DEFAULT_TRANSFORM_DEPTH,
    DepthGuard,
    recursion_fence,
)


class _Emitter:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def block(self) -> "_Block":
        return _Block(self)

    def text(self) -> str:
        return "\n".join(self.lines)


class _Block:
    def __init__(self, emitter: _Emitter) -> None:
        self.emitter = emitter

    def __enter__(self) -> None:
        self.emitter.indent += 1

    def __exit__(self, *exc: Any) -> None:
        self.emitter.indent -= 1


def _sanitize(name: str) -> str:
    out = []
    for ch in name:
        if ch.isalnum() or ch == "_":
            out.append(ch)
        else:
            out.append("_")
    text = "".join(out)
    if not text or text[0].isdigit():
        text = "v_" + text
    return text


class PyCodegen:
    def __init__(self, program: CoreProgram,
                 max_depth: int = DEFAULT_TRANSFORM_DEPTH) -> None:
        self.program = program
        self.counter = 0
        self.top_names = {b.name for b in program.bindings}
        self.string_consts: Dict[str, str] = {}
        self.out = _Emitter()
        self._depth = DepthGuard(max_depth, "max_transform_depth",
                                 "Python code generation")

    # ------------------------------------------------------------- helpers

    def fresh(self, hint: str = "t") -> str:
        self.counter += 1
        return f"_{_sanitize(hint)}_{self.counter}"

    def string_const(self, text: str) -> str:
        const = self.string_consts.get(text)
        if const is None:
            const = f"_S{len(self.string_consts)}"
            self.string_consts[text] = const
        return const

    # ------------------------------------------------------------ programs

    def generate(self) -> str:
        out = self.out
        out.emit("# generated by repro.coreir.pygen — do not edit")
        out.emit("def _init(rt, C, G):")
        with out.block():
            out.emit("force = rt.force")
            out.emit("apply = rt.apply_fn")
            out.emit("Thunk = rt.Thunk")
            out.emit("Con = rt.Con")
            out.emit("PFun = rt.PFun")
            body = _Emitter()
            body.indent = out.indent
            for binding in self.program.bindings:
                fn_name = self.fresh("top_" + binding.name)
                body.emit(f"def {fn_name}():")
                body.indent += 1
                result = self.expr(binding.expr, {}, body)
                body.emit(f"return {result}")
                body.indent -= 1
                body.emit(f"G[{binding.name!r}] = Thunk({fn_name})")
            # String constants are shared program-wide.
            for text, const in self.string_consts.items():
                out.emit(f"{const} = rt.string_value({text!r})")
            out.lines.extend(body.lines)
            out.emit("return G")
        return out.text()

    # ---------------------------------------------------------- expressions

    def expr(self, e: Any, env: Dict[str, str], out: _Emitter) -> str:
        """Compile *e*; emits statements into *out*, returns a Python
        expression for the (whnf-or-thunk) value."""
        self._depth.enter()
        try:
            return self._expr(e, env, out)
        finally:
            self._depth.exit()

    def _expr(self, e: Any, env: Dict[str, str], out: _Emitter) -> str:
        t = type(e)
        if t is CVar:
            return self.var(e.name, env)
        if t is CLit:
            return self.literal(e)
        if t is CCon:
            if e.arity == 0:
                return f"Con({e.name!r}, ())"
            return f"rt.con_maker({e.name!r}, {e.arity})"
        if t is CApp:
            head, args = app_spine(e)
            arg_exprs = [self.thunked(a, env, out) for a in args]
            if type(head) is CCon and len(args) == e_arity(head):
                return f"Con({head.name!r}, ({', '.join(arg_exprs)},))"
            head_expr = self.expr(head, env, out)
            return f"apply(C, {head_expr}, {', '.join(arg_exprs)})"
        if t is CLam:
            fn_name = self.fresh("lam")
            inner_env = dict(env)
            params = []
            for p in e.params:
                local = self.fresh(p)
                inner_env[p] = local
                params.append(local)
            out.emit(f"def {fn_name}({', '.join(params)}):")
            out.indent += 1
            result = self.expr(e.body, inner_env, out)
            out.emit(f"return {result}")
            out.indent -= 1
            return f"PFun({len(e.params)}, {fn_name}, (), C)"
        if t is CLet:
            inner_env = dict(env)
            if e.recursive:
                locals_ = []
                for name, _rhs in e.binds:
                    local = self.fresh(name)
                    inner_env[name] = local
                    locals_.append(local)
                    out.emit(f"{local} = Thunk()")
                for (name, rhs), local in zip(e.binds, locals_):
                    fn = self.fresh("rec_" + name)
                    out.emit(f"def {fn}():")
                    out.indent += 1
                    result = self.expr(rhs, inner_env, out)
                    out.emit(f"return {result}")
                    out.indent -= 1
                    out.emit(f"{local}.fn = {fn}")
            else:
                for name, rhs in e.binds:
                    value = self.thunked(rhs, env, out)
                    local = self.fresh(name)
                    inner_env[name] = local
                    out.emit(f"{local} = {value}")
            return self.expr(e.body, inner_env, out)
        if t is CCase:
            return self.case(e, env, out)
        if t is CTuple:
            items = [self.thunked(i, env, out) for i in e.items]
            if len(items) == 1:
                return f"Con('(,)', ({items[0]},))"
            return f"Con({con_name(len(items))!r}, ({', '.join(items)}))"
        if t is CDict:
            items = [self.thunked(i, env, out) for i in e.items]
            joined = ", ".join(items)
            comma = "," if len(items) == 1 else ""
            return f"rt.mkdict(C, ({joined}{comma}))"
        if t is CSel:
            target = self.expr(e.expr, env, out)
            if e.from_dict:
                return f"rt.dsel(C, {e.index}, {target})"
            return f"rt.tsel({e.index}, {target})"
        raise ValueError(f"cannot compile core node {e!r}")

    def var(self, name: str, env: Dict[str, str]) -> str:
        local = env.get(name)
        if local is not None:
            return local
        return f"G[{name!r}]"

    def literal(self, e: CLit) -> str:
        if e.kind == "string":
            return self.string_const(e.value)
        if e.kind in ("int", "float"):
            return repr(e.value)
        assert e.kind == "char"
        return repr(e.value)

    def thunked(self, e: Any, env: Dict[str, str], out: _Emitter) -> str:
        """An expression usable in a lazy position (argument / let)."""
        t = type(e)
        if t is CVar:
            return self.var(e.name, env)
        if t is CLit:
            return self.literal(e)
        if t is CCon and e.arity == 0:
            return f"Con({e.name!r}, ())"
        fn = self.fresh("th")
        out.emit(f"def {fn}():")
        out.indent += 1
        result = self.expr(e, env, out)
        out.emit(f"return {result}")
        out.indent -= 1
        return f"Thunk({fn})"

    def case(self, e: CCase, env: Dict[str, str], out: _Emitter) -> str:
        scrut = self.expr(e.scrutinee, env, out)
        s = self.fresh("s")
        r = self.fresh("r")
        out.emit(f"{s} = force({scrut})")
        first = True
        for alt in e.alts:
            is_tuple = alt.con_name.startswith("(,")
            if is_tuple:
                cond = (f"type({s}) is Con and "
                        f"{s}.name == {alt.con_name!r}")
            else:
                cond = f"type({s}) is Con and {s}.name == {alt.con_name!r}"
            out.emit(f"{'if' if first else 'elif'} {cond}:")
            first = False
            out.indent += 1
            inner_env = dict(env)
            for i, binder in enumerate(alt.binders):
                local = self.fresh(binder)
                inner_env[binder] = local
                out.emit(f"{local} = {s}.args[{i}]")
            result = self.expr(alt.body, inner_env, out)
            out.emit(f"{r} = {result}")
            out.indent -= 1
        for lalt in e.lit_alts:
            out.emit(f"{'if' if first else 'elif'} {s} == {lalt.value!r}:")
            first = False
            out.indent += 1
            result = self.expr(lalt.body, env, out)
            out.emit(f"{r} = {result}")
            out.indent -= 1
        if e.default is not None:
            if first:
                result = self.expr(e.default, env, out)
                out.emit(f"{r} = {result}")
            else:
                out.emit("else:")
                out.indent += 1
                result = self.expr(e.default, env, out)
                out.emit(f"{r} = {result}")
                out.indent -= 1
        else:
            if first:
                out.emit(f"{r} = rt.match_fail()")
            else:
                out.emit("else:")
                out.indent += 1
                out.emit(f"{r} = rt.match_fail()")
                out.indent -= 1
        return r


def e_arity(head: CCon) -> int:
    return head.arity


def con_name(arity: int) -> str:
    return "(" + "," * (arity - 1) + ")"


def compile_to_python(program: CoreProgram) -> str:
    """Generate the Python module source for *program*."""
    return PyCodegen(program).generate()


class PyProgram:
    """A core program compiled to Python and ready to run.

    Generated code recurses on the Python stack (it has no tail
    calls), so :meth:`run` uses a big-stack thread and bounds the
    nesting of applications by *max_depth* (the evaluator's
    ``eval_depth_limit``): a runaway recursion ends in a
    :class:`ResourceLimitError`, never in a crashed process."""

    def __init__(self, core: CoreProgram,
                 max_depth: int = DEFAULT_EVAL_DEPTH) -> None:
        self.source = compile_to_python(core)
        self.counters = pyrt.Counters(max_depth)
        namespace: Dict[str, Any] = {}
        exec(compile(self.source, "<pygen>", "exec"), namespace)
        globals_map: Dict[str, Any] = dict(pyrt.primitives(self.counters))
        self.globals = namespace["_init"](pyrt, self.counters, globals_map)

    def run(self, name: str = "main", deep: bool = True) -> Any:
        def go() -> Any:
            with recursion_fence(f"compiled evaluation of '{name}'"):
                try:
                    value = pyrt.force(self.globals[name])
                    return pyrt.to_python(value) if deep else value
                except pyrt.DepthLimitError as exc:
                    raise ResourceLimitError(
                        f"compiled evaluation of '{name}': {exc}; raise "
                        f"eval_depth_limit for deeply recursive programs",
                        limit="eval_depth_limit") from None

        return with_big_stack(go)
