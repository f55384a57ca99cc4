"""Public compilation entry points over the shared pass pipeline.

    source text
      -> parse / desugar / static / install-methods / infer   (per unit)
      -> translate -> selectors -> core transforms            (program)
      -> evaluation           (repro.coreir.eval)

The sequence itself lives in :mod:`repro.pipeline.passes`; this module
wraps a pipeline run into a :class:`CompiledProgram`.  The same
sequence serves the prelude snapshot builder and the compile server
(:mod:`repro.service.snapshot`), so there is exactly one definition of
"how a program is compiled".

Use :func:`compile_source` for a one-shot compile (the prelude is
compiled in front of the user program) and
:meth:`CompiledProgram.run` / :meth:`CompiledProgram.eval` to execute.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import MonomorphismWarning
from repro.limits import ensure_recursion_headroom, recursion_fence
from repro.core.infer import Inferencer, InferResult
from repro.core.static import StaticEnv
from repro.core.types import Scheme, qual_type_str
from repro.coreir.eval import (Evaluator, EvalStats, value_to_python,
                               with_big_stack)
from repro.coreir.syntax import CoreBinding, CoreExpr, CoreProgram
from repro.coreir.translate import Translator
from repro.lang.desugar import desugar_expr
from repro.lang.parser import parse_expr
from repro.options import CompilerOptions
from repro.pipeline import CompileContext, PhaseTrace, default_pass_manager
from repro.prelude import PRELUDE_SOURCE, PRIMITIVES


@dataclass
class CompileStats:
    """Front-end statistics (experiment E1 reads these).

    ``phases`` is the pipeline's :class:`~repro.pipeline.PhaseTrace` —
    per-pass wall time and invocation counts for this compilation; the
    other fields are totals from the unifier.
    """

    unify_count: int = 0
    context_reductions: int = 0
    constraint_propagations: int = 0
    bindings: int = 0
    phases: Optional[PhaseTrace] = None


@dataclass(frozen=True)
class CompiledExpr:
    """An expression compiled against a program's scope, ready to be
    evaluated repeatedly (see :meth:`CompiledProgram.compile_expr`).

    ``core_extra`` holds the helper bindings (hoisted dictionaries,
    local lets) the inferencer generated for this expression; they are
    installed into an evaluator's globals on first use.  All fields are
    immutable after construction, so instances are safe to share across
    threads and to memoise.
    """

    source: str
    core_expr: "CoreExpr"
    core_extra: "tuple"  # of CoreBinding


class CompiledProgram:
    """A fully compiled program, ready to run."""

    def __init__(self, core: CoreProgram, result: InferResult,
                 static_env: StaticEnv, options: CompilerOptions,
                 inferencer: Inferencer,
                 trace: Optional[PhaseTrace] = None) -> None:
        self.core = core
        self.static_env = static_env
        self.class_env = static_env.class_env
        self.options = options
        self.schemes: Dict[str, Scheme] = result.schemes
        self.warnings: List[MonomorphismWarning] = result.warnings
        self._inferencer = inferencer
        self._lock = threading.RLock()
        self._eval_pool: List[Evaluator] = []
        self.last_stats: Optional[EvalStats] = None
        self.compile_stats = CompileStats(
            unify_count=result.unifier.unify_count,
            context_reductions=result.unifier.context_reduction_count,
            constraint_propagations=result.unifier.constraint_propagations,
            bindings=len(core.bindings),
            phases=trace,
        )

    # The lock guards the shared inferencer during expression compilation
    # (``eval`` / ``type_of``) so one program can serve concurrent
    # requests from the compile server; it must not be pickled (the disk
    # compile cache stores whole programs).

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]
        # Warm evaluators hold compiled code and live frames —
        # process-local state that must not ride into the disk cache;
        # the last evaluation's counters travel as plain numbers.
        state.pop("_eval_pool", None)
        stats = state.get("last_stats")
        if stats is not None:
            plain = EvalStats(**stats.snapshot())
            plain.max_stack = stats.max_stack
            state["last_stats"] = plain
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._eval_pool = []

    # ------------------------------------------------------------- running

    def evaluator(self, **overrides: Any) -> Evaluator:
        call_by_need = overrides.get("call_by_need",
                                     self.options.call_by_need)
        step_limit = overrides.get("step_limit",
                                   self.options.eval_step_limit)
        max_depth = overrides.get(
            "max_depth", getattr(self.options, "eval_depth_limit", 200_000))
        return Evaluator(self.core, PRIMITIVES(), call_by_need=call_by_need,
                         step_limit=step_limit, max_depth=max_depth)

    def run(self, name: str = "main", big_stack: bool = True,
            **overrides: Any) -> Any:
        """Evaluate the top-level binding *name* to a Python value.

        Deep work runs on a dedicated big-stack thread by default —
        never by raising the recursion limit on the caller's thread,
        which is how interpreters segfault.  ``big_stack=False`` stays
        available for hosts that already run on a big stack (the
        compile server's workers).
        """
        evaluator = self.evaluator(**overrides)

        def go() -> Any:
            with recursion_fence(f"evaluation of '{name}'"):
                return value_to_python(evaluator, evaluator.run(name))

        try:
            result = with_big_stack(go) if big_stack else go()
        finally:
            # Record the counters even when evaluation fails, so callers
            # (e.g. ``repro run --stats``) can report partial work.
            self.last_stats = evaluator.stats
        return result

    def compile_expr(self, source: str) -> "CompiledExpr":
        """Parse, type check and translate an expression against this
        program's scope, without evaluating it.

        The result is immutable and reusable: compilation is
        deterministic, so a :class:`CompiledExpr` may be cached (the
        compile service memoises them per program) and evaluated any
        number of times via :meth:`eval_compiled`.
        """
        ensure_recursion_headroom()
        with recursion_fence("expression compilation"):
            expr = desugar_expr(
                parse_expr(
                    source,
                    max_depth=getattr(self.options, "max_parse_depth", 300)),
                self.options.overload_literals)
            with self._lock:
                n_before = len(self._inferencer.output)
                _ty, resolved = self._inferencer.infer_expression(expr)
                extra = self._inferencer.output[n_before:]
                # Helper bindings generated for this expression (local
                # lets, hoisted dictionaries) must not accumulate in the
                # shared inferencer: they are only meaningful to this
                # evaluation, and leaving them would grow ``output`` by
                # one suffix per ``eval`` for the lifetime of the
                # program.
                del self._inferencer.output[n_before:]
                translator = Translator(self._arity_map())
                core_extra = [translator.binding(b.name, b.expr, b.kind)
                              for b in extra]
                core_expr = translator.expr(resolved)
        return CompiledExpr(source=source, core_expr=core_expr,
                            core_extra=tuple(core_extra))

    def eval(self, source: str, big_stack: bool = True,
             **overrides: Any) -> Any:
        """Type check and evaluate an expression in this program's
        scope (e.g. ``program.eval("member 2 [1,2,3]")``).

        As with :meth:`run`, evaluation uses a big-stack thread by
        default instead of mutating the caller's recursion limit.
        """
        return self.eval_compiled(self.compile_expr(source),
                                  big_stack=big_stack, **overrides)

    # Cap on generated-name bindings a pooled evaluator may accumulate
    # (each distinct expression binds its helpers once) before it is
    # retired instead of returned to the pool.
    _EVAL_POOL_EXTRAS = 8192
    _EVAL_POOL_SIZE = 4

    def _acquire_evaluator(self, reuse: bool) -> Tuple[Evaluator, bool]:
        """An evaluator, and whether it comes from the pool."""
        if reuse:
            with self._lock:
                if self._eval_pool:
                    return self._eval_pool.pop(), True
        return self.evaluator(), False

    def _release_evaluator(self, evaluator: Evaluator,
                           pooled: bool) -> None:
        baseline = len(self.core.bindings) + self._EVAL_POOL_EXTRAS
        if len(evaluator.globals) > baseline:
            return  # retired: too many per-expression helper bindings
        with self._lock:
            if len(self._eval_pool) < self._EVAL_POOL_SIZE:
                if not pooled:
                    # Joining the pool: its compiled code is kept only
                    # once it serves a second request.
                    evaluator.forget_code()
                self._eval_pool.append(evaluator)

    def eval_compiled(self, compiled: "CompiledExpr",
                      big_stack: bool = True, reuse: bool = False,
                      **overrides: Any) -> Any:
        """Evaluate a :class:`CompiledExpr` produced by
        :meth:`compile_expr`.

        With ``reuse=True`` (and no evaluator overrides) the evaluation
        runs on a pooled warm evaluator: constructing an evaluator
        costs more than running a small expression, and under
        call-by-need the memoised top-level thunks are deterministic
        values, so sharing them across requests is observationally
        sound.  An evaluator that raises is discarded, never returned
        to the pool — a partially forced thunk left by an aborted
        evaluation (step/depth budget) must not leak into the next
        request.  ``last_stats`` always reports this evaluation alone.
        """
        reuse = reuse and not overrides
        evaluator, pooled = self._acquire_evaluator(reuse)
        for binding in compiled.core_extra:
            if binding.name not in evaluator.globals:
                evaluator.globals.define(binding.name, binding.expr)
        if overrides:
            evaluator.call_by_need = overrides.get(
                "call_by_need", self.options.call_by_need)
            evaluator.step_limit = overrides.get(
                "step_limit", self.options.eval_step_limit)
            evaluator.max_depth = overrides.get(
                "max_depth",
                getattr(self.options, "eval_depth_limit", 200_000))
        before = evaluator.stats.snapshot() if reuse else None

        def go() -> Any:
            with recursion_fence("expression evaluation"):
                return value_to_python(
                    evaluator, evaluator.run_expr(compiled.core_expr))

        ok = False
        try:
            result = with_big_stack(go) if big_stack else go()
            ok = True
        finally:
            stats = evaluator.stats
            if before is not None:
                delta = EvalStats(**{name: value - before.get(name, 0)
                                     for name, value in
                                     stats.snapshot().items()})
                delta.max_stack = stats.max_stack
                stats = delta
            self.last_stats = stats
            if ok and reuse:
                self._release_evaluator(evaluator, pooled)
        return result

    def type_of(self, source: str) -> str:
        """The inferred (qualified) type of an expression, as a string —
        handy for tests and the examples."""
        ensure_recursion_headroom()
        expr = desugar_expr(
            parse_expr(
                source,
                max_depth=getattr(self.options, "max_parse_depth", 300)),
            self.options.overload_literals)
        with self._lock:
            # Use a scratch inferencer so defaulting does not pollute
            # state.
            scratch = Inferencer(self.static_env, self.options,
                                 global_env=self._inferencer.env)
            with scratch.scoped_level():
                ty, _ = scratch.infer_expr(expr, scratch.env)
            return qual_type_str(ty)

    def scheme_of(self, name: str) -> Optional[Scheme]:
        return self.schemes.get(name)

    def to_python(self, roots: Optional[List[str]] = None):
        """Compile the core program to Python source and return a
        runnable :class:`repro.coreir.pygen.PyProgram` — the compiled
        backend, with the same §9 operation counters.

        When *roots* is given, the program is tree-shaken to the
        bindings reachable from them first.
        """
        from repro.coreir.pygen import PyProgram
        core = self.core
        if roots is not None:
            from repro.transform.dce import shake
            core = shake(core, roots)
        return PyProgram(core, max_depth=getattr(
            self.options, "eval_depth_limit", 200_000))

    def shake(self, roots: List[str]) -> "CompiledProgram":
        """A copy of this program keeping only the bindings reachable
        from *roots* (dead-code elimination; sound under laziness)."""
        from repro.transform.dce import shake
        import copy
        clone = copy.copy(self)
        clone.core = shake(self.core, roots)
        if getattr(self.options, "lint", False):
            from repro.coreir.lint import lint_program
            lint_program(clone.core, con_arity=self._arity_map(),
                         class_env=self.class_env, pass_name="shake")
        return clone

    def _arity_map(self) -> Dict[str, int]:
        return {name: info.arity
                for name, info in self.static_env.data_cons.items()}

    def dump_core(self, names: Optional[List[str]] = None) -> str:
        from repro.coreir.pretty import pp_program
        return pp_program(self.core, names)

    def info(self, name: str) -> str:
        """Information about a name: for a class, its methods,
        superclasses and instances; for a binding, its scheme; for a
        data type, its constructors."""
        lines: List[str] = []
        if self.class_env.is_class(name):
            cls = self.class_env.class_info(name)
            header = f"class {name}"
            if cls.superclasses:
                ctx = ", ".join(f"{s} a" for s in cls.superclasses)
                header = (f"class {ctx} => {name} a"
                          if len(cls.superclasses) > 1
                          else f"class {cls.superclasses[0]} a => {name} a")
            else:
                header = f"class {name} a"
            lines.append(header + " where")
            for method in cls.methods:
                lines.append(f"  {method.name} :: {method.scheme}")
            for inst in self.class_env.instances_of_class(name):
                ctx = ""
                preds = [f"{c} a{i}" for i, cs in enumerate(inst.context)
                         for c in cs]
                if preds:
                    ctx = (f"({', '.join(preds)}) => " if len(preds) > 1
                           else f"{preds[0]} => ")
                lines.append(f"instance {ctx}{name} {inst.tycon_name}")
            return "\n".join(lines)
        if name in self.static_env.data_types:
            info = self.static_env.data_types[name]
            lines.append(f"data {name}  -- {info.n_params} parameter(s)")
            for con in info.constructors:
                lines.append(f"  {con.name} :: {con.scheme}")
            return "\n".join(lines)
        scheme = self.schemes.get(name)
        if scheme is not None:
            return f"{name} :: {scheme}"
        return f"{name} is not defined"

    def kinds_listing(self) -> str:
        """``info --kinds``: every type constructor and class in scope
        with its inferred kind, sorted by name.  Classes print as
        constraint formers (``... -> Constraint``)."""
        from repro.core.kinds import kind_str
        lines: List[str] = []
        for name in sorted(self.static_env._tycons):
            con = self.static_env._tycons[name]
            lines.append(f"type  {name} :: {kind_str(con.kind)}")
        for name in sorted(self.class_env.classes):
            cls = self.class_env.classes[name]
            parts = []
            for k in cls.param_kinds:
                txt = kind_str(k)
                parts.append(f"({txt})" if "->" in txt else txt)
            sig = " -> ".join(parts + ["Constraint"])
            lines.append(f"class {name} :: {sig}")
        return "\n".join(lines)

    def interface(self) -> str:
        """An interface-file style listing (section 8.6: "interfaces
        provide the signature of each definition in a module ... these
        interface signatures define a specific ordering on the
        dictionaries").  One line per user-visible binding; the printed
        context order *is* the dictionary parameter order."""
        lines = []
        for name in sorted(self.schemes):
            if "$" in name or "@" in name:
                continue
            lines.append(f"{name} :: {self.schemes[name]}")
        return "\n".join(lines)


def program_from_context(ctx: CompileContext) -> CompiledProgram:
    """Wrap a finished pipeline context into a :class:`CompiledProgram`
    (shared by the cold path here and the snapshot fork path in
    :mod:`repro.service.snapshot`)."""
    inferencer = ctx.inferencer
    final = InferResult(ctx.compiled, inferencer.schemes,
                        inferencer.warnings, inferencer.env,
                        inferencer.unifier)
    return CompiledProgram(ctx.core, final, ctx.static_env, ctx.options,
                           inferencer, trace=ctx.trace)


def compile_source(source: str,
                   options: Optional[CompilerOptions] = None,
                   include_prelude: bool = True,
                   filename: str = "<input>",
                   snapshot: Optional["object"] = None,
                   observer: Optional[Callable[[str, CompileContext], None]]
                   = None) -> CompiledProgram:
    """Compile *source* (with the prelude) into a runnable program.

    When *snapshot* (a :class:`repro.service.snapshot.PreludeSnapshot`)
    is given, the prelude is not re-compiled: the user program is built
    on a cheap fork of the snapshot's compiled state, producing the same
    schemes and core as a cold compile at a fraction of the cost.

    *observer* — ``callable(pass_name, ctx)`` — fires after every
    pipeline pass (the CLI's ``--dump-after`` uses it).
    """
    if snapshot is not None and include_prelude:
        from repro.service.snapshot import compile_with_snapshot
        return compile_with_snapshot(source, snapshot, options=options,
                                     filename=filename, observer=observer)
    options = options if options is not None else CompilerOptions()
    sources = []
    if include_prelude:
        sources.append((PRELUDE_SOURCE, "<prelude>"))
    sources.append((source, filename))
    ctx = CompileContext.fresh(options, sources)
    default_pass_manager().run(ctx, observer=observer)
    return program_from_context(ctx)


def compile_and_run(source: str, name: str = "main",
                    options: Optional[CompilerOptions] = None,
                    **kwargs: Any) -> Any:
    """Convenience: compile and immediately run one binding."""
    return compile_source(source, options).run(name, **kwargs)
