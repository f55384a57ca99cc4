"""Shared state of one compilation as it moves through the passes.

A :class:`CompileContext` is the single mutable value every pass reads
and writes: the source units to compile, the static environment, the
inferencer, the accumulated compiled bindings and — once translation
has run — the core program.  It also carries a :class:`PhaseTrace`
recording where the wall-clock went, pass by pass.

Two constructors cover the two ways a compilation starts:

* :meth:`CompileContext.fresh` — a cold compile: new class/static/type
  environments, primitives bound, nothing compiled yet;
* :meth:`CompileContext.forked` — a warm compile on top of a prelude
  snapshot fork: the environments come pre-seeded and the prelude's
  already-translated core is carried as a *prefix* that the translate
  pass prepends (and whose compiled bindings it skips); the hoisting
  and inner-entry-point passes splice in what they already made of
  that prefix (``prefix_done``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.classes import ClassEnv
from repro.core.infer import (
    CompiledBinding,
    Inferencer,
    InferResult,
    SchemeEntry,
    TypeEnv,
)
from repro.core.static import StaticEnv
from repro.coreir.syntax import CoreBinding, CoreProgram
from repro.options import CompilerOptions
from repro.prelude import primitive_schemes
from repro.transform.prefix import DonePrefix


@dataclass
class PassTiming:
    """Accumulated cost of one pass across its invocations."""

    name: str
    seconds: float = 0.0
    calls: int = 0


class PhaseTrace:
    """Per-pass wall time and invocation counts for one compilation.

    Recorded by the :class:`~repro.pipeline.manager.PassManager`,
    attached to ``CompiledProgram.compile_stats.phases``, surfaced by
    ``repro run --time-passes`` and aggregated across requests by the
    server's metrics.  The trace also carries the unifier counters so
    one object answers both "where did the time go" and "how much
    inference work happened".
    """

    def __init__(self) -> None:
        self._timings: Dict[str, PassTiming] = {}
        #: per-pass work counters beyond wall time, e.g. how many
        #: clones a specialisation pass created: ``{pass: {key: n}}``
        self._counters: Dict[str, Dict[str, int]] = {}
        self.unify_count = 0
        self.context_reductions = 0
        self.constraint_propagations = 0
        self.solver_name = "reduce"

    # ----------------------------------------------------------- recording

    def record(self, name: str, seconds: float) -> None:
        timing = self._timings.get(name)
        if timing is None:
            timing = self._timings[name] = PassTiming(name)
        timing.seconds += seconds
        timing.calls += 1

    def add_counter(self, pass_name: str, key: str, n: int = 1) -> None:
        """Accumulate a named work counter for *pass_name* (shows up
        next to its timing in ``as_dict()`` and the server stats)."""
        bucket = self._counters.setdefault(pass_name, {})
        bucket[key] = bucket.get(key, 0) + n

    def finish(self, unifier: Any) -> None:
        """Copy the unifier counters into the trace (called once, when
        the pipeline hands the context over to the driver).  Counters
        are assigned absolutely (not accumulated) so the call is
        idempotent."""
        self.unify_count = unifier.unify_count
        self.context_reductions = unifier.context_reduction_count
        self.constraint_propagations = unifier.constraint_propagations
        capped = getattr(unifier, "minimize_capped_count", 0)
        if capped:
            self._counters.setdefault("infer", {})[
                "provenance.minimize-capped"] = capped
        solver = getattr(unifier, "solver", None)
        self.solver_name = getattr(solver, "name", "reduce")
        if solver is not None and self.solver_name == "chr":
            bucket = self._counters.setdefault("infer", {})
            bucket["solver.firings"] = solver.firings
            bucket["solver.simplifications"] = solver.simplifications
            bucket["solver.store-peak"] = solver.store_peak

    # ------------------------------------------------------- introspection

    @property
    def timings(self) -> List[PassTiming]:
        """Timings in execution order (dicts preserve insertion)."""
        return list(self._timings.values())

    def names(self) -> List[str]:
        return list(self._timings)

    def seconds(self, name: str) -> float:
        timing = self._timings.get(name)
        return timing.seconds if timing is not None else 0.0

    def total_seconds(self) -> float:
        return sum(t.seconds for t in self._timings.values())

    def counters(self, name: str) -> Dict[str, int]:
        return dict(self._counters.get(name, {}))

    def all_counters(self) -> Dict[str, Dict[str, int]]:
        return {name: dict(bucket)
                for name, bucket in self._counters.items()}

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """JSON-ready summary: ``{pass: {ms, calls, **counters}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for timing in self._timings.values():
            out[timing.name] = {"ms": round(timing.seconds * 1e3, 3),
                                "calls": timing.calls}
        for pass_name, bucket in self._counters.items():
            out.setdefault(pass_name, {}).update(bucket)
        return out

    def pretty(self) -> str:
        """The ``--time-passes`` table."""
        lines = [self.row("pass", "calls", "ms")]
        for timing in self._timings.values():
            lines.append(self.row(timing.name, timing.calls,
                                  f"{timing.seconds * 1e3:.3f}"))
        lines.append(self.row("total", "",
                              f"{self.total_seconds() * 1e3:.3f}"))
        return "\n".join(lines)

    def row(self, name: str, calls: Any, ms: str, note: str = "") -> str:
        """One line of the :meth:`pretty` table, aligned with it (the
        CLI appends an evaluation row this way)."""
        width = max([len(t) for t in self._timings] + [5])
        line = f"{name:<{width}}  {calls:>5}  {ms:>9}"
        return f"{line}  {note}" if note else line


@dataclass
class SourceUnit:
    """One source text moving through the per-unit front-end passes."""

    text: str
    filename: str
    #: the AST after ``parse``, rewritten in place by ``desugar``
    program: Optional[Any] = None


@dataclass
class CompileContext:
    """Everything a pass may read or write."""

    options: CompilerOptions
    units: List[SourceUnit]
    static_env: StaticEnv
    inferencer: Inferencer
    #: all compiled (dictionary-converted) bindings, prelude included
    compiled: List[CompiledBinding] = field(default_factory=list)
    #: the core program; None until the ``translate`` pass has run
    core: Optional[CoreProgram] = None
    #: already-translated core carried in from a snapshot fork; the
    #: translate pass prepends it instead of re-translating
    prefix_core: Tuple[CoreBinding, ...] = ()
    #: how many entries of ``compiled`` the prefix covers (skipped by
    #: the translate pass)
    n_prefix_bindings: int = 0
    #: by pass name, what a binding-local transform already made of the
    #: prefix core (see :func:`repro.pipeline.passes.binding_local_prefix`);
    #: the pass splices it in when the core starts with those bindings
    prefix_done: Mapping[str, DonePrefix] = field(default_factory=dict)
    trace: PhaseTrace = field(default_factory=PhaseTrace)
    result: Optional[InferResult] = None
    #: extra operator fixities handed to the parser — the module build
    #: threads fixities exported by imported interfaces through here
    fixities: Optional[Dict[str, Any]] = None
    #: True when a module build has resolved this unit's imports against
    #: interfaces; a plain single-file compile rejects ``import`` decls
    #: with a located error (there is nothing to resolve them against)
    imports_resolved: bool = False
    #: names defined outside this compilation unit but legitimately
    #: referenced by its core — values (and generated dictionary/impl/
    #: default bindings) provided by imported module interfaces.  The
    #: core lint treats these as in scope.
    extern_names: Tuple[str, ...] = ()
    #: which module each top-level core binding came from (the prelude's
    #: map to "<prelude>").  Set only by ``link_modules``; its presence
    #: is what arms the link-time ``specialize-xmodule`` pass.
    module_origins: Optional[Dict[str, str]] = None
    #: merged ``name -> Unfolding`` from the linked interfaces — the
    #: serialized bodies the cross-module specializer clones from
    unfoldings: Optional[Dict[str, Any]] = None
    #: scratch state for the core-lint verifier: remembers which binding
    #: objects already linted clean this compile (transforms preserve
    #: object identity for untouched bindings, so most re-lints are
    #: incremental).  Owned entirely by repro.coreir.lint.lint_program.
    lint_cache: Dict = field(default_factory=dict, repr=False)

    # -------------------------------------------------------- constructors

    @classmethod
    def fresh(cls, options: CompilerOptions,
              sources: Sequence[Tuple[str, str]]) -> "CompileContext":
        """A cold compilation: new environments, primitives bound."""
        class_env = ClassEnv(layout=options.dict_layout,
                             single_slot_opt=options.single_slot_opt,
                             solver=options.solver)
        static_env = StaticEnv(class_env)
        global_env = TypeEnv()
        for name, scheme in primitive_schemes().items():
            global_env.bind(name, SchemeEntry(scheme))
        inferencer = Inferencer(static_env, options, global_env)
        units = [SourceUnit(text, filename) for text, filename in sources]
        return cls(options, units, static_env, inferencer)

    @classmethod
    def forked(cls, options: CompilerOptions,
               sources: Sequence[Tuple[str, str]],
               static_env: StaticEnv, inferencer: Inferencer,
               prefix_core: Tuple[CoreBinding, ...] = (),
               n_prefix_bindings: int = 0,
               prefix_done: Optional[Mapping[str, DonePrefix]] = None
               ) -> "CompileContext":
        """A warm compilation on a prelude-snapshot fork."""
        units = [SourceUnit(text, filename) for text, filename in sources]
        return cls(options, units, static_env, inferencer,
                   prefix_core=tuple(prefix_core),
                   n_prefix_bindings=n_prefix_bindings,
                   prefix_done=prefix_done or {})

    # --------------------------------------------------------------- views

    def con_arity(self) -> Dict[str, int]:
        return {name: info.arity
                for name, info in self.static_env.data_cons.items()}
