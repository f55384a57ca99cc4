"""Prelude snapshots: compile the prelude once, reuse it forever.

Every cold :func:`repro.driver.compile_source` call re-lexes, re-parses
and re-infers the whole prelude before it reaches the user program.  A
:class:`PreludeSnapshot` performs that work exactly once and freezes
the result:

* the static environment (data types, constructors, kinds, the class
  environment with every prelude class and instance);
* the inferencer state after ``infer_program(<prelude>)`` — the global
  :class:`~repro.core.infer.TypeEnv`, the scheme table, the compiled
  (dictionary-converted) prelude bindings;
* the translated, selector-free prelude core, and what the
  binding-local transforms — §8.8 dictionary hoisting and §6.3 inner
  entry points — make of it (``prefix_done``).

A snapshot is immutable.  :meth:`PreludeSnapshot.fork` produces a
cheap, independent copy of the *mutable containers* (dictionaries and
lists) while sharing the immutable compiled structures — schemes,
kernel ASTs and core bindings are never mutated after the prelude has
been compiled, so sharing them is sound.  Forking costs microseconds
where re-compiling the prelude costs hundreds of milliseconds.

:func:`compile_with_snapshot` then runs the ordinary pipeline on the
user program only, stacked on a fork.  Both the prelude build and the
per-fork user compile are :class:`~repro.pipeline.PassManager` runs —
the same registered sequence the cold driver executes, with the
prelude prefix skipped (the build stops after ``translate``; the fork
carries the frozen prelude core as the translate pass's prefix).  The
binding order, schemes and optimised core are identical to a cold
compile (up to the numbering of the match compiler's locals ``m$``,
``fail$`` and ``p$``, which a fork's translate pass numbers from 1):
selectors are regenerated for *all* classes after the user program
(exactly where the one-shot path emits them).  Hoisting and
inner entry points rewrite one binding at a time, so over the prelude
prefix they splice in the snapshot's recorded output and transform
only the bindings after it; the whole-program passes (§8.4
constant-dictionary reduction, §9 specialization) run over the full
concatenated core.  Determinism of the result is what makes both the
recorded prefix and the compile cache sound — the paper's §8.6
interface ordering fixes dictionary parameter order, and instance
resolution is coherent (Bottu et al.), so equal inputs give equal
elaborations.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.classes import ClassEnv
from repro.core.infer import Inferencer
from repro.core.kinds import KindEnv
from repro.core.static import StaticEnv
from repro.coreir.syntax import CoreBinding
from repro.options import CompilerOptions, options_fingerprint
from repro.pipeline import (
    TRANSLATE,
    CompileContext,
    default_pass_manager,
)
from repro.pipeline.passes import binding_local_prefix
from repro.prelude import PRELUDE_SOURCE
from repro.transform.prefix import DonePrefix


def prelude_fingerprint(options: Optional[CompilerOptions] = None,
                        prelude_source: str = PRELUDE_SOURCE) -> str:
    """Digest identifying one prelude compilation: the prelude text plus
    every compilation-relevant option.  A component of every compile
    cache key — editing the prelude or flipping a compiler flag yields a
    new fingerprint and therefore a cache miss."""
    options = options if options is not None else CompilerOptions()
    h = hashlib.sha256()
    h.update(prelude_source.encode("utf-8"))
    h.update(b"\x00")
    h.update(options_fingerprint(options).encode("ascii"))
    return h.hexdigest()


def _fork_class_env(src: ClassEnv) -> ClassEnv:
    out = ClassEnv(layout=src.layout, single_slot_opt=src.single_slot_opt,
                   solver=src.solver)
    out.classes = dict(src.classes)
    out.instances = dict(src.instances)
    out.mp_instances = {cls: list(infos)
                        for cls, infos in src.mp_instances.items()}
    out.method_owner = dict(src.method_owner)
    out.default_types = list(src.default_types)
    return out


def _fork_static_env(src: StaticEnv, class_env: ClassEnv) -> StaticEnv:
    # Bypass __init__ (it would rebuild the builtins we are about to
    # copy anyway); copy every mutable container one level deep.  The
    # *values* (DataConInfo, ClassInfo, schemes, declaration ASTs) are
    # not mutated after their defining program has been compiled.
    out = StaticEnv.__new__(StaticEnv)
    out.kind_env = KindEnv()
    out.kind_env.kinds = dict(src.kind_env.kinds)
    out.class_env = class_env
    out.data_types = dict(src.data_types)
    out.data_cons = dict(src.data_cons)
    out._tycons = dict(src._tycons)
    out.instance_bodies = list(src.instance_bodies)
    out.mp_instance_bodies = list(src.mp_instance_bodies)
    out.class_bodies = dict(src.class_bodies)
    out.synonyms = dict(src.synonyms)
    return out


class PreludeSnapshot:
    """The prelude, compiled once, frozen, and cheap to build upon."""

    def __init__(self, options: CompilerOptions, static_env: StaticEnv,
                 inferencer: Inferencer,
                 core_bindings: Tuple[CoreBinding, ...],
                 fingerprint: str,
                 prefix_done: Mapping[str, DonePrefix]) -> None:
        self.options = options
        self._static_env = static_env
        self._inferencer = inferencer
        #: translated prelude core, selector-free and before any core
        #: transform, so a forked compile reproduces the one-shot
        #: pipeline exactly; a fork's core starts with these objects
        self.core_bindings = core_bindings
        #: by pass name, the hoisted and the entry-pointed prelude
        #: bindings (:func:`~repro.pipeline.passes.binding_local_prefix`),
        #: spliced in by every fork's transform passes
        self.prefix_done = prefix_done
        #: number of compiled prelude bindings (the fork's outputs
        #: beyond this index belong to the user program)
        self.n_bindings = len(inferencer.output)
        self.fingerprint = fingerprint
        self.options_fp = options_fingerprint(options)
        self.class_names = frozenset(static_env.class_env.classes)
        u = inferencer.unifier
        self._unifier_counts = (u.unify_count, u.context_reduction_count,
                                u.constraint_propagations)
        solver = getattr(u, "solver", None)
        self._solver_counts = (
            (solver.firings, solver.simplifications, solver.store_peak)
            if getattr(solver, "name", "") == "chr" else None)

    # ----------------------------------------------------------- building

    @classmethod
    def build(cls, options: Optional[CompilerOptions] = None,
              prelude_source: str = PRELUDE_SOURCE) -> "PreludeSnapshot":
        """Compile *prelude_source* through the shared pipeline's
        front-end prefix (parse .. infer .. translate; selectors and
        the whole-program transforms run per fork over the full
        program), run the binding-local transforms over the prelude
        core once, and freeze the result."""
        options = options if options is not None else CompilerOptions()
        ctx = CompileContext.fresh(options, [(prelude_source, "<prelude>")])
        default_pass_manager().run(ctx, stop_after=TRANSLATE)
        return cls(options, ctx.static_env, ctx.inferencer,
                   tuple(ctx.core.bindings),
                   prelude_fingerprint(options, prelude_source),
                   binding_local_prefix(ctx))

    # ------------------------------------------------------------ forking

    def fork(self) -> Tuple[StaticEnv, Inferencer]:
        """An independent compilation state seeded with the prelude.

        The returned environments may be mutated freely (user data
        types, classes, instances, bindings); the snapshot itself is
        never affected, so forks are isolated from each other.
        """
        class_env = _fork_class_env(self._static_env.class_env)
        static_env = _fork_static_env(self._static_env, class_env)
        # A child TypeEnv layer receives every global binding the user
        # program makes; the prelude's own layer below it stays frozen.
        inferencer = Inferencer(static_env, self.options,
                                global_env=self._inferencer.env.child())
        inferencer.names._counters = dict(self._inferencer.names._counters)
        inferencer.warnings = list(self._inferencer.warnings)
        inferencer.output = list(self._inferencer.output)
        inferencer.schemes = dict(self._inferencer.schemes)
        inferencer._compiled_instances = set(
            self._inferencer._compiled_instances)
        inferencer._compiled_defaults = set(
            self._inferencer._compiled_defaults)
        # Carry the prelude's unifier counters so CompileStats reports
        # the same totals as a cold compile.
        (inferencer.unifier.unify_count,
         inferencer.unifier.context_reduction_count,
         inferencer.unifier.constraint_propagations) = self._unifier_counts
        if self._solver_counts is not None:
            solver = inferencer.unifier.solver
            (solver.firings, solver.simplifications,
             solver.store_peak) = self._solver_counts
        return static_env, inferencer


def compile_with_snapshot(source: str, snapshot: PreludeSnapshot,
                          options: Optional[CompilerOptions] = None,
                          filename: str = "<input>",
                          observer: Optional[
                              Callable[[str, CompileContext], None]] = None):
    """Compile *source* on top of *snapshot* — the fast path behind
    ``compile_source(..., snapshot=...)``.

    Runs the same pass sequence as a cold compile, with the prelude
    prefix skipped: the forked environments stand in for the prelude's
    front-end passes, the frozen prelude core rides in as the
    translate pass's prefix, and hoisting and inner entry points splice
    in their recorded prelude output, so selectors and the §8/§9
    transforms see the full concatenated program.  Produces a
    :class:`repro.driver.CompiledProgram` with the same schemes,
    warnings, binding order and optimised core as a cold
    ``compile_source(source, options)``.
    """
    from repro.driver import program_from_context

    if options is None:
        options = snapshot.options
    elif options_fingerprint(options) != snapshot.options_fp:
        raise ValueError(
            "snapshot was built with different compiler options; build a "
            "snapshot for these options (PreludeSnapshot.build(options))")
    static_env, inferencer = snapshot.fork()
    ctx = CompileContext.forked(options, [(source, filename)],
                                static_env, inferencer,
                                prefix_core=snapshot.core_bindings,
                                n_prefix_bindings=snapshot.n_bindings,
                                prefix_done=snapshot.prefix_done)
    default_pass_manager().run(ctx, observer=observer)
    return program_from_context(ctx)


# ---------------------------------------------------------------------------
# Process-wide default snapshots (one per option fingerprint)
# ---------------------------------------------------------------------------

_default_snapshots: Dict[str, PreludeSnapshot] = {}
_default_lock = threading.Lock()


def get_default_snapshot(options: Optional[CompilerOptions] = None
                         ) -> PreludeSnapshot:
    """The shared snapshot for *options*, built on first use.

    Snapshots are keyed by :func:`prelude_fingerprint`, so every option
    set that changes compilation output gets its own; service-only
    options (cache sizing, server transport) share one.
    """
    options = options if options is not None else CompilerOptions()
    key = prelude_fingerprint(options)
    with _default_lock:
        snap = _default_snapshots.get(key)
    if snap is None:
        # Built outside the lock: compilation is slow and reentrant
        # (other threads may want other option sets meanwhile).
        snap = PreludeSnapshot.build(options)
        with _default_lock:
            snap = _default_snapshots.setdefault(key, snap)
    return snap


def clear_default_snapshots() -> None:
    """Drop all process-wide snapshots (tests)."""
    with _default_lock:
        _default_snapshots.clear()
