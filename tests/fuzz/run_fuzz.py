"""Fuzz smoke runner: the CI crash-containment gate.

Usage::

    PYTHONPATH=src python -m tests.fuzz.run_fuzz --seed 0 --count 1000

For every program — the full adversarial corpus first, then ``count``
generated programs — the runner compiles it against a shared prelude
snapshot and, when compilation succeeds, evaluates ``main`` under a
small step limit.  The invariant:

    every input either succeeds or raises ``ReproError``;
    the process never dies.

Any other exception (``RecursionError``, ``MemoryError``, a segfault
taking the whole process down, ...) prints the offending program and
exits non-zero, so CI fails on exactly the class of bug this PR fixed.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from typing import Any, Optional, Tuple

from repro.driver import compile_source
from repro.errors import CoreLintError, ReproError
from repro.options import CompilerOptions
from repro.service.snapshot import PreludeSnapshot

from tests.fuzz.corpus import ADVERSARIAL_CORPUS, XMODULE_CORPUS
from tests.fuzz.gen import ProgramGen

#: Step budget for evaluating a fuzzed ``main`` — plenty for the tiny
#: generated programs, small enough that ``loop n = loop (n + 1)``
#: terminates in milliseconds.
EVAL_STEP_LIMIT = 200_000


def _assert_positions(exc: ReproError) -> None:
    """The provenance oracle: every type- or kind-error diagnostic
    must name at least one source location in its ``positions``
    list."""
    code = type(exc).code
    if (code.startswith("type") or code.startswith("kind")) \
            and not exc.to_json()["positions"]:
        raise AssertionError(
            f"{code.split('.')[0]}-error diagnostic carries no "
            f"positions: [{code}] {exc}")


def _compile_verdict(source: str, snapshot: PreludeSnapshot,
                     options: CompilerOptions):
    """Compile one program: ``("ok", None, program)`` or
    ``("error", code, exc)``.  CoreLintError propagates (a pipeline
    bug, not a rejected input)."""
    try:
        program = compile_source(source, options=options,
                                 snapshot=snapshot)
        return "ok", None, program
    except CoreLintError:
        raise
    except ReproError as exc:
        # The error must also survive its own reporting paths.
        exc.to_json()
        exc.pretty(source)
        return "error", type(exc).code, exc


def check_one(source: str, snapshot: PreludeSnapshot,
              options: CompilerOptions, positions: bool = False,
              provenance_diff: bool = False) -> Tuple[str, Optional[str]]:
    """Run one program through the invariant.

    Returns ``(outcome, error_code)`` where outcome is ``"ok"`` or
    ``"error"``; any non-ReproError exception propagates (and fails
    the run).  *positions* asserts every type-error diagnostic carries
    source locations; *provenance_diff* recompiles with provenance
    disabled and asserts the accept/reject verdict is unchanged.
    """
    outcome, code, result = _compile_verdict(source, snapshot, options)
    if provenance_diff:
        off = options.with_(constraint_provenance=False)
        outcome2, code2, _ = _compile_verdict(source, snapshot, off)
        if (outcome, code) != (outcome2, code2):
            raise AssertionError(
                f"provenance flipped the compile verdict: "
                f"on={(outcome, code)} off={(outcome2, code2)}")
    if outcome == "error":
        if positions:
            _assert_positions(result)
        return outcome, code
    program = result
    try:
        if "main" in program.schemes:
            program.run("main", step_limit=EVAL_STEP_LIMIT)
        return "ok", None
    except CoreLintError:
        # A lint failure is never a legitimate rejection of the input:
        # it means a pipeline pass produced ill-formed core.  Treat it
        # like a crash — propagate so the run fails loudly.
        raise
    except ReproError as exc:
        exc.to_json()
        exc.pretty(source)
        return "error", type(exc).code


def _full_verdict(source: str, snapshot: PreludeSnapshot,
                  options: CompilerOptions):
    """The complete observable outcome of one program under one solver:
    ``(outcome, code, main_value, {name: scheme_str})``."""
    outcome, code, result = _compile_verdict(source, snapshot, options)
    if outcome == "error":
        return outcome, code, None, None
    program = result
    schemes = {name: str(scheme)
               for name, scheme in program.schemes.items()}
    value = None
    if "main" in program.schemes:
        try:
            value = program.run("main", step_limit=EVAL_STEP_LIMIT)
        except CoreLintError:
            raise  # ill-formed core is a bug, not a rejected input
        except ReproError as exc:
            exc.to_json()
            return "error", type(exc).code, None, schemes
    return "ok", None, value, schemes


def check_solver_diff(source: str, snapshot: PreludeSnapshot,
                      chr_snapshot: PreludeSnapshot,
                      options: CompilerOptions,
                      chr_options: CompilerOptions
                      ) -> Tuple[str, Optional[str]]:
    """The differential solver oracle: compile and run one program
    under both the reduce and chr backends; any observable difference
    — accept/reject verdict, error code, inferred scheme, evaluated
    ``main`` value — fails the run.

    The one tolerated divergence: multi-parameter classes exist only
    under chr, so a reduce verdict of ``static.multi-param`` ends the
    comparison (the chr side may accept, or reject for its own
    reasons, e.g. ``solver.overlap``).  Returns the chr side's
    ``(outcome, code)`` in that case, the shared verdict otherwise.
    """
    reduce_v = _full_verdict(source, snapshot, options)
    chr_v = _full_verdict(source, chr_snapshot, chr_options)
    if reduce_v[:2] == ("error", "static.multi-param"):
        return chr_v[0], chr_v[1]
    if reduce_v[:2] != chr_v[:2]:
        raise AssertionError(
            f"solvers disagree on the verdict: reduce={reduce_v[:2]} "
            f"chr={chr_v[:2]}")
    if reduce_v[3] != chr_v[3]:
        diff = {name for name in (set(reduce_v[3] or {})
                                  | set(chr_v[3] or {}))
                if (reduce_v[3] or {}).get(name)
                != (chr_v[3] or {}).get(name)}
        raise AssertionError(
            f"solvers disagree on inferred schemes for {sorted(diff)}: "
            f"reduce={reduce_v[3]} chr={chr_v[3]}")
    if reduce_v[2] != chr_v[2]:
        raise AssertionError(
            f"solvers disagree on the value of main: "
            f"reduce={reduce_v[2]!r} chr={chr_v[2]!r}")
    return reduce_v[:2]


#: the counters the compiled backend (``repro.coreir.pyrt``) keeps
ENGINE_COUNTERS = ("dict_constructions", "dict_selections", "fun_calls",
                   "prim_calls")


def _engine_outcome(go) -> Tuple[str, Any]:
    """``("value", v)`` or ``("error", class)`` for one engine run.  A
    run-time failure is an ``EvalError`` in the interpreter and a
    ``PyRtError`` in compiled code: both count as ``EvalError``."""
    from repro.coreir.pyrt import PyRtError
    try:
        return "value", go()
    except PyRtError:
        return "error", "EvalError"
    except ReproError as exc:
        return "error", type(exc).__name__


def check_engine_diff(source: str, snapshot: PreludeSnapshot,
                      options: CompilerOptions
                      ) -> Tuple[str, Optional[str]]:
    """The engine oracle: every program that compiles runs ``main`` on
    the evaluator and on the compiled Python backend
    (``to_python().run``); the value (or the error class) and the §9
    counters both engines keep must agree.

    Programs the evaluator does not finish within the step budget are
    not run compiled (the backend has no step budget to stop them)."""
    outcome, code, program = _compile_verdict(source, snapshot, options)
    if outcome == "error" or "main" not in program.schemes:
        return outcome, code
    interp = _engine_outcome(
        lambda: program.run("main", step_limit=EVAL_STEP_LIMIT))
    if interp == ("error", "EvalError") and program.last_stats.steps \
            > EVAL_STEP_LIMIT:
        return "error", "eval"
    counts = {name: getattr(program.last_stats, name)
              for name in ENGINE_COUNTERS}
    compiled = program.to_python(["main"])
    other = _engine_outcome(lambda: compiled.run("main"))
    if interp != other:
        raise AssertionError(
            f"engines disagree on main: evaluator={interp!r} "
            f"compiled={other!r}")
    other_counts = compiled.counters.snapshot()
    if counts != other_counts:
        raise AssertionError(
            f"engines disagree on the counters: evaluator={counts} "
            f"compiled={other_counts}")
    return ("ok", None) if interp[0] == "value" else ("error", "eval")


def check_modules(specs, snapshot: PreludeSnapshot,
                  options: CompilerOptions,
                  positions: bool = False) -> Tuple[str, Optional[str]]:
    """The differential invariant for multi-module inputs.

    Builds the module list twice — link-time specialization on and
    off.  Each build either links (and evaluates ``main`` under the
    step limit) or raises a located ReproError; when *both* succeed
    they must agree on the entry value, since the §9 clone rewrite may
    change the core but never the meaning.  Returns the specialized
    build's ``(outcome, error_code)``.
    """
    from repro.modules import ModuleBuilder
    from repro.modules.resolve import scan_inline_modules

    def attempt(opts):
        try:
            graph = scan_inline_modules(list(specs))
            builder = ModuleBuilder(opts, snapshot=snapshot)
            program = builder.build(graph).program
            value = None
            if "main" in program.schemes:
                value = program.run("main", step_limit=EVAL_STEP_LIMIT)
            return "ok", value, None
        except CoreLintError:
            raise  # ill-formed core is a bug, not a rejected input
        except ReproError as exc:
            exc.to_json()
            if positions:
                _assert_positions(exc)
            return "error", None, type(exc).code

    fast = attempt(options.with_(specialize_xmodule=True))
    slow = attempt(options.with_(specialize_xmodule=False))
    if fast[0] == "ok" and slow[0] == "ok" and fast[1] != slow[1]:
        raise AssertionError(
            f"specialized/dictionary builds disagree: "
            f"{fast[1]!r} != {slow[1]!r}")
    return fast[0], fast[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=1000,
                    help="number of generated programs (after the corpus)")
    ap.add_argument("--lint", action="store_true",
                    help="run the core lint after every pipeline pass as "
                         "an extra oracle: any program that compiles must "
                         "also lint clean (a CoreLintError fails the run)")
    ap.add_argument("--positions", action="store_true",
                    help="provenance oracle: any type-error diagnostic "
                         "whose positions list is empty fails the run")
    ap.add_argument("--provenance-diff", action="store_true",
                    help="differential oracle: recompile each single-file "
                         "input with constraint_provenance=false; a changed "
                         "accept/reject verdict fails the run")
    ap.add_argument("--solver-diff", action="store_true",
                    help="differential solver oracle: compile and run each "
                         "single-file input under both the reduce and chr "
                         "constraint solvers; any verdict, scheme or value "
                         "mismatch fails the run (a reduce-side "
                         "static.multi-param rejection is the one tolerated "
                         "divergence — those programs are chr-only)")
    ap.add_argument("--engine-diff", action="store_true",
                    help="differential engine oracle: run each compiled "
                         "single-file input on the evaluator and on the "
                         "compiled Python backend; a value, error-class or "
                         "dictionary/call counter mismatch fails the run")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args(argv)

    options = CompilerOptions()
    if args.lint:
        options.lint = True
    chr_snapshot = chr_options = None
    if args.solver_diff:
        # The diff is reduce-vs-chr by construction, regardless of any
        # REPRO_SOLVER override in the environment.
        options = options.with_(solver="reduce")
        chr_options = options.with_(solver="chr")
        chr_snapshot = PreludeSnapshot.build(chr_options)
    snapshot = PreludeSnapshot.build(options)
    gen = ProgramGen(args.seed)

    inputs = [(f"corpus:{name}", src) for name, src in ADVERSARIAL_CORPUS]
    inputs += [(f"gen:{i}", gen.program()) for i in range(args.count)]

    # Multi-module inputs go through the differential module check:
    # the hand-written xmodule corpus plus a slice of generated trees.
    module_inputs = [(f"xmodule:{name}", specs)
                     for name, specs in XMODULE_CORPUS]
    module_inputs += [(f"gen-modules:{i}", gen.multi_module())
                      for i in range(max(1, args.count // 10))]

    outcomes: Counter = Counter()
    codes: Counter = Counter()
    started = time.monotonic()
    for label, source in inputs:
        try:
            if args.solver_diff:
                outcome, code = check_solver_diff(
                    source, snapshot, chr_snapshot, options, chr_options)
            elif args.engine_diff:
                outcome, code = check_engine_diff(source, snapshot, options)
            else:
                outcome, code = check_one(
                    source, snapshot, options, positions=args.positions,
                    provenance_diff=args.provenance_diff)
        except BaseException as exc:  # noqa: BLE001 — the invariant itself
            print(f"FUZZ INVARIANT VIOLATED at {label}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            print("--- program ---", file=sys.stderr)
            print(source, file=sys.stderr)
            print("---------------", file=sys.stderr)
            raise
        outcomes[outcome] += 1
        if code:
            codes[code] += 1
        if args.verbose:
            print(f"{label}: {outcome}" + (f" ({code})" if code else ""))

    for label, specs in module_inputs:
        try:
            outcome, code = check_modules(specs, snapshot, options,
                                          positions=args.positions)
        except BaseException as exc:  # noqa: BLE001 — the invariant itself
            print(f"FUZZ INVARIANT VIOLATED at {label}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            for name, source in specs:
                print(f"--- module {name} ---", file=sys.stderr)
                print(source, file=sys.stderr)
            print("---------------", file=sys.stderr)
            raise
        outcomes[outcome] += 1
        if code:
            codes[code] += 1
        if args.verbose:
            print(f"{label}: {outcome}" + (f" ({code})" if code else ""))

    elapsed = time.monotonic() - started
    total = sum(outcomes.values())
    print(f"fuzz: {total} programs in {elapsed:.1f}s — "
          f"{outcomes['ok']} ok, {outcomes['error']} contained errors, "
          f"0 crashes")
    for code, n in sorted(codes.items(), key=lambda kv: -kv[1]):
        print(f"  {code:24s} {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
