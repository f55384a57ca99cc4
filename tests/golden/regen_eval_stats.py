#!/usr/bin/env python
"""Evaluator parity goldens: ``eval_stats.json``.

For a pinned corpus of programs this records, per case, what the
evaluator produces: the value (as ``repr`` of the Python result) or
the error, the full ``EvalStats.snapshot()`` and ``max_stack``, and the
step-limit verdict at ``step_limit = steps - 1`` (must fail) and at
``step_limit = steps`` (must succeed).  ``tests/test_eval_parity.py``
asserts that the evaluator reproduces the file exactly, so any engine
change that moves a §9 counter — or a limit's verdict — fails tier 1.

The corpus:

* the E1-E9 and A1/A2 benchmark programs (E4 also under call-by-name);
* ``tests/data/regression.mhs`` and the programs under ``examples/``;
* the four perfbench ``eval`` programs at two sizes each, one-shot and
  on a warm (pooled) evaluator;
* the terminating programs among fuzz seed 0 x 200.

Every case compiles with ``solver="reduce"`` and ``lint=False`` pinned,
so ``REPRO_SOLVER``/``REPRO_LINT`` in the environment cannot move the
counters.  Regenerate (from the repo root) only when a change to the
compiler is meant to change them::

    PYTHONPATH=src:. python tests/golden/regen_eval_stats.py
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import random
import sys
from typing import Any, Callable, Dict, Iterator, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDEN = HERE / "eval_stats.json"

#: step budget for the fuzz programs (the fuzz runner's own)
FUZZ_STEP_LIMIT = 200_000
FUZZ_SEED = 0
FUZZ_COUNT = 200


def _options(**overrides: Any):
    from repro.options import CompilerOptions
    return CompilerOptions(**overrides).with_(solver="reduce", lint=False)


def _compile(source: str, base: Any = None, **overrides: Any):
    from repro.driver import compile_source
    options = _options(**overrides) if base is None else \
        base.with_(solver="reduce", lint=False, **overrides)
    return compile_source(source, options)


def _module(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(
        f"_parity_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(name: str):
    sys.path.insert(0, str(ROOT))
    try:
        return importlib.import_module(f"benchmarks.{name}")
    finally:
        sys.path.pop(0)


def _programs() -> Iterator[Tuple[str, Callable[[], Any]]]:
    """(label, build) for every whole program whose ``main`` is run."""
    e1 = _bench("bench_e1_typecheck_overhead")
    from repro.driver import compile_source
    yield "E1/classes", lambda: compile_source(
        e1.class_program(5) + "\nmain = check",
        _options(overload_literals=False), include_prelude=False)
    e2 = _bench("bench_e2_dispatch")
    yield "E2/direct", lambda: _compile(e2.DIRECT)
    yield "E2/dispatch", lambda: _compile(e2.DISPATCH, specialize=False)
    yield "E2/specialized", lambda: _compile(e2.DISPATCH, specialize=True)
    e3 = _bench("bench_e3_dict_passing")
    for label in ("OVERLOADED", "MONO", "METHODS_AT_KNOWN_TYPE"):
        yield f"E3/{label}", (lambda s=getattr(e3, label): _compile(s))
    e4 = _bench("bench_e4_dict_construction")
    for n in e4.SIZES:
        src = e4.workload(n)
        yield f"E4/naive/{n}", (lambda s=src: _compile(
            s, hoist_dictionaries=False, inner_entry_points=False))
        yield f"E4/improved/{n}", (lambda s=src: _compile(
            s, hoist_dictionaries=True, inner_entry_points=True))
        yield f"E4/by-name/{n}", (lambda s=src: _compile(
            s, hoist_dictionaries=True, inner_entry_points=True,
            call_by_need=False))
        yield f"E4/naive-by-name/{n}", (lambda s=src: _compile(
            s, hoist_dictionaries=False, inner_entry_points=False,
            call_by_need=False))
    e5 = _bench("bench_e5_inner_entry")
    for n in e5.SIZES:
        for entry in (False, True):
            yield f"E5/entry={entry}/{n}", (lambda s=e5.workload(n), e=entry:
                                           _compile(s, inner_entry_points=e,
                                                    hoist_dictionaries=False))
    e6 = _bench("bench_e6_specialize")
    for spec in (False, True):
        yield f"E6/specialize={spec}", (lambda p=spec: _compile(
            e6.SRC, specialize=p, hoist_dictionaries=False,
            inner_entry_points=False))
    e7 = _bench("bench_e7_flatten")
    for depth in e7.DEPTHS:
        for layout in ("nested", "flat"):
            yield f"E7/{layout}/{depth}", (
                lambda d=depth, lay=layout: _compile(
                    e7.chain_program(d, e7.N), dict_layout=lay,
                    hoist_dictionaries=False, inner_entry_points=False,
                    single_slot_opt=False))
    e8 = _bench("bench_e8_tags_baseline")
    yield "E8/dictionaries", lambda: _compile(e8.DICT_SRC)
    a1 = _bench("bench_a1_backends")
    yield "A1/interpreter", lambda: _compile(a1.SRC)
    a2 = _bench("bench_a2_single_slot")
    for slot in (True, False):
        yield f"A2/single_slot={slot}", (lambda s=slot: _compile(
            a2.SRC, single_slot_opt=s, hoist_dictionaries=False,
            inner_entry_points=False))
    for path in sorted((ROOT / "examples").glob("*.py")):
        module = _module(path)
        source = getattr(module, "SOURCE", None) or getattr(
            module, "PROGRAM", None)
        if source is None:
            continue
        for label, options in getattr(module, "CONFIGS", [("default", None)]):
            yield f"examples/{path.stem}/{label}", (
                lambda s=source, o=options: _compile(s, o))

    def modtree():
        from repro.modules import build_modules
        return build_modules([str(ROOT / "examples" / "modtree")],
                             options=_options(), jobs=1).program
    yield "examples/modtree", modtree


def _regression_names() -> List[str]:
    tests = _module(ROOT / "tests" / "test_regression.py")
    return sorted(tests.EXPECTED)


#: programs whose ``main`` fails at run time: (label, source, overrides)
ERRORS = [
    ("head-of-empty", "main = head ([] :: [Int])", {}),
    ("div-by-zero", "main = 1 + (7 `div` (3 - 3)) :: Int", {}),
    ("loop", "main = let x = x + 1 in (x :: Int)", {}),
    ("pattern-failure",
     "f :: Int -> Int\nf 0 = 1\nmain = f 0 + f 1", {}),
    ("depth-limit",
     "count :: Int -> Int\n"
     "count n = if n == 0 then 0 else 1 + count (n - 1)\n"
     "main = count 1000", {"max_depth": 500}),
    ("depth-limit-by-name",
     "count :: Int -> Int\n"
     "count n = if n == 0 then 0 else 1 + count (n - 1)\n"
     "main = count 1000", {"max_depth": 300, "call_by_need": False}),
]


def _eval_requests() -> Iterator[Tuple[str, str, List[str]]]:
    """(label, program source, expressions) for the perfbench ``eval``
    programs: the smallest and largest size of every variant."""
    workloads = _module(ROOT / "perfbench" / "workloads.py")
    rng = random.Random("eval-parity")
    for name, source in workloads.EVAL_PROGRAMS.items():
        sizes = workloads.EVAL_SIZES[name]
        exprs = []
        for variant in workloads.EVAL_VARIANTS[name]:
            for size in (min(sizes), max(sizes)):
                expr, _value = workloads.eval_request(rng, name, size,
                                                      variant)
                exprs.append(expr)
        yield name, source, exprs


def _fuzz_sources() -> Iterator[Tuple[str, str]]:
    sys.path.insert(0, str(ROOT))
    try:
        from tests.fuzz.gen import ProgramGen
    finally:
        sys.path.pop(0)
    gen = ProgramGen(FUZZ_SEED)
    for i in range(FUZZ_COUNT):
        yield f"fuzz/{FUZZ_SEED}/{i}", gen.program()


# ---------------------------------------------------------------------------
# Running one case
# ---------------------------------------------------------------------------

def _outcome(go: Callable[[], Any], program) -> Dict[str, Any]:
    """Run *go*; the value or error, and the counters it left."""
    from repro.errors import ReproError
    out: Dict[str, Any] = {}
    try:
        out["value"] = repr(go())
    except ReproError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    stats = program.last_stats
    out["stats"] = stats.snapshot()
    out["max_stack"] = stats.max_stack
    return out


def _verdict(go: Callable[[int], Any], program) -> Dict[str, Any]:
    """The step-limit verdicts around the exact step count."""
    base = _outcome(lambda: go(0), program)
    steps = base["stats"]["steps"]
    if "value" in base and steps > 1:
        tight = _outcome(lambda: go(steps - 1), program)
        exact = _outcome(lambda: go(steps), program)
        base["limit_steps_minus_1"] = tight
        base["limit_steps"] = {"value": exact.get("value"),
                               "error": exact.get("error")}
    return base


def run_program(program, name: str = "main") -> Dict[str, Any]:
    return _verdict(lambda limit: program.run(name, step_limit=limit),
                    program)


def run_expr(program, expr: str) -> Dict[str, Any]:
    compiled = program.compile_expr(expr)
    return _verdict(lambda limit: program.eval_compiled(
        compiled, step_limit=limit), program)


def run_warm(program, exprs: List[str]) -> List[Dict[str, Any]]:
    """The server's path: every expression on one pooled evaluator."""
    out = []
    for expr in exprs:
        compiled = program.compile_expr(expr)
        out.append(_outcome(lambda: program.eval_compiled(
            compiled, reuse=True), program))
    return out


def cases() -> Iterator[Tuple[str, Callable[[], Any]]]:
    """(case id, thunk computing the record) for the whole corpus."""
    for label, build in _programs():
        yield label, (lambda b=build: run_program(b()))
    for label, source, overrides in ERRORS:
        yield f"errors/{label}", (
            lambda s=source, o=overrides: (lambda p: _outcome(
                lambda: p.run("main", **o), p))(_compile(s)))
    regression = (ROOT / "tests" / "data" / "regression.mhs").read_text()
    shared: Dict[str, Any] = {}

    def regression_program():
        if "p" not in shared:
            shared["p"] = _compile(regression)
        return shared["p"]
    for name in _regression_names():
        yield f"regression/{name}", (
            lambda n=name: run_program(regression_program(), n))
    for name, source, exprs in _eval_requests():
        for i, expr in enumerate(exprs):
            yield f"perfbench/{name}/{i}", (
                lambda s=source, e=expr: run_expr(_compile(s), e))
        yield f"perfbench/{name}/warm", (
            lambda s=source, es=exprs: run_warm(_compile(s), es))
    from repro.errors import ReproError
    from repro.service.snapshot import PreludeSnapshot
    snapshot: Dict[str, Any] = {}
    for label, source in _fuzz_sources():
        def fuzz(s=source):
            from repro.driver import compile_source
            if "snap" not in snapshot:
                snapshot["snap"] = PreludeSnapshot.build(_options())
            try:
                program = compile_source(s, options=_options(),
                                         snapshot=snapshot["snap"])
            except ReproError:
                return None
            if "main" not in program.schemes:
                return None
            record = _outcome(lambda: program.run(
                "main", step_limit=FUZZ_STEP_LIMIT), program)
            if "step limit" in record.get("error", ""):
                return None  # not terminating
            return run_program(program)
        yield label, fuzz


def regen() -> None:
    out: Dict[str, Any] = {}
    for case_id, compute in cases():
        record = compute()
        if record is not None:
            out[case_id] = record
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(out)} cases)")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    regen()
