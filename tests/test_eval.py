"""Evaluator tests: semantics, laziness, sharing, instrumentation."""

import pytest

from repro import CompilerOptions, EvalError, compile_source
from repro.coreir.eval import Evaluator, value_to_python
from repro.coreir.syntax import (
    CApp,
    CDict,
    CLam,
    CLet,
    CLit,
    CoreBinding,
    CoreProgram,
    CSel,
    CVar,
    capp,
)


class TestBasicEvaluation:
    def test_arithmetic(self, run_main):
        assert run_main("main = 2 + 3 * 4 - 1") == 13

    def test_float_arithmetic(self, run_main):
        assert run_main("main = 1.5 * 2.0 + 0.25") == 3.25

    def test_division(self, run_main):
        assert run_main("main = (17 `div` 5, 17 `mod` 5)") == (3, 2)

    def test_float_division(self, run_main):
        assert run_main("main = 7.0 / 2.0") == 3.5

    def test_division_by_zero(self, run_main):
        with pytest.raises(EvalError, match="division by zero"):
            run_main("main = 1 `div` 0")

    def test_comparison_chain(self, run_main):
        assert run_main("main = (1 < 2, 2 <= 2, 3 > 4, 'a' >= 'a')") \
            == (True, True, False, True)

    def test_booleans(self, run_main):
        assert run_main("main = (True && False, True || False, not True)") \
            == (False, True, False)

    def test_char_and_string(self, run_main):
        assert run_main("main = ('x', \"hello\")") == ("x", "hello")

    def test_unit(self, run_main):
        assert run_main("main = ()") == ()

    def test_negative_literal(self, run_main):
        assert run_main("main = -5 + 3") == -2

    def test_lambda_application(self, run_main):
        assert run_main("main = (\\x y -> x * 10 + y) 4 2") == 42

    def test_partial_application(self, run_main):
        assert run_main("main = let add3 = (\\a b c -> a+b+c) 1 2 in add3 4") == 7

    def test_higher_order(self, run_main):
        assert run_main("main = map (\\x -> x * x) [1,2,3]") == [1, 4, 9]

    def test_let_shadowing(self, run_main):
        assert run_main("x = 1\nmain = let x = 2 in x") == 2

    def test_closure_capture(self, run_main):
        assert run_main(
            "main = let k = 10\n"
            "           f x = x + k\n"
            "       in f 5") == 15

    def test_case_on_constructors(self, run_main):
        assert run_main(
            "data Shape = Circle Int | Square Int\n"
            "area s = case s of\n"
            "           Circle r -> 3 * r * r\n"
            "           Square w -> w * w\n"
            "main = (area (Circle 2), area (Square 3))") == (12, 9)

    def test_nested_patterns(self, run_main):
        assert run_main(
            "f (Just (x:xs), n) = x + n\n"
            "f (Nothing, n) = n\n"
            "f q = 0\n"
            "main = (f (Just [10], 5), f (Nothing, 7))") == (15, 7)

    def test_guard_fallthrough_across_equations(self, run_main):
        src = ("classify n | n < 0 = \"neg\"\n"
               "classify 0 = \"zero\"\n"
               "classify n | even n = \"even\"\n"
               "           | otherwise = \"odd\"\n"
               "main = map classify [-1, 0, 2, 3]")
        assert run_main(src) == ["neg", "zero", "even", "odd"]

    def test_pattern_match_failure(self, run_main):
        with pytest.raises(EvalError, match="pattern match"):
            run_main("f (Just x) = x\nmain = f Nothing")

    def test_error_primitive(self, run_main):
        with pytest.raises(EvalError, match="boom"):
            run_main('main = error "boom"')

    def test_as_pattern(self, run_main):
        assert run_main(
            "f all@(x:xs) = (all, x)\nmain = f [1,2]") == ([1, 2], 1)

    def test_where_scope_over_guards(self, run_main):
        src = ("f x | big = \"big\"\n"
               "    | otherwise = \"small\"\n"
               "  where big = x > 100\n"
               "main = (f 200, f 5)")
        assert run_main(src) == ("big", "small")


class TestLaziness:
    def test_undefined_branch_not_evaluated(self, run_main):
        assert run_main(
            'main = if True then 1 else error "no"') == 1

    def test_lazy_infinite_list(self, run_main):
        assert run_main("main = take 5 (iterate (\\x -> x * 2) 1)") \
            == [1, 2, 4, 8, 16]

    def test_lazy_repeat(self, run_main):
        assert run_main("main = take 3 (repeat 'z')") == "zzz"

    def test_unused_binding_not_evaluated(self, run_main):
        assert run_main('main = let boom = error "no" in 42') == 42

    def test_call_by_need_shares(self, run_main):
        # With sharing the expensive computation runs once.
        src = ("expensive = length (replicate 100 'x')\n"
               "main = expensive + expensive")
        program = compile_source(src)
        assert program.run("main") == 200
        shared = program.last_stats.steps
        program2 = compile_source(src, CompilerOptions(call_by_need=False))
        assert program2.run("main") == 200
        assert program2.last_stats.steps > shared

    def test_knot_tying(self, run_main):
        assert run_main(
            "main = let ones = 1 : ones in take 4 ones") == [1, 1, 1, 1]

    def test_self_dependent_value_detected(self, run_main):
        with pytest.raises(EvalError, match="loop"):
            run_main("main = let x = x + (1::Int) in x")


class TestInstrumentation:
    def test_stats_available_after_run(self):
        program = compile_source("main = 1 + 1")
        program.run("main")
        stats = program.last_stats
        assert stats.steps > 0
        assert stats.prim_calls > 0

    def test_dict_constructions_counted(self):
        # Eq [Char] needs one constructed dictionary.
        program = compile_source('main = "ab" == "ab"')
        program.run("main")
        assert program.last_stats.dict_constructions >= 1

    def test_no_dicts_for_monomorphic_code(self):
        """Section 9: "for code which does not use overloaded functions
        ... the class system adds no overhead at all"."""
        program = compile_source("main = (1 :: Int) + 2")
        program.run("main")
        assert program.last_stats.dict_constructions == 0
        assert program.last_stats.dict_selections == 0

    def test_dict_selections_counted(self):
        program = compile_source(
            "poly :: Eq a => a -> Bool\npoly x = x == x\n"
            "main = poly 'c'")
        program.run("main")
        assert program.last_stats.dict_selections >= 1

    def test_step_limit(self):
        program = compile_source("loop n = loop (n + 1)\nmain = loop (0::Int)")
        with pytest.raises(EvalError, match="step limit"):
            program.run("main", step_limit=10_000)


class TestRawCoreEvaluation:
    """Direct core-level checks without the compiler front end."""

    def evaluator(self, bindings):
        return Evaluator(CoreProgram(bindings), {})

    def test_let_and_app(self):
        ev = self.evaluator([CoreBinding(
            "main",
            CLet([("f", CLam(["x"], CVar("x")))],
                 capp(CVar("f"), CLit(5, "int")), recursive=False))])
        assert value_to_python(ev, ev.run("main")) == 5

    def test_dict_nodes_count(self):
        ev = self.evaluator([CoreBinding(
            "main",
            CSel(1, 2, CDict([CLit(1, "int"), CLit(2, "int")], "T"),
                 from_dict=True))])
        assert value_to_python(ev, ev.run("main")) == 2
        assert ev.stats.dict_constructions == 1
        assert ev.stats.dict_selections == 1

    def test_constructor_saturation(self):
        from repro.coreir.syntax import CCon
        ev = self.evaluator([CoreBinding(
            "main", capp(CCon(":", 2), CLit(1, "int"),
                         CCon("[]", 0)))])
        out = value_to_python(ev, ev.run("main"))
        assert out == [1]

    def test_unbound_variable(self):
        ev = self.evaluator([CoreBinding("main", CVar("ghost"))])
        with pytest.raises(EvalError, match="unbound"):
            ev.run("main")

    def test_apply_non_function(self):
        ev = self.evaluator([CoreBinding(
            "main", CApp(CLit(1, "int"), CLit(2, "int")))])
        with pytest.raises(EvalError, match="cannot apply"):
            ev.run("main")

    def test_tail_calls_do_not_grow_python_stack(self):
        # A loop of 100k tail calls must not blow the recursion limit.
        from repro.coreir.syntax import CCase, CLitAlt
        ev = Evaluator(CoreProgram([CoreBinding(
            "loop",
            CLam(["n"], CCase(
                CVar("n"), [],
                [CLitAlt(0, "int", CLit(42, "int"))],
                capp(CVar("loop"),
                     capp(CVar("primSubInt"), CVar("n"), CLit(1, "int"))))))]),
            __import__("repro.prelude.primitives",
                       fromlist=["PRIMITIVES"]).PRIMITIVES())
        result = ev.run_expr(capp(CVar("loop"), CLit(100_000, "int")))
        assert value_to_python(ev, result) == 42


COUNT = """
count :: Int -> Int
count n = if n == 0 then 0 else 1 + count (n - 1)
"""


class TestDepthBudget:
    """Each interpreted level costs a few Python frames, so every one of
    the eval_depth_limit (200,000) levels must be reachable under the
    big-stack recursion limit: running out is the evaluator's own
    ResourceLimitError, never Python's recursion limit."""

    def test_budget_reached_through_run(self):
        from repro.errors import ResourceLimitError
        program = compile_source(COUNT + "main = count 250000")
        with pytest.raises(ResourceLimitError) as info:
            program.run("main")
        assert info.value.limit == "eval_depth_limit"
        assert program.last_stats.max_stack == 200_001

    def test_budget_reached_through_server_eval(self):
        from repro.service.server import (CompileServer, CompileService,
                                          ServiceClient)
        options = CompilerOptions(server_workers=1, request_timeout=600.0)
        server = CompileServer(service=CompileService(options))
        port = server.start()
        try:
            with ServiceClient("127.0.0.1", port) as client:
                r = client.request("eval", source=COUNT,
                                   expr="count 250000")
                assert not r["ok"], r
                assert r["error"]["code"] == "limit", r
                assert r["error"]["limit"] == "eval_depth_limit", r
                assert client.request("ping")["ok"]
        finally:
            server.stop()


def _compile_workload_programs(count: int = 10):
    """Fresh programs of the perfbench compile workload (seed 3), with
    the value ``main`` must have."""
    import importlib.util
    import pathlib
    path = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
            / "workloads.py")
    spec = importlib.util.spec_from_file_location("_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = workloads.rng_for(3, "compile")
    for i, shape in enumerate(workloads.SHAPES[:count]):
        model = workloads.ClassProgram(rng, shape, f"3.{i}")
        yield compile_source(model.source()), model.value()


class TestNoCyclesThroughCompiledCode:
    def test_one_shot_run_leaves_no_cyclic_garbage(self):
        # The tree-walking evaluator this engine replaced left 372-575
        # unreachable objects per program here (its top-level frame and
        # thunks referred to each other); compiled code must not add
        # to that, and a dropped one-shot evaluator is freed by
        # reference counting.
        import gc
        garbage = []
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for program, expected in _compile_workload_programs():
                gc.collect()
                assert program.run("main") == expected
                garbage.append(gc.collect())
        finally:
            if enabled:
                gc.enable()
        assert max(garbage) <= 100, garbage

    def test_warm_program_pickles_without_compiled_code(self):
        import pickle
        from repro.coreir.eval import EvalStats, Runtime
        program, expected = next(_compile_workload_programs(1))
        compiled = program.compile_expr("main")
        assert program.eval_compiled(compiled, reuse=True) == expected
        assert program._eval_pool, "the evaluator went back to the pool"
        state = program.__getstate__()
        assert "_eval_pool" not in state
        assert type(state["last_stats"]) is EvalStats
        assert not isinstance(state["last_stats"], Runtime)
        clone = pickle.loads(pickle.dumps(program))
        assert clone.run("main") == expected
        assert clone.eval_compiled(compiled, reuse=True) == expected
