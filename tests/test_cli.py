"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import build_options, main, render


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.mhs"
    path.write_text(
        "double :: Num a => a -> a\n"
        "double x = x + x\n"
        "main = (double 4, show (double 1.5))\n")
    return str(path)


class TestRun:
    def test_run_main(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "(8, '3.0')"

    def test_run_expression(self, program_file, capsys):
        assert main(["run", program_file, "-e", "double 100"]) == 0
        assert capsys.readouterr().out.strip() == "200"

    def test_run_other_entry(self, tmp_path, capsys):
        path = tmp_path / "p.mhs"
        path.write_text("answer = (42 :: Int)\nmain = 0\n")
        assert main(["run", str(path), "--entry", "answer"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_stats_flag(self, program_file, capsys):
        assert main(["run", program_file, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "dicts=" in err

    def test_string_results_unquoted(self):
        assert render("abc") == "abc"
        assert render((1, 2)) == "(1, 2)"

    def test_type_error_reported_with_source(self, tmp_path, capsys):
        path = tmp_path / "bad.mhs"
        path.write_text("main = (1 :: Int) + 'c'\n")
        with pytest.raises(SystemExit):
            main(["run", str(path)])
        err = capsys.readouterr().err
        assert "cannot unify" in err
        assert "^" in err  # caret under the offending source

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "boom.mhs"
        path.write_text('main = error "kaput"\n')
        assert main(["run", str(path)]) == 1
        assert "kaput" in capsys.readouterr().err

    def test_time_passes(self, program_file, capsys):
        assert main(["run", program_file, "--time-passes"]) == 0
        err = capsys.readouterr().err
        for name in ("parse", "infer", "translate", "selectors", "total"):
            assert name in err
        assert "specialize" not in err  # disabled by default

    def test_time_passes_reflects_options(self, program_file, capsys):
        assert main(["run", program_file, "--time-passes",
                     "--set", "specialize=true"]) == 0
        assert "specialize" in capsys.readouterr().err

    def test_dump_after_core_pass(self, program_file, capsys):
        assert main(["run", program_file, "--dump-after", "selectors"]) == 0
        out = capsys.readouterr().out
        assert "-- after selectors:" in out
        assert "sel$" in out          # selector bindings are present
        assert "double" in out

    def test_dump_after_frontend_pass(self, program_file, capsys):
        assert main(["run", program_file, "--dump-after", "desugar"]) == 0
        out = capsys.readouterr().out
        assert "-- after desugar:" in out
        assert "<prelude>" in out     # both units are shown

    def test_dump_after_unknown_pass(self, program_file, capsys):
        with pytest.raises(SystemExit):
            main(["run", program_file, "--dump-after", "bogus"])


class TestCheck:
    def test_prints_schemes(self, program_file, capsys):
        assert main(["check", program_file]) == 0
        out = capsys.readouterr().out
        assert "double :: Num a => a -> a" in out

    def test_hides_generated_names(self, program_file, capsys):
        main(["check", program_file])
        out = capsys.readouterr().out
        assert "impl$" not in out
        assert "dflt$" not in out


class TestCheckModules:
    @pytest.fixture
    def module_tree(self, tmp_path):
        tree = tmp_path / "mods"
        tree.mkdir()
        (tree / "A.mhs").write_text(
            "module A (inc) where\ninc :: Int -> Int\ninc x = x + 1\n")
        (tree / "B.mhs").write_text(
            "module B (f) where\nimport A\nf = inc 'c'\n")
        (tree / "C.mhs").write_text(
            "module C (g) where\nimport A\ng = inc 2\n")
        return tree

    def test_directory_triggers_module_mode(self, module_tree, capsys):
        assert main(["check", str(module_tree),
                     "--set", "cache_dir="]) == 1
        err = capsys.readouterr().err
        # the tolerant loop reports B's error AND still checks C
        assert "error" in err and "checked" in err
        assert "cannot unify" in err
        assert "^" in err  # caret rendering with the module's source
        assert "3 modules" in err

    def test_stats_json_reports_diagnostics(self, module_tree, tmp_path,
                                            capsys):
        import json
        stats_file = tmp_path / "check.json"
        main(["check", str(module_tree), "--stats-json", str(stats_file),
              "--set", "cache_dir="])
        capsys.readouterr()
        stats = json.loads(stats_file.read_text())
        assert stats["ok"] is False
        assert stats["n_errors"] == 1
        assert stats["modules"]["B"]["status"] == "error"
        (diag,) = stats["diagnostics"]
        assert diag["module"] == "B"
        assert diag["positions"], "diagnostic lost its positions"

    def test_clean_tree_exits_zero(self, module_tree, capsys):
        (module_tree / "B.mhs").write_text(
            "module B (f) where\nimport A\nf = inc 3\n")
        assert main(["check", str(module_tree),
                     "--set", "cache_dir="]) == 0
        err = capsys.readouterr().err
        assert "0 errors" in err


class TestCore:
    def test_dumps_requested_binding(self, program_file, capsys):
        assert main(["core", program_file, "double"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("double =")
        assert "main =" not in out

    def test_dumps_everything_by_default(self, program_file, capsys):
        main(["core", program_file])
        out = capsys.readouterr().out
        assert "double =" in out and "member =" in out


class TestBuild:
    @pytest.fixture
    def module_file(self, tmp_path):
        path = tmp_path / "Main.mhs"
        path.write_text("module Main where\n"
                        "main :: Int\n"
                        "main = 41 + 1\n")
        return str(path)

    def test_emit_py_is_a_side_effect_of_run(self, module_file, tmp_path,
                                             capsys):
        # --emit-py with the default interp backend must still evaluate
        # --run, not silently exit after writing the file.
        out = tmp_path / "out.py"
        assert main(["build", module_file,
                     "--emit-py", str(out), "--run"]) == 0
        captured = capsys.readouterr()
        assert out.exists()
        assert captured.out.strip() == "42"

    def test_emit_py_is_a_side_effect_of_expr(self, module_file, tmp_path,
                                              capsys):
        out = tmp_path / "out.py"
        assert main(["build", module_file,
                     "--emit-py", str(out), "-e", "main + 1"]) == 0
        captured = capsys.readouterr()
        assert out.exists()
        assert captured.out.strip() == "43"

    def test_backend_py_run(self, module_file, capsys):
        assert main(["build", module_file, "--backend", "py",
                     "--run"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "42"
        assert "backend=py" in captured.err


class TestOptions:
    def test_set_boolean(self, program_file, capsys):
        assert main(["run", program_file, "--set",
                     "hoist_dictionaries=false", "--set",
                     "specialize=true"]) == 0

    def test_set_string(self, program_file):
        assert main(["run", program_file, "--set",
                     "dict_layout=flat"]) == 0

    def test_unknown_option_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["run", program_file, "--set", "warp_speed=9"])

    def test_bad_boolean_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["run", program_file, "--set",
                  "specialize=perhaps"])

    def test_build_options(self):
        opts = build_options(["dict_layout=flat", "eval_step_limit=500",
                              "defaulting=off"])
        assert opts.dict_layout == "flat"
        assert opts.eval_step_limit == 500
        assert opts.defaulting is False


class TestCompiledBackendDoesNotCrash:
    def test_runaway_recursion_exits_cleanly(self, tmp_path):
        # Generated Python recurses on the host stack; on a default
        # thread this program used to kill the process with SIGSEGV
        # (exit 139).  It must end in a ResourceLimitError: exit 1.
        import os
        import pathlib
        import subprocess
        import sys
        (tmp_path / "Main.mhs").write_text(
            "module Main where\n"
            "loop n = if n < 0 then 0 else loop (n + 1)\n"
            "main = loop 0\n")
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "build", str(tmp_path),
             "--backend=py", "--run"],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 1, (proc.returncode, proc.stderr[-2000:])
        assert "raise eval_depth_limit" in proc.stderr, proc.stderr[-2000:]
