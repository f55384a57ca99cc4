"""Prelude snapshot tests: the warm path must be observationally
identical to one-shot compilation — same schemes, same core binding
order, same results — with forks fully isolated from one another."""

from __future__ import annotations

import copy
import pathlib
import re

import pytest

from repro import CompilerOptions, compile_source
from repro.cli import dump_after_observer
from repro.coreir.pretty import pp_program
from repro.coreir.syntax import CoreProgram
from repro.errors import ReproError
from repro.modules import build_modules
from repro.options import NAIVE, OPTIMIZED
from repro.pipeline.passes import ENTRY_POINTS, HOIST
from repro.service.snapshot import (
    PreludeSnapshot,
    clear_default_snapshots,
    compile_with_snapshot,
    get_default_snapshot,
    prelude_fingerprint,
)

PROGRAM = """
class Shape a where
  area :: a -> Int

data Circle = Circle Int
data Square = Square Int

instance Shape Circle where
  area (Circle r) = 3 * r * r

instance Shape Square where
  area (Square s) = s * s

total :: Shape a => [a] -> Int
total xs = sum (map area xs)

main = total [Circle 2, Circle 3] + total [Square 3] + length [1, 2, 3]
"""


@pytest.fixture(scope="module")
def snapshot():
    return PreludeSnapshot.build(CompilerOptions())


class TestEquivalence:
    def test_same_schemes(self, snapshot):
        cold = compile_source(PROGRAM)
        warm = compile_with_snapshot(PROGRAM, snapshot)
        assert set(cold.schemes) == set(warm.schemes)
        for name, scheme in cold.schemes.items():
            assert str(scheme) == str(warm.schemes[name]), name

    def test_same_core_binding_order(self, snapshot):
        cold = compile_source(PROGRAM)
        warm = compile_with_snapshot(PROGRAM, snapshot)
        assert [b.name for b in cold.core.bindings] \
            == [b.name for b in warm.core.bindings]

    def test_same_result(self, snapshot):
        cold = compile_source(PROGRAM)
        warm = compile_with_snapshot(PROGRAM, snapshot)
        assert cold.run("main") == warm.run("main") == (12 + 27) + 9 + 3

    def test_same_compile_stats(self, snapshot):
        cold = compile_source(PROGRAM)
        warm = compile_with_snapshot(PROGRAM, snapshot)
        skip = ("phases",)  # wall times differ; counters must not
        assert {k: v for k, v in vars(cold.compile_stats).items()
                if k not in skip} \
            == {k: v for k, v in vars(warm.compile_stats).items()
                if k not in skip}

    def test_same_pass_sequence(self, snapshot):
        # The warm path runs the same registered passes as the cold
        # one (the prelude prefix is skipped, not replaced by ad-hoc
        # code), so the phase traces list identical pass names.
        cold = compile_source(PROGRAM)
        warm = compile_with_snapshot(PROGRAM, snapshot)
        assert cold.compile_stats.phases.names() \
            == warm.compile_stats.phases.names()
        # Cold runs every per-unit pass twice (prelude + user), warm
        # once (user only).
        cold_parse = [t for t in cold.compile_stats.phases.timings
                      if t.name == "parse"][0]
        warm_parse = [t for t in warm.compile_stats.phases.timings
                      if t.name == "parse"][0]
        assert cold_parse.calls == 2
        assert warm_parse.calls == 1

    def test_warm_eval_and_typeof(self, snapshot):
        warm = compile_with_snapshot(PROGRAM, snapshot)
        assert warm.eval("area (Square 5)") == 25
        assert warm.type_of("total") == "Shape a => [a] -> Int"


OPTION_SETS = {"default": CompilerOptions(), "naive": NAIVE,
               "optimized": OPTIMIZED}

MODTREE = pathlib.Path(__file__).resolve().parents[1] / "examples" / "modtree"


def printed(program) -> str:
    return pp_program(program.core, annotations=True)


_MATCH_NAME = re.compile(r"\b(m|fail|p)\$\d+\b")


def match_names_renumbered(text: str) -> str:
    """*text* with the match compiler's local names (``m$``, ``fail$``,
    ``p$``) renumbered per line in order of appearance.  A cold compile
    translates the prelude and the program with one name supply, a
    fork the program alone, so only these numbers may differ."""
    def line(row: str) -> str:
        seen: dict = {}
        return _MATCH_NAME.sub(
            lambda m: seen.setdefault(m.group(0),
                                      f"{m.group(1)}${len(seen) + 1}"),
            row)
    return "\n".join(line(row) for row in text.splitlines())


def without_recorded_prefix(snapshot):
    """The same snapshot with no recorded transform output: its forks
    hoist and entry-point the prelude afresh, as a cold compile does."""
    bare = copy.copy(snapshot)
    bare.prefix_done = {}
    return bare


class TestTransformedPrefix:
    """The snapshot carries the prelude's hoisted and entry-pointed
    bindings; forks splice them in.  The printed core (annotations on)
    must be byte-identical to a fork that transforms the prelude
    afresh, and equal to a cold compile's up to the renumbered match
    compiler locals."""

    @pytest.mark.parametrize("label", sorted(OPTION_SETS))
    def test_fork_prints_like_a_cold_compile(self, label):
        options = OPTION_SETS[label]
        snap = PreludeSnapshot.build(options)
        warm = compile_with_snapshot(PROGRAM, snap)
        afresh = compile_with_snapshot(PROGRAM,
                                       without_recorded_prefix(snap))
        cold = compile_source(PROGRAM, options)
        assert printed(warm) == printed(afresh)
        assert match_names_renumbered(printed(warm)) \
            == match_names_renumbered(printed(cold))
        assert warm.run("main") == cold.run("main") == 51

    @pytest.mark.parametrize("pass_name", [HOIST, ENTRY_POINTS])
    def test_dump_after_transform_is_unchanged(self, snapshot, pass_name,
                                               capsys):
        def dump(**how) -> str:
            compile_source(PROGRAM, observer=dump_after_observer(pass_name),
                           **how)
            return capsys.readouterr().out

        cold = dump()
        warm = dump(snapshot=snapshot)
        assert cold.startswith(f"-- after {pass_name}:")
        assert warm == dump(snapshot=without_recorded_prefix(snapshot))
        assert match_names_renumbered(warm) == match_names_renumbered(cold)

    def test_records_follow_the_enabled_transforms(self, snapshot):
        assert set(snapshot.prefix_done) == {HOIST, ENTRY_POINTS}
        hoisted = snapshot.prefix_done[HOIST]
        assert hoisted.inputs == snapshot.core_bindings
        assert all(a is b for a, b in zip(hoisted.inputs,
                                          snapshot.core_bindings))
        # Entry points run over the hoisted output, as in the pipeline.
        assert snapshot.prefix_done[ENTRY_POINTS].inputs == hoisted.outputs
        assert PreludeSnapshot.build(NAIVE).prefix_done == {}

    def test_forks_share_the_transformed_prelude(self, snapshot):
        # Default options run no whole-program transform after entry
        # points, so every prelude binding of a fork is the snapshot's
        # own transformed object, shared by all forks.
        done = snapshot.prefix_done[ENTRY_POINTS].outputs
        one = compile_with_snapshot(PROGRAM, snapshot)
        two = compile_with_snapshot("main = length [True]", snapshot)
        n = len(snapshot.core_bindings)
        for program in (one, two):
            assert len(program.core.bindings) > n
            assert all(a is b for a, b in
                       zip(program.core.bindings[:n], done))

    def test_hoisted_names_continue_after_the_prelude(self, snapshot):
        # The user program's floats are numbered on from the prelude's,
        # exactly as when one hoisting run covers both.
        used = snapshot.prefix_done[HOIST].names["hd"]
        source = ("class C a where { c :: a -> Int }\n"
                  "instance C Int where { c x = x }\n"
                  "instance C a => C [a] where { c xs = sum (map c xs) }\n"
                  "f :: C a => [a] -> Int -> Int\n"
                  "f xs n = if n == 0 then 0 else c [xs] + f xs (n - 1)\n"
                  "main = f [1, 2] 3\n")
        warm = compile_with_snapshot(source, snapshot)
        assert f"hd${used + 1}" in printed(warm)
        assert printed(warm) == printed(compile_with_snapshot(
            source, without_recorded_prefix(snapshot)))
        assert warm.run("main") == 9

    @pytest.mark.parametrize("label", sorted(OPTION_SETS))
    def test_link_modules_prints_as_without_the_record(self, label):
        options = OPTION_SETS[label]
        snap = PreludeSnapshot.build(options)
        spliced = build_modules([str(MODTREE)], options=options,
                                snapshot=snap, jobs=1).program
        afresh = build_modules([str(MODTREE)], options=options,
                               snapshot=without_recorded_prefix(snap),
                               jobs=1).program
        assert printed(spliced) == printed(afresh)
        assert spliced.run("main") == afresh.run("main")

    def test_compiled_program_drops_its_kernel_ast(self, snapshot):
        # Only the prelude's (shared) dictionary-converted bindings
        # stay with a finished program; its own are dead after
        # translation.
        warm = compile_with_snapshot(PROGRAM, snapshot)
        assert len(warm._inferencer.output) == snapshot.n_bindings
        assert warm.eval("total [Square 2]") == 4
        assert len(warm._inferencer.output) == snapshot.n_bindings


class TestIsolation:
    def test_forks_do_not_see_each_other(self, snapshot):
        one = compile_with_snapshot("lucky = 13", snapshot)
        two = compile_with_snapshot("main = 1", snapshot)
        assert one.eval("lucky") == 13
        with pytest.raises(ReproError):
            two.eval("lucky")

    def test_user_classes_do_not_leak(self, snapshot):
        compile_with_snapshot(PROGRAM, snapshot)
        # A later fork must not know the first fork's class/instances.
        with pytest.raises(ReproError):
            compile_with_snapshot("main = area (Circle 1)", snapshot)

    def test_snapshot_core_is_untouched(self, snapshot):
        # Forks transform the prelude by splicing in the recorded
        # output; the frozen core itself must stay as it was built.
        before = snapshot.core_bindings
        text = pp_program(CoreProgram(list(before)), annotations=True)
        compile_with_snapshot(PROGRAM, snapshot)
        compile_with_snapshot("main = length [True]", snapshot)
        assert snapshot.core_bindings is before
        assert pp_program(CoreProgram(list(before)),
                          annotations=True) == text

    def test_repeated_compiles_stay_stable(self, snapshot):
        runs = [compile_with_snapshot(PROGRAM, snapshot).run("main")
                for _ in range(3)]
        assert runs == [runs[0]] * 3


class TestFingerprints:
    def test_fingerprint_tracks_options(self):
        a = prelude_fingerprint(CompilerOptions())
        b = prelude_fingerprint(CompilerOptions(hoist_dictionaries=False))
        assert a != b

    def test_service_options_do_not_change_fingerprint(self):
        a = prelude_fingerprint(CompilerOptions())
        b = prelude_fingerprint(CompilerOptions(cache_size=7,
                                                server_workers=2))
        assert a == b

    def test_options_mismatch_rejected(self, snapshot):
        with pytest.raises(ValueError):
            compile_with_snapshot(
                "main = 1", snapshot,
                options=CompilerOptions(hoist_dictionaries=False))

    def test_default_registry_shares_snapshots(self):
        clear_default_snapshots()
        first = get_default_snapshot(CompilerOptions())
        second = get_default_snapshot(CompilerOptions())
        assert first is second
        other = get_default_snapshot(
            CompilerOptions(hoist_dictionaries=False))
        assert other is not first


class TestDriverIntegration:
    def test_compile_source_takes_snapshot(self, snapshot):
        program = compile_source("main = 2 + 3", snapshot=snapshot)
        assert program.run("main") == 5

    def test_snapshot_ignored_without_prelude(self, snapshot):
        # include_prelude=False bypasses the snapshot path entirely.
        program = compile_source("main x = x", include_prelude=False,
                                 snapshot=snapshot)
        assert "length" not in program.schemes
