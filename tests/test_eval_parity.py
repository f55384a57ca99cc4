"""Evaluator parity: the engine reproduces ``tests/golden/eval_stats.json``.

The goldens pin, for every program of a fixed corpus (the E/A
benchmark programs, the regression program, the examples, the perfbench
``eval`` programs one-shot and on a warm evaluator, run-time failures,
and the terminating fuzz programs of seed 0), the value or error, every
``EvalStats`` counter, ``max_stack``, and the step-limit verdicts at
``steps - 1`` and ``steps``.  The corpus and the runner live in
``tests/golden/regen_eval_stats.py``, which also regenerates the file.
"""

import importlib.util
import json
import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location(
    "regen_eval_stats", HERE / "golden" / "regen_eval_stats.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

GOLDEN = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))
CASES = dict(regen.cases())


def test_corpus_matches_golden_keys():
    # Every golden case still exists in the corpus (fuzz programs that
    # do not terminate are dropped from the file, not from the corpus).
    assert set(GOLDEN) <= set(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_parity(case_id):
    assert CASES[case_id]() == GOLDEN.get(case_id)
