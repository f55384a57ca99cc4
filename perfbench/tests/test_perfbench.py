"""Tests of the benchmark's own arithmetic, streams and oracles.

    python3 -m pytest perfbench/tests -q

The oracle tests compile and run a few generated programs in-process
(``src`` must be importable); everything else is pure Python.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import pytest  # noqa: E402

import workloads  # noqa: E402
from loadgen import bind, judge  # noqa: E402
from spans import (Tracer, beyond, covered, percentile,  # noqa: E402
                   self_times, tail_percentile)


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------

def span(sid, parent, start, end, name="s"):
    return (sid, parent, name, start, end, None, None)


def test_self_time_without_children_is_duration():
    assert self_times([span(1, None, 10, 50)]) == {1: 40}


def test_self_time_subtracts_nested_children():
    spans = [span(1, None, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60),
             span(4, 2, 12, 20)]
    own = self_times(spans)
    assert own == {1: 70, 2: 12, 3: 10, 4: 8}
    # self times of a tree add up to the root's duration
    assert sum(own.values()) == 100


def test_self_time_counts_overlapping_children_once():
    # two pool threads' children overlap in [20, 30]
    spans = [span(1, None, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50)]
    assert self_times(spans)[1] == 100 - 40


def test_children_are_clipped_to_the_parent():
    assert covered(10, 20, [(0, 15), (18, 40)]) == 7
    assert covered(10, 20, [(30, 40)]) == 0
    assert covered(0, 10, [(2, 4), (3, 5), (7, 8), (7, 8)]) == 4


def test_tracer_records_parents_request_ids_and_counts():
    tracer = Tracer()
    counter = {"n": 0}

    def leaf():
        counter["n"] += 3
        return "leaf"

    traced_leaf = tracer.wrap("leaf", leaf,
                              counter=lambda args: (counter["n"],))

    def root(request):
        context = tracer.current()  # taken on the submitting thread
        worker = threading.Thread(target=adopted, args=(context,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return traced_leaf()

    def adopted(context):
        with tracer.adopt(context):
            traced_leaf()

    traced_root = tracer.wrap("root", root,
                              request_id=lambda args: args[0]["id"])
    assert traced_root({"id": 7}) == "leaf"
    by_name = {}
    for sid, parent, name, start, end, rid, extra in tracer.spans:
        by_name.setdefault(tracer.names[name], []).append(
            (sid, parent, rid, extra))
    (root_sid, root_parent, root_rid, _), = by_name["root"]
    assert root_parent is None and root_rid == 7
    assert len(by_name["leaf"]) == 2
    for _sid, parent, rid, extra in by_name["leaf"]:
        assert parent == root_sid and rid == 7 and extra == [3]


# ---------------------------------------------------------------------------
# The tail-percentile rule
# ---------------------------------------------------------------------------

def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 99.9) == 100
    assert percentile([5.0], 99) == 5.0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert beyond(10000, 99.9) == 10
    assert tail_percentile(list(range(10000)))[0] == 99.9
    assert tail_percentile(list(range(9999)))[0] == 99.0
    assert tail_percentile(list(range(1000))) == (99.0, 989)
    assert tail_percentile(list(range(999)))[0] == 95.0
    assert tail_percentile(list(range(200)))[0] == 95.0
    assert tail_percentile(list(range(199)))[0] == 90.0
    assert tail_percentile(list(range(100)))[0] == 90.0
    assert tail_percentile(list(range(99))) == (None, None)


def test_tail_can_be_capped_per_workload():
    assert tail_percentile(list(range(20000)), highest=99.0) == (99.0, 19799)
    assert tail_percentile(list(range(500)), highest=99.0)[0] == 95.0
    assert {spec["tail"] for spec in workloads.WORKLOADS.values()} <= \
        {90.0, 95.0, 99.0, 99.9}


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

def stream_bytes(workload: str, seed: int, n: int) -> bytes:
    """The first *n* tasks' requests and expected answers, as bytes."""
    tasks = workloads.WORKLOADS[workload]["tasks"](seed)
    return "\n".join(json.dumps([request, expect], sort_keys=True)
                     for task in itertools.islice(tasks, n)
                     for request, expect in task).encode("utf-8")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_a_seed_gives_a_byte_identical_stream(workload):
    first = stream_bytes(workload, 3, 60)
    assert first == stream_bytes(workload, 3, 60)
    assert first != stream_bytes(workload, 4, 60)


def test_compile_mix_and_shapes_per_round():
    tasks = list(itertools.islice(workloads.compile_tasks(5), 100))
    ops = [task[0][0]["op"] for task in tasks]
    bad = [task for task in tasks if task[0][1][0] == "error"]
    assert ops.count("check") == 20 and len(bad) == 10
    sources = [task[0][0]["source"] for task in tasks
               if "source" in task[0][0]]
    assert len(set(sources)) == len(sources)  # every program distinct
    lines = [source.count("\n") for source in sources]
    assert 20 <= min(lines) and max(lines) <= 300


def test_handles_are_bound_per_task_and_per_program():
    request = {"op": "eval", "program": workloads.HANDLE, "expr": "main"}
    assert bind(request, "abc", {})["program"] == "abc"
    assert bind({"op": "eval", "program": "$program:tree"}, None,
                {"tree": "k1"})["program"] == "k1"
    assert request["program"] == workloads.HANDLE  # the stream is untouched


def test_judge_flags_wrong_values_and_codes():
    assert judge(("value", "3"), {"ok": True, "result": {"value": "3"}}) \
        is None
    assert "expected value" in judge(("value", "3"),
                                     {"ok": True, "result": {"value": "4"}})
    assert judge(("error", "type.unify"),
                 {"ok": False, "error": {"code": "type.unify"}}) is None
    assert "got type.ambiguous" in judge(
        ("error", "type.unify"),
        {"ok": False, "error": {"code": "type.ambiguous"}})
    assert "expected error" in judge(("error", "type.unify"),
                                     {"ok": True, "result": {}})


# ---------------------------------------------------------------------------
# The oracles, against the compiler, on a tiny seed
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def service():
    from repro import CompilerOptions
    from repro.service.server import CompileService
    return CompileService(CompilerOptions(solver="reduce", lint=False,
                                          cache_dir=""))


def run_in_process(service, workload, n):
    """Run the first *n* tasks of *workload* (seed 1) against an
    in-process service; returns the failures."""
    from repro.coreir.eval import with_big_stack
    spec = workloads.WORKLOADS[workload]
    programs = {}
    for name, source in spec["programs"].items():
        response = service.handle({"id": 0, "op": "compile",
                                   "source": source})
        programs[name] = response["result"]["program"]
    failures = []

    def go():
        for task in itertools.islice(spec["tasks"](1), n):
            handle = None
            for request, expect in task:
                request = bind(request, handle, programs)
                response = service.handle(dict(request, id=1))
                problem = judge(expect, response)
                if problem is not None:
                    failures.append(problem)
                    break
                if expect[0] == "program":
                    handle = response["result"]["program"]

    with_big_stack(go)
    return failures


@pytest.mark.parametrize("workload,n", [("compile", 12), ("eval", 8),
                                        ("memo", 20)])
def test_oracles_agree_with_the_compiler_on_a_tiny_seed(service, workload,
                                                        n):
    assert run_in_process(service, workload, n) == []


def test_priming_requests_are_answered_as_expected(service):
    response = service.handle({"id": 0, "op": "compile",
                               "source": workloads.MEMO_PROGRAM})
    programs = {"memo": response["result"]["program"]}
    for request, expect in workloads.memo_priming(1):
        response = service.handle(dict(bind(request, None, programs), id=1))
        assert judge(expect, response) is None
