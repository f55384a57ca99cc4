"""The performance ledger: one command, three workloads, every layer.

    python3 perfbench/run.py --workload {compile,eval,memo} --seed N \\
        --seconds S --trace {0,1}

Each run starts its own ``repro serve`` subprocess (pinned options, no
disk cache tier), drives it closed-loop over one TCP connection, and
checks every answer against the oracle in ``workloads.py``.

* ``--trace 0`` prints the end-to-end metrics: throughput, median and
  tail latency from the client's raw samples, the share of requests
  answered correctly, set-up time (median of five fresh servers),
  server CPU per request and the server's peak memory.
* ``--trace 1`` runs the server under ``traced_serve.py`` and prints
  the per-layer metrics: self time per request of every layer's entry
  point, ratios from the server's own counters, and exact work counts
  from a second, sequential pass over the start of the same stream.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run is also appended
to ``perfbench/out/ledger.jsonl`` with a machine fingerprint; a traced
run compares its exact counts with earlier traced runs of the same
seed and source there and prints any difference.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from loadgen import (BenchError, Connection, Phase,  # noqa: E402
                     Server, cpu_split, judge, run_tasks, stats)
from spans import load_spans, self_times, tail_percentile  # noqa: E402
from workloads import WORKLOADS, memo_priming  # noqa: E402

#: fresh servers set up per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: tasks in the sequential count pass of a traced run -- enough for
#: the compile workload to overflow the 64-entry program cache
COUNT_TASKS = {"compile": 70, "eval": 20, "memo": 200}

#: which layer each traced span name belongs to
LAYERS = {
    "lang": ("lang.parse", "lang.desugar"),
    "core.static": ("static",),
    "core.infer": ("infer", "infer.expr"),
    "coreir.translate": ("translate", "selectors"),
    "transform+modules": ("transform.hoist", "transform.entrypoints",
                          "transform.constdict", "transform.specialize",
                          "modules.compile", "modules.link",
                          "specialize.xmodule"),
    "coreir.eval": ("eval", "eval.deep"),
    "service.server": ("server.handle", "server.outside"),
    "service.cache": ("cache.get", "cache.put"),
    "service.snapshot": ("snapshot.fork",),
    "cli.render": ("encode.render",),
}
#: the layer each workload was built to load most
EXPECTED_LAYER = {"compile": "transform+modules", "eval": "coreir.eval",
                  "memo": "service.server"}

#: per-request self time metrics: metric -> span names
SELF_MS = {
    "server.handle_ms": ("server.handle",),
    "cache.get_ms": ("cache.get",),
    "cache.put_ms": ("cache.put",),
    "snapshot.fork_ms": ("snapshot.fork",),
    "lang.parse_ms": ("lang.parse",),
    "lang.desugar_ms": ("lang.desugar",),
    "static.ms": ("static",),
    "infer.ms": ("infer",),
    "infer.expr_ms": ("infer.expr",),
    "translate.ms": ("translate",),
    "selectors.ms": ("selectors",),
    "transform.hoist_ms": ("transform.hoist",),
    "transform.entrypoints_ms": ("transform.entrypoints",),
    "transform.constdict_ms": ("transform.constdict",),
    "transform.specialize_ms": ("transform.specialize",),
    "modules.compile_ms": ("modules.compile",),
    "modules.link_ms": ("modules.link",),
    "specialize.xmodule_ms": ("specialize.xmodule",),
    "eval.ms": ("eval", "eval.deep"),
    "encode.render_ms": ("encode.render",),
}

EVAL_COUNTS = ("steps", "allocations", "fun_calls", "dict_selections",
               "dict_constructions")


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def git_commit(root: str) -> str:
    """HEAD of the checkout's own ``.git``, read without running git
    (which would search parent directories); "unknown" outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: str) -> str:
    """sha256 over the program's sources: identifies the code measured
    even where there is no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def machine_fingerprint(root: str) -> Dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "git_commit": git_commit(root),
            "source_sha256": source_digest(root)}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class SetUp:
    """A started server, its connection, and the program handles."""

    server: Server
    conn: Connection
    ids: Iterator[int]
    programs: Dict[str, str]
    ping: Dict[str, Any]
    seconds: float


def set_up(workload: str, seed: int, label: str,
           spans_path: Optional[str] = None,
           count_nodes: bool = False) -> SetUp:
    """Spawn a server and prime it: until the first good ``ping``, then
    the workload's set-up compiles and memo warm-up."""
    spec = WORKLOADS[workload]
    t0 = time.perf_counter()
    server = Server(ROOT, OUT_DIR, label, spans_path, count_nodes)
    server.start()
    try:
        conn = Connection(server.port)
        ids = itertools.count(1)
        ping = conn.request({"id": next(ids), "op": "ping"})
        if judge(("pong",), ping) is not None:
            raise BenchError(f"ping failed: {ping}")
        programs = {}
        for name, source in spec["programs"].items():
            response = conn.request({"id": next(ids), "op": "compile",
                                     "source": source, "schemes": False})
            if judge(("program",), response) is not None:
                raise BenchError(f"set-up compile of {name} failed: "
                                 f"{response}")
            programs[name] = response["result"]["program"]
        if workload == "memo":
            phase = run_tasks(conn, iter([[step] for step in
                                          memo_priming(seed)]),
                              1, programs, ids, "memo priming")
            if phase.failed:
                raise BenchError("memo priming failed: "
                                 + "; ".join(phase.failures))
    except BaseException:
        server.kill()
        raise
    return SetUp(server, conn, ids, programs, ping["result"],
                 time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def ms(seconds: float) -> float:
    return seconds * 1e3


def end_to_end(phase: Phase, workload: str) -> Dict[str, Any]:
    samples = sorted(phase.latencies)
    tail_p, tail = tail_percentile(samples, WORKLOADS[workload]["tail"])
    if tail is None:  # too few samples for any percentile: the maximum
        tail_p, tail = 100.0, samples[-1]
    return {
        "req_per_s": len(samples) / phase.seconds,
        "latency_p50_ms": ms(statistics.median(samples)),
        "latency_tail_ms": ms(tail),
        "tail_percentile": tail_p,
        "samples": len(samples),
        "success_ratio": (phase.attempted - phase.failed) / phase.attempted,
    }


def untraced_run(workload: str, seed: int, seconds: float
                 ) -> Tuple[Dict[str, Any], List[Phase], Dict[str, Any]]:
    spec = WORKLOADS[workload]
    setups: List[float] = []
    for i in range(SETUP_REPEATS):
        setup = set_up(workload, seed, f"{workload}-{i}")
        setups.append(setup.seconds)
        if i < SETUP_REPEATS - 1:
            setup.server.stop(setup.conn)
    server, conn = setup.server, setup.conn
    try:
        cpu0 = server.cpu_seconds()
        phase = run_tasks(conn, spec["tasks"](seed), spec["inflight"],
                          setup.programs, setup.ids, workload,
                          seconds=seconds)
        cpu1 = server.cpu_seconds()
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop(conn)
    e2e = end_to_end(phase, workload)
    metrics = {
        "req_per_s": (e2e["req_per_s"], "1/s"),
        "latency_p50_ms": (e2e["latency_p50_ms"], "ms"),
        "latency_tail_ms": (e2e["latency_tail_ms"], "ms"),
        "success_ratio": (e2e["success_ratio"], "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "server_cpu_ms_per_req": (ms(cpu1 - cpu0) / e2e["samples"],
                                  "ms/req"),
        "server_peak_rss_mb": (peak_rss, "MB"),
    }
    notes = {"tail_percentile": e2e["tail_percentile"],
             "samples": e2e["samples"], "setup_runs_s": setups,
             "p50_ms_by_op": {op: ms(statistics.median(samples))
                              for op, samples in phase.by_op.items()},
             "requests_by_op": {op: len(samples)
                                for op, samples in phase.by_op.items()},
             "ping": setup.ping}
    return metrics, [phase], notes


def _delta(after: Dict[str, Any], before: Dict[str, Any], key: str) -> int:
    return after.get(key, 0) - before.get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def timed_layers(workload: str, seed: int, seconds: float
                 ) -> Tuple[Dict[str, Tuple[float, str]], Phase,
                            Dict[str, float], Dict[str, Any]]:
    """The traced timed phase: per-request self time of every layer."""
    spec = WORKLOADS[workload]
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-timed.json")
    setup = set_up(workload, seed, f"{workload}-traced", spans_path)
    conn, ids = setup.conn, setup.ids
    try:
        before = stats(conn, ids)
        phase = run_tasks(conn, spec["tasks"](seed), spec["inflight"],
                          setup.programs, ids, workload, seconds=seconds)
        after = stats(conn, ids)
    finally:
        setup.server.stop(conn)
    spans = load_spans(spans_path)
    own = self_times(spans)
    n = len(phase.latencies)
    self_ns: Dict[str, int] = {}
    handle_ns: Dict[Any, int] = {}
    parsed_bytes = 0
    snapshot_build_ns = 0
    for span in spans:
        sid, _parent, name, start, end, rid, extra = span
        if name == "snapshot.build":
            snapshot_build_ns = end - start
        if rid not in phase.times:
            continue
        self_ns[name] = self_ns.get(name, 0) + own[sid]
        if name == "server.handle":
            handle_ns[rid] = handle_ns.get(rid, 0) + (end - start)
        elif name == "lang.parse":
            parsed_bytes += extra
    outside_ns = sum((done - sent) - handle_ns.get(rid, 0)
                     for rid, (sent, done) in phase.times.items())
    self_ns["server.outside"] = outside_ns
    per_req = {name: self_ns.get(name, 0) / 1e6 / n for name in self_ns}

    counters0, counters1 = before["server"]["counters"], \
        after["server"]["counters"]
    cache0, cache1 = before["cache"], after["cache"]
    metrics: Dict[str, Tuple[float, str]] = {
        metric: (sum(self_ns.get(s, 0) for s in names) / 1e6 / n, "ms/req")
        for metric, names in SELF_MS.items()}
    eval_ns = self_ns.get("eval", 0) + self_ns.get("eval.deep", 0)
    parse_s = self_ns.get("lang.parse", 0) / 1e9
    metrics.update({
        "server.outside_ms": (outside_ns / 1e6 / n, "ms/req"),
        "server.fastpath_ratio": (_ratio(
            _delta(counters1, counters0, "fastpath_hits"),
            _delta(counters1, counters0, "requests_total")), "ratio"),
        "server.shed": (_delta(counters1, counters0, "shed_total"), "count"),
        "cache.hit_ratio": (_ratio(
            _delta(cache1, cache0, "hits"),
            _delta(cache1, cache0, "hits") + _delta(cache1, cache0,
                                                    "misses")), "ratio"),
        "memo.hit_ratio": (_ratio(
            _delta(counters1, counters0, "expr_cache_hits"),
            _delta(counters1, counters0, "expr_cache_hits")
            + _delta(counters1, counters0, "expr_cache_misses")), "ratio"),
        "snapshot.build_s": (snapshot_build_ns / 1e9, "s"),
        "lang.parse_kb_per_s": (_ratio(parsed_bytes / 1024, parse_s),
                                "KB/s"),
        "eval.us_per_step": (_ratio(eval_ns / 1e3,
                                    phase.eval_stats.get("steps", 0)),
                             "us/step"),
    })
    layers = {layer: sum(per_req.get(name, 0.0) for name in names)
              for layer, names in LAYERS.items()}
    return metrics, phase, layers, setup.ping


def count_pass(workload: str, seed: int
               ) -> Tuple[Dict[str, Tuple[float, str]], Phase]:
    """Exact work counts over the first tasks of the stream, sent one
    at a time to a fresh traced server, so they repeat run to run."""
    spec = WORKLOADS[workload]
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-count.json")
    setup = set_up(workload, seed, f"{workload}-count", spans_path,
                   count_nodes=True)
    conn, ids = setup.conn, setup.ids
    try:
        before = stats(conn, ids)
        phase = run_tasks(conn, spec["tasks"](seed), 1, setup.programs, ids,
                          f"{workload} count pass",
                          max_tasks=COUNT_TASKS[workload])
        after = stats(conn, ids)
    finally:
        setup.server.stop(conn)
    infer = [0, 0, 0]
    nodes = 0
    for _sid, _parent, name, _start, _end, rid, extra in \
            load_spans(spans_path):
        if rid not in phase.times:
            continue
        if name in ("infer", "infer.expr"):
            infer = [a + b for a, b in zip(infer, extra)]
        elif name == "core.program":
            nodes += extra
    # Each edit cycle checks first, so the check is what recompiles:
    # the share of modules it had to compile afresh after one edit.
    checks = phase.module_sets["check"]
    n_modules = sum(c["check"]["n_modules"] for c in checks)
    n_compiled = sum(c["check"]["n_checked"] for c in checks)
    clones = sum(b.get("specialization", {}).get("specialize-xmodule", {})
                 .get("clones", 0) for b in phase.module_sets["build"])
    counts: Dict[str, Tuple[float, str]] = {
        f"eval.{key}": (phase.eval_stats.get(key, 0), "count")
        for key in EVAL_COUNTS}
    counts.update({
        "infer.unify_count": (infer[0], "count"),
        "infer.context_reductions": (infer[1], "count"),
        "infer.constraint_propagations": (infer[2], "count"),
        "core.nodes_out": (nodes, "count"),
        "modules.recompiled_ratio": (_ratio(n_compiled, n_modules), "ratio"),
        "specialize.clones": (clones, "count"),
        "cache.evictions": (_delta(after["cache"], before["cache"],
                                   "evictions"), "count"),
    })
    return counts, phase


def traced_run(workload: str, seed: int, seconds: float):
    metrics, phase, layers, ping = timed_layers(workload, seed, seconds)
    e2e = end_to_end(phase, workload)
    metrics["traced.req_per_s"] = (e2e["req_per_s"], "1/s")
    metrics["traced.latency_p50_ms"] = (e2e["latency_p50_ms"], "ms")
    counts, counted = count_pass(workload, seed)
    metrics.update(counts)
    largest = max(layers, key=layers.get)
    print(f"self time per request by layer ({workload}):")
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<20} {value:10.4f} ms")
    expected = EXPECTED_LAYER[workload]
    verdict = "holds" if largest == expected else "DOES NOT HOLD"
    print(f"design check: largest self time on {workload} is {largest}; "
          f"expected {expected}: {verdict}")
    notes = {"layers_ms_per_req": layers, "largest_layer": largest,
             "design_check": verdict, "samples": e2e["samples"],
             "ping": ping}
    return metrics, [phase, counted], notes


# ---------------------------------------------------------------------------
# Ledger
# ---------------------------------------------------------------------------

#: exact counts that must repeat for a seed
REPEAT_COUNTS = ("eval.steps", "eval.dict_selections", "infer.unify_count",
                 "infer.context_reductions", "modules.recompiled_ratio",
                 "cache.evictions")


def count_repeat_check(ledger: str, record: Dict[str, Any]) -> None:
    """Compare this traced run's exact counts with every earlier traced
    run of the same workload, seed and source in the ledger."""
    key = (record["workload"], record["seed"],
           record["machine"]["source_sha256"])
    earlier = 0
    try:
        with open(ledger, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        lines = []
    for line in lines:
        old = json.loads(line)
        if not old.get("trace") or (old["workload"], old["seed"],
                                    old["machine"]["source_sha256"]) != key:
            continue
        earlier += 1
        for name in REPEAT_COUNTS:
            was = old["metrics"][name]["value"]
            now = record["metrics"][name]["value"]
            if was != now:
                print(f"count-repeat: {name} differs from the run of "
                      f"{old['time']}: {was} then, {now} now")
    if earlier:
        print(f"count-repeat: compared with {earlier} earlier run(s)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="perfbench ledger run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under test at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    split = cpu_split()
    if split is not None:
        os.sched_setaffinity(0, {split[1]})
    try:
        if args.trace:
            metrics, phases, notes = traced_run(args.workload, args.seed,
                                                args.seconds)
        else:
            metrics, phases, notes = untraced_run(args.workload, args.seed,
                                                  args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_fingerprint(ROOT),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "notes": notes,
        "failures": [failure for phase in phases
                     for failure in phase.failures],
    }
    for failure in record["failures"]:
        print(f"failure: {failure}")
    ledger = os.path.join(OUT_DIR, "ledger.jsonl")
    if args.trace:
        count_repeat_check(ledger, record)
    with open(ledger, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<8} {name:<32} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:<8} latency_tail_ms is p"
              f"{notes['tail_percentile']:g} of {notes['samples']} samples")
        for op, p50 in sorted(notes["p50_ms_by_op"].items()):
            print(f"{args.workload:<8} {op:<8} p50 {p50:9.3f} ms over "
                  f"{notes['requests_by_op'][op]} requests")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
