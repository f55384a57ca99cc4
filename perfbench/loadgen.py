"""The server under test and the closed-loop client that drives it.

:class:`Server` starts ``repro serve`` (or the traced launcher) as a
subprocess with a pinned configuration, and reads its CPU time and
peak memory from ``/proc``.  :func:`run_tasks` drives it over one TCP
connection: *inflight* sessions, each running one task at a time and
sending a task's next request only after the previous answer came
back and was checked.  The client shares no code with the server.
"""

from __future__ import annotations

import gc
import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from workloads import HANDLE, Step, Task

#: configuration pinned on every server: the environment cannot swap
#: the solver, turn on the lint, or add a disk cache tier
PINNED = ("solver=reduce", "lint=false", "cache_dir=", "cache_size=64")
#: environment variables that would otherwise change the compiler
UNSET_ENV = ("REPRO_SOLVER", "REPRO_LINT")

START_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (no server, lost link)."""


def cpu_split() -> Optional[Tuple[int, int]]:
    """``(server cpu, client cpu)``: with two or more CPUs the server
    and the load process each get one of their own, so the scheduler
    never stacks them on one CPU; None on a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[-1], cpus[0]) if len(cpus) >= 2 else None


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, root: str, out_dir: str, label: str,
                 spans_path: Optional[str] = None,
                 count_nodes: bool = False) -> None:
        self.root = root
        self.log_path = os.path.join(out_dir, f"server-{label}.log")
        serve = ["serve", "--port", "0"]
        for setting in PINNED:
            serve += ["--set", setting]
        if spans_path is None:
            self.argv = [sys.executable, "-m", "repro"] + serve
        else:
            self.argv = [sys.executable,
                         os.path.join(root, "perfbench", "traced_serve.py"),
                         "--spans", spans_path]
            if count_nodes:
                self.argv.append("--count-nodes")
            self.argv += ["--"] + serve
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self) -> None:
        env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        log = open(self.log_path, "wb")
        try:
            split = cpu_split()
            pin = None if split is None else \
                (lambda: os.sched_setaffinity(0, {split[0]}))
            self.proc = subprocess.Popen(
                self.argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT, preexec_fn=pin)
        finally:
            log.close()
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                for line in handle:
                    if b"listening on " in line:
                        address = line.split(b"listening on ")[1].split()[0]
                        self.port = int(address.rsplit(b":", 1)[1])
                        return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise BenchError(f"server did not start; see {self.log_path}")

    def cpu_seconds(self) -> float:
        """utime + stime of the server process."""
        with open(f"/proc/{self.proc.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the process's peak resident set."""
        with open(f"/proc/{self.proc.pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc")

    def stop(self, conn: "Connection") -> None:
        """Ask for a shutdown on *conn* -- the server answers what is in
        flight first -- and wait for the process to exit."""
        try:
            conn.queue({"id": "shutdown", "op": "shutdown"})
            conn.flush()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        finally:
            conn.close()

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


class Connection:
    """A line-delimited JSON connection; requests may pipeline.

    Requests are queued and written together by :meth:`flush`, and
    :meth:`receive` returns every response that has arrived, so a
    pipelined client makes one read and one write per batch rather than
    per request."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._inbox = b""
        self._outbox: List[bytes] = []

    def queue(self, request: Dict[str, Any]) -> None:
        self._outbox.append(json.dumps(request).encode("utf-8") + b"\n")

    def flush(self) -> None:
        if self._outbox:
            self.sock.sendall(b"".join(self._outbox))
            self._outbox.clear()

    def receive(self) -> List[Dict[str, Any]]:
        """Every complete response received, waiting for at least one."""
        while b"\n" not in self._inbox:
            try:
                chunk = self.sock.recv(1 << 16)
            except socket.timeout:
                raise BenchError(f"no response within {REQUEST_TIMEOUT_S}s")
            if not chunk:
                raise BenchError("server closed the connection")
            self._inbox += chunk
        *lines, self._inbox = self._inbox.split(b"\n")
        return [json.loads(line) for line in lines]

    def request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request on an otherwise idle connection."""
        self.queue(request)
        self.flush()
        response, = self.receive()
        return response

    def close(self) -> None:
        self.sock.close()


def judge(expect: Tuple[Any, ...], response: Dict[str, Any]
          ) -> Optional[str]:
    """None if *response* is what *expect* says, else why not."""
    kind = expect[0]
    ok = response.get("ok") is True
    result = response.get("result") or {}
    error = response.get("error") or {}
    if kind == "error":
        if ok:
            return f"expected error {expect[1]}, got success"
        if error.get("code") != expect[1]:
            return (f"expected error {expect[1]}, got {error.get('code')}: "
                    f"{str(error.get('message'))[:200]}")
        return None
    if not ok:
        return f"{error.get('code')}: {str(error.get('message'))[:200]}"
    if kind == "value" and result.get("value") != expect[1]:
        return (f"expected value {expect[1][:80]!r}, got "
                f"{str(result.get('value'))[:80]!r}")
    if kind == "type" and result.get("type") != expect[1]:
        return f"expected type {expect[1]!r}, got {result.get('type')!r}"
    if kind == "check" and result.get("ok") is not True:
        return f"check reported diagnostics: {result.get('diagnostics')}"
    if kind == "program" and not isinstance(result.get("program"), str):
        return "no program handle in the reply"
    if kind == "pong" and result.get("pong") is not True:
        return "ping without pong"
    return None


@dataclass
class Phase:
    """What one run of :func:`run_tasks` saw."""

    latencies: List[float] = field(default_factory=list)  # seconds
    by_op: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: request id -> (send, receive) in ``perf_counter_ns``
    times: Dict[Any, Tuple[int, int]] = field(default_factory=dict)
    eval_stats: Dict[str, int] = field(default_factory=dict)
    #: results of the ``check`` and ``build`` requests, by op
    module_sets: Dict[str, List[Dict[str, Any]]] = field(
        default_factory=lambda: {"check": [], "build": []})
    start_ns: int = 0
    end_ns: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class _Session:
    __slots__ = ("steps", "pos", "handle")

    def __init__(self) -> None:
        self.steps: List[Step] = []
        self.pos = 0
        self.handle: Optional[str] = None


def bind(request: Dict[str, Any], session_handle: Optional[str],
         programs: Dict[str, str]) -> Dict[str, Any]:
    """Fill in the program handle placeholders of one request."""
    handle = request.get("program")
    if handle == HANDLE:
        request = dict(request, program=session_handle)
    elif isinstance(handle, str) and handle.startswith("$program:"):
        request = dict(request, program=programs[handle[len("$program:"):]])
    return request


def run_tasks(conn: Connection, tasks: Iterator[Task], inflight: int,
              programs: Dict[str, str], ids: Iterator[int], label: str,
              seconds: Optional[float] = None,
              max_tasks: Optional[int] = None) -> Phase:
    """Drive *tasks* closed-loop with *inflight* concurrent sessions,
    until *seconds* have passed (no request is sent after that; those
    in flight are awaited) or *max_tasks* tasks have been started.

    A failed request ends its task: the rest of the task depends on it.
    """
    phase = Phase()
    pending: Dict[int, Tuple[_Session, int, Step]] = {}
    unsent: List[Tuple[int, _Session, Step]] = []
    started = 0

    def next_task(session: _Session) -> bool:
        nonlocal started
        if max_tasks is not None and started >= max_tasks:
            return False
        steps = next(tasks, None)
        if steps is None:
            return False
        session.steps = steps
        session.pos = 0
        session.handle = None
        started += 1
        return True

    def send(session: _Session) -> None:
        step = session.steps[session.pos]
        request = bind(step[0], session.handle, programs)
        request_id = next(ids)
        request["id"] = request_id
        phase.attempted += 1
        conn.queue(request)
        unsent.append((request_id, session, step))

    def flush() -> None:
        conn.flush()
        sent = time.perf_counter_ns()
        for request_id, session, step in unsent:
            pending[request_id] = (session, sent, step)
        unsent.clear()

    def receive(response: Dict[str, Any], now: int) -> None:
        entry = pending.pop(response.get("id"), None)
        if entry is None:
            raise BenchError(f"response to an unknown request: "
                             f"{str(response)[:200]}")
        session, sent, (request, expect) = entry
        phase.latencies.append((now - sent) / 1e9)
        phase.by_op.setdefault(request["op"], []).append((now - sent) / 1e9)
        phase.times[response["id"]] = (sent, now)
        problem = judge(expect, response)
        done = True
        if problem is not None:
            phase.failed += 1
            phase.failures.append(f"{label} {request['op']}: {problem}")
        else:
            result = response.get("result") or {}
            if expect[0] == "program":
                session.handle = result["program"]
            if request["op"] == "eval":
                for key, value in (result.get("stats") or {}).items():
                    phase.eval_stats[key] = \
                        phase.eval_stats.get(key, 0) + value
            if request["op"] in phase.module_sets:
                phase.module_sets[request["op"]].append(result)
            session.pos += 1
            done = session.pos >= len(session.steps)
        if deadline is not None and now >= deadline:
            return
        if done and not next_task(session):
            return
        send(session)

    # The client's own garbage collector would stall reads and show up
    # as server latency; what it allocates here is acyclic.
    gc.collect()
    gc.disable()
    try:
        phase.start_ns = time.perf_counter_ns()
        deadline = None if seconds is None \
            else phase.start_ns + int(seconds * 1e9)
        for _ in range(inflight):
            session = _Session()
            if next_task(session):
                send(session)
        flush()
        while pending:
            responses = conn.receive()
            now = time.perf_counter_ns()
            for response in responses:
                receive(response, now)
            flush()
        phase.end_ns = time.perf_counter_ns()
    finally:
        gc.enable()
    return phase


def stats(conn: Connection, ids: Iterator[int]) -> Dict[str, Any]:
    """The server's own counters (``stats`` op), on an idle link."""
    response = conn.request({"id": next(ids), "op": "stats"})
    if not response.get("ok"):
        raise BenchError(f"stats failed: {response}")
    return response["result"]

