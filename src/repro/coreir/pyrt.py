"""Runtime support for the compiled (core → Python) backend.

:mod:`repro.coreir.pygen` translates core IR into Python source; the
generated code runs against this tiny runtime:

* :class:`Thunk` — a mutable, memoised suspension (call-by-need);
* :class:`Con` — a saturated data constructor;
* :class:`PFun` — a curried function value carrying its arity, so that
  partial and over-application both work through :func:`apply_fn`;
* counters mirroring the interpreter's :class:`~repro.coreir.eval.EvalStats`
  fields, so compiled runs report the same §9 quantities.

The generated code is self-contained modulo this module — it can be
dumped to a file, inspected, and executed with only ``pyrt`` on the
path, which is exactly what a native backend of the paper's era would
have produced (closure-converted code plus a small RTS).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple


class Counters:
    """The §9 counters, plus the nesting depth of applications in
    progress and its budget (``max_depth``; 0 means none)."""

    __slots__ = ("dict_constructions", "dict_selections", "fun_calls",
                 "prim_calls", "depth", "max_depth")

    def __init__(self, max_depth: int = 0) -> None:
        self.max_depth = max_depth
        self.reset()

    def reset(self) -> None:
        self.dict_constructions = 0
        self.dict_selections = 0
        self.fun_calls = 0
        self.prim_calls = 0
        self.depth = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "dict_constructions": self.dict_constructions,
            "dict_selections": self.dict_selections,
            "fun_calls": self.fun_calls,
            "prim_calls": self.prim_calls,
        }


class Thunk:
    """A suspended computation; ``fn`` is dropped after memoisation."""

    __slots__ = ("fn", "value", "busy")

    def __init__(self, fn: Optional[Callable[[], Any]] = None) -> None:
        self.fn = fn
        self.value: Any = _PENDING
        self.busy = False


_PENDING = object()


class Con:
    """A saturated data constructor value."""

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple[Any, ...]) -> None:
        self.name = name
        self.args = args

    def __repr__(self) -> str:
        return f"Con({self.name}, {len(self.args)})"


class PFun:
    """A function value of known arity, possibly partially applied."""

    __slots__ = ("arity", "fn", "applied", "counters", "is_prim")

    def __init__(self, arity: int, fn: Callable,
                 applied: Tuple[Any, ...] = (),
                 counters: Optional[Counters] = None,
                 is_prim: bool = False) -> None:
        self.arity = arity
        self.fn = fn
        self.applied = applied
        self.counters = counters
        self.is_prim = is_prim


class PyRtError(Exception):
    """Raised by compiled programs (pattern failures, user error)."""


class DepthLimitError(PyRtError):
    """Applications nested deeper than ``Counters.max_depth``."""


def force(value: Any) -> Any:
    """Weak-head normal form."""
    while type(value) is Thunk:
        if value.value is not _PENDING:
            value = value.value
            continue
        if value.busy:
            raise PyRtError("<<loop>>: value depends on itself")
        value.busy = True
        try:
            result = force(value.fn())  # type: ignore[misc]
        finally:
            value.busy = False
        value.value = result
        value.fn = None
        value = result
    return value


def apply_fn(counters: Counters, fn: Any, *args: Any) -> Any:
    """Apply *fn* (after forcing) to thunked arguments, handling
    partial and over-application."""
    fn = force(fn)
    pending: Tuple[Any, ...] = args
    while pending:
        if type(fn) is PFun:
            have = fn.applied + pending[: fn.arity - len(fn.applied)]
            pending = pending[fn.arity - len(fn.applied):]
            if len(have) < fn.arity:
                return PFun(fn.arity, fn.fn, have, fn.counters, fn.is_prim)
            if fn.is_prim:
                counters.prim_calls += 1
            else:
                counters.fun_calls += 1
            depth = counters.depth + 1
            if depth > counters.max_depth > 0:
                raise DepthLimitError(
                    f"applications nest more than {counters.max_depth} "
                    f"levels deep")
            counters.depth = depth
            try:
                fn = force(fn.fn(*have))
            finally:
                counters.depth = depth - 1
        elif isinstance(fn, _ConMaker):
            have = fn.applied + pending[: fn.arity - len(fn.applied)]
            pending = pending[fn.arity - len(fn.applied):]
            if len(have) < fn.arity:
                return _ConMaker(fn.name, fn.arity, have)
            fn = Con(fn.name, tuple(have))
        else:
            raise PyRtError(f"cannot apply non-function value {fn!r}")
    return fn


class _ConMaker:
    """A data constructor used as a first-class (curried) function."""

    __slots__ = ("name", "arity", "applied")

    def __init__(self, name: str, arity: int,
                 applied: Tuple[Any, ...] = ()) -> None:
        self.name = name
        self.arity = arity
        self.applied = applied


def con_maker(name: str, arity: int) -> Any:
    if arity == 0:
        return Con(name, ())
    return _ConMaker(name, arity)


def mkdict(counters: Counters, items: Tuple[Any, ...]) -> Tuple[Any, ...]:
    counters.dict_constructions += 1
    return items

def dsel(counters: Counters, index: int, value: Any) -> Any:
    counters.dict_selections += 1
    return force(value)[index]


def tsel(index: int, value: Any) -> Any:
    return force(value)[index]


def string_value(text: str) -> Any:
    out: Any = Con("[]", ())
    for ch in reversed(text):
        out = Con(":", (ch, out))
    return out


def match_fail(detail: str = "") -> Any:
    raise PyRtError(f"pattern match failure{': ' + detail if detail else ''}")


def to_python(value: Any) -> Any:
    """Mirror of :func:`repro.coreir.eval.value_to_python` for compiled
    values."""
    value = force(value)
    if isinstance(value, tuple):  # dictionaries
        return ("<dict>",)
    if isinstance(value, Con):
        if value.name == "True":
            return True
        if value.name == "False":
            return False
        if value.name == "()":
            return ()
        if value.name.startswith("(,"):
            return tuple(to_python(a) for a in value.args)
        if value.name in ("[]", ":"):
            items: List[Any] = []
            node = value
            while True:
                node = force(node)
                if node.name == "[]":
                    break
                items.append(to_python(node.args[0]))
                node = node.args[1]
            if items and all(isinstance(i, str) and len(i) == 1
                             for i in items):
                return "".join(items)
            return items
        return (value.name, *[to_python(a) for a in value.args])
    if isinstance(value, (PFun, _ConMaker)):
        return "<function>"
    return value


# ---------------------------------------------------------------------------
# Primitive implementations for compiled code.  Scalars are raw Python
# ints/floats/1-char strings; Bool is Con("True"/"False").
# ---------------------------------------------------------------------------

TRUE = Con("True", ())
FALSE = Con("False", ())


def _b(x: bool) -> Con:
    return TRUE if x else FALSE


def _reads_float(s: Any) -> Any:
    text = to_python(s)
    if not isinstance(text, str):
        text = ""
    stripped = text.lstrip()
    i, n = 0, len(stripped)
    if i < n and stripped[i] in "+-":
        i += 1
    start = i
    while i < n and stripped[i].isdigit():
        i += 1
    if i == start:
        return Con("[]", ())
    if i < n and stripped[i] == "." and i + 1 < n and stripped[i + 1].isdigit():
        i += 1
        while i < n and stripped[i].isdigit():
            i += 1
    if i < n and stripped[i] in "eE":
        j = i + 1
        if j < n and stripped[j] in "+-":
            j += 1
        if j < n and stripped[j].isdigit():
            i = j
            while i < n and stripped[i].isdigit():
                i += 1
    try:
        value = float(stripped[:i])
    except ValueError:
        return Con("[]", ())
    pair = (value, string_value(stripped[i:]))
    return Con(":", (Con("(,)", pair), Con("[]", ())))


def _error(msg: Any) -> Any:
    raise PyRtError(f"error: {to_python(msg)}")


def _div(a: int, b: int) -> int:
    if b == 0:
        raise PyRtError("division by zero")
    return a // b


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise PyRtError("division by zero")
    return a % b


def _fdiv(a: float, b: float) -> float:
    if b == 0.0:
        raise PyRtError("division by zero")
    return a / b


def primitives(counters: Counters) -> Dict[str, Any]:
    """The primitive environment for one compiled program instance."""
    f = force

    def p(arity: int, fn: Callable) -> PFun:
        return PFun(arity, fn, (), counters, is_prim=True)

    return {
        "primAddInt": p(2, lambda a, b: f(a) + f(b)),
        "primSubInt": p(2, lambda a, b: f(a) - f(b)),
        "primMulInt": p(2, lambda a, b: f(a) * f(b)),
        "primDivInt": p(2, lambda a, b: _div(f(a), f(b))),
        "primModInt": p(2, lambda a, b: _mod(f(a), f(b))),
        "primNegInt": p(1, lambda a: -f(a)),
        "primEqInt": p(2, lambda a, b: _b(f(a) == f(b))),
        "primLtInt": p(2, lambda a, b: _b(f(a) < f(b))),
        "primLeInt": p(2, lambda a, b: _b(f(a) <= f(b))),
        "primShowInt": p(1, lambda a: string_value(str(f(a)))),
        "primAddFloat": p(2, lambda a, b: f(a) + f(b)),
        "primSubFloat": p(2, lambda a, b: f(a) - f(b)),
        "primMulFloat": p(2, lambda a, b: f(a) * f(b)),
        "primDivFloat": p(2, lambda a, b: _fdiv(f(a), f(b))),
        "primNegFloat": p(1, lambda a: -f(a)),
        "primEqFloat": p(2, lambda a, b: _b(f(a) == f(b))),
        "primLtFloat": p(2, lambda a, b: _b(f(a) < f(b))),
        "primLeFloat": p(2, lambda a, b: _b(f(a) <= f(b))),
        "primShowFloat": p(1, lambda a: string_value(repr(float(f(a))))),
        "primReadsFloat": p(1, _reads_float),
        "primIntToFloat": p(1, lambda a: float(f(a))),
        "primFloatToInt": p(1, lambda a: int(f(a))),
        "primEqChar": p(2, lambda a, b: _b(f(a) == f(b))),
        "primLeChar": p(2, lambda a, b: _b(f(a) <= f(b))),
        "primLtChar": p(2, lambda a, b: _b(f(a) < f(b))),
        "primOrd": p(1, lambda a: ord(f(a))),
        "primChr": p(1, lambda a: chr(f(a))),
        "error": p(1, _error),
        "seq": p(2, lambda a, b: (f(a), b)[1]),
    }
