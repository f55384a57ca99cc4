"""Work a binding-local transform already did on a program's prefix.

Dictionary hoisting (§8.8) and inner entry points (§6.3) rewrite a
program one top-level binding at a time.  What they make of a binding
depends only on that binding, on generated names a user program cannot
write (``d$…``, ``sel$…``; see :mod:`repro.util.names`) and, for
hoisting, on a fresh-name counter.  Every compile stacked on a prelude
snapshot starts with the same prelude binding *objects*, and
elaboration is deterministic and coherent (Bottu et al.), so each
transform's output over them is the same every time.  A
:class:`DonePrefix` records that output once, when the snapshot is
built; the transform splices it in and continues over the bindings
after it.  A program whose leading bindings are not the recorded
objects — a cold compile, a foreign prefix — is transformed from the
start, by the same function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Sequence, Tuple

from repro.coreir.syntax import CoreBinding


@dataclass(frozen=True)
class DonePrefix:
    """One transform's output over a run of leading bindings."""

    #: the bindings the transform was given, matched by identity
    inputs: Tuple[CoreBinding, ...] = ()
    #: what the transform made of them, in order
    outputs: Tuple[CoreBinding, ...] = ()
    #: the transform's fresh-name counters after the last input
    names: Mapping[str, int] = field(default_factory=dict)

    def resume(self, bindings: Sequence[CoreBinding]
               ) -> Tuple[List[CoreBinding], Sequence[CoreBinding],
                          Mapping[str, int]]:
        """``(done, todo, names)``: when *bindings* start with exactly
        :attr:`inputs` (the same objects), the recorded outputs, the
        bindings after them and the counters to continue from;
        otherwise nothing done, all of *bindings* and fresh counters."""
        n = len(self.inputs)
        if n and len(bindings) >= n and all(
                a is b for a, b in zip(self.inputs, bindings)):
            return list(self.outputs), bindings[n:], self.names
        return [], bindings, {}


#: the record of a transform that has done nothing yet
NOTHING_DONE = DonePrefix()
