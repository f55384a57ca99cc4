"""``repro serve`` with a span around each layer's entry point.

Usage::

    python3 perfbench/traced_serve.py --spans OUT.json [--count-nodes] \\
        -- serve --port 0 --set ...

Installs :class:`spans.Tracer` wrappers on the public entry point of
every layer, then runs the unmodified CLI (``repro.cli.main``) with the
arguments after ``--``; when the server shuts down, the spans are
written to ``OUT.json``.  The wrappers replace attributes where the
caller looks them up -- ``repro.pipeline.passes`` imports the front-end
passes by name, so they are patched there.  Nothing under ``src/`` is
changed.  ``--count-nodes`` also stores the size of every compiled
program's core IR (slow: for the count pass only).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def _request_id(args: tuple):
    request = args[1]
    return request.get("id") if isinstance(request, dict) else None


def _unifier_counts(unifier) -> tuple:
    return (unifier.unify_count, unifier.context_reduction_count,
            unifier.constraint_propagations)


def install(tracer: Tracer, count_nodes: bool = False) -> None:
    """Patch every traced entry point in place."""
    import repro.cli as cli
    import repro.driver as driver
    import repro.modules.build as build
    import repro.pipeline.passes as passes
    import repro.specialize.xlink as xlink
    import repro.transform.constdict as constdict
    import repro.transform.entrypoints as entrypoints
    import repro.transform.float_dicts as float_dicts
    from repro.core.infer import Inferencer
    from repro.coreir.eval import Evaluator
    from repro.coreir.syntax import count_nodes as core_nodes
    from repro.service.cache import CompileCache
    from repro.service.server import CompileService
    from repro.service.snapshot import PreludeSnapshot
    from repro.transform.specialize import Specializer

    def patch(owner, field: str, name: str, **how) -> None:
        setattr(owner, field, tracer.wrap(name, getattr(owner, field), **how))

    patch(CompileService, "handle", "server.handle", request_id=_request_id)
    patch(passes, "parse_program", "lang.parse",
          attr=lambda args: len(args[0].encode("utf-8")))
    patch(passes, "desugar_program", "lang.desugar")
    patch(passes, "analyze_program", "static")
    patch(passes, "translate_bindings", "translate")
    patch(passes, "generate_selectors", "selectors")
    patch(Inferencer, "infer_program", "infer",
          counter=lambda args: _unifier_counts(args[0].unifier))
    patch(driver.CompiledProgram, "compile_expr", "infer.expr",
          counter=lambda args: _unifier_counts(args[0]._inferencer.unifier))
    patch(float_dicts, "hoist_dictionaries", "transform.hoist")
    patch(entrypoints, "add_inner_entry_points", "transform.entrypoints")
    patch(constdict, "reduce_constant_dictionaries", "transform.constdict")
    # The link-time specializer runs a Specializer too; its work belongs
    # to the specialize.xmodule span around it.
    plain_run = Specializer.run
    traced_run = tracer.wrap("transform.specialize", plain_run)
    Specializer.run = lambda self: (plain_run(self) if self.xmodule_only
                                    else traced_run(self))
    PreludeSnapshot.build = staticmethod(
        tracer.wrap("snapshot.build", PreludeSnapshot.build))
    patch(PreludeSnapshot, "fork", "snapshot.fork")
    patch(CompileCache, "get", "cache.get")
    patch(CompileCache, "put", "cache.put")
    patch(build, "compile_module", "modules.compile")
    patch(build, "link_modules", "modules.link")
    patch(xlink, "xmodule_specialize", "specialize.xmodule")
    patch(Evaluator, "run", "eval")
    patch(Evaluator, "run_expr", "eval")
    patch(driver, "value_to_python", "eval.deep")
    patch(cli, "render", "encode.render")
    if count_nodes:
        patch(driver, "program_from_context", "core.program",
              attr=lambda args: sum(core_nodes(b.expr)
                                    for b in args[0].core.bindings))

    # Modules of one build compile on a thread pool: carry the
    # submitting request's span over to the pool threads.
    parallel = build.ModuleBuilder._build_parallel

    def build_parallel(graph, jobs, build_one):
        context = tracer.current()

        def build_in_context(name):
            with tracer.adopt(context):
                return build_one(name)

        return parallel(graph, jobs, build_in_context)

    build.ModuleBuilder._build_parallel = staticmethod(build_parallel)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True,
                        help="file the spans are written to at shutdown")
    parser.add_argument("--count-nodes", action="store_true",
                        help="record the core IR size of each program")
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- followed by repro CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    tracer = Tracer()
    install(tracer, count_nodes=args.count_nodes)
    from repro.cli import main as repro_main
    try:
        return repro_main(cli_args)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
