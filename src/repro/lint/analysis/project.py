"""ProjectAnalysis: the composed interprocedural view rules consume.

Built once per lint run from the parsed modules and attached to
:class:`repro.lint.core.Project` as ``project.analysis``.  Rules never touch the sub-passes' construction —
they read :attr:`graph`, :attr:`summaries`, and :attr:`bitwidth`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitwidth import BitWidthModel
from .callgraph import CallGraph, build_call_graph
from .facts import ModuleFacts, extract_facts
from .summaries import EffectSummaries, build_summaries

#: Effect sites sanctioned by design, mirrored from the intraprocedural
#: rules' allow-lists (kept literal here so analysis never imports the
#: rule modules): the injectable production clock owns the codebase's
#: one perf_counter call.
SANCTIONED_EFFECTS = {
    "wall_clock": {"repro.obs.clock.WallClock.now"},
}


@dataclass
class ProjectAnalysis:
    """Facts + call graph + summaries + width model for one project."""

    facts: dict[str, ModuleFacts]
    graph: CallGraph
    summaries: EffectSummaries
    bitwidth: BitWidthModel

    def function_line(self, func_id: str) -> tuple[str, int]:
        """(relpath, def lineno) for anchoring findings at entry points."""
        fn = self.graph.functions.get(func_id)
        relpath = self.graph.relpath_of(func_id)
        return relpath, fn.lineno if fn else 1


def build_analysis(contexts) -> ProjectAnalysis:
    """Run the interprocedural passes over parsed module contexts.

    ``contexts`` is an iterable of :class:`repro.lint.core.ModuleContext`
    (duck-typed: ``relpath``, ``module_name``, ``tree``).
    """
    facts: dict[str, ModuleFacts] = {
        ctx.module_name: extract_facts(ctx.module_name, ctx.relpath, ctx.tree)
        for ctx in sorted(contexts, key=lambda c: c.relpath)
    }

    graph = build_call_graph(facts)
    summaries = build_summaries(graph, exclusions=SANCTIONED_EFFECTS)
    bitwidth = BitWidthModel(facts)
    return ProjectAnalysis(
        facts=facts, graph=graph, summaries=summaries, bitwidth=bitwidth
    )


__all__ = ["ProjectAnalysis", "build_analysis", "SANCTIONED_EFFECTS"]
