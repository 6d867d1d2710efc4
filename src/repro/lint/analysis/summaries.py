"""Transitive effect summaries over the call graph.

For every function and every effect kind recorded in
:mod:`~repro.lint.analysis.facts`, compute whether the effect is
*reachable* through calls, and keep the **shortest witness chain** —
the minimal call path from the function to the site that produces the
effect.  Ties are broken lexicographically on the chain tuple, so the
reported chain is a pure function of the project's facts: runs on
different machines print the same witness.

Direct effects (the function's own body) are kept separate from
reached effects (via a callee): the intraprocedural rules already
report direct sites, and the transitive rules only want to surface
what a per-module walk *cannot* see.

Propagation is a worklist relaxation — effectively shortest-path over
the reversed call graph — which converges on recursion cycles because
an update is accepted only when the new ``(length, chain)`` key is
strictly smaller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .callgraph import CallGraph


@dataclass(frozen=True)
class EffectWitness:
    """One transitive effect with its minimal call chain.

    ``chain`` runs from the summarized function (exclusive) to the
    function whose body produces the effect (inclusive); ``relpath`` /
    ``lineno`` / ``detail`` locate the concrete site.
    """

    kind: str
    chain: tuple[str, ...]
    relpath: str
    lineno: int
    detail: str

    @property
    def sort_key(self) -> tuple:
        return (len(self.chain), self.chain)


@dataclass
class EffectSummaries:
    """Per-function direct and transitive effect tables."""

    graph: CallGraph
    #: func id -> {kind, ...} produced directly by the body.
    direct: dict[str, set[str]] = field(default_factory=dict)
    #: func id -> {kind -> EffectWitness} reachable strictly via calls.
    reached: dict[str, dict[str, EffectWitness]] = field(default_factory=dict)

    def reaches(self, func_id: str, kind: str) -> EffectWitness | None:
        """The witness if ``func_id`` reaches ``kind`` through a call."""
        return self.reached.get(func_id, {}).get(kind)

    def has_direct(self, func_id: str, kind: str) -> bool:
        return kind in self.direct.get(func_id, set())


def _direct_witnesses(
    graph: CallGraph, exclusions: dict[str, set[str]]
) -> dict[str, dict[str, EffectWitness]]:
    """For each function, the best *direct* site per effect kind."""
    out: dict[str, dict[str, EffectWitness]] = {}
    for func_id, fn in graph.functions.items():
        best: dict[str, EffectWitness] = {}
        for effect in fn.effects:
            kind = effect["kind"]
            if func_id in exclusions.get(kind, ()):  # e.g. measured blocks
                continue
            witness = EffectWitness(
                kind=kind,
                chain=(func_id,),
                relpath=graph.relpath_of(func_id),
                lineno=effect["lineno"],
                detail=effect["detail"],
            )
            prev = best.get(kind)
            if prev is None or (witness.lineno, witness.detail) < (
                prev.lineno, prev.detail
            ):
                best[kind] = witness
        if best:
            out[func_id] = best
    return out


def build_summaries(
    graph: CallGraph,
    exclusions: dict[str, set[str]] | None = None,
) -> EffectSummaries:
    """Fixpoint propagation of effects up the call graph.

    ``exclusions`` maps an effect kind to function ids whose *direct*
    sites for that kind are sanctioned (e.g. the engine's measured
    timing block) — they neither get reported nor propagate to callers.
    """
    exclusions = exclusions or {}
    summaries = EffectSummaries(graph=graph)
    direct_sites = _direct_witnesses(graph, exclusions)
    summaries.direct = {
        func_id: set(kinds) for func_id, kinds in direct_sites.items()
    }

    # callers[f] = [(g, lineno at which g calls f), ...]
    callers: dict[str, list[tuple[str, int]]] = {}
    for func_id in graph.functions:
        for callee, lineno in graph.callees(func_id):
            callers.setdefault(callee, []).append((func_id, lineno))

    # best[(func, kind)] = minimal witness whose chain *starts at a
    # callee of func* — i.e. the effect seen through one or more calls
    # for `reached`, or at func itself while relaxing.
    best: dict[tuple[str, str], EffectWitness] = {}
    worklist: list[tuple[str, str]] = []
    for func_id, kinds in direct_sites.items():
        for kind, witness in kinds.items():
            best[(func_id, kind)] = witness
            worklist.append((func_id, kind))

    while worklist:
        func_id, kind = worklist.pop()
        witness = best[(func_id, kind)]
        for caller, _lineno in callers.get(func_id, ()):
            candidate = EffectWitness(
                kind=kind,
                chain=(caller,) + witness.chain,
                relpath=witness.relpath,
                lineno=witness.lineno,
                detail=witness.detail,
            )
            prev = best.get((caller, kind))
            if prev is None or candidate.sort_key < prev.sort_key:
                best[(caller, kind)] = candidate
                worklist.append((caller, kind))

    for (func_id, kind), witness in best.items():
        if len(witness.chain) == 1:
            # Direct-only: the function's own body; already in `direct`.
            continue
        summaries.reached.setdefault(func_id, {})[kind] = EffectWitness(
            kind=kind,
            chain=witness.chain[1:],  # drop func_id itself
            relpath=witness.relpath,
            lineno=witness.lineno,
            detail=witness.detail,
        )
    return summaries


def root_entry_points(
    summaries: EffectSummaries,
    kind: str,
    entry_filter,
) -> list[tuple[str, EffectWitness]]:
    """Entry points to flag for a transitive rule, noise-controlled.

    A function is a *root* for ``kind`` when it passes ``entry_filter``,
    reaches the effect through a call (not its own body — the
    intraprocedural rule owns direct sites), and no caller that also
    passes the filter reaches it: flag the outermost entry point once
    instead of every frame of the chain.
    """
    graph = summaries.graph
    out = []
    for func_id in sorted(graph.functions):
        if not entry_filter(func_id):
            continue
        witness = summaries.reaches(func_id, kind)
        if witness is None:
            continue
        covered = any(
            entry_filter(caller_id)
            and (summaries.reaches(caller_id, kind) is not None)
            for caller_id in _callers_of(graph, func_id)
        )
        if not covered:
            out.append((func_id, witness))
    return out


def _callers_of(graph: CallGraph, func_id: str) -> list[str]:
    out = []
    for candidate in graph.functions:
        for callee, _ in graph.callees(candidate):
            if callee == func_id:
                out.append(candidate)
                break
    return sorted(set(out))


__all__ = [
    "EffectSummaries",
    "EffectWitness",
    "build_summaries",
    "root_entry_points",
]
