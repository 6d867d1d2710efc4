"""Static SDF analysis: repetition vectors, consistency, deadlock.

These are the SDF3-style checks a mapping flow runs before anything else:
an inconsistent graph cannot execute forever in bounded memory; a deadlocked
one cannot execute at all.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import SDFGraph


class InconsistentGraphError(ValueError):
    """The balance equations have no non-trivial solution."""


class DeadlockError(RuntimeError):
    """The graph cannot complete one iteration from its initial tokens."""


def repetition_vector(graph: SDFGraph) -> dict[str, int]:
    """Smallest positive integer firing counts balancing every channel.

    For each channel ``src -> dst`` with rates p, c the balance equation is
    ``q[src] * p == q[dst] * c``.  Solved by propagating rational ratios
    over the (undirected) topology and scaling to the least common
    denominator.  Raises :class:`InconsistentGraphError` when a cycle of
    constraints contradicts itself.
    """
    if graph.num_actors == 0:
        return {}
    ratios: dict[str, Fraction] = {}
    adjacency: dict[str, list[tuple[str, Fraction]]] = {
        a: [] for a in graph.actors
    }
    for c in graph.channels.values():
        # q[dst] = q[src] * p / c
        adjacency[c.src].append((c.dst, Fraction(c.production, c.consumption)))
        adjacency[c.dst].append((c.src, Fraction(c.consumption, c.production)))

    for start in graph.actors:
        if start in ratios:
            continue
        ratios[start] = Fraction(1)
        stack = [start]
        while stack:
            actor = stack.pop()
            for neighbour, ratio in adjacency[actor]:
                implied = ratios[actor] * ratio
                if neighbour in ratios:
                    if ratios[neighbour] != implied:
                        raise InconsistentGraphError(
                            f"balance conflict at actor {neighbour!r}: "
                            f"{ratios[neighbour]} vs {implied}"
                        )
                else:
                    ratios[neighbour] = implied
                    stack.append(neighbour)

    # Scale each connected component independently to smallest integers.
    # (Components are independent; scaling globally is also fine and
    # simpler: use the lcm of all denominators, then divide by gcd.)
    from math import gcd, lcm

    denominators = [r.denominator for r in ratios.values()]
    scale = lcm(*denominators) if denominators else 1
    counts = {a: int(r * scale) for a, r in ratios.items()}
    g = 0
    for v in counts.values():
        g = gcd(g, v)
    if g > 1:
        counts = {a: v // g for a, v in counts.items()}
    return counts


def is_consistent(graph: SDFGraph) -> bool:
    """True when the balance equations admit a solution."""
    try:
        repetition_vector(graph)
        return True
    except InconsistentGraphError:
        return False


def check_deadlock(graph: SDFGraph) -> list[str]:
    """Try to fire one full iteration; return the firing order found.

    Raises :class:`DeadlockError` if no admissible sequential schedule
    exists from the initial token distribution (e.g. a cycle without
    enough initial tokens).
    """
    reps = repetition_vector(graph)
    remaining = dict(reps)
    tokens = {c.name: c.initial_tokens for c in graph.channels.values()}
    order: list[str] = []
    total = sum(remaining.values())
    while total > 0:
        fired = False
        for actor in graph.actors:
            if remaining[actor] == 0:
                continue
            if all(
                tokens[c.name] >= c.consumption
                for c in graph.in_channels(actor)
            ):
                for c in graph.in_channels(actor):
                    tokens[c.name] -= c.consumption
                for c in graph.out_channels(actor):
                    tokens[c.name] += c.production
                remaining[actor] -= 1
                total -= 1
                order.append(actor)
                fired = True
        if not fired:
            stuck = [a for a, r in remaining.items() if r > 0]
            raise DeadlockError(
                f"graph {graph.name!r} deadlocks; actors stuck: {stuck}"
            )
    return order


def is_live(graph: SDFGraph) -> bool:
    """True when one iteration can complete (no deadlock)."""
    try:
        check_deadlock(graph)
        return True
    except DeadlockError:
        return False
