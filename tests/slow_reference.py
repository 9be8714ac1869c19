"""Slow references for the id-based field code, kept only for tests.

These are the Simplex-keyed greedy coreduction and acyclicity search that
`morsemv.morse` ran before it moved onto the integer ids of the complex's
table.  They read a complex only through its public accessors (`simplices`,
`facets`, `cofacets`) and a field only through `VectorField.up`/`down`, so
they run unchanged on views and tagged copies, and they share no code with
the id versions they check.
"""
from __future__ import annotations

import heapq
import random

from morsemv import Simplex, SimplicialComplex, VectorField
from morsemv.morse import DEFAULT_SEED


def reference_greedy(
    x: SimplicialComplex, strategy: str = "lexicographic", seed: int | None = None
) -> tuple[tuple[tuple[Simplex, Simplex], ...], tuple[Simplex, ...]]:
    """(pairs ordered by tau, critical simplices by dimension then canonical
    order) of the greedy coreduction field, with the tie-breaks of
    `greedy_gvf`: smallest (dimension, rank) first, rank the canonical
    position ("lexicographic") or a seeded shuffle of it ("random")."""
    ordered = list(x.simplices())
    if strategy == "random":
        random.Random(DEFAULT_SEED if seed is None else seed).shuffle(ordered)
    rank = {s: i for i, s in enumerate(ordered)}

    alive = set(x.simplices())
    live_facets = {s: s.dim + 1 for s in alive if s.dim >= 1}
    candidates: list[tuple[int, int, Simplex]] = []
    criticals_heap = [(s.dim, rank[s], s) for s in alive]
    heapq.heapify(criticals_heap)

    def kill(s: Simplex) -> None:
        alive.discard(s)
        for t in x.cofacets(s):
            if t in alive:
                live_facets[t] -= 1
                if live_facets[t] == 1:
                    heapq.heappush(candidates, (t.dim, rank[t], t))

    pairs: list[tuple[Simplex, Simplex]] = []
    critical: list[Simplex] = []
    while alive:
        tau = None
        while candidates:
            _, _, top_c = candidates[0]
            if top_c in alive and live_facets[top_c] == 1:
                tau = heapq.heappop(candidates)[2]
                break
            heapq.heappop(candidates)
        if tau is not None:
            (sigma,) = (f for f in x.facets(tau) if f in alive)
            pairs.append((sigma, tau))
            kill(sigma)
            kill(tau)
        else:
            while criticals_heap:
                s = heapq.heappop(criticals_heap)[2]
                if s in alive:
                    critical.append(s)
                    kill(s)
                    break
    return (
        tuple(sorted(pairs, key=lambda p: p[1].key)),
        tuple(sorted(critical, key=lambda s: s.key)),
    )


def reference_closed_trajectory(
    v: VectorField, x: SimplicialComplex
) -> tuple[Simplex, ...] | None:
    """A closed trajectory of v on x found by the Simplex-keyed three-colour
    DFS (roots in canonical order per dimension, arcs in facet order), or
    None when v is a gradient field on x."""

    def arcs(tau: Simplex):
        down = v.down(tau)
        for sigma in x.facets(tau):
            if sigma != down:
                nxt = v.up(sigma)
                if nxt is not None:
                    yield sigma, nxt

    WHITE, GRAY, BLACK = 0, 1, 2
    for q in range(1, x.dim + 1):
        colour: dict[Simplex, int] = {}
        for root in x.simplices(q):
            if colour.get(root, WHITE) != WHITE:
                continue
            colour[root] = GRAY
            path = [root]
            via: list[Simplex] = []
            stack = [arcs(root)]
            while stack:
                moved = False
                for sigma, nxt in stack[-1]:
                    c = colour.get(nxt, WHITE)
                    if c == GRAY:
                        i = path.index(nxt)
                        witness: list[Simplex] = []
                        for j in range(i, len(path) - 1):
                            witness += [path[j], via[j]]
                        witness += [path[-1], sigma, nxt]
                        return tuple(witness)
                    if c == WHITE:
                        colour[nxt] = GRAY
                        path.append(nxt)
                        via.append(sigma)
                        stack.append(arcs(nxt))
                        moved = True
                        break
                if not moved:
                    colour[path[-1]] = BLACK
                    stack.pop()
                    path.pop()
                    if via:
                        via.pop()
    return None
