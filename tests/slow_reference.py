"""Slow references for the id-based field code, kept only for tests.

These are the Simplex-keyed greedy coreduction and acyclicity search that
`morsemv.morse` ran before it moved onto the integer ids of the complex's
table.  They read a complex only through its public accessors (`simplices`,
`facets`, `cofacets`) and a field only through `VectorField.up`/`down`, so
they run unchanged on views and tagged copies, and they share no code with
the id versions they check.

The assembly references are the incidence-based trajectory weight and
the boundary assembler that sums the weights of enumerated trajectories,
which `morsemv.morse` and `morsemv.mv` ran before boundaries came from
Forman's flow: they recompute every sign with `incidence` and keep their
own table of case signs.

The prism references are the Simplex-set construction of X~ and of its
fields V and W that `morsemv.verify` ran before it moved onto X~'s ids:
the block formula on vertex names, the prism closed on its own, and the
pairs of V and W written cell by cell.
"""
from __future__ import annotations

import heapq
import random

from morsemv import Simplex, SimplicialComplex, VectorField, incidence
from morsemv.complexes import union
from morsemv.morse import DEFAULT_SEED
from morsemv.mv import Decomposition


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


def trajectory_weight(t) -> int:
    """The sign of a trajectory (anything whose `steps` is a simplex
    sequence) by `incidence`: a downward step x -> y contributes <x, y>, an
    upward one -<y, x>, a same-dimension step nothing."""
    steps = t.steps
    w = 1
    for x, y in zip(steps, steps[1:]):
        dx, dy = len(x.vertices), len(y.vertices)
        if dx > dy:
            w *= incidence(x, y)
        elif dx < dy:
            w *= -incidence(y, x)
    return w


#: the sign of each MV case, on top of `trajectory_weight`
CASE_SIGN = {1: 1, 2: 1, 3: -1, 4: -1, 5: 1}


def reference_weight(t) -> int:
    """The weight of a Trajectory, or of an MVTrajectory with its case sign."""
    return CASE_SIGN.get(getattr(t, "case", 1), 0) * trajectory_weight(t)


def reference_columns(rows, cols, paths_from) -> list[dict[int, int]]:
    """The sparse columns of the matrix with rows and columns indexed by the
    given sequences whose (r, c) entry sums `reference_weight` over the
    trajectories `paths_from(c)[r]`; entries that sum to zero are left out."""
    index = {r: i for i, r in enumerate(rows)}
    columns = []
    for c in cols:
        col = {}
        for r, paths in paths_from(c).items():
            w = sum(reference_weight(t) for t in paths)
            if w:
                col[index[r]] = w
        columns.append(col)
    return columns


def reference_complex_columns(labels, paths_from) -> list[list[dict[int, int]]]:
    """`reference_columns` of every degree of the complex with generators
    `labels[q]` in degree q."""
    return [
        reference_columns(labels[q - 1], labels[q], paths_from) for q in range(1, len(labels))
    ]


class ReferencePrism:
    """The prism over `base`: each base simplex [x_0, ..., x_q] has the
    block of cells

      a_member(alpha, r) = [a(x_0), ..., a(x_r), b(x_r), ..., b(x_q)],  0 <= r <= q,
      b_member(alpha, r) = [a(x_0), ..., a(x_{r-1}), b(x_r), ..., b(x_q)],  0 <= r <= q+1,

    with a(x) = a_tag + x and b(x) = b_tag + x after dropping the first
    `untag` characters of x; the prism is closed from the a_member cells
    over the maximal base simplices."""

    def __init__(self, base: SimplicialComplex, a_tag: str, b_tag: str, untag: int = 0):
        self.base = base
        self.a = lambda alpha: [a_tag + v[untag:] for v in alpha.vertices]
        self.b = lambda alpha: [b_tag + v[untag:] for v in alpha.vertices]
        self.complex = SimplicialComplex(
            self.a_member(alpha, r)
            for alpha in base.maximal_simplices
            for r in range(alpha.dim + 1)
        )
        a_names = {a_tag + v[untag:] for v in base.vertices}
        self.interior = frozenset(
            s for s in self.complex
            if not set(s.vertices) <= a_names and set(s.vertices) & a_names
        )

    def a_member(self, alpha: Simplex, r: int) -> Simplex:
        return Simplex(self.a(alpha)[: r + 1] + self.b(alpha)[r:])

    def b_member(self, alpha: Simplex, r: int) -> Simplex:
        return Simplex(self.a(alpha)[:r] + self.b(alpha)[r:])


def reference_prism(d: Decomposition) -> ReferencePrism | None:
    """The prism of X~ over the intersection copy of d, glued to the A- and
    B-copies by their vertex names; None when the intersection is empty."""
    if d.iab_bar is None:
        return None
    return ReferencePrism(d.iab_bar.complex, d.a_bar.tag, d.b_bar.tag, len(d.iab_bar.tag))


def reference_xtilde(d: Decomposition) -> SimplicialComplex:
    """X~ = A-copy u prism u B-copy, each closed afresh."""
    p = reference_prism(d)
    middle = [] if p is None else [p.complex]
    return union(d.a_bar.complex, *middle, d.b_bar.complex)


def reference_v_pairs(d: Decomposition) -> set[tuple[Simplex, Simplex]]:
    """V: over every base simplex alpha, (b_member(alpha, r), a_member(alpha, r))
    for r = 0..dim alpha."""
    p = reference_prism(d)
    if p is None:
        return set()
    return {
        (p.b_member(alpha, r), p.a_member(alpha, r))
        for alpha in p.base.simplices()
        for r in range(alpha.dim + 1)
    }


def reference_w_pairs(d: Decomposition) -> set[tuple[Simplex, Simplex]]:
    """W: the A- and B-copy fields, extended over the prism interior."""
    pairs = set(d.w_a.pairs) | set(d.w_b.pairs)
    p = reference_prism(d)
    if p is None:
        return pairs
    for alpha, beta in d.w_i.pairs:
        q = beta.dim
        (dropped,) = set(beta.vertices) - set(alpha.vertices)
        if beta.vertices.index(dropped) == 0:
            pairs.add((p.a_member(alpha, 0), p.a_member(beta, 1)))
            pairs.add((p.b_member(beta, 1), p.a_member(beta, 0)))
            pairs.update((p.b_member(beta, r), p.a_member(beta, r)) for r in range(2, q + 1))
        else:
            pairs.add((p.a_member(alpha, 0), p.a_member(beta, 0)))
            pairs.update((p.b_member(beta, r), p.a_member(beta, r)) for r in range(1, q + 1))
        pairs.update((p.b_member(alpha, r), p.a_member(alpha, r)) for r in range(1, q))
    for gamma in d.w_i.critical():
        pairs.update(
            (p.b_member(gamma, r), p.a_member(gamma, r)) for r in range(1, gamma.dim + 1)
        )
    return pairs
