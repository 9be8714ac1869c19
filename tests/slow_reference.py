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
own table of case signs, while `mv` carries its case signs on the arcs of
its glued copies.  The enumerated MV tallies are keyed, as `mv` keys its
generators, by glued ids (`mv._require_generator`).

The prism references are the Simplex-set construction of X~ and of its
fields V and W that `morsemv.verify` ran before it moved onto X~'s ids:
the block formula on vertex names, the prism closed on its own, and the
pairs of V and W written cell by cell.

The table references are the closure on tuples of vertex names that
`morsemv.complexes` ran before it ranked the names and closed on int
tuples (`reference_closure`); the closure on int tuples that it ran
before it closed on one packed int key per simplex (`reference_table`,
its lookup of names included); and the piece and ground maps of X~ read
off its cells' names, as `morsemv.verify` derived them before X~ was
closed on ints.  The closed X~ is X~ as `morsemv.verify.build_xtilde`
built it before it laid X~ out by the prism formula: every block's cells
written as int vertex tuples, closed with both copies through `_Table`
(each cell by its key), and looked up again by its key.

The loop reference is `morse.greedy_gvf`'s coreduction loop as it ran
before it walked the cofacets of the cells it killed inline, returning
its arrays (up, down, lift, clock) uncertified, so a test can require the
same arrays, entry for entry, of the loop that replaced it.

The flow reference is `morse._flow` as it ran before its frames resumed
at their next head: one stack with the pending roots below the path,
each id on top rescanning its heads.  Tests require the same memo, in
the same key orders, and the same cycle.

The clock reference is the check that a certifying clock descends, as
`morsemv.morse` ran it before it read `up`, `down` and the facet table
directly: over the signed arcs of `_arcs`, one list per cell.

The lookup reference is the per-name lookup of a field's pair ends that
`VectorField._arrays` made before it resolved every end in one batch:
each end on its own, in pair order, signed by `incidence`.

`retag` renames a simplex from one tagged copy into another (or into or
out of the untagged complex) by its vertex names, as the copies' renaming
methods did before a copy became a tag on its source's ids.

The trajectory references list trajectories one by one: the validators
recheck each enumerated trajectory against the raw definition, and the
weight it carries against `incidence`; the per-pair checks of
`check_main_iso` are run here as they ran before they were read off
flows, on every trajectory of (X~, W), weighed by `incidence` on its
named cells, and of the Mayer-Vietoris complex, each trajectory
classified by its pieces.

The scan reference is the breadth-first search for a step off the five
shapes that `check_main_iso` ran before it read the non-empty entries of
W's flow memo: from W's critical cells in report order, along every arc
whose head's tally is not empty, with its own queue and mask.

The Smith normal form reference is the dense Euclidean loop that
`morsemv.homology.smith_normal_form` ran, on a list of rows, before one
sparse elimination (`homology._eliminate`) took non-unit pivots too.
"""
from __future__ import annotations

import collections
import functools
import heapq
import itertools
import operator
import random
from typing import Callable, Iterable, Sequence

from morsemv import (
    FieldError,
    InternalConsistencyError,
    MVTrajectory,
    Simplex,
    SimplicialComplex,
    Trajectory,
    VectorField,
    incidence,
)
from morsemv.complexes import _key, _Table, _width, union
from morsemv.homology import _simplicial_chains, homology
from morsemv.morse import (
    DEFAULT_SEED,
    GradientField,
    _arcs,
    _grouped,
    _walk,
)
from morsemv.mv import (
    FROM_A,
    FROM_B,
    SHIFTED,
    Decomposition,
    _named_generator,
    _require_generator,
    mv_generators,
    mv_trajectories_from,
)
from morsemv.verify import (
    _A,
    _B,
    _INTERIOR,
    _PIECE_NAME,
    CheckResult,
    XTilde,
    _build_w_field,
    _f_image,
    _report_order,
)


def retag(s: Simplex, old: str, new: str) -> Simplex:
    """s with the tag `old` of each vertex name replaced by `new`, sign
    kept: a fixed prefix preserves the order of names, so the renaming
    preserves orientation."""
    assert all(v.startswith(old) for v in s.vertices), f"{s} is not tagged {old!r}"
    return Simplex([new + v[len(old):] for v in s.vertices], s.sign)


def reference_arrays(
    field: VectorField, x: SimplicialComplex
) -> tuple[list[int], list[int], list[int]]:
    """The arrays up, down and lift of `field` over x's id table, as
    `VectorField._arrays` gives them, each pair end looked up by itself, in
    pair order: the first end that is not a member of x raises the
    FieldError that `_arrays` raises, and lift[sigma] = -<tau, sigma>."""
    named = dict(zip(x.simplices(), itertools.chain.from_iterable(x._ids)))
    up, down, lift = [-1] * len(x._table), [-1] * len(x._table), [1] * len(x._table)
    for sigma, tau in field.pairs:
        for s in (sigma, tau):
            if s not in named:
                raise FieldError(f"field references {s}, which is not in the complex")
        up[named[sigma]], down[named[tau]] = named[tau], named[sigma]
        lift[named[sigma]] = -incidence(tau, sigma)
    return up, down, lift


def reference_greedy(
    x: SimplicialComplex, strategy: str = "lexicographic", seed: int | None = None
) -> tuple[tuple[tuple[Simplex, Simplex], ...], tuple[Simplex, ...], dict[Simplex, int]]:
    """(pairs ordered by tau, critical simplices by dimension then canonical
    order, the step that removed each simplex) of the greedy coreduction
    field, with the tie-breaks of `greedy_gvf`: smallest (dimension, rank)
    first, rank the canonical position ("lexicographic") or a seeded
    shuffle of it ("random").  Steps count from 0, one per pair (both of
    its simplices) or critical simplex, in the order the coreduction takes
    them."""
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
    steps: dict[Simplex, int] = {}
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
            steps[sigma] = steps[tau] = len(pairs) + len(critical) - 1
            kill(sigma)
            kill(tau)
        else:
            while criticals_heap:
                s = heapq.heappop(criticals_heap)[2]
                if s in alive:
                    critical.append(s)
                    steps[s] = len(pairs) + len(critical) - 1
                    kill(s)
                    break
    return (
        tuple(sorted(pairs, key=lambda p: p[1].key)),
        tuple(sorted(critical, key=lambda s: s.key)),
        steps,
    )


def reference_closure(
    generators,
) -> tuple[list[tuple[str, ...]], list[tuple[int, ...]], list[list[int]]]:
    """(verts, facets, cofacets) of the closure of `generators`, sorted
    tuples of vertex names, with ids ascending by (dimension, vertex tuple):
    verts[i] the names of member i, facets[i] its facet ids in vertex-drop
    order, cofacets[i] the ids having i as a facet, ascending."""
    members = set()
    todo = [tuple(vs) for vs in generators]
    while todo:
        vs = todo.pop()
        if vs not in members:
            members.add(vs)
            if len(vs) > 1:
                todo += [vs[:k] + vs[k + 1:] for k in range(len(vs))]
    verts = sorted(members, key=lambda vs: (len(vs), vs))
    index = {vs: i for i, vs in enumerate(verts)}
    facets = [
        tuple(index[vs[:k] + vs[k + 1:]] for k in range(len(vs))) if len(vs) > 1 else ()
        for vs in verts
    ]
    cofacets = [[] for _ in verts]
    for t, fs in enumerate(facets):
        for f in fs:
            cofacets[f].append(t)
    return verts, facets, cofacets


class reference_table:
    """`complexes._Table` as it closed a complex before it packed each
    member into one int key: every member once, as its tuple of int
    vertices, with ids ascending by (dimension, vertex tuple), `index`
    mapping a tuple to its id.  The closure, `of_names` and `cofacets` are
    kept as they ran; `ids_of` is the lookup of `SimplicialComplex._ids_of`
    on an untagged complex of every member, as it ran then."""

    def __init__(self, generators: Iterable[tuple[int, ...]], names: list[str]):
        levels: dict[int, set[tuple[int, ...]]] = collections.defaultdict(set)
        for vs in generators:
            levels[len(vs)].add(vs)
        top = max(levels)
        ordered: list[list[tuple[int, ...]]] = [[]] * (top + 1)
        dropped: list[list[list[tuple[int, ...]]]] = [[]] * (top + 1)
        for n in range(top, 0, -1):
            level = ordered[n] = sorted(levels.pop(n))
            if n > 1:
                lower = levels[n - 1]
                dropped[n] = [list(map(drop, level)) for drop in _dropping(n)]
                for faces in dropped[n]:
                    lower.update(faces)
        self.names = names
        self.rank = dict(zip(names, range(len(names))))
        self.verts: list[tuple[int, ...]] = []
        self.start = [0]
        for level in ordered[1:]:
            self.verts += level
            self.start.append(len(self.verts))
        self.ids = list(range(len(self.verts)))
        self.index = dict(zip(self.verts, self.ids))
        get = self.index.__getitem__
        self.facets: list[tuple[int, ...]] = [()] * self.start[1]
        for n in range(2, top + 1):
            self.facets += zip(*(map(get, faces) for faces in dropped[n]))
            dropped[n] = []  # free the level's drop lists once they are facets
        self._cofacets: list[list[int]] | None = None

    @classmethod
    def of_names(cls, generators: list[Sequence[str]]) -> "reference_table":
        names = sorted(set(itertools.chain.from_iterable(generators)))
        rank = dict(zip(names, range(len(names)))).__getitem__
        ranked = [tuple(sorted(map(rank, vs))) for vs in generators]
        return cls(ranked, names)

    @property
    def cofacets(self) -> list[list[int]]:
        if self._cofacets is None:
            cof: list[list[int]] = [[] for _ in self.facets]
            lo = self.start[1]
            for t, fs in zip(self.ids[lo:], self.facets[lo:]):
                for f in fs:
                    cof[f].append(t)
            self._cofacets = cof
        return self._cofacets

    def ids_of(self, named: Iterable[Iterable[str]]) -> list[int | None]:
        # a name that is no vertex ranks -1, which no member holds
        rank, index, unknown = self.rank.get, self.index.get, itertools.repeat(-1)
        return [index(tuple(sorted(map(rank, vs, unknown)))) for vs in named]


def _dropping(n: int) -> list:
    """For k = 0..n-1, the function taking an n-tuple to the (n-1)-tuple
    without its k-th entry, each an `operator.itemgetter`: of the other
    entries, or for an edge of a one-entry slice, which keeps it a tuple."""
    if n == 2:
        return [operator.itemgetter(slice(1, 2)), operator.itemgetter(slice(0, 1))]
    return [operator.itemgetter(*(j for j in range(n) if j != k)) for k in range(n)]


def reference_descends(gvf: GradientField, clock: list[int]) -> bool:
    """Whether clock[nu] < clock[tau] on every arc tau -> nu >= 0 of
    `_arcs` out of a cell tau of gvf's complex matched downward."""
    arcs, down = _arcs(gvf), gvf._down
    return all(
        clock[nu] < clock[tau]
        for ids in gvf.complex._ids[1:] for tau in ids if down[tau] >= 0
        for _, _, nu in arcs(tau) if nu >= 0
    )


def reference_greedy_loop(
    x: SimplicialComplex, strategy: str = "lexicographic", seed: int | None = None
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The arrays (up, down, lift, clock) of `morse.greedy_gvf`'s
    coreduction as its loop ran before it walked the cofacets inline:
    the cofacet lists of what a step killed gathered in a tuple, sigma
    found by indexing tau's facets, the next critical cell by an index
    into `order`, and lift written at every pair."""
    table = x._table
    ids, verts, facets, cofacets = table.ids, table.verts, table.facets, table.cofacets
    order = list(itertools.chain.from_iterable(x._ids))
    n, size = len(table), len(order)
    position = None  # the heap holds ids, ascending as `order` is
    if strategy == "random":
        random.Random(DEFAULT_SEED if seed is None else seed).shuffle(order)
        order.sort(key=lambda i: len(verts[i]))  # stable: shuffled within a dimension
        position = [0] * n  # the heap holds positions in `order`
        for i, p in zip(order, ids):
            position[i] = p
    elif strategy not in ("lex", "lexicographic"):
        raise FieldError(f"unknown strategy {strategy!r}")
    bounds, alive = table.start, bytearray(x._mask)
    live = [0] * bounds[1]  # the live facets of each cell: at first all, k of k vertices
    for k in range(2, len(bounds)):
        live += [k] * (bounds[k] - bounds[k - 1])
    candidates: list[int] = []
    up, down, lift, clock = [-1] * n, [-1] * n, [1] * n, [0] * n
    push, pop = heapq.heappush, heapq.heappop

    removed, next_critical = 0, 0
    while removed < size:
        # pair the first candidate still with one live facet, sigma, and
        # kill both; or else kill the first live cell as critical.  Then
        # walk the cofacets of what was killed.
        while candidates:
            tau = pop(candidates) if position is None else order[pop(candidates)]
            if alive[tau] and live[tau] == 1:
                fs, k = facets[tau], 0
                while not alive[fs[k]]:
                    k += 1
                sigma = fs[k]
                up[sigma], down[tau] = tau, sigma
                lift[sigma] = 1 if k & 1 else -1  # -<tau, sigma>
                alive[sigma] = alive[tau] = 0
                clock[sigma] = clock[tau] = ids[removed]  # the cells removed before
                removed += 2
                walks = cofacets[sigma], cofacets[tau]
                break
        else:
            while not alive[order[next_critical]]:
                next_critical += 1
            s = order[next_critical]
            alive[s], clock[s] = 0, ids[removed]
            removed += 1
            walks = (cofacets[s],)
        for walk in walks:
            for t in walk:
                if alive[t]:
                    c = live[t] - 1
                    live[t] = c
                    if c == 1:
                        push(candidates, t if position is None else position[t])

    if 1 in alive:
        raise InternalConsistencyError("greedy matching lost track of simplices")
    return up, down, lift, clock


def _block(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The vertex tuples of a_member(alpha, r), 0 <= r <= q, and of
    b_member(alpha, r), 0 <= r <= q+1, for the base simplex alpha whose
    bottom and top vertices are `a` and `b`."""
    return (
        [(*a[: r + 1], *b[r:]) for r in range(len(a))],
        [(*a[:r], *b[r:]) for r in range(len(a) + 1)],
    )


def reference_closed_xtilde(d: Decomposition) -> XTilde:
    """X~ closed from vertex tuples, its ids canonical: the A-copy of vertex
    v is v and its B-copy n + v; the copies' cells and every block's
    a_member cells are closed through `_Table`, and each copy and block
    cell is looked up again by its tuple's key to fill in the maps."""
    x_chains = _simplicial_chains(d.x, d.x._ids)
    x_table = d.x._table
    x_verts, n = x_table.verts, len(x_table.names)
    names = [d.a_bar.tag + v for v in x_table.names] + [d.b_bar.tag + v for v in x_table.names]
    top = lambda i: tuple([v + n for v in x_verts[i]])
    in_a, in_b = list(itertools.chain(*d.a._ids)), list(itertools.chain(*d.b._ids))
    copies = [x_verts[i] for i in in_a] + list(map(top, in_b))
    in_iab = itertools.chain(*d.iab._ids) if d.iab is not None else ()
    blocks = {a: _block(x_verts[a], top(a)) for a in in_iab}
    key = functools.partial(_key, width=_width(len(names)))
    glued = SimplicialComplex._of(
        _Table(map(key, copies + [c for a_cells, _ in blocks.values() for c in a_cells]), names)
    )
    index = glued._table.index
    piece, ground = bytearray(len(index)), [-1] * len(index)
    copy_ids = ([-1] * len(x_table), [-1] * len(x_table))
    for p, ids, cells in ((_A, in_a, copies), (_B, in_b, copies[len(in_a):])):
        for i, vs in zip(ids, cells):
            j = index[key(vs)]
            piece[j], ground[j], copy_ids[p][i] = p, i, j
    members = {}
    for alpha, (a_cells, b_cells) in blocks.items():
        a_ids, b_ids = [index[key(c)] for c in a_cells], [index[key(c)] for c in b_cells]
        for j in itertools.chain(a_ids, b_ids[1:-1]):
            piece[j], ground[j] = _INTERIOR, alpha
        members[alpha] = (a_ids, b_ids)
    assert -1 not in ground, "a cell of X~ in no copy and no block"
    return XTilde(d, glued, x_chains, homology(x_chains), piece, ground, copy_ids, members)


def reference_xtilde_maps(xt: XTilde) -> tuple[list[int], list[int]]:
    """(piece, ground) of every X~ id, from the names of its cells: an
    A-copy cell ends, and a B-copy cell starts, with a name of its copy's
    tag; the ground is the id in X of the cell's names with the tag cut
    off.  X is closed from generators, so its ids are canonical positions."""
    d = xt.decomposition
    a_tag, b_tag = d.a_bar.tag, d.b_bar.tag
    x_index = {s.vertices: i for i, s in enumerate(d.x.simplices())}
    piece, ground = [], []
    for s in xt.complex.simplices():
        vs = s.vertices
        piece.append(_A if vs[-1].startswith(a_tag) else _B if vs[0].startswith(b_tag)
                     else _INTERIOR)
        ground.append(x_index[tuple(sorted({v[len(a_tag):] for v in vs}))])
    return piece, ground


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


def reference_flow(arcs: Callable, roots: Iterable[int], split: bool = False) -> dict[int, dict]:
    """`morse._flow` as it ran before its frames resumed at their next
    head: one stack holding the pending roots below the path, each id on
    top rescanning its heads from the first until one is not yet valued.
    The same memo, key for key and in the same orders, and the same
    cycle error."""
    memo: dict[int, dict] = {}
    get = memo.get
    stack = [(root, None, None) for root in roots]
    stack.reverse()  # the first root on top
    while stack:
        tau, base, heads = stack[-1]
        if heads is None:
            if get(tau) is not None:  # a root already valued
                stack.pop()
                continue
            base, heads = {}, []
            for c, sigma, nu in arcs(tau):
                if nu >= 0:
                    heads.append((c, nu))
                else:
                    base[sigma] = (1, c) if split else c
            memo[tau] = None
            stack[-1] = (tau, base, heads)
        for _, nu in heads:
            if get(nu) is None:
                if nu in memo:
                    k = len(stack) - 1
                    while stack[k][0] != nu:  # a root still pending lies below the path
                        k -= 1
                    raise InternalConsistencyError(f"the flow runs in a cycle through id {nu}",
                                                   [entry[0] for entry in stack[k:]])
                stack.append((nu, None, None))
                break
        else:
            stack.pop()
            if split:
                for c, nu in heads:
                    for r, (n, w) in memo[nu].items():
                        old = base.get(r)
                        base[r] = (n, c * w) if old is None else (old[0] + n, old[1] + c * w)
            else:
                for c, nu in heads:
                    for r, v in memo[nu].items():
                        base[r] = base.get(r, 0) + c * v
            memo[tau] = base
    return memo


def trajectory_weight(steps: Sequence[Simplex]) -> int:
    """The sign of a trajectory's simplex sequence by `incidence`: a
    downward step x -> y contributes <x, y>, an upward one -<y, x>, a
    same-dimension step nothing."""
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
    return CASE_SIGN.get(getattr(t, "case", 1), 0) * trajectory_weight(t.steps)


def validate_weight(t) -> None:
    """Raise InternalConsistencyError unless the weight a Trajectory or an
    MVTrajectory carries is `reference_weight(t)`."""
    want = reference_weight(t)
    if t.weight != want:
        raise InternalConsistencyError(f"weight {t.weight:+d}, by incidence {want:+d}")


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


def validate_trajectory(gvf: GradientField, t: Trajectory) -> None:
    """Recheck every side condition of the trajectory definition against the
    raw field, then the weight t carries (`validate_weight`), raising
    InternalConsistencyError on the first violation.  Deliberately
    independent of how the enumerator walks the complex."""
    validate_steps(gvf, t.steps)
    validate_weight(t)


def validate_steps(gvf: GradientField, steps: Sequence[Simplex]) -> None:
    """The side conditions of `validate_trajectory`, on a simplex sequence."""
    v, x = gvf.field, gvf.complex
    q = steps[0].dim
    for i, s in enumerate(steps):
        if s not in x:
            raise InternalConsistencyError(f"step {i} = {s} is not in the complex")
        want = q - 1 if i % 2 else q
        if s.dim != want:
            raise InternalConsistencyError(f"step {i} = {s} has dimension {s.dim}, expected {want}")
    for i in range(1, len(steps), 2):
        sigma, tau_prev = steps[i], steps[i - 1]
        if not sigma.is_face_of(tau_prev):
            raise InternalConsistencyError(f"{sigma} is not a facet of {tau_prev}")
        # the downward step must leave the matching
        if v.down(tau_prev) == abs(sigma):
            raise InternalConsistencyError(f"({sigma}, {tau_prev}) lies in the field")
        if i + 1 < len(steps):
            tau_next = steps[i + 1]
            if v.up(sigma) != abs(tau_next):
                raise InternalConsistencyError(f"({sigma}, {tau_next}) is not a pair of the field")


def validate_mv_trajectory(d: Decomposition, t: MVTrajectory) -> None:
    """Recheck a trajectory against the raw case conditions (membership and
    non-membership in the three fields, facet relations, criticality of the
    endpoints), independently of the enumerator's bookkeeping, then the
    weight t carries (`validate_weight`)."""
    validate_mv_steps(d, t)
    validate_weight(t)


def validate_mv_steps(d: Decomposition, t: MVTrajectory) -> None:
    """The case conditions of `validate_mv_trajectory`."""
    if t.steps[0] != t.beta.simplex:
        raise InternalConsistencyError("trajectory does not start at beta")
    route = {
        1: (FROM_A, FROM_A),
        2: (FROM_B, FROM_B),
        3: (SHIFTED, SHIFTED),
        4: (SHIFTED, FROM_A),
        5: (SHIFTED, FROM_B),
    }.get(t.case)
    if route is None:
        raise InternalConsistencyError(f"unknown case {t.case}")
    if (t.beta.tag, t.alpha.tag) != route:
        raise InternalConsistencyError(f"case {t.case} cannot join {t.beta} to {t.alpha}")

    if t.case in (1, 2, 3):
        gvf = {1: d.w_a, 2: d.w_b, 3: d.w_i}[t.case]
        validate_steps(gvf, t.steps)
        if abs(t.steps[-1]) != t.alpha.simplex:
            raise InternalConsistencyError("trajectory does not end at alpha")
        return

    wi, pv = d.w_i.field, (d.w_a if t.case == 4 else d.w_b).field
    if t.p is None or t.l is None or t.p < 0 or t.l < 0:
        raise InternalConsistencyError("cases 4/5 need p, l >= 0")
    if len(t.steps) != 2 * (t.p + t.l) + 2:
        raise InternalConsistencyError("step count does not match p and l")
    cut = 2 * t.p + 1
    i_steps, a_steps = t.steps[:cut], t.steps[cut:]
    for j in range(1, len(i_steps), 2):
        sigma, prev, here = i_steps[j], i_steps[j - 1], i_steps[j + 1]
        if not sigma.is_face_of(prev) or wi.down(prev) == abs(sigma):
            raise InternalConsistencyError(f"illegal descent step {sigma} from {prev}")
        if wi.up(sigma) != abs(here):
            raise InternalConsistencyError(f"({sigma}, {here}) is not an I-field pair")
    target = d.a_bar if t.alpha.tag == FROM_A else d.b_bar
    if a_steps[0] != retag(i_steps[-1], d.iab_bar.tag, target.tag):
        raise InternalConsistencyError("transfer step does not match the descent end")
    for j in range(1, len(a_steps), 2):
        alpha_j, prev, here = a_steps[j], a_steps[j - 1], a_steps[j + 1]
        if pv.up(prev) != abs(alpha_j):
            raise InternalConsistencyError(f"({prev}, {alpha_j}) is not a pair of the field")
        if not here.is_face_of(alpha_j) or here == prev:
            raise InternalConsistencyError(f"illegal ascent step {here} under {alpha_j}")
    if pv.is_matched(a_steps[-1]) or abs(a_steps[-1]) != t.alpha.simplex:
        raise InternalConsistencyError("ascent does not end at the critical alpha")


def classify_w_trajectory(xt: XTilde, steps) -> int:
    """Which of the five shapes a W-trajectory between critical cells, given
    as X~ ids, has.  Raises InternalConsistencyError when it fits none
    (which would refute the classification the whole construction rests
    on)."""
    pieces = [xt._piece[i] for i in steps]
    first, last = pieces[0], pieces[-1]
    if first != _INTERIOR:
        if pieces.count(first) == len(pieces):
            return 1 if first == _A else 2
        raise InternalConsistencyError(
            f"trajectory leaves the {'A' if first == _A else 'B'}-copy"
        )
    if last == _INTERIOR:
        if pieces.count(_INTERIOR) == len(pieces):
            return 3
        raise InternalConsistencyError("interior trajectory leaves the interior")
    crossing = next(k for k, p in enumerate(pieces) if p != _INTERIOR)
    if crossing % 2 == 1 and pieces.count(last) == len(pieces) - crossing:
        return 4 if last == _A else 5
    raise InternalConsistencyError("mixed trajectory has no clean crossing")


def listed_trajectories_fit(xt: XTilde, gvf: GradientField) -> bool:
    """Whether every trajectory of gvf on X~ between critical cells, listed
    one by one, fits one of the five shapes."""
    try:
        for ids in gvf._critical_ids:
            for tau in ids:
                for steps, _ in _walk(tau, _arcs(gvf)):
                    classify_w_trajectory(xt, steps)
    except InternalConsistencyError:
        return False
    return True


def enumerated_w_tallies(gvf: GradientField) -> dict[int, dict[int, tuple[int, int]]]:
    """{tau: {sigma: (count, weight sum)}} over the critical ids of gvf, from
    its trajectories listed one by one, each weighed by `trajectory_weight`
    on its named cells; pairs without one are left out."""
    name = gvf.complex._simplices_of
    return {
        tau: {
            sigma: (len(paths), sum(trajectory_weight(name(steps)) for steps, _ in paths))
            for sigma, paths in _grouped(_walk(tau, _arcs(gvf))).items()
        }
        for ids in gvf._critical_ids
        for tau in ids
    }


def enumerated_mv_tallies(d: Decomposition) -> dict:
    """{beta: {alpha: (count, weight sum)}} over MV generator keys, their
    glued ids, of positive degree, from `mv_trajectories_from`."""
    return {
        _require_generator(d, beta): {
            _require_generator(d, alpha): (len(ts), sum(t.weight for t in ts))
            for alpha, ts in mv_trajectories_from(d, beta).items()
        }
        for beta in mv_generators(d)
        if beta.degree
    }


def enumerated_pair_checks(xt: XTilde) -> tuple[CheckResult, ...]:
    """`trajectory_counts_match`, `trajectory_weights_match` and
    `trajectory_classification` of `check_main_iso`, from every trajectory
    upstairs (as X~ ids) and in MV, enumerated once per critical cell."""
    d = xt.decomposition
    gvf = _build_w_field(xt)
    critical = gvf._critical_ids
    f_of = {i: _named_generator(d, _f_image(xt, i)) for ids in critical for i in ids}
    name = xt.complex._simplices_of
    mv = {beta: mv_trajectories_from(d, beta) for beta in mv_generators(d) if beta.degree}
    below = {tau: critical[q - 1] for q in range(1, len(critical)) for tau in critical[q]}
    counts_ok = weights_ok = classes_ok = True
    c_detail = w_detail = k_detail = ""
    pairs_compared = 0
    for tau, sigmas in below.items():
        paths = _grouped(_walk(tau, _arcs(gvf)))
        for sigma in sigmas:
            g_list = paths.get(sigma, [])
            m_list = mv[f_of[tau]].get(f_of[sigma], [])
            pairs_compared += 1
            if counts_ok and len(g_list) != len(m_list):
                counts_ok = False
                c_detail = (
                    f"{f_of[tau]} -> {f_of[sigma]}: "
                    f"{len(g_list)} trajectories upstairs, {len(m_list)} in MV"
                )
            if weights_ok and sorted(
                trajectory_weight(name(steps)) for steps, _ in g_list
            ) != sorted(t.weight for t in m_list):
                weights_ok = False
                w_detail = f"{f_of[tau]} -> {f_of[sigma]}: weight multisets differ"
            if classes_ok:
                try:
                    up = sorted(classify_w_trajectory(xt, steps) for steps, _ in g_list)
                except InternalConsistencyError as e:
                    up, classes_ok, k_detail = None, False, str(e)
                if up is not None and up != sorted(t.case for t in m_list):
                    classes_ok = False
                    k_detail = f"{f_of[tau]} -> {f_of[sigma]}: case multisets differ"
    return (
        CheckResult(
            "trajectory_counts_match",
            counts_ok,
            c_detail or f"{pairs_compared} critical pairs compared",
        ),
        CheckResult("trajectory_weights_match", weights_ok, w_detail),
        CheckResult("trajectory_classification", classes_ok, k_detail),
    )


def reference_scan(xt: XTilde, gvf: GradientField, tallies) -> tuple[str, list[int]]:
    """The first step off the five shapes on a W-trajectory between
    critical cells, named, or "", found by a breadth-first search from the
    critical ids of positive dimension in report order that follows an
    arc on only when `tallies`, the memo of W's split flow, is not empty at
    its head; and the ids it visited, the roots first, each once, in visit
    order (every id it reaches when it finds no step)."""
    arcs, piece, value = _arcs(gvf), xt._piece, tallies.get
    todo = _report_order(xt, itertools.chain.from_iterable(gvf._critical_ids[1:]))
    seen = bytearray(len(piece))
    for tau in todo:  # grows while it is read
        for _, sigma, nu in arcs(tau):
            if nu >= 0 and not value(nu):
                continue
            for x, y, free in ((tau, sigma, piece[tau] == _INTERIOR), (sigma, nu, nu < 0)):
                if not free and piece[x] != piece[y]:
                    step = " -> ".join(map(str, xt.complex._simplices_of((x, y))))
                    return f"trajectory leaves the {_PIECE_NAME[piece[x]]} at {step}", todo
            if nu >= 0 and not seen[nu]:
                seen[nu] = 1
                todo.append(nu)
    return "", todo


def reference_smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors and rank of an integer matrix, by the dense
    Euclidean loop: the pivot is an entry of least magnitude in the whole
    untouched block, found by a scan at every step.

    Returns (d_1, ..., d_r) with d_1 | d_2 | ... | d_r, all positive, and
    the rank r.  The input is not modified.
    """
    a = [[int(v) for v in row] for row in matrix]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    factors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        # Choose the pivot: a minimal-magnitude nonzero entry of the
        # untouched block.  Small pivots keep the Euclidean steps short
        # and the intermediate entries from exploding.
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]

        # Euclidean reduction of row/column t.  If any remainder survives,
        # it is strictly smaller than the pivot; loop and re-pick.
        d = a[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                q = a[i][t] // d
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, ncols):
            if a[t][j]:
                q = a[t][j] // d
                for row in a:
                    row[j] -= q * row[t]
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        # Enforce the divisibility chain: the pivot must divide every entry
        # of the remaining block.  Folding an offending row into row t
        # leaves a remainder on the next pass, shrinking the pivot.
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        factors.append(abs(d))
        t += 1
    return tuple(factors), len(factors)
