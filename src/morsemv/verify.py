"""Mechanical verification of the machinery behind the Mayer-Vietoris
complex, on any concrete decomposition.

The auxiliary complex X~ glues the tagged copies of A and B to a prism over
the intersection.  Over an intersection simplex alpha = [x_0, ..., x_q],
with bottom vertices a_i = A:x_i and top vertices b_i = B:x_i, the prism
has the block of 2q + 3 cells

  a_member(alpha, r) = [a_0, ..., a_r, b_r, ..., b_q]         0 <= r <= q,
  b_member(alpha, r) = [a_0, ..., a_{r-1}, b_r, ..., b_q]     0 <= r <= q+1,

so b_member(alpha, 0) is the B-copy of alpha, b_member(alpha, q+1) its
A-copy, and the rest lie in the prism interior.  The bottom and top
vertices are the copies' own vertices, so the gluing is by vertex, and
X~ is closed once, from every cell of both copies and the cells
a_member(alpha, r) of every block.  It is closed on ints: with n the
vertex count of X, the A-copy of vertex v is v and its B-copy n + v,
named "A:" and "B:" plus the name of v.  `build_xtilde` then records,
on X~'s ids, the piece of every cell, which is the copy index k of `mv`
(0 the A-copy, 1 the B-copy, 2 the prism interior, whose critical cells
f sends to the I-copy's generators), its ground (the id in X of the
simplex it copies or lies over), for every id of X the ids of its A- and
B-copies, and for every intersection id the ids of its a_member and
b_member cells, from the cells it listed: an interior cell's ground is the
alpha of its block, and a cell of X~ not listed is an internal fault.  The
two fields, their censuses, the maps g and f and the trajectory
classification read these maps; simplices are named only for reports.

Two gradient fields on X~ carry the theory:

* V pairs, over every base simplex alpha of the intersection, the cell
  b_member(alpha, r) with a_member(alpha, r) for r = 0..dim(alpha), leaving
  the bottom copy of alpha unpaired.  Its critical cells are exactly the
  A-copy plus the B-copy minus the intersection's top copy, the Thom-Smale
  boundary of (X~, V) is *equal* (not merely chain-equivalent) to the
  simplicial boundary of X under the evident renaming g, and its homology
  is the homology of X.

* W restricts to the chosen fields on the A- and B-copies and extends them
  over the prism interior: each intersection-field pair (alpha, beta)
  matches the interior cells over alpha and beta among themselves (two
  shapes, depending on whether the vertex dropped from beta is its first),
  and the interior cells over a critical gamma are matched among themselves
  leaving the single cell a_member(gamma, 0).  Critical cells of W then
  correspond one-to-one to the Mayer-Vietoris generators via the map f
  (identity on the A-/B-copies, ground simplex on interior cells), and for
  every pair of critical cells the gradient trajectories of (X~, W) match
  the MV trajectories of the decomposition in count and in weight multiset;
  the two boundary matrices agree entry by entry under f.

Both fields are written as `up`/`down` id arrays on X~, checked as
matchings of facet pairs and certified acyclic, V by its level clock and W
by the closed-trajectory search; a fault in the block formula shows up as a
failed certification or census, never as bad input.

`check_iso_simplicial` and `check_main_iso` re-derive all of this on a given
decomposition and report each comparison separately, with counterexamples.
Both read one shared context: `build_xtilde` computes the simplicial chain
complex C_*(X), its generators keyed by X's ids, and its homology once, and
both checks compare against those fields.  Each check is straight-line:
every step returns its `CheckResult`, and a check stops at a failed field
certification (`_field_check`, which builds V or W) or a failed bijection,
but not at a failed census.  Both compare on keys with the same two
steps.  `_bijection` checks that the critical cells map bijectively onto
the target's generator keys (g sends a cell to its ground id in X, f to
the glued id of its MV generator, `mv._glued_id` of its piece and its
ground).  Given that bijection, `_same_complex` checks that the
Thom-Smale boundaries in target order equal the target's, and that the
Thom-Smale homology equals the target's.  Once every matrix matches, the
Thom-Smale complex is the target complex, so its homology is taken from
the target; it is computed from the Thom-Smale matrices only when a
matrix differs.  A simplex or an MV generator is named only to word a
failing check.

The per-pair checks of `check_main_iso` compare counts and signed sums from
flows, not lists of trajectories.  Every weight is +1 or -1, so a pair's
weight multiset is fixed by the number N of its trajectories and their
signed sum S.  Each side is read off one split flow (Forman's flow summed
by `morse._split`), whose value at a generator maps r to (N, S), the
number of its trajectories to r and the sum of their weights: upstairs
that of W, in MV that of the glued copies (`mv._mv_column` with `_split`).
Its sums S are the side's boundary; the MV one is the target complex.  A
trajectory's case is fixed by the pieces at its ends unless it takes a
step off the five shapes, and one scan over the reachable arcs finds any
such step.  The flows and the scan read the arcs of W from `morse._arcs`,
the one step rule of every field, so the boundary and the checks cannot
disagree on a step or a sign.  Only the `trajectories` command enumerates
trajectories.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Iterator, Sequence

from .complexes import SimplicialComplex, _Table
from .errors import InternalConsistencyError, MorsemvError
from .homology import Column, HomologyResult, IntegerChainComplex, _simplicial_chains, homology
from .morse import (
    GradientField,
    _arcs,
    _boundary_columns,
    _flow,
    _matching,
    _split,
    _trajectory_complex,
)
from .mv import (
    Decomposition,
    _generator_keys,
    _glued_id,
    _mv_column,
    _named_generator,
)

__all__ = [
    "XTilde",
    "CheckResult",
    "VerifyReport",
    "build_xtilde",
    "check_iso_simplicial",
    "check_main_iso",
]

# the piece of an X~ cell, which is the copy index k (`mv._glued_id`) of
# the MV generator f gives its critical cells, and its name
_A, _B, _INTERIOR = 0, 1, 2
_PIECE_NAME = ("A-copy", "B-copy", "interior")


@dataclass(frozen=True)
class XTilde:
    """The glued complex A-copy u prism(intersection copy) u B-copy, with the
    context both checks share.

    `x_chains` is the simplicial chain complex C_*(X), its generators
    labelled by X's ids per degree, in canonical order, and `x_homology` its
    homology: the target of
    `check_iso_simplicial` and the reference of `check_main_iso`, each
    computed once per verify run.  `_piece` and `_ground` give the piece
    and the ground id in X of every X~ id; `_copies` holds, for the A- and
    the B-copy, the X~ id of the copy of every id of X (-1 off the piece);
    and `_members` maps each intersection id in X to the X~ ids of its
    a_member and b_member cells (empty when the intersection is)."""

    decomposition: Decomposition
    complex: SimplicialComplex
    x_chains: IntegerChainComplex
    x_homology: HomologyResult
    _piece: bytearray
    _ground: list[int]
    _copies: tuple[list[int], list[int]]
    _members: dict[int, tuple[list[int], list[int]]]


def _block(
    a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The vertex tuples of a_member(alpha, r), 0 <= r <= q, and of
    b_member(alpha, r), 0 <= r <= q+1, for the base simplex alpha whose
    bottom and top vertices are `a` and `b`.  Both are sorted, since every
    A-copy vertex comes before every B-copy one."""
    return (
        [(*a[: r + 1], *b[r:]) for r in range(len(a))],
        [(*a[:r], *b[r:]) for r in range(len(a) + 1)],
    )


def build_xtilde(d: Decomposition) -> XTilde:
    x_chains = _simplicial_chains(d.x, d.x._ids)
    shared = (x_chains, homology(x_chains))
    # X~ is closed on X's vertices, ranked: the A-copy of vertex v is v and
    # its B-copy n + v, so each copy keeps X's order and A comes before B.
    x_table = d.x._table
    x_verts, n = x_table.verts, len(x_table.names)
    names = [d.a_bar.tag + v for v in x_table.names] + [d.b_bar.tag + v for v in x_table.names]
    top = lambda i: tuple([v + n for v in x_verts[i]])  # the B-copy of id i
    in_a, in_b = list(itertools.chain(*d.a._ids)), list(itertools.chain(*d.b._ids))
    copies = [x_verts[i] for i in in_a] + list(map(top, in_b))
    in_iab = itertools.chain(*d.iab._ids) if d.iab is not None else ()
    blocks = {a: _block(x_verts[a], top(a)) for a in in_iab}
    glued = SimplicialComplex._of(
        _Table(copies + [c for a_cells, _ in blocks.values() for c in a_cells], names)
    )
    table = glued._table

    # Every cell is a copy's, or a block's over its ground; the interior
    # ones are the block's a_member cells and its b_member cells but the
    # first and last, which are the copies of its ground.
    index = table.index
    piece, ground = bytearray(len(table)), [-1] * len(table)
    copy_ids = ([-1] * len(x_table), [-1] * len(x_table))
    for p, ids, cells in ((_A, in_a, copies), (_B, in_b, copies[len(in_a):])):
        for i, vs in zip(ids, cells):
            j = index[vs]
            piece[j], ground[j], copy_ids[p][i] = p, i, j
    members = {}
    for alpha, (a_cells, b_cells) in blocks.items():
        a_ids = [index.get(c) for c in a_cells]
        b_ids = [index.get(c) for c in b_cells]
        q = len(x_verts[alpha]) - 1
        if None in a_ids or None in b_ids or (len(a_ids), len(b_ids)) != (q + 1, q + 2):
            raise InternalConsistencyError(
                f"the block over {d.iab_bar.complex._simplex(alpha)} "
                f"is not {2 * q + 3} cells of X~"
            )
        for j in itertools.chain(a_ids, b_ids[1:-1]):
            piece[j], ground[j] = _INTERIOR, alpha
        members[alpha] = (a_ids, b_ids)
    if -1 in ground:
        raise InternalConsistencyError(
            f"X~ holds {glued._simplex(ground.index(-1))}, a cell of no copy and no block"
        )
    return XTilde(d, glued, *shared, piece, ground, copy_ids, members)


def _critical_ids(gvf: GradientField) -> Iterator[int]:
    """The critical ids of gvf, by dimension, each in canonical order."""
    return itertools.chain.from_iterable(gvf._critical_ids)


def _census_mismatch(
    xt: XTilde, actual: set[int], expected: set[int], most: int | None = None
) -> str:
    """The X~ cells critical but not expected, and expected but not
    critical: the first `most` (or all) of each, in canonical order, named."""
    named = lambda ids: ", ".join(map(str, xt.complex._simplices_of(sorted(ids)[:most])))
    return f"unexpected [{named(actual - expected)}], missing [{named(expected - actual)}]"


def _build_v_field(xt: XTilde) -> GradientField:
    """The collapse-the-prism field V on X~ (empty when there is no prism),
    certified by its level clock: the only arc out of a_member(alpha, r)
    that goes on leads to a_member(alpha, r + 1), so -r descends."""
    pairs = (pair for a, b in xt._members.values() for pair in zip(b, a))
    clock = [0] * len(xt.complex._table)
    for a, _ in xt._members.values():
        for r, i in enumerate(a):
            clock[i] = -r
    return GradientField._certified(
        xt.complex, *_matching(xt.complex, pairs, InternalConsistencyError), clock=clock
    )


def _prism_extension(xt: XTilde) -> tuple[list[tuple[int, int]], list[int]]:
    """The interior pairs of W and the interior cells left critical, as X~ ids."""
    d, m = xt.decomposition, xt._members
    pairs: list[tuple[int, int]] = []
    criticals: list[int] = []
    if d.w_i is None:
        return pairs, criticals
    facets = d.x._table.facets
    for beta, alpha in enumerate(d.w_i._down):
        if alpha < 0:
            continue
        (a_al, b_al), (a_be, b_be) = m[alpha], m[beta]
        # facet k of beta drops the k-th vertex of beta
        if facets[beta].index(alpha) == 0:
            pairs += [(a_al[0], a_be[1]), (b_be[1], a_be[0]), *zip(b_be[2:], a_be[2:])]
        else:
            pairs += [(a_al[0], a_be[0]), *zip(b_be[1:], a_be[1:])]
        pairs += zip(b_al[1:], a_al[1:])
    for gamma in _critical_ids(d.w_i):
        a_ga, b_ga = m[gamma]
        pairs += zip(b_ga[1:], a_ga[1:])
        criticals.append(a_ga[0])
    return pairs, criticals


def _build_w_field(xt: XTilde) -> GradientField:
    """Assemble W and certify it, checking the critical-cell census against
    the predicted one (A-copy criticals, B-copy criticals, one interior cell
    per intersection critical)."""
    d = xt.decomposition
    pairs: list[tuple[int, int]] = []
    expected: set[int] = set()
    for ids, w in zip(xt._copies, d._fields()):
        pairs += [(ids[sigma], ids[tau]) for tau, sigma in enumerate(w._down) if sigma >= 0]
        expected.update(ids[i] for i in _critical_ids(w))
    prism_pairs, interior_crit = _prism_extension(xt)
    expected.update(interior_crit)
    gvf = GradientField._certified(
        xt.complex, *_matching(xt.complex, pairs + prism_pairs, InternalConsistencyError)
    )
    actual = set(_critical_ids(gvf))
    if actual != expected:
        raise InternalConsistencyError(
            f"W-field critical census mismatch: {_census_mismatch(xt, actual, expected)}"
        )
    return gvf


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return f"{mark} {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def _field_check(
    name: str, build: Callable[[XTilde], GradientField], xt: XTilde
) -> tuple[GradientField | None, CheckResult]:
    """The field `build` makes on X~, or None when it fails, and the check
    `name` that it is certified."""
    try:
        gvf = build(xt)
    except MorsemvError as e:
        return None, CheckResult(name, False, str(e))
    pairs = len(gvf._down) - gvf._down.count(-1)
    return gvf, CheckResult(name, True, f"{pairs} pairs, acyclic")


def _bijection(
    gvf: GradientField, image: Callable[[int], Hashable], name: str, target: IntegerChainComplex
) -> tuple[dict[int, Hashable] | None, CheckResult]:
    """The check `name` that `image` maps the critical cells of `gvf` in
    each degree, given by id, bijectively onto that degree's keys, the
    labels of `target`, and the image of every critical id when it does
    (None when it does not)."""
    critical = gvf._critical_ids
    try:
        image_of = {i: image(i) for i in _critical_ids(gvf)}
    except InternalConsistencyError as e:
        return None, CheckResult(name, False, str(e))
    for q in range(max(len(critical), target.top + 1)):
        labels = target.labels[q] if q <= target.top else ()
        images = [image_of[i] for i in critical[q]] if q < len(critical) else []
        if len(images) != len(labels) or set(images) != set(labels):
            detail = f"images in degree {q} do not match the target generators"
            return None, CheckResult(name, False, detail)
    return image_of, CheckResult(name, True)


def _same_complex(
    column: Callable[[int], Column], source: str, image_of: dict[int, Hashable],
    target: IntegerChainComplex, homologies: Sequence[tuple[str, HomologyResult]],
) -> tuple[CheckResult, CheckResult]:
    """Compare the Thom-Smale complex whose boundary `column` maps a critical
    id to its column (from Forman's flow), named `source` in reports, with
    `target`, given `image_of`, a bijection from its critical ids onto the
    keys of target's generators: `boundary_matrices_equal` (with each
    degree's cells ordered by their image, the Thom-Smale boundaries equal
    the target's) and `homology_equal` (the Thom-Smale homology equals each
    named group, the target's first)."""
    preimage = {label: i for i, label in image_of.items()}
    ordered = [[preimage[label] for label in labels] for labels in target.labels]
    got = [_boundary_columns(ordered[q - 1], ordered[q], column) for q in range(1, target.top + 1)]
    detail = ""
    for q, (have, want) in enumerate(zip(got, target.columns), start=1):
        if have != want:
            spots = sorted(
                (i, j)
                for j, (h, w) in enumerate(zip(have, want))
                for i in h.keys() | w.keys()
                if h.get(i) != w.get(i)
            )
            detail = f"degree {q} differs at entries {spots[:5]}"
            break
    matrices = CheckResult("boundary_matrices_equal", not detail, detail)
    # Equal generators and equal matrices make the Thom-Smale complex the
    # target complex itself, so its homology is the target's.
    own = (
        homology(IntegerChainComplex.from_columns(target.ranks, got)) if detail
        else homologies[0][1]
    )
    named = [(source, own), *homologies]
    ok = all(h == own for _, h in named)
    detail = str(homologies[-1][1]) if ok else "  vs  ".join(f"{n}: {h}" for n, h in named)
    return matrices, CheckResult("homology_equal", ok, detail)


def check_iso_simplicial(xt: XTilde) -> VerifyReport:
    """Compare (C_*(X), d) with the Thom-Smale complex of (X~, V) under g:
    critical-cell census, bijectivity of g, equality of every boundary
    matrix, and equality of homology."""
    d = xt.decomposition
    v, certified = _field_check("v_field_certified", _build_v_field, xt)
    if v is None:
        return VerifyReport((certified,))
    in_iab = d.iab._mask if d.iab is not None else bytearray(len(d.x._table))
    expected = {
        i for i, p in enumerate(xt._piece)
        if p == _A or p == _B and not in_iab[xt._ground[i]]
    }
    actual = set(_critical_ids(v))
    ok = actual == expected
    detail = f"{len(actual)} critical cells" if ok else _census_mismatch(xt, actual, expected, 3)
    census = CheckResult("v_critical_census", ok, detail)
    # g: critical cells of V -> ids of X (drop the copy tag)
    g_of, bijective = _bijection(v, xt._ground.__getitem__, "g_bijective", xt.x_chains)
    if g_of is None:
        return VerifyReport((certified, census, bijective))
    same = _same_complex(
        _flow(_arcs(v), v._down), "(X~,V)", g_of, xt.x_chains, [("X", xt.x_homology)]
    )
    return VerifyReport((certified, census, bijective, *same))


def _f_image(xt: XTilde, i: int) -> int:
    """f: critical cells of W -> MV generator keys, their glued ids."""
    piece, ground = xt._piece[i], xt._ground[i]
    if piece == _INTERIOR and i != xt._members[ground][0][0]:
        raise InternalConsistencyError(
            f"interior critical cell {xt.complex._simplex(i)} is not the distinguished "
            f"cell over {xt.decomposition.iab_bar.complex._simplex(ground)}"
        )
    return _glued_id(xt.decomposition, piece, ground)


def _sums(tallies: dict) -> Callable[[Hashable], Column]:
    """The signed boundary read off {key: {r: (count, sum)}}: key -> {r: sum}."""
    return lambda key: {r: total for r, (_, total) in tallies[key].items()}


def _w_tallies(gvf: GradientField, flow: Callable[[int], dict]) -> dict:
    """{tau: {r: (count, sum)}} over W's critical ids, from its split flow."""
    return {tau: flow(tau) for tau in _critical_ids(gvf)}


def _mv_tallies(d: Decomposition) -> dict:
    """{key: {r: (count, sum)}} over the MV generator keys of positive
    degree, from the split MV flows."""
    column = _mv_column(d, _split)
    return {key: column(key) for keys in _generator_keys(d)[1:] for key in keys}


def _forbidden_step(xt: XTilde, gvf: GradientField, flow: Callable[[int], Column]) -> str:
    """The first step off the five shapes on a W-trajectory between critical
    cells, named, or "".  A trajectory keeps its piece, except that one from
    the prism interior may leave it once, by a step down to a facet.  An arc
    (c, sigma, nu) of `_arcs` from tau lies on such a trajectory when tau is
    reachable from a critical cell and the trajectory can end after it: the
    split flow `flow` of W is not empty at nu, or sigma is critical."""
    arcs, down, piece = _arcs(gvf), gvf._down, xt._piece
    todo = list(itertools.chain.from_iterable(gvf._critical_ids[1:]))
    seen = bytearray(len(piece))
    for tau in todo:  # grows while it is read
        for _, sigma, nu in arcs(tau):
            if not (flow(nu) if nu >= 0 else down[sigma] < 0):
                continue
            # the step down may leave the interior; there is no step up at nu < 0
            for x, y, free in ((tau, sigma, piece[tau] == _INTERIOR), (sigma, nu, nu < 0)):
                if not free and piece[x] != piece[y]:
                    step = " -> ".join(map(str, xt.complex._simplices_of((x, y))))
                    return f"trajectory leaves the {_PIECE_NAME[piece[x]]} at {step}"
            if nu >= 0 and not seen[nu]:
                seen[nu] = 1
                todo.append(nu)
    return ""


def check_main_iso(xt: XTilde) -> VerifyReport:
    """Compare the Thom-Smale complex of (X~, W) with the Mayer-Vietoris
    complex of the decomposition under f: critical census, bijectivity of f,
    per-pair trajectory counts and weight multisets, trajectory
    classification, boundary matrices, and homology (against the direct
    simplicial computation as well)."""
    d = xt.decomposition
    w, certified = _field_check("w_field_certified", _build_w_field, xt)
    if w is None:
        return VerifyReport((certified,))
    # one split flow per side gives its boundary, its counts and its sums;
    # W's also feeds the scan
    mv = _mv_tallies(d)
    keys = _generator_keys(d)
    target = _trajectory_complex(keys, keys, _sums(mv))
    f_of, bijective = _bijection(w, partial(_f_image, xt), "f_bijective_onto_generators", target)
    if f_of is None:
        return VerifyReport((certified, bijective))
    flow = _flow(_arcs(w), w._down, _split)
    upstairs = _w_tallies(w, flow)

    # per critical pair, W's tallies against MV's, moved onto W's critical
    # ids along f
    at = {key: i for i, key in f_of.items()}
    critical, compared = w._critical_ids, 0
    c_detail = w_detail = k_detail = ""
    for q in range(1, len(critical)):
        rank = {sigma: k for k, sigma in enumerate(critical[q - 1])}
        compared += len(critical[q]) * len(critical[q - 1])
        for tau in critical[q]:
            g = upstairs[tau]
            m = {at[alpha]: n for alpha, n in mv.get(f_of[tau], {}).items()}
            for sigma in sorted(g.keys() | m.keys(), key=rank.__getitem__):
                have, want = g.get(sigma, (0, 0)), m.get(sigma, (0, 0))
                if have == want:
                    continue
                pair = " -> ".join(str(_named_generator(d, f_of[k])) for k in (tau, sigma))
                if have[0] != want[0] and not c_detail:
                    c_detail = f"{pair}: {have[0]} trajectories upstairs, {want[0]} in MV"
                    k_detail = f"{pair}: case multisets differ"
                w_detail = w_detail or f"{pair}: weight multisets differ"
    # the pieces at its ends fix a trajectory's case unless it takes a
    # forbidden step, so the case multisets match when the counts do
    k_detail = _forbidden_step(xt, w, flow) or k_detail
    return VerifyReport((
        certified,
        bijective,
        CheckResult("trajectory_counts_match", not c_detail,
                    c_detail or f"{compared} critical pairs compared"),
        CheckResult("trajectory_weights_match", not w_detail, w_detail),
        CheckResult("trajectory_classification", not k_detail, k_detail),
        *_same_complex(_sums(upstairs), "(X~,W)", f_of, target,
                       [("MV", homology(target)), ("X", xt.x_homology)]),
    ))
