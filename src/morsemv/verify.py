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
vertices are the copies' own vertices, so the gluing is by vertex.  These
are the prism operator's simplices (Hatcher, "Algebraic Topology", section
2.1), and their facets are again block cells, over alpha or over a facet
of alpha, so `build_xtilde` lays X~ out from X's id table by arithmetic,
without writing a vertex tuple or closing anything, every X~ id it writes
drawn from the one list of X~'s ids, as a table's are: dimension by
dimension, the A-copy cells, the B-copy cells and the interior cells, each
block's in a row, and each cell's facets in vertex-drop order from the
facets of its ground in X.  As it lays them out it records, on X~'s ids,
the piece of every cell, which is the copy index k of `mv` (0 the A-copy,
1 the B-copy, 2 the prism interior, whose critical cells f sends to the
I-copy's generators), its ground (the id in X of the simplex it copies or
lies over), for every id of X the ids of its A- and B-copies, and for
every intersection id the ids of its a_member and b_member cells.  The two
fields, their censuses, the maps g and f and the trajectory classification
read these maps.  A cell's vertices (with n the vertex count of X, the
A-copy of vertex v is v and its B-copy n + v, named "A:" and "B:" plus the
name of v) are built only to name it in a report or to find it by name.
X~'s ids are grouped by dimension but not canonical, so where a report
lists cells in order (the census details, the first failing pair of
`check_main_iso`) it sorts them by dimension, then vertex tuple, the order
of a complex closed from its cells.

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
matchings of facet pairs and certified acyclic as `morse` certifies every
field without a coreduction clock: by the topological pass
`morse._ordered`, which reads a field's pairs alone, so W over pinned
fields is certified as W over greedy ones, and `verify` builds no clock.
Only a field that the pass rejects runs Forman's flow, whose cycle is the
closed trajectory that names the failure; a fault in a block shows up as
a failed certification or census, never as bad input.

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
signed sum S.  Each side is read off one split flow (`morse._flow` with
`split`), whose value at a generator maps r to (N, S), the number of its
trajectories to r and the sum of their weights: upstairs that of W, in MV
that of the glued copies (`mv._mv_column`, split).  Its sums S are the
side's boundary; the MV one is the target complex.  A critical cell's two
tallies are compared as whole maps, and its ends sorted only when they
differ, for the first mismatch.  A trajectory's case is fixed by the
pieces at its ends unless it takes a step off the five shapes, and one
scan finds any such step: it reads the arcs out of the non-empty entries
of W's flow memo, the cells on a trajectory between critical cells, and
keeps no search of its own.  The flows and the scan read the arcs of W
from `morse._arcs`, the one step rule of every field, so the boundary and
the checks cannot disagree on a step or a sign.  Only the `trajectories`
command enumerates trajectories.
"""
from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .complexes import (Simplex, SimplicialComplex, _canonical, _FrozenRecord, _key, _ranks,
                        _Table, _width)
from .errors import InternalConsistencyError, MorsemvError
from .homology import Column, HomologyResult, IntegerChainComplex, _simplicial_chains, homology
from .morse import (
    GradientField,
    _arcs,
    _boundary_columns,
    _flow,
    _matching,
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


class XTilde(_FrozenRecord):
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

    __slots__ = _fields = ("decomposition", "complex", "x_chains", "x_homology",
                           "_piece", "_ground", "_copies", "_members")

    def __init__(self, decomposition: Decomposition, complex: SimplicialComplex,
                 x_chains: IntegerChainComplex, x_homology: HomologyResult, _piece: bytearray,
                 _ground: list[int], _copies: tuple[list[int], list[int]],
                 _members: dict[int, tuple[tuple[int, ...], tuple[int, ...]]]):
        self._set(decomposition, complex, x_chains, x_homology, _piece, _ground, _copies, _members)


class _Cells:
    """The vertex tuples of X~'s cells, `_PrismTable.verts`: each is built
    when it is read, from the cell's piece, its ground, whose tuple is
    decoded from its key in X, and, for an interior cell, its place in its
    block.  With n the vertex count of X, the A-copy of vertex v is v and
    its B-copy n + v."""

    __slots__ = ("x_table", "n", "piece", "ground", "members")

    def __init__(self, x_table, n, piece, ground, members):
        self.x_table, self.n, self.piece, self.ground, self.members = (
            x_table, n, piece, ground, members
        )

    def __getitem__(self, j: int) -> tuple[int, ...]:
        g, p = self.ground[j], self.piece[j]
        bottom = _ranks(self.x_table.keys[g], self.x_table.width)
        if p == _A:
            return bottom
        top = tuple([v + self.n for v in bottom])
        if p == _B:
            return top
        a, b = self.members[g]
        r = j - a[0]
        if 0 <= r < len(a):
            return bottom[: r + 1] + top[r:]
        r = b.index(j)
        return bottom[:r] + top[r:]


class _PrismTable(_Table):
    """X~'s id table as `build_xtilde` lays it out: names, dimension starts,
    facets and `ids`, the one int object of each id, as in `_Table`, with
    no keys: `verts` is a `_Cells`, which `simplices` names, and `index`,
    keyed by `_Table`'s rule, is listed on first use, since only naming a
    cell or finding one by its names reads them.  Ids are grouped by
    dimension but are not canonical."""

    __slots__ = ("verts", "_index")

    def __init__(self, names: list[str], start: list[int], facets: list[tuple[int, ...]],
                 verts: _Cells, ids: list[int]):
        self.names, self.rank = names, dict(zip(names, range(len(names))))
        self.width = _width(len(names))
        self.start, self.facets, self.verts, self.ids = start, facets, verts, ids
        self._cofacets, self._index, self._by_line = None, None, None

    def simplices(self, ids: Iterable[int], tag: str) -> tuple[Simplex, ...]:
        names, verts = self.names, self.verts
        return tuple([_canonical(tuple([tag + names[v] for v in verts[i]])) for i in ids])

    @property
    def index(self) -> dict[int, int]:
        if self._index is None:
            keys = map(_key, map(self.verts.__getitem__, self.ids), itertools.repeat(self.width))
            self._index = dict(zip(keys, self.ids))
        return self._index


def _chunks(items: Iterable, k: int) -> Iterator[tuple]:
    """The consecutive k-tuples of `items`."""
    return zip(*[iter(items)] * k)


@functools.cache
def _a_member_facets(p: int) -> tuple[Callable[[tuple], tuple], tuple[int, ...]]:
    """How the facets of the p cells a_member(alpha, r), 0 <= r < p, over a
    (p-1)-cell alpha, p > 1, are read: `take` picks them, cell by cell in
    vertex-drop order, from a_member(f_k, 0) of every facet f_k of alpha
    followed by the b_member cells of alpha, and `shift` is the level added
    to each.  With alpha = [x_0..x_q] and f_k its facet without x_k,
    a_member(alpha, r) less a_k is a_member(f_k, r-1) for k < r, less a_r
    b_member(alpha, r), less b_r b_member(alpha, r+1), and less b_k
    a_member(f_k, r) for k > r."""
    take, shift = [], []
    for r in range(p):
        take += [*range(r), p + r, p + r + 1, *range(r + 1, p)]
        shift += [r - 1] * r + [0, 0] + [r] * (p - 1 - r)
    return operator.itemgetter(*take), tuple(shift)


@functools.cache
def _b_member_facets(p: int) -> Callable[[tuple], tuple]:
    """How the facets of the p interior cells b_member(alpha, r), 0 < r <=
    p, over a p-cell alpha are read, cell by cell in vertex-drop order, from
    the b_member cells of every facet f_k of alpha, p + 1 each:
    b_member(alpha, r) less a_k is b_member(f_k, r-1) for k < r, and less
    b_k b_member(f_k, r)."""
    return operator.itemgetter(
        *[k * (p + 1) + r - (k < r) for r in range(1, p + 1) for k in range(p + 1)]
    )


def build_xtilde(d: Decomposition) -> XTilde:
    x_chains = _simplicial_chains(d.x, d.x._ids)
    shared = (x_chains, homology(x_chains))
    x_table = d.x._table
    xf, n = x_table.facets, len(x_table)
    flat = itertools.chain.from_iterable
    pieces = (d.a._ids, d.b._ids)
    i_ids = d.iab._ids if d.iab is not None else ()
    # X~'s ids, one int object each, from which every X~ id below is drawn:
    # the copies, and 2q + 1 interior cells over each q-cell of the intersection
    tilde = list(range(len(d.a) + len(d.b) + sum(
        (2 * q + 1) * len(alphas) for q, alphas in enumerate(i_ids))))
    copies = ([-1] * n, [-1] * n)
    # for an intersection id alpha, a_of[alpha] is a_member(alpha, 0) and
    # b_of[alpha] lists b_member(alpha, r), r = 0..q+1, the copies at its ends
    a_of: dict[int, int] = {}
    b_of: dict[int, tuple[int, ...]] = {}
    members = {}
    piece, ground, facets, start = bytearray(), [], [], [0]
    # Dimension by dimension p: the A-copy cells, the B-copy cells, the
    # a_member cells over the intersection's (p-1)-cells and the interior
    # b_member cells over its p-cells, each block's in a row.  A cell's
    # facets are laid out before it, and its facet ids are read off theirs,
    # a whole dimension in one run.
    for p in range(max(len(pieces[_A]), len(pieces[_B]), len(i_ids) + 1)):
        for k, ids in enumerate(pieces):
            cells = ids[p] if p < len(ids) else []
            own, first = copies[k], len(ground)
            for i, j in zip(cells, tilde[first : first + len(cells)]):
                own[i] = j
            faces = map(own.__getitem__, flat(map(xf.__getitem__, cells)))
            facets += _chunks(faces, p + 1) if p else [()] * len(cells)
            ground += cells
            piece += bytes([k]) * len(cells)
        if 0 < p <= len(i_ids):
            alphas, j = i_ids[p - 1], len(ground)
            span = tilde[j : j + p * len(alphas)]
            a_of.update(zip(alphas, span[::p]))
            members.update(zip(alphas, zip(_chunks(span, p), map(b_of.__getitem__, alphas))))
            if p == 1:  # over a vertex, [a_0 b_0] has the facets [b_0] and [a_0]
                facets += map(b_of.__getitem__, alphas)
            else:
                take, shift = _a_member_facets(p)
                below = _chunks(map(a_of.__getitem__, flat(map(xf.__getitem__, alphas))), p)
                sources = map(tuple.__add__, below, map(b_of.__getitem__, alphas))
                faces = map(operator.add, flat(map(take, sources)), itertools.cycle(shift))
                facets += _chunks(map(tilde.__getitem__, faces), p + 1)
            ground += flat(zip(*[alphas] * p))
        if p < len(i_ids):
            alphas, j = i_ids[p], len(ground)
            if p:
                below = flat(map(b_of.__getitem__, flat(map(xf.__getitem__, alphas))))
                faces = flat(map(_b_member_facets(p), _chunks(below, (p + 1) ** 2)))
                facets += _chunks(faces, p + 1)
                ground += flat(zip(*[alphas] * p))
            inner = iter(tilde[j : len(ground)])
            ends = map(copies[_B].__getitem__, alphas), map(copies[_A].__getitem__, alphas)
            b_of.update(zip(alphas, zip(ends[0], *[inner] * p, ends[1])))
        piece += bytes([_INTERIOR]) * (len(ground) - len(piece))
        start.append(len(ground))
    names = [d.a_bar.tag + v for v in x_table.names] + [d.b_bar.tag + v for v in x_table.names]
    verts = _Cells(x_table, len(x_table.names), piece, ground, members)
    glued = SimplicialComplex._of(_PrismTable(names, start, facets, verts, tilde))
    return XTilde(d, glued, *shared, piece, ground, copies, members)


def _report_order(xt: XTilde, ids) -> list[int]:
    """The X~ ids `ids` as reports list cells: by dimension, then vertex
    tuple, the canonical order of a complex closed from generators."""
    verts = xt.complex._table.verts
    return sorted(ids, key=lambda i: (len(vs := verts[i]), vs))


def _critical_ids(gvf: GradientField) -> Iterator[int]:
    """The critical ids of gvf, by dimension, each in id order."""
    return itertools.chain.from_iterable(gvf._critical_ids)


def _census_mismatch(
    xt: XTilde, actual: set[int], expected: set[int], most: int | None = None
) -> str:
    """The X~ cells critical but not expected, and expected but not
    critical: the first `most` (or all) of each, in report order, named."""
    name = xt.complex._simplices_of
    named = lambda ids: ", ".join(map(str, name(_report_order(xt, ids)[:most])))
    return f"unexpected [{named(actual - expected)}], missing [{named(expected - actual)}]"


def _build_v_field(xt: XTilde) -> GradientField:
    """The collapse-the-prism field V on X~ (empty when there is no prism),
    certified, as W is, by the topological pass `morse._ordered`."""
    pairs = (pair for a, b in xt._members.values() for pair in zip(b, a))
    return GradientField._certified(
        xt.complex, *_matching(xt.complex, pairs, InternalConsistencyError)
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
    """Assemble W and certify it by the topological pass `morse._ordered`,
    checking the critical-cell census against the predicted one (A-copy
    criticals, B-copy criticals, one interior cell per intersection
    critical)."""
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


class CheckResult(_FrozenRecord):
    __slots__ = _fields = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self._set(name, ok, detail)

    def __str__(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return f"{mark} {self.name}" + (f": {self.detail}" if self.detail else "")


class VerifyReport(_FrozenRecord):
    __slots__ = _fields = ("checks",)

    def __init__(self, checks: tuple[CheckResult, ...]):
        self._set(checks)

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
    critical: Sequence[list[int]], image: Callable[[int], Hashable], name: str,
    target: IntegerChainComplex,
) -> tuple[dict[int, Hashable] | None, CheckResult]:
    """The check `name` that `image` maps the critical cells of a field in
    each degree, `critical[q]` by id, bijectively onto that degree's keys,
    the labels of `target`, and the image of every critical id when it does
    (None when it does not)."""
    try:
        image_of = {i: image(i) for i in itertools.chain(*critical)}
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
    columns: Mapping[int, Column], source: str, image_of: dict[int, Hashable],
    target: IntegerChainComplex, homologies: Sequence[tuple[str, HomologyResult]],
) -> tuple[CheckResult, CheckResult]:
    """Compare the Thom-Smale complex whose boundary `columns` maps each
    critical id of positive degree to its column (the memo of a flow valued
    over them, say), named `source` in reports, with `target`, given `image_of`, a
    bijection from its critical ids onto the keys of target's generators:
    `boundary_matrices_equal` (with each degree's cells ordered by their
    image, the Thom-Smale boundaries equal the target's) and
    `homology_equal` (the Thom-Smale homology equals each named group, the
    target's first).  Each column is keyed by row position and compared
    with the target's as it comes, then dropped; only when a degree differs
    are the columns keyed again and kept, for the details and the
    homology."""
    preimage = {label: i for i, label in image_of.items()}
    ordered = [[preimage[label] for label in labels] for labels in target.labels]
    got, detail = None, ""
    for q, want in enumerate(target.columns, start=1):
        index = {r: i for i, r in enumerate(ordered[q - 1])}
        if all({index[r]: v for r, v in columns[c].items() if v} == w
               for c, w in zip(ordered[q], want)):
            continue
        got = [_boundary_columns(ordered[p - 1], ordered[p], columns)
               for p in range(1, target.top + 1)]
        spots = sorted(
            (i, j)
            for j, (h, w) in enumerate(zip(got[q - 1], want))
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
    del expected, actual  # a cell each on long inputs, and not read again
    # g: critical cells of V -> ids of X (drop the copy tag)
    g_of, bijective = _bijection(v._critical_ids, xt._ground.__getitem__, "g_bijective",
                                 xt.x_chains)
    if g_of is None:
        return VerifyReport((certified, census, bijective))
    flow = _flow(_arcs(v), itertools.chain(*v._critical_ids[1:]))
    same = _same_complex(flow, "(X~,V)", g_of, xt.x_chains, [("X", xt.x_homology)])
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


def _sums(tallies: Mapping[int, dict], keys: Iterable[int]) -> dict[int, Column]:
    """The signed boundary read off the split flow `tallies` at `keys`:
    {key: {r: sum}} from {key: {r: (count, sum)}}."""
    return {key: {r: total for r, (_, total) in tallies[key].items()} for key in keys}


def _w_tallies(gvf: GradientField) -> dict:
    """The memo of W's split flow valued over its critical ids: {tau: {r:
    (count, sum)}} at each of them, and at every id below them."""
    return _flow(_arcs(gvf), _critical_ids(gvf), split=True)


def _forbidden_step(xt: XTilde, gvf: GradientField, tallies: Mapping[int, dict]) -> str:
    """The first step off the five shapes on a W-trajectory between critical
    cells, named, or "".  A trajectory keeps its piece, except that one from
    the prism interior may leave it once, by a step down to a facet.  An arc
    (c, sigma, nu) of `_arcs` from tau lies on such a trajectory exactly
    when tau is an entry of `tallies`, the memo of W's split flow valued
    over W's critical ids and so at every id they reach, and the trajectory
    can end after it: the arc ends, or the memo is not empty at nu.  A
    count never cancels, so tau's tally is then not empty, and the scan
    reads the non-empty entries in the memo's order."""
    arcs, piece, value = _arcs(gvf), xt._piece, tallies.get
    for tau, reached in tallies.items():
        if not reached:
            continue
        for _, sigma, nu in arcs(tau):
            if nu >= 0 and not value(nu):
                continue
            # the step down may leave the interior; there is no step up at nu < 0
            for x, y, free in ((tau, sigma, piece[tau] == _INTERIOR), (sigma, nu, nu < 0)):
                if not free and piece[x] != piece[y]:
                    step = " -> ".join(map(str, xt.complex._simplices_of((x, y))))
                    return f"trajectory leaves the {_PIECE_NAME[piece[x]]} at {step}"
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
    keys = _generator_keys(d)
    mv = _mv_column(d, keys, split=True)
    target = _trajectory_complex(keys, keys, _sums(mv, itertools.chain(*keys[1:])))
    critical = [_report_order(xt, ids) for ids in w._critical_ids]
    f_of, bijective = _bijection(
        critical, functools.partial(_f_image, xt), "f_bijective_onto_generators", target
    )
    if f_of is None:
        return VerifyReport((certified, bijective))
    upstairs = _w_tallies(w)

    # per critical pair, W's tallies against MV's, moved onto W's critical
    # ids along f
    at = {key: i for i, key in f_of.items()}
    compared = 0
    c_detail = w_detail = k_detail = ""
    for q in range(1, len(critical)):
        rank = {sigma: k for k, sigma in enumerate(critical[q - 1])}
        compared += len(critical[q]) * len(critical[q - 1])
        for tau in critical[q]:
            g = upstairs[tau]
            m = {at[alpha]: n for alpha, n in mv[f_of[tau]].items()}
            if g == m:
                continue
            # the ends of a pair that differs, by rank, for its first mismatch
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
    k_detail = _forbidden_step(xt, w, upstairs) or k_detail
    return VerifyReport((
        certified,
        bijective,
        CheckResult("trajectory_counts_match", not c_detail,
                    c_detail or f"{compared} critical pairs compared"),
        CheckResult("trajectory_weights_match", not w_detail, w_detail),
        CheckResult("trajectory_classification", not k_detail, k_detail),
        *_same_complex(_sums(upstairs, itertools.chain(*critical[1:])), "(X~,W)", f_of,
                       target, [("MV", homology(target)), ("X", xt.x_homology)]),
    ))
