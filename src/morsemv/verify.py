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
X~ is closed once, from the maximal cells of both copies and the cells
a_member(alpha, r) over each maximal alpha.  It is closed on ints: with n
the vertex count of X, the A-copy of vertex v is v and its B-copy n + v,
named "A:" and "B:" plus the name of v.  `build_xtilde` then records,
on X~'s ids, the piece of every cell (A-copy, B-copy or prism interior),
its ground (the id in X of the simplex it copies or lies over), and for
every intersection id the ids of its a_member and b_member cells.  The two
fields, their censuses, the maps g and f and the trajectory classification
read these maps; simplices are named only for reports.

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
matchings of facet pairs and certified acyclic; a fault in the block
formula shows up as a failed certification or census, never as bad input.

`check_iso_simplicial` and `check_main_iso` re-derive all of this on a given
decomposition and report each comparison separately, with counterexamples.
Both read one shared context: `build_xtilde` computes the simplicial chain
complex C_*(X) and its homology once, and both checks compare against those
fields.  Both also run one comparison routine: the critical cells map
bijectively onto the target's generators, the Thom-Smale boundaries in
target order equal the target's, and the Thom-Smale homology equals the
target's.  Once the bijection and every matrix match, the Thom-Smale complex
is the target complex, so its homology is taken from the target; it is
computed from the Thom-Smale matrices only when a matrix differs.

The per-pair checks of `check_main_iso` compare counts and signed sums from
flows, not lists of trajectories.  Every weight is +1 or -1, so a pair's
weight multiset is fixed by the number N of its trajectories and their
signed sum S.  Upstairs, one split flow of W (Forman's flow with the sign
in the key), whose value at a critical cell is that cell's column, gives
N, S and the boundary; in MV, S is the target's entry and N comes from
unsigned flows.  A trajectory's case is fixed by the pieces at its ends
unless it takes a step off the five shapes, and one scan over the
reachable arcs finds any such step.  The flows and the scan read the arcs
of W from `morse._arcs`, the one step rule of every field, so the boundary
and the checks cannot disagree on a step or a sign.  Only the
`trajectories` command enumerates trajectories.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .complexes import Simplex, SimplicialComplex, _Table
from .errors import InternalConsistencyError, MorsemvError
from .homology import (
    Column,
    HomologyResult,
    IntegerChainComplex,
    homology,
    simplicial_chain_complex,
)
from .morse import GradientField, _arcs, _boundary_columns, _flow, _matching, _split
from .mv import (
    FROM_A,
    FROM_B,
    SHIFTED,
    Decomposition,
    MVGenerator,
    _generator,
    _generator_keys,
    _mv_column,
    mv_chain_complex,
)

__all__ = [
    "XTilde",
    "CheckResult",
    "VerifyReport",
    "build_xtilde",
    "check_iso_simplicial",
    "check_main_iso",
]

# the piece of an X~ cell; the tag f gives its critical cells, and its name
_A, _B, _INTERIOR = 0, 1, 2
_PIECE_TAG = (FROM_A, FROM_B, SHIFTED)
_PIECE_NAME = ("A-copy", "B-copy", "interior")


@dataclass(frozen=True)
class XTilde:
    """The glued complex A-copy u prism(intersection copy) u B-copy, with the
    context both checks share.

    `x_chains` is the simplicial chain complex C_*(X), generators labelled in
    canonical order, and `x_homology` its homology: the target of
    `check_iso_simplicial` and the reference of `check_main_iso`, each
    computed once per verify run.  `_piece` and `_ground` give the piece
    and the ground id in X of every X~ id, and `_members` maps each
    intersection id in X to the X~ ids of its a_member and b_member cells
    (empty when the intersection is)."""

    decomposition: Decomposition
    complex: SimplicialComplex
    x_chains: IntegerChainComplex
    x_homology: HomologyResult
    _piece: bytearray
    _ground: list[int]
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
    x_chains = simplicial_chain_complex(d.x)
    shared = (x_chains, homology(x_chains))
    # X~ is closed on X's vertices, ranked: the A-copy of vertex v is v and
    # its B-copy n + v, so each copy keeps X's order and A comes before B.
    x_table = d.x._table
    x_verts, n = x_table.verts, len(x_table.names)
    names = [d.a_bar.tag + v for v in x_table.names] + [d.b_bar.tag + v for v in x_table.names]
    top = lambda i: tuple([v + n for v in x_verts[i]])  # the B-copy of id i
    cells = [x_verts[i] for i in d.a._maximal_ids()] + list(map(top, d.b._maximal_ids()))
    blocks = {}
    if d.iab is not None:
        blocks = {a: _block(x_verts[a], top(a)) for a in itertools.chain(*d.iab._ids)}
        cells += [c for alpha in d.iab._maximal_ids() for c in blocks[alpha][0]]
    glued = SimplicialComplex._of(_Table(cells, names))
    table = glued._table

    # An A-copy cell ends, and a B-copy cell starts, with a vertex of its
    # copy; a cell's ground is its set of vertices taken mod n.
    piece, ground, x_index = bytearray(len(table)), [], x_table.index
    for i, vs in enumerate(table.verts):
        if vs[-1] < n:
            piece[i] = _A
            ground.append(x_index[vs])
        elif vs[0] >= n:
            piece[i] = _B
            ground.append(x_index[tuple([v - n for v in vs])])
        else:
            piece[i] = _INTERIOR
            ground.append(x_index[tuple(sorted({v % n for v in vs}))])
    members = {}
    for alpha, (a_cells, b_cells) in blocks.items():
        a_ids = [table.index.get(c) for c in a_cells]
        b_ids = [table.index.get(c) for c in b_cells]
        q = len(x_verts[alpha]) - 1
        if None in a_ids or None in b_ids or (len(a_ids), len(b_ids)) != (q + 1, q + 2):
            raise InternalConsistencyError(
                f"the block over {d.iab_bar.complex._simplex(alpha)} "
                f"is not {2 * q + 3} cells of X~"
            )
        members[alpha] = (a_ids, b_ids)
    return XTilde(d, glued, *shared, piece, ground, members)


def _critical_ids(gvf: GradientField) -> Iterator[int]:
    """The critical ids of gvf, by dimension, each in canonical order."""
    return itertools.chain.from_iterable(gvf._critical_ids)


def _named(xt: XTilde, ids: Iterable[int]) -> list[Simplex]:
    """The X~ cells with these ids, in canonical order."""
    return list(xt.complex._simplices_of(sorted(ids)))


def _build_v_field(xt: XTilde) -> GradientField:
    """The collapse-the-prism field V on X~ (empty when there is no prism)."""
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


def _copy_ids(xt: XTilde, piece: int) -> list[int]:
    """For each id of X, the X~ id of its copy in `piece`, or -1."""
    ids = [-1] * len(xt.decomposition.x._table)
    for i, p in enumerate(xt._piece):
        if p == piece:
            ids[xt._ground[i]] = i
    return ids


def _build_w_field(xt: XTilde) -> GradientField:
    """Assemble W and certify it, checking the critical-cell census against
    the predicted one (A-copy criticals, B-copy criticals, one interior cell
    per intersection critical)."""
    d = xt.decomposition
    pairs: list[tuple[int, int]] = []
    expected: set[int] = set()
    for piece, w in ((_A, d.w_a), (_B, d.w_b)):
        ids = _copy_ids(xt, piece)
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
            "W-field critical census mismatch: "
            f"unexpected {_named(xt, actual - expected)}, "
            f"missing {_named(xt, expected - actual)}"
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


class _Checks:
    """Accumulator so each comparison lands in the report, pass or fail."""

    def __init__(self):
        self.results: list[CheckResult] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append(CheckResult(name, bool(ok), detail))
        return bool(ok)

    def report(self) -> VerifyReport:
        return VerifyReport(tuple(self.results))


def _compare(
    checks: _Checks,
    gvf: GradientField,
    column: Callable[[int], Column],
    source: str,
    image: Callable[[int], Hashable],
    bijective: str,
    target: IntegerChainComplex,
    homologies: Sequence[tuple[str, HomologyResult]],
    pair_checks: Callable[[dict[int, Hashable]], None] | None = None,
) -> None:
    """Compare the Thom-Smale complex of `gvf`, whose boundary `column`
    maps a critical id to its column (from Forman's flow), named `source`
    in reports, with `target`, whose labels name its generators in target
    order.

    Adds the check `bijective` (`image` maps the critical cells of each
    degree, given by id, bijectively onto that degree's labels), then whatever
    `pair_checks` adds given the image of every critical id, then
    `boundary_matrices_equal` (with each degree's cells ordered by their
    image, the Thom-Smale boundaries equal the target's) and
    `homology_equal` (the Thom-Smale homology equals each named group, the
    target's first).  Stops after the first check when the bijection
    fails."""
    critical = gvf._critical_ids
    try:
        image_of = {i: image(i) for i in _critical_ids(gvf)}
    except InternalConsistencyError as e:
        checks.add(bijective, False, str(e))
        return
    top = max((q for q, ids in enumerate(critical) if ids), default=0)
    detail = ""
    for q in range(max(top, target.top) + 1):
        labels = target.labels[q] if q <= target.top else ()
        images = [image_of[i] for i in critical[q]] if q < len(critical) else []
        if len(images) != len(labels) or set(images) != set(labels):
            detail = f"images in degree {q} do not match the target generators"
            break
    if not checks.add(bijective, not detail, detail):
        return
    if pair_checks is not None:
        pair_checks(image_of)

    preimage = {label: i for i, label in image_of.items()}
    ordered = [[preimage[label] for label in labels] for labels in target.labels]
    got = [
        _boundary_columns(ordered[q - 1], ordered[q], column)
        for q in range(1, target.top + 1)
    ]
    matrices_ok = True
    for q, (have, want) in enumerate(zip(got, target.columns), start=1):
        if have != want:
            matrices_ok = False
            spots = sorted(
                (i, j)
                for j, (h, w) in enumerate(zip(have, want))
                for i in h.keys() | w.keys()
                if h.get(i) != w.get(i)
            )
            detail = f"degree {q} differs at entries {spots[:5]}"
            break
    checks.add("boundary_matrices_equal", matrices_ok, detail)

    # Equal generators and equal matrices make the Thom-Smale complex the
    # target complex itself, so its homology is the target's.
    own = (
        homologies[0][1] if matrices_ok
        else homology(IntegerChainComplex.from_columns(target.ranks, got))
    )
    named = [(source, own), *homologies]
    ok = all(h == own for _, h in named)
    checks.add(
        "homology_equal",
        ok,
        str(homologies[-1][1]) if ok else "  vs  ".join(f"{n}: {h}" for n, h in named),
    )


def check_iso_simplicial(xt: XTilde) -> VerifyReport:
    """Compare (C_*(X), d) with the Thom-Smale complex of (X~, V) under g:
    critical-cell census, bijectivity of g, equality of every boundary
    matrix, and equality of homology."""
    d = xt.decomposition
    checks = _Checks()
    try:
        v = _build_v_field(xt)
        pairs = len(v._down) - v._down.count(-1)
        checks.add("v_field_certified", True, f"{pairs} pairs, acyclic")
    except MorsemvError as e:
        checks.add("v_field_certified", False, str(e))
        return checks.report()

    in_iab = d.iab._mask if d.iab is not None else bytearray(len(d.x._table))
    expected = {
        i for i, p in enumerate(xt._piece)
        if p == _A or p == _B and not in_iab[xt._ground[i]]
    }
    actual = set(_critical_ids(v))
    checks.add(
        "v_critical_census",
        actual == expected,
        f"{len(actual)} critical cells"
        if actual == expected
        else f"unexpected {_named(xt, actual - expected)[:3]}, "
        f"missing {_named(xt, expected - actual)[:3]}",
    )
    # g: critical cells of V -> simplices of X (drop the copy tag)
    _compare(
        checks, v, _flow(v), "(X~,V)", lambda i: d.x._simplex(xt._ground[i]),
        "g_bijective", xt.x_chains, [("X", xt.x_homology)],
    )
    return checks.report()


def _f_image(xt: XTilde, i: int) -> MVGenerator:
    """f: critical cells of W -> MV generators."""
    piece = xt._piece[i]
    if piece != _INTERIOR:
        return _generator(_PIECE_TAG[piece], xt.complex._simplex(i))
    alpha = xt._ground[i]
    ground = xt.decomposition.iab_bar.complex._simplex(alpha)
    if i != xt._members[alpha][0][0]:
        raise InternalConsistencyError(
            f"interior critical cell {xt.complex._simplex(i)} "
            f"is not the distinguished cell over {ground}"
        )
    return _generator(SHIFTED, ground)


def _w_tallies(gvf: GradientField, flow: Callable[[int], Column]) -> dict:
    """{tau: {r: (count, sum)}} over the critical ids of W: the number of
    trajectories from tau to r and the sum of their weights, from its split
    flow.  Every weight is +1 or -1, so the two fix the weight multiset."""
    out = {}
    for tau in _critical_ids(gvf):
        tally = out[tau] = {}
        for (r, w), n in flow(tau).items():
            count, total = tally.get(r, (0, 0))
            tally[r] = (count + n, total + w * n)
    return out


def _mv_tallies(d: Decomposition, target: IntegerChainComplex) -> dict:
    """{beta: {alpha: (count, sum)}} over MV generator keys: the count of
    the trajectories from unsigned flows, their sum from `target`'s columns."""
    counts = _mv_column(d, signed=False)
    out = {}
    for q, columns in enumerate(target.columns, start=1):
        rows = _generator_keys(d, q - 1)
        for beta, column in zip(_generator_keys(d, q), columns):
            tally = out[beta] = {alpha: (n, 0) for alpha, n in counts(beta).items()}
            for i, total in column.items():
                tally[rows[i]] = (tally.get(rows[i], (0, 0))[0], total)
    return out


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
    checks = _Checks()
    try:
        gvf = _build_w_field(xt)
        pairs = len(gvf._down) - gvf._down.count(-1)
        checks.add("w_field_certified", True, f"{pairs} pairs, acyclic")
    except MorsemvError as e:
        checks.add("w_field_certified", False, str(e))
        return checks.report()

    target = mv_chain_complex(d)
    # one split flow of W gives its boundary, its tallies and the scan
    flow = _flow(gvf, _split)
    upstairs = _w_tallies(gvf, flow)

    def pair_checks(f_of: dict[int, MVGenerator]) -> None:
        # MV's tallies move onto W's critical ids along f
        key = {i: (_PIECE_TAG[xt._piece[i]], xt._ground[i]) for i in f_of}
        at, mv = {k: i for i, k in key.items()}, _mv_tallies(d, target)
        critical, compared = gvf._critical_ids, 0
        c_detail = w_detail = k_detail = ""
        for q in range(1, len(critical)):
            rank = {sigma: k for k, sigma in enumerate(critical[q - 1])}
            compared += len(critical[q]) * len(critical[q - 1])
            for tau in critical[q]:
                g = upstairs[tau]
                m = {at[alpha]: n for alpha, n in mv.get(key[tau], {}).items()}
                for sigma in sorted(g.keys() | m.keys(), key=rank.__getitem__):
                    have, want = g.get(sigma, (0, 0)), m.get(sigma, (0, 0))
                    if have == want:
                        continue
                    pair = f"{f_of[tau]} -> {f_of[sigma]}"
                    if have[0] != want[0] and not c_detail:
                        c_detail = f"{pair}: {have[0]} trajectories upstairs, {want[0]} in MV"
                        k_detail = f"{pair}: case multisets differ"
                    w_detail = w_detail or f"{pair}: weight multisets differ"
        checks.add("trajectory_counts_match", not c_detail,
                   c_detail or f"{compared} critical pairs compared")
        checks.add("trajectory_weights_match", not w_detail, w_detail)
        # the pieces at its ends fix a trajectory's case unless it takes a
        # forbidden step, so the case multisets match when the counts do
        k_detail = _forbidden_step(xt, gvf, flow) or k_detail
        checks.add("trajectory_classification", not k_detail, k_detail)

    _compare(
        checks, gvf, lambda tau: {r: total for r, (_, total) in upstairs[tau].items() if total},
        "(X~,W)", lambda i: _f_image(xt, i), "f_bijective_onto_generators",
        target, [("MV", homology(target)), ("X", xt.x_homology)], pair_checks,
    )
    return checks.report()
