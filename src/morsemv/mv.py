"""A Mayer-Vietoris chain complex for X = A u B from discrete Morse data.

Given subcomplexes A, B covering X, form disjoint tagged copies of the three
pieces ("A:", "B:" and "I:" for the intersection) and pick one gradient
field on each copy, entirely independently -- no compatibility between the
three fields is required.  X is the only complex closed: A, B and A n B are
views of X's id table, and each copy is a tag on its view, so a tagged cell
is (tag, id) and the transfer from the I-copy into the A- or B-copy keeps
the id.  Tagged simplices appear only in what the module returns.  The
generators in degree q are

    D_q = Crit_q(A-copy)  u  Crit_q(B-copy)  u  Crit_{q-1}(I-copy),

tagged FromA / FromB / Shifted; intersection criticals appear with their
degree shifted up by one.  The boundary of a generator beta collects signed
trajectory counts, where a trajectory from beta to alpha exists in exactly
five situations, keyed by the tags:

  1. FromA -> FromA: an extended gradient trajectory inside the A-copy.
  2. FromB -> FromB: the same inside the B-copy.
  3. Shifted -> Shifted: an extended trajectory inside the I-copy.
  4. Shifted -> FromA: a descending trajectory piece inside the I-copy
     (tau_0, sigma_1, ..., tau_p, no terminal facet step), a transfer of
     tau_p into the A-copy along the inclusion of the intersection, then an
     ascending zigzag through the A-copy field ending at the critical
     target, with p >= 0 descent steps and l >= 0 ascent steps.
  5. Shifted -> FromB: as 4 into the B-copy.

All other tag combinations admit no trajectories.

Every step of a route is an arc of one copy's field, signed by the one
arc rule `morse._arcs`; the transfer of cases 4/5 (`morse._transfer`) is
an arc in the same shape that keeps the id: it carries no incidence, and
the step up from the transferred s to up(s) in the piece has the sign
-<up(s), s>.  A weight is the product of these signs and a per-case
sign:

    case   1   2   3   4   5
    sign  +1  +1  -1  -1  +1

The boundary sums these weights without listing the trajectories.  Cases
1-3 are Forman's flow of one copy (`morse._flow`).  Cases 4/5 compose
flows: D(tau) sums, over the arcs (c, sigma, nu) of the I-copy from tau
with nu >= 0, c D(nu), plus the transfer of tau followed by the piece's own
flow.  Each is memoised per id, so assembly is linear in the arcs of the
gradient digraphs, while the number of trajectories can grow exponentially.
`mv_trajectories_from` and `enumerate_mv` list the trajectories with one
iterative depth-first walk over the same arcs (`morse._walk`), so neither
has a depth limit.  The resulting boundary squares to zero and the
homology of (D_*, d) is the simplicial homology of X; both facts are
exercised heavily by the test suite rather than trusted.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .complexes import ComplexCopy, Simplex, SimplicialComplex, copy_relabel, intersection
from .errors import DecompositionError, FieldError, InternalConsistencyError
from .homology import Column, HomologyResult, IntegerChainComplex, _dense, homology
from .morse import (
    DEFAULT_SEED,
    GradientField,
    _arcs,
    _boundary_columns,
    _combine,
    _flow,
    _grouped,
    _heads,
    _matching,
    _memoised,
    _moves,
    _onward,
    _path_weight,
    _trajectory_complex,
    _transfer,
    _unsigned,
    _walk,
    greedy_gvf,
)

__all__ = [
    "FROM_A",
    "FROM_B",
    "SHIFTED",
    "MVGenerator",
    "MVTrajectory",
    "Decomposition",
    "build_decomposition",
    "mv_generators",
    "enumerate_mv",
    "mv_trajectories_from",
    "mv_boundary",
    "mv_chain_complex",
    "mv_homology",
]

FROM_A = "FromA"
FROM_B = "FromB"
SHIFTED = "Shifted"
_TAG_RANK = {FROM_A: 0, FROM_B: 1, SHIFTED: 2}
# the per-case sign applied on top of the signs of the steps
_CASE_SIGN = {1: 1, 2: 1, 3: -1, 4: -1, 5: 1}
# the case of a trajectory inside one copy, by the tag of its generators
_OWN_CASE = {FROM_A: 1, FROM_B: 2, SHIFTED: 3}
# the case of a trajectory from a Shifted generator into a piece, by its tag
_MIXED_CASE = {FROM_A: 4, FROM_B: 5}


@dataclass(frozen=True)
class MVGenerator:
    """A generator of the Mayer-Vietoris complex: a critical simplex of one
    of the three copies, with its tag and its (possibly shifted) degree."""

    tag: str
    simplex: Simplex
    degree: int

    def __post_init__(self):
        if self.tag not in _TAG_RANK:
            raise FieldError(f"unknown generator tag {self.tag!r}")
        expected = self.simplex.dim + (1 if self.tag == SHIFTED else 0)
        if self.degree != expected:
            raise FieldError(
                f"{self.tag} generator on {self.simplex} must have degree {expected}"
            )

    @property
    def name(self) -> str:
        """The tagged vertex-list form used by the command line."""
        return ",".join(self.simplex.vertices)

    @property
    def sort_key(self):
        return (self.degree, _TAG_RANK[self.tag], self.simplex.key)

    def __str__(self) -> str:
        return f"{self.tag}:{self.name}"


def _generator(tag: str, simplex: Simplex) -> MVGenerator:
    simplex = abs(simplex)
    return MVGenerator(tag, simplex, simplex.dim + (1 if tag == SHIFTED else 0))


class Decomposition:
    """A decomposition X = A u B with one gradient field per tagged copy.

    Use `build_decomposition`; the constructor only stores what it is given.
    `iab`/`iab_bar`/`w_i` are None exactly when A and B are disjoint.
    """

    def __init__(
        self,
        x: SimplicialComplex,
        a: SimplicialComplex,
        b: SimplicialComplex,
        a_bar: ComplexCopy,
        b_bar: ComplexCopy,
        iab: SimplicialComplex | None,
        iab_bar: ComplexCopy | None,
        w_a: GradientField,
        w_b: GradientField,
        w_i: GradientField | None,
    ):
        self.x, self.a, self.b = x, a, b
        self.a_bar, self.b_bar = a_bar, b_bar
        self.iab, self.iab_bar = iab, iab_bar
        self.w_a, self.w_b, self.w_i = w_a, w_b, w_i

    def _fields(self) -> dict[str, GradientField | None]:
        """The field of each generator tag's copy."""
        return {FROM_A: self.w_a, FROM_B: self.w_b, SHIFTED: self.w_i}

    def transfer(self, s: Simplex, into: str) -> Simplex:
        """Carry an intersection-copy simplex into the A- or B-copy along
        the inclusions A n B -> A, B (by renaming through the base)."""
        if self.iab_bar is None:
            raise DecompositionError("the decomposition has an empty intersection")
        target = self.a_bar if into == FROM_A else self.b_bar
        return target.push(self.iab_bar.pull(s))

    def __repr__(self) -> str:
        ni = len(self.iab) if self.iab is not None else 0
        return (
            f"<Decomposition |A|={len(self.a)} |B|={len(self.b)} |AnB|={ni} "
            f"of {self.x!r}>"
        )


def _field_on_copy(
    piece: SimplicialComplex, copy: ComplexCopy, pairs: Iterable[Sequence], piece_name: str
) -> GradientField:
    """The field on `copy` pinned by `pairs` in the vertex names of X, each
    end a Simplex, vertex names, or a string of them, resolved to ids."""
    ids, id_of = [], piece._id_of

    def id_of_end(end) -> int | None:
        if isinstance(end, Simplex):
            return id_of(end.vertices)
        return id_of(tuple(sorted(end.split() if isinstance(end, str) else end)))

    for sigma, tau in pairs:
        ends = (id_of_end(sigma), id_of_end(tau))
        if None in ends:
            named = [s if isinstance(s, Simplex) else Simplex(s) for s in (sigma, tau)]
            raise DecompositionError(
                f"field pair ({named[0]}, {named[1]}) references {named[ends.index(None)]}, "
                f"which is not a simplex of {piece_name}"
            )
        ids.append(ends)
    return GradientField._certified(copy.complex, *_matching(copy.complex, ids, FieldError))


def _piece(
    x: SimplicialComplex, piece: SimplicialComplex | Iterable[tuple[str, ...]], name: str
) -> SimplicialComplex:
    """The piece `name` as a view over X's table.  `piece` is a complex, or
    the generators of one as sorted tuples of the vertex names of X."""
    if isinstance(piece, SimplicialComplex):
        if piece._table is x._table and piece.is_subcomplex_of(x):
            return piece
        piece = [s.vertices for s in piece.maximal_simplices]
    ids = [x._id_of(vs) for vs in piece]
    if None in ids:
        raise DecompositionError(f"{name} is not a subcomplex of X")
    return x._closure(ids)


def build_decomposition(
    x: SimplicialComplex,
    a: SimplicialComplex,
    b: SimplicialComplex,
    fields: Mapping[str, Iterable[tuple[Simplex, Simplex]] | None] | None = None,
    strategy: str = "lexicographic",
    seed: int | None = None,
) -> Decomposition:
    """Validate X = A u B, tag the three pieces, and equip each tagged copy
    with a gradient field.

    A, B and A n B become views over X's id table, and each copy is a tag
    on its view, so X is the only complex that is closed.  `fields` may
    supply explicit pair lists for any of the pieces "A", "B", "I", written
    in the vertex names of X; pieces without explicit pairs get a greedy
    field with the given strategy.  A seed, when used, is offset by 0/1/2
    for the three pieces so they draw distinct orders.
    """
    a = _piece(x, a, "A")
    b = _piece(x, b, "B")
    # A and B lie in X, so they cover it exactly when |A| + |B| - |A n B| = |X|.
    iab = intersection(a, b) if set(a.vertices) & set(b.vertices) else None
    if len(a) + len(b) - (len(iab) if iab is not None else 0) != len(x):
        raise DecompositionError("A u B does not cover X")
    fields = dict(fields or {})
    unknown = set(fields) - {"A", "B", "I"}
    if unknown:
        raise DecompositionError(f"unknown field section(s): {sorted(unknown)}")

    a_bar = copy_relabel(a, "A:")
    b_bar = copy_relabel(b, "B:")
    iab_bar = copy_relabel(iab, "I:") if iab is not None else None
    if iab is None and fields.get("I") is not None:
        raise DecompositionError("a field was supplied for an empty intersection")

    base_seed = DEFAULT_SEED if seed is None else seed
    built: dict[str, GradientField | None] = {}
    for offset, (name, piece, copy) in enumerate(
        (("A", a, a_bar), ("B", b, b_bar), ("I", iab, iab_bar))
    ):
        if piece is None:
            built[name] = None
        elif fields.get(name) is not None:
            built[name] = _field_on_copy(piece, copy, fields[name], name)
        else:
            built[name] = greedy_gvf(copy.complex, strategy, base_seed + offset)
    return Decomposition(
        x, a, b, a_bar, b_bar, iab, iab_bar, built["A"], built["B"], built["I"]
    )


def _max_degree(d: Decomposition) -> int:
    top = max(d.a_bar.complex.dim, d.b_bar.complex.dim)
    if d.iab_bar is not None:
        top = max(top, d.iab_bar.complex.dim + 1)
    return top


def _critical_of_dim(gvf: GradientField | None, q: int) -> list[int]:
    """The critical ids of dimension q of gvf, in canonical order."""
    if gvf is None or not 0 <= q < len(gvf._critical_ids):
        return []
    return gvf._critical_ids[q]


def _generator_keys(d: Decomposition, q: int) -> list[tuple[str, int]]:
    """D_q as (tag, id) pairs, in the order of `mv_generators`."""
    return [
        (tag, i)
        for tag, gvf in d._fields().items()
        for i in _critical_of_dim(gvf, q - 1 if tag == SHIFTED else q)
    ]


def mv_generators(d: Decomposition, q: int | None = None) -> tuple[MVGenerator, ...]:
    """D_q in canonical order (FromA, then FromB, then Shifted, each block
    by simplex), or every degree ascending when q is None."""
    if q is None:
        return tuple(itertools.chain.from_iterable(
            mv_generators(d, p) for p in range(_max_degree(d) + 1)
        ))
    fields = d._fields()
    return tuple(
        _generator(tag, fields[tag].complex._simplex(i)) for tag, i in _generator_keys(d, q)
    )


@dataclass(frozen=True)
class MVTrajectory:
    """One Mayer-Vietoris trajectory.

    `steps` is the full simplex sequence: for cases 1-3 an extended
    trajectory in the relevant copy; for cases 4/5 the descent in the
    I-copy, the transferred simplex, and the ascent in the target copy:

        (tau_0)_I, sigma_1, ..., (tau_p)_I, (tau_p)_piece,
        (alpha_p)_piece, (tau_{p+1})_piece, ..., (tau_{p+l})_piece.

    p and l are only meaningful for cases 4/5.
    """

    case: int
    beta: MVGenerator
    alpha: MVGenerator
    steps: tuple[Simplex, ...]
    p: int | None = None
    l: int | None = None
    # the product of the signs the walk read; see `weight`
    _weight: int | None = field(default=None, repr=False, compare=False)

    @property
    def weight(self) -> int:
        """The case sign times the signs of the steps: read off `morse._arcs`
        by the walk that found the trajectory, or, when it was built by
        hand, from the steps with `morse._path_weight`."""
        if self._weight is not None:
            return self._weight
        if self.case not in _CASE_SIGN:
            raise InternalConsistencyError(f"unknown trajectory case {self.case}")
        return _CASE_SIGN[self.case] * _path_weight([abs(s) for s in self.steps], Simplex.facets)

    def __str__(self) -> str:
        arrows = ", ".join(str(s) for s in self.steps)
        return f"case {self.case} [{arrows}] (weight {self.weight:+d})"


def _mixed_moves(wi: GradientField, piece: GradientField):
    """The moves of the walk of cases 4/5: from each tau of a descent along
    the arcs of wi, first the transfer into the piece (`morse._transfer`)
    and every ascent there, then the arcs of wi that go on (nu >= 0)."""
    arcs, transfer, down, ascend = _arcs(wi), _transfer(piece), piece._down, _moves(piece)

    def moves(tau: int) -> list:
        return _onward(transfer(tau), down, ascend) + [
            ((sigma, nu), c, moves) for c, sigma, nu in arcs(tau) if nu >= 0
        ]

    return moves


def mv_trajectories_from(
    d: Decomposition, beta: MVGenerator
) -> dict[MVGenerator, list[MVTrajectory]]:
    """All MV trajectories out of beta, grouped by target generator, from
    one walk per case; a walk of case 4 or 5 repeats the transferred id."""
    start = _require_generator(d, beta)
    fields = d._fields()
    own = fields[beta.tag]
    routes = [(_OWN_CASE[beta.tag], beta.tag, _moves(own))]
    if beta.tag == SHIFTED:
        routes += [(case, tag, _mixed_moves(own, fields[tag])) for tag, case in _MIXED_CASE.items()]
    out: dict[MVGenerator, list[MVTrajectory]] = {}
    for case, tag, moves in routes:
        name = fields[tag].complex._simplices_of
        for end, walks in _grouped(_walk(start, moves, _CASE_SIGN[case])).items():
            alpha = _generator(tag, fields[tag].complex._simplex(end))
            ts = out.setdefault(alpha, [])
            for steps, w in walks:
                if tag == beta.tag:
                    ts.append(MVTrajectory(case, beta, alpha, name(steps), _weight=w))
                    continue
                cut = 1
                while steps[cut] != steps[cut - 1]:
                    cut += 2
                named = own.complex._simplices_of(steps[:cut]) + name(steps[cut:])
                p, l = cut // 2, (len(steps) - cut) // 2
                ts.append(MVTrajectory(case, beta, alpha, named, p, l, _weight=w))
    return out


def _require_generator(d: Decomposition, g: MVGenerator) -> int:
    """The id of g's simplex, when g is a generator of d."""
    gvf = d._fields()[g.tag]
    i = gvf.complex._id(g.simplex) if gvf is not None else None
    if i is None or not gvf._is_critical(i):
        raise FieldError(f"{g} is not a generator of this decomposition")
    return i


def enumerate_mv(
    d: Decomposition, beta: MVGenerator, alpha: MVGenerator
) -> list[MVTrajectory]:
    """MV(beta, alpha): every trajectory from beta to alpha, in the
    deterministic depth-first order."""
    _require_generator(d, alpha)
    if beta.degree != alpha.degree + 1:
        raise FieldError(
            f"no trajectories between degrees {beta.degree} and {alpha.degree}"
        )
    return mv_trajectories_from(d, beta).get(alpha, [])


def _mixed_flow(
    wi: GradientField, piece: GradientField, flow: Callable[[int], Column], combine=_combine
):
    """Cases 4/5 on ids, memoised, for the piece with field `piece` and flow
    `flow`: D(tau) = T(tau) + sum of c D(nu) over the arcs (c, sigma, nu) of
    wi from tau with nu >= 0, where T(tau), the transfer of tau followed by
    every ascent in the piece, sums c flow(t) over the links (c, t) of the
    transfer (`morse._transfer`).  `combine` sums as in `morse._flow`,
    signed or unsigned."""
    arcs, transfer, down = _arcs(wi), _transfer(piece), piece._down

    def links(tau: int):
        base = combine({}, [(c, flow(t)) for c, t in _heads(transfer(tau), down)])
        return base, [(c, nu) for c, _, nu in arcs(tau) if nu >= 0]

    return _memoised(links, combine)


def _mv_column(d: Decomposition, signed: bool = True) -> Callable[[tuple[str, int]], dict]:
    """The MV boundary on generator keys: (tag, id) -> {(tag, id): entry},
    each route's flow times the sign of its case; unsigned, the entry
    counts the trajectories instead."""
    combine, signs = _combine, _CASE_SIGN
    if not signed:
        combine, signs = _unsigned, dict.fromkeys(_CASE_SIGN, 1)
    fields = d._fields()
    flows = {tag: _flow(gvf, combine) for tag, gvf in fields.items() if gvf is not None}
    mixed = []
    if d.w_i is not None:
        mixed = [
            (tag, signs[case], _mixed_flow(d.w_i, fields[tag], flows[tag], combine))
            for tag, case in _MIXED_CASE.items()
        ]

    def column(key: tuple[str, int]) -> dict:
        tag, i = key
        sign = signs[_OWN_CASE[tag]]
        out = {(tag, r): sign * v for r, v in flows[tag](i).items()}
        if tag == SHIFTED:
            for target, case_sign, descend in mixed:
                out.update(((target, r), case_sign * v) for r, v in descend(i).items())
        return out

    return column


def mv_boundary(d: Decomposition, q: int) -> list[list[int]]:
    """The boundary matrix D_q -> D_{q-1}: rows over D_{q-1}, columns over
    D_q, entries the summed trajectory weights."""
    rows = _generator_keys(d, q - 1)
    return _dense(_boundary_columns(rows, _generator_keys(d, q), _mv_column(d)), len(rows))


def mv_chain_complex(d: Decomposition) -> IntegerChainComplex:
    """The full Mayer-Vietoris chain complex, its generators labelled.
    Construction re-verifies that the boundary squares to zero and fails
    hard otherwise."""
    keys = [_generator_keys(d, q) for q in range(_max_degree(d) + 1)]
    labels = [mv_generators(d, q) for q in range(len(keys))]
    return _trajectory_complex(labels, keys, _mv_column(d))


def mv_homology(d: Decomposition) -> HomologyResult:
    """Homology of X computed through the Mayer-Vietoris complex, assembled
    on generator keys: no generator is named."""
    keys = [_generator_keys(d, q) for q in range(_max_degree(d) + 1)]
    return homology(_trajectory_complex(None, keys, _mv_column(d)))
