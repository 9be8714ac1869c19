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

Every route has the same sign rule (`morse._path_weight`).  Each step x -> y
of the simplex sequence contributes <x, y> when it goes down a dimension,
-<y, x> when it goes up one, and nothing when it keeps the dimension (the
transfer of cases 4/5).  The product is then multiplied by a per-case sign:

    case   1   2   3   4   5
    sign  +1  +1  -1  -1  +1

The boundary sums these weights without listing the trajectories.  Cases
1-3 are Forman's flow of one copy (`morse._flow`).  Cases 4/5 compose
flows: D(tau) = flow_piece(tau) + sum over the I-steps (sigma, nu) from tau
of <tau, sigma> (-<nu, sigma>) D(nu) counts every descent in the I-copy
from tau, transferred and followed by every ascent in the piece, which is
the piece's own flow.  Each is memoised per id, so assembly is linear in
the arcs of the gradient digraphs, while the number of trajectories can
grow exponentially.  `mv_trajectories_from` and `enumerate_mv` list the
trajectories themselves, with one iterative depth-first walk for every
case, so neither has a depth limit.  The resulting boundary squares to zero
and the homology of (D_*, d) is the simplicial homology of X; both facts
are exercised heavily by the test suite rather than trusted.
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
    _boundary_columns,
    _combine,
    _facet_sum,
    _flow,
    _grouped,
    _matching,
    _memoised,
    _sign,
    _named_path_weight,
    _steps,
    _trajectory_complex,
    _trajectory_ids,
    _unsigned,
    _walk,
    _path_weight,
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
# the per-case sign applied on top of `morse._path_weight`
_CASE_SIGN = {1: 1, 2: 1, 3: -1, 4: -1, 5: 1}
# the case of a trajectory inside one copy, by the tag of its generators
_OWN_CASE = {FROM_A: 1, FROM_B: 2, SHIFTED: 3}


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
    end a Simplex or vertex names, resolved to ids the copy shares."""
    ids, id_of = [], piece._id_of
    for sigma, tau in pairs:
        ends = (id_of(sigma.vertices if isinstance(sigma, Simplex) else tuple(sorted(sigma))),
                id_of(tau.vertices if isinstance(tau, Simplex) else tuple(sorted(tau))))
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
    return (
        [(FROM_A, i) for i in _critical_of_dim(d.w_a, q)]
        + [(FROM_B, i) for i in _critical_of_dim(d.w_b, q)]
        + [(SHIFTED, i) for i in _critical_of_dim(d.w_i, q - 1)]
    )


def mv_generators(d: Decomposition, q: int | None = None) -> tuple[MVGenerator, ...]:
    """D_q in canonical order (FromA, then FromB, then Shifted, each block
    by simplex), or every degree ascending when q is None."""
    if q is None:
        return tuple(itertools.chain.from_iterable(
            mv_generators(d, p) for p in range(_max_degree(d) + 1)
        ))
    fields = {FROM_A: d.w_a, FROM_B: d.w_b, SHIFTED: d.w_i}
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
    # given by the walk, which reads it off the id table; see `weight`
    _weight: int | None = field(default=None, repr=False, compare=False)

    @property
    def weight(self) -> int:
        """The case sign times `morse._path_weight` of the steps: computed by the
        walk that found the trajectory, or from the steps when built by hand."""
        if self._weight is not None:
            return self._weight
        if self.case not in _CASE_SIGN:
            raise InternalConsistencyError(f"unknown trajectory case {self.case}")
        return _CASE_SIGN[self.case] * _named_path_weight(self.steps)

    def __str__(self) -> str:
        arrows = ", ".join(str(s) for s in self.steps)
        return f"case {self.case} [{arrows}] (weight {self.weight:+d})"


def _forman_cases(
    d: Decomposition, beta: MVGenerator, start: int
) -> dict[MVGenerator, list[MVTrajectory]]:
    """Cases 1-3: plain trajectory enumeration inside one copy, from the id
    `start` of beta's simplex."""
    tag = beta.tag
    case, gvf = _OWN_CASE[tag], {FROM_A: d.w_a, FROM_B: d.w_b, SHIFTED: d.w_i}[tag]
    sign = _CASE_SIGN[case]
    name, facets = gvf.complex._simplices_of, gvf.complex._table.facets.__getitem__
    out: dict[MVGenerator, list[MVTrajectory]] = {}
    for end, paths in _grouped(_trajectory_ids(gvf, start)).items():
        alpha = _generator(tag, gvf.complex._simplex(end))
        out[alpha] = [
            MVTrajectory(case, beta, alpha, name(s), _weight=sign * _path_weight(s, facets))
            for s in paths
        ]
    return out


def _mixed_cases(
    d: Decomposition, beta: MVGenerator, start: int, case: int
) -> dict[MVGenerator, list[MVTrajectory]]:
    """Cases 4 (Shifted -> FromA) and 5 (Shifted -> FromB), from the id
    `start` of beta's simplex.

    Every copy is a tag on X's table, so the walk runs on ids and the
    transfer into the piece keeps the id."""
    tag = FROM_A if case == 4 else FROM_B
    piece, wi = (d.w_a if case == 4 else d.w_b), d.w_i
    p_up, p_down = piece._up, piece._down
    i_up, i_down = wi._up, wi._down
    facets = wi.complex._table.facets

    # The descent grows the start by pairs and the transfer by one simplex,
    # so an odd-length sequence ends in the I-copy and an even one in the piece.
    def step(seq):
        here = seq[-1]
        if len(seq) % 2:
            # (tau_p)_I: first the transfer into the piece, then the descent
            yield (here,), False
            for sigma, nxt in _steps(i_up, i_down, facets, here):
                if nxt >= 0:
                    yield (sigma, nxt), False
        elif p_up[here] < 0 and p_down[here] < 0:
            yield (), True
        else:
            a = p_up[here]
            if a >= 0:  # matched downward: the ascent cannot pass through
                for nxt in facets[a]:
                    if nxt != here:
                        yield (a, nxt), False

    i_name, p_name = wi.complex._simplices_of, piece.complex._simplices_of
    out: dict[MVGenerator, list[MVTrajectory]] = {}
    for end, paths in _grouped(_walk(start, step)).items():
        alpha = _generator(tag, piece.complex._simplex(end))
        ts = out[alpha] = []
        for steps in paths:
            # the transfer is the first odd-indexed step repeating its predecessor
            cut = 1
            while steps[cut] != steps[cut - 1]:
                cut += 2
            named = i_name(steps[:cut]) + p_name(steps[cut:])
            w = _CASE_SIGN[case] * _path_weight(steps, facets.__getitem__)
            p, l = cut // 2, (len(steps) - cut) // 2
            ts.append(MVTrajectory(case, beta, alpha, named, p, l, _weight=w))
    return out


def mv_trajectories_from(
    d: Decomposition, beta: MVGenerator
) -> dict[MVGenerator, list[MVTrajectory]]:
    """All MV trajectories out of beta, grouped by target generator."""
    start = _require_generator(d, beta)
    out = _forman_cases(d, beta, start)
    if beta.tag == SHIFTED:
        for case in (4, 5):
            for alpha, ts in _mixed_cases(d, beta, start, case).items():
                out.setdefault(alpha, []).extend(ts)
    return out


def _require_generator(d: Decomposition, g: MVGenerator) -> int:
    """The id of g's simplex, when g is a generator of d."""
    gvf = {FROM_A: d.w_a, FROM_B: d.w_b, SHIFTED: d.w_i}[g.tag]
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


def _mixed_flow(wi: GradientField, flow: Callable[[int], Column], combine=_combine):
    """Cases 4/5 on ids, memoised, for the piece whose flow is `flow`:

        D(tau) = flow(tau) + sum over the I-steps (sigma, nu) from tau of
                 <tau, sigma> (-<nu, sigma>) D(nu),

    an I-step being a facet sigma of tau other than down_I(tau) with
    nu = up_I(sigma).  D(tau) counts every descent in the I-copy from tau,
    transferred into the piece (which keeps the id and the sign) and
    followed by every ascent there; the ascent is the piece's flow, and
    `combine` sums as in `morse._flow`."""
    up, down, facets = wi._up, wi._down, wi.complex._table.facets

    def links(tau: int):
        arcs = []
        for j, sigma in enumerate(facets[tau]):
            nu = up[sigma]
            if nu >= 0 and sigma != down[tau]:
                arcs.append((-_sign(j) * _sign(facets[nu].index(sigma)), nu))
        return flow(tau), arcs

    return _memoised(links, combine)


def _mv_column(d: Decomposition, signed: bool = True) -> Callable[[tuple[str, int]], dict]:
    """The MV boundary on generator keys: (tag, id) -> {(tag, id): entry},
    each route's flow times the sign of its case; unsigned, the entry
    counts the trajectories instead."""
    facets = d.x._table.facets
    combine, signs = _combine, _CASE_SIGN
    if not signed:
        combine, signs = _unsigned, dict.fromkeys(_CASE_SIGN, 1)
    flows = {
        tag: _flow(gvf, combine)
        for tag, gvf in ((FROM_A, d.w_a), (FROM_B, d.w_b), (SHIFTED, d.w_i))
        if gvf is not None
    }
    mixed = []
    if d.w_i is not None:
        mixed = [
            (tag, signs[case], _mixed_flow(d.w_i, flows[tag], combine))
            for tag, case in ((FROM_A, 4), (FROM_B, 5))
        ]

    def column(key: tuple[str, int]) -> dict:
        tag, i = key
        sign = signs[_OWN_CASE[tag]]
        own = _facet_sum(facets, i, flows[tag], combine)
        out = {(tag, r): sign * v for r, v in own.items()}
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
