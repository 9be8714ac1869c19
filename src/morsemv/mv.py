"""A Mayer-Vietoris chain complex for X = A u B from discrete Morse data.

Given subcomplexes A, B covering X, form disjoint tagged copies of the three
pieces ("A:", "B:" and "I:" for the intersection) and pick one gradient
field on each copy, entirely independently -- no compatibility between the
three fields is required.  X is the only complex closed: A, B and A n B are
views of X's id table, and each copy is a tag on its view, so a tagged cell
is a tag and an id, and the transfer from the I-copy into the A- or B-copy
keeps the id.  Tagged simplices appear only in what the module returns.  The
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
an arc in the same shape that keeps the id, signed -<up(s), s> by its step
up from the transferred s, as it carries no incidence.  A weight is the
product of these signs and a per-case sign:

    case   1   2   3   4   5
    sign  +1  +1  -1  -1  +1

The boundary sums the weights without listing the trajectories, by one
Forman flow (`morse._flow`) on the glued complex of the paper's proof:
the three copies side by side on one id space (`_glued`), an I-copy cell
carrying its transfers into A and B before its own arcs.  The glued arcs
carry the case signs: a case-3 path ends on one I-copy arc that ends and
a case-4 path crosses one transfer into A, so just those arcs are negated.
A generator is keyed by its glued id, and its column is its flow, read as
is; a Shifted one's follows cases 3, 4 and 5 at once.  The flow is
memoised per id, so assembly is linear in the arcs, while the number of
trajectories can grow exponentially.  `mv_trajectories_from` and
`enumerate_mv` list the trajectories with one iterative depth-first walk
over the same digraph (`morse._walk`), so neither has a depth limit.  The
boundary squares to zero and the homology of (D_*, d) is the simplicial
homology of X; the test suite checks both rather than trusts them.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping, Sequence

from .complexes import ComplexCopy, Simplex, SimplicialComplex, copy_relabel, intersection
from .errors import DecompositionError, FieldError, InternalConsistencyError
from .homology import HomologyResult, IntegerChainComplex, _dense, homology
from .morse import (
    DEFAULT_SEED,
    GradientField,
    _arcs,
    _boundary_columns,
    _combine,
    _flow,
    _grouped,
    _matching,
    _path_weight,
    _trajectory_complex,
    _transfer,
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
# the tags in generator order, which is also the order of the copies' blocks
# of ids in `_glued`
_TAGS = (FROM_A, FROM_B, SHIFTED)
_TAG_RANK = {tag: k for k, tag in enumerate(_TAGS)}
# the case of a trajectory, by the tags of its source and its target
_CASE = {(FROM_A, FROM_A): 1, (FROM_B, FROM_B): 2, (SHIFTED, SHIFTED): 3,
         (SHIFTED, FROM_A): 4, (SHIFTED, FROM_B): 5}
# the per-case sign on top of the signs of the steps, which the arcs of
# `_glued` carry; read here only for a trajectory built by hand
_CASE_SIGN = {1: 1, 2: 1, 3: -1, 4: -1, 5: 1}


class _Record:
    """A record with the equality, hash and repr a dataclass would give it
    on the fields `_fields`, and whose `__slots__` list its constructor's
    parameters in order.  Plain classes rather than dataclasses, since
    `dataclasses` imports `inspect`, which a fresh CLI process would pay
    for on every command."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, s) for s in self.__slots__])


class _FrozenRecord(_Record):
    """A `_Record` whose fields are set once, by its constructor."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MVGenerator(_FrozenRecord):
    """A generator of the Mayer-Vietoris complex: a critical simplex of one
    of the three copies, with its tag and its (possibly shifted) degree."""

    __slots__ = _fields = ("tag", "simplex", "degree")

    def __init__(self, tag: str, simplex: Simplex, degree: int):
        if tag not in _TAG_RANK:
            raise FieldError(f"unknown generator tag {tag!r}")
        expected = simplex.dim + (1 if tag == SHIFTED else 0)
        if degree != expected:
            raise FieldError(f"{tag} generator on {simplex} must have degree {expected}")
        self._set(tag, simplex, degree)

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


def _glued_id(d: Decomposition, k: int, i: int) -> int:
    """The id in `_glued` of the cell i of the copy k (the rank of its tag
    in `_TAGS`): with n ids in X's table, i, n + i or 2n + i."""
    return k * len(d.x._table) + i


def _keys_by_tag(d: Decomposition, q: int) -> dict[str, list[int]]:
    """D_q by tag, as glued ids (`_glued_id`) in canonical order."""
    return {
        tag: [_glued_id(d, k, i) for i in _critical_of_dim(gvf, q - 1 if tag == SHIFTED else q)]
        for k, (tag, gvf) in enumerate(d._fields().items())
    }


def _generator_keys(d: Decomposition, q: int) -> list[int]:
    """D_q as glued ids (`_glued_id`), in the order of `mv_generators`."""
    return list(itertools.chain.from_iterable(_keys_by_tag(d, q).values()))


def mv_generators(d: Decomposition, q: int | None = None) -> tuple[MVGenerator, ...]:
    """D_q in canonical order (FromA, then FromB, then Shifted, each block
    by simplex), or every degree ascending when q is None."""
    if q is None:
        return tuple(itertools.chain.from_iterable(
            mv_generators(d, p) for p in range(_max_degree(d) + 1)
        ))
    return tuple(_named_generator(d, key) for key in _generator_keys(d, q))


def _named_generator(d: Decomposition, key: int) -> MVGenerator:
    """The generator with the glued id `key`."""
    k, i = divmod(key, len(d.x._table))
    return _generator(_TAGS[k], d._fields()[_TAGS[k]].complex._simplex(i))


class MVTrajectory(_FrozenRecord):
    """One Mayer-Vietoris trajectory.

    `steps` is the full simplex sequence: for cases 1-3 an extended
    trajectory in the relevant copy; for cases 4/5 the descent in the
    I-copy, the transferred simplex, and the ascent in the target copy:

        (tau_0)_I, sigma_1, ..., (tau_p)_I, (tau_p)_piece,
        (alpha_p)_piece, (tau_{p+1})_piece, ..., (tau_{p+l})_piece.

    p and l are only meaningful for cases 4/5.  `_weight` is the product
    of the signs the walk read, left out of equality, hash and repr; see
    `weight`.
    """

    _fields = ("case", "beta", "alpha", "steps", "p", "l")
    __slots__ = (*_fields, "_weight")

    def __init__(self, case: int, beta: MVGenerator, alpha: MVGenerator,
                 steps: tuple[Simplex, ...], p: int | None = None, l: int | None = None,
                 _weight: int | None = None):
        self._set(case, beta, alpha, steps, p, l, _weight)

    @property
    def weight(self) -> int:
        """The product of the arcs of `_glued` the walk that found the
        trajectory read, or, when it was built by hand, the case sign times
        the signs of the steps, from `morse._path_weight`."""
        if self._weight is not None:
            return self._weight
        if self.case not in _CASE_SIGN:
            raise InternalConsistencyError(f"unknown trajectory case {self.case}")
        return _CASE_SIGN[self.case] * _path_weight([abs(s) for s in self.steps], Simplex.facets)

    def __str__(self) -> str:
        arrows = ", ".join(str(s) for s in self.steps)
        return f"case {self.case} [{arrows}] (weight {self.weight:+d})"


def _glued(d: Decomposition) -> tuple[Callable[[int], list[tuple[int, int, int]]], list[int]]:
    """The three copies side by side on one id space: one digraph in the
    shape of `morse._arcs`, and its `down`.  Cell i of the copy k is the id
    `_glued_id(d, k, i)`, with the arcs of its copy's field shifted into
    its block; an I-copy id has first its transfers into A and into B
    (`morse._transfer`), so a walk meets the trajectories of each case in
    the order of that case's own descent.  The transfer into A and the
    I-copy arcs that end are negated, the signs of cases 4 and 3; all
    other arcs keep the signs of their rules."""
    n, w_a, w_b, w_i = len(d.x._table), d.w_a, d.w_b, d.w_i
    down = list(itertools.chain.from_iterable(f._down for f in (w_a, w_b, w_i) if f is not None))
    on_a, on_b, m = _arcs(w_a), _arcs(w_b), 2 * n
    if w_i is not None:
        into_a, into_b, on_i = _transfer(w_a), _transfer(w_b), _arcs(w_i)
    in_b = lambda steps: [(c, n + s, n + nu if nu >= 0 else -1) for c, s, nu in steps]

    def arcs(g: int) -> list[tuple[int, int, int]]:
        if g < n:
            return on_a(g)
        if g < m:
            return in_b(on_b(g - n))
        i = g - m
        [(c, s, nu)] = into_a(i)
        return [(-c, s, nu), *in_b(into_b(i)), *[
            (c, m + s, m + nu) if nu >= 0 else (-c, m + s, -1) for c, s, nu in on_i(i)
        ]]

    return arcs, down


def mv_trajectories_from(
    d: Decomposition, beta: MVGenerator
) -> dict[MVGenerator, list[MVTrajectory]]:
    """All MV trajectories out of beta, grouped by target generator, from
    one walk over the glued copies (`_glued`), each part named in its copy,
    weighted by the product of its arcs.  The targets come by case, then in
    order of first appearance; a walk of case 4 or 5 leaves the I-copy by
    the transfer, which repeats the transferred cell in the piece."""
    start, n = _require_generator(d, beta), len(d.x._table)
    named = _trajectory_namer(d, beta, start)
    out: dict[MVGenerator, list[MVTrajectory]] = {}
    for end, walks in sorted(_grouped(_walk(start, *_glued(d))).items(),
                             key=lambda group: _CASE[beta.tag, _TAGS[group[0] // n]]):
        alpha = _named_generator(d, end)
        out[alpha] = [named(alpha, ids, w) for ids, w in walks]
    return out


def _trajectory_namer(
    d: Decomposition, beta: MVGenerator, start: int
) -> Callable[[MVGenerator, tuple[int, ...], int], MVTrajectory]:
    """The function naming a walk of `_glued` out of beta (glued id
    `start`) that ends at alpha, given as (alpha, id sequence, weight): the
    trajectory with its steps named in their copies, and for cases 4/5 the
    descent p and ascent l around the transfer."""
    n, fields = len(d.x._table), d._fields()
    source = start // n
    named = lambda k, ids: fields[_TAGS[k]].complex._simplices_of([g - k * n for g in ids])

    def trajectory(alpha: MVGenerator, ids: tuple[int, ...], w: int) -> MVTrajectory:
        k = ids[-1] // n
        cut = 1 if k != source else len(ids)
        while cut < len(ids) and ids[cut] // n == source:
            cut += 2
        p, l = (None, None) if k == source else (cut // 2, (len(ids) - cut) // 2)
        steps = named(source, ids[:cut]) + named(k, ids[cut:])
        return MVTrajectory(_CASE[beta.tag, alpha.tag], beta, alpha, steps, p, l, _weight=w)

    return trajectory


def _require_generator(d: Decomposition, g: MVGenerator) -> int:
    """The glued id of g (`_glued_id`), when g is a generator of d."""
    gvf = d._fields()[g.tag]
    i = gvf.complex._id(g.simplex) if gvf is not None else None
    if i is None or not gvf._is_critical(i):
        raise FieldError(f"{g} is not a generator of this decomposition")
    return _glued_id(d, _TAG_RANK[g.tag], i)


def enumerate_mv(
    d: Decomposition, beta: MVGenerator, alpha: MVGenerator
) -> list[MVTrajectory]:
    """MV(beta, alpha): every trajectory from beta to alpha, in the
    deterministic depth-first order.  The walk is that of
    `mv_trajectories_from`, but only the walks that end at alpha are
    named."""
    end = _require_generator(d, alpha)
    if beta.degree != alpha.degree + 1:
        raise FieldError(
            f"no trajectories between degrees {beta.degree} and {alpha.degree}"
        )
    start = _require_generator(d, beta)
    walks = [(ids, w) for ids, w in _walk(start, *_glued(d)) if ids[-1] == end]
    if not walks:
        return []
    named, alpha = _trajectory_namer(d, beta, start), _named_generator(d, end)
    return [named(alpha, ids, w) for ids, w in walks]


def _mv_column(d: Decomposition, combine=_combine) -> Callable[[int], dict]:
    """The MV boundary on generator keys, glued ids: the column of a key is
    its memoised flow over the glued copies (`_glued`), summed by `combine`
    as in `morse._flow`, read as is.  With `_combine` it maps a row's key to
    the entry; with `_split`, to the number of trajectories and their sum."""
    return _flow(*_glued(d), combine)


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
