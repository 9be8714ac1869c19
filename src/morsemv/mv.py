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
degree shifted up by one.  Inside the module a copy is known by its index
k, 0 for A, 1 for B and 2 for the intersection (`_TAGS[k]` is its tag),
and `_generator_table` lists D_q once, as its three blocks by k.  The
boundary of a generator beta collects signed
trajectory counts, where a trajectory from beta to alpha exists in exactly
five situations, keyed by the copies of its ends:

  1. FromA -> FromA: an extended gradient trajectory inside the A-copy.
  2. FromB -> FromB: the same inside the B-copy.
  3. Shifted -> Shifted: an extended trajectory inside the I-copy.
  4. Shifted -> FromA: a descending trajectory piece inside the I-copy
     (tau_0, sigma_1, ..., tau_p, no terminal facet step), a transfer of
     tau_p into the A-copy along the inclusion of the intersection, then an
     ascending zigzag through the A-copy field ending at the critical
     target, with p >= 0 descent steps and l >= 0 ascent steps.
  5. Shifted -> FromB: as 4 into the B-copy.

All other pairs of copies admit no trajectories.

Every step of a route is an arc of one copy's field, signed by the one arc
rule `morse._arcs`; the transfer of cases 4/5 (`morse._transfer`) lists arcs
in the same shape that keep the id: the step up from the transferred s,
signed -<up(s), s>, or an end at a critical s, as it carries no incidence.
Neither rule lists a dead end, so the arcs alone are the digraph.  The three
copies sit side by side on one id space (`_glued`), the glued complex of the
paper's proof, an I-copy cell carrying its transfers into A and B before its
own arcs.  On top of its steps' signs, a route takes the sign of its case:

    case   1   2   3   4   5
    sign  +1  +1  -1  -1  +1

and the glued arcs carry it: a case-3 path ends on one I-copy arc that
ends and a case-4 path crosses one transfer into A, so just those arcs
are negated.  A trajectory's weight is the product of the arcs its walk
read, and the boundary sums the weights without listing the
trajectories, by one Forman flow (`morse._flow`) on the same arcs.
Each copy's arcs come from its own field's rules, given the copy's offset
in the glued ids and these signs, so they are listed in glued ids with
their case signs and no list is wrapped again.  A generator is keyed by
its glued id, and its column is its flow, read as is off the flow's memo;
a Shifted one's follows cases 3, 4 and 5 at once.  The flow is memoised
per id, so assembly is linear in the arcs, while the number of
trajectories can grow exponentially.  `mv_trajectories_from` and
`enumerate_mv` list the trajectories with one iterative depth-first walk
over the same digraph (`morse._walk`), so neither has a depth limit.  The
boundary squares to zero and the homology of (D_*, d) is the simplicial
homology of X; the test suite checks both rather than trusts them.
"""
from __future__ import annotations

import itertools
from typing import Callable, Iterable, Mapping, Sequence

from .complexes import ComplexCopy, Simplex, SimplicialComplex, _FrozenRecord, copy_relabel
from .errors import DecompositionError, FieldError
from .homology import HomologyResult, IntegerChainComplex, _dense, homology
from .morse import (
    DEFAULT_SEED,
    GradientField,
    _arcs,
    _boundary_columns,
    _flow,
    _grouped,
    _matching,
    _pair_ids,
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
# the tags of the copies k = 0, 1, 2, which is the order of the blocks of
# D_q and of the copies' ids in `_glued`
_TAGS = (FROM_A, FROM_B, SHIFTED)
# the case of a trajectory, by the copies of its source and its target
_CASE = {(0, 0): 1, (1, 1): 2, (2, 2): 3, (2, 0): 4, (2, 1): 5}


class MVGenerator(_FrozenRecord):
    """A generator of the Mayer-Vietoris complex: a critical simplex of one
    of the three copies, with its tag and its (possibly shifted) degree."""

    __slots__ = _fields = ("tag", "simplex", "degree")

    def __init__(self, tag: str, simplex: Simplex, degree: int):
        if tag not in _TAGS:
            raise FieldError(f"unknown generator tag {tag!r}")
        expected = simplex.dim + (1 if tag == SHIFTED else 0)
        if degree != expected:
            raise FieldError(f"{tag} generator on {simplex} must have degree {expected}")
        self._set(tag, simplex, degree)

    @property
    def name(self) -> str:
        """The tagged vertex-list form used by the command line."""
        return ",".join(self.simplex.vertices)

    def __str__(self) -> str:
        return f"{self.tag}:{self.name}"


def _generator(tag: str, simplex: Simplex) -> MVGenerator:
    simplex = abs(simplex)
    return MVGenerator(tag, simplex, simplex.dim + (1 if tag == SHIFTED else 0))


class Decomposition:
    """A decomposition X = A u B with one gradient field per tagged copy.

    Use `build_decomposition`; the constructor stores X and three triples
    indexed by the copy k: the pieces `a`, `b`, `iab`, their copies `a_bar`,
    `b_bar`, `iab_bar` and the copies' fields `w_a`, `w_b`, `w_i`.  The
    last of each is None exactly when A and B are disjoint.
    """

    def __init__(self, x: SimplicialComplex, pieces: Sequence, copies: Sequence,
                 fields: Sequence):
        self.x = x
        self.a, self.b, self.iab = pieces
        self.a_bar, self.b_bar, self.iab_bar = copies
        self.w_a, self.w_b, self.w_i = fields

    def _fields(self) -> tuple[GradientField, GradientField, GradientField | None]:
        """The field of each copy, indexed by k."""
        return self.w_a, self.w_b, self.w_i

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
    end a Simplex, vertex names in any order, or a string of them
    (`complexes._names`), resolved to ids in one batch by
    `morse._pair_ids`; the ends are named as written only to word an
    error."""

    def missing(pair: Sequence, k: int) -> DecompositionError:
        named = [s if isinstance(s, Simplex) else Simplex(s) for s in pair]
        return DecompositionError(f"field pair ({named[0]}, {named[1]}) references {named[k]}, "
                                  f"which is not a simplex of {piece_name}")

    ids = _pair_ids(piece, list(pairs), missing)
    return GradientField._certified(copy.complex, *_matching(copy.complex, ids, FieldError))


def _piece(
    x: SimplicialComplex, piece: SimplicialComplex | Iterable[Sequence[str]], name: str
) -> SimplicialComplex:
    """The piece `name` as a view over X's table, closed from the ids of its
    generators.  `piece` is a complex, or the generators of one, each a
    sequence of vertex names of X in any order, as `.dec` lines are read,
    which `SimplicialComplex._ids_of` resolves in one batch, a line copied
    from the complex file by one lookup."""
    if isinstance(piece, SimplicialComplex):
        if piece._table is x._table and piece.is_subcomplex_of(x):
            return piece
        piece = [s.vertices for s in piece.maximal_simplices]
    ids = x._ids_of(list(piece), copied=True)
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
    field with the given strategy.  A seed, when used, is offset by the
    copy index k (0, 1, 2) so the three pieces draw distinct orders.
    """
    a = _piece(x, a, "A")
    b = _piece(x, b, "B")
    # A and B lie in X, so they cover it exactly when |A| + |B| - |A n B| = |X|.
    common = a._members_in(b)
    iab = a._view(common) if 1 in common else None
    if len(a) + len(b) - (len(iab) if iab is not None else 0) != len(x):
        raise DecompositionError("A u B does not cover X")
    fields = dict(fields or {})
    unknown = set(fields) - {"A", "B", "I"}
    if unknown:
        raise DecompositionError(f"unknown field section(s): {sorted(unknown)}")
    if iab is None and fields.get("I") is not None:
        raise DecompositionError("a field was supplied for an empty intersection")

    base_seed = DEFAULT_SEED if seed is None else seed
    pieces, copies, built = (a, b, iab), [None] * 3, [None] * 3
    for k, (name, piece) in enumerate(zip("ABI", pieces)):
        if piece is None:
            continue
        copies[k] = copy = copy_relabel(piece, name + ":")
        if fields.get(name) is not None:
            built[k] = _field_on_copy(piece, copy, fields[name], name)
        else:
            built[k] = greedy_gvf(copy.complex, strategy, base_seed + k)
    return Decomposition(x, pieces, copies, built)


def _glued_id(d: Decomposition, k: int, i: int) -> int:
    """The id in `_glued` of the cell i of the copy k: with n ids in X's
    table, i, n + i or 2n + i."""
    return k * len(d.x._table) + i


def _generator_table(d: Decomposition) -> list[tuple[list[int], list[int], list[int]]]:
    """D_q for each degree q from 0 to the top one, as its FromA, FromB and
    Shifted blocks: the glued ids (`_glued_id`) of the critical cells of
    dimension q of the copies 0 and 1 and of dimension q - 1 of the copy 2,
    each in canonical order.  The block of an absent I-copy is empty."""
    fields = d._fields()
    degrees = max(len(f._critical_ids) + (k == 2) for k, f in enumerate(fields) if f is not None)
    table: list[tuple[list[int], list[int], list[int]]] = [([], [], []) for _ in range(degrees)]
    for k, f in enumerate(fields):
        if f is not None:
            base = _glued_id(d, k, 0)
            for q, ids in enumerate(f._critical_ids, start=int(k == 2)):
                table[q][k].extend([base + i for i in ids])
    return table


def _generator_keys(d: Decomposition) -> list[list[int]]:
    """D_q for each degree q from 0 to the top one, as glued ids, in the
    order of `mv_generators`."""
    return [list(itertools.chain(*blocks)) for blocks in _generator_table(d)]


def mv_generators(d: Decomposition, q: int | None = None) -> tuple[MVGenerator, ...]:
    """D_q in canonical order (FromA, then FromB, then Shifted, each block
    by simplex), or every degree ascending when q is None."""
    keys = _generator_keys(d)
    if q is not None:
        keys = keys[q:q + 1] if q >= 0 else []
    return tuple(_named_generator(d, key) for key in itertools.chain(*keys))


def _named_generator(d: Decomposition, key: int) -> MVGenerator:
    """The generator with the glued id `key`."""
    k, i = divmod(key, len(d.x._table))
    return _generator(_TAGS[k], d._fields()[k].complex._simplex(i))


class MVTrajectory(_FrozenRecord):
    """One Mayer-Vietoris trajectory.

    `steps` is the full simplex sequence: for cases 1-3 an extended
    trajectory in the relevant copy; for cases 4/5 the descent in the
    I-copy, the transferred simplex, and the ascent in the target copy:

        (tau_0)_I, sigma_1, ..., (tau_p)_I, (tau_p)_piece,
        (alpha_p)_piece, (tau_{p+1})_piece, ..., (tau_{p+l})_piece.

    p and l are only meaningful for cases 4/5.  `weight` is the product of
    the signs of the arcs of `_glued` that the walk which found the
    trajectory read, its case sign included.
    """

    __slots__ = _fields = ("case", "beta", "alpha", "steps", "p", "l", "weight")

    def __init__(self, case: int, beta: MVGenerator, alpha: MVGenerator,
                 steps: tuple[Simplex, ...], p: int | None, l: int | None, weight: int):
        self._set(case, beta, alpha, steps, p, l, weight)

    def __str__(self) -> str:
        arrows = ", ".join(str(s) for s in self.steps)
        return f"case {self.case} [{arrows}] (weight {self.weight:+d})"


def _glued(d: Decomposition) -> Callable[[int], list[tuple[int, int, int]]]:
    """The three copies side by side on one id space: one digraph in the
    shape of `morse._arcs`.  Cell i of the copy k is the id
    `_glued_id(d, k, i)`, and each copy's arcs come from its own field's
    rule, `morse._arcs` glued at the copy's offset; an I-copy id has first
    its transfers into A and into B (`morse._transfer`, glued likewise), so
    a walk meets the trajectories of each case in the order of that case's
    own descent.  The transfer into A and the I-copy arcs that end are
    negated, the signs of cases 4 and 3; all other arcs keep the signs of
    their rules."""
    n, w_a, w_b, w_i = len(d.x._table), d.w_a, d.w_b, d.w_i
    on_a, on_b, m = _arcs(w_a), _arcs(w_b, n), 2 * n
    if w_i is not None:
        into_a, into_b, on_i = _transfer(w_a, 0, -1), _transfer(w_b, n), _arcs(w_i, m, -1)

    def arcs(g: int) -> list[tuple[int, int, int]]:
        if g < n:
            return on_a(g)
        if g < m:
            return on_b(g - n)
        i = g - m
        return into_a(i) + into_b(i) + on_i(i)

    return arcs


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
    for end, walks in sorted(_grouped(_walk(start, _glued(d))).items(),
                             key=lambda group: _CASE[start // n, group[0] // n]):
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
    named = lambda k, ids: fields[k].complex._simplices_of([g - k * n for g in ids])

    def trajectory(alpha: MVGenerator, ids: tuple[int, ...], w: int) -> MVTrajectory:
        k = ids[-1] // n
        cut = 1 if k != source else len(ids)
        while cut < len(ids) and ids[cut] // n == source:
            cut += 2
        p, l = (None, None) if k == source else (cut // 2, (len(ids) - cut) // 2)
        steps = named(source, ids[:cut]) + named(k, ids[cut:])
        return MVTrajectory(_CASE[source, k], beta, alpha, steps, p, l, w)

    return trajectory


def _require_generator(d: Decomposition, g: MVGenerator) -> int:
    """The glued id of g (`_glued_id`), when g is a generator of d."""
    k = _TAGS.index(g.tag)
    gvf = d._fields()[k]
    i = gvf.complex._id(g.simplex) if gvf is not None else None
    if i is None or not gvf._is_critical(i):
        raise FieldError(f"{g} is not a generator of this decomposition")
    return _glued_id(d, k, i)


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
    walks = [(ids, w) for ids, w in _walk(start, _glued(d)) if ids[-1] == end]
    if not walks:
        return []
    named, alpha = _trajectory_namer(d, beta, start), _named_generator(d, end)
    return [named(alpha, ids, w) for ids, w in walks]


def _mv_column(d: Decomposition, keys: Sequence[list[int]], split: bool = False) -> dict:
    """The MV boundary on generator keys, glued ids: the memo of the flow
    over the glued copies (`_glued`), valued over the keys of every degree
    but the first in `keys` (as `_generator_keys(d)` lists them), `split`
    or not as in `morse._flow`.  Its value at a key is the key's column,
    read as is: not split, it maps a row's key to the entry; split, to the
    number of trajectories and their sum."""
    return _flow(_glued(d), itertools.chain(*keys[1:]), split)


def mv_boundary(d: Decomposition, q: int) -> list[list[int]]:
    """The boundary matrix D_q -> D_{q-1}: rows over D_{q-1}, columns over
    D_q, entries the summed trajectory weights."""
    keys = _generator_keys(d)
    rows, cols = (keys[p] if 0 <= p < len(keys) else [] for p in (q - 1, q))
    return _dense(_boundary_columns(rows, cols, _mv_column(d, [rows, cols])), len(rows))


def mv_chain_complex(d: Decomposition) -> IntegerChainComplex:
    """The full Mayer-Vietoris chain complex, its generators labelled.
    Construction re-verifies that the boundary squares to zero and fails
    hard otherwise."""
    keys = _generator_keys(d)
    labels = [tuple(_named_generator(d, key) for key in ks) for ks in keys]
    return _trajectory_complex(labels, keys, _mv_column(d, keys))


def mv_homology(d: Decomposition) -> HomologyResult:
    """Homology of X computed through the Mayer-Vietoris complex, assembled
    on generator keys: no generator is named."""
    keys = _generator_keys(d)
    return homology(_trajectory_complex(None, keys, _mv_column(d, keys)))
