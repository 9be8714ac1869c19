"""Discrete Morse theory: vector fields, gradient trajectories, and the
Thom-Smale chain complex.

A discrete vector field V on a complex X is a matching of facet pairs
(sigma, tau), sigma a codimension-1 face of tau, no simplex in more than one
pair.  V is a gradient field when it admits no nontrivial closed trajectory
tau_0, sigma_1, tau_1, ..., sigma_k, tau_k = tau_0 (k > 1) with
(sigma_i, tau_i) in V, sigma_i a facet of tau_{i-1}, and
(sigma_i, tau_{i-1}) not in V.  Unmatched simplices are critical.

An extended trajectory appends one more downward step:

    tau_0, sigma_1, tau_1, ..., sigma_k, tau_k, sigma_{k+1},   k >= 0,

with the same side conditions and (sigma_{k+1}, tau_k) not in V.  Its weight

    w = ( prod_{i=0}^{k-1} -<tau_i, sigma_{i+1}> <tau_{i+1}, sigma_{i+1}> )
        * <tau_k, sigma_{k+1}>

lies in {+1, -1}.  Writing Gamma(tau, sigma) for the extended trajectories
from a critical tau to a critical sigma, the Thom-Smale complex has the
critical q-simplices as degree-q generators and boundary

    d tau = sum_sigma ( sum_{P in Gamma(tau, sigma)} w(P) ) sigma,

and its homology is the simplicial homology of X (Forman's theorem).

The boundary is not assembled by listing Gamma(tau, sigma), whose size can
grow exponentially, but by Forman's flow (as in Harker, Mischaikow, Mrozek
and Nanda, "Discrete Morse theoretic algorithms for computing homology of
complexes and maps", FoCM 2014): a weighted count memoised per simplex,
linear in the arcs of the gradient digraph.  One signed rule, `_arcs`, gives
those arcs, signed as in w: from tau down to a facet sigma other than
down(tau), then up to up(sigma), or to an end at a critical sigma, never to
a dead end (a sigma paired downward).  Every sign is (-1)^k for the position
k of a facet in the complex's facet table, which lists the facet dropping
vertex k at position k.  An arc adds the memoised flow of its head, or ends
at a critical cell as an entry of its node's base; `_flow` reads a node's
arcs once, its ends into its base, and adds its heads' values into the base
inline, in one post-order loop, with no callback per node.  The flow of a
critical simplex is its boundary; a split flow (a flag of the same loop)
maps each critical end to the number of trajectories and the sum of their
weights instead, which `verify` checks pair by pair.  The flow is one call:
it values a batch of roots and returns its memo, a plain dict from id to
value, so code that reads many values (the boundary columns, `verify`'s
tallies and its scan) indexes the memo rather than calling anything per
lookup.  The walk of `trajectories_from` and certification run on the same
arcs, and a trajectory's weight is the product of the signs its walk read.
The flow and the walk take any digraph in the shape of `_arcs`; `mv` runs
each once on its three copies glued into one, each copy's arcs listed by
`_arcs` in glued ids, with the sign of each MV case.

A greedy field is certified by the clock of its coreduction (Mrozek and
Batko, DCG 2009), which gives each cell the number of cells removed
before the step that removed it: it strictly decreases along every arc,
which one pass checks and which rules out a closed trajectory (Forman,
Adv. Math. 1998).  That is the only clock.
Every other field (pinned fields, `GradientField.certify`'s, the fields V
and W of `verify`) is certified by one linear topological pass over the
same arcs (`_ordered`, Kahn's algorithm).  Only a field that the pass
rejects is valued by the flow itself, whose depth-first stack holds the
cycle it runs into: that cycle names the closed trajectory of the
witness, so the flow and the walk are the only searches of the arcs.

The field code runs on the integer ids of the complex's table (see
`complexes`): a certified field holds `up`/`down` id arrays and the sign
of each pair, coreduction and the topological pass keep their state in
int lists and byte masks, and simplices are named only in what is
returned (`pairs`, `critical`, trajectories, witnesses).  Every id they
hold, the clock included, is one of the table's own int objects
(`complexes._Table.ids`), never a fresh one.
"""
from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .complexes import Simplex, SimplicialComplex, _FrozenRecord, _names
from .errors import FieldError, InternalConsistencyError, NotAcyclicError
from .homology import Column, IntegerChainComplex

__all__ = [
    "DEFAULT_SEED",
    "VectorField",
    "GradientField",
    "Trajectory",
    "is_acyclic",
    "trajectories_from",
    "thom_smale_complex",
    "greedy_gvf",
]

# Seed used whenever a caller asks for the random strategy without fixing
# one; keeping it constant makes every default run reproducible.
DEFAULT_SEED = 1729

# an arc (c, sigma, nu) of a gradient digraph, in the shape `_arcs` lists
_Arc = tuple[int, int, int]


class VectorField:
    """A discrete vector field: a matching by facet pairs.

    Pairs are stored positively oriented.  Construction checks the matching
    conditions; whether the field is a *gradient* field (acyclic) is a
    property relative to a complex, certified separately.
    """

    def __init__(self, pairs: Iterable[tuple[Simplex, Simplex]]):
        up: dict[Simplex, Simplex] = {}
        down: dict[Simplex, Simplex] = {}
        canon = []
        for sigma, tau in pairs:
            sigma, tau = abs(sigma), abs(tau)
            if sigma.dim + 1 != tau.dim or not sigma.is_face_of(tau):
                raise FieldError(f"({sigma}, {tau}) is not a facet pair")
            for s in (sigma, tau):
                if s in up or s in down:
                    raise FieldError(f"{s} appears in more than one pair")
            up[sigma] = tau
            down[tau] = sigma
            canon.append((sigma, tau))
        self._up = up
        self._down = down
        self.pairs: tuple[tuple[Simplex, Simplex], ...] = tuple(
            sorted(canon, key=lambda p: p[1].key)
        )

    def up(self, sigma: Simplex) -> Simplex | None:
        """The tau with (sigma, tau) in V, if any."""
        return self._up.get(abs(sigma))

    def down(self, tau: Simplex) -> Simplex | None:
        """The sigma with (sigma, tau) in V, if any."""
        return self._down.get(abs(tau))

    def is_matched(self, s: Simplex) -> bool:
        s = abs(s)
        return s in self._up or s in self._down

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[Simplex, Simplex]]:
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorField) and set(self.pairs) == set(other.pairs)

    def __repr__(self) -> str:
        return f"<VectorField with {len(self.pairs)} pairs>"

    def _arrays(self, x: SimplicialComplex) -> tuple[list[int], list[int], list[int]]:
        """`up`, `down` and `lift` over the id table of x (see `_matching`)."""
        ids = _pair_ids(x, self.pairs, lambda pair, k: FieldError(
            f"field references {pair[k]}, which is not in the complex"))
        return _matching(x, ids, FieldError)


def _pair_ids(
    x: SimplicialComplex, pairs: Sequence[Sequence], missing: Callable[[Sequence, int], Exception]
) -> Iterator[tuple[int, int]]:
    """The id pairs over x of `pairs`, each end a Simplex, a string of names
    or names (`complexes._names`), resolved in one `_ids_of` batch; the
    first end that is not in x, end k of `pair`, raises missing(pair, k)."""
    # an end read from a `.dec` file is already a tuple of names
    ends = x._ids_of([s if type(s) is tuple else _names(s) for pair in pairs for s in pair])
    if None in ends:
        k = ends.index(None)
        raise missing(pairs[k // 2], k % 2)
    return zip(ends[::2], ends[1::2])


def _matching(
    x: SimplicialComplex, pairs: Iterable[tuple[int, int]], error: type[Exception]
) -> tuple[list[int], list[int], list[int]]:
    """The arrays up[sigma] = tau, down[tau] = sigma (-1: no pair) and
    lift[sigma] = -<tau, sigma> (1: no pair) of the id pairs (sigma, tau)
    over x's table, checked to be a matching of facet pairs (else `error`
    is raised)."""
    facets, name = x._table.facets, x._simplex
    up, down, lift = [-1] * len(facets), [-1] * len(facets), [1] * len(facets)
    for sigma, tau in pairs:
        fs = facets[tau]
        if sigma not in fs:
            raise error(f"({name(sigma)}, {name(tau)}) is not a facet pair")
        taken = up[sigma] >= 0 or down[sigma] >= 0
        if taken or up[tau] >= 0 or down[tau] >= 0:
            raise error(f"{name(sigma if taken else tau)} appears in more than one pair")
        up[sigma], down[tau] = tau, sigma
        lift[sigma] = 1 if fs.index(sigma) & 1 else -1  # -<tau, sigma>
    return up, down, lift


def is_acyclic(v: VectorField, x: SimplicialComplex) -> bool:
    """Whether v is a gradient field on x."""
    try:
        GradientField.certify(v, x)
    except NotAcyclicError:
        return False
    return True


def _closed_trajectory(gvf: "GradientField") -> tuple[Simplex, ...] | None:
    """A closed trajectory (tau_0, sigma_1, ..., sigma_k, tau_k) with
    tau_k == tau_0 of the field gvf, not yet certified, or None when it is a
    gradient field: the cycle that Forman's flow runs into, valued at every
    id of dimension >= 1 by dimension, in id order.  A step up into tau
    always comes from down[tau], so the cycle's ids name the trajectory."""
    x, down = gvf.complex, gvf._down
    try:
        _flow(_arcs(gvf), itertools.chain(*x._ids[1:]))
    except InternalConsistencyError as error:
        taus = error.cycle + error.cycle[:1]  # tau_0, ..., tau_k = tau_0
        return x._simplices_of([taus[0], *(i for t in taus[1:] for i in (down[t], t))])
    return None


def _descends(gvf: "GradientField", clock: list[int]) -> bool:
    """Whether clock[nu] < clock[tau] on every arc tau -> nu >= 0 out of a
    cell tau matched downward, the only cells a closed trajectory passes
    through: the arcs of `_arcs` without their signs, read off `up`, `down`
    and the facet table, stopping at the first that does not descend.  Only
    the complex's own ids are read, so a field on a piece costs what the
    piece holds, not what its table does."""
    up, down, facets = gvf._up, gvf._down, gvf.complex._table.facets
    for ids in gvf.complex._ids[1:]:
        for tau in ids:
            d = down[tau]
            if d >= 0:
                c = clock[tau]
                for sigma in facets[tau]:
                    nu = up[sigma]
                    if nu >= 0 and sigma != d and clock[nu] >= c:
                        return False
    return True


def _ordered(gvf: "GradientField") -> bool:
    """Whether gvf, not yet certified, is a gradient field, by Kahn's
    topological sort ("Topological sorting of large networks", CACM 1962)
    of the arcs `_descends` reads: it removes every cell matched downward
    exactly when no closed trajectory runs through one.  `heads[nu]`
    counts the arcs into nu from cells not yet removed, and `ready` lists
    the removed cells, growing while it is read.  Only the complex's own
    ids are read, as in `_descends`."""
    up, down, facets = gvf._up, gvf._down, gvf.complex._table.facets
    heads, matched = [0] * len(up), []
    for ids in gvf.complex._ids[1:]:
        for tau in ids:
            d = down[tau]
            if d >= 0:
                matched.append(tau)
                for sigma in facets[tau]:
                    nu = up[sigma]
                    if nu >= 0 and sigma != d:
                        heads[nu] += 1
    ready = [tau for tau in matched if not heads[tau]]
    for tau in ready:
        d = down[tau]
        for sigma in facets[tau]:
            nu = up[sigma]
            if nu >= 0 and sigma != d:
                heads[nu] -= 1
                if not heads[nu]:
                    ready.append(nu)
    return len(ready) == len(matched)


class GradientField:
    """A vector field together with its complex and an acyclicity
    certificate.  The only way to obtain one is to certify it
    (`GradientField.certify`, or `_certified`, which `greedy_gvf` alone
    gives a clock), so holding a GradientField is holding the proof that
    trajectory enumeration terminates.

    The field lives on the complex's id table, as the arrays `_up`, `_down`
    and `_lift` (see `_matching`), which `_arcs` reads; certification also
    lists the critical ids of each degree, once.  `pairs`, `critical` and
    `field` name them as simplices on every call."""

    def __init__(self, complex: SimplicialComplex):
        raise FieldError("use GradientField.certify(field, complex)")

    @classmethod
    def certify(cls, field: VectorField, complex: SimplicialComplex) -> "GradientField":
        return cls._certified(complex, *field._arrays(complex))

    @classmethod
    def _certified(
        cls,
        complex: SimplicialComplex,
        up: list[int],
        down: list[int],
        lift: list[int],
        clock: list[int] | None = None,
    ) -> "GradientField":
        """The field of the arrays up, down and lift on complex, certified
        by a `clock` that descends along every arc (`_descends`), which only
        `greedy_gvf` passes, its coreduction's; without one, or when it does
        not descend, by the topological pass `_ordered`.  Only a field that
        the pass rejects goes to `_closed_trajectory`, the flow's own cycle,
        which names the witness and has the last word, so a wrong clock
        never changes a verdict or a witness."""
        gvf = object.__new__(cls)
        gvf.complex, gvf._up, gvf._down, gvf._lift = complex, up, down, lift
        if not (clock is not None and _descends(gvf, clock) or _ordered(gvf)):
            witness = _closed_trajectory(gvf)
            if witness is not None:
                raise NotAcyclicError(f"closed trajectory through {witness[0]}", witness)
        gvf._critical_ids = tuple(
            [i for i in ids if up[i] < 0 and down[i] < 0] for ids in complex._ids
        )
        return gvf

    def _is_critical(self, i: int) -> bool:
        return self._up[i] < 0 and self._down[i] < 0

    @property
    def field(self) -> VectorField:
        return VectorField(self.pairs)

    @property
    def pairs(self) -> tuple[tuple[Simplex, Simplex], ...]:
        """The pairs (sigma, tau), ordered by tau."""
        taus = [tau for tau, sigma in enumerate(self._down) if sigma >= 0]
        name = self.complex._simplices_of
        return tuple(zip(name(self._down[t] for t in taus), name(taus)))

    def critical(self, q: int | None = None) -> tuple[Simplex, ...]:
        """The unmatched simplices of dimension q (empty tuple if none), or
        every one by ascending dimension when q is None; each degree in id
        order, which is canonical on a complex closed from generators."""
        if q is None:
            return tuple(itertools.chain.from_iterable(
                self.critical(d) for d in range(len(self._critical_ids))
            ))
        if not 0 <= q < len(self._critical_ids):
            return ()
        return self.complex._simplices_of(self._critical_ids[q])

    def __repr__(self) -> str:
        pairs = sum(sigma >= 0 for sigma in self._down)
        return f"<GradientField with {pairs} pairs on {self.complex!r}>"


class Trajectory(_FrozenRecord):
    """An extended trajectory, stored as the alternating sequence
    (tau_0, sigma_1, tau_1, ..., tau_k, sigma_{k+1}), with its weight, +1
    or -1: the product of the signs of the arcs of `_arcs` its walk read."""

    __slots__ = _fields = ("steps", "weight")

    def __init__(self, steps: Iterable[Simplex], weight: int):
        steps = tuple(steps)
        if len(steps) < 2 or len(steps) % 2:
            raise FieldError("an extended trajectory alternates tau, sigma, ..., sigma")
        if weight not in (1, -1):
            raise FieldError(f"a trajectory's weight is +1 or -1, got {weight!r}")
        self._set(steps, weight)


def trajectories_from(gvf: GradientField, tau: Simplex) -> dict[Simplex, list[Trajectory]]:
    """All extended trajectories from the critical simplex tau that end at a
    critical simplex, grouped by terminal.  Depth-first, iteratively, in
    canonical facet order, so the output order is deterministic."""
    if not isinstance(gvf, GradientField):
        raise FieldError(
            "trajectory enumeration needs a certified gradient field; "
            "run GradientField.certify first"
        )
    tau = abs(tau)
    i = gvf.complex._id(tau)
    if i is None:
        raise FieldError(f"{tau} is not in the complex")
    if not gvf._is_critical(i):
        raise FieldError(f"{tau} is not critical")
    name = gvf.complex._simplices_of
    return {
        gvf.complex._simplex(end): [Trajectory(name(s), w) for s, w in walks]
        for end, walks in _grouped(_walk(i, _arcs(gvf))).items()
    }


def _grouped(walks: Iterable[tuple[tuple[int, ...], int]]) -> dict[int, list]:
    """(id sequence, weight) pairs grouped by the last id of the sequence,
    in order of first appearance."""
    out: dict[int, list] = {}
    for walk in walks:
        out.setdefault(walk[0][-1], []).append(walk)
    return out


def _arcs(gvf: GradientField, offset: int = 0, end: int = 1) -> Callable[[int], list[_Arc]]:
    """Forman's step rule of gvf on ids, signed, and the one description of
    its gradient digraph: arcs(tau) lists, in vertex-drop order, an arc
    (c, sigma, nu) per facet sigma of tau but down[tau] that a trajectory
    can step to: nu = up[sigma] when sigma is paired upward, c the sign of
    the step, <tau, sigma> times -<nu, sigma>; else nu = -1, an end signed
    `end` times <tau, sigma>, when sigma is critical.  Glued at `offset`
    (see `mv._glued`), sigma and nu >= 0 are shifted by it.  The sign
    <tau, sigma> alternates along the facets, whatever the dimension."""
    up, down, lift, facets = gvf._up, gvf._down, gvf._lift, gvf.complex._table.facets

    def arcs(tau: int) -> list[_Arc]:
        d, out, c = down[tau], [], 1
        for s in facets[tau]:
            if s != d:
                nu = up[s]
                if nu >= 0:
                    out.append((c * lift[s], offset + s, offset + nu))
                elif down[s] < 0:
                    out.append((end * c, offset + s, -1))
            c = -c
        return out

    return arcs


def _transfer(piece: GradientField, offset: int = 0, sign: int = 1) -> Callable[[int], list]:
    """The transfer of MV cases 4/5 into the field `piece`, glued at
    `offset`, as arcs in the shape of `_arcs` that keep the id tau: the arc
    (c, tau, nu) to nu = up[tau] in the piece, c = `sign` times -<nu, tau>;
    else, when tau is critical in the piece, the end (`sign`, tau, -1), as
    a same-dimension step carries no incidence; else none.  Ids are
    shifted by the offset."""
    up, down, lift = piece._up, piece._down, piece._lift
    return lambda tau: ([(sign * lift[tau], offset + tau, offset + up[tau])] if up[tau] >= 0
                        else [(sign, offset + tau, -1)] if down[tau] < 0 else [])


def _walk(start: int, arcs: Callable) -> Iterator[tuple[tuple, int]]:
    """Every walk from `start` along `arcs`, a digraph in the shape of
    `_arcs` (as `_flow` reads it), that ends, as (id sequence, weight),
    depth-first, the weight the product of its arcs' signs: an arc
    (c, sigma, nu) goes on to nu >= 0 or ends the walk at sigma, which is
    critical.  An explicit stack lets a walk be arbitrarily long."""
    seq = [start]
    stack = [(iter(arcs(start)), 1)]
    while stack:
        it, w = stack[-1]
        for c, sigma, nu in it:
            if nu >= 0:
                seq += (sigma, nu)
                stack.append((iter(arcs(nu)), w * c))
                break
            yield (*seq, sigma), w * c
        else:
            stack.pop()
            del seq[-2:]


def _flow(arcs: Callable, roots: Iterable[int], split: bool = False) -> dict[int, dict]:
    """Forman's flow on ids over a digraph in the shape of `_arcs` (a
    field's own arcs, or the glued copies of `mv._glued`), each arc going
    on or ending at a critical id, valued at the ids `roots` and every id
    below them.  The value of tau maps critical ids r one dimension below
    tau to the weighted count of the gradient paths tau, sigma_1, nu_1,
    ..., r (which may be 0),

        flow(tau) = sum over the arcs (c, sigma, nu) of tau of
                    c flow(nu)     when nu >= 0,
                    c {sigma: 1}   when nu < 0,

    the second kind in the node's base, so the flow of a critical id is its
    Thom-Smale boundary.  A `split` flow maps r to the number of those
    paths and the sum of their weights instead, a base entry (1, c), and a
    sign c multiplies only the sum: each weight is +1 or -1, so the two fix
    the weights.  An entry that sums to zero stays.

    Returns the memo, a plain dict from each id valued to its value, which
    callers read by indexing.  One explicit stack, the roots at its bottom,
    values the ids in post-order, so a path may be arbitrarily long.  An id
    on top reads its arcs once, into its base and its heads (c, nu), and is
    marked None in the memo; it waits for its first head not yet valued,
    then adds its heads' values into its base, in the order of its arcs.  A
    head marked None is a cycle, reported instead of followed: the error's
    `cycle` lists the ids of the path from that head up, in path order."""
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


def _boundary_columns(rows: Sequence, cols: Sequence, values: Mapping) -> list[Column]:
    """The sparse columns of the matrix with rows and columns indexed by the
    keys `rows` and `cols`: column j is values[cols[j]], a map from row key
    to entry (the memo of a flow valued over cols, say), keyed by row
    position instead, its zero entries left out."""
    index = {r: i for i, r in enumerate(rows)}
    return [{index[r]: v for r, v in values[c].items() if v} for c in cols]


def _trajectory_complex(labels, keys, values: Mapping) -> IntegerChainComplex:
    """The chain complex with generators `labels[q]` in degree q, known to
    `values` by the matching `keys[q]`, whose boundary columns come from
    `_boundary_columns`."""
    columns = [_boundary_columns(keys[q - 1], keys[q], values) for q in range(1, len(keys))]
    return IntegerChainComplex.from_columns([len(ks) for ks in keys], columns, labels)


def thom_smale_complex(gvf: GradientField) -> IntegerChainComplex:
    """The full Thom-Smale chain complex of (X, V); its homology equals the
    simplicial homology of X."""
    labels = [gvf.critical(q) for q in range(len(gvf._critical_ids))]
    flow = _flow(_arcs(gvf), itertools.chain(*gvf._critical_ids[1:]))
    return _trajectory_complex(labels, gvf._critical_ids, flow)


def greedy_gvf(
    x: SimplicialComplex,
    strategy: str = "lexicographic",
    seed: int | None = None,
) -> GradientField:
    """Build a gradient field greedily, by coreduction.

    Maintain the set of live simplices (initially all of x).  Repeatedly
    pair the smallest live simplex tau that has exactly one live facet sigma
    as (sigma, tau); when no such tau exists, declare the smallest live
    simplex critical.  "Smallest" orders by dimension first, then by the
    canonical vertex order ("lexicographic") or a seeded shuffle ("random").

    The field is certified by its clock, which gives each cell the number
    of cells removed before the step that removed it (one step per pair or
    critical cell), read from the table's id list: the other facets of
    tau, and the cells paired above them, went earlier, so the clock
    descends along every arc.  The coreduction runs on x's ids, which
    ascend by dimension, then vertex tuple: for the lexicographic strategy
    the heap holds the ids themselves, and for the random one their
    positions in `order`, the ids by dimension, then shuffled rank.  The
    live set is a byte mask.

    >>> f = greedy_gvf(SimplicialComplex(["v0 v1"]))
    >>> f.pairs
    ((Simplex('v1'), Simplex('v0 v1')),)
    >>> f.critical()
    (Simplex('v0'),)
    """
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
    return GradientField._certified(x, up, down, lift, clock=clock)
