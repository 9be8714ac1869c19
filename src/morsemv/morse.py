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
those arcs: from tau down to a facet sigma other than down(tau), then up to
up(sigma), signed as in w.  Every sign is (-1)^k for the position k of a
facet in the complex's facet table, which lists the facet dropping vertex k
at position k.  The flow of a critical simplex is its boundary; with its
signs dropped it counts the trajectories, and with each sign moved into the
key it counts them by weight, which `verify` checks pair by pair.  The walk
of `trajectories_from` (its weights the products of the signs it read) and
the acyclicity search, an iterative three-colour depth-first search that
reports a closed trajectory, run on the same arcs.

The field code runs on the integer ids of the complex's table (see
`complexes`): a certified field holds `up`/`down` id arrays and the sign
of each pair, coreduction and the acyclicity search keep their state in
int lists and byte masks, and simplices are named only in what is returned
(`pairs`, `critical`, trajectories, witnesses).
"""
from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .complexes import Simplex, SimplicialComplex
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
        ids = [(x._id(sigma), x._id(tau)) for sigma, tau in self.pairs]
        for (sigma, tau), (i, j) in zip(self.pairs, ids):
            if i is None or j is None:
                missing = sigma if i is None else tau
                raise FieldError(f"field references {missing}, which is not in the complex")
        return _matching(x, ids, FieldError)


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
        if sigma not in facets[tau]:
            raise error(f"({name(sigma)}, {name(tau)}) is not a facet pair")
        for s in (sigma, tau):
            if up[s] >= 0 or down[s] >= 0:
                raise error(f"{name(s)} appears in more than one pair")
        up[sigma], down[tau] = tau, sigma
        lift[sigma] = 1 if facets[tau].index(sigma) & 1 else -1  # -<tau, sigma>
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
    gradient field.

    Runs a three-colour DFS per dimension over the arcs tau -> nu >= 0 of
    `_arcs`; a grey-on-grey arc closes a trajectory, which is reconstructed
    from the DFS stack, whose entries (tau, sigma, arcs) record the facet
    sigma that led to tau.  Arcs never change dimension, so one colour
    array serves every dimension.
    """
    x, arcs = gvf.complex, _arcs(gvf)
    GRAY, BLACK = 1, 2
    colour = bytearray(len(x._table))
    for ids in x._ids[1:]:
        for root in ids:
            if colour[root]:
                continue
            colour[root] = GRAY
            stack = [(root, -1, iter(arcs(root)))]
            while stack:
                for _, sigma, nxt in stack[-1][2]:
                    if nxt < 0:
                        continue
                    c = colour[nxt]
                    if not c:
                        colour[nxt] = GRAY
                        stack.append((nxt, sigma, iter(arcs(nxt))))
                        break
                    if c == GRAY:
                        i = next(j for j, entry in enumerate(stack) if entry[0] == nxt)
                        witness = [nxt]
                        for tau, via, _ in stack[i + 1:]:
                            witness += [via, tau]
                        return x._simplices_of(witness + [sigma, nxt])
                else:
                    colour[stack.pop()[0]] = BLACK
    return None


class GradientField:
    """A vector field together with its complex and an acyclicity
    certificate.  The only way to obtain one is `GradientField.certify`
    (used by `greedy_gvf` too), so holding a GradientField is holding the
    proof that trajectory enumeration terminates.

    The field lives on the complex's id table, as the arrays `_up`, `_down`
    and `_lift` (see `_matching`), which `_arcs` reads; certification also
    lists the critical ids of each degree, once.  `pairs`, `critical` and
    `field` name them as simplices on first use."""

    _TOKEN = object()

    def __init__(self, field: VectorField | None, complex: SimplicialComplex, _token=None):
        if _token is not GradientField._TOKEN:
            raise FieldError("use GradientField.certify(field, complex)")
        self._field = field
        self.complex = complex

    @classmethod
    def certify(cls, field: VectorField, complex: SimplicialComplex) -> "GradientField":
        return cls._certified(complex, *field._arrays(complex), field)

    @classmethod
    def _certified(
        cls,
        complex: SimplicialComplex,
        up: list[int],
        down: list[int],
        lift: list[int],
        field: VectorField | None = None,
    ) -> "GradientField":
        gvf = cls(field, complex, _token=cls._TOKEN)
        gvf._up, gvf._down, gvf._lift = up, down, lift
        witness = _closed_trajectory(gvf)
        if witness is not None:
            raise NotAcyclicError(f"closed trajectory through {witness[0]}", witness)
        gvf._critical_ids = tuple(
            [i for i in ids if up[i] < 0 and down[i] < 0] for ids in complex._ids
        )
        gvf._critical, gvf._pairs = {}, None
        return gvf

    def _is_critical(self, i: int) -> bool:
        return self._up[i] < 0 and self._down[i] < 0

    @property
    def field(self) -> VectorField:
        if self._field is None:
            self._field = VectorField(self.pairs)
        return self._field

    @property
    def pairs(self) -> tuple[tuple[Simplex, Simplex], ...]:
        """The pairs (sigma, tau), ordered by tau."""
        if self._pairs is None:
            taus = [tau for tau, sigma in enumerate(self._down) if sigma >= 0]
            name = self.complex._simplices_of
            self._pairs = tuple(zip(name(self._down[t] for t in taus), name(taus)))
        return self._pairs

    def critical(self, q: int | None = None) -> tuple[Simplex, ...]:
        """The unmatched simplices of dimension q (empty tuple if none), or
        every one by ascending dimension when q is None; each degree in
        canonical order."""
        if q is None:
            return tuple(itertools.chain.from_iterable(
                self.critical(d) for d in range(len(self._critical_ids))
            ))
        if not 0 <= q < len(self._critical_ids):
            return ()
        out = self._critical.get(q)
        if out is None:
            out = self._critical[q] = self.complex._simplices_of(self._critical_ids[q])
        return out

    def __repr__(self) -> str:
        return f"<GradientField with {len(self.pairs)} pairs on {self.complex!r}>"


class Trajectory:
    """An extended trajectory, stored as the alternating sequence
    (tau_0, sigma_1, tau_1, ..., tau_k, sigma_{k+1}).  An enumerated
    trajectory carries the weight its walk read off `_arcs`; one built by
    hand reads it from its steps on first use (see `_path_weight`)."""

    __slots__ = ("steps", "_weight")

    def __init__(self, steps: Iterable[Simplex]):
        self.steps = tuple(steps)
        if len(self.steps) < 2 or len(self.steps) % 2:
            raise FieldError("an extended trajectory alternates tau, sigma, ..., sigma")
        self._weight: int | None = None

    @classmethod
    def _with_weight(cls, steps: Iterable[Simplex], weight: int) -> "Trajectory":
        t = cls(steps)
        t._weight = weight
        return t

    @property
    def weight(self) -> int:
        if self._weight is None:
            self._weight = _path_weight([abs(s) for s in self.steps], Simplex.facets)
        return self._weight

    def __eq__(self, other) -> bool:
        return isinstance(other, Trajectory) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return "Trajectory(" + ", ".join(str(s) for s in self.steps) + ")"


def _sign(k: int) -> int:
    """(-1)^k: the incidence <tau, sigma> of a simplex tau on its facet k,
    the one without tau's k-th vertex.  Facet tables list facets in this
    vertex-drop order, so a facet's position gives its sign."""
    return -1 if k & 1 else 1


def _path_weight(steps: Sequence[Hashable], facets: Callable[[Hashable], Sequence]) -> int:
    """The sign of a hand-built trajectory, from its steps and `facets`,
    which lists the facets of a step in vertex-drop order; it shares no code
    with `_arcs`, whose signs the walks multiply.  Step by step x -> y:

    * a step down to the facet k of x contributes (-1)^k, i.e. <x, y>;
    * a step up from the facet k of y contributes -(-1)^k, i.e. -<y, x>;
    * a same-dimension step (the transfer of MV cases 4/5) contributes
      nothing, and any other step makes the weight 0.

    For an extended trajectory this is the weight w of the module
    docstring; an MV trajectory multiplies it by the sign of its case
    (see `mv`)."""
    w = 1
    for x, y in zip(steps, steps[1:]):
        below, above = facets(x), facets(y)
        if y in below:
            w *= _sign(below.index(y))
        elif x in above:
            w *= -_sign(above.index(x))
        elif len(below) != len(above):
            return 0
    return w


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
        gvf.complex._simplex(end): [Trajectory._with_weight(name(s), w) for s, w in walks]
        for end, walks in _grouped(_trajectory_ids(gvf, i)).items()
    }


def _grouped(walks: Iterable[tuple[tuple[int, ...], int]]) -> dict[int, list]:
    """(id sequence, weight) pairs grouped by the last id of the sequence,
    in order of first appearance."""
    out: dict[int, list] = {}
    for walk in walks:
        out.setdefault(walk[0][-1], []).append(walk)
    return out


def _trajectory_ids(gvf: GradientField, tau: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The extended trajectories of gvf from the id tau that end at a
    critical id, as (id sequence, weight), depth-first in facet order."""
    return _walk(tau, _moves(gvf))


def _arcs(gvf: GradientField) -> Callable[[int], list[tuple[int, int, int]]]:
    """Forman's step rule of gvf on ids, signed, and the one description of
    its gradient digraph: arcs(tau) lists (c, sigma, nu) for every facet
    sigma of tau other than down[tau], in vertex-drop order, with nu =
    up[sigma] (-1 when sigma is not paired upward) and c the sign of the
    step, <tau, sigma> times -<nu, sigma> when nu >= 0."""
    up, down, lift, facets = gvf._up, gvf._down, gvf._lift, gvf.complex._table.facets

    def arcs(tau: int) -> list[tuple[int, int, int]]:
        d, out, c = down[tau], [], 1
        for sigma in facets[tau]:
            if sigma != d:
                out.append((c * lift[sigma], sigma, up[sigma]))
            c = -c
        return out

    return arcs


def _transfer(piece: GradientField) -> Callable[[int], list[tuple[int, int, int]]]:
    """The transfer of MV cases 4/5 into the field `piece`, in the shape of
    `_arcs`: transfer(tau) is the one arc (c, tau, nu) that keeps the id
    tau, with nu = up[tau] in the piece (-1 when tau is not paired upward)
    and c = -<nu, tau> (1 when nu < 0), as a same-dimension step carries no
    incidence."""
    up, lift = piece._up, piece._lift
    return lambda tau: [(lift[tau], tau, up[tau])]


def _heads(arcs: Iterable[tuple[int, int, int]], down: list[int]) -> list[tuple[int, int]]:
    """The links of a flow along `arcs`, for `_memoised`: an arc (c, sigma,
    nu) goes on to nu >= 0, or ends at a critical sigma (down[sigma] < 0),
    in the sink ~sigma."""
    return [(c, nu if nu >= 0 else ~sigma) for c, sigma, nu in arcs if nu >= 0 or down[sigma] < 0]


def _onward(arcs: Iterable[tuple[int, int, int]], down: list[int], then) -> list:
    """The moves of a walk along `arcs`, for `_walk`: an arc (c, sigma, nu)
    goes on to nu >= 0, where `then` gives the next moves, or ends at a
    critical sigma (down[sigma] < 0)."""
    out = []
    for c, sigma, nu in arcs:
        if nu >= 0:
            out.append(((sigma, nu), c, then))
        elif down[sigma] < 0:
            out.append(((sigma,), c, None))
    return out


def _moves(gvf: GradientField):
    """The moves of a walk along gvf's arcs, for `_walk`."""
    arcs, down = _arcs(gvf), gvf._down

    def moves(tau: int) -> list:
        return _onward(arcs(tau), down, moves)

    return moves


def _walk(start: int, moves, sign: int = 1) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every walk from `start` that ends, as (id sequence, weight),
    depth-first, the weight `sign` times the signs of its moves.  `moves(id)`
    lists `(extension, c, then)`: the extension is appended with sign c, and
    `then` gives the moves from its last id, or is None when it ends the
    walk.  An explicit stack lets a sequence be arbitrarily long."""
    seq = [start]
    stack = [(iter(moves(start)), 0, sign)]
    while stack:
        it, _, w = stack[-1]
        for ext, c, then in it:
            if then is None:
                yield (*seq, *ext), w * c
            else:
                seq += ext
                stack.append((iter(then(seq[-1])), len(ext), w * c))
                break
        else:
            _, grown, _ = stack.pop()
            del seq[len(seq) - grown:]


def _combine(base: Column, terms: Iterable[tuple[int, Column]]) -> Column:
    """base + sum(c * column for c, column in terms); an entry that sums to
    zero stays, and `_boundary_columns` leaves it out."""
    out = dict(base)
    for c, col in terms:
        for r, v in col.items():
            out[r] = out.get(r, 0) + c * v
    return out


def _unsigned(base: Column, terms: Iterable[tuple[int, Column]]) -> Column:
    """`_combine` with every sign taken as 1, so a flow counts paths."""
    return _combine(base, ((1, col) for _, col in terms))


def _split(base: Column, terms: Iterable[tuple[int, Column]]) -> Column:
    """`_combine` with the sign in the key: (r, w) maps to the number of
    paths to r of weight w, and a sign c moves that count to (r, c * w)."""
    out = dict(base)
    for c, col in terms:
        for (r, w), v in col.items():
            out[r, c * w] = out.get((r, c * w), 0) + v
    return out


def _memoised(links: Callable[[int], tuple[Column, Sequence[tuple[int, int]]]], combine=_combine):
    """The function value(s) = base + sum(c * value(t) for c, t in arcs),
    where (base, arcs) = links(s), on an acyclic digraph, memoised, the sum
    taken by `combine`.  Each call computes what it needs in post-order
    with an explicit stack, so a chain of arcs may be arbitrarily long.  The
    stack is a path of the digraph, each entry waiting for the first of its
    arcs not yet valued; an arc back into the path is a cycle, reported
    instead of followed."""
    memo: dict[int, Column] = {}

    def value(root: int) -> Column:
        if root in memo:
            return memo[root]
        stack, on_path = [(root, *links(root))], {root}
        while stack:
            s, base, arcs = stack[-1]
            for _, t in arcs:
                if t not in memo:
                    if t in on_path:
                        raise InternalConsistencyError(f"the flow runs in a cycle through id {t}")
                    on_path.add(t)
                    stack.append((t, *links(t)))
                    break
            else:
                stack.pop()
                on_path.discard(s)
                memo[s] = combine(base, [(c, memo[t]) for c, t in arcs]) if arcs else base
        return memo[root]

    return value


def _flow(gvf: GradientField, combine=_combine) -> Callable[[int], Column]:
    """Forman's flow of gvf on ids, memoised, over the arcs of `_arcs`:
    flow(tau) maps critical ids r one dimension below tau to the weighted
    count of the gradient paths tau, sigma_1, nu_1, ..., r (which may be 0),

        flow(tau) = sum over the arcs (c, sigma, nu) of tau of
                    c flow(nu)     when nu >= 0,
                    c {sigma: 1}   when sigma is critical,

    so the flow of a critical id is its Thom-Smale boundary.  The field is
    a gradient field, so the recursion is well founded.  With `_unsigned`
    as `combine` it counts the paths; with `_split` it counts them by
    weight."""
    arcs, down = _arcs(gvf), gvf._down
    unit = (lambda r: {(r, 1): 1}) if combine is _split else (lambda r: {r: 1})

    def links(tau: int):
        if tau < 0:  # the sink ~sigma of the paths ending at a critical sigma
            return unit(~tau), ()
        return {}, _heads(arcs(tau), down)

    return _memoised(links, combine)


def _boundary_columns(rows: Sequence, cols: Sequence, column) -> list[Column]:
    """The sparse columns of the matrix with rows and columns indexed by the
    keys `rows` and `cols`: column j is column(cols[j]), a map from row key
    to entry, keyed by row position instead, its zero entries left out."""
    index = {r: i for i, r in enumerate(rows)}
    return [{index[r]: v for r, v in column(c).items() if v} for c in cols]


def _trajectory_complex(labels, keys, column) -> IntegerChainComplex:
    """The chain complex with generators `labels[q]` in degree q, known to
    `column` by the matching `keys[q]`, whose boundary columns come from
    `_boundary_columns`."""
    columns = [_boundary_columns(keys[q - 1], keys[q], column) for q in range(1, len(keys))]
    return IntegerChainComplex.from_columns([len(ks) for ks in keys], columns, labels)


def thom_smale_complex(gvf: GradientField) -> IntegerChainComplex:
    """The full Thom-Smale chain complex of (X, V); its homology equals the
    simplicial homology of X."""
    labels = [gvf.critical(q) for q in range(len(gvf._critical_ids))]
    return _trajectory_complex(labels, gvf._critical_ids, _flow(gvf))


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

    Pairing always removes the oldest live facet frontier first, so the
    produced field is acyclic by construction; it is certified anyway.
    The coreduction runs on x's ids: the heap holds positions in `order`,
    the ids by dimension, then rank; the live set is a byte mask.

    >>> f = greedy_gvf(SimplicialComplex(["v0 v1"]))
    >>> f.pairs
    ((Simplex('v1'), Simplex('v0 v1')),)
    >>> f.critical()
    (Simplex('v0'),)
    """
    order = list(itertools.chain.from_iterable(x._ids))
    table = x._table
    verts, facets, cofacets = table.verts, table.facets, table.cofacets
    if strategy == "random":
        random.Random(DEFAULT_SEED if seed is None else seed).shuffle(order)
        order.sort(key=lambda i: len(verts[i]))  # stable: shuffled within a dimension
    elif strategy not in ("lex", "lexicographic"):
        raise FieldError(f"unknown strategy {strategy!r}")
    n = len(table)
    position, live = [0] * n, [0] * n
    for p, i in enumerate(order):
        position[i], live[i] = p, len(facets[i])
    alive = bytearray(x._mask)
    candidates: list[int] = []
    up, down, lift = [-1] * n, [-1] * n, [1] * n
    push, pop = heapq.heappush, heapq.heappop

    remaining, next_critical = len(order), 0
    while remaining:
        # pair the first candidate still with one live facet, or else
        # declare the first live cell critical; then kill what was taken
        while candidates:
            tau = order[pop(candidates)]
            if alive[tau] and live[tau] == 1:
                for k, sigma in enumerate(facets[tau]):
                    if alive[sigma]:
                        break
                up[sigma], down[tau] = tau, sigma
                lift[sigma] = 1 if k & 1 else -1  # -<tau, sigma>
                dead = (sigma, tau)
                break
        else:
            while not alive[order[next_critical]]:
                next_critical += 1
            dead = (order[next_critical],)
        for s in dead:
            alive[s] = 0
            for t in cofacets[s]:
                if alive[t]:
                    c = live[t] - 1
                    live[t] = c
                    if c == 1:
                        push(candidates, position[t])
        remaining -= len(dead)

    if any(alive):
        raise InternalConsistencyError("greedy matching lost track of simplices")
    return GradientField._certified(x, up, down, lift)
