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

Acyclicity is decided per dimension on the digraph whose arcs tau -> tau'
run along legal trajectory steps, by an iterative three-colour depth-first
search; a failure is reported with an explicit closed trajectory.
"""
from __future__ import annotations

import heapq
import itertools
import random
from typing import Iterable, Iterator

from .complexes import Simplex, SimplicialComplex, incidence
from .errors import FieldError, InternalConsistencyError, NotAcyclicError
from .homology import Column, IntegerChainComplex

__all__ = [
    "DEFAULT_SEED",
    "VectorField",
    "GradientField",
    "Trajectory",
    "is_acyclic",
    "trajectories_from",
    "trajectory_weight",
    "validate_trajectory",
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

    @property
    def support(self) -> frozenset[Simplex]:
        return frozenset(self._up) | frozenset(self._down)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[Simplex, Simplex]]:
        return iter(self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorField) and set(self.pairs) == set(other.pairs)

    def __repr__(self) -> str:
        return f"<VectorField with {len(self.pairs)} pairs>"


def _check_membership(v: VectorField, x: SimplicialComplex) -> None:
    for s in v.support:
        if s not in x:
            raise FieldError(f"field references {s}, which is not in the complex")


def is_acyclic(v: VectorField, x: SimplicialComplex) -> bool:
    """Whether v is a gradient field on x."""
    return _closed_trajectory(v, x) is None


def _closed_trajectory(v: VectorField, x: SimplicialComplex) -> tuple[Simplex, ...] | None:
    """A closed trajectory (tau_0, sigma_1, ..., sigma_k, tau_k) of v on x
    with tau_k == tau_0, or None when v is a gradient field on x.

    Runs one three-colour DFS per dimension over the arcs tau -> up(sigma)
    for sigma a facet of tau other than down(tau); a grey-on-grey arc closes
    a trajectory, which is reconstructed from the DFS stack.
    """
    _check_membership(v, x)

    def arcs(tau: Simplex):
        return ((sigma, nxt) for sigma, nxt in _steps(v, x, tau) if nxt is not None)

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


class GradientField:
    """A vector field together with its complex and an acyclicity
    certificate.  The only way to obtain one is `GradientField.certify`
    (used by `greedy_gvf` too), so holding a GradientField is holding the
    proof that trajectory enumeration terminates.  Certification also lists
    the critical simplices of each degree, once; `critical` reads that list."""

    _TOKEN = object()

    def __init__(self, field: VectorField, complex: SimplicialComplex, _token=None):
        if _token is not GradientField._TOKEN:
            raise FieldError("use GradientField.certify(field, complex)")
        self.field = field
        self.complex = complex
        self._critical = tuple(
            tuple(s for s in complex.simplices(q) if not field.is_matched(s))
            for q in range(complex.dim + 1)
        )

    @classmethod
    def certify(cls, field: VectorField, complex: SimplicialComplex) -> "GradientField":
        witness = _closed_trajectory(field, complex)
        if witness is not None:
            raise NotAcyclicError(f"closed trajectory through {witness[0]}", witness)
        return cls(field, complex, _token=cls._TOKEN)

    @property
    def pairs(self) -> tuple[tuple[Simplex, Simplex], ...]:
        return self.field.pairs

    def critical(self, q: int | None = None) -> tuple[Simplex, ...]:
        """The unmatched simplices of dimension q (empty tuple if none), or
        every one by ascending dimension when q is None; each degree in
        canonical order."""
        if q is None:
            return tuple(itertools.chain.from_iterable(self._critical))
        return self._critical[q] if 0 <= q < len(self._critical) else ()

    def __repr__(self) -> str:
        return f"<GradientField with {len(self.field)} pairs on {self.complex!r}>"


class Trajectory:
    """An extended trajectory, stored as the alternating sequence
    (tau_0, sigma_1, tau_1, ..., tau_k, sigma_{k+1})."""

    __slots__ = ("steps",)

    def __init__(self, steps: Iterable[Simplex]):
        self.steps = tuple(steps)
        if len(self.steps) < 2 or len(self.steps) % 2:
            raise FieldError("an extended trajectory alternates tau, sigma, ..., sigma")

    @property
    def weight(self) -> int:
        return trajectory_weight(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, Trajectory) and self.steps == other.steps

    def __hash__(self) -> int:
        return hash(self.steps)

    def __repr__(self) -> str:
        return "Trajectory(" + ", ".join(str(s) for s in self.steps) + ")"


def trajectory_weight(t) -> int:
    """The sign of a trajectory: a Trajectory, or an MVTrajectory (any
    object whose `steps` is a simplex sequence).  One rule covers every
    route, read off the dimensions of consecutive steps x -> y:

    * a downward step contributes <x, y>;
    * an upward step contributes -<y, x>;
    * a same-dimension step (the transfer of cases 4/5) contributes nothing.

    An MVTrajectory then multiplies this by the sign of its case:

        case   1   2   3   4   5
        sign  +1  +1  -1  -1  +1

    For an extended trajectory the rule gives the weight w of the module
    docstring.
    """
    steps = t.steps
    w = 1
    for x, y in zip(steps, steps[1:]):
        dx, dy = len(x.vertices), len(y.vertices)
        if dx > dy:
            w *= incidence(x, y)
        elif dx < dy:
            w *= -incidence(y, x)
    return w


def validate_trajectory(gvf: GradientField, t: Trajectory) -> None:
    """Recheck every side condition of the trajectory definition against the
    raw field, raising InternalConsistencyError on the first violation.
    Deliberately independent of how the enumerator walks the complex."""
    v, x = gvf.field, gvf.complex
    steps = t.steps
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


def trajectories_from(gvf: GradientField, tau: Simplex) -> dict[Simplex, list[Trajectory]]:
    """All extended trajectories from the critical simplex tau that end at a
    critical simplex, grouped by terminal.  Depth-first, iteratively, in
    canonical facet order, so the output order is deterministic."""
    if not isinstance(gvf, GradientField):
        raise FieldError(
            "trajectory enumeration needs a certified gradient field; "
            "run GradientField.certify first"
        )
    v, x = gvf.field, gvf.complex
    tau = abs(tau)
    if v.is_matched(tau):
        raise FieldError(f"{tau} is not critical")
    if tau not in x:
        raise FieldError(f"{tau} is not in the complex")

    def step(seq):
        # a step continues to up(sigma) or, at a critical sigma, ends
        for sigma, nxt in _steps(v, x, seq[-1]):
            if nxt is not None:
                yield (sigma, nxt), False
            elif not v.is_matched(sigma):
                yield (sigma,), True

    out: dict[Simplex, list[Trajectory]] = {}
    for steps in _walk(tau, step):
        out.setdefault(steps[-1], []).append(Trajectory(steps))
    return out


def _steps(v: VectorField, x: SimplicialComplex, tau: Simplex):
    """Forman's step rule: `(sigma, v.up(sigma))` for every facet sigma of
    a positively oriented tau other than `v.down(tau)`, in vertex-drop order."""
    up, down = v._up.get, v._down.get(tau)
    for sigma in x.facets(tau):
        if sigma != down:
            yield sigma, up(sigma)


def _walk(start: Simplex, step) -> Iterator[tuple[Simplex, ...]]:
    """Every step sequence grown from `start`, depth-first.

    `step(seq)` yields `(extension, final)` pairs in order: a final
    extension completes a sequence, which is yielded; any other is appended
    and explored before the next pair is taken.  Whenever a step generator
    runs, `seq` holds the sequence it was created for.  The walk keeps an
    explicit stack, so a sequence may be arbitrarily long.
    """
    seq = [start]
    stack = [(step(seq), 0)]
    while stack:
        for ext, final in stack[-1][0]:
            if final:
                yield (*seq, *ext)
            else:
                seq += ext
                stack.append((step(seq), len(ext)))
                break
        else:
            _, grown = stack.pop()
            if grown:
                del seq[-grown:]


def _boundary_columns(rows, cols, paths_from) -> list[Column]:
    """The sparse columns of the matrix with rows and columns indexed by the
    given sequences whose (r, c) entry sums the weights of the trajectories
    `paths_from(c)[r]`; entries that sum to zero are left out."""
    index = {r: i for i, r in enumerate(rows)}
    columns = []
    for c in cols:
        col = {}
        for r, paths in paths_from(c).items():
            w = sum(t.weight for t in paths)
            if w:
                col[index[r]] = w
        columns.append(col)
    return columns


def _trajectory_complex(labels, paths_from) -> IntegerChainComplex:
    """The chain complex with generators `labels[q]` in degree q whose
    boundary columns come from `_boundary_columns`."""
    columns = [
        _boundary_columns(labels[q - 1], labels[q], paths_from) for q in range(1, len(labels))
    ]
    return IntegerChainComplex.from_columns([len(ls) for ls in labels], columns, labels)


def thom_smale_complex(gvf: GradientField) -> IntegerChainComplex:
    """The full Thom-Smale chain complex of (X, V); its homology equals the
    simplicial homology of X."""
    labels = [gvf.critical(q) for q in range(gvf.complex.dim + 1)]
    return _trajectory_complex(labels, lambda tau: trajectories_from(gvf, tau))


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

    >>> f = greedy_gvf(SimplicialComplex(["v0 v1"]))
    >>> f.pairs
    ((Simplex('v1'), Simplex('v0 v1')),)
    >>> f.critical()
    (Simplex('v0'),)
    """
    if strategy in ("lex", "lexicographic"):
        ordered = list(x.simplices())
    elif strategy == "random":
        rng = random.Random(DEFAULT_SEED if seed is None else seed)
        ordered = list(x.simplices())
        rng.shuffle(ordered)
    else:
        raise FieldError(f"unknown strategy {strategy!r}")
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
            kill(sigma)
            kill(tau)
        else:
            while criticals_heap:
                s = heapq.heappop(criticals_heap)[2]
                if s in alive:
                    critical.append(s)
                    kill(s)
                    break

    if 2 * len(pairs) + len(critical) != len(x):
        raise InternalConsistencyError("greedy matching lost track of simplices")
    return GradientField.certify(VectorField(pairs), x)
