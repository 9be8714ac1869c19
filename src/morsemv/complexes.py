"""Finite abstract simplicial complexes with integer orientations.

Vertices are strings.  An oriented q-simplex is written [v_0, ..., v_q]; two
orderings of the same vertex set give the same simplex up to the sign of the
permutation relating them.  `Simplex` keeps a canonical representative:
vertices strictly increasing (plain string order) and an explicit sign in
{+1, -1}, with the parity of the sorting permutation folded into the sign.

The incidence number of a facet follows the usual convention: for
tau = [v_0, ..., v_q],

    <tau, tau minus v_i> = (-1)^i,

extended to oriented simplices by multiplying both signs, and zero whenever
sigma is not a facet of tau.  With this convention the simplicial boundary
satisfies boundary-of-boundary = 0 (see Hatcher, "Algebraic Topology", ch. 2).

A `SimplicialComplex` closes a finite generating family downward one facet
at a time into its facet table: each member's facets, themselves members, in
vertex-drop order, so facet k of a positive tau has <tau, facet k> = (-1)^k.
That table is the single source of facet order and boundary sign; every
layer reads it through `facets` and `cofacets`.

`PrismComplex` models Y x [0,1] over a base complex Y, triangulated the
standard way: each base simplex [x_{i_0}, ..., x_{i_q}] contributes the
maximal cells [a_{i_0}, ..., a_{i_r}, b_{i_r}, ..., b_{i_q}] for 0 <= r <= q,
where a_*/b_* are the bottom/top copies of the base vertices.  Every cell of
the prism sits over a unique base simplex (its "ground"), and the cells over
a fixed ground alpha split into two interleaving families indexed by the
position of the a->b changeover; both families are exposed by index.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from .errors import ComplexError

__all__ = [
    "Simplex",
    "SimplicialComplex",
    "ComplexCopy",
    "PrismComplex",
    "build_complex",
    "incidence",
    "union",
    "intersection",
    "copy_relabel",
    "prism",
]


def _sort_parity(values: tuple[str, ...]) -> tuple[tuple[str, ...], int]:
    """Sort `values`, returning (sorted tuple, parity sign of the permutation)."""
    decorated = sorted(range(len(values)), key=lambda i: values[i])
    # Count inversions of the permutation taking input order to sorted order.
    inversions = 0
    for i in range(len(decorated)):
        for j in range(i + 1, len(decorated)):
            if decorated[i] > decorated[j]:
                inversions += 1
    return tuple(values[i] for i in decorated), (-1) ** inversions


class Simplex:
    """An oriented simplex over string vertex names.

    >>> Simplex("v0 v1")
    Simplex('v0 v1')
    >>> Simplex(["v1", "v0"])          # odd permutation folds into the sign
    -Simplex('v0 v1')
    >>> Simplex("v0 v1").dim
    1
    >>> abs(-Simplex("v0 v1")) == Simplex("v0 v1")
    True
    """

    __slots__ = ("vertices", "sign")

    def __init__(self, vertices: Iterable[str] | str, sign: int = 1):
        if isinstance(vertices, str):
            vertices = vertices.split()
        vs = tuple(vertices)
        if not vs:
            raise ComplexError("a simplex needs at least one vertex")
        for v in vs:
            if not isinstance(v, str) or not v:
                raise ComplexError(f"vertex names must be nonempty strings, got {v!r}")
        if len(set(vs)) != len(vs):
            raise ComplexError(f"repeated vertex in simplex {vs!r}")
        if sign not in (1, -1):
            raise ComplexError(f"orientation sign must be +1 or -1, got {sign!r}")
        ordered, parity = _sort_parity(vs)
        self.vertices: tuple[str, ...] = ordered
        self.sign: int = sign * parity

    # -- basic protocol ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def key(self) -> tuple[int, tuple[str, ...]]:
        """Sort key: dimension first, then vertex tuple.  Ignores orientation."""
        return (len(self.vertices), self.vertices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Simplex)
            and self.vertices == other.vertices
            and self.sign == other.sign
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.sign))

    def __lt__(self, other: "Simplex") -> bool:
        return (self.key, self.sign) < (other.key, other.sign)

    def __neg__(self) -> "Simplex":
        return Simplex(self.vertices, -self.sign)

    def __abs__(self) -> "Simplex":
        """The positively oriented simplex on the same vertices."""
        return self if self.sign == 1 else Simplex(self.vertices, 1)

    def __repr__(self) -> str:
        body = f"Simplex({' '.join(self.vertices)!r})"
        return body if self.sign == 1 else "-" + body

    def __str__(self) -> str:
        body = "[" + " ".join(self.vertices) + "]"
        return body if self.sign == 1 else "-" + body

    # -- combinatorics -----------------------------------------------------

    def facets(self) -> tuple["Simplex", ...]:
        """The positively oriented codimension-1 faces in vertex-drop order:
        the k-th drops the k-th vertex."""
        if self.dim == 0:
            return ()
        vs = self.vertices
        return tuple(_canonical(vs[:i] + vs[i + 1 :]) for i in range(len(vs)))

    def is_face_of(self, other: "Simplex") -> bool:
        return set(self.vertices) <= set(other.vertices)

    def relabel(self, mapping: Mapping[str, str]) -> "Simplex":
        return Simplex((mapping[v] for v in self.vertices), self.sign)


def _canonical(vertices: tuple[str, ...]) -> Simplex:
    """The positive simplex on valid, increasing vertices, built unchecked."""
    s = object.__new__(Simplex)
    s.vertices, s.sign = vertices, 1
    return s


def incidence(tau: Simplex, sigma: Simplex) -> int:
    """The incidence number <tau, sigma> in {+1, -1, 0}.

    >>> incidence(Simplex("v0 v1"), Simplex("v1"))
    1
    >>> incidence(Simplex("v0 v1"), Simplex("v0"))
    -1
    >>> incidence(Simplex("v0 v1 v2"), Simplex("v0 v2"))
    -1
    >>> incidence(Simplex("v0 v1"), Simplex("v2"))
    0
    """
    if tau.dim != sigma.dim + 1:
        return 0
    sub = set(sigma.vertices)
    if not sub <= set(tau.vertices):
        return 0
    (extra,) = (v for v in tau.vertices if v not in sub)
    i = tau.vertices.index(extra)
    return tau.sign * sigma.sign * (-1) ** i


class SimplicialComplex:
    """The downward closure of a finite nonempty family of simplices.

    Simplices are stored positively oriented.  Iteration and all tuple-valued
    accessors are sorted by (dimension, vertex tuple), so the complex imposes
    a single canonical ordering that everything downstream (boundary
    matrices, generator lists, reports) inherits.
    """

    def __init__(self, generators: Iterable[Simplex | str]):
        gens = [g if isinstance(g, Simplex) else Simplex(g) for g in generators]
        if not gens:
            raise ComplexError("a simplicial complex needs at least one simplex")
        # Close downward one facet at a time.  A facet is looked up by its
        # vertex tuple and added when new, so each simplex is stored once and
        # every stored facet is the member object itself.
        member: dict[tuple[str, ...], Simplex] = {}
        for g in gens:
            member.setdefault(g.vertices, abs(g))
        pending = list(member.values())
        facets: dict[tuple[str, ...], tuple[Simplex, ...]] = {}
        while pending:
            s = pending.pop()
            own = []
            for f in s.facets():
                m = member.get(f.vertices)
                if m is None:
                    member[f.vertices] = m = f
                    pending.append(f)
                own.append(m)
            facets[s.vertices] = tuple(own)
        self._facets = facets

        by_dim: dict[int, list[Simplex]] = {}
        for s in member.values():
            by_dim.setdefault(s.dim, []).append(s)
        self._by_dim: dict[int, tuple[Simplex, ...]] = {
            q: tuple(sorted(ss, key=lambda s: s.key)) for q, ss in sorted(by_dim.items())
        }
        cof: dict[tuple[str, ...], list[Simplex]] = {vs: [] for vs in facets}
        for vs, own in facets.items():
            for f in own:
                cof[f.vertices].append(member[vs])
        self._cofacets: dict[tuple[str, ...], tuple[Simplex, ...]] = {
            vs: tuple(sorted(cs, key=lambda t: t.key)) for vs, cs in cof.items()
        }
        self.maximal_simplices: tuple[Simplex, ...] = tuple(
            sorted(
                (s for s in member.values() if not self._cofacets[s.vertices]),
                key=lambda s: s.key,
            )
        )

    # -- queries -----------------------------------------------------------

    @property
    def dim(self) -> int:
        return max(self._by_dim)

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(s.vertices[0] for s in self._by_dim[0])

    def simplices(self, q: int | None = None) -> tuple[Simplex, ...]:
        """All simplices of dimension q (empty tuple if none), or every
        simplex in ascending (dimension, vertex) order when q is None."""
        if q is not None:
            return self._by_dim.get(q, ())
        return tuple(
            itertools.chain.from_iterable(self._by_dim[d] for d in sorted(self._by_dim))
        )

    def __iter__(self) -> Iterator[Simplex]:
        return iter(self.simplices())

    def __len__(self) -> int:
        return len(self._facets)

    def __contains__(self, s) -> bool:
        if isinstance(s, Simplex):
            return s.vertices in self._facets
        if isinstance(s, str):
            return tuple(sorted(s.split())) in self._facets
        return tuple(sorted(s)) in self._facets

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self._facets.keys() == other._facets.keys()

    def __repr__(self) -> str:
        return f"<SimplicialComplex dim {self.dim}, f-vector {self.f_vector()}>"

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self._by_dim.get(q, ())) for q in range(self.dim + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** q * n for q, n in enumerate(self.f_vector()))

    def facets(self, s: Simplex) -> tuple[Simplex, ...]:
        """The facets of a member simplex, as members, in vertex-drop order:
        the k-th drops the k-th vertex and has incidence (-1)^k with s."""
        try:
            return self._facets[s.vertices]
        except KeyError:
            raise ComplexError(f"{s} is not in the complex") from None

    def cofacets(self, s: Simplex) -> tuple[Simplex, ...]:
        """Members having s as a facet."""
        try:
            return self._cofacets[s.vertices]
        except KeyError:
            raise ComplexError(f"{s} is not in the complex") from None

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self._facets.keys() <= other._facets.keys()


def build_complex(maximal_simplices: Iterable[Simplex | str]) -> SimplicialComplex:
    """Close a generating family of simplices into a simplicial complex."""
    return SimplicialComplex(maximal_simplices)


def union(*complexes: SimplicialComplex) -> SimplicialComplex:
    return SimplicialComplex(
        itertools.chain.from_iterable(c.maximal_simplices for c in complexes)
    )


def intersection(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """The subcomplex of simplices common to x and y.

    Raises ComplexError when the two complexes share nothing (an empty
    complex is not representable); callers that must allow disjoint pieces
    test for overlap first.
    """
    common = [s for s in x.simplices() if s in y]
    if not common:
        raise ComplexError("the complexes share no simplices")
    return SimplicialComplex(common)


class ComplexCopy:
    """A relabelled copy of a complex, remembering the vertex bijection.

    `push` carries simplices from the source into the copy, `pull` goes back.
    Both preserve orientation: the canonical renamings used throughout the
    package are order-preserving, so incidence numbers agree across the
    bijection (asserted where it matters, in `PrismComplex`).
    """

    def __init__(self, source: SimplicialComplex, to_copy: Mapping[str, str]):
        values = list(to_copy.values())
        if len(set(values)) != len(values):
            raise ComplexError("vertex relabelling is not injective")
        self.to_copy = dict(to_copy)
        self.from_copy = {w: v for v, w in self.to_copy.items()}
        self.complex = SimplicialComplex(
            s.relabel(self.to_copy) for s in source.maximal_simplices
        )

    def push(self, s: Simplex) -> Simplex:
        return s.relabel(self.to_copy)

    def pull(self, s: Simplex) -> Simplex:
        return s.relabel(self.from_copy)


def copy_relabel(y: SimplicialComplex, tag: str) -> ComplexCopy:
    """A disjoint copy of y with every vertex v renamed to tag + v.

    Prefixing with a fixed tag preserves the relative order of vertex names,
    so the copy's canonical orientations match the source's.
    """
    if not tag:
        raise ComplexError("relabelling tag must be nonempty")
    return ComplexCopy(y, {v: tag + v for v in y.vertices})


class PrismComplex:
    """The triangulated prism over a base complex.

    For a base simplex alpha = [x_0, ..., x_q] (vertices in canonical order)
    the cells of the prism lying over alpha form the block S_alpha, which is
    the disjoint union of two families:

      a_member(alpha, r) = [a(x_0), ..., a(x_r), b(x_r), ..., b(x_q)]
          for 0 <= r <= q   (the two copies of x_r both present),
      b_member(alpha, r) = [a(x_0), ..., a(x_{r-1}), b(x_r), ..., b(x_q)]
          for 0 <= r <= q+1 (disjoint prefix/suffix; r = 0 is the pure top
          copy of alpha, r = q+1 the pure bottom copy).

    Construction enumerates every block once and checks that the blocks
    partition the cells; `a_member`, `b_member` and the ground map read the
    stored blocks.
    """

    def __init__(
        self,
        base: SimplicialComplex,
        a_name: Mapping[str, str],
        b_name: Mapping[str, str],
    ):
        base_order = base.vertices
        for m, side in ((a_name, "bottom"), (b_name, "top")):
            if set(m) != set(base_order):
                raise ComplexError(f"{side} relabelling must cover exactly the base vertices")
            if len(set(m.values())) != len(base_order):
                raise ComplexError(f"{side} relabelling is not injective")
            renamed = [m[v] for v in base_order]
            if renamed != sorted(renamed):
                raise ComplexError(
                    f"{side} relabelling must preserve the base vertex order"
                )
        if set(a_name.values()) & set(b_name.values()):
            raise ComplexError("bottom and top vertex names must be disjoint")
        if not max(a_name.values()) < min(b_name.values()):
            # Canonical (sorted) orientation of a mixed cell must list the
            # bottom vertices first; the boundary-matrix identities checked
            # downstream rely on it.
            raise ComplexError("every bottom vertex name must sort before every top one")

        self.base = base
        self.a_name = dict(a_name)
        self.b_name = dict(b_name)
        self._a_names = frozenset(self.a_name.values())

        blocks = {alpha: self._block(alpha) for alpha in base.simplices()}
        self.complex = SimplicialComplex(
            _canonical(cell) for alpha in base.maximal_simplices for cell in blocks[alpha][0]
        )

        # The blocks must partition the cells: each block cell lies in the
        # prism and in no other block, and no cell is left over.  Each block
        # keeps the prism's member objects for `a_member` and `b_member`.
        members = {s.vertices: s for s in self.complex.simplices()}
        self._ground: dict[tuple[str, ...], Simplex] = {}
        self._blocks: dict[tuple[str, ...], tuple[tuple[Simplex, ...], ...]] = {}
        for alpha, (a_cells, b_cells) in blocks.items():
            cells = []
            for vs in a_cells + b_cells:
                cell = members.pop(vs, None)
                if cell is None:
                    raise ComplexError(f"the blocks over {alpha} do not partition the prism")
                self._ground[vs] = alpha
                cells.append(cell)
            n = len(a_cells)
            self._blocks[alpha.vertices] = (tuple(cells[:n]), tuple(cells[n:]))
        if members:
            raise ComplexError("the blocks do not cover the prism")

    def _block(self, alpha: Simplex) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]]]:
        """The vertex tuples of a_member(alpha, r) for 0 <= r <= q and of
        b_member(alpha, r) for 0 <= r <= q+1.  Both are sorted, since the
        renamings preserve order and bottom names sort before top ones."""
        a = [self.a_name[v] for v in alpha.vertices]
        b = [self.b_name[v] for v in alpha.vertices]
        return (
            [(*a[: r + 1], *b[r:]) for r in range(len(a))],
            [(*a[:r], *b[r:]) for r in range(len(a) + 1)],
        )

    def ground_simplex(self, cell: Simplex) -> Simplex:
        """The base simplex a prism cell lies over."""
        try:
            return self._ground[cell.vertices]
        except KeyError:
            raise ComplexError(f"{cell} is not a cell of the prism") from None

    def a_member(self, alpha: Simplex, r: int) -> Simplex:
        """The cell over alpha whose a-part and b-part share index r."""
        cells = self._block_of(alpha)[0]
        if not 0 <= r < len(cells):
            raise ComplexError(f"a_member index {r} out of range for {alpha}")
        return cells[r]

    def b_member(self, alpha: Simplex, r: int) -> Simplex:
        """The cell over alpha with a-part {x_0..x_{r-1}} and b-part {x_r..x_q}."""
        cells = self._block_of(alpha)[1]
        if not 0 <= r < len(cells):
            raise ComplexError(f"b_member index {r} out of range for {alpha}")
        return cells[r]

    def _block_of(self, alpha: Simplex) -> tuple[tuple[Simplex, ...], ...]:
        try:
            return self._blocks[alpha.vertices]
        except KeyError:
            raise ComplexError(f"{alpha} is not a simplex of the base") from None

    def is_pure_a(self, cell: Simplex) -> bool:
        return all(v in self._a_names for v in cell.vertices)

    def is_pure_b(self, cell: Simplex) -> bool:
        return all(v not in self._a_names for v in cell.vertices)

    def interior_cells(self) -> frozenset[Simplex]:
        """Cells using both a bottom and a top vertex (neither pure copy)."""
        return frozenset(
            s
            for s in self.complex.simplices()
            if not self.is_pure_a(s) and not self.is_pure_b(s)
        )


def prism(
    y: SimplicialComplex,
    a_name: Mapping[str, str] | None = None,
    b_name: Mapping[str, str] | None = None,
) -> PrismComplex:
    """The prism over y.  Default vertex names are 'Pa:'/'Pb:' prefixes;
    explicit maps let a caller glue the prism onto existing complexes by
    name (they must be order-preserving, with every bottom name sorting
    before every top name)."""
    if a_name is None:
        a_name = {v: "Pa:" + v for v in y.vertices}
    if b_name is None:
        b_name = {v: "Pb:" + v for v in y.vertices}
    return PrismComplex(y, a_name, b_name)
