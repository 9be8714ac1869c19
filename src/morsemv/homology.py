"""Integer chain complexes, Smith normal form, and simplicial homology.

All arithmetic is exact, over Python's arbitrary-precision integers.  A
boundary is stored as sparse columns, one per generator of its domain, each
a dict from row index to nonzero coefficient; `smith_normal_form` takes a
dense matrix, a list of rows of ints.  For a chain complex with boundary
maps d_q : C_q -> C_{q-1} satisfying d o d = 0,

    H_q = Z^{b_q}  +  Z/t_1 + ... + Z/t_m,

where b_q = rank C_q - rank d_q - rank d_{q+1} and the torsion coefficients
t_i are the invariant factors of d_{q+1} exceeding 1.  (See Hatcher,
"Algebraic Topology", section 2.1, or any treatment of finitely generated
abelian groups.)

Ranks and invariant factors come from sparse elimination that removes the
+-1 pivots first, after Dumas, Saunders & Villard, "On efficient sparse
integer matrix Smith normal form computations" (J. Symb. Comput. 2001);
the dense `smith_normal_form` then runs only on the small residual block.

`homology` eliminates the boundaries from the top degree down and clears,
after Chen & Kerber, "Persistent homology computation with a twist" (2011),
and Bauer, Kerber & Reininghaus, "Clear and compress" (2014): the columns of
d_q at the rows of the unit pivots of d_{q+1} are skipped.  This holds over
Z.  Let the unit pivots of d_{q+1} lie in rows i_1, ..., i_u of C_q, in the
order they were eliminated.  The column that eliminated i_k is an integer
combination of columns of d_{q+1}, so it is a boundary and hence a cycle
z_k; it has +-1 in row i_k and 0 in rows i_1, ..., i_{k-1}, which earlier
eliminations cleared.  So d_q(z_k) = 0 writes column i_k of d_q, with unit
coefficient, as an integer combination of the columns of d_q at later pivot
rows and at rows that are no pivot.  Back substitution from i_u down makes
every skipped column an integer combination of the kept ones: the image
lattice, and with it the rank and the invariant factors of d_q, does not
change.  Only unit-pivot rows may be cleared: a pivot of the dense residual
block need not be a unit, and then its cycle does not give its column as an
integer combination of the others.  In d_1 = (3 -2), d_2 = (2 3)^T, clearing
either row of d_2 would leave H_0 = Z/2 or Z/3 where it is 0.
"""
from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .complexes import SimplicialComplex
from .errors import InternalConsistencyError

__all__ = [
    "smith_normal_form",
    "IntegerChainComplex",
    "HomologyResult",
    "homology",
    "simplicial_chain_complex",
    "simplicial_homology",
]

Matrix = list[list[int]]
Column = dict[int, int]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """Invariant factors and rank of an integer matrix.

    Returns (d_1, ..., d_r) with d_1 | d_2 | ... | d_r, all positive, and
    the rank r.  The input is not modified.

    >>> smith_normal_form([[2]])
    ((2,), 1)
    >>> smith_normal_form([[0, 0], [0, 0]])
    ((), 0)
    >>> smith_normal_form([[2, 4], [6, 10]])
    ((2, 2), 2)
    >>> smith_normal_form([[2, 0], [0, 3]])
    ((1, 6), 2)
    """
    a = [[int(v) for v in row] for row in matrix]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    factors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        # Choose the pivot: a minimal-magnitude nonzero entry of the
        # untouched block.  Small pivots keep the Euclidean steps short
        # and the intermediate entries from exploding.
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]

        # Euclidean reduction of row/column t.  If any remainder survives,
        # it is strictly smaller than the pivot; loop and re-pick.
        d = a[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t]:
                q = a[i][t] // d
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                dirty = dirty or a[i][t] != 0
        for j in range(t + 1, ncols):
            if a[t][j]:
                q = a[t][j] // d
                for row in a:
                    row[j] -= q * row[t]
                dirty = dirty or a[t][j] != 0
        if dirty:
            continue
        # Enforce the divisibility chain: the pivot must divide every entry
        # of the remaining block.  Folding an offending row into row t
        # leaves a remainder on the next pass, shrinking the pivot.
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        factors.append(abs(d))
        t += 1
    return tuple(factors), len(factors)


def _dense(columns: Sequence[Column], nrows: int) -> Matrix:
    """The rows of the matrix with `nrows` rows and the given columns."""
    rows = [[0] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def _eliminate(
    columns: Sequence[Column], nrows: int
) -> tuple[tuple[int, ...], int, set[int]]:
    """The invariant factors and rank of the matrix with `nrows` rows and
    the given columns, which `smith_normal_form` gives on its rows, and the
    rows of its unit pivots.  The input is not modified.

    A unit pivot a_ij = +-1 is eliminated by column operations: every other
    column k with a nonzero a_ik becomes col_k - a_ik * a_ij * col_j, which
    clears row i.  Row i and column j then leave the matrix with an invariant
    factor 1.  One elimination adds at most (row weight - 1) * (column
    weight - 1) entries, so the pivot comes from a column of least weight,
    and in it from the lightest row.  Columns wait in a heap keyed by
    weight and are pushed again when an elimination changes them, so no
    pivot search rescans the matrix.  When no column holds a unit, the
    residual block goes to `smith_normal_form`; its rows are not among the
    returned pivot rows.
    """
    cols = [dict(col) for col in columns]
    rows: list[set[int]] = [set() for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    pivots: set[int] = set()
    while heap:
        weight, j = heapq.heappop(heap)
        col = cols[j]
        if weight != len(col):
            continue  # stale: the column changed or left since this push
        pivot = None
        for i, v in col.items():
            if (v == 1 or v == -1) and (pivot is None or len(rows[i]) < len(rows[pivot])):
                pivot = i
        if pivot is None:
            continue
        p = col[pivot]
        for k in rows[pivot] - {j}:
            other = cols[k]
            f = other[pivot] * p
            for i, v in col.items():
                w = other.get(i, 0) - f * v
                if w:
                    if i not in other:
                        rows[i].add(k)
                    other[i] = w
                else:
                    del other[i]
                    rows[i].discard(k)
            if other:
                heapq.heappush(heap, (len(other), k))
        for i in col:
            rows[i].discard(j)
        cols[j] = {}
        pivots.add(pivot)
    live = {i: n for n, i in enumerate(i for i, r in enumerate(rows) if r)}
    residual = [{live[i]: v for i, v in col.items()} for col in cols if col]
    factors, rank = smith_normal_form(_dense(residual, len(live)))
    units = len(pivots)
    return (1,) * units + factors, units + rank, pivots


def _checked_ranks(ranks: Sequence[int], nboundaries: int) -> tuple[int, ...]:
    ranks = tuple(int(r) for r in ranks)
    if not ranks or any(r < 0 for r in ranks):
        raise InternalConsistencyError("chain complex needs nonnegative ranks")
    if nboundaries != len(ranks) - 1:
        raise InternalConsistencyError(
            f"expected {len(ranks) - 1} boundary matrices, got {nboundaries}"
        )
    return ranks


class IntegerChainComplex:
    """A finitely generated chain complex of free abelian groups.

    ranks[q] is the rank of C_q.  For 1 <= q <= top, d_q : C_q -> C_{q-1}
    is stored as columns[q-1]: one sparse column per generator of C_q,
    mapping row indices below ranks[q-1] to nonzero coefficients.  The
    constructor takes each d_q as a dense matrix (ranks[q-1] rows, ranks[q]
    columns); `from_columns` takes the sparse columns themselves.  Both check
    shapes and that consecutive boundaries compose to zero, raising
    InternalConsistencyError otherwise.  Optional labels name the
    generators per degree.
    """

    def __init__(
        self,
        ranks: Sequence[int],
        boundaries: Sequence[Sequence[Sequence[int]]],
        labels: Sequence[Sequence[object]] | None = None,
    ):
        ranks = _checked_ranks(ranks, len(boundaries))
        columns = []
        for q, m in enumerate(boundaries, start=1):
            want = (ranks[q - 1], ranks[q])
            got = (len(m), len(m[0]) if m else 0)
            # A matrix with zero rows carries no column count; accept it.
            if got[0] != want[0] or any(len(row) != want[1] for row in m):
                raise InternalConsistencyError(
                    f"boundary d_{q} has shape {got}, expected {want}"
                )
            cols: list[Column] = [{} for _ in range(want[1])]
            for i, row in enumerate(m):
                for j, v in enumerate(row):
                    if v:
                        cols[j][i] = int(v)
            columns.append(cols)
        self._setup(ranks, columns, labels)

    @classmethod
    def from_columns(
        cls,
        ranks: Sequence[int],
        columns: Sequence[list[Column]],
        labels: Sequence[Sequence[object]] | None = None,
    ) -> "IntegerChainComplex":
        """The chain complex whose d_q has the sparse columns columns[q-1];
        the columns are kept, not copied."""
        c = cls.__new__(cls)
        ranks = _checked_ranks(ranks, len(columns))
        for q, cols in enumerate(columns, start=1):
            nrows = ranks[q - 1]
            if len(cols) != ranks[q] or any(
                not 0 <= i < nrows or not v for col in cols for i, v in col.items()
            ):
                raise InternalConsistencyError(
                    f"boundary d_{q} does not fit the shape {(nrows, ranks[q])}"
                )
        c._setup(ranks, list(columns), labels)
        return c

    def _setup(self, ranks, columns, labels) -> None:
        self.ranks = ranks
        self.columns = columns
        if labels is not None:
            labels = [tuple(ls) for ls in labels]
            if len(labels) != len(self.ranks) or any(
                len(ls) != r for ls, r in zip(labels, self.ranks)
            ):
                raise InternalConsistencyError("labels do not match ranks")
        self.labels = labels

        for q in range(2, self.top + 1):
            lower = columns[q - 2]
            for col in columns[q - 1]:
                image: Column = {}
                for k, v in col.items():
                    for i, u in lower[k].items():
                        image[i] = image.get(i, 0) + v * u
                if any(image.values()):
                    raise InternalConsistencyError(
                        f"boundary does not square to zero in degree {q}"
                    )

    @property
    def top(self) -> int:
        return len(self.ranks) - 1

    @property
    def boundaries(self) -> list[Matrix]:
        """The matrices of d_1, ..., d_top, as dense views."""
        return [
            _dense(cols, self.ranks[q - 1]) for q, cols in enumerate(self.columns, start=1)
        ]


class HomologyResult:
    """Homology groups, one (betti, torsion coefficients) pair per degree.

    Equality ignores trailing trivial degrees, so the homology of a
    3-sphere computed up to degree 5 equals the same groups listed up to
    degree 3.

    >>> HomologyResult([(1, ()), (0, ())]) == HomologyResult([(1, ())])
    True
    >>> print(HomologyResult([(1, ()), (1, (2,))]))
    H_0 = Z, H_1 = Z + Z/2
    """

    def __init__(self, groups: Iterable[tuple[int, tuple[int, ...]]]):
        self.groups = tuple((int(b), tuple(int(t) for t in ts)) for b, ts in groups)
        if any(b < 0 for b, _ in self.groups):
            raise InternalConsistencyError("negative betti number")

    def betti(self, q: int) -> int:
        return self.groups[q][0] if 0 <= q < len(self.groups) else 0

    def torsion(self, q: int) -> tuple[int, ...]:
        return self.groups[q][1] if 0 <= q < len(self.groups) else ()

    def __getitem__(self, q: int) -> tuple[int, tuple[int, ...]]:
        return (self.betti(q), self.torsion(q))

    def __len__(self) -> int:
        return len(self.groups)

    def _stripped(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        gs = list(self.groups)
        while gs and gs[-1] == (0, ()):
            gs.pop()
        return tuple(gs)

    def __eq__(self, other) -> bool:
        return isinstance(other, HomologyResult) and self._stripped() == other._stripped()

    def __hash__(self) -> int:
        return hash(self._stripped())

    @staticmethod
    def group_name(betti: int, torsion: tuple[int, ...]) -> str:
        parts = []
        if betti == 1:
            parts.append("Z")
        elif betti > 1:
            parts.append(f"Z^{betti}")
        parts.extend(f"Z/{t}" for t in torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return ", ".join(
            f"H_{q} = {self.group_name(b, ts)}" for q, (b, ts) in enumerate(self.groups)
        )

    def __repr__(self) -> str:
        return f"HomologyResult({list(self.groups)!r})"


def homology(c: IntegerChainComplex) -> HomologyResult:
    """Homology of an integer chain complex.

    The boundaries are eliminated from the top degree down, and the columns
    of d_q at the unit-pivot rows of d_{q+1} are cleared: never handed to
    the elimination.  Their image is spanned by the other columns (see the
    module docstring), so the rank and invariant factors of d_q are those of
    the columns that are kept.
    """
    snf = [((), 0)] * (c.top + 2)
    cleared: set[int] = set()
    for q in range(c.top, 0, -1):
        kept = [col for j, col in enumerate(c.columns[q - 1]) if j not in cleared]
        factors, rank, cleared = _eliminate(kept, c.ranks[q - 1])
        snf[q] = (factors, rank)
    groups = []
    for q in range(0, c.top + 1):
        betti = c.ranks[q] - snf[q][1] - snf[q + 1][1]
        torsion = tuple(f for f in snf[q + 1][0] if f > 1)
        groups.append((betti, torsion))
    return HomologyResult(groups)


def _simplicial_chains(x: SimplicialComplex, labels=None) -> IntegerChainComplex:
    """The simplicial chain complex of x, its generators the ids of x in
    canonical order, labelled with `labels` (unlabelled when None).  The
    column of a q-simplex t holds (-1)^k at the row of `x.facets(t)[k]`,
    read from the facet id table: a facet's row is its position among the
    (q-1)-simplices of x, which for a complex closed from generators is its
    id minus the first id of degree q-1.  Those rows are in range and the
    entries nonzero by construction, so the complex is set up without the
    shape check of `from_columns`; `_setup` still checks d∘d = 0."""
    facets = x._table.facets
    row = [0] * len(facets)
    for ids in x._ids:
        for k, i in enumerate(ids):
            row[i] = k
    signs = (1, -1) * (len(x._ids) // 2 + 1)
    columns = [
        [dict(zip(map(row.__getitem__, facets[t]), signs)) for t in ids]
        for ids in x._ids[1:]
    ]
    chains = IntegerChainComplex.__new__(IntegerChainComplex)
    chains._setup(tuple(map(len, x._ids)), columns, labels)
    return chains


def simplicial_chain_complex(x: SimplicialComplex) -> IntegerChainComplex:
    """The simplicial chain complex of x, generators labelled by the
    simplices of x in canonical order; `simplicial_homology` and `verify`
    build the same complex on ids, without naming a simplex."""
    return _simplicial_chains(x, [x.simplices(q) for q in range(x.dim + 1)])


def simplicial_homology(x: SimplicialComplex) -> HomologyResult:
    """Integer simplicial homology, computed directly from the full
    simplicial chain complex (no Morse-theoretic reduction involved)."""
    return homology(_simplicial_chains(x))
