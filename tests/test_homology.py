"""Smith normal form, chain complexes, and the simplicial homology oracle."""
from __future__ import annotations

import importlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsemv import (
    HomologyResult,
    IntegerChainComplex,
    InternalConsistencyError,
    build_complex,
    homology,
    simplicial_homology,
    smith_normal_form,
)
from morsemv.homology import _eliminate, simplicial_chain_complex
from conftest import (
    CORPUS_HOMOLOGY,
    corpus_complexes,
    expected_homology,
    random_small_complex,
    seven_vertex_torus,
)

homology_module = importlib.import_module("morsemv.homology")

entries = st.integers(min_value=-9, max_value=9)
matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda m: st.lists(
            st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
)


def det(m: list[list[int]]) -> int:
    """Cofactor-expansion determinant; the independent check for SNF."""
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(n)
    )


class TestSmithNormalForm:
    def test_frozen_values(self):
        assert smith_normal_form([[2]]) == ((2,), 1)
        assert smith_normal_form([[0, 0], [0, 0]]) == ((), 0)
        assert smith_normal_form([[2, 4], [6, 10]]) == ((2, 2), 2)
        assert smith_normal_form([[2, 0], [0, 3]]) == ((1, 6), 2)
        assert smith_normal_form([[1, 0], [0, 1]]) == ((1, 1), 2)
        assert smith_normal_form([[6, 4], [2, 8]]) == ((2, 20), 2)
        assert smith_normal_form([[1, 2, 3]]) == ((1,), 1)
        assert smith_normal_form([]) == ((), 0)
        assert smith_normal_form([[], []]) == ((), 0)

    def test_input_not_mutated(self):
        m = [[2, 4], [6, 10]]
        smith_normal_form(m)
        assert m == [[2, 4], [6, 10]]

    @given(matrices)
    def test_factors_positive_and_dividing(self, m):
        factors, rank = smith_normal_form(m)
        assert len(factors) == rank
        assert all(f > 0 for f in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))

    @given(matrices)
    def test_rank_bounded_by_shape(self, m):
        _, rank = smith_normal_form(m)
        assert 0 <= rank <= min(len(m), len(m[0]))

    @given(st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    ))
    def test_square_determinant_is_factor_product(self, m):
        d = det(m)
        factors, rank = smith_normal_form(m)
        if d != 0:
            assert rank == len(m)
            product = 1
            for f in factors:
                product *= f
            assert product == abs(d)
        else:
            assert rank < len(m)

    @given(matrices, st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3))
    def test_invariant_under_row_operation(self, m, i, j):
        i, j = i % len(m), j % len(m)
        if i == j:
            return
        modified = [list(row) for row in m]
        modified[i] = [a + b for a, b in zip(modified[i], modified[j])]
        assert smith_normal_form(modified) == smith_normal_form(m)


def columns_of(m: list[list[int]], ncols: int) -> list[dict[int, int]]:
    return [{i: row[j] for i, row in enumerate(m) if row[j]} for j in range(ncols)]


@st.composite
def sparse_cases(draw):
    """(rows, column count) of a matrix up to 8 x 8, empty shapes included:
    entries in -4..4, or a product through an inner dimension of at most 3
    so that elimination leaves a non-trivial residual; some rows and
    columns zeroed."""
    nrows = draw(st.integers(min_value=0, max_value=8))
    ncols = draw(st.integers(min_value=0, max_value=8))

    def block(n, m):
        small = st.integers(min_value=-4, max_value=4)
        return draw(st.lists(st.lists(small, min_size=m, max_size=m), min_size=n, max_size=n))

    if draw(st.booleans()):
        inner = draw(st.integers(min_value=0, max_value=3))
        a, b = block(nrows, inner), block(inner, ncols)
        m = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(ncols)]
             for i in range(nrows)]
    else:
        m = block(nrows, ncols)
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=7)))
    zero_cols = draw(st.sets(st.integers(min_value=0, max_value=7)))
    m = [[0 if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
         for i, row in enumerate(m)]
    return m, ncols


class TestSparseElimination:
    @given(sparse_cases())
    def test_matches_dense_smith_normal_form(self, case):
        m, ncols = case
        cols = columns_of(m, ncols)
        before = [dict(c) for c in cols]
        assert _eliminate(cols, len(m))[:2] == smith_normal_form(m)
        assert cols == before

    def test_residual_carries_the_torsion(self):
        assert _eliminate(columns_of([[2, 4], [6, 10]], 2), 2)[:2] == ((2, 2), 2)
        assert _eliminate(columns_of([[1, 2], [3, 4]], 2), 2)[:2] == ((1, 2), 2)
        assert _eliminate([{}, {}], 3)[:2] == ((), 0)
        assert _eliminate([], 0)[:2] == ((), 0)


def dense_homology(c: IntegerChainComplex) -> tuple:
    """The groups of c from dense `smith_normal_form` on every boundary:
    the computation that sparse elimination replaced."""
    snf = [((), 0), *(smith_normal_form(m) for m in c.boundaries), ((), 0)]
    return tuple(
        (c.ranks[q] - snf[q][1] - snf[q + 1][1], tuple(f for f in snf[q + 1][0] if f > 1))
        for q in range(c.top + 1)
    )


class TestHomologyAgainstDenseReference:
    @pytest.mark.parametrize("name", sorted(CORPUS_HOMOLOGY))
    def test_corpus(self, name):
        c = simplicial_chain_complex(corpus_complexes()[name])
        assert homology(c).groups == dense_homology(c)
        assert homology(c) == expected_homology(name)

    def test_random_small_complexes(self):
        rng = random.Random(4242)
        for _ in range(150):
            c = simplicial_chain_complex(random_small_complex(rng))
            assert homology(c).groups == dense_homology(c)


def basis_changed(c: IntegerChainComplex, changes) -> IntegerChainComplex:
    """c under paired unimodular basis changes.  A change (q, i, j, k)
    replaces generator e_i of C_q by e_i + k e_j: it adds k x column j to
    column i of d_q and subtracts k x row i from row j of d_{q+1}, so d o d
    stays 0 and the homology does not change."""
    cols = [[dict(col) for col in d] for d in c.columns]
    for q, i, j, k in changes:
        if q >= 1:
            col, other = cols[q - 1][i], cols[q - 1][j]
            for r, v in other.items():
                w = col.get(r, 0) + k * v
                if w:
                    col[r] = w
                else:
                    del col[r]
        if q < c.top:
            for col in cols[q]:
                if i in col:
                    w = col.get(j, 0) - k * col[i]
                    if w:
                        col[j] = w
                    else:
                        del col[j]
    return IntegerChainComplex.from_columns(c.ranks, cols)


@st.composite
def changed_complexes(draw):
    """(c, c under random paired basis changes): c is the chain complex of
    a random small complex or of a corpus complex (rp2 and klein bring
    torsion)."""
    if draw(st.booleans()):
        x = random_small_complex(random.Random(draw(st.integers(0, 10**6))))
    else:
        x = corpus_complexes()[draw(st.sampled_from(sorted(CORPUS_HOMOLOGY)))]
    c = simplicial_chain_complex(x)
    changes = []
    for _ in range(draw(st.integers(0, 12))):
        q = draw(st.integers(0, c.top))
        if c.ranks[q] < 2:
            continue
        i, j = draw(st.lists(st.integers(0, c.ranks[q] - 1), min_size=2, max_size=2,
                             unique=True))
        changes.append((q, i, j, draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))))
    return c, basis_changed(c, changes)


class TestClearing:
    """`homology` skips the columns of d_q at the unit-pivot rows of
    d_{q+1}; `dense_homology` runs every degree in full."""

    @settings(max_examples=80, deadline=None)
    @given(changed_complexes())
    def test_matches_the_reference_under_basis_changes(self, case):
        c, changed = case
        assert homology(changed).groups == dense_homology(changed)
        assert homology(changed) == homology(c)

    def test_residual_rows_are_not_cleared(self):
        # d_2 = (2 3)^T has no unit entry; clearing either of its rows
        # would leave H_0 = Z/2 or Z/3
        c = IntegerChainComplex([1, 2, 1], [[[3, -2]], [[2], [3]]])
        assert homology(c).groups == dense_homology(c) == ((0, ()), (0, ()), (0, ()))

    def test_unit_pivot_columns_are_cleared(self, monkeypatch):
        calls = []
        eliminate = homology_module._eliminate

        def spy(columns, nrows):
            result = eliminate(columns, nrows)
            calls.append((sum(1 for col in columns if col), result[2]))
            return result

        monkeypatch.setattr(homology_module, "_eliminate", spy)
        c = simplicial_chain_complex(seven_vertex_torus())
        assert homology(c) == expected_homology("torus")
        (live_2, pivots_2), (live_1, _) = calls
        assert live_2 == c.ranks[2] == 14
        assert len(pivots_2) == 13
        assert live_1 == c.ranks[1] - len(pivots_2) == 8


class TestIntegerChainComplex:
    def test_circle_shapes(self):
        c = IntegerChainComplex([3, 3], [[[-1, -1, 0], [1, 0, -1], [0, 1, 1]]])
        assert c.top == 1
        assert len(c.columns) == 1 and len(c.columns[0]) == 3
        assert len(c.boundaries) == 1 and len(c.boundaries[0]) == 3

    def test_boundary_out_of_range(self):
        # a complex concentrated in degree 0 has no boundary at all
        c = IntegerChainComplex([2], [])
        assert c.top == 0
        assert c.columns == [] and c.boundaries == []

    def test_shape_validation(self):
        with pytest.raises(InternalConsistencyError):
            IntegerChainComplex([2, 2], [[[1, 0]]])  # wrong row count
        with pytest.raises(InternalConsistencyError):
            IntegerChainComplex([1, 1], [])  # missing matrix
        with pytest.raises(InternalConsistencyError):
            IntegerChainComplex([], [])

    def test_boundary_squared_must_vanish(self):
        with pytest.raises(InternalConsistencyError):
            IntegerChainComplex(
                [1, 1, 1], [[[1]], [[1]]]
            )

    @pytest.mark.parametrize("q", [1, 2])
    def test_one_flipped_sign_breaks_d_squared(self, q):
        # flip the first entry of column 5 of d_q, stored and as a dense view
        c = simplicial_chain_complex(seven_vertex_torus())
        columns = [[dict(col) for col in cols] for cols in c.columns]
        col = columns[q - 1][5]
        i = min(col)
        col[i] = -col[i]
        dense = c.boundaries
        dense[q - 1][i][5] *= -1
        with pytest.raises(InternalConsistencyError, match="square to zero in degree 2"):
            IntegerChainComplex.from_columns(c.ranks, columns)
        with pytest.raises(InternalConsistencyError, match="square to zero in degree 2"):
            IntegerChainComplex(c.ranks, dense)

    def test_columns_checked(self):
        IntegerChainComplex.from_columns([2, 1], [[{0: 1, 1: -1}]])
        for bad in ([{2: 1}], [{0: 0}], [{0: 1}, {1: 1}]):
            with pytest.raises(InternalConsistencyError):
                IntegerChainComplex.from_columns([2, 1], [bad])

    def test_dense_views(self):
        c = IntegerChainComplex.from_columns([3, 3], [[{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]])
        assert c.boundaries == [[[-1, -1, 0], [1, 0, -1], [0, 1, 1]]]

    def test_labels_checked(self):
        IntegerChainComplex([1, 1], [[[0]]], labels=[["p"], ["e"]])
        with pytest.raises(InternalConsistencyError):
            IntegerChainComplex([1, 1], [[[0]]], labels=[["p"], []])


class TestHomologyResult:
    def test_group_names(self):
        assert HomologyResult.group_name(0, ()) == "0"
        assert HomologyResult.group_name(1, ()) == "Z"
        assert HomologyResult.group_name(2, ()) == "Z^2"
        assert HomologyResult.group_name(0, (2,)) == "Z/2"
        assert HomologyResult.group_name(1, (2, 4)) == "Z + Z/2 + Z/4"

    def test_equality_ignores_trailing_zeros(self):
        assert HomologyResult([(1, ()), (0, ())]) == HomologyResult([(1, ())])
        assert HomologyResult([(1, ())]) != HomologyResult([(1, ()), (1, ())])

    def test_out_of_range_degrees_are_trivial(self):
        r = HomologyResult([(1, ())])
        assert r.betti(5) == 0
        assert r.torsion(5) == ()
        assert r[5] == (0, ())

    def test_str(self):
        r = HomologyResult([(1, ()), (1, (2,)), (0, ())])
        assert str(r) == "H_0 = Z, H_1 = Z + Z/2, H_2 = 0"


class TestHomologyOfChainComplexes:
    def test_torsion_from_a_doubling_map(self):
        # 0 -> Z --2--> Z -> 0 has H_0 = Z/2, H_1 = 0
        c = IntegerChainComplex([1, 1], [[[2]]])
        assert homology(c) == HomologyResult([(0, (2,)), (0, ())])

    def test_zero_boundaries_give_free_groups(self):
        c = IntegerChainComplex([2, 3], [[[0, 0, 0], [0, 0, 0]]])
        assert homology(c) == HomologyResult([(2, ()), (3, ())])


class TestSimplicialHomology:
    @pytest.mark.parametrize("name", sorted(CORPUS_HOMOLOGY))
    def test_corpus(self, corpus, name):
        assert simplicial_homology(corpus[name]) == expected_homology(name)

    def test_chain_complex_of_circle(self):
        c = simplicial_chain_complex(build_complex(["v0 v1", "v1 v2", "v0 v2"]))
        assert c.ranks == (3, 3)
        # columns ordered [v0 v1], [v0 v2], [v1 v2]; rows v0, v1, v2
        assert c.columns == [[{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]]
        assert c.boundaries == [[[-1, -1, 0], [1, 0, -1], [0, 1, 1]]]
