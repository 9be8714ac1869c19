"""Simplices, complexes and relabelled copies."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsemv import (
    ComplexError,
    Simplex,
    SimplicialComplex,
    build_complex,
    incidence,
)
from morsemv.complexes import copy_relabel, intersection, union
from conftest import (
    corpus_complexes,
    octahedron,
    octahedron_pieces,
    random_generators,
)
from slow_reference import retag

vertex_tuples = st.lists(
    st.text(alphabet="abcxyz", min_size=1, max_size=3), min_size=1, max_size=5,
    unique=True,
).map(tuple)


class TestSimplex:
    def test_canonical_form(self):
        s = Simplex("v1 v0")
        assert s.vertices == ("v0", "v1")
        assert s.sign == -1
        assert s == -Simplex("v0 v1")

    def test_permutation_parity(self):
        assert Simplex("b c a").sign == 1  # 3-cycle, even
        assert Simplex("c b a").sign == -1  # reversal of three, odd
        assert Simplex(("a", "b", "c")).sign == 1

    def test_sign_matches_brute_force_permutation_parity(self):
        # every ordering of 1-5 vertices, sorted input included: the sign is
        # (-1)^(number of inversions), counted pair by pair
        for n in range(1, 6):
            names = [f"v{i}" for i in range(n)]
            for perm in itertools.permutations(names):
                inversions = sum(
                    perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
                )
                s = Simplex(perm)
                assert s.vertices == tuple(names)
                assert s.sign == (-1) ** inversions
                assert Simplex(perm, sign=-1).sign == -((-1) ** inversions)

    def test_string_and_iterable_agree(self):
        assert Simplex("x y z") == Simplex(["x", "y", "z"])

    def test_rejects_bad_input(self):
        with pytest.raises(ComplexError):
            Simplex("v0 v0")
        with pytest.raises(ComplexError):
            Simplex([])
        with pytest.raises(ComplexError):
            Simplex("v0", sign=0)

    def test_negation_and_abs(self):
        s = Simplex("a b")
        assert (-s).sign == -1
        assert -(-s) == s
        assert abs(-s) == s
        assert abs(s) == s

    def test_repr_and_str(self):
        assert repr(Simplex("v0 v1")) == "Simplex('v0 v1')"
        assert str(Simplex("v0 v1")) == "[v0 v1]"
        assert str(-Simplex("v0 v1")) == "-[v0 v1]"

    def test_ordering_is_by_dimension_then_vertices(self):
        items = [Simplex("a b"), Simplex("z"), Simplex("a")]
        assert sorted(items) == [Simplex("a"), Simplex("z"), Simplex("a b")]

    def test_ordering_against_another_type_raises_type_error(self):
        assert Simplex("a").__lt__("a") is NotImplemented
        with pytest.raises(TypeError):
            sorted([Simplex("a"), "a"])
        with pytest.raises(TypeError):
            Simplex("a") < 1

    def test_facets_of_triangle(self):
        t = Simplex("v0 v1 v2")
        assert t.facets() == (
            Simplex("v1 v2"), Simplex("v0 v2"), Simplex("v0 v1"),
        )
        assert Simplex("v0").facets() == ()

    @given(vertex_tuples)
    def test_facet_count_is_dimension_plus_one(self, vs):
        s = Simplex(vs)
        if s.dim == 0:
            assert s.facets() == ()
        else:
            assert len(s.facets()) == s.dim + 1
            ws = s.vertices
            assert s.facets() == tuple(Simplex(ws[:k] + ws[k + 1:]) for k in range(len(ws)))


class TestIncidence:
    def test_frozen_values(self):
        assert incidence(Simplex("v0 v1"), Simplex("v1")) == 1
        assert incidence(Simplex("v0 v1"), Simplex("v0")) == -1
        assert incidence(Simplex("v1 v2"), Simplex("v1")) == -1
        assert incidence(Simplex("v0 v1 v2"), Simplex("v1 v2")) == 1
        assert incidence(Simplex("v0 v1 v2"), Simplex("v0 v2")) == -1
        assert incidence(Simplex("v0 v1 v2"), Simplex("v0 v1")) == 1
        assert incidence(Simplex("v0 v1 v2 v3"), Simplex("v0 v1 v3")) == 1

    def test_zero_cases(self):
        assert incidence(Simplex("v0 v1"), Simplex("v2")) == 0
        assert incidence(Simplex("v0 v1 v2"), Simplex("v0")) == 0
        assert incidence(Simplex("v0"), Simplex("v0")) == 0

    def test_sign_bilinearity(self):
        tau, sigma = Simplex("v0 v1 v2"), Simplex("v0 v2")
        base = incidence(tau, sigma)
        assert incidence(-tau, sigma) == -base
        assert incidence(tau, -sigma) == -base
        assert incidence(-tau, -sigma) == base

    @given(vertex_tuples.filter(lambda vs: len(vs) >= 3))
    def test_boundary_of_boundary_vanishes(self, vs):
        # for every codimension-2 face rho of tau, the signed paths
        # tau -> sigma -> rho cancel
        tau = Simplex(vs)
        for drop in itertools.combinations(range(len(vs)), 2):
            rho = Simplex(tuple(v for i, v in enumerate(vs) if i not in drop))
            total = sum(
                incidence(tau, sigma) * incidence(sigma, rho)
                for sigma in tau.facets()
            )
            assert total == 0


class TestSimplicialComplex:
    def test_closure_of_a_triangle(self):
        x = SimplicialComplex([Simplex("v0 v1 v2")])
        assert len(x) == 7
        assert x.f_vector() == (3, 3, 1)
        assert x.dim == 2
        assert x.vertices == ("v0", "v1", "v2")

    def test_canonical_simplex_order(self):
        x = build_complex(["v0 v1", "v1 v2"])
        assert x.simplices(1) == (Simplex("v0 v1"), Simplex("v1 v2"))
        assert x.simplices() == (
            Simplex("v0"), Simplex("v1"), Simplex("v2"),
            Simplex("v0 v1"), Simplex("v1 v2"),
        )
        assert x.simplices(5) == ()

    def test_membership(self):
        x = build_complex(["v0 v1 v2"])
        assert "v0 v1" in x
        assert Simplex("v0 v1") in x
        assert -Simplex("v0 v1") in x  # membership ignores orientation
        assert ("v1", "v0") in x
        assert "v0 v3" not in x

    def test_maximal_simplices(self):
        x = build_complex(["v0 v1", "v1 v2", "v0 v2"])
        assert x.maximal_simplices == (
            Simplex("v0 v1"), Simplex("v0 v2"), Simplex("v1 v2"),
        )

    def test_facets_and_cofacets(self):
        x = build_complex(["v0 v1 v2"])
        assert x.cofacets(Simplex("v0 v1")) == (Simplex("v0 v1 v2"),)
        assert x.cofacets(Simplex("v0 v1 v2")) == ()
        assert x.facets(Simplex("v0 v1")) == (Simplex("v1"), Simplex("v0"))
        with pytest.raises(ComplexError):
            x.cofacets(Simplex("v9"))
        with pytest.raises(ComplexError):
            x.facets(Simplex("v9"))

    def test_rejects_empty(self):
        with pytest.raises(ComplexError):
            SimplicialComplex([])

    def test_octahedron_census(self):
        x = octahedron()
        assert x.f_vector() == (6, 12, 8)
        assert x.euler_characteristic() == 2

    def test_equality_is_by_members(self):
        assert build_complex(["v0 v1", "v1 v2"]) == build_complex(
            ["v1 v2", "v0 v1"]
        )
        assert build_complex(["v0 v1"]) != build_complex(["v0 v2"])

    def test_union_and_intersection(self):
        x, a, b = octahedron_pieces()
        assert union(a, b) == x
        i = intersection(a, b)
        assert i.f_vector() == (4, 4)  # the equatorial square
        assert a.is_subcomplex_of(x) and b.is_subcomplex_of(x)
        assert not x.is_subcomplex_of(a)

    def test_intersection_of_disjoint_raises(self):
        with pytest.raises(ComplexError):
            intersection(build_complex(["p"]), build_complex(["q"]))


def powerset_closure(generators) -> set[tuple[str, ...]]:
    """Reference closure: every nonempty vertex subset of every generator."""
    return {
        combo
        for g in generators
        for k in range(1, len(g.vertices) + 1)
        for combo in itertools.combinations(g.vertices, k)
    }


def table_test_complexes():
    """Every corpus complex with its maximal simplices as generators, and
    random draws with the generators they were built from."""
    for x in corpus_complexes().values():
        yield x, x.maximal_simplices
    rng = random.Random(17)
    for _ in range(60):
        generators = random_generators(rng)
        yield SimplicialComplex(generators), generators


class TestFacetTable:
    def test_closure_matches_powerset(self):
        for x, generators in table_test_complexes():
            ref = powerset_closure(generators)
            assert {s.vertices for s in x.simplices()} == ref
            assert len(x) == len(ref)
            assert all(s.sign == 1 for s in x.simplices())

    def test_facets_are_members_in_vertex_drop_order(self):
        for x, _ in table_test_complexes():
            for q in range(x.dim + 1):
                lower = {s.vertices: s for s in x.simplices(q - 1)}
                upper = {s.vertices: s for s in x.simplices(q + 1)}
                for t in x.simplices(q):
                    vs = t.vertices
                    fs = x.facets(t)
                    assert [f.vertices for f in fs] == [
                        vs[:k] + vs[k + 1:] for k in range(len(vs)) if q
                    ]
                    assert all(f == lower[f.vertices] for f in fs)
                    assert x.facets(-t) == fs
                    cs = x.cofacets(t)
                    assert all(c == upper[c.vertices] for c in cs)
                    assert {c.vertices for c in cs} == {
                        u for u in upper if set(vs) <= set(u)
                    }

    def test_membership_equality_and_subcomplex_match_reference(self):
        cases = list(table_test_complexes())
        rng = random.Random(3)
        for x, generators in cases:
            ref = powerset_closure(generators)
            names = sorted({v for vs in ref for v in vs}) + ["w"]
            for _ in range(20):
                vs = tuple(rng.sample(names, rng.randint(1, min(4, len(names)))))
                want = tuple(sorted(vs)) in ref
                assert (Simplex(vs) in x) == want
                assert (-Simplex(vs) in x) == want
                assert (" ".join(vs) in x) == want
                assert (vs in x) == want
            y, other = rng.choice(cases)
            ref_y = powerset_closure(other)
            assert (x == y) == (ref == ref_y)
            assert x.is_subcomplex_of(y) == (ref <= ref_y)
            assert x == SimplicialComplex(reversed(generators))
            assert x.is_subcomplex_of(x)


class TestComplexCopy:
    def test_members_are_the_source_members_tagged(self):
        x = octahedron()
        copy = copy_relabel(x, "A:")
        assert [retag(s, "A:", "") for s in copy.complex.simplices()] == list(x.simplices())
        assert copy.complex.f_vector() == x.f_vector()
        assert Simplex("A:v0 A:v1") in copy.complex
        assert Simplex("v0 v1") not in copy.complex

    def test_incidence_is_preserved(self):
        # the tag prefix is order-preserving, so all signs carry over
        x = octahedron()
        copy = copy_relabel(x, "I:")
        for tau in copy.complex.simplices(2):
            source = retag(tau, "I:", "")
            facets = copy.complex.facets(tau)
            assert [retag(f, "I:", "") for f in facets] == list(x.facets(source))
            for sigma in facets:
                assert incidence(tau, sigma) == incidence(source, retag(sigma, "I:", ""))

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_a_copy_reads_like_a_view_of_its_mask(self, rng):
        """A tagged copy shares its source's ids and size; they are those a
        view closed over the same mask reads off it."""
        x = SimplicialComplex(random_generators(rng))
        maximal = list(x.maximal_simplices)
        piece = x.subcomplex(rng.sample(maximal, rng.randint(1, len(maximal))))
        for source in (x, piece, copy_relabel(piece, "B:").complex):
            copy = copy_relabel(source, "A:").complex
            view = object.__new__(SimplicialComplex)  # a view under the copy's tag
            view._setup(source._table, source._mask, "A:" + source._tag)
            assert copy._ids == view._ids
            assert len(copy) == len(view)
            assert copy.f_vector() == view.f_vector()
            assert copy.simplices() == view.simplices()
