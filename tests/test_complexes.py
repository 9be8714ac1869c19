"""Simplices, complexes, relabelled copies, and prisms."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from morsemv import (
    ComplexError,
    Simplex,
    SimplicialComplex,
    build_complex,
    incidence,
)
from morsemv.complexes import PrismComplex, copy_relabel, intersection, prism, union
from conftest import (
    corpus_complexes,
    octahedron,
    octahedron_pieces,
    random_generators,
)

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

    def test_facets_of_triangle(self):
        t = Simplex("v0 v1 v2")
        assert t.facets() == (
            Simplex("v1 v2"), Simplex("v0 v2"), Simplex("v0 v1"),
        )
        assert Simplex("v0").facets() == ()

    def test_relabel_tracks_parity(self):
        # an order-reversing relabelling flips the sign
        s = Simplex("a b")
        assert s.relabel({"a": "z", "b": "y"}) == -Simplex("y z")
        assert s.relabel({"a": "p", "b": "q"}) == Simplex("p q")

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
                    assert all(f is lower[f.vertices] for f in fs)
                    assert x.facets(-t) is fs
                    cs = x.cofacets(t)
                    assert all(c is upper[c.vertices] for c in cs)
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
    def test_push_pull_roundtrip(self):
        x = octahedron()
        copy = copy_relabel(x, "A:")
        for s in x.simplices():
            assert copy.pull(copy.push(s)) == s
        assert copy.complex.f_vector() == x.f_vector()
        assert copy.push(Simplex("v0 v1")) == Simplex("A:v0 A:v1")

    def test_push_preserves_orientation(self):
        copy = copy_relabel(build_complex(["v0 v1"]), "B:")
        assert copy.push(-Simplex("v0 v1")) == -Simplex("B:v0 B:v1")

    def test_incidence_is_preserved(self):
        # the tag prefix is order-preserving, so all signs carry over
        x = octahedron()
        copy = copy_relabel(x, "I:")
        for tau in x.simplices(2):
            for sigma in tau.facets():
                assert incidence(copy.push(tau), copy.push(sigma)) == incidence(
                    tau, sigma
                )


class TestPrism:
    def test_prism_over_an_edge(self):
        p = prism(build_complex(["x0 x1"]))
        assert p.complex.f_vector() == (4, 5, 2)
        e = Simplex("x0 x1")
        assert p.a_member(e, 0) == Simplex("Pa:x0 Pb:x0 Pb:x1")
        assert p.a_member(e, 1) == Simplex("Pa:x0 Pa:x1 Pb:x1")
        assert p.b_member(e, 0) == Simplex("Pb:x0 Pb:x1")
        assert p.b_member(e, 1) == Simplex("Pa:x0 Pb:x1")
        assert p.b_member(e, 2) == Simplex("Pa:x0 Pa:x1")
        # the outer b_members are the pure top and bottom copies of the edge
        assert p.is_pure_b(p.b_member(e, 0)) and not p.is_pure_a(p.b_member(e, 0))
        assert p.is_pure_a(p.b_member(e, 2)) and not p.is_pure_b(p.b_member(e, 2))

    def test_member_index_ranges(self):
        p = prism(build_complex(["x0 x1"]))
        e = Simplex("x0 x1")
        with pytest.raises(ComplexError):
            p.a_member(e, 2)
        with pytest.raises(ComplexError):
            p.b_member(e, 3)
        with pytest.raises(ComplexError):
            p.a_member(Simplex("x0 x9"), 0)

    def test_blocks_partition_the_prism(self):
        base = build_complex(["v0 v1", "v1 v2", "v0 v2"])
        p = prism(base)
        seen: list[Simplex] = []
        for alpha in base.simplices():
            block = [p.a_member(alpha, r) for r in range(alpha.dim + 1)]
            block += [p.b_member(alpha, r) for r in range(alpha.dim + 2)]
            assert len(block) == 2 * alpha.dim + 3
            assert all(p.ground_simplex(c) == alpha for c in block)
            seen.extend(block)
        assert sorted(seen) == sorted(p.complex.simplices())
        assert len(seen) == len(set(seen))

    def test_interior_cells(self):
        base = build_complex(["v0 v1", "v1 v2", "v0 v2"])
        p = prism(base)
        interior = p.interior_cells()
        assert len(interior) == len(p.complex) - 2 * len(base)
        for c in interior:
            assert not p.is_pure_a(c) and not p.is_pure_b(c)
        assert p.is_pure_a(Simplex("Pa:v0 Pa:v1"))
        assert p.is_pure_b(Simplex("Pb:v0 Pb:v1"))

    def test_overlapping_blocks_raise(self, monkeypatch):
        # the top copy of an edge moved onto the top copy of its first vertex
        # puts that cell in two blocks and leaves the edge's cell in none
        block = PrismComplex._block

        def overlapping(self, alpha):
            a_cells, b_cells = block(self, alpha)
            if alpha.dim == 1:
                b_cells[0] = block(self, Simplex(alpha.vertices[:1]))[1][0]
            return a_cells, b_cells

        monkeypatch.setattr(PrismComplex, "_block", overlapping)
        with pytest.raises(ComplexError, match="partition"):
            prism(build_complex(["x0 x1"]))

    def test_ground_simplex_errors_for_foreign_cells(self):
        p = prism(build_complex(["x0 x1"]))
        with pytest.raises(ComplexError):
            p.ground_simplex(Simplex("y0"))

    def test_name_map_validation(self):
        base = build_complex(["x0 x1"])
        with pytest.raises(ComplexError):  # not order-preserving
            prism(base, a_name={"x0": "b", "x1": "a"})
        with pytest.raises(ComplexError):  # bottom/top names collide
            prism(base, a_name={"x0": "u0", "x1": "u1"},
                  b_name={"x0": "u1", "x1": "u2"})
        with pytest.raises(ComplexError):  # a bottom name sorts after a top one
            prism(base, a_name={"x0": "q0", "x1": "q1"},
                  b_name={"x0": "p0", "x1": "p1"})
        with pytest.raises(ComplexError):  # wrong domain
            prism(base, a_name={"x0": "a0"})

    def test_custom_names_glue_by_identity(self):
        base = build_complex(["x0 x1"])
        p = prism(base, a_name={"x0": "A:x0", "x1": "A:x1"},
                  b_name={"x0": "B:x0", "x1": "B:x1"})
        assert Simplex("A:x0 A:x1") in p.complex
        assert Simplex("B:x0 B:x1") in p.complex
