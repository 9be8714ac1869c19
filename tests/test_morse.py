"""Discrete vector fields, acyclicity, trajectories, Thom-Smale homology."""
from __future__ import annotations

import pytest

from morsemv import (
    FieldError,
    GradientField,
    InternalConsistencyError,
    NotAcyclicError,
    Simplex,
    Trajectory,
    VectorField,
    build_complex,
    greedy_gvf,
    homology,
    incidence,
    simplicial_homology,
    thom_smale_complex,
    trajectories_from,
)
from morsemv.morse import DEFAULT_SEED, is_acyclic
from conftest import corpus_complexes, expected_homology, octahedron
from slow_reference import trajectory_weight, validate_trajectory


def circle():
    return build_complex(["v0 v1", "v1 v2", "v0 v2"])


def cyclic_field():
    """Matching every vertex of the circle upward: a closed trajectory."""
    return VectorField([
        (Simplex("v0"), Simplex("v0 v1")),
        (Simplex("v1"), Simplex("v1 v2")),
        (Simplex("v2"), Simplex("v0 v2")),
    ])


def brute_trajectories(gvf: GradientField, tau: Simplex, cap: int = 60):
    """Exhaustive enumeration of extended trajectories out of `tau` ending
    at a critical simplex, straight from the definition, each weighed by
    `incidence`.  Independent of the library's enumerator and its signs;
    `cap` only guards against a cyclic field."""
    field = gvf.field
    found: list[Trajectory] = []

    def grow(seq: list[Simplex]) -> None:
        here = seq[-1]
        for sigma in here.facets():
            if field.down(here) == sigma:
                continue  # would walk the matched pair backwards
            if not field.is_matched(sigma):
                steps = seq + [sigma]
                found.append(Trajectory(steps, trajectory_weight(steps)))
            else:
                upper = field.up(sigma)
                if upper is not None and len(seq) < cap:
                    grow(seq + [sigma, upper])

    if abs(tau).dim > 0:
        grow([abs(tau)])
    return found


class TestVectorField:
    def test_pairs_are_canonicalised_and_sorted(self):
        v = VectorField([(Simplex("v2"), -Simplex("v0 v2")),
                         (Simplex("v1"), Simplex("v0 v1"))])
        assert v.pairs == (
            (Simplex("v1"), Simplex("v0 v1")),
            (Simplex("v2"), Simplex("v0 v2")),
        )
        assert v.up(Simplex("v1")) == Simplex("v0 v1")
        assert v.down(Simplex("v0 v1")) == Simplex("v1")
        assert v.up(Simplex("v0")) is None
        assert v.is_matched(Simplex("v0 v2"))
        assert not v.is_matched(Simplex("v0"))
        assert len(v) == 2

    def test_rejects_non_facet_pairs(self):
        with pytest.raises(FieldError):
            VectorField([(Simplex("v0"), Simplex("v1 v2"))])
        with pytest.raises(FieldError):
            VectorField([(Simplex("v0"), Simplex("v0"))])

    def test_rejects_reused_simplices(self):
        with pytest.raises(FieldError):
            VectorField([(Simplex("v0"), Simplex("v0 v1")),
                         (Simplex("v0"), Simplex("v0 v2"))])
        with pytest.raises(FieldError):
            VectorField([(Simplex("v0"), Simplex("v0 v1")),
                         (Simplex("v1"), Simplex("v0 v1"))])

    def test_equality(self):
        a = VectorField([(Simplex("v1"), Simplex("v0 v1"))])
        b = VectorField([(Simplex("v1"), Simplex("v0 v1"))])
        assert a == b and not (a == VectorField([]))


class TestAcyclicity:
    def test_acyclic_field(self):
        assert is_acyclic(VectorField([(Simplex("v1"), Simplex("v0 v1"))]),
                          circle()) is True

    def test_cyclic_field_with_validated_witness(self):
        assert is_acyclic(cyclic_field(), circle()) is False
        with pytest.raises(NotAcyclicError) as e:
            GradientField.certify(cyclic_field(), circle())
        w = e.value.witness
        assert w is not None and w[0] == w[-1] and len(w) >= 5
        field = cyclic_field()
        for i in range(1, len(w), 2):
            sigma, tau_prev = w[i], w[i - 1]
            assert sigma.is_face_of(tau_prev)
            assert field.down(tau_prev) != sigma
            assert field.up(sigma) == w[i + 1]

    def test_field_must_live_in_complex(self):
        with pytest.raises(FieldError):
            is_acyclic(VectorField([(Simplex("w0"), Simplex("w0 w1"))]), circle())


class TestGradientField:
    def test_certify(self):
        gvf = GradientField.certify(
            VectorField([(Simplex("v1"), Simplex("v0 v1"))]), circle()
        )
        assert gvf.critical() == (
            Simplex("v0"), Simplex("v2"), Simplex("v0 v2"), Simplex("v1 v2"),
        )
        assert gvf.critical(0) == (Simplex("v0"), Simplex("v2"))
        assert gvf.critical(-1) == gvf.critical(2) == ()

    def test_certify_rejects_cycles(self):
        with pytest.raises(NotAcyclicError) as e:
            GradientField.certify(cyclic_field(), circle())
        assert isinstance(e.value, FieldError)  # subclass, for exit-code mapping
        assert e.value.witness is not None

    def test_no_backdoor_construction(self):
        with pytest.raises(FieldError):
            GradientField(circle())


class TestTrajectories:
    def test_circle_weights_frozen(self):
        gvf = greedy_gvf(circle())
        assert gvf.pairs == (
            (Simplex("v1"), Simplex("v0 v1")),
            (Simplex("v2"), Simplex("v0 v2")),
        )
        out = trajectories_from(gvf, Simplex("v1 v2"))
        assert set(out) == {Simplex("v0")}
        ts = out[Simplex("v0")]
        assert [t.steps for t in ts] == [
            (Simplex("v1 v2"), Simplex("v2"), Simplex("v0 v2"), Simplex("v0")),
            (Simplex("v1 v2"), Simplex("v1"), Simplex("v0 v1"), Simplex("v0")),
        ]
        assert [t.weight for t in ts] == [1, -1]
        assert [len(t.steps) for t in ts] == [4, 4]  # k = 1 each

    def test_trivial_trajectory_weight_is_incidence(self):
        edge = Simplex("v0 v1")
        gvf = GradientField.certify(VectorField([]), build_complex(["v0 v1"]))
        out = trajectories_from(gvf, edge)
        assert list(out) == [Simplex("v1"), Simplex("v0")]  # vertex-drop order
        for end, (t,) in out.items():
            assert t.steps == (edge, end)  # k = 0
            assert t.weight == incidence(edge, end)
        assert [t.weight for (t,) in out.values()] == [1, -1]

    def test_trajectory_shape_validation(self):
        with pytest.raises(FieldError):
            Trajectory([Simplex("v0")], 1)
        with pytest.raises(FieldError):
            Trajectory([Simplex("v0 v1"), Simplex("v0"), Simplex("v0 v2")], 1)
        with pytest.raises(FieldError, match="weight"):
            Trajectory([Simplex("v0 v1"), Simplex("v0")], 0)

    def test_dimension_zero_has_no_trajectories(self):
        gvf = greedy_gvf(circle())
        assert trajectories_from(gvf, Simplex("v0")) == {}

    def test_source_must_be_critical(self):
        gvf = greedy_gvf(circle())
        with pytest.raises(FieldError):
            trajectories_from(gvf, Simplex("v0 v1"))

    @pytest.mark.parametrize("name", ["circle", "sphere2", "torus", "rp2",
                                      "wedge2circles", "ball3"])
    @pytest.mark.parametrize("strategy,seed", [("lexicographic", None),
                                               ("random", 5)])
    def test_matches_brute_force_enumeration(self, name, strategy, seed):
        x = corpus_complexes()[name]
        gvf = greedy_gvf(x, strategy, seed)
        for tau in gvf.critical():
            if tau.dim == 0:
                continue
            enumerated = [
                t for ts in trajectories_from(gvf, tau).values() for t in ts
            ]
            brute = [
                t for t in brute_trajectories(gvf, tau)
                if t.steps[-1] in set(gvf.critical(tau.dim - 1))
            ]
            assert sorted(t.steps for t in enumerated) == sorted(
                t.steps for t in brute
            )
            for t in enumerated:
                validate_trajectory(gvf, t)
                assert t.weight == trajectory_weight(t.steps) in (-1, 1)

    def test_validate_rejects_corrupted_trajectories(self):
        gvf = greedy_gvf(circle())
        with pytest.raises(InternalConsistencyError):  # not a facet
            validate_trajectory(gvf, Trajectory([Simplex("v1 v2"), Simplex("v0")], 1))
        with pytest.raises(InternalConsistencyError):  # walks its own pair back
            validate_trajectory(gvf, Trajectory([Simplex("v0 v1"), Simplex("v1")], 1))
        with pytest.raises(InternalConsistencyError):  # not in the complex
            validate_trajectory(gvf, Trajectory([Simplex("w0 w1"), Simplex("w0")], 1))
        with pytest.raises(InternalConsistencyError):  # middle pair not matched
            validate_trajectory(gvf, Trajectory([
                Simplex("v1 v2"), Simplex("v1"), Simplex("v1 v2"), Simplex("v2"),
            ], 1))
        t = trajectories_from(gvf, Simplex("v1 v2"))[Simplex("v0")][0]
        validate_trajectory(gvf, t)
        with pytest.raises(InternalConsistencyError, match="weight"):  # sign flipped
            validate_trajectory(gvf, Trajectory(t.steps, -t.weight))


class TestThomSmale:
    def test_circle_boundary_matrix(self):
        gvf = greedy_gvf(circle())
        c = thom_smale_complex(gvf)
        assert c.ranks == (1, 1)
        assert c.boundaries == [[[0]]]  # the two trajectories cancel
        assert homology(c) == expected_homology("circle")

    def test_octahedron_reduction(self):
        gvf = greedy_gvf(octahedron())
        c = thom_smale_complex(gvf)
        assert sum(c.ranks) < len(octahedron())  # strictly smaller model
        assert homology(c) == expected_homology("sphere2")

    @pytest.mark.parametrize("strategy,seed", [("lexicographic", None),
                                               ("random", 2), ("random", 9)])
    def test_corpus_homology_and_morse_inequalities(self, corpus, strategy, seed):
        for name, x in corpus.items():
            gvf = greedy_gvf(x, strategy, seed)
            result = homology(thom_smale_complex(gvf))
            assert result == expected_homology(name), name
            for q in range(x.dim + 1):
                assert len(gvf.critical(q)) >= result.betti(q), (name, q)
            euler = sum(
                (-1) ** q * len(gvf.critical(q)) for q in range(x.dim + 1)
            )
            assert euler == x.euler_characteristic(), name


class TestGreedy:
    def test_single_edge_frozen(self):
        gvf = greedy_gvf(build_complex(["v0 v1"]))
        assert gvf.pairs == ((Simplex("v1"), Simplex("v0 v1")),)
        assert gvf.critical() == (Simplex("v0"),)

    def test_full_triangle_frozen(self):
        gvf = greedy_gvf(build_complex(["v0 v1 v2"]))
        assert gvf.pairs == (
            (Simplex("v1"), Simplex("v0 v1")),
            (Simplex("v2"), Simplex("v0 v2")),
            (Simplex("v1 v2"), Simplex("v0 v1 v2")),
        )
        assert gvf.critical() == (Simplex("v0"),)

    def test_every_simplex_is_paired_or_critical(self):
        x = octahedron()
        gvf = greedy_gvf(x, "random", 3)
        assert 2 * len(gvf.pairs) + len(gvf.critical()) == len(x)

    def test_random_strategy_is_reproducible(self):
        x = octahedron()
        a = greedy_gvf(x, "random", 42)
        b = greedy_gvf(x, "random", 42)
        assert a.pairs == b.pairs
        assert greedy_gvf(x, "random").pairs == greedy_gvf(
            x, "random", DEFAULT_SEED
        ).pairs

    def test_lexicographic_ignores_seed(self):
        x = octahedron()
        assert greedy_gvf(x, "lexicographic", 1).pairs == greedy_gvf(x).pairs
        assert greedy_gvf(x, "lex").pairs == greedy_gvf(x).pairs

    def test_unknown_strategy(self):
        with pytest.raises(FieldError):
            greedy_gvf(circle(), "alphabetical")
