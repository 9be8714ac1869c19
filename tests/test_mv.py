"""The Mayer-Vietoris chain complex: generators, trajectories, homology."""
from __future__ import annotations

import collections
import contextlib
import copy
import io
import itertools
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsemv import (
    DecompositionError,
    FieldError,
    InternalConsistencyError,
    MVGenerator,
    MVTrajectory,
    NotAcyclicError,
    Simplex,
    SimplicialComplex,
    Trajectory,
    build_complex,
    build_decomposition,
    incidence,
    mv_chain_complex,
    mv_generators,
    mv_homology,
    enumerate_mv,
    simplicial_homology,
    thom_smale_complex,
    trajectories_from,
)
import morsemv.complexes
import morsemv.morse
import morsemv.mv
from morsemv.cli import main
from morsemv.verify import CheckResult, VerifyReport
from morsemv.formats import parse_complex
from morsemv.mv import (
    SHIFTED,
    _generator,
    _generator_keys,
    _generator_table,
    _glued_id,
    mv_boundary,
    mv_trajectories_from,
)
from conftest import (
    corpus_complexes,
    decomposition_text,
    expected_homology,
    octahedron_fields,
    octahedron_pieces,
    poor_field,
    random_cover,
    random_generators,
)
from slow_reference import reference_complex_columns, retag, validate_mv_trajectory
from test_morse import brute_trajectories

ALLOWED_ROUTES = {
    ("FromA", "FromA"), ("FromB", "FromB"), ("Shifted", "Shifted"),
    ("Shifted", "FromA"), ("Shifted", "FromB"),
}


def cover_decompositions(name: str, strategy: str):
    """Three seeded random covers of a corpus complex, or, for "disjoint",
    the one cover of two triangle boundaries by the two, with fields built
    by the given strategy.  The strategy "poor" gives each piece a
    `poor_field` instead, with p in (0.1, 0.3) and two seeds each."""
    if name == "disjoint":
        x = build_complex(["v0 v1", "v1 v2", "v0 v2", "w0 w1", "w1 w2", "w0 w2"])
        covers = [(build_complex(["v0 v1", "v1 v2", "v0 v2"]),
                   build_complex(["w0 w1", "w1 w2", "w0 w2"]))]
    else:
        x = corpus_complexes()[name]
        rng = random.Random(sum(map(ord, name)))
        covers = [random_cover(x, rng) for _ in range(3)]
    for a, b in covers:
        if strategy != "poor":
            yield build_decomposition(x, a, b, strategy=strategy, seed=7)
            continue
        d = build_decomposition(x, a, b)
        pieces = {"A": d.a, "B": d.b, "I": d.iab}
        for p in (0.1, 0.3):
            for seed in range(2):
                rng = random.Random(seed)
                fields = {k: poor_field(piece, p, rng)
                          for k, piece in pieces.items() if piece is not None}
                yield build_decomposition(x, a, b, fields=fields)


COVERS = [
    (name, strategy)
    for name in sorted(corpus_complexes())
    for strategy in ("lexicographic", "random")
]
# covers whose walks meet the cases interleaved: poor fields put a critical
# end and an onward arc on one cell and give Shifted generators descents,
# and a disjoint cover glues no I-copy
INTERLEAVED = [(name, "poor") for name in sorted(corpus_complexes())] + [
    ("disjoint", "lexicographic"), ("disjoint", "poor"),
]


def forman_weight(steps) -> int:
    """The extended-trajectory weight, straight from its product formula."""
    w = 1
    for i in range(0, len(steps) - 2, 2):
        w *= -incidence(steps[i], steps[i + 1]) * incidence(steps[i + 2], steps[i + 1])
    return w * incidence(steps[-2], steps[-1])


def brute_mv_trajectories(d, beta: MVGenerator):
    """Every MV trajectory out of beta as (case, steps, p, l, weight),
    grouped by target in depth-first order, straight from the definition:
    cases 1-3 by `brute_trajectories`, cases 4/5 by recursive descent in the
    I-copy and ascent in the piece, with the weight formulas of each case.
    Independent of the library's walker and sign rule."""
    out: dict[MVGenerator, list] = {}
    shift = 1 if beta.tag == SHIFTED else 0
    gvf = {"FromA": d.w_a, "FromB": d.w_b, SHIFTED: d.w_i}[beta.tag]
    case = {"FromA": 1, "FromB": 2, SHIFTED: 3}[beta.tag]
    for t in brute_trajectories(gvf, beta.simplex):
        end = t.steps[-1]
        alpha = MVGenerator(beta.tag, end, end.dim + shift)
        w = forman_weight(t.steps)
        out.setdefault(alpha, []).append((case, t.steps, None, None, -w if case == 3 else w))
    if beta.tag != SHIFTED:
        return out

    wi = d.w_i.field
    for case, tag, piece, copy in ((4, "FromA", d.w_a, d.a_bar), (5, "FromB", d.w_b, d.b_bar)):
        pv = piece.field

        def ascend(aseq):
            t = aseq[-1]
            if not pv.is_matched(t):
                yield tuple(aseq)
                return
            a = pv.up(t)
            if a is None:  # matched downward: the ascent cannot pass through
                return
            for tn in a.facets():
                if tn != t:
                    yield from ascend(aseq + [a, tn])

        def weight(i_steps, a_steps):
            w = 1
            for j in range(0, len(i_steps) - 2, 2):
                w *= -incidence(i_steps[j], i_steps[j + 1]) * incidence(
                    i_steps[j + 2], i_steps[j + 1]
                )
            for j in range(0, len(a_steps) - 2, 2):
                w *= -incidence(a_steps[j + 1], a_steps[j]) * incidence(
                    a_steps[j + 1], a_steps[j + 2]
                )
            return -w if case == 4 else w

        def descend(iseq):
            tp = iseq[-1]
            for aseq in ascend([retag(tp, d.iab_bar.tag, copy.tag)]):
                alpha = MVGenerator(tag, aseq[-1], aseq[-1].dim)
                out.setdefault(alpha, []).append((
                    case, tuple(iseq) + aseq, (len(iseq) - 1) // 2,
                    (len(aseq) - 1) // 2, weight(iseq, aseq),
                ))
            for sigma in tp.facets():
                if wi.down(tp) == sigma:
                    continue
                tn = wi.up(sigma)
                if tn is not None:
                    descend(iseq + [sigma, tn])

        descend([beta.simplex])
    return out


def wedge_decomposition():
    """Two triangle-boundary circles sharing v0; intersection is a point."""
    x = build_complex(["v0 v1", "v1 v2", "v0 v2", "v0 v3", "v3 v4", "v0 v4"])
    a = build_complex(["v0 v1", "v1 v2", "v0 v2"])
    b = build_complex(["v0 v3", "v3 v4", "v0 v4"])
    return build_decomposition(x, a, b)


class TestBuildDecomposition:
    def test_rejects_non_subcomplexes(self):
        x = build_complex(["v0 v1"])
        with pytest.raises(DecompositionError):
            build_decomposition(x, build_complex(["v0 v2"]), x)
        with pytest.raises(DecompositionError):
            build_decomposition(x, x, build_complex(["v9"]))

    def test_rejects_incomplete_cover(self):
        x = build_complex(["v0 v1", "v1 v2"])
        a = build_complex(["v0 v1"])
        with pytest.raises(DecompositionError):
            build_decomposition(x, a, a)

    def test_rejects_unknown_field_piece(self):
        x, a, b = octahedron_pieces()
        with pytest.raises(DecompositionError):
            build_decomposition(x, a, b, fields={"C": []})

    def test_rejects_field_pair_outside_piece(self):
        x, a, b = octahedron_pieces()
        bad = {"A": [(Simplex("v0"), Simplex("v0 v4"))]}  # v4 is not in A
        with pytest.raises(DecompositionError):
            build_decomposition(x, a, b, fields=bad)

    def test_rejects_cyclic_supplied_field(self):
        x, a, b = octahedron_pieces()
        cyclic = {"I": [
            (Simplex("v0"), Simplex("v0 v1")), (Simplex("v1"), Simplex("v1 v2")),
            (Simplex("v2"), Simplex("v2 v3")), (Simplex("v3"), Simplex("v0 v3")),
        ]}
        with pytest.raises(NotAcyclicError):
            build_decomposition(x, a, b, fields=cyclic)

    def test_rejects_intersection_field_when_disjoint(self):
        x = build_complex(["p", "q"])
        a, b = build_complex(["p"]), build_complex(["q"])
        with pytest.raises(DecompositionError):
            build_decomposition(x, a, b, fields={"I": []})

    def test_empty_intersection_is_allowed(self):
        x = build_complex(["p", "q"])
        d = build_decomposition(x, build_complex(["p"]), build_complex(["q"]))
        assert d.iab is None and d.iab_bar is None and d.w_i is None
        assert [str(g) for g in mv_generators(d)] == ["FromA:A:p", "FromB:B:q"]
        assert mv_homology(d) == expected_homology("two_points")

    def test_piece_contained_in_the_other(self):
        # A = X and B a single vertex: the intersection is all of B
        x, _, _ = octahedron_pieces()
        d = build_decomposition(x, x, build_complex(["v0"]))
        assert d.iab == build_complex(["v0"])
        assert mv_homology(d) == expected_homology("sphere2")

    def test_tagged_copies(self, oct_decomposition):
        d = oct_decomposition
        assert Simplex("A:v0 A:v5") in d.a_bar.complex
        assert Simplex("B:v0 B:v4") in d.b_bar.complex
        assert Simplex("I:v0 I:v1") in d.iab_bar.complex
        for s in d.iab_bar.complex.simplices():
            assert retag(s, "I:", "A:") in d.a_bar.complex
            assert retag(s, "I:", "B:") in d.b_bar.complex


class TestGenerators:
    def test_octahedron_generators_frozen(self, oct_decomposition):
        d = oct_decomposition
        assert [str(g) for g in mv_generators(d, 0)] == ["FromA:A:v5", "FromB:B:v4"]
        assert [str(g) for g in mv_generators(d, 1)] == ["Shifted:I:v2"]
        assert [str(g) for g in mv_generators(d, 2)] == ["Shifted:I:v2,I:v3"]
        assert mv_generators(d, 3) == ()
        assert len(mv_generators(d)) == 4

    def test_generator_validation(self):
        with pytest.raises(FieldError):
            MVGenerator("FromC", Simplex("v0"), 0)
        with pytest.raises(FieldError):
            MVGenerator("FromA", Simplex("v0"), 1)  # degree must equal dim
        with pytest.raises(FieldError):
            MVGenerator(SHIFTED, Simplex("v0"), 0)  # shifted degree is dim + 1

    def test_records_behave_as_frozen_dataclasses(self):
        # the records are plain classes (no module imports `dataclasses`)
        # that keep what their frozen dataclasses gave
        g = MVGenerator("FromA", Simplex("A:v0 A:v1"), 1)
        h = MVGenerator("FromA", Simplex("A:v0 A:v1"), 1)
        assert g == h and hash(g) == hash(h) and g != ("FromA", g.simplex, 1)
        assert repr(g) == "MVGenerator(tag='FromA', simplex=Simplex('A:v0 A:v1'), degree=1)"
        t = MVTrajectory(1, g, h, (Simplex("A:v0"),), None, None, -1)
        u = MVTrajectory(1, g, h, (Simplex("A:v0"),), None, None, -1)
        assert t == u and hash(t) == hash(u) and t.weight == -1
        assert t != MVTrajectory(1, g, h, (Simplex("A:v0"),), None, None, 1)
        assert repr(t) == (f"MVTrajectory(case=1, beta={g!r}, alpha={g!r}, "
                           "steps=(Simplex('A:v0'),), p=None, l=None, weight=-1)")
        with pytest.raises(AttributeError, match="cannot assign to field 'tag'"):
            g.tag = "FromB"
        with pytest.raises(AttributeError, match="cannot delete field 'p'"):
            del t.p
        steps = (Simplex("v0 v1"), Simplex("v0"))
        r = Trajectory(steps, -1)
        assert r == Trajectory(list(steps), -1) and hash(r) == hash(Trajectory(steps, -1))
        assert r != Trajectory(steps, 1) and r != (steps, -1)
        assert repr(r) == "Trajectory(steps=(Simplex('v0 v1'), Simplex('v0')), weight=-1)"
        c = CheckResult("homology_equal", False, "H_1 differs")
        assert c == CheckResult("homology_equal", False, "H_1 differs")
        assert hash(c) == hash(CheckResult("homology_equal", False, "H_1 differs"))
        assert CheckResult("x", True) == CheckResult("x", True, "") != CheckResult("x", False)
        assert repr(c) == "CheckResult(name='homology_equal', ok=False, detail='H_1 differs')"
        v = VerifyReport((c,))
        assert v == VerifyReport((c,)) and hash(v) == hash(VerifyReport((c,)))
        assert v != VerifyReport(()) and not v.ok
        assert repr(v) == f"VerifyReport(checks=({c!r},))"
        with pytest.raises(AttributeError, match="cannot assign to field 'weight'"):
            r.weight = 1
        with pytest.raises(AttributeError, match="cannot assign to field 'ok'"):
            c.ok = True
        with pytest.raises(AttributeError, match="cannot delete field 'checks'"):
            del v.checks
        for record in (g, t, r, c, v):
            for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
                assert twin == record and twin is not record
        assert pickle.loads(pickle.dumps(t)).weight == -1

    @pytest.mark.parametrize("name", ["circle", "torus", "rp2", "sphere2"])
    def test_euler_characteristic_of_generators(self, corpus, name):
        x = corpus[name]
        rng = random.Random(11)
        for _ in range(3):
            a, b = random_cover(x, rng)
            d = build_decomposition(x, a, b, strategy="random", seed=17)
            top = max(g.degree for g in mv_generators(d))
            euler = sum(
                (-1) ** q * len(mv_generators(d, q)) for q in range(top + 1)
            )
            assert euler == x.euler_characteristic()

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.sampled_from(["overlapping", "disjoint", "equal"]),
           st.sampled_from([("lexicographic", None), ("random", 3), ("random", 11)]))
    def test_generator_table_on_covers(self, tmp_path_factory, rng, cover, strategy_seed):
        """Block by block, the table is the critical cells of the three
        copies' fields, the Shifted block one dimension down; the CLI's
        generator rows are its block lengths; and the degrees just off the
        table read as empty."""
        generators = random_generators(rng)
        if cover == "disjoint":
            others = [Simplex([v.replace("v", "w") for v in s.vertices])
                      for s in random_generators(rng)]
            a, b = SimplicialComplex(generators), SimplicialComplex(others)
            generators += others
        elif cover == "equal":
            a = b = SimplicialComplex(generators)
        else:
            a, b = random_cover(SimplicialComplex(generators), rng)
        x_text = "".join(" ".join(s.vertices) + "\n" for s in generators)
        strategy, seed = strategy_seed
        d = build_decomposition(parse_complex(x_text), a, b, strategy=strategy, seed=seed)
        fields = (d.w_a, d.w_b, d.w_i)
        top = max(d.a.dim, d.b.dim, d.iab.dim + 1 if d.iab is not None else 0)
        want = [
            tuple([_glued_id(d, k, f.complex._id(s)) for s in f.critical(q - (k == 2))]
                  if f is not None else [] for k, f in enumerate(fields))
            for q in range(top + 1)
        ]
        table = _generator_table(d)
        assert table == want
        # an overlapping cover of a disconnected X may still meet in nothing
        assert (d.iab is None) == (not set(a.simplices()) & set(b.simplices()))
        if cover == "equal":  # only the intersection reaches the top degree
            assert table[top][:2] == ([], []) and top == d.x.dim + 1

        directory = tmp_path_factory.mktemp("table")
        (directory / "x.cx").write_text(x_text)
        (directory / "x.dec").write_text(decomposition_text(a, b, {}))
        argv = ["homology", "--complex", str(directory / "x.cx"), "--decomposition",
                str(directory / "x.dec"), "--output", "json", "--strategy", strategy]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + (["--seed", str(seed)] if seed is not None else [])) == 0
        assert json.loads(out.getvalue())["generators"] == [
            {"degree": q, "from_a": len(blocks[0]), "from_b": len(blocks[1]),
             "shifted": len(blocks[2]), "total": sum(map(len, blocks))}
            for q, blocks in enumerate(want) if any(blocks)
        ]

        assert mv_generators(d, -1) == mv_generators(d, top + 1) == ()
        assert mv_generators(d, 0) == tuple(
            _generator(tag, s) for tag, f in (("FromA", d.w_a), ("FromB", d.w_b))
            for s in f.critical(0)
        )
        assert mv_boundary(d, -1) == mv_boundary(d, 0) == []
        assert mv_boundary(d, top + 1) == [[] for _ in itertools.chain(*want[top])]


class TestTrajectories:
    def test_worked_example_all_four(self, oct_decomposition):
        d = oct_decomposition
        (e,) = mv_generators(d, 1)
        (t,) = mv_generators(d, 2)
        a5 = MVGenerator("FromA", Simplex("A:v5"), 0)
        b4 = MVGenerator("FromB", Simplex("B:v4"), 0)

        (p1,) = enumerate_mv(d, e, a5)
        assert (p1.case, p1.p, p1.l, p1.weight) == (4, 0, 1, -1)
        assert p1.steps == (
            Simplex("I:v2"), Simplex("A:v2"), Simplex("A:v2 A:v5"), Simplex("A:v5"),
        )

        (p2,) = enumerate_mv(d, e, b4)
        assert (p2.case, p2.p, p2.l, p2.weight) == (5, 0, 1, 1)
        assert p2.steps == (
            Simplex("I:v2"), Simplex("B:v2"), Simplex("B:v2 B:v4"), Simplex("B:v4"),
        )

        q1, q2 = sorted(enumerate_mv(d, t, e), key=lambda s: len(s.steps))
        assert (q1.case, q1.weight) == (3, 1)
        assert q1.steps == (Simplex("I:v2 I:v3"), Simplex("I:v2"))
        assert (q2.case, q2.weight) == (3, -1)
        assert len(q2.steps) == 8  # walks all three intersection pairs

        for traj in (p1, p2, q1, q2):
            validate_mv_trajectory(d, traj)

    def test_disallowed_tag_routes_are_empty(self):
        # sphere with A = X and B one solid face: FromA has a degree-2
        # generator and Shifted a degree-1 one, but no case joins them
        x = corpus_complexes()["sphere2"]
        d = build_decomposition(x, x, build_complex(["v0 v1 v2"]))
        from_a2 = [g for g in mv_generators(d, 2) if g.tag == "FromA"]
        shifted1 = [g for g in mv_generators(d, 1) if g.tag == SHIFTED]
        assert from_a2 and shifted1
        assert enumerate_mv(d, from_a2[0], shifted1[0]) == []

        dw = wedge_decomposition()
        a_edge = [g for g in mv_generators(dw, 1) if g.tag == "FromA"]
        b_vertex = [g for g in mv_generators(dw, 0) if g.tag == "FromB"]
        assert a_edge and b_vertex
        assert enumerate_mv(dw, a_edge[0], b_vertex[0]) == []

    def test_boundary_entries_respect_routes(self):
        x = corpus_complexes()["torus"]
        rng = random.Random(23)
        a, b = random_cover(x, rng)
        d = build_decomposition(x, a, b)
        top = max(g.degree for g in mv_generators(d))
        for q in range(1, top + 1):
            rows = mv_generators(d, q - 1)
            cols = mv_generators(d, q)
            matrix = mv_boundary(d, q)
            for i, row_gen in enumerate(rows):
                for j, col_gen in enumerate(cols):
                    if matrix[i][j]:
                        assert (col_gen.tag, row_gen.tag) in ALLOWED_ROUTES

    def test_requires_valid_generators(self, oct_decomposition):
        d = oct_decomposition
        ghost = MVGenerator("FromA", Simplex("A:v0"), 0)  # matched, not critical
        (e,) = mv_generators(d, 1)
        with pytest.raises(FieldError):
            mv_trajectories_from(d, ghost)
        with pytest.raises(FieldError):
            enumerate_mv(d, e, ghost)

    def test_requires_consecutive_degrees(self, oct_decomposition):
        d = oct_decomposition
        (t,) = mv_generators(d, 2)
        a5 = MVGenerator("FromA", Simplex("A:v5"), 0)
        with pytest.raises(FieldError):
            enumerate_mv(d, t, a5)

    @pytest.mark.parametrize("name,strategy", COVERS)
    def test_every_enumerated_trajectory_validates(self, name, strategy):
        for d in cover_decompositions(name, strategy):
            for beta in mv_generators(d):
                if beta.degree == 0:
                    continue
                for ts in mv_trajectories_from(d, beta).values():
                    for t in ts:
                        validate_mv_trajectory(d, t)
                        assert t.weight in (-1, 1)

    @pytest.mark.parametrize("name,strategy", COVERS + INTERLEAVED)
    def test_walker_matches_brute_force(self, name, strategy):
        # same targets, same trajectories in the same order, same weights
        for d in cover_decompositions(name, strategy):
            for beta in mv_generators(d):
                got = {
                    alpha: [(t.case, t.steps, t.p, t.l, t.weight) for t in ts]
                    for alpha, ts in mv_trajectories_from(d, beta).items()
                }
                assert list(got.items()) == list(brute_mv_trajectories(d, beta).items())

    @pytest.mark.parametrize("name,strategy", COVERS + INTERLEAVED)
    def test_enumerate_is_the_walk_to_alpha(self, name, strategy):
        # enumerate_mv names only alpha's walks: the same trajectories in the
        # same order, with the same weights, as its group in the full walk
        for d in cover_decompositions(name, strategy):
            for beta in mv_generators(d):
                if beta.degree == 0:
                    continue
                grouped = mv_trajectories_from(d, beta)
                for alpha in mv_generators(d, beta.degree - 1):
                    got, want = enumerate_mv(d, beta, alpha), grouped.get(alpha, [])
                    assert got == want
                    assert [t.weight for t in got] == [t.weight for t in want]

    def test_enumerate_names_only_the_asked_pair(self, monkeypatch, oct_decomposition):
        """The walk out of e reaches A:v5 and B:v4; asked for A:v5, only the
        steps of its trajectory are named."""
        x, a, b = octahedron_pieces()  # a table of its own: no cell named yet
        d = build_decomposition(x, a, b, fields=octahedron_fields())
        (e,) = mv_generators(d, 1)
        a5 = MVGenerator("FromA", Simplex("A:v5"), 0)
        assert len(mv_trajectories_from(oct_decomposition, e)) == 2
        named, simplex = [], morsemv.complexes._Table.simplex

        def naming(table, i, tag):
            named.append(simplex(table, i, tag))
            return named[-1]

        monkeypatch.setattr(morsemv.complexes._Table, "simplex", naming)
        (t,) = enumerate_mv(d, e, a5)
        assert named and set(named) <= set(t.steps)

    def test_validate_rejects_tampering(self, oct_decomposition):
        d = oct_decomposition
        (e,) = mv_generators(d, 1)
        a5 = MVGenerator("FromA", Simplex("A:v5"), 0)
        (p1,) = enumerate_mv(d, e, a5)
        validate_mv_trajectory(d, p1)
        wrong_case = MVTrajectory(5, p1.beta, p1.alpha, p1.steps, p1.p, p1.l, p1.weight)
        with pytest.raises(InternalConsistencyError):
            validate_mv_trajectory(d, wrong_case)
        wrong_p = MVTrajectory(4, p1.beta, p1.alpha, p1.steps, 1, 0, p1.weight)
        with pytest.raises(InternalConsistencyError):
            validate_mv_trajectory(d, wrong_p)
        truncated = MVTrajectory(4, p1.beta, p1.alpha, p1.steps[:2], 0, 1, p1.weight)
        with pytest.raises(InternalConsistencyError):
            validate_mv_trajectory(d, truncated)
        flipped = MVTrajectory(4, p1.beta, p1.alpha, p1.steps, p1.p, p1.l, -p1.weight)
        with pytest.raises(InternalConsistencyError, match="weight"):
            validate_mv_trajectory(d, flipped)


class TestBoundaryAndHomology:
    def test_octahedron_matrices_frozen(self, oct_decomposition):
        d = oct_decomposition
        assert mv_boundary(d, 1) == [[-1], [1]]
        assert mv_boundary(d, 2) == [[0]]
        c = mv_chain_complex(d)
        assert c.ranks == (2, 1, 1)
        assert mv_homology(d) == expected_homology("sphere2")

    def test_boundary_composes_to_zero_on_random_covers(self, corpus):
        rng = random.Random(5)
        for name in ("circle", "sphere2", "klein", "wedge2circles"):
            x = corpus[name]
            a, b = random_cover(x, rng)
            # construction already checks d.d = 0; do the product here too
            c = mv_chain_complex(build_decomposition(x, a, b))
            for q in range(2, c.top + 1):
                lower, upper = c.boundaries[q - 2], c.boundaries[q - 1]
                product = [
                    [sum(lower[i][k] * upper[k][j] for k in range(len(upper)))
                     for j in range(len(upper[0]) if upper else 0)]
                    for i in range(len(lower))
                ]
                assert all(v == 0 for row in product for v in row)

    @pytest.mark.parametrize("name", sorted(corpus_complexes()))
    def test_homology_matches_oracle(self, corpus, name):
        x = corpus[name]
        rng = random.Random(1)
        a, b = random_cover(x, rng)
        for strategy, seed in (("lexicographic", None), ("random", 8)):
            d = build_decomposition(x, a, b, strategy=strategy, seed=seed)
            assert mv_homology(d) == simplicial_homology(x)

    def test_deterministic_rebuild(self):
        x = corpus_complexes()["rp2"]
        rng = random.Random(2)
        a, b = random_cover(x, rng)
        d1 = build_decomposition(x, a, b, strategy="random", seed=10)
        d2 = build_decomposition(x, a, b, strategy="random", seed=10)
        assert mv_generators(d1) == mv_generators(d2)
        top = max(g.degree for g in mv_generators(d1))
        for q in range(1, top + 1):
            assert mv_boundary(d1, q) == mv_boundary(d2, q)


def walked_columns(labels, paths_from) -> list[list[dict[int, int]]]:
    """The columns of every degree whose (r, c) entry sums the weights the
    walks gave the trajectories `paths_from(c)[r]`."""
    columns = []
    for rows, cols in zip(labels, labels[1:]):
        index = {r: i for i, r in enumerate(rows)}
        sums = [{index[r]: sum(t.weight for t in ts) for r, ts in paths_from(c).items()}
                for c in cols]
        columns.append([{i: w for i, w in col.items() if w} for col in sums])
    return columns


def test_flows_and_walks_read_one_signed_arc_rule(monkeypatch):
    """Every signed step comes from `morse._arcs`, or, for the transfer of
    cases 4/5, from `morse._transfer`.  On the octahedron cover with A's
    pair (v1 v2, v1 v2 v5) left out, the case-4 trajectory from I:v2 v3
    descends the square's long way round to I:v1 v2 and ends at the
    critical A:v1 v2.  Flipping the sign of the arcs out of one id on that
    way, the edge v0 v1, or of the transfer out of v1 v2, moves the
    boundaries assembled from flows (of the intersection's field, for the
    arcs, and of the MV complex) and the weights the walks read off the
    slow reference, and flows and walks still agree; unflipped, all three
    match.  A flipped MV boundary no longer squares to zero, so its columns
    are read from `mv_boundary`, which does not check that."""
    x, a, b = octahedron_pieces()
    fields = octahedron_fields()
    fields["A"] = [(s, t) for s, t in fields["A"] if t != Simplex("v1 v2 v5")]
    d = build_decomposition(x, a, b, fields=fields)
    w_i = d.w_i
    ts_labels = [w_i.critical(q) for q in range(w_i.complex.dim + 1)]
    mv_labels = [mv_generators(d, q) for q in range(len(_generator_keys(d)))]
    ts_paths = lambda tau: trajectories_from(w_i, tau)
    mv_paths = lambda beta: mv_trajectories_from(d, beta)

    def routes() -> list[tuple]:
        """(from flows, from walks, from the slow reference) per complex."""
        mv_flows = [
            [{i: v for i, row in enumerate(dense) if (v := row[j])} for j in range(len(cols))]
            for dense, cols in ((mv_boundary(d, q), mv_labels[q]) for q in range(1, len(mv_labels)))
        ]
        return [
            (thom_smale_complex(w_i).columns, walked_columns(ts_labels, ts_paths),
             reference_complex_columns(ts_labels, ts_paths)),
            (mv_flows, walked_columns(mv_labels, mv_paths),
             reference_complex_columns(mv_labels, mv_paths)),
        ]

    for flows, walks, reference in routes():
        assert flows == walks == reference
    assert len(enumerate_mv(d, MVGenerator(SHIFTED, Simplex("I:v2 I:v3"), 2),
                            MVGenerator("FromA", Simplex("A:v1 A:v2"), 1))) == 1
    assert mv_chain_complex(d).columns == reference_complex_columns(mv_labels, mv_paths)

    def flip(rule, at: int, negated):
        """`rule` with the sign of the steps out of the id `at` flipped, by
        `negated` on what the rule gives for one id, with the rule's glued
        offset and sign passed on."""
        def flipped(gvf, *glued):
            steps = rule(gvf, *glued)
            return lambda tau: negated(steps(tau)) if tau == at else steps(tau)
        return flipped

    # which complexes a flip moves: (the intersection's, the MV complex);
    # `_arcs` and `_transfer` each list the arcs out of an id
    for name, at, negated, moved in (
        ("_arcs", "v0 v1", lambda arcs: [(-c, s, nu) for c, s, nu in arcs], [True, True]),
        ("_transfer", "v1 v2", lambda arcs: [(-c, s, nu) for c, s, nu in arcs], [False, True]),
    ):
        with monkeypatch.context() as m:
            rule = flip(getattr(morsemv.morse, name), d.x._id(Simplex(at)), negated)
            for module in (morsemv.morse, morsemv.mv):
                m.setattr(module, name, rule)
            kept = routes()
        assert all(flows == walks for flows, walks, _ in kept)
        assert [flows != reference for flows, _, reference in kept] == moved


def test_the_intersection_descent_is_read_once(monkeypatch):
    """`mv_homology` reads the arcs out of each I-copy id at most once:
    cases 3, 4 and 5 share one memoised descent through the glued copies.
    On a seeded torus cover with random fields, the arcs of W_I are
    counted per id, wherever `morse` or `mv` asks for them."""
    x = corpus_complexes()["torus"]
    a, b = random_cover(x, random.Random(3))
    d = build_decomposition(x, a, b, strategy="random", seed=5)
    rule, reads = morsemv.morse._arcs, collections.Counter()

    def spied(gvf, *glued):
        arcs = rule(gvf, *glued)
        if gvf is not d.w_i:
            return arcs

        def counted(tau: int):
            reads[tau] += 1
            return arcs(tau)

        return counted

    for module in (morsemv.morse, morsemv.mv):
        monkeypatch.setattr(module, "_arcs", spied)
    assert mv_homology(d) == simplicial_homology(x)
    assert len(reads) > 1 and max(reads.values()) == 1
