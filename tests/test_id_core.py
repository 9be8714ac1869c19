"""The integer-id core: one id table per closed complex, pieces as views
over it, copies as tags, and the field code on ids, each checked against
the freshly closed complex or the Simplex-keyed reference it replaced."""
from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsemv import (
    DecompositionError,
    FieldError,
    NotAcyclicError,
    Simplex,
    SimplicialComplex,
    VectorField,
    build_decomposition,
    build_xtilde,
    check_iso_simplicial,
    check_main_iso,
    greedy_gvf,
    mv_chain_complex,
    mv_generators,
    mv_homology,
    parse_complex,
    simplicial_homology,
)
from morsemv.cli import _load_decomposition, main
from morsemv.complexes import _Table, copy_relabel, intersection, union
from morsemv.homology import simplicial_chain_complex
from morsemv.morse import GradientField, is_acyclic
from conftest import (
    corpus_complexes,
    decomposition_text,
    expected_homology,
    poor_field,
    random_cover,
    random_generators,
)
from slow_reference import (
    ReferencePrism,
    reference_closed_trajectory,
    reference_greedy,
    reference_table,
    reference_xtilde_maps,
)

STRATEGIES = [("lexicographic", None), ("random", 1), ("random", 2), ("random", 3)]


def cover_pieces(x: SimplicialComplex, seed: int):
    """The views A, B and (when nonempty) A n B of 3 random covers of x,
    each with the generators a fresh closure of it starts from."""
    rng = random.Random(seed)
    for _ in range(3):
        a, b = random_cover(x, rng)
        d = build_decomposition(x, a, b)
        yield d.a, a.maximal_simplices
        yield d.b, b.maximal_simplices
        if d.iab is not None:
            yield d.iab, d.iab.maximal_simplices


def random_matching(x: SimplicialComplex, rng: random.Random) -> VectorField:
    """A random matching of facet pairs of x; on a closed surface many of
    them have closed trajectories."""
    candidates = [(sigma, tau) for tau in x.simplices() for sigma in x.facets(tau)]
    rng.shuffle(candidates)
    used: set[Simplex] = set()
    pairs = []
    for sigma, tau in candidates[: rng.randint(0, len(candidates))]:
        if sigma not in used and tau not in used:
            used |= {sigma, tau}
            pairs.append((sigma, tau))
    return VectorField(pairs)


def check_witness(field: VectorField, w) -> None:
    assert w is not None and w[0] == w[-1] and len(w) >= 5
    for i in range(1, len(w), 2):
        sigma, tau_prev = w[i], w[i - 1]
        assert sigma.is_face_of(tau_prev)
        assert field.down(tau_prev) != sigma
        assert field.up(sigma) == w[i + 1]


class TestIdTable:
    def test_ids_sorted_by_dimension_then_vertices(self):
        rng = random.Random(8)
        complexes = list(corpus_complexes().values())
        complexes += [SimplicialComplex(random_generators(rng)) for _ in range(40)]
        for x in complexes:
            table = x._table
            assert table.names == sorted(table.names)
            assert all(isinstance(v, int) for vs in table.verts for v in vs)
            named = [tuple(table.names[v] for v in vs) for vs in table.verts]
            keys = [(len(vs), vs) for vs in named]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            for q in range(x.dim + 1):
                lo, hi = table.start[q], table.start[q + 1]
                assert all(len(vs) == q + 1 for vs in table.verts[lo:hi])
            for i, vs in enumerate(table.verts):
                assert [table.verts[f] for f in table.facets[i]] == [
                    vs[:k] + vs[k + 1:] for k in range(len(vs)) if len(vs) > 1
                ]
                cof = table.cofacets[i]
                assert cof == sorted(cof)
                assert all(i in table.facets[t] for t in cof)
            assert [s.vertices for s in x.simplices()] == named


# vertex names whose string order is not their numeric order, non-ASCII
# names, and names holding the copy tags' colon
AWKWARD_NAMES = ["v9", "v10", "v2", "v1", "é", "Ωmega", "a:b", "A:v1", ":", "z:"]


class TestTableAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from(AWKWARD_NAMES), min_size=1, max_size=4, unique=True),
        min_size=1, max_size=12,
    ))
    def test_int_table_matches_name_closure(self, generators):
        verts, facets, cofacets = reference_table(tuple(sorted(g)) for g in generators)
        text = "".join(" ".join(g) + "\n" for g in generators)
        for x in (SimplicialComplex(Simplex(g) for g in generators), parse_complex(text)):
            table = x._table
            assert [tuple(table.names[v] for v in vs) for vs in table.verts] == verts
            assert table.facets == facets
            assert table.cofacets == cofacets
            assert [s.vertices for s in x.simplices()] == verts

    def test_xtilde_piece_and_ground_match_names(self):
        for name, x in sorted(corpus_complexes().items()):
            rng = random.Random(len(name))
            for _ in range(3):
                xt = build_xtilde(build_decomposition(x, *random_cover(x, rng)))
                piece, ground = reference_xtilde_maps(xt)
                assert list(xt._piece) == piece
                assert xt._ground == ground


class TestViews:
    def views(self):
        for name, x in sorted(corpus_complexes().items()):
            for view, generators in cover_pieces(x, sum(map(ord, name))):
                yield x, view, SimplicialComplex(generators)
                tag = "A:"
                fresh_tagged = SimplicialComplex(
                    Simplex([tag + v for v in g.vertices]) for g in generators
                )
                yield None, copy_relabel(view, tag).complex, fresh_tagged

    def test_view_matches_fresh_complex(self):
        rng = random.Random(5)
        for x, view, fresh in self.views():
            assert view == fresh and fresh == view
            assert len(view) == len(fresh)
            assert view.dim == fresh.dim and view.vertices == fresh.vertices
            assert view.f_vector() == fresh.f_vector()
            for q in range(-1, fresh.dim + 2):
                assert view.simplices(q) == fresh.simplices(q)
            assert view.simplices() == fresh.simplices()
            assert view.maximal_simplices == fresh.maximal_simplices
            for s in fresh.simplices():
                assert s in view and -s in view
                assert view.facets(s) == fresh.facets(s)
                assert view.cofacets(s) == fresh.cofacets(s)
            assert view.is_subcomplex_of(fresh) and fresh.is_subcomplex_of(view)
            assert union(view) == fresh
            assert ReferencePrism(view, "Pa:", "Pb:").complex == ReferencePrism(
                fresh, "Pa:", "Pb:"
            ).complex
            chains, fresh_chains = simplicial_chain_complex(view), simplicial_chain_complex(fresh)
            assert chains.columns == fresh_chains.columns
            assert chains.labels == fresh_chains.labels
            if x is not None:
                assert view.is_subcomplex_of(x)
                assert x.is_subcomplex_of(view) == (len(view) == len(x))
                for s in x.simplices():
                    assert (s in view) == (s in fresh)
                names = sorted(x.vertices)
                for _ in range(10):
                    vs = rng.sample(names, rng.randint(1, min(4, len(names))))
                    assert (vs in view) == (vs in fresh)

    def test_views_share_the_table(self):
        x = corpus_complexes()["torus"]
        a, b = random_cover(x, random.Random(3))
        d = build_decomposition(x, a, b)
        for piece in (d.a, d.b, d.iab):
            assert piece._table is x._table
        for copy in (d.a_bar, d.b_bar, d.iab_bar):
            assert copy.complex._table is x._table
        assert intersection(d.a, d.b) == intersection(a, b)

    @staticmethod
    def tables_closed(monkeypatch, command: str, name: str) -> int:
        """How many id tables one CLI run of `command` on a golden closes."""
        tables = []
        init = _Table.__init__

        def counted(self, *args):
            tables.append(self)
            init(self, *args)

        monkeypatch.setattr(_Table, "__init__", counted)
        golden = Path(__file__).parent / "golden"
        assert main([command, "--complex", str(golden / f"{name}.cx"),
                     "--decomposition", str(golden / f"{name}.dec")]) == 0
        return len(tables)

    def test_homology_closes_only_x(self, monkeypatch, capsys):
        assert self.tables_closed(monkeypatch, "homology", "torus") == 1
        assert "H_1 = Z^2" in capsys.readouterr().out

    def test_verify_closes_x_and_xtilde(self, monkeypatch, capsys):
        assert self.tables_closed(monkeypatch, "verify", "octahedron") == 2
        assert "verdict: PASS" in capsys.readouterr().out

    def test_subcomplex_of_a_view_is_a_view(self):
        x = corpus_complexes()["sphere3"]
        face = x.subcomplex(["v0 v1 v2"])
        edge = face.subcomplex(["v1 v2"])
        assert edge._table is x._table
        assert edge == SimplicialComplex(["v1 v2"])
        assert edge.is_subcomplex_of(face) and not face.is_subcomplex_of(edge)


def check_greedy(x: SimplicialComplex, strategy: str, seed: int | None) -> None:
    gvf = greedy_gvf(x, strategy, seed)
    pairs, critical = reference_greedy(x, strategy, seed)
    assert gvf.pairs == pairs
    assert gvf.critical() == critical


class TestGreedyAgainstReference:
    @pytest.mark.parametrize("strategy,seed", STRATEGIES)
    @pytest.mark.parametrize("name", sorted(corpus_complexes()))
    def test_corpus_and_cover_pieces(self, name, strategy, seed):
        x = corpus_complexes()[name]
        check_greedy(x, strategy, seed)
        for view, generators in cover_pieces(x, len(name)):
            check_greedy(view, strategy, seed)
            check_greedy(copy_relabel(view, "I:").complex, strategy, seed)
            fresh = SimplicialComplex(generators)
            assert greedy_gvf(fresh, strategy, seed).pairs == greedy_gvf(
                view, strategy, seed
            ).pairs

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(STRATEGIES))
    def test_hypothesis_complexes(self, rng, strategy_seed):
        check_greedy(SimplicialComplex(random_generators(rng)), *strategy_seed)


class TestAcyclicityAgainstReference:
    def test_random_matchings(self):
        rng = random.Random(31)
        cyclic = acyclic = 0
        complexes = list(corpus_complexes().values())
        for _ in range(300):
            x = rng.choice(complexes)
            field = random_matching(x, rng)
            want = reference_closed_trajectory(field, x)
            assert is_acyclic(field, x) == (want is None)
            if want is None:
                acyclic += 1
                gvf = GradientField.certify(field, x)
                assert gvf.pairs == field.pairs
                continue
            cyclic += 1
            with pytest.raises(NotAcyclicError) as e:
                GradientField.certify(field, x)
            assert e.value.witness == want
            check_witness(field, e.value.witness)
        assert cyclic > 20 and acyclic > 20

    def test_tagged_copy(self):
        x = corpus_complexes()["torus"]
        copy = copy_relabel(x, "A:")
        rng = random.Random(2)
        for _ in range(30):
            field = random_matching(x, rng)
            pushed = VectorField((copy.push(s), copy.push(t)) for s, t in field)
            want = reference_closed_trajectory(pushed, copy.complex)
            assert is_acyclic(pushed, copy.complex) == (want is None)
            assert is_acyclic(field, x) == (want is None)
            if len(field):  # the copy's members carry the tag
                with pytest.raises(FieldError, match="not in the complex"):
                    is_acyclic(field, copy.complex)


def load(tmp_path, x: SimplicialComplex, dec: str):
    """(decomposition, strategy, seed) as the CLI loads x with this
    decomposition file."""
    lines = [" ".join(s.vertices) + "\n" for s in x.maximal_simplices]
    (tmp_path / "x.cx").write_text("".join(lines))
    (tmp_path / "x.dec").write_text(dec)
    args = argparse.Namespace(complex=str(tmp_path / "x.cx"),
                              decomposition=str(tmp_path / "x.dec"), strategy=None, seed=None)
    _, d, strategy, seed = _load_decomposition(args)
    return d, strategy, seed


def homology_json(tmp_path, capsys) -> dict:
    assert main(["homology", "--complex", str(tmp_path / "x.cx"),
                 "--decomposition", str(tmp_path / "x.dec"), "--output", "json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestPinnedFields:
    def test_poor_fields_match_the_oracle_and_verify(self, tmp_path):
        poorer = 0
        for name, x in sorted(corpus_complexes().items()):
            oracle = simplicial_homology(x)
            assert oracle == expected_homology(name)
            rng = random.Random(sum(map(ord, name)))
            for _ in range(2):
                a, b = random_cover(x, rng)
                greedy = build_decomposition(x, a, b)
                pieces = {"A": greedy.a, "B": greedy.b, "I": greedy.iab}
                for p in (0.1, 0.3):
                    for seed in range(3):
                        field_rng = random.Random(seed)
                        fields = {k: poor_field(piece, p, field_rng)
                                  for k, piece in pieces.items() if piece is not None}
                        d, _, _ = load(tmp_path, x, decomposition_text(a, b, fields))
                        assert mv_homology(d) == oracle
                        xt = build_xtilde(d)
                        assert check_iso_simplicial(xt).ok and check_main_iso(xt).ok
                        poorer += len(mv_generators(d)) > len(mv_generators(greedy))
        assert poorer > 20

    @pytest.mark.parametrize("name", sorted(corpus_complexes()))
    def test_pinning_the_greedy_pairs_reproduces_the_greedy_run(self, tmp_path, capsys, name):
        x = corpus_complexes()[name]
        rng = random.Random(len(name))
        for seed in range(3):
            a, b = random_cover(x, rng)
            greedy, strategy, _ = load(
                tmp_path, x, decomposition_text(a, b, {}) + f"[fields]\nauto random {seed}\n"
            )
            assert strategy == "random"
            greedy_json = homology_json(tmp_path, capsys)
            fields = {
                piece: [(copy.pull(sigma), copy.pull(tau)) for sigma, tau in w.pairs]
                for piece, w, copy in (("A", greedy.w_a, greedy.a_bar),
                                       ("B", greedy.w_b, greedy.b_bar),
                                       ("I", greedy.w_i, greedy.iab_bar))
                if w is not None
            }
            pinned, strategy, _ = load(tmp_path, x, decomposition_text(a, b, fields))
            assert strategy == "lexicographic"
            assert mv_generators(pinned) == mv_generators(greedy)
            assert mv_chain_complex(pinned).columns == mv_chain_complex(greedy).columns
            assert mv_homology(pinned) == mv_homology(greedy) == expected_homology(name)
            pinned_json = homology_json(tmp_path, capsys)
            assert (greedy_json["strategy"], greedy_json["seed"]) == ("random", seed)
            assert (pinned_json["strategy"], pinned_json["seed"]) == ("lexicographic", None)
            for payload in (greedy_json, pinned_json):
                del payload["strategy"], payload["seed"]
            assert pinned_json == greedy_json


def run_cli(tmp_path, capsys, cx: str, dec: str):
    (tmp_path / "x.cx").write_text(cx)
    (tmp_path / "x.dec").write_text(dec)
    code = main(["homology", "--complex", str(tmp_path / "x.cx"),
                 "--decomposition", str(tmp_path / "x.dec")])
    return code, capsys.readouterr().err


TWO_EDGES = "v0 v1\nv1 v2\n"
CIRCLE = "v0 v1\nv1 v2\nv0 v2\n"


@pytest.mark.parametrize("cx,dec,code,message", [
    (TWO_EDGES, "[A]\nv0 v9\n[B]\nv1 v2\n", 3, "A is not a subcomplex of X"),
    (TWO_EDGES, "[A]\nv0 v1\n[B]\nv1 v7\n", 3, "B is not a subcomplex of X"),
    (TWO_EDGES, "[A]\nv0 v1\n[B]\nv0 v1\n", 3, "A u B does not cover X"),
    (TWO_EDGES, "[A]\nv0 v1\n[B]\nv1 v2\n[fields]\nA: v2 -> v1 v2\n", 3,
     "field pair ([v2], [v1 v2]) references [v2], which is not a simplex of A"),
    (TWO_EDGES, "[A]\nv0 v1\n[B]\nv1 v2\n[fields]\nI: v0 -> v0 v1\n", 3,
     "field pair ([v0], [v0 v1]) references [v0], which is not a simplex of I"),
    (TWO_EDGES, "[A]\nv0 v1\n[B]\nv1 v2\n[fields]\nA: v0 -> v0 v1\nA: v1 -> v0 v1\n", 3,
     "[A:v0 A:v1] appears in more than one pair"),
    ("p\nq\n", "[A]\np\n[B]\nq\n[fields]\nI: p -> p\n", 3,
     "a field was supplied for an empty intersection"),
    (CIRCLE, "[A]\nv0 v1\nv1 v2\nv0 v2\n[B]\nv0 v1\n[fields]\n"
             "A: v0 -> v0 v1\nA: v1 -> v1 v2\nA: v2 -> v0 v2\n", 4,
     "closed trajectory through [A:v0 A:v1]"),
    (CIRCLE, "[A]\nv0 v1\nv1 v2\nv0 v2\n[B]\nv0 v1\nv1 v2\nv0 v2\n[fields]\n"
             "I: v0 -> v0 v1\nI: v1 -> v1 v2\nI: v2 -> v0 v2\n", 4,
     "closed trajectory through [I:v0 I:v1]"),
])
def test_cover_and_pinned_field_errors_keep_code_and_text(
    tmp_path, capsys, cx, dec, code, message
):
    assert run_cli(tmp_path, capsys, cx, dec) == (code, f"error: {message}\n")


def test_pinned_pair_ends_may_be_strings():
    """A pair end given as a string is split on whitespace, as
    `SimplicialComplex` and `subcomplex` split one, so it pins the same
    pair as a Simplex or a tuple of names; a bad end is still named."""
    x = SimplicialComplex(["v0 v1 v2", "v0 v2 v3"])
    a, b = x.subcomplex(["v0 v1 v2"]), x.subcomplex(["v0 v2 v3"])
    pinned = [
        build_decomposition(x, a, b, fields={"A": [ends]})
        for ends in [("v1", "v0 v1"), ("v1", "v1 v0"), (("v1",), ("v1", "v0")),
                     (Simplex("v1"), Simplex("v0 v1"))]
    ]
    assert {d.w_a.pairs for d in pinned} == {((Simplex("A:v1"), Simplex("A:v0 A:v1")),)}
    with pytest.raises(DecompositionError, match=r"references \[v3\], which is not a simplex of A"):
        build_decomposition(x, a, b, fields={"A": [("v3", "v0 v3")]})


@pytest.mark.parametrize("dec,message", [
    ("[A]\nv0 v1\n[B]\nv1 v2\n[fields]\nA: v1 -> v2 v1\n",
     "field pair ([v1], -[v1 v2]) references -[v1 v2], which is not a simplex of A"),
    ("[A]\nv0 v1\n[B]\nv1 v2\n[fields]\nA: v0 v1 -> v0 v1 v2\n",
     "field pair ([v0 v1], [v0 v1 v2]) references [v0 v1 v2], which is not a simplex of A"),
    ("[A]\nv0 v1\n[B]\nv1 v2\n[fields]\nA: v1 -> v1 v0\nB: v2 v1 -> v1\n",
     "([B:v1 B:v2], [B:v1]) is not a facet pair"),
    ("[A]\nv0 v1\n[B]\nv1 v2\n[fields]\nB: v2 -> v2 v1\nB: v1 -> v2 v1\n",
     "[B:v1 B:v2] appears in more than one pair"),
])
def test_pinned_pair_ends_keep_their_orientation_in_errors(tmp_path, capsys, dec, message):
    assert run_cli(tmp_path, capsys, TWO_EDGES, dec) == (3, f"error: {message}\n")
