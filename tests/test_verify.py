"""The glued complex, its two auxiliary fields, and the structural checks
tying the Mayer-Vietoris complex to plain simplicial homology."""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsemv import (
    IntegerChainComplex,
    InternalConsistencyError,
    Simplex,
    build_complex,
    build_decomposition,
    build_xtilde,
    check_iso_simplicial,
    check_main_iso,
    homology,
    mv_generators,
    simplicial_homology,
    thom_smale_complex,
    trajectories_from,
)
from morsemv.cli import main
from morsemv.complexes import _key
from morsemv.mv import _generator_keys, _mv_column
from morsemv.verify import (
    _A,
    _B,
    _INTERIOR,
    _build_v_field,
    _build_w_field,
    _forbidden_step,
    _w_tallies,
)
from conftest import (
    corpus_complexes,
    octahedron_fields,
    octahedron_pieces,
    poor_field,
    random_cover,
    random_small_complex,
)
from slow_reference import (
    classify_w_trajectory,
    enumerated_mv_tallies,
    enumerated_pair_checks,
    enumerated_w_tallies,
    listed_trajectories_fit,
    reference_closed_xtilde,
    reference_prism,
    reference_scan,
    reference_v_pairs,
    reference_w_pairs,
    reference_xtilde,
    retag,
)
from test_mv import COVERS, cover_decompositions

# the modules themselves: the package re-exports a function named `homology`
homology_module = importlib.import_module("morsemv.homology")
verify_module = importlib.import_module("morsemv.verify")
complexes_module = importlib.import_module("morsemv.complexes")
mv_module = importlib.import_module("morsemv.mv")
morse_module = importlib.import_module("morsemv.morse")
cli_module = importlib.import_module("morsemv.cli")


@pytest.fixture(scope="module")
def oct_xtilde(oct_decomposition):
    return build_xtilde(oct_decomposition)


def interior(xt):
    """The X~ cells in the prism interior, by the piece map."""
    return frozenset(xt.complex._simplex(i) for i, p in enumerate(xt._piece) if p == _INTERIOR)


def replaced(xt, **changes):
    """The X~ record xt with the fields named in `changes` replaced."""
    assert set(changes) <= set(xt._fields)
    return type(xt)(*[changes.get(f, getattr(xt, f)) for f in xt._fields])


def ids(xt, steps):
    """The X~ ids of the simplices `steps`, a trajectory's, say."""
    return [xt.complex._id(s) for s in steps]


def wedge_xtilde():
    x = build_complex(["v0 v1", "v1 v2", "v0 v2", "v0 v3", "v3 v4", "v0 v4"])
    a = build_complex(["v0 v1", "v1 v2", "v0 v2"])
    b = build_complex(["v0 v3", "v3 v4", "v0 v4"])
    return build_xtilde(build_decomposition(x, a, b))


class TestXTilde:
    def test_octahedron_census(self, oct_xtilde):
        xt = oct_xtilde
        assert xt.complex.f_vector() == (10, 24, 16)
        assert len(xt.complex) == 50
        # the prism over the equatorial square contributes the interior
        p = reference_prism(xt.decomposition)
        assert len(p.interior) == 50 - 17 - 17
        assert interior(xt) == p.interior
        # every interior cell lies over a simplex of the intersection
        d = xt.decomposition
        grounds = {d.x._simplex(xt._ground[i]) for i, p in enumerate(xt._piece) if p == _INTERIOR}
        assert grounds == set(d.iab.simplices())

    def test_gluing_is_by_vertex_names(self, oct_xtilde):
        xt = oct_xtilde
        assert Simplex("A:v0 B:v0") in xt.complex  # vertical prism edge
        assert Simplex("A:v0 A:v1 A:v5") in xt.complex
        assert Simplex("B:v0 B:v1 B:v4") in xt.complex
        assert xt.complex.euler_characteristic() == 2  # collapses to the sphere

    def test_empty_intersection(self):
        x = build_complex(["p", "q"])
        d = build_decomposition(x, build_complex(["p"]), build_complex(["q"]))
        xt = build_xtilde(d)
        assert reference_prism(d) is None and interior(xt) == frozenset()
        assert xt._members == {}
        assert xt.complex.f_vector() == (2,)
        assert check_iso_simplicial(xt).ok
        assert check_main_iso(xt).ok


class TestVField:
    def test_octahedron_field(self, oct_xtilde):
        v = _build_v_field(oct_xtilde)
        assert len(v.pairs) == 12
        assert len(v.critical()) == 26

    def test_critical_census_formula(self, oct_xtilde):
        xt = oct_xtilde
        d = xt.decomposition
        v = _build_v_field(xt)
        pushed = {retag(s, "I:", "B:") for s in d.iab_bar.complex.simplices()}
        expected = set(d.a_bar.complex.simplices()) | (
            set(d.b_bar.complex.simplices()) - pushed
        )
        assert set(v.critical()) == expected

    def test_pairs_collapse_each_block(self, oct_xtilde):
        xt = oct_xtilde
        v = _build_v_field(xt)
        p = reference_prism(xt.decomposition)
        for alpha in p.base.simplices():
            for r in range(alpha.dim + 1):
                assert v.field.up(p.b_member(alpha, r)) == p.a_member(alpha, r)
            # the top copy of alpha is swept away, the bottom copy survives
            assert v.field.is_matched(p.b_member(alpha, 0))
            assert not v.field.is_matched(p.b_member(alpha, alpha.dim + 1))


class TestWField:
    def test_octahedron_field(self, oct_xtilde):
        w = _build_w_field(oct_xtilde)
        assert len(w.pairs) == 23
        assert [str(c) for c in w.critical()] == [
            "[A:v5]", "[B:v4]", "[A:v2 B:v2]", "[A:v2 B:v2 B:v3]",
        ]
        p = reference_prism(oct_xtilde.decomposition)
        interior_criticals = tuple(c for c in w.critical() if c in p.interior)
        assert interior_criticals == (
            Simplex("A:v2 B:v2"), Simplex("A:v2 B:v2 B:v3"),
        )

    def test_critical_count_matches_generators(self, oct_xtilde):
        d = oct_xtilde.decomposition
        w = _build_w_field(oct_xtilde)
        for q in range(3):
            assert len(w.critical(q)) == len(mv_generators(d, q))


def reference_decompositions(name):
    """The pinned octahedron split, or 3 random covers of a corpus complex,
    each under the lexicographic and the random strategy."""
    if name == "octahedron":
        x, a, b = octahedron_pieces()
        yield build_decomposition(x, a, b, fields=octahedron_fields())
        return
    x = corpus_complexes()[name]
    rng = random.Random(len(name))
    for _ in range(3):
        a, b = random_cover(x, rng)
        yield build_decomposition(x, a, b)
        yield build_decomposition(x, a, b, strategy="random", seed=2)


@pytest.mark.parametrize("name", ["octahedron", *sorted(corpus_complexes())])
def test_xtilde_and_fields_match_reference(name):
    """X~, its interior and the pairs of V and W against the Simplex-set
    construction: the block formula on names and the prism closed alone."""
    for d in reference_decompositions(name):
        xt = build_xtilde(d)
        assert xt.complex == reference_xtilde(d)
        p = reference_prism(d)
        assert interior(xt) == (p.interior if p is not None else frozenset())
        assert set(_build_v_field(xt).pairs) == reference_v_pairs(d)
        assert set(_build_w_field(xt).pairs) == reference_w_pairs(d)


class TestBlockFaults:
    """A fault in a block's member lists, which V, W and f read, is an
    internal fault, never bad input: it fails a field certification, and
    `verify` exits 5.  X~ itself is laid out by the prism formula, so no
    block can lack a cell and no cell can lie outside the copies and the
    blocks; `TestLayout` checks the layout against X~ closed from tuples."""

    @staticmethod
    def verify_octahedron(capsys):
        golden = Path(__file__).parent / "golden"
        code = main(["verify", "--complex", str(golden / "octahedron.cx"),
                     "--decomposition", str(golden / "octahedron.dec"), "--output", "json"])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("fault,detail", [
        # every edge block lists the top (B-) copy of the edge's first vertex
        # as its b_member(edge, 0), the top copy of the edge
        ("top copy", "([B:v0], [A:v0 B:v0 B:v1]) is not a facet pair"),
        # every edge block lists b_member(edge, 1) as b_member(edge, 0) too
        ("b_member", "[A:v0 B:v1] appears in more than one pair"),
    ])
    def test_overlapping_block_fails_v_certification(self, monkeypatch, capsys, fault, detail):
        build = verify_module.build_xtilde

        def overlapping(d):
            xt = build(d)
            members = {}
            for alpha, (a_ids, b_ids) in xt._members.items():
                b_ids = list(b_ids)
                if len(a_ids) == 2 and fault == "top copy":
                    # facet 1 of an edge drops its second vertex
                    b_ids[0] = xt._copies[_B][d.x._table.facets[alpha][1]]
                elif len(a_ids) == 2:
                    b_ids[0] = b_ids[1]
                members[alpha] = (a_ids, b_ids)
            return replaced(xt, _members=members)

        monkeypatch.setattr(cli_module, "build_xtilde", overlapping)
        code, out = self.verify_octahedron(capsys)
        assert code == 5 and out.err == ""
        checks = json.loads(out.out)["checks"]
        assert checks[0] == {
            "stage": "simplicial", "name": "v_field_certified", "ok": False, "detail": detail,
        }
        # W pairs no top copy of the intersection, so only V fails
        assert [c["ok"] for c in checks[1:]] == [True] * 7


def assert_layout_matches_closure(d):
    """X~ laid out by the prism formula against X~ closed from vertex
    tuples (`reference_closed_xtilde`): the same cells, grouped by
    dimension, the same facets in the same order, the same piece, ground,
    copy and member maps, and the same verify reports; W is certified with
    no search."""
    xt, ref = build_xtilde(d), reference_closed_xtilde(d)
    table, ref_table = xt.complex._table, ref.complex._table
    verts, key = table.verts, functools.partial(_key, width=table.width)
    to_ref = [ref_table.index[key(vs)] for vs in verts]
    assert sorted(to_ref) == list(range(len(ref_table)))
    assert all(table.index[key(vs)] == j for j, vs in enumerate(verts))
    assert table.start == ref_table.start
    assert all(len(verts[j]) == q + 1
               for q, (lo, hi) in enumerate(zip(table.start, table.start[1:]))
               for j in range(lo, hi))
    assert [tuple(to_ref[f] for f in fs) for fs in table.facets] == [
        ref_table.facets[i] for i in to_ref
    ]
    assert [ref._piece[i] for i in to_ref] == list(xt._piece)
    assert [ref._ground[i] for i in to_ref] == xt._ground
    assert [[to_ref[j] if j >= 0 else -1 for j in own] for own in xt._copies] == list(ref._copies)
    assert list(xt._members) == list(ref._members)
    assert {alpha: tuple([to_ref[j] for j in ids] for ids in m)
            for alpha, m in xt._members.items()} == ref._members
    assert xt.complex == ref.complex and table.names == ref_table.names
    assert check_iso_simplicial(xt) == check_iso_simplicial(ref)
    assert check_main_iso(xt) == check_main_iso(ref)
    with mock.patch.object(morse_module, "_closed_trajectory",
                           side_effect=AssertionError("W was searched")):
        _build_w_field(xt)


class TestLayout:
    """`build_xtilde` lays X~ out by arithmetic on X's ids; the closure it
    replaced, now `slow_reference.reference_closed_xtilde`, checks it."""

    @pytest.mark.parametrize("name", ["octahedron", *sorted(corpus_complexes())])
    def test_corpus_covers(self, name):
        for d in reference_decompositions(name):
            assert_layout_matches_closure(d)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["lexicographic", "random"]))
    def test_hypothesis_covers(self, rng, strategy):
        x = random_small_complex(rng)
        a, b = random_cover(x, rng)
        assert_layout_matches_closure(
            build_decomposition(x, a, b, strategy=strategy, seed=rng.randint(0, 99))
        )


def drop_last_prism_pair(monkeypatch):
    """W loses its last interior pair, which leaves two cells critical that
    the census does not predict."""
    extension = verify_module._prism_extension

    def dropped(xt):
        pairs, criticals = extension(xt)
        return pairs[:-1], criticals

    monkeypatch.setattr(verify_module, "_prism_extension", dropped)


def moved_ground(xt):
    """X~ with the ground of the critical cell [A:v5] of V and W moved to v0."""
    ground = list(xt._ground)
    ground[xt.complex._id(Simplex("A:v5"))] = xt.decomposition.x._id(Simplex("v0"))
    return replaced(xt, _ground=ground)


def outcome(report):
    return [(c.name, c.ok) for c in report.checks]


class TestEarlyExits:
    """A stage stops at a failed field certification or a failed bijection;
    a failed census does not stop it."""

    def test_w_census_fault(self, oct_xtilde, monkeypatch):
        drop_last_prism_pair(monkeypatch)
        (check,) = check_main_iso(oct_xtilde).checks
        assert (check.name, check.ok) == ("w_field_certified", False)
        assert check.detail.startswith("W-field critical census mismatch: unexpected ")
        assert check_iso_simplicial(oct_xtilde).ok

    def test_images_fault(self, oct_xtilde):
        report = check_main_iso(moved_ground(oct_xtilde))
        assert outcome(report) == [
            ("w_field_certified", True), ("f_bijective_onto_generators", False),
        ]
        assert report.checks[1].detail == "images in degree 0 do not match the target generators"

    def test_distinguished_cell_fault(self, oct_xtilde, monkeypatch):
        """W is certified on the true X~; the X~ that f reads names the
        distinguished cell of another vertex block over [I:v2]."""
        xt = oct_xtilde
        w = _build_w_field(xt)
        monkeypatch.setattr(verify_module, "_build_w_field", lambda _: w)
        v2 = xt.decomposition.x._id(Simplex("v2"))
        members = dict(xt._members)
        other = next(a for a, (a_ids, _) in members.items() if a != v2 and len(a_ids) == 1)
        members[v2] = (members[other][0], members[v2][1])
        report = check_main_iso(replaced(xt, _members=members))
        assert outcome(report) == [
            ("w_field_certified", True), ("f_bijective_onto_generators", False),
        ]
        assert report.checks[1].detail == (
            "interior critical cell [A:v2 B:v2] is not the distinguished cell over [I:v2]"
        )

    def test_ground_fault_on_v_side(self, oct_xtilde):
        report = check_iso_simplicial(moved_ground(oct_xtilde))
        assert outcome(report) == [
            ("v_field_certified", True), ("v_critical_census", True), ("g_bijective", False),
        ]
        assert [c.detail for c in report.checks] == [
            "12 pairs, acyclic", "26 critical cells",
            "images in degree 0 do not match the target generators",
        ]

    def test_piece_fault_fails_only_the_census(self, oct_xtilde):
        """[B:v0], the top copy of an intersection vertex, marked as A-copy:
        the census expects it critical, and every later check still runs."""
        xt = oct_xtilde
        piece = bytearray(xt._piece)
        top = xt._copies[_B][xt.decomposition.x._id(Simplex("v0"))]
        piece[top] = _A
        report = check_iso_simplicial(replaced(xt, _piece=piece))
        assert outcome(report) == [
            ("v_field_certified", True), ("v_critical_census", False), ("g_bijective", True),
            ("boundary_matrices_equal", True), ("homology_equal", True),
        ]
        assert report.checks[1].detail.startswith("unexpected ")
        assert [c.detail for c in report.checks[2:]] == [
            "", "", "H_0 = Z, H_1 = 0, H_2 = Z",
        ]

    def test_census_details_name_cells(self, oct_xtilde, monkeypatch):
        """Both censuses name their cells as every other detail does."""
        xt = oct_xtilde
        piece = bytearray(xt._piece)
        piece[xt._copies[_B][xt.decomposition.x._id(Simplex("v0"))]] = _A
        v_report = check_iso_simplicial(replaced(xt, _piece=piece))
        assert v_report.checks[1].detail == "unexpected [], missing [[B:v0]]"
        drop_last_prism_pair(monkeypatch)
        assert check_main_iso(xt).checks[0].detail == (
            "W-field critical census mismatch: "
            "unexpected [[A:v2 B:v3], [A:v2 A:v3 B:v3]], missing []"
        )

    def test_cli_w_census_fault(self, monkeypatch, capsys):
        drop_last_prism_pair(monkeypatch)
        golden = Path(__file__).parent / "golden"
        code = main(["verify", "--complex", str(golden / "octahedron.cx"),
                     "--decomposition", str(golden / "octahedron.dec")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 5
        assert lines[0] == "simplicial:" and lines[6] == "mayer_vietoris:"
        assert [line[:6] for line in lines[1:6]] == ["  ok  "] * 5
        assert lines[7].startswith("  FAIL w_field_certified: W-field critical census mismatch")
        assert lines[8:] == ["verdict: FAIL (6 checks)"]


class TestClassification:
    def test_interior_and_crossing_types(self, oct_xtilde):
        xt = oct_xtilde
        w = _build_w_field(xt)
        top = Simplex("A:v2 B:v2 B:v3")
        mid = Simplex("A:v2 B:v2")
        types = sorted(
            classify_w_trajectory(xt, ids(xt, t.steps))
            for ts in trajectories_from(w, top).values()
            for t in ts
        )
        assert types == [3, 3]
        types = sorted(
            classify_w_trajectory(xt, ids(xt, t.steps))
            for ts in trajectories_from(w, mid).values()
            for t in ts
        )
        assert types == [4, 5]

    def test_one_sided_types(self):
        xt = wedge_xtilde()
        w = _build_w_field(xt)
        seen = set()
        for tau in w.critical():
            if tau.dim == 0:
                continue
            for ts in trajectories_from(w, tau).values():
                seen.update(classify_w_trajectory(xt, ids(xt, t.steps)) for t in ts)
        assert 1 in seen and 2 in seen

    def test_unclassifiable_trajectory_raises(self, oct_xtilde):
        bogus = [Simplex("A:v1 A:v5"), Simplex("B:v4")]
        with pytest.raises(InternalConsistencyError):
            classify_w_trajectory(oct_xtilde, ids(oct_xtilde, bogus))
        # leaves the interior into the B-copy, then crosses into the A-copy
        bogus = [Simplex("A:v2 B:v2"), Simplex("B:v2"), Simplex("B:v2 B:v3"), Simplex("A:v3")]
        with pytest.raises(InternalConsistencyError, match="no clean crossing"):
            classify_w_trajectory(oct_xtilde, ids(oct_xtilde, bogus))


def assert_counts_match_enumeration(xt) -> None:
    """Per critical pair, the count and weight sum from flows equal those of
    the listed trajectories, upstairs and in MV; the scan for a forbidden
    step finds one exactly when a listed trajectory fits no shape; and the
    three per-pair checks report what the enumerating ones report."""
    d = xt.decomposition
    w = _build_w_field(xt)
    upstairs, keys = _w_tallies(w), _generator_keys(d)
    mv = _mv_column(d, keys, split=True)
    # the flows' values at their roots: W's critical ids, MV's keys of positive degree
    nonempty = lambda tallies, roots: {k: tallies[k] for k in roots if tallies[k]}
    listed = enumerated_w_tallies(w)
    assert nonempty(upstairs, itertools.chain(*w._critical_ids)) == nonempty(listed, listed)
    listed = enumerated_mv_tallies(d)
    assert nonempty(mv, itertools.chain(*keys[1:])) == nonempty(listed, listed)
    assert (_forbidden_step(xt, w, upstairs) == "") == listed_trajectories_fit(xt, w)
    assert check_main_iso(xt).checks[2:5] == enumerated_pair_checks(xt)


class TestCountsAgainstEnumeration:
    """The per-pair checks of `check_main_iso` read counts and sums off
    flows; `slow_reference` lists every trajectory instead."""

    @pytest.mark.parametrize("name,strategy", COVERS)
    def test_corpus_covers(self, name, strategy):
        for d in cover_decompositions(name, strategy):
            assert_counts_match_enumeration(build_xtilde(d))

    def test_octahedron_pinned_fields(self, oct_xtilde):
        assert_counts_match_enumeration(oct_xtilde)

    def test_poor_fields(self):
        """Fields that leave cells critical at random, with probability p,
        on the corpus covers: there critical ends are reached with both
        signs, so a pair's (count, sum) tally can cancel."""
        cancelled = 0
        for name in sorted(corpus_complexes()):
            for d in cover_decompositions(name, "lexicographic"):
                pieces = {"A": d.a, "B": d.b, "I": d.iab}
                for p in (0.1, 0.3):
                    for seed in range(3):
                        rng = random.Random(seed)
                        fields = {k: poor_field(piece, p, rng)
                                  for k, piece in pieces.items() if piece is not None}
                        xt = build_xtilde(build_decomposition(d.x, d.a, d.b, fields=fields))
                        assert_counts_match_enumeration(xt)
                        w = _build_w_field(xt)
                        upstairs = _w_tallies(w)
                        cancelled += sum(
                            n != abs(total)
                            for tau in itertools.chain(*w._critical_ids)
                            for n, total in upstairs[tau].values()
                        )
        assert cancelled

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["lexicographic", "random"]))
    def test_hypothesis_complexes(self, rng, strategy):
        x = random_small_complex(rng)
        a, b = random_cover(x, rng)
        d = build_decomposition(x, a, b, strategy=strategy, seed=rng.randint(0, 99))
        assert_counts_match_enumeration(build_xtilde(d))

    @pytest.mark.parametrize("name", ["octahedron", "torus", "wedge2circles"])
    def test_scan_agrees_with_classifying_each_trajectory(self, name):
        """Every single wrong entry of the piece map, read by the scan alone
        (W stays the true field): the scan finds a forbidden step exactly
        when a listed trajectory fits no shape, on a trajectory or off."""
        xt = build_xtilde(next(reference_decompositions(name)))
        w = _build_w_field(xt)
        upstairs = _w_tallies(w)
        failures = 0
        for cell, true_piece in enumerate(xt._piece):
            for wrong in {_A, _B, _INTERIOR} - {true_piece}:
                piece = bytearray(xt._piece)
                piece[cell] = wrong
                bad = replaced(xt, _piece=piece)
                fits = listed_trajectories_fit(bad, w)
                assert (_forbidden_step(bad, w, upstairs) == "") == fits, (cell, wrong)
                failures += not fits
        assert failures

    def test_wrong_piece_fails_classification_on_both_paths(self, oct_xtilde):
        """One interior cell on a trajectory, b_member([v0 v1], 1), moved
        into the B-copy.  It has the dimension of its ground, so it sorts
        before the B-copy of that ground, W and f stay as they were, and
        only the classification can see the fault."""
        xt = oct_xtilde
        cell = xt.complex._id(Simplex("A:v0 B:v1"))
        assert xt._piece[cell] == _INTERIOR
        piece = bytearray(xt._piece)
        piece[cell] = _B
        bad = replaced(xt, _piece=piece)
        flows = check_main_iso(bad)
        assert [c.name for c in flows.checks if not c.ok] == ["trajectory_classification"]
        assert flows.checks[4].detail == (
            "trajectory leaves the B-copy at [A:v0 B:v1] -> [A:v0 A:v1 B:v1]"
        )
        listed = enumerated_pair_checks(bad)
        assert [c.name for c in listed if not c.ok] == ["trajectory_classification"]
        assert listed[2].detail == "interior trajectory leaves the interior"
        assert flows.checks[2:4] == listed[:2]


def scan_against_breadth_first(xt) -> int:
    """How many single wrong entries of the piece map make the scan find a
    forbidden step, checked against `slow_reference.reference_scan`, the
    breadth-first search it replaced: the ids with a non-empty tally in
    W's flow memo, W's critical ids aside, are the ids the search reaches
    beyond its roots, and on the true piece map and on every single wrong
    entry of it (W stays the true field) the scan finds a step exactly when
    the search does."""
    w = _build_w_field(xt)
    upstairs = _w_tallies(w)
    step, reached = reference_scan(xt, w, upstairs)
    assert step == _forbidden_step(xt, w, upstairs) == ""
    roots = list(itertools.chain(*w._critical_ids[1:]))
    assert set(reached[:len(roots)]) == set(roots) and len(set(reached)) == len(reached)
    critical = set(itertools.chain(*w._critical_ids))
    assert {i for i, t in upstairs.items() if t} - critical == set(reached[len(roots):])
    piece = bytearray(xt._piece)
    bad = replaced(xt, _piece=piece)
    failures = 0
    for cell, true_piece in enumerate(xt._piece):
        for wrong in {_A, _B, _INTERIOR} - {true_piece}:
            piece[cell] = wrong
            found = _forbidden_step(bad, w, upstairs) != ""
            assert found == (reference_scan(bad, w, upstairs)[0] != ""), (cell, wrong)
            failures += found
        piece[cell] = true_piece
    return failures


class TestScanAgainstBreadthFirst:
    """`_forbidden_step` reads the non-empty entries of W's flow memo; the
    breadth-first search it replaced checks the arcs it reads."""

    @pytest.mark.parametrize("name,strategy", COVERS)
    def test_corpus_covers(self, name, strategy):
        assert sum(map(scan_against_breadth_first,
                       map(build_xtilde, cover_decompositions(name, strategy))))

    def test_octahedron_pinned_fields(self, oct_xtilde):
        assert scan_against_breadth_first(oct_xtilde)

    @pytest.mark.parametrize("name", sorted(corpus_complexes()))
    def test_poor_fields(self, name):
        assert sum(map(scan_against_breadth_first,
                       map(build_xtilde, cover_decompositions(name, "poor"))))

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["lexicographic", "random"]))
    def test_hypothesis_complexes(self, rng, strategy):
        x = random_small_complex(rng)
        a, b = random_cover(x, rng)
        d = build_decomposition(x, a, b, strategy=strategy, seed=rng.randint(0, 99))
        scan_against_breadth_first(build_xtilde(d))


class TestChecks:
    def test_octahedron_all_green(self, oct_xtilde):
        r1 = check_iso_simplicial(oct_xtilde)
        assert r1.ok and all(c.ok for c in r1.checks)
        assert [c.name for c in r1.checks] == [
            "v_field_certified", "v_critical_census", "g_bijective",
            "boundary_matrices_equal", "homology_equal",
        ]
        r2 = check_main_iso(oct_xtilde)
        assert r2.ok and all(c.ok for c in r2.checks)
        assert [c.name for c in r2.checks] == [
            "w_field_certified", "f_bijective_onto_generators",
            "trajectory_counts_match", "trajectory_weights_match",
            "trajectory_classification", "boundary_matrices_equal",
            "homology_equal",
        ]

    def test_trivial_decomposition(self):
        x, _, _ = octahedron_pieces()
        d = build_decomposition(x, x, build_complex(["v0"]))
        xt = build_xtilde(d)
        assert check_iso_simplicial(xt).ok
        assert check_main_iso(xt).ok

    @pytest.mark.parametrize("name", ["torus", "rp2", "wedge2circles", "ball3"])
    def test_random_covers(self, corpus, name):
        x = corpus[name]
        rng = random.Random(7)
        a, b = random_cover(x, rng)
        d = build_decomposition(x, a, b, strategy="random", seed=4)
        xt = build_xtilde(d)
        assert check_iso_simplicial(xt).ok, str(check_iso_simplicial(xt))
        assert check_main_iso(xt).ok, str(check_main_iso(xt))
        assert simplicial_homology(xt.complex) == simplicial_homology(x)
        # the shared context against the slow references it replaces
        assert (
            xt.x_homology
            == simplicial_homology(x)
            == homology(thom_smale_complex(_build_v_field(xt)))
        )

    def test_chain_complex_of_x_built_once(self, oct_decomposition, monkeypatch):
        calls = []
        real = homology_module._simplicial_chains

        def counting(x, labels=None):
            calls.append(x)
            return real(x, labels)

        monkeypatch.setattr(homology_module, "_simplicial_chains", counting)
        monkeypatch.setattr(verify_module, "_simplicial_chains", counting)
        xt = build_xtilde(oct_decomposition)
        assert check_iso_simplicial(xt).ok and check_main_iso(xt).ok
        assert calls == [oct_decomposition.x]

    def test_report_rendering(self, oct_xtilde):
        report = check_iso_simplicial(oct_xtilde)
        text = str(report)
        assert "ok" in text and "v_field_certified" in text


@pytest.mark.parametrize("name", ["octahedron", "torus"])
@pytest.mark.parametrize("command", ["homology", "verify", "oracle"])
def test_passing_run_names_nothing(monkeypatch, capsys, command, name):
    """`homology`, and a passing `verify` or `oracle`, compare on ids and
    generator keys: they name no cell (of X or any other table) and build
    no MV generator.  Names are built only to word a failing check."""
    named, generators = [], []
    simplex, init = complexes_module._Table.simplex, mv_module.MVGenerator.__init__

    def naming(table, i, tag):
        named.append(i)
        return simplex(table, i, tag)

    def generating(g, *args, **kwargs):
        generators.append((args, kwargs))
        init(g, *args, **kwargs)

    monkeypatch.setattr(complexes_module._Table, "simplex", naming)
    monkeypatch.setattr(mv_module.MVGenerator, "__init__", generating)
    golden = Path(__file__).parent / "golden"
    argv = [command, "--complex", str(golden / f"{name}.cx"), "--output", "json"]
    if command != "oracle":
        argv += ["--decomposition", str(golden / f"{name}.dec")]
    assert main(argv) == 0
    assert capsys.readouterr().out == (golden / f"{name}.{command}.json").read_text(encoding="utf-8")
    assert (named, generators) == ([], [])


class TestFailingChecks:
    """Losing every trajectory leaves zero boundary matrices, which still
    square to zero, so the checks run to the end and must fail there."""

    @staticmethod
    def failed(report):
        return [c.name for c in report.checks if not c.ok]

    def test_without_field_trajectories(self, oct_xtilde, lose_trajectories):
        lose_trajectories("trajectories_from")
        r1 = check_iso_simplicial(oct_xtilde)
        assert not r1.ok
        assert self.failed(r1) == ["boundary_matrices_equal", "homology_equal"]
        # homology from the zero Thom-Smale matrices: one generator per cell
        assert r1.checks[-1].detail.startswith("(X~,V): H_0 = Z^6, H_1 = Z^12, H_2 = Z^8  vs  X:")
        r2 = check_main_iso(oct_xtilde)
        assert not r2.ok
        assert self.failed(r2) == [
            "trajectory_counts_match", "trajectory_weights_match",
            "trajectory_classification", "boundary_matrices_equal", "homology_equal",
        ]
        assert r2.checks[-1].detail.startswith("(X~,W): H_0 = Z^2, H_1 = Z, H_2 = Z  vs  MV:")

    def test_without_mv_trajectories(self, oct_xtilde, lose_trajectories):
        lose_trajectories("mv_trajectories_from")
        assert check_iso_simplicial(oct_xtilde).ok
        r2 = check_main_iso(oct_xtilde)
        assert not r2.ok
        assert self.failed(r2) == [
            "trajectory_counts_match", "trajectory_weights_match",
            "trajectory_classification", "boundary_matrices_equal", "homology_equal",
        ]
        # the Thom-Smale side is still right; the zero MV matrices are not
        assert r2.checks[-1].detail == (
            "(X~,W): H_0 = Z, H_1 = 0, H_2 = Z  vs  "
            "MV: H_0 = Z^2, H_1 = Z, H_2 = Z  vs  X: H_0 = Z, H_1 = 0, H_2 = Z"
        )

    def test_corrupted_target_reports_first_entries_row_major(self, oct_xtilde):
        # Negating three columns of d_2 keeps d o d = 0 and changes nine
        # entries; the report names the first five in row-major order.
        x = oct_xtilde.x_chains
        d_1, bad = x.boundaries
        for row in bad:
            row[:3] = [-v for v in row[:3]]
        corrupt = IntegerChainComplex(x.ranks, [d_1, bad], x.labels)
        report = check_iso_simplicial(replaced(oct_xtilde, x_chains=corrupt))
        assert self.failed(report) == ["boundary_matrices_equal"]
        good = x.boundaries[1]
        spots = [(i, j) for i, row in enumerate(bad) for j, v in enumerate(row)
                 if good[i][j] != v]
        assert len(spots) == 9
        detail = report.checks[-2].detail
        assert detail == f"degree 2 differs at entries {spots[:5]}"
        # the text the dense comparison produced, entry for entry
        assert detail == "degree 2 differs at entries [(0, 0), (0, 1), (1, 2), (2, 0), (2, 2)]"
