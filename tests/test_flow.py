"""Boundaries from Forman's flow against the enumeration they replace.

Every boundary matrix in the package is assembled from memoised flows on
ids (`morse._flow`) over the arcs of the one signed step rule
`morse._arcs`: of one field, or, for the MV complex, of the three copies
glued into one digraph (`mv._glued`), whose I-copy cells carry the
transfer `morse._transfer` as well, and whose arcs carry the sign of
each MV case, so the plain flow of a generator's glued id is its MV
column.  The walks (`morse._walk`) that enumerate trajectories read the
same digraphs.  Here each boundary is compared, column for column, with
`slow_reference.reference_columns`, which sums the weights of the
enumerated trajectories, recomputed with `incidence` and its own table
of case signs, on the corpus covers, on hypothesis complexes and on a
family whose trajectory count doubles with each layer; the MV complex
also on poor fields and on a disjoint cover.  On the doubling family
`verify`'s per-pair counts, also read off flows, are checked against the
enumeration as well, and at 40 layers `verify` runs where no enumeration
could.  The split MV flow, from which `verify` reads its target, counts
and sums, is checked against the signed flow and the enumeration it
replaces.  And the kernel itself, plain and split, is checked root by root
against the per-end sums of the enumerated trajectories, zero sums
included, on the glued MV digraph and on each copy's own field.
"""
from __future__ import annotations

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsemv import (
    GradientField,
    InternalConsistencyError,
    SimplicialComplex,
    VectorField,
    build_decomposition,
    build_xtilde,
    check_iso_simplicial,
    check_main_iso,
    enumerate_mv,
    greedy_gvf,
    homology,
    mv_chain_complex,
    mv_generators,
    mv_homology,
    simplicial_homology,
    thom_smale_complex,
    trajectories_from,
)
from morsemv.cli import main
from morsemv.morse import _arcs, _boundary_columns, _flow
from morsemv.mv import (
    FROM_A,
    SHIFTED,
    MVGenerator,
    _TAGS,
    _generator_keys,
    _glued,
    _glued_id,
    _mv_column,
    _named_generator,
    _require_generator,
    mv_boundary,
    mv_trajectories_from,
)
from morsemv.verify import (
    _build_v_field,
    _build_w_field,
    _sums,
    _w_tallies,
)
from conftest import branching_complex, corpus_complexes, random_cover, random_small_complex
from slow_reference import enumerated_mv_tallies, reference_complex_columns, reference_weight, retag
from test_mv import COVERS, INTERLEAVED, cover_decompositions
from test_verify import assert_counts_match_enumeration


def thom_smale_reference(gvf: GradientField) -> list[list[dict[int, int]]]:
    labels = [gvf.critical(q) for q in range(gvf.complex.dim + 1)]
    return reference_complex_columns(labels, lambda tau: trajectories_from(gvf, tau))


def mv_reference(d) -> list[list[dict[int, int]]]:
    labels = [mv_generators(d, q) for q in range(len(_generator_keys(d)))]
    return reference_complex_columns(labels, lambda beta: mv_trajectories_from(d, beta))


def assert_thom_smale_matches(gvf: GradientField) -> None:
    """Thom-Smale columns from the flow equal the enumerated sums, and every
    enumerated weight equals the reference."""
    assert thom_smale_complex(gvf).columns == thom_smale_reference(gvf)
    for tau in gvf.critical():
        for ts in trajectories_from(gvf, tau).values():
            assert all(t.weight == reference_weight(t) for t in ts)


def assert_mv_matches(d) -> None:
    """The generators come in canonical order, MV columns from the flow
    equal the enumerated sums, in the complex and in `mv_boundary`, the
    plain flow over the glued copies is those columns with no sign or key
    applied after it, and every enumerated weight equals the reference."""
    gens = mv_generators(d)
    assert list(gens) == sorted(
        gens, key=lambda g: (g.degree, _TAGS.index(g.tag), g.simplex.key)
    )
    want = mv_reference(d)
    assert mv_chain_complex(d).columns == want
    keys = _generator_keys(d)
    flow = _flow(*_glued(d), itertools.chain(*keys[1:]))
    assert [_boundary_columns(keys[q - 1], keys[q], flow) for q in range(1, len(keys))] == want
    for q, columns in enumerate(want, start=1):
        dense = mv_boundary(d, q)
        assert [{i: v for i, row in enumerate(dense) if (v := row[j])}
                for j in range(len(columns))] == columns
    for beta in mv_generators(d):
        for ts in mv_trajectories_from(d, beta).values():
            assert all(t.weight == reference_weight(t) for t in ts)


def assert_split_mv_flow_matches(d) -> None:
    """The split MV flow, which `verify` reads its target, counts and sums
    from, against the paths it replaces: its sums (over w of w n) are the
    columns of `mv_chain_complex`, from the signed flow, and its counts (of
    n) those of the enumerated trajectories."""
    keys = _generator_keys(d)
    tallies = _mv_column(d, keys, split=True)
    assert [
        _boundary_columns(keys[q - 1], keys[q], _sums(tallies, keys[q]))
        for q in range(1, len(keys))
    ] == mv_chain_complex(d).columns
    counts = lambda t, ks: {k: {r: n for r, (n, _) in t[k].items()} for k in ks if t[k]}
    enumerated = enumerated_mv_tallies(d)
    assert counts(tallies, itertools.chain(*keys[1:])) == counts(enumerated, enumerated)


def assert_kernel_values_match(arcs, down, roots, paths_from, key) -> None:
    """At every root, the plain and the split value of `morse._flow` over
    the digraph (arcs, down) are the per-end sums over the trajectories
    `paths_from(root)` lists, grouped by end, their weights recomputed by
    `reference_weight` and their ends keyed by `key`: {end: sum} and {end:
    (count, sum)}, an end whose weights cancel kept in both."""
    plain = _flow(arcs, down, roots)
    split = _flow(arcs, down, roots, split=True)
    for root in roots:
        weights = {key(end): [reference_weight(t) for t in ts]
                   for end, ts in paths_from(root).items()}
        assert plain[root] == {r: sum(ws) for r, ws in weights.items()}
        assert split[root] == {r: (len(ws), sum(ws)) for r, ws in weights.items()}


def assert_kernel_matches_enumeration(d) -> None:
    """The kernel against the enumeration, per root: on the glued MV
    digraph at every generator key of positive degree, and on each copy's
    own field at every critical id of positive degree."""
    keys = _generator_keys(d)
    assert_kernel_values_match(
        *_glued(d), list(itertools.chain(*keys[1:])),
        lambda key: mv_trajectories_from(d, _named_generator(d, key)),
        lambda alpha: _require_generator(d, alpha),
    )
    for gvf in d._fields():
        if gvf is not None:
            x = gvf.complex
            assert_kernel_values_match(
                _arcs(gvf), gvf._down, list(itertools.chain(*gvf._critical_ids[1:])),
                lambda tau: trajectories_from(gvf, x._simplex(tau)), x._id,
            )


class TestKernelAgainstEnumeration:
    """`morse._flow`'s plain and split values, root by root, against the
    trajectories listed one by one, on the corpus covers and on hypothesis
    covers under both strategies."""

    @pytest.mark.parametrize("name,strategy", COVERS + INTERLEAVED)
    def test_corpus_covers(self, name, strategy):
        for d in cover_decompositions(name, strategy):
            assert_kernel_matches_enumeration(d)

    def test_octahedron_pinned_fields(self, oct_decomposition):
        assert_kernel_matches_enumeration(oct_decomposition)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["lexicographic", "random"]))
    def test_hypothesis_covers(self, rng, strategy):
        x = random_small_complex(rng)
        a, b = random_cover(x, rng)
        assert_kernel_matches_enumeration(
            build_decomposition(x, a, b, strategy=strategy, seed=rng.randint(0, 99))
        )


class TestCorpus:
    @pytest.mark.parametrize("name,strategy", COVERS + INTERLEAVED)
    def test_mv_complex(self, name, strategy):
        for d in cover_decompositions(name, strategy):
            assert_mv_matches(d)

    @pytest.mark.parametrize("name,strategy", COVERS)
    def test_thom_smale_of_x(self, name, strategy):
        assert_thom_smale_matches(greedy_gvf(corpus_complexes()[name], strategy, 7))

    @pytest.mark.parametrize("name,strategy", COVERS)
    def test_v_and_w_fields_of_xtilde(self, name, strategy):
        for d in cover_decompositions(name, strategy):
            xt = build_xtilde(d)
            assert_thom_smale_matches(_build_v_field(xt))
            assert_thom_smale_matches(_build_w_field(xt))

    @pytest.mark.parametrize("name,strategy", COVERS)
    def test_split_mv_flow(self, name, strategy):
        for d in cover_decompositions(name, strategy):
            assert_split_mv_flow_matches(d)

    def test_octahedron_pinned_fields(self, oct_decomposition):
        assert_mv_matches(oct_decomposition)
        assert_split_mv_flow_matches(oct_decomposition)
        xt = build_xtilde(oct_decomposition)
        assert_thom_smale_matches(_build_w_field(xt))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["lexicographic", "random"]))
def test_hypothesis_complexes(rng, strategy):
    x = random_small_complex(rng)
    a, b = random_cover(x, rng)
    d = build_decomposition(x, a, b, strategy=strategy, seed=rng.randint(0, 99))
    assert_mv_matches(d)
    assert_thom_smale_matches(greedy_gvf(x, strategy, 3))
    xt = build_xtilde(d)
    assert_thom_smale_matches(_build_w_field(xt))


def branching_decompositions(layers: int):
    """Two decompositions of the branching complex with its field pinned:
    on A (B the closure of the top triangle), so the doubling runs in case
    1; and on the intersection (A = B = X, greedy fields there), so it runs
    in case 3 and in the descents of cases 4 and 5."""
    x, pairs, top, _ = branching_complex(layers)
    cap = SimplicialComplex([top])
    yield build_decomposition(x, x, cap, fields={"A": pairs})
    yield build_decomposition(x, x, x, fields={"I": pairs})


def pair_counts(xt, tag: str, top, bottom) -> tuple[int, int]:
    """The number of trajectories from `top` to `bottom`, simplices of X
    whose copies tagged `tag` are critical, upstairs in (X~, W) and in MV,
    as `check_main_iso` reads them off the flows."""
    d = xt.decomposition
    w = _build_w_field(xt)
    cell = {_glued_id(d, xt._piece[i], xt._ground[i]): i for ids in w._critical_ids for i in ids}
    beta, alpha = (_glued_id(d, _TAGS.index(tag), d.x._id(s)) for s in (top, bottom))
    upstairs = _w_tallies(w)[cell[beta]][cell[alpha]]
    return upstairs[0], _mv_column(d, _generator_keys(d), split=True)[beta][alpha][0]


def write_branching(directory, layers: int):
    """The branching complex and its split with A's field pinned (the first
    of `branching_decompositions`) as a complex and a decomposition file."""
    x, pairs, top, _ = branching_complex(layers)
    cx, dec = directory / "x.cx", directory / "x.dec"
    cx.write_text("".join(" ".join(s.vertices) + "\n" for s in x.maximal_simplices))
    dec.write_text(
        "[A]\n" + "".join(" ".join(s.vertices) + "\n" for s in x.maximal_simplices)
        + "[B]\n" + " ".join(top.vertices) + "\n[fields]\n"
        + "".join(f"A: {' '.join(s.vertices)} -> {' '.join(t.vertices)}\n"
                  for s, t in pairs)
    )
    return str(cx), str(dec)


class TestBranchingFamily:
    @pytest.mark.parametrize("layers", [1, 2, 3, 5, 7])
    def test_count_doubles_and_flow_matches(self, layers):
        x, pairs, top, bottom = branching_complex(layers)
        gvf = GradientField.certify(VectorField(pairs), x)
        found = trajectories_from(gvf, top)
        assert len(found[bottom]) == 2 ** layers
        assert sum(len(ts) for ts in found.values()) == 2 ** (layers + 1) - 1
        assert abs(sum(t.weight for t in found[bottom])) == 2 ** layers
        assert_thom_smale_matches(gvf)

    @pytest.mark.parametrize("layers", [1, 2, 3, 5])
    def test_mv_counts_double_and_flow_matches(self, layers):
        _, _, top, bottom = branching_complex(layers)
        on_a, on_i = branching_decompositions(layers)
        case_1 = enumerate_mv(on_a, MVGenerator(FROM_A, retag(top, "", "A:"), 2),
                              MVGenerator(FROM_A, retag(bottom, "", "A:"), 1))
        assert len(case_1) == 2 ** layers
        case_3 = enumerate_mv(on_i, MVGenerator(SHIFTED, retag(top, "", "I:"), 3),
                              MVGenerator(SHIFTED, retag(bottom, "", "I:"), 2))
        assert len(case_3) == 2 ** layers
        assert_mv_matches(on_a)
        assert_mv_matches(on_i)

    @pytest.mark.parametrize("layers", range(1, 8))
    def test_split_mv_flow(self, layers):
        for d in branching_decompositions(layers):
            assert_split_mv_flow_matches(d)

    def test_forty_layers_homology_only(self, tmp_path, capsys):
        layers = 40
        x, pairs, top, bottom = branching_complex(layers)
        want = simplicial_homology(x)
        gvf = GradientField.certify(VectorField(pairs), x)
        c = thom_smale_complex(gvf)
        assert homology(c) == want
        i, j = c.labels[1].index(bottom), c.labels[2].index(top)
        assert abs(c.columns[1][j][i]) == 2 ** layers
        for d in branching_decompositions(layers):
            assert mv_homology(d) == want
        # and through the command line, with the field pinned in the file
        cx, dec = write_branching(tmp_path, layers)
        assert main(["homology", "--complex", cx, "--decomposition", dec]) == 0
        out = capsys.readouterr().out
        assert f"H_1 = Z^{layers}" in out and "H_2 = 0" in out

    @pytest.mark.parametrize("layers", [1, 2, 3, 4, 5])
    def test_verify_counts_double_and_match_enumeration(self, layers):
        _, _, top, bottom = branching_complex(layers)
        for d, tag in zip(branching_decompositions(layers), (FROM_A, SHIFTED)):
            xt = build_xtilde(d)
            assert pair_counts(xt, tag, top, bottom) == (2 ** layers, 2 ** layers)
            assert_counts_match_enumeration(xt)

    def test_forty_layers_verify(self, tmp_path, capsys):
        """2**40 trajectories per pair, so only counts can check them."""
        layers = 40
        _, _, top, bottom = branching_complex(layers)
        for d, tag in zip(branching_decompositions(layers), (FROM_A, SHIFTED)):
            xt = build_xtilde(d)
            report = check_main_iso(xt)
            assert report.ok, str(report)
            assert check_iso_simplicial(xt).ok
            assert pair_counts(xt, tag, top, bottom) == (2 ** layers, 2 ** layers)
        cx, dec = write_branching(tmp_path, layers)
        assert main(["verify", "--complex", cx, "--decomposition", dec]) == 0
        assert "verdict: PASS (12 checks)" in capsys.readouterr().out


def test_long_trajectories_need_no_recursion():
    """A circle of 1500 edges, whose trajectories run half way round: far
    deeper than the interpreter's recursion limit."""
    n = 1500
    x = SimplicialComplex([f"p{i:04d} p{(i + 1) % n:04d}" for i in range(n)])
    gvf = greedy_gvf(x)
    (tau,) = gvf.critical(1)
    steps = [len(t.steps) for ts in trajectories_from(gvf, tau).values() for t in ts]
    assert max(steps) > sys.getrecursionlimit()
    assert thom_smale_complex(gvf).columns == thom_smale_reference(gvf)


def digraph(succ: dict[int, tuple[int, int]], n: int) -> tuple:
    """A hand-made digraph in the shape of `_arcs` on the ids 0..n-1, with
    its `down`, which makes every id critical: id s has the arc (1, s, -1),
    which ends at s, unless succ[s] = (c, t), which makes its one arc
    (c, s, t) go on to t."""
    arcs = lambda s: [(succ[s][0], s, succ[s][1]) if s in succ else (1, s, -1)]
    return arcs, [-1] * n


def test_a_cycle_is_reported_not_followed():
    """The flow only ever runs on certified fields; should a cycle reach it
    anyway, it raises instead of growing its stack without end."""
    around = digraph({s: (1, (s + 1) % 3) for s in range(3)}, 3)
    with pytest.raises(InternalConsistencyError, match="cycle"):
        _flow(*around, [0])
    chain = digraph({s: (2, s + 1) for s in range(5000)}, 5001)
    assert _flow(*chain, [0])[0] == {5000: 2 ** 5000}


def test_a_cycle_is_reported_at_every_root_that_reaches_it():
    """Valued at any id on the cycle or leading to it, alone or after an id
    off the cycle, the flow raises and never returns the mark of an id in
    progress; an id off the cycle is still valued."""
    around = digraph({s: (1, t) for s, t in {0: 1, 1: 2, 2: 3, 3: 1}.items()}, 5)
    for root in (0, 1, 2, 3):  # 0 leads into the cycle 1, 2, 3
        with pytest.raises(InternalConsistencyError, match="cycle"):
            _flow(*around, [root])
        with pytest.raises(InternalConsistencyError, match="cycle"):
            _flow(*around, [4, root])
    assert _flow(*around, [4]) == {4: {4: 1}}
