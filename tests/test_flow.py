"""Boundaries from Forman's flow against the enumeration they replace.

Every boundary matrix in the package is assembled from memoised flows on
ids (`morse._flow`) over the arcs of the one signed step rule
`morse._arcs`: of one field, or, for the MV complex, of the three copies
glued into one digraph (`mv._glued`), whose I-copy cells carry the
transfer `morse._transfer` as well, and whose arcs carry the sign of
each MV case, so the plain flow of a generator's glued id is its MV
column.  Both rules list only the steps of extended trajectories, so
every arc goes on or ends at a critical cell, and the arcs alone are the
digraph.  The walks (`morse._walk`) that enumerate trajectories read the
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
included, on the glued MV digraph and on each copy's own field.  Its
memos, key order included, and its cycle errors equal those of the flow
it replaced (`slow_reference.reference_flow`), on hypothesis digraphs,
cyclic ones too, and on every flow of the corpus covers and of the
benchmark workloads.
"""
from __future__ import annotations

import gc
import itertools
import sys
from collections import Counter
from typing import Callable, Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morsemv import (
    GradientField,
    InternalConsistencyError,
    NotAcyclicError,
    Simplex,
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
from morsemv.complexes import copy_relabel
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
    _critical_ids,
    _sums,
    _w_tallies,
)
from conftest import (
    branching_complex,
    corpus_complexes,
    poor_field,
    random_cover,
    random_small_complex,
)
from slow_reference import (
    enumerated_mv_tallies,
    reference_closed_trajectory,
    reference_complex_columns,
    reference_flow,
    reference_weight,
    retag,
)
from test_id_core import benchmark_decomposition, random_matching
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
    flow = _flow(_glued(d), itertools.chain(*keys[1:]))
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


def assert_kernel_values_match(arcs, roots, paths_from, key) -> None:
    """At every root, the plain and the split value of `morse._flow` over
    the digraph `arcs` are the per-end sums over the trajectories
    `paths_from(root)` lists, grouped by end, their weights recomputed by
    `reference_weight` and their ends keyed by `key`: {end: sum} and {end:
    (count, sum)}, an end whose weights cancel kept in both."""
    plain = _flow(arcs, roots)
    split = _flow(arcs, roots, split=True)
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
        _glued(d), list(itertools.chain(*keys[1:])),
        lambda key: mv_trajectories_from(d, _named_generator(d, key)),
        lambda alpha: _require_generator(d, alpha),
    )
    for gvf in d._fields():
        if gvf is not None:
            x = gvf.complex
            assert_kernel_values_match(
                _arcs(gvf), list(itertools.chain(*gvf._critical_ids[1:])),
                lambda tau: trajectories_from(gvf, x._simplex(tau)), x._id,
            )


def steps_and_dead_ends(gvf: GradientField, offset: int = 0, end: int = 1) -> Callable:
    """The arcs out of an id before dead ends were left out, the oracle of
    `TestArcsAreTrajectorySteps`: (c, sigma, nu) for every facet sigma of
    tau other than down[tau], in vertex-drop order, going on to nu =
    up[sigma] when sigma is paired upward and ending (nu = -1) otherwise,
    whether or not sigma is critical, signed and glued as `_arcs` is."""
    up, down, lift, facets = gvf._up, gvf._down, gvf._lift, gvf.complex._table.facets

    def arcs(tau: int) -> list[tuple[int, int, int]]:
        out = []
        for k, s in enumerate(facets[tau]):
            c = -1 if k & 1 else 1
            if s != down[tau]:
                out.append((c * lift[s], offset + s, offset + up[s]) if up[s] >= 0
                           else (end * c, offset + s, -1))
        return out

    return arcs


def transfer_and_dead_end(piece: GradientField, offset: int = 0, sign: int = 1) -> Callable:
    """The transfer before dead ends were left out: one arc out of tau,
    going on to up[tau] in the piece or ending at tau, critical or not."""
    up, lift = piece._up, piece._lift
    return lambda tau: [(sign * lift[tau], offset + tau, offset + up[tau])
                        if up[tau] >= 0 else (sign, offset + tau, -1)]


def dropped_dead_ends(arcs: Callable, oracle: Callable, ids: Iterable[int],
                      critical: Callable[[int], bool], copy: Callable[[int], int]) -> Counter:
    """Checks that arcs(g) is oracle(g) with exactly its dead ends left out,
    at every id g in `ids`: every arc that ends, ends at a `critical` id,
    and the arcs that go on, and the ends at critical ids, are the
    oracle's, in order and sign.  Returns the number of dead ends left out,
    keyed "own" when the dead end lies in the `copy` of g and "transfer"
    when it lies in another."""
    dropped = Counter()
    for g in ids:
        got, want = arcs(g), oracle(g)
        assert all(critical(sigma) for _, sigma, nu in got if nu < 0)
        assert got == [arc for arc in want if arc[2] >= 0 or critical(arc[1])]
        for _, sigma, nu in want:
            if nu < 0 and not critical(sigma):
                dropped["own" if copy(sigma) == copy(g) else "transfer"] += 1
    return dropped


def field_dead_ends(gvf: GradientField) -> Counter:
    """`dropped_dead_ends` of `_arcs` on gvf, at every id of its complex."""
    return dropped_dead_ends(_arcs(gvf), steps_and_dead_ends(gvf),
                             itertools.chain(*gvf.complex._ids), gvf._is_critical, lambda i: 0)


def glued_dead_ends(d) -> Counter:
    """`dropped_dead_ends` of `_glued(d)`, at every glued id of the three
    copies, a glued id g naming the cell i of the copy k for (k, i) =
    divmod(g, n), n the size of X's table; the copies' fields and their
    own arcs are checked as well."""
    n, fields = len(d.x._table), d._fields()
    own = [steps_and_dead_ends(f, k * n, -1 if k == 2 else 1) if f is not None else None
           for k, f in enumerate(fields)]
    into = [transfer_and_dead_end(d.w_a, 0, -1), transfer_and_dead_end(d.w_b, n)]

    def oracle(g: int) -> list[tuple[int, int, int]]:
        k, i = divmod(g, n)
        return (into[0](i) + into[1](i) if k == 2 else []) + own[k](i)

    def critical(g: int) -> bool:
        k, i = divmod(g, n)
        return fields[k]._is_critical(i)

    ids = [k * n + i for k, f in enumerate(fields) if f is not None
           for i in itertools.chain(*f.complex._ids)]
    for f in fields:
        if f is not None:
            field_dead_ends(f)
    return dropped_dead_ends(_glued(d), oracle, ids, critical, lambda g: g // n)


class TestArcsAreTrajectorySteps:
    """`_arcs`, `_transfer` and `_glued` list the steps of extended
    trajectories and nothing else: an arc that ends, ends at a critical
    cell of its own copy, and a dead end, a step onto a cell paired
    downward, is left out, while every other arc is kept in order and sign.
    Greedy fields of both strategies, certified random matchings, tagged
    copies, the glued copies of greedy and pinned covers, and W on X~."""

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.sampled_from(["lexicographic", "random"]))
    def test_hypothesis_fields_and_covers(self, rng, strategy):
        x = random_small_complex(rng)
        copy = copy_relabel(x, "A:").complex
        fields = [greedy_gvf(x, strategy, rng.randint(0, 99)),
                  greedy_gvf(copy, strategy, rng.randint(0, 99))]
        pushed = VectorField((retag(s, "", "A:"), retag(t, "", "A:"))
                             for s, t in random_matching(x, rng))
        for field, on in ((random_matching(x, rng), x), (pushed, copy)):
            try:
                fields.append(GradientField.certify(field, on))
            except NotAcyclicError:
                pass
        for gvf in fields:
            field_dead_ends(gvf)
        a, b = random_cover(x, rng)
        greedy = build_decomposition(x, a, b, strategy=strategy, seed=rng.randint(0, 99))
        pieces = {"A": greedy.a, "B": greedy.b, "I": greedy.iab}
        pinned = build_decomposition(x, a, b, fields={
            k: poor_field(piece, 0.3, rng) for k, piece in pieces.items() if piece is not None})
        for d in (greedy, pinned):
            glued_dead_ends(d)
            field_dead_ends(_build_w_field(build_xtilde(d)))

    def test_corpus_covers_leave_out_both_kinds_of_dead_end(self):
        """On the corpus covers, greedy and poor, both rules leave out dead
        ends, so the checks above do not pass for want of one."""
        dropped = Counter()
        for name, strategy in COVERS + INTERLEAVED:
            for d in cover_decompositions(name, strategy):
                dropped += glued_dead_ends(d)
        assert dropped["own"] and dropped["transfer"]


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


def test_long_witnesses_need_no_recursion():
    """Every vertex of a circle of 1500 edges paired with its forward edge:
    the one closed trajectory runs all the way round, and certification
    names it as the reference search does, far deeper than the
    interpreter's recursion limit."""
    n = 1500
    names = [f"p{i:04d}" for i in range(n)]
    edges = [Simplex([names[i], names[(i + 1) % n]]) for i in range(n)]
    x = SimplicialComplex(edges)
    field = VectorField(zip(map(Simplex, names), edges))
    with pytest.raises(NotAcyclicError) as raised:
        GradientField.certify(field, x)
    witness = raised.value.witness
    assert n > sys.getrecursionlimit()
    assert len(witness) == 2 * n + 1
    assert witness == reference_closed_trajectory(field, x)


def digraph(succ: dict[int, tuple[int, int]]) -> Callable:
    """A hand-made digraph in the shape of `_arcs`, its arcs alone: id s has
    the arc (1, s, -1), which ends at s, unless succ[s] = (c, t), which
    makes its one arc (c, s, t) go on to t."""
    return lambda s: [(succ[s][0], s, succ[s][1]) if s in succ else (1, s, -1)]


def test_a_cycle_is_reported_not_followed():
    """The flow only ever runs on certified fields; should a cycle reach it
    anyway, it raises instead of growing its stack without end."""
    around = digraph({s: (1, (s + 1) % 3) for s in range(3)})
    with pytest.raises(InternalConsistencyError, match="cycle"):
        _flow(around, [0])
    chain = digraph({s: (2, s + 1) for s in range(5000)})
    assert _flow(chain, [0])[0] == {5000: 2 ** 5000}


def test_a_cycle_is_reported_at_every_root_that_reaches_it():
    """Valued at any id on the cycle or leading to it, alone or after an id
    off the cycle, the flow raises and never returns the mark of an id in
    progress; an id off the cycle is still valued."""
    around = digraph({s: (1, t) for s, t in {0: 1, 1: 2, 2: 3, 3: 1}.items()})
    cycles = {0: [1, 2, 3], 1: [1, 2, 3], 2: [2, 3, 1], 3: [3, 1, 2]}
    for root in (0, 1, 2, 3):  # 0 leads into the cycle 1, 2, 3
        with pytest.raises(InternalConsistencyError, match="cycle") as raised:
            _flow(around, [root])
        assert raised.value.cycle == cycles[root]
        with pytest.raises(InternalConsistencyError, match="cycle") as raised:
            _flow(around, [4, root])
        assert raised.value.cycle == cycles[root]  # no pending root below the path
    assert _flow(around, [4]) == {4: {4: 1}}


def test_a_cycle_leaves_no_garbage():
    """The CLI runs with the collector off, so the flow's cycle error must
    not be held by the frames of its own traceback: the memo of a flow
    that ran into a cycle is freed with the error."""
    around = digraph({s: (1, (s + 1) % 3) for s in range(3)})
    gc.collect()
    gc.disable()
    try:
        _flow(around, [0])
    except InternalConsistencyError as error:
        assert error.cycle == [0, 1, 2]
    finally:
        gc.enable()
    assert gc.collect() == 0


def assert_same_memo(arcs: Callable, roots: Iterable[int], split: bool = False) -> None:
    """`morse._flow` returns what `slow_reference.reference_flow` returns:
    the same ids in the same order, each value's keys in the same order
    with equal values, or the same cycle error and the same `cycle`."""
    roots = list(roots)
    try:
        want = reference_flow(arcs, roots, split)
    except InternalConsistencyError as error:
        with pytest.raises(InternalConsistencyError) as raised:
            _flow(arcs, roots, split)
        assert (str(raised.value), raised.value.cycle) == (str(error), error.cycle)
        return
    got = _flow(arcs, roots, split)
    assert list(got) == list(want)
    assert all(list(got[tau].items()) == list(value.items()) for tau, value in want.items())


def assert_flows_match_reference(d) -> None:
    """The MV flow, plain and split, V's flow and W's split flow of a
    decomposition, with the roots `mv` and `verify` value them at."""
    keys = _generator_keys(d)
    assert_same_memo(_glued(d), itertools.chain(*keys[1:]))
    assert_same_memo(_glued(d), itertools.chain(*keys[1:]), split=True)
    xt = build_xtilde(d)
    v, w = _build_v_field(xt), _build_w_field(xt)
    assert_same_memo(_arcs(v), itertools.chain(*v._critical_ids[1:]))
    assert_same_memo(_arcs(w), _critical_ids(w), split=True)


@st.composite
def digraphs(draw):
    """A digraph in the shape of `_arcs` on ids 0..n-1, its arcs alone, and
    roots, repeats allowed: each id has up to four arcs (c, sigma, nu),
    going on to an id nu or ending (nu = -1) at a sigma, ends repeated
    across ids and within one; cyclic or, with heads only above their
    tail, acyclic."""
    n = draw(st.integers(1, 12))
    acyclic = draw(st.booleans())
    table = []
    for tau in range(n):
        if not acyclic:
            heads = st.integers(0, n - 1)
        elif tau + 1 < n:
            heads = st.integers(tau + 1, n - 1)
        else:
            heads = st.just(-1)  # the last id only ends
        arc = st.tuples(st.sampled_from([1, -1, 2]), st.integers(100, 104),
                        heads | st.just(-1))
        table.append(draw(st.lists(arc, max_size=4)))
    roots = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return table.__getitem__, roots


class TestFlowAgainstReference:
    """The flow whose frames resume at their next head, with the roots
    looped over, against the stack of pending roots that rescanned its
    heads, which it replaced: the same memo in the same orders, split or
    not, and the same cycle."""

    @settings(max_examples=300, deadline=None)
    @given(digraphs(), st.booleans())
    def test_hypothesis_digraphs(self, graph, split):
        assert_same_memo(*graph, split)

    @pytest.mark.parametrize("succ,roots", [
        ({s: (1, (s + 1) % 3) for s in range(3)}, [0]),
        ({s: (2, s + 1) for s in range(5000)}, [0]),
        ({0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 1)}, [0]),
        ({0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 1)}, [4, 2]),
        ({0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 1)}, [4]),
        ({0: (-1, 0)}, [1, 0]),
    ])
    def test_hand_made_digraphs(self, succ, roots):
        for split in (False, True):
            assert_same_memo(digraph(succ), roots, split)

    @pytest.mark.parametrize("name,strategy", COVERS + INTERLEAVED)
    def test_corpus_covers(self, name, strategy):
        for d in cover_decompositions(name, strategy):
            assert_flows_match_reference(d)

    @pytest.mark.parametrize("workload", ["torus", "cube", "path", "random"])
    def test_benchmark_workloads(self, tmp_path, workload):
        assert_flows_match_reference(benchmark_decomposition(workload, tmp_path))
